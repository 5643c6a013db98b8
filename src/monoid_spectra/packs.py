"""Packed reads: the closures of several module systems of one window in
one int, a slot per system, and the driver that scans a pack's items for
every slot at once.  ``window._Window`` plans the layouts and the scans;
a pack reads in them."""

from __future__ import annotations

_UNREAD = object()


class _Pack:
    """Systems of a window read together, one slot each.  In every row of a
    packed int, slot s holds the s-th system's columns from bit s * width
    of the row on, so a shift on a box, or a permutation of a finite
    table's row, moves every slot at once; a system with fewer members
    than another has all-ones padding in its place.  A pack of
    systems read point by point has one bit per slot and no packed reads.
    Each slot's exact predicates and window masks serve the point loops.
    A pack is built with its window and lives as long, so its reads, member
    masks and point-by-point masks serve every scan of the window; member
    masks are built once, and per new list of a slot whose members vary."""

    def __init__(self, w, slots, packed):
        self.w, self.slots, self.packed = w, slots, packed
        self.systems = [w.systems[i] for i in slots]
        self._reads, self._boxes, self._members = {}, {}, {}
        self._preds, self._masks = {}, {}
        k = len(slots)
        if not packed:
            self.width, self.stride = 1, k
            self.masks = [1 << s for s in range(k)]
            return
        self.width, self.stride = W, P = w.width, w.box.stride
        self.ones = sum(1 << s * W for s in range(k))
        self.cells = w.cells * self.ones
        self.inf = w.inf * self.ones
        self.points = w.box_points * self.ones
        self._moved, self._starts = w.reach.moved, w.starts

        def rows(n):  # a slot's columns in each of n rows
            return sum(1 << r * P for r in range(n)) * ((1 << W) - 1)

        self.masks = [rows(w.box.rows) << s * W for s in range(k)]
        self._full, self._padding = rows(w.reach.rows), rows(w.wide.rows)
        self._keep = (1 << w.reach.rows * P) - 1
        self._lists = [r.members for r in self.systems]
        self._varying = [s for s, m in enumerate(self._lists) if callable(m)]

    def rep(self, bits):
        """Bits of slot 0, in every slot."""
        return bits * self.ones

    def slot(self, bits):
        """The slot of the lowest bit of `bits`, box bits of the window."""
        return ((bits & -bits).bit_length() - 1) % self.stride // self.width

    def reach(self, A):
        """Every slot's A_r on the window's reach layout, or None where A_r
        is read point by point: for a pack without packed reads and a set
        off the wide box.  Bits off the window's points are unspecified."""
        shifts = self.w.shifts(A) if self.packed else None
        if shifts is None:
            return None
        lists, key = self._lists, ()
        if self._varying:  # masks keyed by the varying slots' lists
            lists = [m(A) if callable(m) else m for m in lists]
            key = tuple(tuple(lists[s]) for s in self._varying)
        W = self.width
        if not shifts:  # {} and {0}: every cell for no members, else none
            return sum(self._full << s * W for s, m in enumerate(lists)
                       if not m)
        masks = self._members.get(key)
        if masks is None:
            span, pad = self.w.span, self._padding
            masks = self._members[key] = [
                sum((span(m[t]) if t < len(m) else pad) << s * W
                    for s, m in enumerate(lists))
                for t in range(max(map(len, lists)))]
        return self.w.reach.read(masks, shifts) & self._keep

    def read(self, A):
        """``reach`` of A, kept for the pack."""
        bits = self._reads.get(A, _UNREAD)
        if bits is _UNREAD:
            bits = self._reads[A] = self.reach(A)
        return bits

    def kept(self, A):
        """``read`` of A where the pack has kept it, else ``reach``, not
        kept."""
        bits = self._reads.get(A, _UNREAD)
        return self.reach(A) if bits is _UNREAD else bits

    def at(self, bits, by=None):
        """A packed reach read on the window's layout moved by `by`, one of
        the window's moves, at the window's points, with the zero (INF, or
        a finite carrier's zero cell), which every A_r holds."""
        return self._moved(bits, self._starts[by]) & self.cells | self.inf

    def box(self, A):
        """Every slot's A_r on the window's layout, kept, or None."""
        bits = self._boxes.get(A, _UNREAD)
        if bits is _UNREAD:
            bits = self.read(A)
            bits = self._boxes[A] = None if bits is None else self.at(bits)
        return bits

    def pred(self, s, A):
        """The exact predicate of A_r for slot s."""
        p = self._preds.get((s, A))
        if p is None:
            p = self._preds[s, A] = self.systems[s].closure(A)
        return p

    def mask(self, s, A):
        """A_r of slot s on the window, bit i for the i-th window point,
        read point by point."""
        m = self._masks.get((s, A))
        if m is None:
            pred = self.pred(s, A)
            m = self._masks[s, A] = sum(1 << i for g, i in
                                        self.w.index.items() if pred(g))
        return m

    def reader(self, s, A):
        """Exact membership in A_r for slot s: window points from the
        packed read, or from the mask where there is none, other points
        through the predicate, remembered while A is scanned."""
        bits, off = self.box(A), {}
        m, index = ((self.mask(s, A), self.w.index) if bits is None else
                    (bits >> s * self.width, self.w.cell))

        def member(g):
            i = index.get(g)
            if i is not None:
                return m >> i & 1 == 1
            if g not in off:
                off[g] = self.pred(s, A)(g)
            return off[g]

        return member


def _item(bad, point, args):
    """An entry of ``_first`` that is one item: a subset, a pair or a
    (subset, scalar)."""
    return bad, 1, lambda: ((bad, point, args),)


def _first(pack, items):
    """Each slot's (first witness, or None, and the number of items it
    read, as ``Check.scan`` counts them) over `items`, each (bad, k, parts):
    k items read at once, one or a group's pairs, which a slot with no bit
    of `bad` passes, and `bad` None sends every slot to them.  Such a slot
    reads the k items one by one, in order, from ``parts()``, each (bad,
    point, args) read the same way: the point loop, ``point(s, *args)``,
    gives the witness or None, and a slot stops at its first witness."""
    masks, found = pack.masks, {}
    live = sum(masks)
    n = 0
    for bad, k, parts in items:
        suspects = live if bad is None else bad & live
        while suspects:
            s = pack.slot(suspects)
            mask = masks[s]
            suspects &= ~mask
            for j, (part, point, args) in enumerate(parts(), n + 1):
                if part is None or part & mask:
                    witness = point(s, *args)
                    if witness is not None:
                        found[s] = witness, j
                        live &= ~mask
                        break
        n += k
        if not live:
            break
    return [found.get(s, (None, n)) for s in range(len(masks))]
