"""Packed reads: the closures of several module systems of one window in
one int, a slot per system, and the driver that scans a pack's items for
every slot at once.  ``window._Window`` plans the layouts and the scans;
a pack reads in them."""

from __future__ import annotations

_UNREAD = object()
# Most bits of columns a pack keeps for its window; past them a column is
# built for the read that asks for it and not kept.
MAX_COLUMN_BITS = 1 << 22


class _Pack:
    """Systems of a window read together, one slot each.  In every row of a
    packed int, slot s holds the s-th system's cells from bit s * width of
    the row on, so a shift on a box, or a permutation of a finite table's
    row, moves every slot at once; a system with fewer members than
    another has all-ones padding in its place.  A pack of systems read
    point by point has one bit per slot and no packed reads.  Each slot's
    exact predicates and window masks serve the point loops.

    A packed read comes from columns.  A point's column is one int: the
    pack's member masks moved to that point on the reach layout, the t-th
    member's translate in the t-th field of a reach read's size.  A set's
    A_r is the OR of its nonzero points' columns, one OR per point, with
    its fields ANDed, one shift and AND per member; a set with a point
    that has no column (off the wide layout) has no read.  Id3 reads an
    image cA from the columns at the points c a, so cA is not formed to be
    read.  Member masks and columns are kept per key: () for a pack whose
    members are constant, which calls no system to read, else the member
    lists the varying slots' functions give the set read (cA for an
    image), the only functions a read calls.  A pack keeps MAX_COLUMN_BITS
    bits of columns; past them a column is built for its read and dropped.

    A pack is built with its window and lives as long, so its reads,
    columns, member masks and point-by-point masks serve every scan of the
    window."""

    def __init__(self, w, slots, packed):
        self.w, self.slots, self.packed = w, slots, packed
        self.systems = [w.systems[i] for i in slots]
        self._reads, self._boxes, self._keys = {}, {}, {}
        self._preds, self._masks = {}, {}
        k = len(slots)
        if not packed:
            self.width, self.stride = 1, k
            self.masks = [1 << s for s in range(k)]
            return
        self.width, self.stride = W, P = w.width, w.box.stride
        ones = sum(1 << s * W for s in range(k))
        self.cells = w.cells * ones
        self.inf = w.inf * ones
        self.points = w.box_points * ones
        # each window point's cell, in every slot
        self.cell = {g: ones << b for g, b in w.cell.items()}
        self._moved, self._starts = w.reach.moved, w.starts

        def rows(n):  # a slot's cells in each of n rows
            return sum(1 << r * P for r in range(n)) * ((1 << W) - 1)

        self.masks = [rows(w.box.rows) << s * W for s in range(k)]
        self._full, self._padding = rows(w.reach.rows), rows(w.wide.rows)
        self._size = w.reach.rows * P
        self._keep = (1 << self._size) - 1
        self._zero, self._column_bits = w.ctx.zero, 0
        self._lists = [r.members for r in self.systems]
        self._varying = [s for s, m in enumerate(self._lists) if callable(m)]
        if not self._varying:
            self._constant = self._keyed(())

    def slot(self, bits):
        """The slot of the lowest bit of `bits`, box bits of the window."""
        return ((bits & -bits).bit_length() - 1) % self.stride // self.width

    def _keyed(self, key):
        """The member masks on the wide layout, the columns kept so far, the
        read of a set with no nonzero point (every cell where a slot has no
        members, else none) and the columns' field offsets, for the varying
        slots' lists `key`."""
        got = self._keys.get(key)
        if got is None:
            lists = iter(key)
            lists = [next(lists) if callable(m) else m for m in self._lists]
            span, pad, W = self.w.span, self._padding, self.width
            masks = [sum((span(m[t]) if t < len(m) else pad) << s * W
                         for s, m in enumerate(lists))
                     for t in range(max(map(len, lists)))]
            got = self._keys[key] = (masks, {}, sum(
                self._full << s * W for s, m in enumerate(lists) if not m),
                range(0, len(masks) * self._size, self._size))
        return got

    def _column(self, masks, columns, p):
        """The column at p for `masks`, the t-th member's translate t
        fields of a reach read's size up, kept in `columns` below the cap;
        None when p has no shift onto reach."""
        k = self.w.shift(p)
        col = None if k is None else sum(
            (self._moved(m, k) & self._keep) << t * self._size
            for t, m in enumerate(masks))
        if self._column_bits < MAX_COLUMN_BITS:
            columns[p] = col
            self._column_bits += len(masks) * self._size
        return col

    def reach(self, points):
        """Every slot's A_r on the window's reach layout, A the set of
        `points` (a set, or an image's points c a in any order), from the
        columns, or None where A_r is read point by point: for a pack
        without packed reads and a set off the wide layout.  Bits off the
        window's points are unspecified."""
        if not self.packed:
            return None
        if self._varying:
            A = frozenset(points)
            masks, columns, empty, fields = self._keyed(tuple(
                tuple(self._lists[s](A)) for s in self._varying))
        else:
            masks, columns, empty, fields = self._constant
        zero, any_a = self._zero, None
        for p in points:
            if p != zero:
                col = columns.get(p, _UNREAD)
                if col is _UNREAD:
                    col = self._column(masks, columns, p)
                if col is None:
                    return None
                any_a = col if any_a is None else any_a | col
        if any_a is None:
            return empty
        out = self._keep
        for k in fields:
            out &= any_a >> k
        return out

    def read(self, A):
        """``reach`` of A, kept for the pack."""
        bits = self._reads.get(A, _UNREAD)
        if bits is _UNREAD:
            bits = self._reads[A] = self.reach(A)
        return bits

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
