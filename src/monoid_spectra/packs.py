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
    point by point has the same slots and rows, and no packed reads: a
    slot's ``box`` of a set is its mask on the window's bit map.  Each
    slot's exact predicates and window masks serve the point loops.

    A packed read comes from columns.  A point's column is one int: the
    pack's member masks moved to that point on the reach layout, the t-th
    member's translate in the t-th field of a reach read's size.  The
    zero's column is all ones in every padding field and in every filled
    member's field of its slot, and 0 elsewhere.  A set's A_r is the
    padding ORed with its points' columns, one OR per point, with its
    fields ANDed, one shift and AND per member.  So A = {} reads G for
    a slot with no members and {0} otherwise, and A = {0} reads G for a
    slot whose members are all filled.  Id3 reads an image cA from the
    columns at the points c a, so cA is not formed to be read.  The member
    masks are built once per pack; a pack keeps MAX_COLUMN_BITS bits of
    columns, and past them a column is built for its read and dropped.

    A pack is built with its window and lives as long, so its reads,
    columns, member masks and point-by-point masks serve every scan of the
    window."""

    def __init__(self, w, slots, packed):
        self.w, self.slots, self.packed = w, slots, packed
        self.systems = [w.systems[i] for i in slots]
        self._reads, self._boxes = {}, {}
        self._preds, self._masks = {}, {}
        self.width, self.stride = W, P = w.width, w.stride
        ones = sum(1 << s * W for s in range(len(slots)))
        self.inf = w.inf * ones
        # each window point's bit, in every slot
        self.cell = {g: ones << b for g, b in w.cell.items()}

        def rows(n):  # a slot's bits in each of n rows
            return sum(1 << r * P for r in range(n)) * ((1 << W) - 1)

        self.masks = [rows(w.rows) << s * W for s in range(len(slots))]
        if not packed:
            return
        self.cells = w.cells * ones
        self.points = w.box_points * ones
        self._moved, self._starts = w.reach.moved, w.starts
        self._size = S = w.reach.rows * P
        self._keep = (1 << S) - 1
        self._column_bits = 0
        lists = [(r.members, r.filled) for r in self.systems]
        n = max(len(m) for m, _ in lists)
        pad, full = rows(w.wide.rows), rows(w.reach.rows)
        self._members = [sum((w.span(m[t]) if t < len(m) else pad) << s * W
                             for s, (m, _) in enumerate(lists))
                         for t in range(n)]
        self._fields = range(0, n * S, S)

        def fields(fill):  # `full` in slot s's field t where fill(t, m, f)
            return sum(full << s * W << t * S for t in range(n)
                       for s, (m, f) in enumerate(lists) if fill(t, m, f))

        self._pad = fields(lambda t, m, f: t >= len(m))
        self._columns = {w.ctx.zero: fields(
            lambda t, m, f: t >= len(m) or t in f)}

    def slot(self, bits):
        """The slot of the lowest bit of `bits`, box bits of the window."""
        return ((bits & -bits).bit_length() - 1) % self.stride // self.width

    def _column(self, p):
        """The column at p, the t-th member's translate t fields of a reach
        read's size up, kept below the cap."""
        k = self.w.shift(p)
        col = sum((self._moved(m, k) & self._keep) << t * self._size
                  for t, m in enumerate(self._members))
        if self._column_bits < MAX_COLUMN_BITS:
            self._columns[p] = col
            self._column_bits += len(self._members) * self._size
        return col

    def reach(self, points):
        """Every slot's A_r on the window's reach layout, A the set of
        `points` (a set, or an image's points c a in any order), from the
        columns, or None for a pack without packed reads, whose A_r is read
        point by point.  Every point has a column: the wide layout lies
        around every window point and every Id3 image c a.  Bits off the
        window's points are unspecified."""
        if not self.packed:
            return None
        columns, any_a = self._columns, self._pad
        for p in points:
            col = columns.get(p)
            if col is None:
                col = self._column(p)
            any_a |= col
        out = self._keep
        for k in self._fields:
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
        """Every slot's A_r at the window's points, on the window's bit map,
        kept: the packed read moved onto the window's layout, or the OR of
        the slots' masks."""
        bits = self._boxes.get(A)
        if bits is None:
            bits = self._boxes[A] = (
                self.at(self.read(A)) if self.packed else
                sum(self.mask(s, A) << s * self.width
                    for s in range(len(self.slots))))
        return bits

    def pred(self, s, A):
        """The exact predicate of A_r for slot s."""
        p = self._preds.get((s, A))
        if p is None:
            p = self._preds[s, A] = self.systems[s].closure(A)
        return p

    def mask(self, s, A):
        """A_r of slot s at the window's points, on the window's bit map,
        read point by point."""
        m = self._masks.get((s, A))
        if m is None:
            pred = self.pred(s, A)
            m = self._masks[s, A] = sum(1 << b for g, b in
                                        self.w.cell.items() if pred(g))
        return m

    def reader(self, s, A):
        """Exact membership in A_r for slot s: window points from ``box``,
        other points through the predicate, remembered while A is
        scanned."""
        bits, cell, off = self.box(A) >> s * self.width, self.w.cell, {}

        def member(g):
            b = cell.get(g)
            if b is not None:
                return bits >> b & 1 == 1
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
