"""Packed reads: the closures of several module systems of one window in
one int, a slot per system, and the driver that scans a pack's items for
every slot at once.  ``window._Window`` plans the layouts and the scans;
a pack reads in them."""

from __future__ import annotations

# Most bits of columns a pack keeps for its window; past them a column is
# built for the read that asks for it and not kept.
MAX_COLUMN_BITS = 1 << 22


class _Pack:
    """Systems of a window read together, one slot each.  In every row of a
    packed int, slot s holds the s-th system's cells from bit s * width of
    the row on, so a shift on a box, or a permutation of a finite table's
    row, moves every slot at once; a system with fewer members than
    another has all-ones padding in its place.  Every read is a reach
    read, with the zero's bit (``zero``) set where A_r holds the zero.

    A pack of systems that name their members reads from columns, each
    system's product closure from the members ``_minimal`` keeps.  A
    point's column is one int: the pack's member masks moved to that point
    on the reach layout, the t-th member's translate in the t-th field of
    a reach read's size.  The zero's column is all ones in every padding
    field and in every filled member's field of its slot, and 0 elsewhere.
    A set's A_r is the padding ORed with its points' columns, one OR per
    point, with its fields ANDed, one shift and AND per member, and the
    zero, which every product closure holds.  So A = {} reads G for a slot
    with no members and {0} otherwise, and A = {0} reads G for a slot
    whose members are all filled.  Id3 reads an image cA from the columns
    at the points c a, so cA is not formed to be read.  The member masks
    are built once per pack; a pack keeps MAX_COLUMN_BITS bits of columns,
    and past them a column is built for its read and dropped.  A pack of
    systems that name no members reads A_r from each slot's ``rule``, one
    call per set, on the reach layout, where the rule sets the carrier's
    cells and the zero's bit.

    A pack is built with its window and lives as long, so its reads,
    columns and member masks serve every scan of the window."""

    def __init__(self, w, slots, packed):
        self.w, self.slots, self.packed = w, slots, packed
        self.systems = [w.systems[i] for i in slots]
        self._reads, self._boxes = {}, {}
        self.width, self.stride = W, P = w.width, w.stride
        ones = sum(1 << s * W for s in range(len(slots)))
        self.inf = w.inf * ones
        # each window point's bit, in every slot
        self.cell = {g: ones << b for g, b in w.cell.items()}
        self.cells = w.cells * ones
        self.points = w.box_points * ones
        reach, zero = w.reach, w.ctx.zero
        self._moved, self._starts = reach.moved, w.starts
        # the zero's bit of a reach read, and its fall onto the window's
        z = reach.bit(zero)
        self.zero, self._drop = ones << z, z - w.box.bit(zero)

        def rows(n):  # a slot's bits in each of n rows
            return sum(1 << r * P for r in range(n)) * ((1 << W) - 1)

        self.masks = [rows(w.rows) << s * W for s in range(len(slots))]
        if not packed:
            return
        self._size = S = reach.rows * P
        self._keep = (1 << S) - 1
        self._column_bits = 0
        lists = list(map(_minimal, self.systems))
        n = max(len(m) for m, _ in lists)
        pad, full = rows(w.wide.rows), rows(reach.rows)
        self._members = [sum((w.span(m[t]) if t < len(m) else pad) << s * W
                             for s, (m, _) in enumerate(lists))
                         for t in range(n)]
        self._fields = range(0, n * S, S)

        def fields(fill):  # `full` in slot s's field t where fill(t, m, f)
            return sum(full << s * W << t * S for t in range(n)
                       for s, (m, f) in enumerate(lists) if fill(t, m, f))

        self._pad = fields(lambda t, m, f: t >= len(m))
        self._columns = {zero: fields(lambda t, m, f: t >= len(m) or t in f)}

    def slot(self, bits):
        """The slot of the lowest bit of `bits`, box bits of the window."""
        return ((bits & -bits).bit_length() - 1) % self.stride // self.width

    def point(self, bits):
        """The window point of the lowest bit of `bits`, on the bit map."""
        b = (bits & -bits).bit_length() - 1
        return self.w.point[b - self.slot(bits) * self.width]

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
        `points` (a set, or an image's points c a in any order): from the
        columns, or from the rules, kept per set.  Every point has a
        column: the wide layout lies around every window point and every
        Id3 image c a.  Bits off the layout's carrier points and its zero
        bit are unspecified."""
        if not self.packed:
            A = frozenset(points)
            bits = self._reads.get(A)
            if bits is None:
                bits = self._reads[A] = sum(
                    r.rule(A, self.w.reach) << s * self.width
                    for s, r in enumerate(self.systems))
            return bits
        columns, any_a = self._columns, self._pad
        for p in points:
            col = columns.get(p)
            if col is None:
                col = self._column(p)
            any_a |= col
        out = self._keep
        for k in self._fields:
            out &= any_a >> k
        return out | self.zero

    def read(self, A):
        """``reach`` of A, kept for the pack."""
        bits = self._reads.get(A)
        if bits is None:
            bits = self._reads[A] = self.reach(A)
        return bits

    def fall(self, bits):
        """The zero's bits of a reach read, at the zero's bit of the
        window's layout."""
        return (bits & self.zero) >> self._drop

    def at(self, bits, by=None):
        """A reach read on the window's layout moved by `by`, one of the
        window's moves, at the window's points and the zero (INF, or a
        finite carrier's zero cell, which every move keeps)."""
        return self._moved(bits, self._starts[by]) & self.cells | self.fall(
            bits)

    def box(self, A):
        """Every slot's A_r at the window's points and the zero, on the
        window's bit map, kept."""
        bits = self._boxes.get(A)
        if bits is None:
            bits = self._boxes[A] = self.at(self.read(A))
        return bits


def _minimal(r):
    """r's members as a pack reads them, with the positions of its filled
    ones: a member S is left out when an already kept generator-backed
    member T has all its generators in S, so T lies inside S, and T is
    unfilled or S is filled.  Then SA holds TA, and 0S is G when 0T is, so
    S's term of the product closure holds T's, and A_r is unchanged."""
    kept = []
    for i, S in enumerate(r.members):
        fill = i in r.filled
        if not any(T.gens is not None and (fill or not f)
                   and all(map(S.has, T.gens)) for T, f in kept):
            kept.append((S, fill))
    return ([S for S, _ in kept],
            [t for t, (_, fill) in enumerate(kept) if fill])


def _item(bad, witness, args):
    """An entry of ``_first`` that is one item: a subset, a pair or a
    (subset, scalar)."""
    return bad, 1, lambda: ((bad, witness, args),)


def _first(pack, items):
    """Each slot's (first witness, or None, and the number of items it
    read, as ``Check.scan`` counts them) over `items`, each (bad, k, parts):
    k items read at once, one or a group's pairs, which a slot with no bit
    of `bad` passes.  A slot with bits of `bad` stops there, at the first
    of the k items that ``parts()`` gives, in order, each (bad, witness,
    args), with bits of the slot: ``witness(bits, *args)`` reads the
    witness from the slot's bits of that item."""
    masks, found = pack.masks, {}
    live = sum(masks)
    n = 0
    for bad, k, parts in items:
        suspects = bad & live
        while suspects:
            s = pack.slot(suspects)
            mask = masks[s]
            suspects &= ~mask
            found[s] = next((witness(part & mask, *args), j)
                            for j, (part, witness, args)
                            in enumerate(parts(), n + 1) if part & mask)
            live &= ~mask
        n += k
        if not live:
            break
    return [found.get(s, (None, n)) for s in range(len(masks))]
