"""The bit layouts in which sets are read as ints, the ``Box`` of the
additive carriers and the ``Table`` of a finite one, and their two plans:
``Read`` for the suites' points and ``packed`` for a ``window._Window``.

A layout places the carrier's points at bits; packed slots of one width sit
side by side in each row, ``stride`` bits apart.  Both layouts answer the
same questions, so no reader asks which one it has: only the plans call
``around``, ``behind`` and ``with_stride``, ``start`` gives the move of a
read by a point, which ``moved`` applies to a mask, and ``translate``
reads a set's translate xS on the layout itself, once for each (S, x)
while the layout lives, so the r-ideals XH of one read share H's."""

from __future__ import annotations

import operator


class Box:
    """The bit layout of the additive carriers: a rectangle of cells
    (x, y), row x after row x, with cell (x, y) at bit
    (x - x0) * stride + (y - y0).  An integer g and a vector (g,) are the
    cell (0, g), a plane vector is its own cell, and the absorbing zero INF
    takes the bit after the last cell.  A stride past `cols` leaves unused
    bits at the end of each row, so moving a box by a vector is one fixed
    shift that never carries a row into the next."""

    __slots__ = ("ctx", "x0", "y0", "rows", "cols", "stride", "_translates")

    def __init__(self, ctx, x0, y0, rows, cols, stride=None):
        self.ctx, self.x0, self.y0 = ctx, x0, y0
        self.rows, self.cols = rows, cols
        self.stride = cols if stride is None else stride
        self._translates = {}

    def with_stride(self, stride):
        return Box(self.ctx, self.x0, self.y0, self.rows, self.cols, stride)

    def bit(self, g):
        """The bit of INF or of a carrier point inside the box."""
        if g is self.ctx.zero:
            return (self.rows - 1) * self.stride + self.cols
        x, y = self.ctx._xy(g)
        return (x - self.x0) * self.stride + y - self.y0

    def spread(self, cells):
        """The smallest box around this box moved by each of `cells`."""
        xs, ys = zip(*cells)
        return Box(self.ctx, self.x0 + min(xs), self.y0 + min(ys),
                   self.rows + max(xs) - min(xs),
                   self.cols + max(ys) - min(ys))

    def around(self, points):
        """The smallest box around this box and this box moved by each of
        `points` but INF."""
        zero, xy = self.ctx.zero, self.ctx._xy
        return self.spread([(0, 0), *(xy(g) for g in points
                                      if g is not zero)])

    def behind(self, hull):
        """This box moved back by every cell of the box `hull`."""
        return self.spread([(-hull.x0, -hull.y0), (1 - hull.x0 - hull.rows,
                                                   1 - hull.y0 - hull.cols)])

    def start(self, inner, g):
        """The move of a read on this box onto the box `inner` moved by g,
        a right shift, or None unless this box holds the moved box; at
        g^{-1}, the translate by g of a mask on this box onto `inner`."""
        x, y = (0, 0) if g is None else self.ctx._xy(g)
        i, j = inner.x0 + x - self.x0, inner.y0 + y - self.y0
        if (0 <= i <= self.rows - inner.rows
                and 0 <= j <= self.cols - inner.cols):
            return i * self.stride + j
        return None

    moved = staticmethod(operator.rshift)

    def translate(self, S, x):
        """xS on this box, read once: S read on this box with its cells
        relabelled by x^{-1}, so cell c holds x^{-1} c."""
        bits = self._translates.get((S, x))
        if bits is None:
            a, b = self.ctx._xy(self.ctx.inv(x))
            bits = self._translates[S, x] = S.span_mask(Box(
                self.ctx, self.x0 + a, self.y0 + b, self.rows, self.cols,
                self.stride))
        return bits

    def inverted(self, bits):
        """`bits` inverted: the bits of g and g^{-1} add up to twice the
        identity's, so inversion reverses them."""
        width = 2 * self.bit(self.ctx.one) + 1
        return int(format(bits, f"0{width}b")[::-1], 2)

    def cells(self):
        """(bit, carrier point) of every cell; the point is None at a cell
        off the carrier's lattice."""
        at = self.ctx._at
        for i in range(self.rows):
            for j in range(self.cols):
                yield i * self.stride + j, at(self.x0 + i, self.y0 + j)


class Table:
    """The bit layout of a finite carrier: one row, with cell i for element
    i, the zero an ordinary cell.  Every translate of the carrier is the
    carrier, so one row serves every window and every move.  Slots sit
    `cols` + 1 bits apart (a guard bit each, as on a box), and a move by g,
    which reads cell c at cell g c, permutes every slot at once by g's
    table row: one mask and one shift per shift distance, so at most one
    per cell.  A member's translate aS is its mask moved by a^{-1}."""

    rows = 1

    def __init__(self, ctx, stride=None):
        self.ctx = ctx
        self.cols = len(ctx.table)
        self.stride = self.cols if stride is None else stride
        self._moves, self._translates = {}, {}

    def with_stride(self, stride):
        return Table(self.ctx, stride)

    def bit(self, g):
        return g

    def around(self, points):
        return self

    def behind(self, hull):
        return self

    def _move(self, g):
        """The move by g: (mask, right shift) and (mask, left shift) pairs
        that take bit g c of every slot to bit c."""
        move = self._moves.get(g)
        if move is None:
            width = self.cols + 1
            ones = sum(1 << s for s in range(0, self.stride, width))
            by = {}
            for c, gc in enumerate(self.ctx.table[g]):
                by[gc - c] = by.get(gc - c, 0) | ones << gc
            move = self._moves[g] = (
                [(m, d) for d, m in by.items() if d >= 0],
                [(m, -d) for d, m in by.items() if d < 0])
        return move

    def start(self, inner, g):
        return self._move(self.ctx.one if g is None else g)

    def translate(self, S, x):
        """xS on this row, read once: S's row permuted by x^{-1}."""
        bits = self._translates.get((S, x))
        if bits is None:
            bits = self._translates[S, x] = self.moved(
                S.span_mask(self), self._move(self.ctx.inv(x)))
        return bits

    def inverted(self, bits):
        """`bits` of nonzero elements, inverted."""
        inv = self.ctx.inv
        return sum(1 << inv(c) for c in range(self.cols) if bits >> c & 1)

    @staticmethod
    def moved(bits, move):
        rights, lefts = move
        out = 0
        for m, d in rights:
            out |= (bits & m) >> d
        for m, d in lefts:
            out |= (bits & m) << d
        return out

    def cells(self):
        """(bit, element) of every cell."""
        return ((i, i) for i in range(self.cols))


class Read:
    """The distinct nonzero `points` laid out once on the carrier's
    ``layout``, with the row stride of ``wide``, the layout moved by each
    of `moves`: ``bit(g)`` and ``point(b)`` map points and bits, which rise
    in window order, and ``full`` holds them all.  A set is read through
    its ``has`` and ``span_mask``: an overmonoid, or an r-ideal XH, the OR
    of H's translates by X on the layout.  A read asks no point of a set
    with a ``span_mask``, except without a layout or past MAX_SPAN_BITS
    cells on ``wide``, where point i takes bit i, and for a move off
    ``wide`` (``_asked``)."""

    def __init__(self, ctx, points, moves=()):
        from . import monoid  # which lays its sets out in these layouts
        self.ctx = ctx
        points = dict.fromkeys(points)
        points.pop(ctx.zero, None)
        self.points = list(points)
        layout = ctx.box(self.points)
        wide = layout and layout.around(moves)
        if wide and wide.rows * wide.cols <= monoid.MAX_SPAN_BITS:
            self.layout, self.wide = layout.with_stride(wide.stride), wide
            self.bits = list(map(self.layout.bit, self.points))
        else:
            self.layout = self.wide = None
            self.bits = list(range(len(self.points)))
        self._bit = dict(zip(self.points, self.bits))
        self.bit = self._bit.__getitem__
        self.point = dict(zip(self.bits, self.points)).__getitem__
        self.full = sum(1 << b for b in self.bits)
        self._masks, self._spans = {}, {}

    def mask(self, S) -> int:
        """S's points, read on the first call."""
        m = self._masks.get(S)
        if m is None:
            m = self._masks[S] = (self._asked(S) if self.layout is None else
                                  S.span_mask(self.layout) & self.full)
        return m

    def moved(self, S, x) -> int:
        """The points g with x g in S, from S's one read on ``wide``."""
        k = self.layout and self.wide.start(self.layout, x)
        if k is None:
            return self._asked(S, x)
        if S not in self._spans:
            self._spans[S] = S.span_mask(self.wide)
        return self.layout.moved(self._spans[S], k) & self.full

    def inverted(self, m) -> int:
        """The points whose inverses m holds; the points hold theirs."""
        if self.layout is not None:
            return self.layout.inverted(m)
        bit, inv = self._bit, self.ctx.inv
        return sum(1 << bit[inv(g)] for g, b in zip(self.points, self.bits)
                   if m >> b & 1)

    def _asked(self, S, x=None) -> int:
        """S asked at each point, or at x times each point."""
        op = self.ctx.op
        return sum(1 << b for g, b in zip(self.points, self.bits)
                   if S.has(g if x is None else op(x, g)))


def packed(ctx, points, moves, hull, slots):
    """A window's layouts for packs of up to `slots` slots: its own, the
    reach (it moved by each of `moves`) and the wide (the reach moved back
    by the layout around `hull`), strided for as many slots of the wide
    width and a guard bit as fit in MAX_SPAN_BITS bits; None without a
    layout or past MAX_SPAN_BITS cells on the wide one."""
    from . import monoid
    b = ctx.box(points)
    if b is None:
        return None
    reach = b.around(moves)
    wide = reach.behind(b.around(hull))
    cap = monoid.MAX_SPAN_BITS
    if wide.rows * wide.cols > cap:
        return None
    width = wide.cols + 1
    stride = min(max(1, cap // (wide.rows * width)), slots) * width
    return [x.with_stride(stride) for x in (b, reach, wide)]
