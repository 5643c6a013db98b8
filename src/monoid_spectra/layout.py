"""The bit layouts in which a ``window._Window`` reads closures as ints: the
``Box`` of the additive carriers and the ``Table`` of a finite one.

A layout places the carrier's points at bits; packed slots of one width sit
side by side in each row, ``stride`` bits apart.  Both layouts answer the
same questions, so the window and its packs never ask which one they have:
``around`` and ``behind`` plan the layouts of a window, ``shift`` gives
the translate by a point, which ``moved`` applies to a mask, and ``start``
gives the move of a read by a point."""

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

    __slots__ = ("ctx", "x0", "y0", "rows", "cols", "stride")

    def __init__(self, ctx, x0, y0, rows, cols, stride=None):
        self.ctx, self.x0, self.y0 = ctx, x0, y0
        self.rows, self.cols = rows, cols
        self.stride = cols if stride is None else stride

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

    def shift(self, back, a):
        """The right shift moving a mask on the box `back` by the point a
        onto this box; None unless `back` holds the moved box."""
        x, y = self.ctx._xy(a)
        i, j = self.x0 - x - back.x0, self.y0 - y - back.y0
        if 0 <= i <= back.rows - self.rows and 0 <= j <= back.cols - self.cols:
            return i * back.stride + j
        return None

    def start(self, inner, g):
        """The move of a read on this box onto the box `inner` moved by g:
        a right shift."""
        x, y = (0, 0) if g is None else self.ctx._xy(g)
        return (inner.x0 + x - self.x0) * self.stride + inner.y0 + y - self.y0

    moved = staticmethod(operator.rshift)

    @staticmethod
    def meet(bits, moves):
        """The AND of `bits` moved by each of `moves`."""
        out = -1
        for k in moves:
            out &= bits >> k
        return out

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
        self._moves = {}

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

    def shift(self, back, a):
        """The move that translates a mask by the nonzero point a."""
        return self._move(self.ctx.inv(a))

    def start(self, inner, g):
        return self._move(self.ctx.one if g is None else g)

    @staticmethod
    def moved(bits, move):
        rights, lefts = move
        out = 0
        for m, d in rights:
            out |= (bits & m) >> d
        for m, d in lefts:
            out |= (bits & m) << d
        return out

    def meet(self, bits, moves):
        """The AND of `bits` moved by each of `moves`."""
        out = -1
        for move in moves:
            out &= self.moved(bits, move)
        return out

    def cells(self):
        """(bit, element) of every cell."""
        return ((i, i) for i in range(self.cols))
