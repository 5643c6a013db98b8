"""The scan window of the closure-axiom checkers of ``idealsys`` and
``modsys``: seeded subset draws, and the window on which each closure is
read once as an int bitmask and the axioms are scanned."""

from __future__ import annotations

import itertools
import random

from .monoid import INF, Box
from .report import Check


def _subsets(xs, sizes):
    return [frozenset(c) for n in sizes for c in itertools.combinations(xs, n)]


def _sample_subsets(universe, *, exhaustive_limit=12, max_subset_size=3,
                    sample_budget=300, seed=0):
    """All subsets of up to `max_subset_size` points of a universe of at most
    `exhaustive_limit` points; otherwise the empty set and `sample_budget`
    seeded draws, without repeats."""
    if len(universe) <= exhaustive_limit:
        return _subsets(universe, range(max_subset_size + 1)), True
    rng = random.Random(seed)
    subs = [frozenset()]
    for _ in range(sample_budget):
        n = rng.randint(1, max_subset_size)
        subs.append(frozenset(rng.sample(universe, min(n, len(universe)))))
    return list(dict.fromkeys(subs)), False


def _names(A):
    return sorted(map(repr, A))


class _Window:
    """The closures of systems on a window of points, checked here, each read
    once as an int bitmask (bit i <-> universe[i]), as in
    ``fintop.FiniteSpace``.  ``on(r)`` turns to the system r; its masks live
    until the next turn.  Window sets and their images under ``op`` reach
    the masks unchecked; points that leave the window go through the exact
    predicate, which checks them.

    Where the carrier has a ``Box`` layout and the system masks, a closure is
    read on the window's box in one piece, and Id3 and M4 compare such box
    masks as integers.  Only a difference sends them back to the point
    loop, which finds the same witness."""

    def __init__(self, ctx, universe, moves=()):
        for g in universe:
            ctx.check(g)
        self.ctx, self.universe = ctx, universe
        self.bit = {g: 1 << i for i, g in enumerate(universe)}
        self._sets, self._images = {}, {}
        self.box = b = ctx.box(universe)
        if b:
            # the box around b and b moved by each of `moves`: each A_r is
            # read on it once, and the window's box takes its stride, so a
            # read is one shift
            cells = [ctx._xy(g) for g in moves]
            xs, ys = zip((0, 0), *cells)
            self.reach = reach = Box(ctx, b.x0 + min(xs), b.y0 + min(ys),
                                     b.rows + max(xs) - min(xs),
                                     b.cols + max(ys) - min(ys))
            self.box = b = Box(ctx, b.x0, b.y0, b.rows, b.cols, reach.stride)
            # where the box, and the box moved by each move, starts in reach
            start = (b.x0 - reach.x0) * b.stride + b.y0 - reach.y0
            self._starts = {None: start, **{g: start + x * b.stride + y
                                            for g, (x, y) in zip(moves, cells)}}
            self._cells = sum(((1 << b.cols) - 1) << i * b.stride
                              for i in range(b.rows))
            self._infs = reach.bit(INF), b.bit(INF)
            # the window's points as (box bit, window bit); None when the
            # two agree, as on a full window of the line followed by INF
            bits = [(b.bit(g), m) for g, m in self.bit.items()]
            self._gather = (None if all(m == 1 << j for j, m in bits)
                            else bits)

    def on(self, r):
        """This window for the system r, with empty closure caches."""
        self.r, self._preds, self._masks, self._reads = r, {}, {}, {}
        return self

    def pred(self, A):
        """The exact predicate of A_r."""
        p = self._preds.get(A)
        if p is None:
            p = self._preds[A] = self.r.closure(A)
        return p

    def read(self, A, by=None):
        """A_r on the window's box moved by `by`, one of the window's moves,
        with A_r's INF bit (c INF = INF), in the box's layout; None where
        A_r is read point by point: without a box or a mask, and past the
        mask cap."""
        if self.box is None:
            return None
        if A not in self._reads:
            f = self.r._mask and self.r._mask(A)
            self._reads[A] = f and f(self.reach)
        bits = self._reads[A]
        if bits is None:
            return None
        inf, box_inf = self._infs
        return (bits >> self._starts[by] & self._cells
                | (bits >> inf & 1) << box_inf)

    def in_box(self, points):
        """The points as a box mask (0 without a box)."""
        return sum(1 << self.box.bit(g) for g in points) if self.box else 0

    def mask(self, A):
        """A_r on the window."""
        m = self._masks.get(A)
        if m is None:
            s = self.read(A)
            if s is None:
                pred = self.pred(A)
                m = sum(b for g, b in self.bit.items() if pred(g))
            elif self._gather is None:
                m = s & (1 << len(self.universe)) - 1
            else:
                m = sum(b for j, b in self._gather if s >> j & 1)
            self._masks[A] = m
        return m

    def of(self, X):
        """The window set X itself."""
        m = self._sets.get(X)
        if m is None:
            m = self._sets[X] = sum(self.bit[g] for g in X)
        return m

    def reader(self, A):
        """Exact membership in A_r: window points from the mask, other points
        through the predicate, remembered while A is scanned."""
        m, bit, off = self.mask(A), self.bit, {}

        def member(g):
            b = bit.get(g)
            if b is not None:
                return m & b != 0
            if g not in off:
                off[g] = self.pred(A)(g)
            return off[g]

        return member

    def escape(self, item):
        """The inclusion test of one (inner, outer, named sets): a window
        point of `inner` outside `outer`, the first in window order, or
        None."""
        inner, outer, named = item
        bad = inner & ~outer
        if bad:
            g = self.universe[(bad & -bad).bit_length() - 1]
            return {**{k: _names(A) for k, A in named}, "g": repr(g)}
        return None

    def id1(self, subsets, key):
        """Id1: A u {0} inside A_r, one outcome per A."""
        zero = self.ctx.zero
        for A in subsets:
            m = self.mask(A)
            yield next(({key: _names(A), "g": repr(g)} for g in [*A, zero]
                        if not m & self.bit[g]), None)

    def id3(self, subsets, scalars, points, key):
        """Id3: c A_r = (cA)_r at the points, one outcome per (A, c), with the
        left side read literally: {0} for c = 0, otherwise c^{-1} g in A_r.
        With box masks, a nonzero c is one XOR of A_r on the box moved by
        c^{-1} against (cA)_r on the box.  The window forms each cA once."""
        ctx, images = self.ctx, self._images
        box_pts = self.in_box(points)
        inverses = [(c, None if c == ctx.zero else ctx.inv(c))
                    for c in scalars]
        for A in subsets:
            member = self.reader(A)
            for c, c_inv in inverses:
                cA = images.get((A, c))
                if cA is None:
                    cA = images[A, c] = frozenset(ctx.op(c, a) for a in A)
                lhs = None if c_inv is None else self.read(A, c_inv)
                if lhs is None:
                    rhs = self.r.closure(cA)
                else:
                    rhs = self.read(cA)
                    if rhs is not None and not (lhs ^ rhs) & box_pts:
                        yield None
                        continue
                    rhs = self.reader(cA)
                yield next(({key: _names(A), "c": repr(c), "g": repr(g)}
                            for g in points
                            if (g == ctx.zero if c_inv is None
                                else member(ctx.op(c_inv, g))) != rhs(g)),
                           None)

    def m4(self, subsets, translators, points):
        """M4: H A_r = A_r, one outcome per A; the inclusion A_r subset of
        H A_r is free.  With box masks, A passes when no translator h moves
        a point of A_r at the points out of A_r (INF stays put)."""
        ctx = self.ctx
        box_pts = self.in_box(points)
        for A in subsets:
            member = self.reader(A)
            inside = self.read(A)
            if inside is not None and not any(
                    inside & box_pts & ~self.read(A, h) for h in translators):
                yield None
                continue
            yield next(({"A": _names(A), "h": repr(h), "g": repr(g)}
                        for g in filter(member, points) for h in translators
                        if not member(ctx.op(h, g))), None)


def _verdicts(scans, exhaustive):
    return [Check.scan(name, outcomes, exhaustive=exhaustive)
            for name, outcomes in scans]
