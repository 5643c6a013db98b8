"""The scan window of the closure-axiom checkers of ``idealsys`` and
``modsys``: one seeded subset draw, and the window on which each closure is
read once as an int bitmask and every axiom is scanned."""

from __future__ import annotations

import functools
import itertools
import random

from . import monoid
from .monoid import INF, Box, sort_key
from .report import Check


def _subsets(xs, sizes):
    return [frozenset(c) for n in sizes for c in itertools.combinations(xs, n)]


def _and_of_ors(masks, shifts):
    """A product closure's A_r on a box: the AND over its members' `masks`
    of the OR of each mask shifted by A's `shifts`; every bit for no
    members, no bit for no shifts."""
    out = -1
    for m in masks:
        any_a = 0
        for k in shifts:
            any_a |= m >> k
        out &= any_a
    return out


class _Draw:
    """The subsets a check scans: all subsets of up to `size` points of a
    universe of at most `limit` points, a full draw; otherwise the empty
    set and `budget` seeded draws, without repeats.  A draw that is not full
    caps the scans with ``head`` and ``pick``; on a full one both return
    their input whole."""

    def __init__(self, universe, *, size=3, budget=300, limit=12, seed=0):
        self.exhaustive = len(universe) <= limit
        if self.exhaustive:
            self.subsets = _subsets(universe, range(size + 1))
        else:  # a drawn universe has more points than any subset
            rng = random.Random(seed)
            self.subsets = list(dict.fromkeys([frozenset(), *(
                frozenset(rng.sample(universe, rng.randint(1, size)))
                for _ in range(budget))]))
        # the picks' own stream: the subsets do not depend on the picks
        self._picks = random.Random(seed + 1)

    def head(self, k):
        """The first k subsets."""
        return self.subsets if self.exhaustive else self.subsets[:k]

    def pick(self, pool, k):
        """k seeded points of the pool, in ``sort_key`` order."""
        if self.exhaustive:
            return pool
        return sorted(self._picks.sample(pool, min(k, len(pool))),
                      key=sort_key)


def _plan(ctx, universe, draw, scalars=(), translators=()):
    """The window of a check: `draw`'s subsets of `universe`, and up to 12
    Id3 scalars from `scalars`, 40 points of the universe for Id3 and M4 and
    12 M4 translators from `translators`, picked in that order."""
    return _Window(ctx, universe, draw, draw.pick(scalars, 12),
                   draw.pick(universe, 40), draw.pick(translators, 12))


def _names(A):
    return sorted(map(repr, A))


class _Window:
    """The closures of systems on a window of points, checked here, each read
    once as an int bitmask (bit i <-> universe[i]), as in
    ``fintop.FiniteSpace``.  ``on(r)`` turns to the system r; its masks live
    until the next turn.  Window sets and their images under ``op`` reach
    the masks unchecked; points that leave the window go through the exact
    predicate, which checks them.

    Where the carrier has a ``Box`` layout and the system names its members,
    a closure is read on the window's box in one piece, and Id3 and M4
    compare such box masks as integers.  Only a difference sends them back
    to the point loop, which finds the same witness.  The window's moves are
    the inverses of its nonzero Id3 scalars and its M4 translators.

    Planned once per window, and dropped with it: the wide box (the box and
    its moves, moved back by the hull of the subsets and Id3 images), each
    set's shifts and each member's mask there.  A product closure's A_r is
    one AND over its members of the OR of A's shifts.  Past MAX_SPAN_BITS
    cells on the wide box, every closure is read point by point."""

    def __init__(self, ctx, universe, draw=None, scalars=(), points=(),
                 translators=()):
        for g in universe:
            ctx.check(g)
        self.ctx, self.universe, self.draw = ctx, universe, draw
        self.scalars, self.points = scalars, points
        self.translators = translators
        moves = [*(ctx.inv(c) for c in scalars if c != ctx.zero),
                 *translators]
        self.bit = {g: 1 << i for i, g in enumerate(universe)}
        self._sets, self._images = {}, {}
        self.box = b = ctx.box(universe)
        if b:
            # the box around b and b moved by each of `moves`: each A_r is
            # read on it once, with the wide box's stride, and the window's
            # box takes that stride too, so a read is one shift
            cells = [ctx._xy(g) for g in moves]
            reach = b.spread([(0, 0), *cells])
            h = b.spread([(0, 0), *(ctx._xy(c) for c in scalars
                                    if c != ctx.zero)])
            wide = reach.behind(h)
            if wide.rows * wide.cols > monoid.MAX_SPAN_BITS:
                self.box = None  # every closure is read point by point
                return
            reach.stride = wide.stride
            self._span = functools.cache(lambda S: S.span_mask(wide))
            self._shifts = functools.cache(lambda A: reach.shifts(wide, A))
            self.box = b = Box(ctx, b.x0, b.y0, b.rows, b.cols, reach.stride)
            # where the box, and the box moved by each move, starts in reach
            start = (b.x0 - reach.x0) * b.stride + b.y0 - reach.y0
            self._starts = {None: start, **{g: start + x * b.stride + y
                                            for g, (x, y) in zip(moves, cells)}}
            self._cells = sum(((1 << b.cols) - 1) << i * b.stride
                              for i in range(b.rows))
            self._infs = reach.bit(INF), b.bit(INF)
            self._box_points = sum(1 << b.bit(g) for g in points)
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
        with A_r's INF bit (c INF = INF), in the box's layout; bits at cells
        off the lattice are unspecified.  None where A_r is read point by
        point: without a box, for a system that names no members, and for a
        set off the wide box."""
        if self.box is None:
            return None
        if A not in self._reads:
            self._reads[A] = self._planned(A)
        bits = self._reads[A]
        if bits is None:
            return None
        inf, box_inf = self._infs
        return (bits >> self._starts[by] & self._cells
                | (bits >> inf & 1) << box_inf)

    def _planned(self, A):
        """A_r on reach as one ``_and_of_ors`` of the members' masks on the
        wide box, or None."""
        members = self.r.members(A)
        shifts = None if members is None else self._shifts(A)
        if shifts is None:
            return None
        return (_and_of_ors(map(self._span, members), shifts)
                | 1 << self._infs[0])

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

    def verdicts(self, scans):
        """One verdict per (name, outcomes), exhaustive on a full draw."""
        return [Check.scan(name, outcomes, exhaustive=self.draw.exhaustive)
                for name, outcomes in scans]

    def id1(self, key):
        """Id1: A u {0} inside A_r, one outcome per A."""
        zero = self.ctx.zero
        for A in self.draw.subsets:
            m = self.mask(A)
            yield next(({key: _names(A), "g": repr(g)} for g in [*A, zero]
                        if not m & self.bit[g]), None)

    def m2(self, pairs, keys="AB"):
        """M2: X_r inside Y_r, one outcome per (X, Y) of `pairs`, which for
        M2 have X inside Y; `keys` name X and Y."""
        x, y = keys
        return map(self.escape, ((self.mask(X), self.mask(Y), ((x, X), (y, Y)))
                                 for X, Y in pairs))

    def id2(self, pairs, keys):
        """Id2: M2 over the (X, Y) of `pairs` with X inside Y_r."""
        return self.m2(((X, Y) for X, Y in pairs
                        if not self.of(X) & ~self.mask(Y)), keys)

    def id3(self, key):
        """Id3: c A_r = (cA)_r at the points, one outcome per (A, c), A over
        the first 40 subsets, with the left side read literally: {0} for
        c = 0, otherwise c^{-1} g in A_r.  With box masks, a nonzero c is
        one XOR of A_r on the box moved by c^{-1} against (cA)_r on the box.
        The window forms each cA once."""
        ctx, images = self.ctx, self._images
        inverses = [(c, None if c == ctx.zero else ctx.inv(c))
                    for c in self.scalars]
        for A in self.draw.head(40):
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
                    if rhs is not None and not (lhs ^ rhs) & self._box_points:
                        yield None
                        continue
                    rhs = self.reader(cA)
                yield next(({key: _names(A), "c": repr(c), "g": repr(g)}
                            for g in self.points
                            if (g == ctx.zero if c_inv is None
                                else member(ctx.op(c_inv, g))) != rhs(g)),
                           None)

    def id4(self):
        """Id4: cH inside {c}_r, one outcome per c; H is the universe."""
        for c in self.universe:
            member = self.reader(frozenset([c]))
            yield next(({"c": repr(c), "h": repr(h)} for h in self.universe
                        if not member(self.ctx.op(c, h))), None)

    def m4(self):
        """M4: H A_r = A_r, one outcome per A; the inclusion A_r subset of
        H A_r is free.  With box masks, A passes when no translator h moves
        a point of A_r at the points out of A_r (INF stays put)."""
        ctx, points, translators = self.ctx, self.points, self.translators
        for A in self.draw.subsets:
            member = self.reader(A)
            inside = self.read(A)
            if inside is not None and not any(
                    inside & self._box_points & ~self.read(A, h)
                    for h in translators):
                yield None
                continue
            yield next(({"A": _names(A), "h": repr(h), "g": repr(g)}
                        for g in filter(member, points) for h in translators
                        if not member(ctx.op(h, g))), None)

    def idempotent(self):
        """(A_r)_r = A_r through the window slice of A_r, one outcome per A:
        the slice's closure sits inside (A_r)_r, so a point of it outside
        A_r is an honest counterexample."""
        for A in self.draw.subsets:
            m = self.mask(A)
            slice_ = frozenset(g for g in self.universe if m & self.bit[g])
            yield self.escape((self.mask(slice_), m, (("A", A),)))

    def finitary(self):
        """The closures of A's subsets inside A_r, one outcome per A: M2 over
        A's subsets.  A_r lies in their union for free, as A is one of
        them."""
        for A in self.draw.subsets:
            union = 0
            for E in _subsets(A, range(len(A) + 1)):
                union |= self.mask(E)
            yield self.escape((union, self.mask(A), (("A", A),)))
