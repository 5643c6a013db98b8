"""The scan window of the closure-axiom checkers of ``idealsys`` and
``modsys``: one seeded subset draw, and the window on which the closures of
all its systems are read as int bitmasks, several systems to an int, and
every axiom is scanned for all of them at once."""

from __future__ import annotations

import functools
import itertools
import random

from . import monoid
from .monoid import INF, sort_key
from .packs import _SKIP, _first, _Pack
from .report import Check


def _subsets(xs, sizes):
    return [frozenset(c) for n in sizes for c in itertools.combinations(xs, n)]


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
    """The closures of systems on a window of points, checked here, and every
    axiom scanned for all of them at once.  ``on(systems)`` names the
    systems; ``verdicts`` gives one list of verdicts per system, in their
    order.  Window sets and their images under ``op`` reach the systems'
    members unchecked; points that leave the window go through the exact
    predicate, which checks them.

    Planned once per window, and dropped with it, in the bit layout the
    carrier supplies (``ctx.box``; none in dimension 3): the window's
    layout, the reach layout (the window's moved by each of its moves: the
    inverses of its nonzero Id3 scalars and its M4 translators), the wide
    layout (reach moved back by the hull of the subsets and Id3 images),
    each set's translates and each member's mask on the wide layout.  On
    a ``Box`` they are three boxes and a translate is a shift; a finite
    carrier's ``Table`` is one row for all three, and a translate or a move
    by g permutes the row by g's table row.  A product closure's A_r on
    reach is one AND over its members of the OR of A's translates.

    Slots and batches: the systems that name their members share ints.
    Each gets a slot of the wide layout's width and one guard bit in every
    row, and a row holds the slots side by side, so one AND-of-ORs (the
    layout's ``read``) on packed member masks reads A_r for every slot.  A
    shift carries bits of the next slot only into columns past the reach
    box, which no scan reads, and the guard bit takes a box's INF; a row
    permutation keeps every slot's bits in its slot.  A pack holds as many
    slots as fit in MAX_SPAN_BITS bits on the wide layout; the packs
    (``packs._Pack``) are read one after the other, each with its own
    caches, and a read keeps only the reach layout's rows.  Reads of the
    Id3 images cA are used once and not kept.

    The scans: each item of Id1, M2, Id2, Id3 and M4 (and of idempotence
    and finitariness) is one int compare for all slots at once, in the
    layout at the window's points.  A nonzero slot sends that system and
    that item to the point loop, which finds the same witness, and a
    system's scan stops at its first witness, as ``Check.scan`` counts.  A
    system that passes never opens a reader.  Id4, the systems that name no
    members, every system of a carrier without a layout and every system
    past MAX_SPAN_BITS cells on the wide layout are read point by point, on
    every item."""

    def __init__(self, ctx, universe, draw=None, scalars=(), points=(),
                 translators=()):
        for g in universe:
            ctx.check(g)
        self.ctx, self.universe, self.draw = ctx, universe, draw
        self.scalars, self.points = scalars, points
        self.translators = translators
        self.index = {g: i for i, g in enumerate(universe)}
        self._sets, self._images = {}, {}
        self.wide = None  # no packed reads: every closure point by point
        self._moves = [*(ctx.inv(c) for c in scalars if c != ctx.zero),
                       *translators]
        self.box = b = ctx.box(universe)
        if not b:
            return
        # the layout around b and b moved by each move: each A_r is read on
        # it, and the window's layout takes the packs' row stride too
        self.reach = reach = b.around(self._moves)
        wide = reach.behind(b.around(scalars))
        if wide.rows * wide.cols <= monoid.MAX_SPAN_BITS:
            self.wide = wide

    def on(self, systems):
        """This window for `systems`: the packs' row stride, and the
        layouts, translates and masks in it."""
        self.systems = list(systems)
        self.named = [] if self.wide is None else [
            i for i, r in enumerate(self.systems) if r.members is not None]
        if not self.named:
            return self
        self.width = W = self.wide.cols + 1
        self.per = max(1, monoid.MAX_SPAN_BITS // (self.wide.rows * W))
        P = min(self.per, len(self.named)) * W
        self.wide, self.reach, self.box = wide, reach, b = [
            x.with_stride(P) for x in (self.wide, self.reach, self.box)]
        self.span = functools.cache(lambda S: S.span_mask(wide))
        self.shifts = functools.cache(lambda A: reach.shifts(wide, A))
        # the move of a read on reach onto the window's layout, and onto it
        # moved by each move
        self.starts = {g: reach.start(b, g) for g in [None, *self._moves]}
        self.cell = {g: b.bit(g) for g in self.universe}
        self.inf = 1 << b.bit(self.ctx.zero)
        self.cells = self.cells_of(g for g in self.universe if g is not INF)
        self.box_points = self.cells_of(self.points)
        return self

    def packs(self):
        """The systems in packs, each with empty caches: those that name
        their members, in order, as many to a pack as fit in MAX_SPAN_BITS
        bits and read in the carrier's layout, a box or a table row, then
        those read point by point."""
        named = self.named
        if named:
            for k in range(0, len(named), self.per):
                yield _Pack(self, named[k:k + self.per], True)
        rest = [i for i in range(len(self.systems)) if i not in named]
        if rest:
            yield _Pack(self, rest, False)

    def of(self, X):
        """The window set X itself."""
        m = self._sets.get(X)
        if m is None:
            m = self._sets[X] = sum(1 << self.index[g] for g in X)
        return m

    def cells_of(self, X):
        """The window points X in the layout."""
        return sum(1 << self.cell[g] for g in X)

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

    def verdicts(self, *scans, exhaustive=None, **kw):
        """Per system, one verdict per (name, scan, *args) of `scans`, the
        scan a method taking a pack and `args`; exhaustive on a full draw
        unless `exhaustive` says otherwise, with ``bound`` and ``detail``
        passed on."""
        if exhaustive is None:
            exhaustive = self.draw.exhaustive
        out = [[] for _ in self.systems]
        for pack in self.packs():
            for name, scan, *args in scans:
                for i, (witness, n) in zip(pack.slots,
                                           _first(pack, scan(pack, *args))):
                    out[i].append(Check(name, witness is None,
                                        witness=witness, exhaustive=exhaustive,
                                        n=n, **kw))
        return out

    def id1(self, pack, key):
        """Id1: A u {0} inside A_r, one item per A."""
        zero = self.ctx.zero

        def point(s, A):
            m = pack.mask(s, A)
            return next(({key: _names(A), "g": repr(g)} for g in [*A, zero]
                         if not m >> self.index[g] & 1), None)

        for A in self.draw.subsets:
            inside = pack.box(A)
            yield (None if inside is None else pack.rep(
                self.cells_of(A | {zero})) & ~inside, 0, point, (A,))

    def _inclusion(self, pack, keys):
        """The point loop of M2 and Id2: X_r inside Y_r for slot s, with
        `keys` naming X and Y."""
        x, y = keys

        def point(s, X, Y):
            return self.escape((pack.mask(s, X), pack.mask(s, Y),
                                ((x, X), (y, Y))))

        return point

    def m2(self, pack, pairs, keys="AB"):
        """M2: X_r inside Y_r, one item per (X, Y) of `pairs`, which for M2
        have X inside Y; `keys` name X and Y."""
        point = self._inclusion(pack, keys)
        for X, Y in pairs:
            inner, outer = pack.box(X), pack.box(Y)
            yield (None if inner is None else inner & ~outer), 0, point, (X, Y)

    def id2(self, pack, pairs, keys):
        """Id2: M2 over the (X, Y) of `pairs` with X inside Y_r; a pair with
        X outside a system's Y_r is none of its items."""
        m2 = self._inclusion(pack, keys)

        def point(s, X, Y):
            return _SKIP if self.of(X) & ~pack.mask(s, Y) else m2(s, X, Y)

        sets, alone = {}, len(pack.slots) == 1  # each X in every slot
        for X, Y in pairs:
            inner, outer = pack.box(X), pack.box(Y)
            if inner is None:
                yield None, 0, point, (X, Y)
                continue
            x = sets.get(X)
            if x is None:
                x = sets[X] = pack.rep(self.cells_of(X))
            skip = x & ~outer
            if not (skip and alone):  # else no item of the pack's system
                yield inner & ~outer, skip, point, (X, Y)

    def id3(self, pack, key):
        """Id3: c A_r = (cA)_r at the points, one item per (A, c), A over
        the first 40 subsets, with the left side read literally: {0} for
        c = 0, otherwise c^{-1} g in A_r, which is A_r on the window's layout
        moved by c^{-1}.  The window forms each cA once."""
        ctx, images = self.ctx, self._images
        inverses = [(c, None if c == ctx.zero else ctx.inv(c))
                    for c in self.scalars]

        def point(s, A, c, c_inv, cA):
            member, rhs = pack.reader(s, A), pack.systems[s].closure(cA)
            return next(({key: _names(A), "c": repr(c), "g": repr(g)}
                         for g in self.points
                         if (g == ctx.zero if c_inv is None
                             else member(ctx.op(c_inv, g))) != rhs(g)), None)

        for A in self.draw.head(40):
            bits = pack.read(A)
            for c, c_inv in inverses:
                cA = images.get((A, c))
                if cA is None:
                    cA = images[A, c] = frozenset(ctx.op(c, a) for a in A)
                rhs = None if bits is None else pack.reach(cA)
                if rhs is None:
                    yield None, 0, point, (A, c, c_inv, cA)
                    continue
                lhs = pack.inf if c_inv is None else pack.at(bits, c_inv)
                yield ((lhs ^ pack.at(rhs)) & pack.points, 0, point,
                       (A, c, c_inv, cA))

    def id4(self, pack):
        """Id4: cH inside {c}_r, one item per c, point by point; H is the
        universe."""
        def point(s, c):
            member = pack.reader(s, frozenset([c]))
            return next(({"c": repr(c), "h": repr(h)} for h in self.universe
                         if not member(self.ctx.op(c, h))), None)

        for c in self.universe:
            yield None, 0, point, (c,)

    def m4(self, pack):
        """M4: H A_r = A_r, one item per A; the inclusion A_r subset of
        H A_r is free.  A passes when no translator h moves a point of A_r
        at the points out of A_r (INF stays put)."""
        ctx, points, translators = self.ctx, self.points, self.translators
        moves = [self.starts[h] for h in translators] if pack.packed else ()

        def point(s, A):
            member = pack.reader(s, A)
            return next(({"A": _names(A), "h": repr(h), "g": repr(g)}
                         for g in filter(member, points) for h in translators
                         if not member(ctx.op(h, g))), None)

        for A in self.draw.subsets:
            bits = pack.read(A)
            if bits is None:
                yield None, 0, point, (A,)
                continue
            moved = self.reach.meet(bits, moves)
            yield (pack.at(bits) & pack.points & ~(moved | pack.inf), 0,
                   point, (A,))

    def idempotent(self, pack):
        """(A_r)_r = A_r through the window slice of A_r, one item per A:
        the slice's closure sits inside (A_r)_r, so a point of it outside
        A_r is an honest counterexample.  Each slot reads its own slice."""

        def point(s, A):
            m = pack.mask(s, A)
            slice_ = frozenset(g for g, i in self.index.items() if m >> i & 1)
            return self.escape((pack.mask(s, slice_), m, (("A", A),)))

        for A in self.draw.subsets:
            inside = pack.box(A)
            if inside is None:
                yield None, 0, point, (A,)
                continue
            bad = 0
            for s in range(len(pack.slots)):
                # a slice lies in the window, so it has shifts, as A has
                part = inside >> s * pack.width
                slice_ = frozenset(g for g, i in self.cell.items()
                                   if part >> i & 1)
                bad |= (pack.at(pack.reach(slice_)) & ~inside
                        & pack.masks[s])
            yield bad, 0, point, (A,)

    def finitary(self, pack):
        """The closures of A's subsets inside A_r, one item per A: M2 over
        A's subsets.  A_r lies in their union for free, as A is one of
        them."""
        def point(s, A):
            union = 0
            for E in _subsets(A, range(len(A) + 1)):
                union |= pack.mask(s, E)
            return self.escape((union, pack.mask(s, A), (("A", A),)))

        for A in self.draw.subsets:
            inside = pack.box(A)
            if inside is None:
                yield None, 0, point, (A,)
                continue
            union = 0
            for E in _subsets(A, range(len(A))):
                union |= pack.box(E)
            yield union & ~inside, 0, point, (A,)
