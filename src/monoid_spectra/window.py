"""The scan window of the closure-axiom checkers of ``idealsys`` and
``modsys``: one seeded subset draw, and the window on which the closures of
all its systems are read as int bitmasks, several systems to an int, and
every axiom is scanned for all of them at once.  This is the one axiom
checker: every item is an int compare, and a failing system's witness is
read from its bits of the item."""

from __future__ import annotations

import functools
import itertools
import operator
import random

from . import layout
from .monoid import sort_key
from .packs import _first, _item, _Pack
from .report import Check


def _subsets(xs, sizes):
    return [frozenset(c) for n in sizes for c in itertools.combinations(xs, n)]


def _drawn(universe, size, budget, seed):
    """`budget` draws of ``frozenset(rng.sample(universe, rng.randint(1,
    size)))``, rng = ``random.Random(seed)``, for a size of at most 5, read
    from rng's ``getrandbits`` as those two read it."""
    bits, n = random.Random(seed).getrandbits, len(universe)

    def below(m):  # m.bit_length() bits, until they are below m
        while (r := bits(m.bit_length())) >= m:
            pass
        return r

    for _ in range(budget):
        moved, picks = {}, set()
        for m in range(n, n - 1 - below(size), -1):
            if n > 21:  # sample redraws a taken index past 21 points
                while (j := below(n)) in picks:
                    pass
                picks.add(j)
            else:  # and up to 21 moves its pool's last point into j
                j = below(m)
                picks.add(moved.get(j, j))
                moved[j] = moved.get(m - 1, m - 1)
        yield frozenset(map(universe.__getitem__, picks))


class _Draw:
    """The subsets a check scans: all subsets of up to `size` points of a
    universe of at most `limit` points, a full draw; otherwise the empty
    set and `budget` seeded draws (``_drawn``), without repeats.  A size
    past 5 is refused.  A draw that is not full caps the scans with
    ``head`` and ``pick``; on a full one both return their input whole."""

    def __init__(self, universe, *, size=3, budget=300, limit=12, seed=0):
        if size > 5:
            raise ValueError("a draw takes at most 5 points to a subset")
        self.exhaustive = len(universe) <= limit
        if self.exhaustive:
            self.subsets = _subsets(universe, range(size + 1))
        else:  # a drawn universe has more points than any subset
            self.subsets = list(dict.fromkeys(
                [frozenset(), *_drawn(universe, size, budget, seed)]))
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


def _plan(ctx, universe, draw, systems, scalars=(), translators=(),
          moves=()):
    """The window of a check on `systems`: `universe`, up to 12 Id3 scalars
    from `scalars`, 40 points of it for Id3 and M4 and 12 M4 translators
    from `translators`, picked from `draw` in that order, and Id4's `moves`."""
    return _Window(ctx, universe, systems, draw.pick(scalars, 12),
                   draw.pick(universe, 40), draw.pick(translators, 12), moves)


def _names(A):
    return sorted(map(repr, A))


def _outside(pack, keys):
    """The witness of an inclusion of sets named `keys`, read from a failing
    slot's bits of it: the sets' names and the first window point outside,
    the lowest bit."""
    return lambda bad, *sets: {**{k: _names(A) for k, A in zip(keys, sets)},
                               "g": repr(pack.point(bad))}


class _Window:
    """The closures of `systems` on a window of points, and every axiom
    scanned for all of them at once; ``verdicts`` gives one list of
    verdicts per system, in their order, for the draw it is given.  The
    window's points come from the carrier's window, and its sets and their
    images under ``op`` reach the systems unchecked.

    Planned once, at construction, and dropped with the window, in the bit
    layout the carrier supplies (``layout.packed``): the window's layout,
    the reach layout (the window's moved by each of its moves: the
    inverses of its nonzero Id3 scalars, its M4 translators and Id4's
    moves, H's nonzero points), the wide layout (reach moved back by the
    hull of the subsets and Id3 images), each point's translate, each
    member's mask on the wide layout and the packs.  On a ``Box`` they are
    three boxes and a translate is a shift; a finite carrier's ``Table`` is
    one row for all three, and a translate or a move by g permutes the row
    by g's table row.  A product closure's A_r on reach is one AND over its
    members of the OR of A's translates, read from columns: a point's
    column holds its translates of every member mask, and the zero's
    column fills every field of a filled member, so a read is one OR per
    point of A and one AND per member.

    One bit map: each window point has one bit, ``cell`` (``point`` is its
    inverse), its cell in the window's layout; bits rise in window order,
    so a compare's lowest bit is its first window point.  ``inf`` is the
    zero's bit, which a read on reach carries in the zero's bit of the
    reach layout (on a ``Box`` a guard bit, on a ``Table`` a cell), and
    ``packs._Pack.at`` lifts onto the window's layout.

    Slots and batches: the systems share ints.  Each gets a slot of the
    wide layout's width and one guard bit in every row, and a row holds
    the slots side by side, so one AND-of-ORs on packed columns reads A_r
    for every slot.  A shift carries bits of the next slot only into cells
    past the reach box, which no scan reads, and the guard bit takes a
    box's INF; a row permutation keeps every slot's bits in its slot.  A
    row is sized for every system of the window, and a pack holds as many
    slots as fit in MAX_SPAN_BITS bits on the wide layout.  The systems
    that name their members come first, then those read from a ``rule``,
    one int per set, each in packs of their own; the packs (``packs._Pack``)
    are read one after the other, and each keeps its reads, its columns
    (up to ``packs.MAX_COLUMN_BITS`` bits, past which none is kept) and
    member masks for every scan of the window, so a window scanned with
    several draws reads each set once and each column once.  A read keeps
    only the reach layout's rows.  Id3 reads an image cA from the columns
    at the points c a, without forming cA, and keeps no packed read of it.

    The scans: each item of Id1, Id4 and M4, idempotence and finitariness
    is one subset or c; each item of Id3 is a group of one subset's
    (subset, scalar) pairs, in scalar order, and each item of M2 and Id2 a
    group of pairs that share a set, the OR of their inner closures outside
    the AND of their outer ones, read from one map of the scan's sets to
    their reads.  Each is one int compare for all slots at once, on the
    bit map; an Id3 group ORs its pairs' compares, and Id1 takes A's bits
    from the pack's per-point table and the zero's from ``inf``.  Id2 and
    idempotence scan a window of one system.  A slot with bits of an item
    reads its witness from them, a group's from its first pair with bits
    of the slot, and that system's scan stops at its first witness, as
    ``Check.scan`` counts."""

    def __init__(self, ctx, universe, systems, scalars=(), points=(),
                 translators=(), moves=()):
        self.ctx, self.universe = ctx, universe
        self.systems = list(systems)
        self.scalars, self.points = scalars, points
        # c a for each Id3 scalar c, formed once per point a
        self.times = {c: functools.cache(functools.partial(ctx.op, c))
                      for c in scalars}
        self.translators = translators
        moves = [*(ctx.inv(c) for c in scalars if c != ctx.zero),
                 *translators, *moves]
        self.box, self.reach, self.wide = b, reach, wide = layout.packed(
            ctx, universe, moves, scalars, len(self.systems))
        self.width, self.rows = wide.cols + 1, b.rows
        self.stride = b.stride
        self.span = functools.cache(lambda S: S.span_mask(wide))
        # the move of a member mask on wide by a point onto reach
        self.shift = functools.cache(
            lambda a: wide.start(reach, ctx.inv(a)))
        # the move of a read on reach onto the window's layout, and onto it
        # moved by each move
        self.starts = {g: reach.start(b, g) for g in [None, *moves]}
        self.cell = {g: b.bit(g) for g in universe}
        self.point = {b: g for g, b in self.cell.items()}
        self.inf = 1 << b.bit(ctx.zero)
        self.cells = self.cells_of(g for g in universe if g != ctx.zero)
        self.box_points = self.cells_of(self.points)
        # the systems that name their members, then the others, each as
        # many to a pack as a row holds, in order
        named, rest = [], []
        for i, r in enumerate(self.systems):
            (rest if r.members is None else named).append(i)
        per = self.stride // self.width
        self.packs = [_Pack(self, group[k:k + per], packed)
                      for group, packed in ((named, True), (rest, False))
                      for k in range(0, len(group), per)]

    def cells_of(self, X):
        """The window points X on the bit map."""
        return sum(1 << self.cell[g] for g in X)

    def verdicts(self, draw, *scans, exhaustive=None, **kw):
        """Per system, one verdict per (name, scan, *args) of `scans` on the
        subsets of `draw`, the scan a method taking a pack, the draw and
        `args`; exhaustive on a full draw unless `exhaustive` says
        otherwise, with ``bound`` and ``detail`` passed on."""
        if exhaustive is None:
            exhaustive = draw.exhaustive
        out = [[] for _ in self.systems]
        for pack in self.packs:
            for name, scan, *args in scans:
                for i, (witness, n) in zip(pack.slots, _first(
                        pack, scan(pack, draw, *args))):
                    out[i].append(Check(name, witness is None,
                                        witness=witness, exhaustive=exhaustive,
                                        n=n, **kw))
        return out

    def id1(self, pack, draw, key):
        """Id1: A u {0} inside A_r, one item per A; A's bits come from the
        pack's per-point table, and the zero's from ``inf``.  The witness
        is the first point of [*A, 0] with a bit."""
        zero, cell = self.ctx.zero, pack.cell

        def witness(bad, A):
            return {key: _names(A), "g": repr(next(
                g for g in [*A, zero] if bad & cell[g]))}

        for A in draw.subsets:
            yield _item((sum(map(cell.__getitem__, A)) | pack.inf)
                        & ~pack.box(A), witness, (A,))

    def _pairs(self, pack, groups, keys, boxes):
        """M2, X_r inside Y_r, one item per (Xs, Ys) of `groups`, one of the
        two a single set: the pairs (X, Y) of Xs x Ys, in that order, whose
        part is the OR of the X_r outside the AND of the Y_r, the union of
        the pairs' own parts (none for no pairs).  Each set's read on the
        bit map comes from `boxes`, which the caller read once per set with
        ``box``.  `keys` name X and Y."""
        witness = _outside(pack, keys)

        def pairs(Xs, Ys):
            return lambda: [(boxes[X] & ~boxes[Y], witness, (X, Y))
                            for X in Xs for Y in Ys]

        for Xs, Ys in groups:
            inner, outer = 0, -1
            for X in Xs:
                inner |= boxes[X]
            for Y in Ys:
                outer &= boxes[Y]
            yield inner & ~outer, len(Xs) * len(Ys), pairs(Xs, Ys)

    def m2(self, pack, draw):
        """M2: A_r inside B_r for the drawn A strictly inside a drawn B, one
        item per A, over its Bs in draw order, found from each B's proper
        subsets through an index of the draw."""
        supers = {A: [] for A in draw.subsets}
        for B in draw.subsets:
            for A in _subsets(B, range(len(B))):
                if A in supers:
                    supers[A].append(B)
        return self._pairs(pack, (([A], Bs) for A, Bs in supers.items()),
                           "AB", {A: pack.box(A) for A in supers})

    def id2(self, pack, draw, keys, by, k=None):
        """Id2 of the window's one system: M2 on the (X, Y) of the first k
        drawn subsets (all for None) with X inside Y_r, both read on the bit
        map, Y_r with ``box``.  One item per set named `by`, one of `keys`,
        over the other sets in draw order: per X, whose part is X_r outside
        the AND of its Y_r, or per Y, the OR of its X_r outside Y_r."""
        if len(self.systems) > 1:
            raise ValueError("the Id2 scan reads one system")
        sets = draw.head(k) if k else draw.subsets
        boxes = {Y: pack.box(Y) for Y in sets}
        inners = [(X, self.cells_of(X)) for X in sets]
        outers = list(boxes.items())
        if by == keys[0]:
            groups = (([X], [Y for Y, m in outers if not c & ~m])
                      for X, c in inners)
        else:
            groups = (([X for X, c in inners if not c & ~m], [Y])
                      for Y, m in outers)
        return self._pairs(pack, groups, keys, boxes)

    def id3(self, pack, draw, key):
        """Id3: c A_r = (cA)_r at the points, one group per A, A over the
        first 40 subsets, of its (A, c) in scalar order, whose part is the
        OR of theirs; the left side is read literally: {0} for c = 0,
        otherwise c^{-1} g in A_r, which is A_r on the window's layout moved
        by c^{-1}.  (cA)_r is read from the columns at the points c a.  The
        zero, which c^{-1} keeps, is compared apart: {0} holds it, and c A_r
        does when A_r does; the compare's zero bits fall onto ``inf`` only
        where the two sides differ.  The witness of a pair is its first
        point with a bit."""
        ctx, times = self.ctx, self.times
        inverses = [(c, None if c == ctx.zero else ctx.inv(c))
                    for c in self.scalars]
        k = len(inverses)
        moved, starts = self.reach.moved, self.starts
        home, live, zero = starts[None], pack.points & ~pack.inf, pack.zero

        def witness(bad, A, c):
            return {key: _names(A), "c": repr(c), "g": repr(pack.point(bad))}

        def parts(A, bads):
            return lambda: [(bad, witness, (A, c))
                            for bad, (c, _) in zip(bads, inverses)]

        for A in draw.head(40):
            bits = pack.read(A)
            held = bits & zero
            bads = []
            for c, c_inv in inverses:
                image = pack.reach([*map(times[c], A)])
                bad = ((0 if c_inv is None else moved(bits, starts[c_inv]))
                       ^ moved(image, home)) & live
                differ = (zero if c_inv is None else held) ^ (image & zero)
                if differ:
                    bad |= pack.fall(differ) & pack.points
                bads.append(bad)
            yield functools.reduce(operator.or_, bads, 0), k, parts(A, bads)

    def id4(self, pack, draw):
        """Id4: cH inside {c}_r, one item per c; H is the universe, whose
        nonzero points are moves: {c}_r on the layout moved by c holds the
        window's points and the zero.  cH = {0} for c = 0, so every h fails
        where {0}_r misses the zero.  The witness is the first h with a
        bit."""
        everywhere = self.cells | self.inf  # one slot's universe

        def witness(bad, c):
            return {"c": repr(c), "h": repr(pack.point(bad))}

        for c in self.universe:
            bits = pack.read(frozenset([c]))
            if c == self.ctx.zero:
                # a bit at s * width for each slot s that misses the zero
                bad = (pack.inf & ~pack.at(bits)) // self.inf * everywhere
            else:
                bad = (pack.cells | pack.inf) & ~pack.at(bits, c)
            yield _item(bad, witness, (c,))

    def m4(self, pack, draw):
        """M4: H A_r = A_r, one item per A; the inclusion A_r subset of
        H A_r is free.  A passes when no translator h moves a point of A_r
        at the points out of A_r (INF stays put).  The witness is the first
        such point, with the first translator whose move of A_r misses
        it."""
        translators, shift = self.translators, self.reach.moved
        moves = [self.starts[h] for h in translators]

        def witness(bad, A, bits):
            g = bad & -bad
            h = next(h for h, k in zip(translators, moves)
                     if not shift(bits, k) & g)
            return {"A": _names(A), "h": repr(h), "g": repr(pack.point(g))}

        for A in draw.subsets:
            bits, moved = pack.read(A), -1
            for k in moves:
                moved &= shift(bits, k)
            yield _item(pack.at(bits) & pack.points & ~(moved | pack.inf),
                        witness, (A, bits))

    def idempotent(self, pack, draw):
        """(A_r)_r = A_r of the window's one system through the window slice
        of A_r, one item per A: the slice's closure sits inside (A_r)_r, so
        a point of it outside A_r is an honest counterexample."""
        if len(self.systems) > 1:
            raise ValueError("the idempotence scan reads one system")
        witness = _outside(pack, "A")

        def sliced(m):  # the window points of m
            return frozenset(g for g, b in self.cell.items() if m >> b & 1)

        for A in draw.subsets:
            inside = pack.box(A)
            yield _item(pack.box(sliced(inside)) & ~inside, witness, (A,))

    def finitary(self, pack, draw):
        """The closures of A's proper subsets inside A_r, one item per A:
        M2 over A's subsets.  A_r lies in their union for free, as A is one
        of them.  That union is the OR over a in A of the union of the
        closures of A - a and its subsets, kept for the scan per set."""
        box, upto, witness = pack.box, {}, _outside(pack, "A")

        def under(A):
            union = 0
            for a in A:
                E = A - {a}
                m = upto.get(E)
                if m is None:
                    m = upto[E] = box(E) | under(E)
                union |= m
            return union

        for A in draw.subsets:
            yield _item(under(A) & ~box(A), witness, (A,))
