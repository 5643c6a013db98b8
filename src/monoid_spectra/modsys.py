"""Module systems on the quotient groupoid G: closure oracles on finite
subsets of G, the product-with-overmonoid-intersection construction, meets,
the space of main1's systems, and a falsifier for finitariness of
parameterized families.  The system space, the overmonoid embedding and
the family checks read each overmonoid once, as one int on the layout
around their points."""

from __future__ import annotations

from . import monoid
from .fintop import FiniteSpace
# family_from_file lives beside the monoid readers and is also read from here
from .monoid import (INF, CarrierMismatch, DeltaFamily, Monoid,
                     Overmonoid, family_from_file, sort_key)
from .report import Check
from .window import _Draw, _plan, _Window
# The members of a parameterized family that ``check_family`` rechecks and
# ``falsify_finitary`` searches: indices 1..FAMILY_DEPTH.
FAMILY_DEPTH = 6


class ModuleSystem:
    """Closure operator A -> A_r on finite subsets of G.

    ``closure(A)`` takes a finite subset of G, checked here (CarrierMismatch
    otherwise), and returns an exact membership predicate for A_r, which
    answers False off the carrier.  ``members`` lists the overmonoids of a
    product closure, from whose masks a ``window._Window`` reads A_r, or,
    where the list varies with A, is the function of A that gives it, which
    trusts A, as the window checks its sets once.  It is None for a system
    read point by point."""

    def __init__(self, name, context, closure, members=None):
        self.name = name
        self.context = context
        self._closure = closure
        self.members = members

    def closure(self, A):
        A = frozenset(A)
        for a in A:
            self.context.check(a)
        return self._closure(A)

    def member(self, A, g) -> bool:
        return self.closure(A)(g)

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


def _nonzero(ctx, A):
    return tuple(sorted((a for a in A if a is not INF and a != ctx.zero),
                        key=sort_key))


def product_closure(ctx, members):
    """The closure A -> intersection over S in `members` of SA, with 0: g is
    in it iff for every S some nonzero a in A has a^{-1} g in S.  Exact for
    finite A and a finite list; an empty list gives all of G.  Returns the
    closure and the list, as ``ModuleSystem`` takes them."""
    zero = ctx.zero

    def closure(A):
        xs = _nonzero(ctx, A)
        inverses = [ctx.inv(a) for a in xs]

        def member(g):
            if not ctx.contains(g):
                return False
            if g is INF or g == zero:
                return True
            for S in members:
                for b in inverses:
                    if S.has(ctx.op(b, g)):
                        break
                else:
                    return False
            return True

        return member

    return closure, members


def example16(H: Monoid) -> ModuleSystem:
    """A_r = G when 0 is in A, otherwise AH with 0 adjoined.  Satisfies Id1,
    M2, Id3 and M4 but not Id2.  Both are product closures: of no member,
    and of [H]."""
    ctx = H.context
    whole, product = product_closure(ctx, []), product_closure(ctx, [H])

    def pick(A):
        return whole if any(a is INF or a == ctx.zero for a in A) else product

    return ModuleSystem("example16", ctx, lambda A: pick(A)[0](A),
                        lambda A: pick(A)[1])


def r_delta(delta: DeltaFamily, ctx) -> ModuleSystem:
    """The system A -> intersection over S in Delta of SA.

    For finite A and finite Delta this is exact: g is in A_r iff for every S
    some nonzero a in A has a^{-1} g in S.  A parameterized family, decreasing
    with limit L = intersection of the S_k, is also exact, since a witness a
    for S_k works for every smaller index, so a single a must land in L."""
    mems = delta.members if delta.finite else [delta.limit]
    return ModuleSystem(f"r_{delta.name}", ctx, *product_closure(ctx, mems))


def iota(S: Overmonoid) -> ModuleSystem:
    """The system of the singleton family {S}: A -> SA (with 0)."""
    return r_delta(DeltaFamily([S], name=S.name or "S"), S.context)


def meet(systems) -> ModuleSystem:
    """Pointwise intersection of closures; the infimum for the coarser-than
    order.  A meet of product closures is the product closure of all their
    members, a list, or a function of A where one of theirs is; a meet with
    a system read point by point is read point by point."""
    systems = list(systems)
    if not systems:
        raise ValueError("meet of an empty list")
    ctx = systems[0].context

    def closure(A):
        preds = [r.closure(A) for r in systems]

        def member(g):
            return all(p(g) for p in preds)

        return member

    parts = [r.members for r in systems]

    def members(A):
        return [S for m in parts for S in (m(A) if callable(m) else m)]

    name = "^".join(r.name for r in systems)
    return ModuleSystem(f"meet({name})", ctx, closure,
                        None if None in parts else members
                        if any(map(callable, parts)) else members(None))


# -- axiom checking ----------------------------------------------------------

def check_module_axioms(systems, H, bound: int = 4, seed: int = 0):
    """Id1 / M2 / Id3 / M4 verdicts on windowed data, one list of verdicts
    per system of `systems`.  Subsets range over the G-window (not only H),
    since module systems act on the groupoid: all subsets of up to 3 points
    of a window of at most 12, 300 seeded draws otherwise.

    Input is validated here, at the boundary: every system must live on H's
    carrier (CarrierMismatch otherwise), and the window's points are checked
    on it once.  What no system changes is planned once per call and
    dropped on return: the subset draw, the Id3 scalars and points, the M4
    translators, the layouts masks are read on, each point's shift and
    column, each member's mask and each set's read (``_Window``).

    The systems are scanned together: each that names its members takes a
    slot of a packed int, as many to a pack as fit in MAX_SPAN_BITS bits,
    and every item is one int compare for all slots of a pack; an M2 item
    is a drawn A with all its drawn proper supersets.  A failing slot hands
    only its system and that item to the point loop, which finds the
    witness a call of its own would, and stops that system's scan.  Window
    sets and their images reach each system's ``members`` unchecked; its
    exact predicates still come from ``closure``."""
    ctx = H.context
    if any(r.context is not ctx for r in systems):
        raise CarrierMismatch("a module system off H's carrier")
    universe = ctx.window(bound)
    nonzero = [g for g in universe if g != ctx.zero]
    draw = _Draw(universe, seed=seed)
    w = _plan(ctx, universe, draw, systems, nonzero,
              [g for g in nonzero if H.contains(g)])
    return w.verdicts(draw, ("Id1", w.id1, "A"), ("M2", w.m2),
                      ("Id3", w.id3, "A"), ("M4", w.m4))


def system_window(r: ModuleSystem, bound: int):
    """The window of r alone on its carrier's window of `bound`, without
    scalars or translators: what ``check_id2``, ``check_idempotent`` and
    ``is_finitary`` scan.  Given to several of them, it reads each set
    once for all."""
    return _Window(r.context, r.context.window(bound), [r])


def _window_of(r, bound, window):
    """`window`, a ``system_window`` of r, or a new one."""
    if window is None:
        return system_window(r, bound)
    if window.systems != [r]:
        raise ValueError("a window of another system")
    return window


def check_id2(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
              seed: int = 0, window=None):
    """Id2: A subset of B_r implies A_r subset of B_r, over subsets of up to
    2 points: M2 on the pairs with A inside B_r, one item per B, on
    `window`, a ``system_window(r, bound)``, or a new one.  Returns the
    verdict with a counterexample when it fails."""
    w = _window_of(r, bound, window)
    draw = _Draw(w.universe, size=2, budget=sample_budget, seed=seed)
    return w.verdicts(draw, ("Id2", w.id2, "AB", "B"))[0][0]


def check_idempotent(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
                     seed: int = 0, window=None):
    """(A_r)_r = A_r tested through the window slice of A_r, over subsets of
    up to 2 points, on `window` as ``check_id2`` takes it.  The slice is a
    subset of A_r, so its closure sits inside (A_r)_r; any point of it
    outside A_r is an honest counterexample, and agreement on all samples
    is reported as a bounded pass."""
    w = _window_of(r, bound, window)
    draw = _Draw(w.universe, size=2, budget=sample_budget, seed=seed)
    return w.verdicts(draw, ("idempotent", w.idempotent), exhaustive=False,
                      bound=bound, detail="window slice approximation")[0][0]


def is_finitary(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
                seed: int = 0, window=None) -> Check:
    """The bounded ``finitary`` verdict on sampled finite sets A, on
    `window` as ``check_id2`` takes it: the closure of every subset of A
    lies inside A_r, which is M2 over A's subsets, read as the closures of
    the A - a and the union below each, kept for the scan.  The converse,
    A_r inside the union of those closures, is free, as A is one of them;
    so this is no test of finitariness on an infinite A."""
    w = _window_of(r, bound, window)
    draw = _Draw(w.universe, budget=sample_budget, seed=seed)
    return w.verdicts(draw, ("finitary", w.finitary), exhaustive=False,
                      bound=bound)[0][0]


# -- the system space --------------------------------------------------------

def separating_points(ctx, overmonoids, bound: int):
    """The nonzero window, then the nonzero generators of every member, each
    point once.  Two distinct generator-backed overmonoids differ at a
    generator of one of them, so these points tell such members apart, and
    order them by inclusion, exactly."""
    return list(dict.fromkeys([*ctx.nonzero_window(bound),
                               *(g for S in overmonoids for g in S.gens or ()
                                 if g != ctx.zero)]))


class SystemSpace:
    """The finite carrier of main1's module systems, iota(S) for S over
    `overmonoids` and then example16(H), with the subbasis U_A, A over the
    nonempty finite subsets of G, of the systems r with 1 in A_r.

    U_A is the union of the U_{a}, a in A, on these systems (1 is in SA when
    it is in Sa for some a, and example16 fills G when 0 is in A), so the
    U_{0} and the U_{x^{-1}}, x over the distinct nonzero `points`, give the
    topology as far as the points tell it.  1 is in {x^{-1}}_r exactly when
    every member of r holds x, and only example16 has 1 in {0}_r, so each
    system's profile is one member's part of the points: S's for iota(S),
    H's plus one bit for U_{0} for example16."""

    def __init__(self, H, overmonoids, points):
        self.H, self.overmonoids, self.points = H, list(overmonoids), points
        self.systems = [*map(iota, self.overmonoids), example16(H)]
        self._space = None

    def space(self) -> FiniteSpace:
        """The space on the systems, built on the first call: each member
        is read once on the points (``_point_reader``), and no closure is
        asked."""
        if self._space is None:
            bit, read = _point_reader(self.H.context, self.points)
            zero = 1 << (max(bit.values(), default=-1) + 1)
            self._space = FiniteSpace(
                [r.name for r in self.systems],
                [*map(read, self.overmonoids), read(self.H) | zero])
        return self._space

    def t0_witnesses(self):
        """The first pair (i, j) of carrier systems, in
        ``itertools.combinations`` order, that no U_{0} or U_{x^{-1}} tells
        apart, or None: the first index whose profile repeats, with its
        next repeat."""
        first, pair = {}, None
        for j, profile in enumerate(self.space().profiles):
            i = first.setdefault(profile, j)
            if i < j and (pair is None or i < pair[0]):
                pair = i, j
        return pair


# -- the finitariness falsifier ----------------------------------------------

def _window_mask(S: Overmonoid, points) -> int:
    """S's members among carrier points, bit i for points[i]: each point is
    asked once, through the trusted ``has``."""
    return sum(1 << i for i, g in enumerate(points) if S.has(g))


def _point_reader(ctx, points):
    """The bit of each of the distinct nonzero carrier `points`, and the
    reader of an overmonoid's part of them as an int in those bits: its
    ``span_mask`` on the layout around the points, which asks no point of
    an overmonoid with generators, a valuation or a semigroup mask below
    the caps, or, on a carrier without a layout or past MAX_SPAN_BITS
    cells, its ``_window_mask``.  Either way the bits of points given in
    window order rise in that order."""
    box = ctx.box(points)
    if box is None or box.rows * box.cols > monoid.MAX_SPAN_BITS:
        return ({g: i for i, g in enumerate(points)},
                lambda S: _window_mask(S, points))
    bit = {g: box.bit(g) for g in points}
    part = sum(1 << b for b in bit.values())
    return bit, lambda S: S.span_mask(box) & part


def falsify_finitary(delta: DeltaFamily, ctx, bound: int = 6):
    """Search for the non-finitariness certificate of a parameterized family:
    elements x_k in S_k missed by every later member, for k up to
    FAMILY_DEPTH.  On success the set A = {x_k^{-1}} has the identity in its
    closure over those members while the part without the last x_k does not;
    returns the witness record, or None when no certificate exists up to
    that index.  Each member is read once on the window
    (``_point_reader``), and x_k is the first window point of S_k's mask
    outside the later members' masks."""
    if delta.finite:
        return None
    window = ctx.nonzero_window(bound)
    members = [delta.member(k) for k in range(1, FAMILY_DEPTH + 1)]
    bit, read = _point_reader(ctx, window)
    at = {b: g for g, b in bit.items()}
    masks = list(map(read, members))
    xs = []
    for k in range(1, FAMILY_DEPTH + 1):
        later = 0
        for m in masks[k:]:
            later |= m
        alone = masks[k - 1] & ~later
        if not alone:
            return None
        xs.append(at[(alone & -alone).bit_length() - 1])
    A = frozenset(ctx.inv(x) for x in xs)
    target = ctx.one
    truncated, _ = product_closure(ctx, members)
    if not truncated(A)(target):
        return None
    F = frozenset(ctx.inv(x) for x in xs[:-1])
    if truncated(F)(target):
        return None
    return {"A": sorted(map(repr, A)), "target": repr(target),
            "separating_index": FAMILY_DEPTH}


# -- the overmonoid embedding ------------------------------------------------

def embedding_checks(overmonoids, ctx, bound: int = 4) -> Check:
    """Injectivity of the map S -> r_{{S}} on a finite overmonoid carrier:
    the closures of {1}, which are the S themselves, are pairwise distinct
    at the ``separating_points``, so on a generator-backed carrier the check
    is exact.  Each closure of {1} is read as S's own membership, once for
    all the points (``_point_reader``)."""
    points = separating_points(ctx, overmonoids, bound)
    _, reader = _point_reader(ctx, points)
    ones = list(map(reader, overmonoids))
    first = {}  # each closure of {1} -> the first index with it
    i = next((i for i, one in enumerate(ones)
              if first.setdefault(one, i) != i), None)
    return Check("iota-injective", i is None,
                 witness=None if i is None else {"S": repr(overmonoids[i])},
                 exhaustive=False, n=len(ones), bound=bound)


def check_family(delta: DeltaFamily, ctx, bound: int = 4):
    """Pointwise recheck of a parameterized family's declarations on its
    first FAMILY_DEPTH members: members decrease along the index and the
    declared limit sits inside every member.  Each member and the limit is
    read once on the window (``_point_reader``), and a pair's first point
    of the inner mask outside the outer one is its witness."""
    if delta.finite:
        return []
    window = [g for g in ctx.window(bound) if g is not INF]
    bit, read = _point_reader(ctx, window)
    index = {bit[g]: i for i, g in enumerate(window)}
    masks = {k: read(delta.member(k)) for k in range(1, FAMILY_DEPTH + 1)}
    limit = read(delta.limit)

    def inside(name, pairs):
        """Each (k, inner, outer) has inner inside outer on the window; one
        item per (k, g), as ``Check.scan`` counts them."""
        for n, (k, inner, outer) in enumerate(pairs):
            bad = inner & ~outer
            if bad:
                i = index[(bad & -bad).bit_length() - 1]
                return Check(name, False, witness={"k": k,
                                                   "g": repr(window[i])},
                             exhaustive=False, n=n * len(window) + i + 1,
                             bound=bound)
        return Check(name, True, exhaustive=False,
                     n=len(pairs) * len(window), bound=bound)

    return [inside("family-decreasing",
                   [(k, masks[k + 1], masks[k])
                    for k in range(1, FAMILY_DEPTH)]),
            inside("family-limit-lower-bound",
                   [(k, limit, masks[k])
                    for k in range(1, FAMILY_DEPTH + 1)])]
