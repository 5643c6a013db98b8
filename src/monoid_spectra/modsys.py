"""Module systems on the quotient groupoid G: closure oracles on finite
subsets of G, the product-with-overmonoid-intersection construction, meets,
subbasis membership for the system space, and a falsifier for finitariness
of parameterized families."""

from __future__ import annotations

import functools

from .fintop import FiniteSpace, subbasis_space
# family_from_file lives beside the monoid readers and is also read from here
from .monoid import (INF, CarrierMismatch, DeltaFamily, Monoid,
                     Overmonoid, family_from_file, sort_key)
from .report import Check
from .window import _Draw, _plan
# The members of a parameterized family that ``check_family`` rechecks and
# ``falsify_finitary`` searches: indices 1..FAMILY_DEPTH.
FAMILY_DEPTH = 6


class ModuleSystem:
    """Closure operator A -> A_r on finite subsets of G.

    ``closure(A)`` takes a finite subset of G, checked here (CarrierMismatch
    otherwise), and returns an exact membership predicate for A_r, which
    answers False off the carrier.  ``members``, for a product closure, is a
    function of A that lists the overmonoids whose product closure is A_r,
    so a ``window._Window`` reads A_r from their masks; it trusts A, as the
    window's sets are checked once, where the window is built.  It is None
    for a system read point by point."""

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
    closure and its members function, as ``ModuleSystem`` takes them."""
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

    return closure, lambda A: members


def example16(H: Monoid) -> ModuleSystem:
    """A_r = G when 0 is in A, otherwise AH with 0 adjoined.  Satisfies Id1,
    M2, Id3 and M4 but not Id2.  Both are product closures: of no member,
    and of [H]."""
    ctx = H.context
    whole, product = product_closure(ctx, []), product_closure(ctx, [H])

    def pick(A):
        return whole if any(a is INF or a == ctx.zero for a in A) else product

    return ModuleSystem("example16", ctx, lambda A: pick(A)[0](A),
                        lambda A: pick(A)[1](A))


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
    members; a meet with a system read point by point is read point by
    point."""
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
        return [S for m in parts for S in m(A)]

    name = "^".join(r.name for r in systems)
    return ModuleSystem(f"meet({name})", ctx, closure,
                        None if None in parts else members)


# -- axiom checking ----------------------------------------------------------

def check_module_axioms(systems, H, bound: int = 4, seed: int = 0):
    """Id1 / M2 / Id3 / M4 verdicts on windowed data, one list of verdicts
    per system of `systems`.  Subsets range over the G-window (not only H),
    since module systems act on the groupoid: all subsets of up to 3 points
    of a window of at most 12, 300 seeded draws otherwise.

    Input is validated here, at the boundary: every system must live on H's
    carrier (CarrierMismatch otherwise), and the window's points are checked
    on it once.  What no system changes is planned once per call and
    dropped on return: the subset draw, the comparable M2 pairs, the Id3
    scalars, points and images cA, the M4 translators, the layouts masks are
    read on, each set's shifts and each member's mask (``_Window``).

    The systems are scanned together: each that names its members takes a
    slot of a packed int, as many to a pack as fit in MAX_SPAN_BITS bits,
    and every item is one int compare for all slots of a pack.  A failing
    slot hands only its system and that item to the point loop, which finds
    the witness a call of its own would, and stops that system's scan.
    Window sets and their images reach each system's ``members``
    unchecked; its exact predicates still come from ``closure``."""
    ctx = H.context
    if any(r.context is not ctx for r in systems):
        raise CarrierMismatch("a module system off H's carrier")
    universe = ctx.window(bound)
    nonzero = [g for g in universe if g != ctx.zero]
    draw = _Draw(universe, seed=seed)
    w = _plan(ctx, universe, draw, systems, nonzero,
              [g for g in nonzero if H.contains(g)])
    pairs = [(A, B) for A in draw.subsets for B in draw.subsets if A < B]
    return w.verdicts(("Id1", w.id1, "A"), ("M2", w.m2, pairs),
                      ("Id3", w.id3, "A"), ("M4", w.m4))


def check_id2(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
              seed: int = 0):
    """Id2: A subset of B_r implies A_r subset of B_r, over subsets of up to
    2 points: M2 on the pairs with A inside B_r, on a window of r alone.
    Returns the verdict with a counterexample when it fails."""
    universe = r.context.window(bound)
    draw = _Draw(universe, size=2, budget=sample_budget, seed=seed)
    w = _plan(r.context, universe, draw, [r])
    pairs = [(A, B) for B in draw.subsets for A in draw.subsets]
    return w.verdicts(("Id2", w.id2, pairs, "AB"))[0][0]


def check_idempotent(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
                     seed: int = 0):
    """(A_r)_r = A_r tested through the window slice of A_r, over subsets of
    up to 2 points.  The slice is a subset of A_r, so its closure sits inside
    (A_r)_r; any point of it outside A_r is an honest counterexample, and
    agreement on all samples is reported as a bounded pass."""
    universe = r.context.window(bound)
    draw = _Draw(universe, size=2, budget=sample_budget, seed=seed)
    w = _plan(r.context, universe, draw, [r])
    return w.verdicts(("idempotent", w.idempotent), exhaustive=False,
                      bound=bound, detail="window slice approximation")[0][0]


def is_finitary(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
                seed: int = 0) -> Check:
    """The bounded ``finitary`` verdict on sampled finite sets A: the closure
    of every subset of A lies inside A_r, which is M2 over A's subsets.  The
    converse, A_r inside the union of those closures, is free, as A is one
    of them; so this is no test of finitariness on an infinite A."""
    universe = r.context.window(bound)
    draw = _Draw(universe, budget=sample_budget, seed=seed)
    w = _plan(r.context, universe, draw, [r])
    return w.verdicts(("finitary", w.finitary), exhaustive=False,
                      bound=bound)[0][0]


# -- the system space --------------------------------------------------------

def subbasis_membership(r: ModuleSystem, S) -> bool:
    """r in U_S iff 1 in S_r."""
    S = frozenset(S)
    if not S:
        raise ValueError("U_S is defined for nonempty S only")
    return r.member(S, r.context.one)


def _inverses(ctx, S):
    """The inverses of the nonzero points of a pool set, checked on the
    carrier once."""
    if not S:
        raise ValueError("U_S is defined for nonempty S only")
    for a in S:
        ctx.check(a)
    return [ctx.inv(a) for a in _nonzero(ctx, S)]


def separating_points(ctx, overmonoids, bound: int):
    """The nonzero window, then the nonzero generators of every member, each
    point once.  Two distinct generator-backed overmonoids differ at a
    generator of one of them, so these points tell such members apart, and
    order them by inclusion, exactly."""
    return list(dict.fromkeys([*ctx.nonzero_window(bound),
                               *(g for S in overmonoids for g in S.gens or ()
                                 if g != ctx.zero)]))


class SystemSpace:
    """A finite carrier of module systems with the subbasis U_S evaluated
    over a pool of nonempty finite subsets S of G."""

    def __init__(self, systems, pool):
        self.systems = list(systems)
        self.pool = list(map(frozenset, pool))
        self._space = None

    def space(self) -> FiniteSpace:
        """The space on the systems with subbasis U_S, S over the pool; each
        membership is evaluated once, on the first call.  A product closure
        is read from its members: 1 is in S_r exactly when every member
        holds a^{-1} for some nonzero a in S, so 1 is in {x^{-1}}_r when
        every member holds x, and in {0}_r when there is none.  A system
        that names no members asks its closure."""
        if self._space is None:
            inverses = functools.cache(_inverses)

            def one_in(r, S):
                if r.members is None:
                    return subbasis_membership(r, S)
                invs = inverses(r.context, S)
                return all(any(map(M.has, invs)) for M in r.members(S))

            self._space = subbasis_space([r.name for r in self.systems],
                                         self.systems, self.pool, one_in)
        return self._space

    def t0_witnesses(self):
        """The first pair (i, j) of carrier systems, in
        ``itertools.combinations`` order, that no pool set tells apart, or
        None: the first index whose profile repeats, with its next
        repeat."""
        first, pair = {}, None
        for j, profile in enumerate(self.space().profiles):
            i = first.setdefault(profile, j)
            if i < j and (pair is None or i < pair[0]):
                pair = i, j
        return pair


# -- the finitariness falsifier ----------------------------------------------

def falsify_finitary(delta: DeltaFamily, ctx, bound: int = 6):
    """Search for the non-finitariness certificate of a parameterized family:
    elements x_k in S_k missed by every later member, for k up to
    FAMILY_DEPTH.  On success the set A = {x_k^{-1}} has the identity in its
    closure over those members while the part without the last x_k does not;
    returns the witness record, or None when no certificate exists up to
    that index."""
    if delta.finite:
        return None
    window = ctx.nonzero_window(bound)
    members = [delta.member(k) for k in range(1, FAMILY_DEPTH + 1)]
    xs = []
    for k in range(1, FAMILY_DEPTH + 1):
        S_k = members[k - 1]
        later = members[k:]
        x = next((g for g in window
                  if S_k.contains(g) and not any(S.contains(g) for S in later)),
                 None)
        if x is None:
            return None
        xs.append(x)
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
    is exact.  Each closure of {1} is read as S's own membership."""
    points = separating_points(ctx, overmonoids, bound)
    ones = [frozenset(filter(S.has, points)) for S in overmonoids]
    first = {}  # each closure of {1} -> the first index with it
    i = next((i for i, one in enumerate(ones)
              if first.setdefault(one, i) != i), None)
    return Check("iota-injective", i is None,
                 witness=None if i is None else {"S": repr(overmonoids[i])},
                 exhaustive=False, n=len(ones), bound=bound)


def check_family(delta: DeltaFamily, ctx, bound: int = 4):
    """Pointwise recheck of a parameterized family's declarations on its
    first FAMILY_DEPTH members: members decrease along the index and the
    declared limit sits inside every member."""
    if delta.finite:
        return []
    window = [g for g in ctx.window(bound) if g is not INF]

    def inside(name, pairs):
        """Each (k, inner, outer) has inner inside outer on the window; one
        outcome per (k, g)."""
        return Check.scan(name, ({"k": k, "g": repr(g)}
                                 if inner.contains(g) and not outer.contains(g)
                                 else None
                                 for k, inner, outer in pairs for g in window),
                          bound=bound)

    return [inside("family-decreasing",
                   ((k, delta.member(k + 1), delta.member(k))
                    for k in range(1, FAMILY_DEPTH))),
            inside("family-limit-lower-bound",
                   ((k, delta.limit, delta.member(k))
                    for k in range(1, FAMILY_DEPTH + 1)))]
