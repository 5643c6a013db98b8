"""Module systems on the quotient groupoid G: closure oracles on finite
subsets of G, the product-with-overmonoid-intersection construction, meets,
subbasis membership for the system space, finite-witness extraction and a
falsifier for finitariness of parameterized families."""

from __future__ import annotations

import itertools
import json
import random

from .fintop import FiniteSpace, subbasis_space
from .monoid import (INF, IntCarrier, Monoid, Overmonoid, ParseError, is_int,
                     monoid_from_json, sort_key)
from .report import Check

# The members of a parameterized family that ``check_family`` rechecks and
# ``falsify_finitary`` searches: indices 1..FAMILY_DEPTH.
FAMILY_DEPTH = 6


class ModuleSystem:
    """Closure operator A -> A_r on finite subsets of G.

    ``closure(A)`` takes a finite subset of G, checked here (CarrierMismatch
    otherwise), and returns an exact membership predicate for A_r, which
    answers False off the carrier."""

    def __init__(self, name, context, closure):
        self.name = name
        self.context = context
        self._closure = closure

    def closure(self, A):
        A = frozenset(A)
        for a in A:
            self.context.check(a)
        return self._closure(A)

    def member(self, A, g) -> bool:
        return self.closure(A)(g)

    def __repr__(self):
        return f"{type(self).__name__}({self.name})"


def small_sample(rng, pool):
    """A random set of one to three elements of `pool`, never more than it
    holds."""
    return frozenset(rng.sample(pool, rng.randint(1, min(3, len(pool)))))


def _nonzero(ctx, A):
    return tuple(sorted((a for a in A if a is not INF and a != ctx.zero),
                        key=sort_key))


def _shift_or(members, xs, lo, hi):
    """The g in lo..hi with g - a in every member S for some a in xs (sorted
    integers), as an int with bit j for lo + j: the AND over S of the OR over
    a of S's membership mask shifted by a."""
    out = (1 << (hi - lo + 1)) - 1
    for S in members:
        any_a = 0
        if xs:
            m = S.span_mask(lo - xs[-1], hi - xs[0])
            for a in xs:
                any_a |= m >> (xs[-1] - a)
        out &= any_a
    return out


def product_closure(ctx, members):
    """The closure A -> intersection over S in `members` of SA, with 0: g is
    in it iff for every S some nonzero a in A has a^{-1} g in S.  Exact for
    finite A and a finite list; an empty list gives all of G.  On the int
    carrier each predicate carries ``span(lo, hi)``, the closure on the
    integers lo..hi as an int bitmask."""
    zero = ctx.zero
    spans = isinstance(ctx, IntCarrier)

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

        if spans:
            member.span = lambda lo, hi: _shift_or(members, xs, lo, hi)
        return member

    return closure


def example16(H: Monoid) -> ModuleSystem:
    """A_r = G when 0 is in A, otherwise AH with 0 adjoined.  Satisfies Id1,
    M2, Id3 and M4 but not Id2."""
    ctx = H.context
    whole, product = product_closure(ctx, []), product_closure(ctx, [H])

    def closure(A):
        if any(a is INF or a == ctx.zero for a in A):
            return whole(A)
        return product(A)

    return ModuleSystem("example16", ctx, closure)


class DeltaFamily:
    """Either a finite list of overmonoids or a parameterized family k -> S_k.

    A parameterized family is decreasing (S_1 >= S_2 >= ...) and carries its
    limit, the overmonoid equal to the intersection of all members; both
    declarations are trusted for evaluation but rechecked pointwise by
    ``check_family``."""

    def __init__(self, members=None, *, member_fn=None, limit=None,
                 name="Delta"):
        self.members = list(members) if members is not None else None
        self.member_fn = member_fn
        self.limit = limit
        self.name = name
        if self.members is not None:
            if not self.members:
                raise ValueError("a Delta family must be nonempty")
        elif member_fn is None or limit is None:
            raise ValueError("a Delta family needs members, or a member rule "
                             "and its limit")

    @property
    def finite(self):
        return self.members is not None

    def member(self, k) -> Overmonoid:
        if self.finite:
            return self.members[k]
        return self.member_fn(k)


def r_delta(delta: DeltaFamily, ctx) -> ModuleSystem:
    """The system A -> intersection over S in Delta of SA.

    For finite A and finite Delta this is exact: g is in A_r iff for every S
    some nonzero a in A has a^{-1} g in S.  A parameterized family, decreasing
    with limit L = intersection of the S_k, is also exact, since a witness a
    for S_k works for every smaller index, so a single a must land in L."""
    mems = delta.members if delta.finite else [delta.limit]
    return ModuleSystem(f"r_{delta.name}", ctx, product_closure(ctx, mems))


def iota(S: Overmonoid) -> ModuleSystem:
    """The system of the singleton family {S}: A -> SA (with 0)."""
    return r_delta(DeltaFamily([S], name=S.name or "S"), S.context)


def meet(systems) -> ModuleSystem:
    """Pointwise intersection of closures; the infimum for the coarser-than
    order."""
    systems = list(systems)
    if not systems:
        raise ValueError("meet of an empty list")
    ctx = systems[0].context

    def closure(A):
        preds = [r.closure(A) for r in systems]

        def member(g):
            return all(p(g) for p in preds)

        return member

    name = "^".join(r.name for r in systems)
    return ModuleSystem(f"meet({name})", ctx, closure)


# -- axiom checking ----------------------------------------------------------

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
    """The closures of one system on a window, each read once as an int
    bitmask (bit i <-> universe[i]), as in ``fintop.FiniteSpace``.  The masks
    live as long as one checker call; points that leave the window go through
    the exact predicate.

    A closure with a ``span`` (int carrier) is read over the integer hull
    lo..hi of the window in one piece, and Id3 and M4 compare such spans as
    integers; a span bit j stands for the point lo + j.  Only a difference
    sends them back to the point loop, which finds the same witness."""

    def __init__(self, r, universe):
        self.r = r
        self.universe = universe
        self.bit = {g: 1 << i for i, g in enumerate(universe)}
        self._preds, self._masks, self._sets = {}, {}, {}
        ints = [g for g in universe if g is not INF]
        self.hull = None
        if isinstance(r.context, IntCarrier) and ints:
            lo = min(ints)
            self.hull = lo, max(ints)
            # the window's int points as (span bit, window bit); None when
            # the two agree, as on a window lo..hi followed by INF
            bits = [(g - lo, self.bit[g]) for g in ints]
            self._gather = (None if all(b == 1 << j for j, b in bits)
                            else bits)

    def pred(self, A):
        """The exact predicate of A_r."""
        p = self._preds.get(A)
        if p is None:
            p = self._preds[A] = self.r.closure(A)
        return p

    def span(self, A):
        """A_r's ``span``, or None for a closure read point by point."""
        return getattr(self.pred(A), "span", None) if self.hull else None

    def in_hull(self, points):
        """The int points among `points` as a span mask (0 off the int
        carrier)."""
        if not self.hull:
            return 0
        return sum(1 << (g - self.hull[0]) for g in points if g is not INF)

    def mask(self, A):
        """A_r on the window."""
        m = self._masks.get(A)
        if m is None:
            pred, span = self.pred(A), self.span(A)
            if span is None:
                m = sum(b for g, b in self.bit.items() if pred(g))
            else:
                m = s = span(*self.hull)
                if self._gather is not None:
                    m = sum(b for j, b in self._gather if s >> j & 1)
                if INF in self.bit and pred(INF):
                    m |= self.bit[INF]
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
        m, bit, pred, off = self.mask(A), self.bit, self.pred(A), {}

        def member(g):
            b = bit.get(g)
            if b is not None:
                return m & b != 0
            if g not in off:
                off[g] = pred(g)
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
        zero = self.r.context.zero
        for A in subsets:
            m = self.mask(A)
            yield next(({key: _names(A), "g": repr(g)} for g in [*A, zero]
                        if not m & self.bit[g]), None)

    def id3(self, subsets, scalars, points, key):
        """Id3: c A_r = (cA)_r at the points, one outcome per (A, c), with the
        left side read literally: {0} for c = 0, otherwise c^{-1} g in A_r.
        With spans, a nonzero c is one XOR of c A_r against (cA)_r on the
        hull."""
        ctx = self.r.context
        span_pts, at_inf = self.in_hull(points), INF in points
        lo, hi = self.hull or (0, 0)
        for A in subsets:
            member = self.reader(A)
            span = self.span(A)
            for c in scalars:
                cA = frozenset(ctx.op(c, a) for a in A)
                if span is None:
                    rhs = self.r.closure(cA)
                else:
                    rhs_span = self.span(cA)
                    if (c is not INF and rhs_span is not None
                            and not (span(lo - c, hi - c) ^ rhs_span(lo, hi))
                            & span_pts
                            and not (at_inf and member(INF)
                                     != self.pred(cA)(INF))):
                        yield None
                        continue
                    rhs = self.reader(cA)
                c_inv = None if c == ctx.zero else ctx.inv(c)
                yield next(({key: _names(A), "c": repr(c), "g": repr(g)}
                            for g in points
                            if (g == ctx.zero if c_inv is None
                                else member(ctx.op(c_inv, g))) != rhs(g)),
                           None)

    def m4(self, subsets, translators, points):
        """M4: H A_r = A_r, one outcome per A; the inclusion A_r subset of
        H A_r is free.  With a span, A passes when no translator h moves a
        point of A_r at the points out of A_r (INF stays put)."""
        ctx = self.r.context
        span_pts = self.in_hull(points)
        lo, hi = self.hull or (0, 0)
        for A in subsets:
            member = self.reader(A)
            span = self.span(A)
            if span is not None:
                inside = span(lo, hi) & span_pts
                if not any(inside & ~span(lo + h, hi + h)
                           for h in translators):
                    yield None
                    continue
            yield next(({"A": _names(A), "h": repr(h), "g": repr(g)}
                        for g in filter(member, points) for h in translators
                        if not member(ctx.op(h, g))), None)


def _verdicts(scans, exhaustive):
    return [Check.scan(name, outcomes, exhaustive=exhaustive)
            for name, outcomes in scans]


def check_module_axioms(r: ModuleSystem, H, bound: int = 4, seed: int = 0):
    """Id1 / M2 / Id3 / M4 verdicts on windowed data.  Subsets range over the
    G-window (not only H), since module systems act on the groupoid: all
    subsets of up to 3 points of a window of at most 12, 300 seeded draws
    otherwise."""
    ctx = r.context
    universe = ctx.window(bound)
    nonzero = [g for g in universe if g != ctx.zero]
    h_members = [g for g in nonzero if H.contains(g)]
    subsets, exhaustive = _sample_subsets(universe, seed=seed)
    if exhaustive:
        id3_subsets, scalars, points, m4_scalars = (subsets, nonzero, universe,
                                                    h_members)
    else:
        # cap the cubic Id3 scan and the M4 translator set on big windows
        rng = random.Random(seed + 1)

        def pick(pool, k):
            return sorted(rng.sample(pool, min(k, len(pool))), key=sort_key)

        id3_subsets = subsets[:40]
        scalars, points = pick(nonzero, 12), pick(universe, 40)
        m4_scalars = pick(h_members, 12)
    w = _Window(r, universe)

    # M2: A subset of B implies A_r subset of B_r
    m2 = ((w.mask(A), w.mask(B), (("A", A), ("B", B)))
          for A in subsets for B in subsets if A < B)
    return _verdicts([("Id1", w.id1(subsets, "A")),
                      ("M2", map(w.escape, m2)),
                      ("Id3", w.id3(id3_subsets, scalars, points, "A")),
                      ("M4", w.m4(subsets, m4_scalars, points))], exhaustive)


def check_id2(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
              seed: int = 0):
    """Id2: A subset of B_r implies A_r subset of B_r, over subsets of up to
    2 points.  Returns the verdict with a counterexample when it fails."""
    universe = r.context.window(bound)
    subsets, exhaustive = _sample_subsets(
        universe, max_subset_size=2, sample_budget=sample_budget, seed=seed)
    w = _Window(r, universe)
    return Check.scan("Id2", map(w.escape,
                                 ((w.mask(A), w.mask(B), (("A", A), ("B", B)))
                                  for B in subsets for A in subsets
                                  if not w.of(A) & ~w.mask(B))),
                      exhaustive=exhaustive)


def check_idempotent(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
                     seed: int = 0):
    """(A_r)_r = A_r tested through the window slice of A_r, over subsets of
    up to 2 points.  The slice is a subset of A_r, so its closure sits inside
    (A_r)_r; any point of it outside A_r is an honest counterexample, and
    agreement on all samples is reported as a bounded pass."""
    universe = r.context.window(bound)
    subsets, _ = _sample_subsets(universe, max_subset_size=2,
                                 sample_budget=sample_budget, seed=seed)
    w = _Window(r, universe)

    def pairs():
        for A in subsets:
            m = w.mask(A)
            slice_ = frozenset(g for g in universe if m & w.bit[g])
            yield w.mask(slice_), m, (("A", A),)

    return Check.scan("idempotent", map(w.escape, pairs()), bound=bound,
                      detail="window slice approximation")


def is_finitary(r: ModuleSystem, bound: int = 4, sample_budget: int = 200,
                seed: int = 0) -> Check:
    """Bounded finitariness verdict: on sampled finite sets A, A_r is the
    union of the closures of the subsets of A."""
    universe = r.context.window(bound)
    subsets, _ = _sample_subsets(universe, sample_budget=sample_budget,
                                 seed=seed)
    w = _Window(r, universe)

    def pairs():
        for A in subsets:
            union = 0  # the closures of the subsets of A
            for E in _subsets(A, range(len(A) + 1)):
                union |= w.mask(E)
            yield union, w.mask(A), (("A", A),)

    return Check.scan("finitary", map(w.escape, pairs()), bound=bound)


# -- the system space --------------------------------------------------------

def subbasis_membership(r: ModuleSystem, S) -> bool:
    """r in U_S iff 1 in S_r."""
    S = frozenset(S)
    if not S:
        raise ValueError("U_S is defined for nonempty S only")
    return r.member(S, r.context.one)


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
        self.pool = list(pool)
        self._space = None

    def space(self) -> FiniteSpace:
        """The space on the systems with subbasis U_S, S over the pool; each
        membership is evaluated once, on the first call."""
        if self._space is None:
            self._space = subbasis_space([r.name for r in self.systems],
                                         self.systems, self.pool,
                                         subbasis_membership)
        return self._space

    def t0_witnesses(self):
        """For each pair of carrier systems, the first pool set S with exactly
        one of them in U_S; None marks an undistinguished pair."""
        space = self.space()
        out = {}
        for i, j in itertools.combinations(range(space.n), 2):
            k = space.separating_open(i, j)
            out[i, j] = None if k is None else self.pool[k]
        return out


# -- finite witnesses and the finitariness falsifier -------------------------

def extract_finite_witness(delta: DeltaFamily, ctx, A, x):
    """For x in A_{r_Delta} (finite Delta), pick for each S some a in A with
    x in aS; the picks form an F with x in F_{r_Delta} and |F| <= |Delta|."""
    if not delta.finite:
        raise ValueError("finite witness extraction needs a finite family")
    for g in (x, *A):
        ctx.check(g)
    xs = _nonzero(ctx, A)
    picks = []
    for S in delta.members:
        a = next((a for a in xs if S.has(ctx.op(ctx.inv(a), x))), None)
        if a is None:
            raise ValueError("x is not in the closure of A")
        picks.append(a)
    F = frozenset(picks)
    if not r_delta(delta, ctx).member(F, x):
        raise AssertionError("extracted witness failed the recheck")
    return F


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
    truncated = product_closure(ctx, members)
    if not truncated(A)(target):
        return None
    F = frozenset(ctx.inv(x) for x in xs[:-1])
    if truncated(F)(target):
        return None
    return {"A": sorted(map(repr, A)), "target": repr(target),
            "separating_index": FAMILY_DEPTH}


def meet_finite_witness(systems, A, x):
    """For finitary systems r_i and x in A_{meet}, a finite E as the union of
    per-system finite witnesses E^{(r_i)} found by size-ordered search."""
    systems = list(systems)
    xs = tuple(sorted(A, key=sort_key))
    union = set()
    for r in systems:
        found = next((E for E in _subsets(xs, range(len(xs) + 1))
                      if r.member(E, x)), None)
        if found is None:
            raise ValueError("x is not in the closure of A")
        union.update(found)
    E = frozenset(union)
    if not meet(systems).member(E, x):
        raise AssertionError("combined witness failed the recheck")
    return E


# -- the overmonoid embedding ------------------------------------------------

def embedding_checks(overmonoids, ctx, bound: int = 4) -> Check:
    """Injectivity of the map S -> r_{{S}} on a finite overmonoid carrier:
    the closures of {1}, which are the S themselves, are pairwise distinct
    at the ``separating_points``, so on a generator-backed carrier the check
    is exact."""
    points = separating_points(ctx, overmonoids, bound)
    ones = []  # each closure of {1} on those points
    for S in overmonoids:
        pred = iota(S).closure(frozenset([ctx.one]))
        ones.append(frozenset(g for g in points if pred(g)))
    first = {}  # each closure of {1} -> the first index with it
    i = next((i for i, one in enumerate(ones)
              if first.setdefault(one, i) != i), None)
    return Check("iota-injective", i is None,
                 witness=None if i is None else {"S": repr(overmonoids[i])},
                 exhaustive=False, n=len(ones), bound=bound)


# -- family description files ------------------------------------------------

def _scaled_ray(ray, k):
    """Index-k generator of an adjoin-ray family: the negative part of the ray
    stays fixed and the positive part is scaled by k."""
    return tuple(c if c < 0 else k * c for c in ray)


def family_from_json(text: str):
    """Parse a family description: {"family": "adjoin-ray", "base": ...,
    "ray": [...], "scale": "k"}.  The base is a monoid object or an
    "affine:x,y;x,y" shorthand.  Returns (base monoid, DeltaFamily)."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from e
    if not isinstance(data, dict):
        raise ParseError("top-level value must be an object")
    if data.get("family") != "adjoin-ray":
        raise ParseError("family must be 'adjoin-ray'", field="family")
    base = data.get("base")
    if isinstance(base, str) and base.startswith("affine:"):
        try:
            H = Monoid.affine([[int(c) for c in v.split(",")]
                               for v in base[7:].split(";")])
        except ValueError as e:
            raise ParseError(f"bad affine shorthand: {e}", field="base") from e
    elif isinstance(base, dict):
        H = monoid_from_json(json.dumps(base))
        if H.kind != "affine":
            raise ParseError("base must be an affine monoid", field="base")
    else:
        raise ParseError("expected a monoid object or affine shorthand",
                         field="base")
    ray = data.get("ray")
    if (not isinstance(ray, list) or len(ray) != H.dim
            or not all(map(is_int, ray))):
        raise ParseError(f"expected an integer vector of length {H.dim}",
                         field="ray")
    if data.get("scale") != "k":
        raise ParseError("scale must be 'k'", field="scale")
    ctx = H.context
    # S_k adds neg + k*pos; two indices in the lattice put every index there
    if not all(ctx.contains(_scaled_ray(ray, k)) for k in (1, 2)):
        raise ParseError("the scaled rays must lie in the base's lattice",
                         field="ray")
    base_over = Overmonoid(ctx, gens=H.generators, name="base")

    def member_fn(k):
        return Overmonoid(ctx, gens=H.generators + (_scaled_ray(ray, k),),
                          name=f"S_{k}")

    delta = DeltaFamily(member_fn=member_fn, limit=base_over,
                        name="adjoin-ray")
    return H, delta


def family_from_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_json(fh.read())


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
