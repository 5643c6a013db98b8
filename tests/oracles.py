"""Brute-force oracles that only the tests use: finite spaces built from
subbases point by point, the opens of a finite space materialized as
bitmasks, soberness, homeomorphism and the covers of the specialization
order by their definitions, the space of module systems over a pool of
sets with each closure asked,
every topology on a few points, equality of r-ideals, a small finite
monoid built by hand, the first defect of a Cayley table by the triple
loop, the benchmark's workload module, the valuation test, the Zar
carrier and its space, the Pruefer test, the domination map and its image
law asked point by point through the validating ``contains``, the finite
witnesses of intersection systems and of meets, the pair scans of the
axiom checkers read one pair at a time, and their seeded subset draws.

Open sets are ints, bit i set when point i lies in the set; materializing
them is exponential, so a space may have at most ``CARRIER_GUARD`` points."""

import functools
import importlib.util
import itertools
import math
import os
import random
from functools import lru_cache

from monoid_spectra.fintop import FiniteSpace
from monoid_spectra.modsys import FAMILY_DEPTH, ModuleSystem, meet
from monoid_spectra.monoid import (INF, Monoid, Overmonoid, fraction_ideal,
                                   localize, sort_key)
from monoid_spectra.report import INFO, Check
from monoid_spectra.valuation import ZAR_HEIGHT
from monoid_spectra.window import _subsets

CARRIER_GUARD = 20


def subbasis_space(labels, points, opens, inside) -> FiniteSpace:
    """The space on `points` whose k-th subbasis open is the set of points p
    with inside(p, opens[k]): bit k of p's profile, each membership asked
    once."""
    return FiniteSpace(labels, [sum(1 << k for k, o in enumerate(opens)
                                    if inside(p, o)) for p in points])


def sets_space(n, sets) -> FiniteSpace:
    """The space on points 0..n-1 whose subbasis opens are `sets`."""
    return subbasis_space([str(i) for i in range(n)], range(n), sets,
                          lambda i, s: i in s)


def subbasis(space: FiniteSpace, bits=None) -> list:
    """The point set of each subbasis open, in bit order: of the given
    `bits`, or of every bit up to the highest any profile sets."""
    if bits is None:
        bits = range(max(space.profiles, default=0).bit_length())
    return [frozenset(i for i, p in enumerate(space.profiles) if p >> b & 1)
            for b in bits]


def mask(points) -> int:
    m = 0
    for i in points:
        m |= 1 << i
    return m


def unmask(space: FiniteSpace, m) -> frozenset:
    return frozenset(i for i in range(space.n) if m >> i & 1)


def full_mask(space: FiniteSpace) -> int:
    return (1 << space.n) - 1


@lru_cache(maxsize=1 << 12)
def opens(space: FiniteSpace) -> frozenset:
    """All open sets of the space: the closure of its subbasis under finite
    intersection and arbitrary union, with the empty and full sets."""
    if space.n > CARRIER_GUARD:
        raise ValueError(
            f"carrier too large to materialize (> {CARRIER_GUARD})")
    basis = {full_mask(space)}
    basis.update(mask(s) for s in subbasis(space))
    # close under pairwise intersection
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(basis), 2):
            if a & b not in basis:
                basis.add(a & b)
                changed = True
    # close under pairwise union
    out = basis | {0}
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(list(out), 2):
            if a | b not in out:
                out.add(a | b)
                changed = True
    return frozenset(out)


def closeds(space: FiniteSpace) -> set:
    return {full_mask(space) ^ o for o in opens(space)}


def closure_of_point(space: FiniteSpace, x) -> frozenset:
    return frozenset(y for y in range(space.n) if space.leq(x, y))


def specialization_matrix(space: FiniteSpace):
    """Relation matrix of the closure order (a preorder; a poset iff T0)."""
    return [[space.leq(x, y) for y in range(space.n)]
            for x in range(space.n)]


def hasse_edges_cubic(space: FiniteSpace):
    """Cover relations of the specialization order by their definition:
    every related pair (x, y), x != y, with no third point z between, each
    z asked; the oracle of ``fintop.hasse_edges``."""
    rel = specialization_matrix(space)
    n = space.n
    edges = []
    for x in range(n):
        for y in range(n):
            if x == y or not rel[x][y]:
                continue
            if any(rel[x][z] and rel[z][y] and z not in (x, y)
                   for z in range(n)):
                continue
            edges.append((x, y))
    return edges


def sober_bruteforce(space: FiniteSpace) -> bool:
    """Soberness by its definition: every irreducible closed set has exactly
    one generic point, over all materialized closed sets.  The oracle for
    reading sober from T0."""
    cs = closeds(space)
    for c in cs:
        pts = unmask(space, c)
        if not pts:
            continue
        proper = [d for d in cs if d & c == d and d != c]
        if any(a | b == c for a, b in
               itertools.combinations_with_replacement(proper, 2)):
            continue
        generics = [x for x in pts
                    if mask(closure_of_point(space, x)) == c]
        if len(generics) != 1:
            return False
    return True


def brute_force_homeomorphic(X: FiniteSpace, Y: FiniteSpace, f) -> bool:
    """f is a bijection that carries the opens of X onto the opens of Y."""
    if sorted(f) != list(range(Y.n)):
        return False
    images = {mask(f[i] for i in unmask(X, o)) for o in opens(X)}
    return images == opens(Y)


def all_topologies(n: int):
    """Every topology on n points, generated from all possible subbases.
    Intended for n <= 3 (exhaustive cross-validation)."""
    universe = list(range(n))
    all_subsets = [frozenset(c) for r in range(n + 1)
                   for c in itertools.combinations(universe, r)]
    seen = set()
    spaces = []
    for r in range(len(all_subsets) + 1):
        for sub in itertools.combinations(all_subsets, r):
            space = sets_space(n, sub)
            if opens(space) not in seen:
                seen.add(opens(space))
                spaces.append(space)
    return spaces


def equals(I, J) -> bool:
    """Two r-ideals are equal: each holds the other's generators, which is
    exact because closures are exact."""
    return (all(J.contains(g) for g in I.generators)
            and all(I.contains(g) for g in J.generators))


def cyclic_group_with_zero(n) -> Monoid:
    """Z/n with an absorbing zero adjoined; carrier indices 0..n, where
    index n is the absorbing zero and index 0 the identity."""
    table = [[n if n in (a, b) else (a + b) % n for b in range(n + 1)]
             for a in range(n + 1)]
    return Monoid.finite(table, one=0, zero=n)


def cyclic_product(orders, relabel=None) -> dict:
    """The description file of Z/a x Z/b x ... with an absorbing zero
    adjoined: element i is the i-th tuple in lexicographic order, so the
    identity is 0, and the zero is the last index.  `relabel`, a
    permutation of the indices, renames element i to relabel[i]."""
    elems = list(itertools.product(*map(range, orders)))
    zero = len(elems)
    index = {e: i for i, e in enumerate(elems)}
    name = relabel or list(range(zero + 1))
    table = [[0] * (zero + 1) for _ in range(zero + 1)]
    for a in range(zero + 1):
        for b in range(zero + 1):
            ab = zero if zero in (a, b) else index[tuple(
                (x + y) % n for x, y, n in zip(elems[a], elems[b], orders))]
            table[name[a]][name[b]] = name[ab]
    return {"kind": "finite", "size": zero + 1, "table": table,
            "one": name[0], "zero": name[zero]}


# -- the valuation layer, point by point -------------------------------------

def table_error(table, one, zero):
    """The first defect of a square table of element indices with
    one != zero, as ``FiniteCarrier`` names it, read entry by entry:
    commutativity at (a, b), then associativity at (a, b, c) for each c,
    over (a, b) in order; then neutrality, absorption and cancellativity,
    element by element.  None for a valid table."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            if table[a][b] != table[b][a]:
                return f"not commutative at ({a},{b})"
            for c in range(n):
                if table[table[a][b]][c] != table[a][table[b][c]]:
                    return f"not associative at ({a},{b},{c})"
    for a in range(n):
        if table[one][a] != a:
            return "declared identity is not neutral"
        if table[zero][a] != zero:
            return "declared zero is not absorbing"
        if a != zero and len(set(table[a])) != n:
            return f"not cancellative: row {a} repeats a value"
    return None


def load_workloads():
    """The benchmark's ``bench/workloads.py``, loaded from the checkout."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))), "bench",
            "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def is_valuation_pointwise(S, bound):
    """The first nonzero window point x with neither x nor x^{-1} in S, or
    None, both asked through the validating ``contains``."""
    ctx = S.context
    return next((x for x in ctx.nonzero_window(bound)
                 if not S.contains(x) and not S.contains(ctx.inv(x))), None)


def in_valuation(w, t, g) -> bool:
    """Membership of a nonzero plane point g in V(w, t) by its definition:
    w.g > 0, or w.g = 0 and g on the tiebreak's half of the kernel line,
    the side of the perpendicular (-w_1, w_0) with sign t, its origin
    included, or the whole line at t = 0."""
    s = w[0] * g[0] + w[1] * g[1]
    if s != 0:
        return s > 0
    if t == 0:
        return True
    p = -w[1] * g[0] + w[0] * g[1]
    return p == 0 or (p > 0) == (t > 0)


def zar_pointwise(H, bound):
    """Zar(G|H) on a numerical or affine d = 2 H: the candidate valuations
    that hold H's generators, one per window profile, the profile read
    point by point on the whole window, INF included.  N, Z and the trivial
    valuation are given by their rules, not their generators; V(w, t) by
    ``in_valuation``, for every primitive w with coordinates up to
    ZAR_HEIGHT and every t, by the height max |w_i|, then w, then t."""
    ctx = H.context
    if H.kind == "numerical":
        return [Overmonoid(ctx, rule=lambda g: g >= 0, name="V(N)"),
                Overmonoid(ctx, rule=lambda g: True, name="V(Z)")]
    window = ctx.window(bound)
    span = range(-ZAR_HEIGHT, ZAR_HEIGHT + 1)
    weights = [(a, b) for a in span for b in span if math.gcd(a, b) == 1]
    order = sorted(((w, t) for w in weights for t in (-1, 0, 1)),
                   key=lambda c: (max(abs(c[0][0]), abs(c[0][1])), c))
    cands = [Overmonoid(ctx, rule=functools.partial(in_valuation, w, t),
                        name=f"V(w={w},t={t:+d})") for w, t in order]
    cands.append(Overmonoid(ctx, rule=lambda g: True, name="V(trivial)"))
    out, profiles = [], set()
    for v in cands:
        if not all(v.contains(g) for g in H.generators):
            continue
        prof = frozenset(i for i, g in enumerate(window) if v.contains(g))
        if prof not in profiles:
            profiles.add(prof)
            out.append(v)
    return out


def zar_space_pointwise(carrier, ctx, bound) -> FiniteSpace:
    """The carrier's space with subbasis U(x), x over the nonzero window,
    each membership asked through ``contains``."""
    return subbasis_space([S.name or repr(S) for S in carrier], carrier,
                          ctx.nonzero_window(bound),
                          lambda S, x: S.contains(x))


def is_s_pruefer_pointwise(H, primes, bound) -> Check:
    """Every localization at a listed prime passes the pointwise valuation
    test."""
    def outcome(P):
        x = is_valuation_pointwise(localize(H, P), bound)
        return None if x is None else {"x": repr(x), "P": P.name}

    return Check.scan("s-pruefer", map(outcome, primes), bound=bound)


# -- the domination map, point by point ---------------------------------------

def is_local_pointwise(V, bound) -> bool:
    """Nonunits form an ideal on the window: every product of a nonunit and
    a member, both on the window, is asked whether it is a unit."""
    ctx = V.context
    units = {g for g in ctx.nonzero_window(bound)
             if V.has(g) and V.has(ctx.inv(g))}
    members = [g for g in ctx.window(bound) if V.has(g)]
    for n in members:
        if n in units or n == ctx.one:
            continue
        for h in members:
            if ctx.op(n, h) in units:
                return False
    return True


def delta_pointwise(H, V, primes, bound) -> int:
    """The index of the one prime that agrees with m_V on the window's part
    of H, asking H, V and every prime about every point, per prime."""
    ctx = V.context
    if not is_local_pointwise(V, bound):
        raise ValueError(f"{V.name or V!r} is not local on the window")

    def m(g):
        if g is INF or g == ctx.zero:
            return True
        return V.contains(g) and not V.contains(ctx.inv(g))

    window = [g for g in ctx.window(bound) if H.contains(g)]
    matches = [j for j, P in enumerate(primes)
               if all((H.contains(g) and m(g)) == P.contains(g)
                      for g in window)]
    if len(matches) != 1:
        raise ValueError(
            f"domination image of {V.name} matched {len(matches)} primes")
    return matches[0]


def image_law_pointwise(H, primes, f, carrier, pruefer, bound):
    """The checks of ``valuation.delta_laws``, rebuilding (H : x) and asking
    every prime about its points and every carrier member about x once per
    x."""
    ctx = H.context
    h_window = [g for g in ctx.nonzero_window(bound) if H.contains(g)]
    lower_witness = eq_witness = None
    count = 0
    for x in ctx.nonzero_window(bound):
        count += 1
        frac = fraction_ideal(H, x)
        frac_window = [h for h in h_window if frac(h)]
        left = frozenset(f[i] for i, V in enumerate(carrier)
                         if V.contains(x))
        right = frozenset(j for j, P in enumerate(primes)
                          if any(not P.contains(h) for h in frac_window))
        if lower_witness is None and not right <= left:
            lower_witness = {"x": repr(x), "missing": sorted(right - left)}
        if eq_witness is None and left != right:
            eq_witness = {"x": repr(x), "image": sorted(left),
                          "complement": sorted(right)}
        if lower_witness is not None and eq_witness is not None:
            break
    checks = [Check("delta-image-law-lower", lower_witness is None,
                    witness=lower_witness, n=count, bound=bound)]
    if pruefer:
        checks.append(Check("delta-image-law", eq_witness is None,
                            witness=eq_witness, n=count, bound=bound))
    else:
        checks.append(Check("delta-image-law", INFO, n=count, bound=bound,
                            detail="equality holds on Pruefer instances; here "
                            + ("it also holds pointwise" if eq_witness is None
                               else f"it fails at {eq_witness['x']}")))
    return checks


# -- the system space, one closure at a time ----------------------------------

def subbasis_membership(r, S) -> bool:
    """r in U_S iff 1 in S_r, asked through r's closure."""
    S = frozenset(S)
    if not S:
        raise ValueError("U_S is defined for nonempty S only")
    return r.closure(S)(r.context.one)


def pool_space(systems, pool) -> FiniteSpace:
    """The space on module systems with subbasis U_S, S over `pool`, a list
    of nonempty finite subsets of G: the general construction that
    ``modsys.SystemSpace`` specializes, each membership asked through a
    closure.  Systems that name no members are read alike."""
    return subbasis_space([r.name for r in systems], systems, pool,
                          subbasis_membership)



# -- parameterized families, point by point ----------------------------------

def check_family_pointwise(delta, ctx, bound):
    """The family checks with each member rebuilt and asked through
    ``contains`` per (k, point)."""
    window = [g for g in ctx.window(bound) if g is not INF]

    def inside(name, pairs):
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


def falsify_finitary_pointwise(delta, ctx, bound):
    """The non-finitariness search with each x_k found point by point, the
    first window point of S_k that no later member holds, asked through
    ``contains``."""
    window = ctx.nonzero_window(bound)
    members = [delta.member(k) for k in range(1, FAMILY_DEPTH + 1)]
    xs = []
    for k in range(1, FAMILY_DEPTH + 1):
        x = next((g for g in window if members[k - 1].contains(g)
                  and not any(S.contains(g) for S in members[k:])), None)
        if x is None:
            return None
        xs.append(x)
    A = frozenset(ctx.inv(x) for x in xs)
    truncated = ModuleSystem(delta.name, ctx, members).closure
    if not truncated(A)(ctx.one):
        return None
    if truncated(frozenset(ctx.inv(x) for x in xs[:-1]))(ctx.one):
        return None
    return {"A": sorted(map(repr, A)), "target": repr(ctx.one),
            "separating_index": FAMILY_DEPTH}


# -- finite witnesses ---------------------------------------------------------

def extract_finite_witness(members, ctx, A, x):
    """For x in A_r, r the system of the overmonoids `members`, pick for
    each S some a in A with x in aS; the picks form an F with x in F_r and
    |F| <= |members|."""
    for g in (x, *A):
        ctx.check(g)
    xs = sorted((a for a in A if a is not INF and a != ctx.zero),
                key=sort_key)
    picks = []
    for S in members:
        a = next((a for a in xs if S.has(ctx.op(ctx.inv(a), x))), None)
        if a is None:
            raise ValueError("x is not in the closure of A")
        picks.append(a)
    F = frozenset(picks)
    if not ModuleSystem("r", ctx, members).closure(F)(x):
        raise AssertionError("extracted witness failed the recheck")
    return F


def meet_finite_witness(systems, A, x):
    """For finitary systems r_i and x in A_{meet}, a finite E as the union of
    per-system finite witnesses E^{(r_i)} found by size-ordered search."""
    systems = list(systems)
    xs = tuple(sorted(A, key=sort_key))
    union = set()
    for r in systems:
        found = next((E for E in _subsets(xs, range(len(xs) + 1))
                      if r.closure(E)(x)), None)
        if found is None:
            raise ValueError("x is not in the closure of A")
        union.update(found)
    E = frozenset(union)
    if not meet(systems).closure(E)(x):
        raise AssertionError("combined witness failed the recheck")
    return E


# -- the pair scans, one pair at a time, and the draws ------------------------

def _pair_reader(r, universe):
    """A_r's window points as a bitmask, bit i for the i-th point, each A
    asked once; and the first point of one mask outside another, as the
    checkers' witness names it, or None."""
    @functools.cache
    def mask(A):
        pred = r.closure(A)
        return sum(1 << i for i, g in enumerate(universe) if pred(g))

    def escape(inner, outer, named):
        bad = inner & ~outer
        if not bad:
            return None
        g = universe[(bad & -bad).bit_length() - 1]
        return {**{k: sorted(map(repr, A)) for k, A in named}, "g": repr(g)}

    return mask, escape


def m2_pair_by_pair(r, universe, pairs, keys, covered=False):
    """(witness, n) of M2, X_r inside Y_r, over `pairs` one at a time, in
    their order; with `covered`, over those with X inside Y_r, which is
    Id2.  n counts the pairs read, up to the witness."""
    mask, escape = _pair_reader(r, universe)
    index = {g: i for i, g in enumerate(universe)}
    n = 0
    for X, Y in pairs:
        if covered and any(not mask(Y) >> index[g] & 1 for g in X):
            continue
        n += 1
        witness = escape(mask(X), mask(Y), ((keys[0], X), (keys[1], Y)))
        if witness is not None:
            return witness, n
    return None, n


def finitary_by_subsets(r, universe, sets):
    """(witness, n) of finitariness over `sets`: per A, the union of the
    closures of all 2^|A| subsets of A inside A_r."""
    mask, escape = _pair_reader(r, universe)
    n = 0
    for n, A in enumerate(sets, 1):
        union = 0
        for E in _subsets(A, range(len(A) + 1)):
            union |= mask(E)
        witness = escape(union, mask(A), (("A", A),))
        if witness is not None:
            return witness, n
    return None, n


def id3_item_by_item(r, ctx, sets, scalars, points, key):
    """(witness, n) of Id3 over the (A, c) of `sets` x `scalars`, one item
    at a time, in that order, each through the exact predicates: c A_r
    (c^{-1} g in A_r, or g = 0 for c = 0) against (cA)_r at `points`.  n
    counts the items read, up to the witness."""
    n = 0
    for A in sets:
        member = r.closure(A)
        for c in scalars:
            n += 1
            rhs = r.closure(frozenset(ctx.op(c, a) for a in A))
            for g in points:
                lhs = g == ctx.zero if c == ctx.zero else member(
                    ctx.op(ctx.inv(c), g))
                if lhs != rhs(g):
                    return {key: sorted(map(repr, A)), "c": repr(c),
                            "g": repr(g)}, n
    return None, n


def drawn_subsets(universe, size, budget, seed):
    """The subsets of a draw that is not full, through ``random.Random``
    itself: the empty set and `budget` seeded samples of 1 to `size`
    points, without repeats."""
    rng = random.Random(seed)
    return list(dict.fromkeys([frozenset(), *(
        frozenset(rng.sample(universe, rng.randint(1, size)))
        for _ in range(budget))]))


# -- the numerical layer read point by point ---------------------------------

def reach_table_gaps(gens):
    """The gaps of <gens> from a reach table: one entry per integer up to
    the smallest times the largest generator, each set when some generator
    steps back onto a set entry."""
    gens = sorted(set(gens))
    limit = gens[0] * gens[-1] + 1
    reach = [True] + [False] * limit
    for i in range(1, limit + 1):
        reach[i] = any(i >= g and reach[i - g] for g in gens)
    return tuple(n for n in range(1, limit + 1) if not reach[n])


def minimal_generators_pointwise(sgp):
    """The members on [1, F + m + 1] that are no sum of two members there,
    each sum asked member by member."""
    m = sgp.generators[0]
    cands = [n for n in range(1, sgp.frobenius + m + 2) if sgp.contains(n)]
    elems = set(cands)
    return tuple(n for n in cands
                 if not any(a in elems and n - a in elems
                            for a in range(1, n)))


def oversemigroup_gaps_by_sets(sgp):
    """The gap tuples of the oversemigroups of `sgp`, in the order
    ``oversemigroups`` lists them, by the same tree walk on sets: each node
    is the set of gaps it fills, and a special gap is tested member by
    member."""
    frob = sgp.frobenius
    out = []
    stack = [frozenset()]
    while stack:
        filled = stack.pop()
        gaps = [g for g in sgp.gaps if g not in filled]
        out.append(tuple(gaps))
        members = [n for n in range(1, frob + 1) if n not in gaps]
        top = min(filled, default=frob + 1)
        for g in sgp.gaps:
            if g >= top:
                break
            if 2 * g not in gaps and all(g + t not in gaps for t in members):
                stack.append(filled | {g})
    out.sort(key=lambda gaps: (-len(gaps), gaps))
    return out


def is_prime(I, window) -> bool:
    """No a, b of H outside I (within the window) multiply into I, each
    product asked of I's predicate; the improper ideal is rejected."""
    H = I.system.H
    if I.contains(H.one):
        return False
    outside = [g for g in window if H.contains(g) and not I.contains(g)]
    return not any(I.contains(H.op(a, b))
                   for i, a in enumerate(outside) for b in outside[i:])


def all_pairs_is_prime(I, window):
    """`is_prime` as the literal loop over every ordered pair of window
    points outside I."""
    H = I.system.H
    if I.contains(H.one):
        return False
    outside = [g for g in window if H.contains(g) and not I.contains(g)]
    for a in outside:
        for b in outside:
            if I.contains(H.op(a, b)):
                return False
    return True
