"""Brute-force oracles that only the tests use: the opens of a finite space
materialized as bitmasks, soberness and homeomorphism by their definitions,
every topology on a few points, equality of r-ideals, a small finite
monoid built by hand, the
domination map and its image law asked point by point, and the finite
witnesses of intersection systems and of meets.

Open sets are ints, bit i set when point i lies in the set; materializing
them is exponential, so a space may have at most ``CARRIER_GUARD`` points."""

import itertools
from functools import lru_cache

from monoid_spectra.fintop import FiniteSpace
from monoid_spectra.modsys import _nonzero, meet, r_delta
from monoid_spectra.monoid import INF, Monoid, fraction_ideal, sort_key
from monoid_spectra.report import INFO, Check
from monoid_spectra.window import _subsets

CARRIER_GUARD = 20


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
    basis.update(mask(s) for s in space.subbasis)
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
            space = FiniteSpace([str(i) for i in universe], sub)
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


def image_law_pointwise(H, primes, f, zar_space, pruefer, bound):
    """The checks of ``valuation.delta_laws``, rebuilding (H : x) and asking
    every prime about its points once per x."""
    ctx = H.context
    U = dict(zip(ctx.window(bound), zar_space.subbasis))
    h_window = [g for g in ctx.nonzero_window(bound) if H.contains(g)]
    lower_witness = eq_witness = None
    count = 0
    for x in ctx.nonzero_window(bound):
        count += 1
        frac = fraction_ideal(H, x)
        frac_window = [h for h in h_window if frac(h)]
        left = frozenset(f[i] for i in U[x])
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
                    witness=lower_witness, exhaustive=False, n=count,
                    bound=bound)]
    if pruefer:
        checks.append(Check("delta-image-law", eq_witness is None,
                            witness=eq_witness, exhaustive=False, n=count,
                            bound=bound))
    else:
        checks.append(Check("delta-image-law", INFO, n=count, bound=bound,
                            detail="equality holds on Pruefer instances; here "
                            + ("it also holds pointwise" if eq_witness is None
                               else f"it fails at {eq_witness['x']}")))
    return checks


# -- finite witnesses ---------------------------------------------------------

def extract_finite_witness(delta, ctx, A, x):
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
