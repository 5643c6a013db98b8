"""Brute-force oracles that only the tests use: the opens of a finite space
materialized as bitmasks, soberness and homeomorphism by their definitions,
every topology on a few points, and a small finite monoid built by hand.

Open sets are ints, bit i set when point i lies in the set; materializing
them is exponential, so a space may have at most ``CARRIER_GUARD`` points."""

import itertools
from functools import lru_cache

from monoid_spectra.fintop import FiniteSpace
from monoid_spectra.monoid import Monoid

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


def cyclic_group_with_zero(n) -> Monoid:
    """Z/n with an absorbing zero adjoined; carrier indices 0..n, where
    index n is the absorbing zero and index 0 the identity."""
    table = [[n if n in (a, b) else (a + b) % n for b in range(n + 1)]
             for a in range(n + 1)]
    return Monoid.finite(table, one=0, zero=n)
