"""Numerical semigroups: exact membership, gaps, Frobenius number, and
enumeration of oversemigroups (finite, by a walk of the tree that adjoins
special gaps, so its cost follows the number of oversemigroups)."""

from __future__ import annotations

from functools import lru_cache
from math import gcd

from .errors import UnsupportedRealization

# Most entries of a reach table (one per integer up to the smallest times the
# largest generator, plus one); every bundled input needs a few hundred.
MAX_REACH = 100_000
# Most oversemigroups `oversemigroups` lists before it gives up.
MAX_OVERSEMIGROUPS = 10_000


class NumericalSemigroup:
    """Additive submonoid of N generated by positive integers with gcd 1,
    its gaps read from a reach table or given, trusted, as `gaps`."""

    def __init__(self, generators, gaps=None):
        gens = sorted(set(int(g) for g in generators))
        if not gens or any(g <= 0 for g in gens):
            raise ValueError("generators must be positive integers")
        g_all = 0
        for g in gens:
            g_all = gcd(g_all, g)
        if g_all != 1:
            raise ValueError("generators must have gcd 1")
        self.generators = tuple(gens)
        limit = gens[0] * gens[-1] + 1  # >= conductor
        if limit + 1 > MAX_REACH:
            raise UnsupportedRealization(
                f"numerical semigroup too large: generators {gens[0]} and "
                f"{gens[-1]} need a reach table of {limit + 1} entries, "
                f"over the limit of {MAX_REACH}")
        if gaps is None:
            reach = [False] * (limit + 1)
            reach[0] = True
            for i in range(1, limit + 1):
                reach[i] = any(i >= g and reach[i - g] for g in gens)
            gaps = [n for n in range(1, limit + 1) if not reach[n]]
        self.gaps = tuple(gaps)
        self.frobenius = gaps[-1] if gaps else -1
        self.conductor = self.frobenius + 1
        self._gaps = frozenset(gaps)

    def contains(self, n: int) -> bool:
        return n >= self.conductor or n >= 0 and n not in self._gaps

    def elements_upto(self, bound: int) -> list[int]:
        return [n for n in range(bound + 1) if self.contains(n)]

    def minimal_generators(self) -> tuple[int, ...]:
        m = self.generators[0]
        cands = [n for n in self.elements_upto(self.frobenius + m + 1) if n > 0]
        elems = set(cands)
        out = []
        for n in cands:
            if not any(a in elems and (n - a) in elems for a in range(1, n)):
                out.append(n)
        return tuple(out)

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self):
        return self.gaps

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"


def oversemigroups(sgp: NumericalSemigroup) -> list[NumericalSemigroup]:
    """All numerical semigroups containing `sgp`, sorted by decreasing number
    of gaps, then by gap tuple.

    Walks the tree rooted at `sgp` in which the parent of T is T minus
    m = min(T - sgp) (Rosales and Garcia-Sanchez, Numerical Semigroups,
    2009).  Every element of T below m lies in `sgp`, so m is no sum of two
    elements of T: it is a minimal generator and the parent is a semigroup.
    The children of T adjoin one special gap g of T (2g and every g + t,
    t in T nonzero, lie in T) below min(T - sgp), so each oversemigroup is
    visited once, and built from the gaps the walk holds.  Raises
    UnsupportedRealization past MAX_OVERSEMIGROUPS."""
    frob = sgp.frobenius
    out = []
    stack = [frozenset()]  # the gaps of `sgp` each node fills
    while stack:
        filled = stack.pop()
        node = NumericalSemigroup(set(sgp.generators) | filled, [
            g for g in sgp.gaps if g not in filled])
        out.append(node)
        if len(out) > MAX_OVERSEMIGROUPS:
            raise UnsupportedRealization(
                f"{sgp} has more than {MAX_OVERSEMIGROUPS} oversemigroups")
        members = [n for n in range(1, frob + 1) if node.contains(n)]
        top = min(filled, default=frob + 1)
        for g in sgp.gaps:
            if g >= top:
                break
            if ((2 * g > frob or node.contains(2 * g))
                    and all(g + t > frob or node.contains(g + t)
                            for t in members)):
                stack.append(filled | {g})
    out.sort(key=lambda s: (-len(s.gaps), s.gaps))
    return out


@lru_cache(maxsize=512)
def cached_semigroup(generators: tuple) -> NumericalSemigroup:
    return NumericalSemigroup(generators)
