"""Numerical semigroups as gap masks: exact membership, gaps, Frobenius
number, minimal generators, spans of integers, and enumeration of
oversemigroups (finite, by a walk of the tree that adjoins special gaps, so
its cost follows the number of oversemigroups) and of bounded ideals.

A semigroup is one int, bit g set for each gap g: a membership is a bit
test, its members on a run of integers are the complement shifted, and
every question the walk asks of a node is a shift and an AND."""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from math import gcd

from .errors import UnsupportedRealization

# Most bits of a reach mask (one per integer up to the smallest times the
# largest generator, plus one); every bundled input needs a few hundred.
MAX_REACH = 100_000
# Most oversemigroups `oversemigroups` lists before it gives up.
MAX_OVERSEMIGROUPS = 10_000


def _reach_limit(lo, hi):
    """The reach of generators lo <= hi: an integer at or past the
    conductor; refused past MAX_REACH."""
    limit = lo * hi + 1
    if limit + 1 > MAX_REACH:
        raise UnsupportedRealization(
            f"numerical semigroup too large: generators {lo} and "
            f"{hi} need a reach table of {limit + 1} entries, "
            f"over the limit of {MAX_REACH}")
    return limit


def _bits(m):
    """The set bits of m, ascending."""
    out = []
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return out


class NumericalSemigroup:
    """Additive submonoid of N generated by positive integers with gcd 1,
    kept as its gap mask, bit g set for each gap g.  The mask is the
    complement of a shift-OR reach mask of the generators, or is given,
    trusted, as `gap_mask` with sorted generators, and then its minimal
    generators may be given too, trusted, as the mask `minimal`."""

    def __init__(self, generators, gap_mask=None, minimal=None):
        if gap_mask is None:
            generators = sorted(set(int(g) for g in generators))
            if not generators or any(g <= 0 for g in generators):
                raise ValueError("generators must be positive integers")
            g_all = 0
            for g in generators:
                g_all = gcd(g_all, g)
            if g_all != 1:
                raise ValueError("generators must have gcd 1")
            limit = _reach_limit(generators[0], generators[-1])
            full = (1 << limit + 1) - 1
            # closed under each generator in turn: adding g, 2g, 4g, ...
            # reaches every multiple of g up to the limit
            reach = 1
            for g in generators:
                step = g
                while step <= limit:
                    reach |= reach << step & full
                    step *= 2
            gap_mask = full & ~reach
        self.generators = tuple(generators)
        self.gap_mask = gap_mask
        self._minimal = minimal
        self.gaps = tuple(_bits(gap_mask))
        self.frobenius = gap_mask.bit_length() - 1
        self.conductor = self.frobenius + 1

    def contains(self, n: int) -> bool:
        return n >= 0 and not self.gap_mask >> n & 1

    def span(self, lo: int, width: int) -> int:
        """The members in [lo, lo + width), bit j for lo + j: the
        complemented gap mask, shifted; no negative integer is a member."""
        members = ~self.gap_mask
        moved = members << -lo if lo < 0 else members >> lo
        return moved & (1 << width) - 1

    def minimal_generators(self) -> tuple[int, ...]:
        """The members on [1, F + m + 1], m the multiplicity, that are no
        sum of two of them: those members minus the OR of their shifts;
        the given ones where they were given."""
        return tuple(_bits(self._minimal_mask()))

    def _minimal_mask(self) -> int:
        """The minimal generators as a mask, bit x for each, formed once."""
        if self._minimal is None:
            positive = ~self.gap_mask & -2
            m = (positive & -positive).bit_length() - 1
            members = positive & (1 << self.conductor + m + 1) - 1
            sums = 0
            for a in _bits(members):
                sums |= members << a
            self._minimal = members & ~sums
        return self._minimal

    def __eq__(self, other):
        return (isinstance(other, NumericalSemigroup)
                and self.gap_mask == other.gap_mask)

    def __hash__(self):
        return hash(self.gap_mask)

    def __repr__(self):
        return f"NumericalSemigroup{self.generators}"


def oversemigroups(sgp: NumericalSemigroup) -> list[NumericalSemigroup]:
    """All numerical semigroups containing `sgp`, sorted by decreasing number
    of gaps, then by gap tuple.

    Walks the tree rooted at `sgp` in which the parent of T is T minus
    m = min(T - sgp) (Rosales and Garcia-Sanchez, Numerical Semigroups,
    2009; Fromentin and Hivert, Math. Comp. 2016, walk the same tree on
    bitsets).  Every element of T below m lies in `sgp`, so m is no sum of
    two elements of T: it is a minimal generator and the parent is a
    semigroup.  The children of T adjoin one special gap g of T below
    min(T - sgp): bit 2g of T's gap mask is clear and so is every bit of
    T's members on [1, F] moved by g.  So each oversemigroup is visited
    once, and built from the gap mask the walk holds, with `sgp`'s
    generators and the gaps it fills as its own, and with its minimal
    generators carried down from its parent's: adjoining g adds g, which
    is no sum of two smaller members, and drops each old one that becomes
    g + h for a member h > 0; no other member becomes or stops being a sum.
    Raises UnsupportedRealization past MAX_OVERSEMIGROUPS, and at a node
    whose generators pass MAX_REACH, as building it from them would."""
    frob = sgp.frobenius
    root = sgp.gap_mask
    positive = (1 << frob + 1) - 2  # [1, F]
    # [1, 2F + 1]: it holds x - g for every gap g a node fills and every
    # minimal generator x of the node, as x <= F + m + 1 <= 2F + 2 for its
    # multiplicity m <= F + 1
    reach = (1 << 2 * frob + 2) - 2
    out = []
    stack = [(root, sgp.generators, sgp._minimal_mask())]
    while stack:
        gaps, gens, minimal = stack.pop()
        _reach_limit(gens[0], gens[-1])
        out.append(NumericalSemigroup(gens, gaps, minimal))
        if len(out) > MAX_OVERSEMIGROUPS:
            raise UnsupportedRealization(
                f"{sgp} has more than {MAX_OVERSEMIGROUPS} oversemigroups")
        filled = root & ~gaps
        top = (filled & -filled).bit_length() - 1 if filled else frob + 1
        members = positive & ~gaps
        for g in _bits(root & (1 << top) - 1):
            if not gaps >> 2 * g & 1 and not members << g & gaps:
                child = gaps & ~(1 << g)
                i = bisect(gens, g)
                stack.append((child, gens[:i] + (g,) + gens[i:],
                              minimal & ~((reach & ~child) << g) | 1 << g))
    out.sort(key=lambda s: (-len(s.gaps), s.gaps))
    return out


def ideal_antichains(sgp: NumericalSemigroup, bound: int):
    """The generators of each proper nonzero ideal with minimum m <= bound:
    its minimal elements under x <= y iff y - x in `sgp`, an antichain in
    [m, m + F].  An antichain is extended by the members in [1, bound + F]
    above its last element outside the OR of its members' moved member
    masks, so the walk's cost follows the number of ideals."""
    universe = sgp.span(0, bound + max(sgp.frobenius, 0) + 1) & -2
    members = ~sgp.gap_mask
    stack = [((n,), members << n) for n in _bits(universe & (2 << bound) - 1)]
    while stack:
        gens, covered = stack.pop()
        yield gens
        for y in _bits(universe & ~covered & -(2 << gens[-1])):
            stack.append((gens + (y,), covered | members << y))


@lru_cache(maxsize=512)
def cached_semigroup(generators: tuple) -> NumericalSemigroup:
    return NumericalSemigroup(generators)
