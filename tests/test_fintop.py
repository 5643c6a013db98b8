import itertools
import random

import pytest

from monoid_spectra.cli import _t0_check
from monoid_spectra.fintop import (FiniteSpace, hasse_edges, homeomorphic,
                                   poset_dot)
from monoid_spectra.idealsys import (IdealRead, enumerate_ideals,
                                     enumerate_primes, s_system,
                                     spec_subbasis)
from monoid_spectra.monoid import Monoid
from monoid_spectra.valuation import (WindowRead, enumerate_zar,
                                      overmonoid_space)
from oracles import (all_topologies, brute_force_homeomorphic, full_mask,
                     hasse_edges_cubic, opens, sets_space, sober_bruteforce,
                     subbasis, subbasis_space)


def sierpinski():
    # {1} open, {0} not
    return FiniteSpace(["generic", "closed"], [0b0, 0b1])


def discrete(n):
    return sets_space(n, [frozenset({i}) for i in range(n)])


def test_sierpinski_basics():
    s = sierpinski()
    assert s.is_t0() and sober_bruteforce(s)
    assert opens(s) == {0b00, 0b10, 0b11}
    assert s.leq(1, 0)  # closure of the generic point is everything
    assert not s.leq(0, 1)


def test_discrete_space():
    d = discrete(3)
    assert len(opens(d)) == 8
    assert hasse_edges(d) == []


def test_opens_closed_under_union_and_intersection():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        sub = [frozenset(i for i in range(n) if rng.random() < 0.5)
               for _ in range(rng.randint(0, 4))]
        sp = sets_space(n, sub)
        topology = opens(sp)
        assert 0 in topology and full_mask(sp) in topology
        for a in topology:
            for b in topology:
                assert (a | b) in topology
                assert (a & b) in topology


def test_carrier_guard():
    n = 21
    with pytest.raises(ValueError):
        opens(sets_space(n, [frozenset({i}) for i in range(n)]))


# On a finite space sober (and so spectral) is read from T0; these two tests
# check that reading against the definition.

def test_sober_agrees_with_bruteforce_on_all_3_point_topologies():
    spaces = all_topologies(3)
    assert len(spaces) == 29
    for sp in spaces:
        assert sp.is_t0() == sober_bruteforce(sp), sorted(opens(sp))
    assert sum(sp.is_t0() for sp in spaces) == 19


def test_sober_agrees_with_bruteforce_on_random_small_spaces():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(4, 5)
        sub = [frozenset(i for i in range(n) if rng.random() < 0.5)
               for _ in range(rng.randint(1, 5))]
        sp = sets_space(n, sub)
        assert sp.is_t0() == sober_bruteforce(sp), sorted(opens(sp))


def test_homeomorphic_agrees_with_bruteforce_on_all_3_point_topologies():
    # T0 or not, and every map of 3 points to 3 points, the non-bijections
    # included
    spaces = all_topologies(3)
    for a, b in itertools.product(spaces, repeat=2):
        for f in itertools.product(range(3), repeat=3):
            assert (homeomorphic(a, b, f) is None) == \
                brute_force_homeomorphic(a, b, f), (sorted(opens(a)),
                                                    sorted(opens(b)), f)


def test_homeomorphic_agrees_with_bruteforce_on_random_spaces():
    rng = random.Random(11)
    spaces = []
    for _ in range(12):
        n = rng.randint(4, 5)
        sub = [frozenset(i for i in range(n) if rng.random() < 0.5)
               for _ in range(rng.randint(1, 4))]
        spaces.append(sets_space(n, sub))
    for a, b in itertools.product(spaces, repeat=2):
        if a.n != b.n:
            continue
        maps = list(itertools.permutations(range(a.n)))
        maps += [[rng.randrange(a.n) for _ in range(a.n)] for _ in range(20)]
        for f in maps:
            assert (homeomorphic(a, b, f) is None) == \
                brute_force_homeomorphic(a, b, f), (a.profiles, b.profiles, f)


def test_homeomorphic_checks_the_given_map():
    s = sierpinski()
    assert homeomorphic(s, s, [0, 1]) is None
    # the spaces are homeomorphic, but swapping the points is not a
    # homeomorphism: the open point would go to the closed one
    assert homeomorphic(s, s, [1, 0]) == {"pair": "generic,closed"}
    assert not brute_force_homeomorphic(s, s, [1, 0])
    assert homeomorphic(s, s, [1, 1]) == {"repeated": "closed"}
    assert homeomorphic(s, discrete(3), [2, 0]) == {"missing": "1"}
    # non-T0 spaces are fixed by their preorder too
    indiscrete = FiniteSpace(["a", "b"], [0, 0])
    assert homeomorphic(indiscrete, indiscrete, [1, 0]) is None
    assert homeomorphic(indiscrete, s, [0, 1]) == {"pair": "a,b"}


def test_dot_and_dump_emission():
    dot = poset_dot(sierpinski())
    assert dot.startswith("digraph") and "->" in dot


def small_spaces():
    """Every topology on 3 points and 60 seeded random spaces of 4 or 5."""
    rng = random.Random(13)
    spaces = list(all_topologies(3))
    for _ in range(60):
        n = rng.randint(4, 5)
        sub = [frozenset(i for i in range(n) if rng.random() < 0.5)
               for _ in range(rng.randint(0, 5))]
        spaces.append(sets_space(n, sub))
    return spaces


def test_profile_reads_agree_with_opens_and_subbasis():
    for sp in small_spaces():
        topology = opens(sp)
        sub = subbasis(sp)
        for x in range(sp.n):
            # the closure of {x}: points every open around which holds x
            closure = {y for y in range(sp.n)
                       if all(o >> x & 1 for o in topology if o >> y & 1)}
            assert {y for y in range(sp.n) if sp.leq(x, y)} == closure
            same = {y for y in range(sp.n)
                    if all((y in S) == (x in S) for S in sub)}
            for y in range(sp.n):
                # the first open holding exactly one of x and y, from the
                # profiles
                diff = sp.profiles[x] ^ sp.profiles[y]
                k = (diff & -diff).bit_length() - 1 if diff else None
                assert (k is None) == (y in same)
                if k is not None:
                    assert (x in sub[k]) != (y in sub[k])
                    assert all((x in S) == (y in S) for S in sub[:k])


def test_subbasis_space_evaluates_each_membership_once():
    calls = []

    def inside(p, o):
        calls.append((p, o))
        return p % o == 0

    sp = subbasis_space(["2", "3", "6"], [2, 3, 6], [2, 3], inside)
    assert sorted(calls) == sorted((p, o) for p in (2, 3, 6) for o in (2, 3))
    assert subbasis(sp) == [{0, 2}, {1, 2}]
    assert sp.profiles == [0b01, 0b10, 0b11]
    assert subbasis(sp, [1, 5]) == [{1, 2}, set()]


def test_shared_profile_fails_the_t0_check():
    H = Monoid.numerical([2, 3])
    read = WindowRead(H, 6)
    N, Z = enumerate_zar(read)
    ok = _t0_check(overmonoid_space([N, Z], read), 6)
    assert ok.ok and ok.n == 2
    # a duplicated carrier member shares its profile with the original, so
    # its principal limit holds both copies
    check = _t0_check(overmonoid_space([N, Z, N], read), 6)
    assert (check.name, check.ok, check.n) == ("t0", False, 3)
    assert check.witness == {"profiles": "coincide"}


def suite_spaces():
    """Spaces the suites draw: ideal spaces on the integers, spec and Zar
    spaces in the plane, and a Zar carrier with a repeated member, which is
    not T0."""
    for gens, bound in (([2, 3], 10), ([5, 7, 9], 12), ([3, 4, 5], 8)):
        H = Monoid.numerical(gens)
        window = [g for g in H.context.window(bound) if H.contains(g)]
        yield IdealRead(enumerate_ideals(H, s_system(H), bound),
                        window).space()
    for gens in ([[1, 0], [0, 1]], [[1, 0], [0, 1], [0, -1]],
                 [[1, 1], [1, -1]], [[2, 0], [1, 1]]):
        H = Monoid.affine(gens)
        yield spec_subbasis(H, enumerate_primes(H))
        read = WindowRead(H, 2)
        yield overmonoid_space(enumerate_zar(read), read)
    read = WindowRead(Monoid.numerical([2, 3]), 6)
    N, Z = enumerate_zar(read)
    yield overmonoid_space([N, Z, N, Z, N], read)


def test_hasse_edges_match_the_cubic_oracle():
    """The int-row covers equal the definition's on every topology of up to
    4 points, on random subbases of 4 to 7 points (most of them not T0,
    so equal points sit between), and on spaces the suites build."""
    rng = random.Random(29)
    spaces = [sp for n in range(1, 5) for sp in all_topologies(n)]
    for _ in range(300):
        n = rng.randint(4, 7)
        spaces.append(sets_space(n, [
            frozenset(i for i in range(n) if rng.random() < 0.5)
            for _ in range(rng.randint(0, 6))]))
    spaces += suite_spaces()
    assert any(not sp.is_t0() for sp in spaces)
    assert max(sp.n for sp in spaces) > 80
    for sp in spaces:
        assert hasse_edges(sp) == hasse_edges_cubic(sp), sp


def test_reads_do_not_depend_on_the_bit_layout():
    """Any injective layout of the opens' bits gives the same space: the
    profiles spread out and reversed give the same order, T0 verdict and
    covers."""
    for sp in [*small_spaces(), *suite_spaces()]:
        width = max(sp.profiles, default=0).bit_length()
        moved = FiniteSpace(sp.labels, [
            sum(1 << 3 * (width - k) + 2 for k in range(width) if p >> k & 1)
            for p in sp.profiles])
        assert moved.is_t0() == sp.is_t0()
        assert hasse_edges(moved) == hasse_edges(sp)
        assert all(moved.leq(x, y) == sp.leq(x, y)
                   for x in range(sp.n) for y in range(sp.n))


def test_profiles_are_checked_once():
    with pytest.raises(ValueError):
        FiniteSpace(["a", "b"], [1])
    with pytest.raises(ValueError):
        FiniteSpace(["a"], [-1])
