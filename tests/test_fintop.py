import itertools
import random

import pytest

from monoid_spectra.cli import _t0_check
from monoid_spectra.fintop import (FiniteSpace, hasse_edges, homeomorphic,
                                   poset_dot, subbasis_space)
from monoid_spectra.monoid import Monoid
from monoid_spectra.valuation import enumerate_zar, overmonoid_space
from oracles import (all_topologies, brute_force_homeomorphic, full_mask,
                     opens, sober_bruteforce)


def sierpinski():
    # {1} open, {0} not
    return FiniteSpace(["generic", "closed"], [frozenset({1})])


def discrete(n):
    return FiniteSpace([str(i) for i in range(n)],
                       [frozenset({i}) for i in range(n)])


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
        sp = FiniteSpace([str(i) for i in range(n)], sub)
        topology = opens(sp)
        assert 0 in topology and full_mask(sp) in topology
        for a in topology:
            for b in topology:
                assert (a | b) in topology
                assert (a & b) in topology


def test_carrier_guard():
    n = 21
    with pytest.raises(ValueError):
        opens(FiniteSpace([str(i) for i in range(n)],
                          [frozenset({i}) for i in range(n)]))


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
        sp = FiniteSpace([str(i) for i in range(n)], sub)
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
        spaces.append(FiniteSpace([str(i) for i in range(n)], sub))
    for a, b in itertools.product(spaces, repeat=2):
        if a.n != b.n:
            continue
        maps = list(itertools.permutations(range(a.n)))
        maps += [[rng.randrange(a.n) for _ in range(a.n)] for _ in range(20)]
        for f in maps:
            assert (homeomorphic(a, b, f) is None) == \
                brute_force_homeomorphic(a, b, f), (a.subbasis, b.subbasis, f)


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
    indiscrete = FiniteSpace(["a", "b"], [])
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
        spaces.append(FiniteSpace([str(i) for i in range(n)], sub))
    return spaces


def test_profile_reads_agree_with_opens_and_subbasis():
    for sp in small_spaces():
        topology = opens(sp)
        for x in range(sp.n):
            # the closure of {x}: points every open around which holds x
            closure = {y for y in range(sp.n)
                       if all(o >> x & 1 for o in topology if o >> y & 1)}
            assert {y for y in range(sp.n) if sp.leq(x, y)} == closure
            same = {y for y in range(sp.n)
                    if all((y in S) == (x in S) for S in sp.subbasis)}
            for y in range(sp.n):
                # the first open holding exactly one of x and y, from the
                # profiles
                diff = sp.profiles[x] ^ sp.profiles[y]
                k = (diff & -diff).bit_length() - 1 if diff else None
                assert (k is None) == (y in same)
                if k is not None:
                    assert (x in sp.subbasis[k]) != (y in sp.subbasis[k])
                    assert all((x in S) == (y in S) for S in sp.subbasis[:k])


def test_subbasis_space_evaluates_each_membership_once():
    calls = []

    def inside(p, o):
        calls.append((p, o))
        return p % o == 0

    sp = subbasis_space(["2", "3", "6"], [2, 3, 6], [2, 3], inside)
    assert sorted(calls) == sorted((p, o) for p in (2, 3, 6) for o in (2, 3))
    assert sp.subbasis == [{0, 2}, {1, 2}]
    assert sp.profiles == [0b01, 0b10, 0b11]


def test_shared_profile_fails_the_t0_check():
    H = Monoid.numerical([2, 3])
    N, Z = enumerate_zar(H)
    ok = _t0_check(overmonoid_space([N, Z], H.context), 6)
    assert ok.ok and ok.n == 2
    # a duplicated carrier member shares its profile with the original, so
    # its principal limit holds both copies
    check = _t0_check(overmonoid_space([N, Z, N], H.context), 6)
    assert (check.name, check.ok, check.n) == ("t0", False, 3)
    assert check.witness == {"profiles": "coincide"}
