import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import numsgp
from monoid_spectra.errors import UnsupportedRealization
from monoid_spectra.numsgp import NumericalSemigroup, oversemigroups


def brute_members(gens, bound):
    # sums of generators by saturation, no clever bounds
    reach = {0}
    changed = True
    while changed:
        changed = False
        for r in list(reach):
            for g in gens:
                s = r + g
                if s <= bound and s not in reach:
                    reach.add(s)
                    changed = True
    return reach


@pytest.mark.parametrize("gens,frob,gaps", [
    ((2, 3), 1, (1,)),
    ((3, 4, 5), 2, (1, 2)),
    ((3, 5), 7, (1, 2, 4, 7)),
    ((4, 6, 9), 11, (1, 2, 3, 5, 7, 11)),
    ((1,), -1, ()),
])
def test_known_gaps_and_frobenius(gens, frob, gaps):
    s = NumericalSemigroup(gens)
    assert s.frobenius == frob
    assert s.gaps == gaps
    assert s.conductor == frob + 1


def test_membership_matches_brute_force():
    for gens in [(2, 3), (3, 5), (4, 6, 9), (5, 7, 9, 11)]:
        s = NumericalSemigroup(gens)
        bound = s.frobenius + max(gens) + 5
        reach = brute_members(gens, bound)
        for n in range(bound + 1):
            assert s.contains(n) == (n in reach), (gens, n)
        assert not s.contains(-1)


def test_minimal_generators():
    assert NumericalSemigroup((2, 3, 4, 5)).minimal_generators() == (2, 3)
    assert NumericalSemigroup((3, 4, 5)).minimal_generators() == (3, 4, 5)
    assert NumericalSemigroup((4, 6, 9)).minimal_generators() == (4, 6, 9)
    assert NumericalSemigroup((1, 7)).minimal_generators() == (1,)


def test_rejects_bad_generators():
    with pytest.raises(ValueError):
        NumericalSemigroup((2, 4))
    with pytest.raises(ValueError):
        NumericalSemigroup((0, 3))
    with pytest.raises(ValueError):
        NumericalSemigroup(())


def test_oversemigroups_of_2_3():
    s = NumericalSemigroup((2, 3))
    over = oversemigroups(s)
    assert len(over) == 2
    assert s in over
    assert NumericalSemigroup((1,)) in over


def test_oversemigroups_of_3_4_5():
    s = NumericalSemigroup((3, 4, 5))
    over = oversemigroups(s)
    assert len(over) == 3
    assert {o.gaps for o in over} == {(1, 2), (1,), ()}


def test_oversemigroups_are_closed_and_contain_base():
    s = NumericalSemigroup((3, 5))
    over = oversemigroups(s)
    bound = s.frobenius + 10
    for o in over:
        members = [n for n in range(bound + 1) if o.contains(n)]
        for a, b in itertools.combinations_with_replacement(members, 2):
            if a + b <= bound:
                assert o.contains(a + b), (o, a, b)
        for n in members:
            if s.contains(n):
                continue
        for n in range(bound + 1):
            if s.contains(n):
                assert o.contains(n), (o, n)


def test_oversemigroup_count_matches_gap_subset_filter():
    # literal recount: every subset of the gap set whose fill is additively
    # closed yields exactly one oversemigroup
    s = NumericalSemigroup((4, 6, 9))
    gaps = s.gaps
    frob = s.frobenius
    base = set(n for n in range(frob + 1) if s.contains(n))
    count = 0
    for r in range(len(gaps) + 1):
        for sub in itertools.combinations(gaps, r):
            elems = base | set(sub)
            pos = sorted(e for e in elems if e > 0)
            if all(a + b > frob or a + b in elems
                   for a in pos for b in pos if a <= b):
                count += 1
    assert count == len(oversemigroups(s))


def brute_oversemigroups(sgp):
    """The reference enumerator: fill every subset of the gap set and keep
    the additively closed fills (2^gaps masks)."""
    gaps = sgp.gaps
    if not gaps:
        return [sgp]
    frob = sgp.frobenius
    base = set(sgp.elements_upto(frob))
    out = []
    for mask in range(1 << len(gaps)):
        filled = {gaps[i] for i in range(len(gaps)) if mask >> i & 1}
        elems = base | filled
        small = sorted(e for e in elems if e > 0)
        closed = all(
            (a + b) > frob or (a + b) in elems for a in small for b in small if a <= b
        )
        if not closed:
            continue
        out.append(NumericalSemigroup(sorted(set(sgp.generators) | filled)))
    return sorted(set(out), key=lambda s: (-len(s.gaps), s.gaps))


def small_semigroups(max_conductor):
    """Every numerical semigroup with conductor <= max_conductor: a set of
    elements below the conductor c plus the generators c, ..., 2c - 1."""
    return st.integers(1, max_conductor).flatmap(lambda c: st.builds(
        lambda below: NumericalSemigroup(sorted(below) + list(range(c, 2 * c))),
        st.sets(st.integers(1, c - 1) if c > 1 else st.nothing())))


@settings(max_examples=200, deadline=None)
@given(small_semigroups(13))
def test_oversemigroups_match_gap_subset_oracle(s):
    assert ([repr(t) for t in oversemigroups(s)]
            == [repr(t) for t in brute_oversemigroups(s)])


def test_oversemigroups_of_larger_semigroups_match_the_oracle():
    for gens in [(4, 6, 9), (5, 7, 9), (6, 7, 8, 9, 10), (7, 11, 13)]:
        s = NumericalSemigroup(gens)
        assert ([repr(t) for t in oversemigroups(s)]
                == [repr(t) for t in brute_oversemigroups(s)]), gens


def test_size_guards(monkeypatch):
    with pytest.raises(UnsupportedRealization):
        NumericalSemigroup((1009, 1013))
    monkeypatch.setattr(numsgp, "MAX_OVERSEMIGROUPS", 3)
    assert len(oversemigroups(NumericalSemigroup((3, 4, 5)))) == 3
    with pytest.raises(UnsupportedRealization):
        oversemigroups(NumericalSemigroup((3, 5)))  # has 5
