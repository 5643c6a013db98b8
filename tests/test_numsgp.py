import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import intgeom, numsgp
from monoid_spectra.errors import UnsupportedRealization
from monoid_spectra.idealsys import IdealRead, enumerate_ideals, s_system
from monoid_spectra.layout import Box
from monoid_spectra.monoid import Monoid, monoid_from_file
from monoid_spectra.numsgp import NumericalSemigroup, oversemigroups
from monoid_spectra.valuation import (WindowRead, enumerate_overmonoids,
                                      enumerate_zar)
from oracles import (all_pairs_is_prime, minimal_generators_pointwise,
                     oversemigroup_gaps_by_sets, reach_table_gaps)

DATA = os.path.join(os.path.dirname(__file__), "data")
NUMERICAL = ["n23", "n345", "n469", "n579", "n71113", "n81113"]


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
    base = {n for n in range(frob + 1) if sgp.contains(n)}
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


def test_oversemigroups_refuse_a_node_past_the_reach_guard():
    # <47,48> fits the reach table; its first child, with 2161 adjoined,
    # does not, and is refused before the walk goes on
    with pytest.raises(UnsupportedRealization,
                       match="numerical semigroup too large: generators 47 "
                             "and 2161"):
        oversemigroups(NumericalSemigroup((47, 48)))


@pytest.mark.parametrize("gens", [(2, 3), (3, 4, 5), (4, 6, 9), (5, 7, 9),
                                  (7, 11, 13), (8, 11, 13), (11, 12)])
def test_the_walk_carries_minimal_generators(gens):
    """Each oversemigroup's minimal generators, carried down the walk from
    its parent's, are the ones its gap mask gives, on the numerical inputs
    of tests/data and on <11,12> (8 194 oversemigroups); on the smaller
    walks also the ones asked member by member."""
    over = oversemigroups(NumericalSemigroup(gens))
    for node in over:
        assert node.minimal_generators() == NumericalSemigroup(
            node.generators, node.gap_mask).minimal_generators(), node
    if len(over) < 1000:
        for node in over:
            assert node.minimal_generators() == \
                minimal_generators_pointwise(node), node


def agrees_with_the_reach_table(sgp):
    """Each oversemigroup, built by the walk from its gaps, is the semigroup
    the reach table gives for its generators; each enumerated overmonoid's
    rule is the carrier's submonoid test for its generators."""
    for node in oversemigroups(sgp):
        table = NumericalSemigroup(node.generators)
        assert (node.gaps, node.frobenius, node.conductor,
                node.minimal_generators()) == (
            table.gaps, table.frobenius, table.conductor,
            table.minimal_generators()), node
        span = range(-1, node.frobenius + node.generators[0] + 2)
        assert ([node.contains(n) for n in span]
                == [table.contains(n) for n in span]), node
    F = sgp.frobenius
    for S in enumerate_overmonoids(Monoid.numerical(sgp.generators)):
        member = intgeom.submonoid_1d(S.gens)
        assert ([S.has(n) for n in range(-2 * F - 2, 2 * F + 3)]
                == [bool(member(n)) for n in range(-2 * F - 2, 2 * F + 3)]), S


@settings(max_examples=100, deadline=None)
@given(small_semigroups(13))
def test_gap_built_oversemigroups_match_the_reach_table(s):
    agrees_with_the_reach_table(s)


@pytest.mark.parametrize("name", NUMERICAL)
def test_gap_built_oversemigroups_of_the_inputs_match_the_reach_table(name):
    agrees_with_the_reach_table(
        monoid_from_file(os.path.join(DATA, name + ".json")).sgp)


# -- the gap masks against the pointwise numerical layer ---------------------

def read_on_cells(box, member):
    """A predicate's members on the cells of a box, one ask per cell."""
    return sum(1 << b for b, g in box.cells() if member(g))


def agrees_with_the_pointwise_layer(sgp, bound):
    """Gaps, Frobenius number, minimal generators and the oversemigroup list
    against the reach table, the member-by-member sums and the set-based
    walk; each overmonoid's span, the Zar members V(N) and V(Z) included,
    against `has` and its generators' monoid on an int box from below 0 to
    past the conductor;
    and each listed s-ideal's mask and prime flag on pronconst's window
    against RIdeal.contains and the all-pairs loop."""
    gens = sgp.generators
    assert sgp.gaps == reach_table_gaps(gens)
    assert sgp.frobenius == (sgp.gaps[-1] if sgp.gaps else -1)
    assert sgp.minimal_generators() == minimal_generators_pointwise(sgp)
    over = oversemigroups(sgp)
    assert [t.gaps for t in over] == oversemigroup_gaps_by_sets(sgp)
    assert ([t.minimal_generators() for t in over]
            == [minimal_generators_pointwise(t) for t in over])
    H = Monoid.numerical(gens)
    ctx = H.context
    box = Box(ctx, 0, -bound - 1, 1, sgp.conductor + 2 * bound + 3)
    for S in [H, *enumerate_overmonoids(H),
              *enumerate_zar(WindowRead(H, bound))]:
        mask = S.span_mask(box)
        assert mask == read_on_cells(box, S.has), S
        if S.gens is not None:
            member = intgeom.submonoid_1d(S.gens)
            assert mask == read_on_cells(box, member), S
    ideals = enumerate_ideals(H, s_system(H), bound)
    window = ctx.window(2 * bound)
    read = IdealRead(ideals, window)
    points = read.read
    for I, m in zip(ideals, read.masks):
        assert m == sum(1 << points.bit(g) for g in points.points
                        if I.contains(g)), I
    assert read.prime_flags() == [all_pairs_is_prime(I, window)
                                  for I in ideals]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.one_of(small_semigroups(13), st.sampled_from(NUMERICAL).map(
    lambda name: monoid_from_file(os.path.join(DATA, name + ".json")).sgp)),
    st.integers(1, 12))
def test_gap_masks_match_the_pointwise_layer(sgp, bound):
    agrees_with_the_pointwise_layer(sgp, bound)


@pytest.mark.parametrize("name", NUMERICAL)
def test_gap_masks_of_the_inputs_match_the_pointwise_layer(name):
    sgp = monoid_from_file(os.path.join(DATA, name + ".json")).sgp
    for bound in range(1, 13):
        agrees_with_the_pointwise_layer(sgp, bound)
