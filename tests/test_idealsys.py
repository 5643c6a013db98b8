import itertools
import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import idealsys
from monoid_spectra.idealsys import (IdealRead, RIdeal, check_ideal_axioms,
                                     enumerate_ideals, enumerate_primes,
                                     s_system, spec_subbasis)
from monoid_spectra.errors import UnsupportedRealization
from monoid_spectra.monoid import INF, Monoid, monoid_from_file, sort_key
from oracles import (all_pairs_is_prime, cyclic_group_with_zero, equals,
                     is_prime, rule_system)


def o_set(a, b, ideals, H):
    """O_{a,b}: the ideals that avoid a and b but contain ab; no prime lies
    in any O_{a,b}."""
    ab = H.op(a, b)
    return [I for I in ideals
            if not I.contains(a) and not I.contains(b) and I.contains(ab)]


def test_s_closure_matches_brute_force_numerical():
    # XH computed by literal products, on a window big enough that every
    # membership question below 20 is settled by a product below 40
    H = Monoid.numerical([2, 3])
    r = s_system(H)
    hs = [n for n in range(41) if H.contains(n)]
    for X in [frozenset(), frozenset({2}), frozenset({3}), frozenset({2, 3}),
              frozenset({5, 7})]:
        pred = r.closure(X)
        brute = {INF} | {x + h for x in X for h in hs}
        for g in list(range(20)) + [INF]:
            assert pred(g) == (g is INF or g in brute), (X, g)


def test_s_closure_matches_brute_force_affine():
    H = Monoid.affine([[1, 0], [0, 1]])
    r = s_system(H)
    pred = r.closure(frozenset({(1, 1)}))
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert pred((a, b)) == (a >= 1 and b >= 1), (a, b)
    assert pred(INF)
    empty = r.closure(frozenset())
    assert empty(INF) and not empty((0, 0))


def test_empty_closure_is_zero_ideal():
    H = Monoid.numerical([2, 3])
    pred = s_system(H).closure(frozenset())
    assert pred(INF)
    assert not any(pred(n) for n in range(0, 10))


def test_axioms_pass_for_s_system():
    for H in [Monoid.numerical([2, 3]), Monoid.affine([[1, 0], [0, 1]]),
              cyclic_group_with_zero(3)]:
        checks = check_ideal_axioms(s_system(H), H, bound=4)
        assert all(c.ok for c in checks), [(c.name, c.witness) for c in checks]


def test_axioms_catch_a_broken_system():
    from monoid_spectra.idealsys import IdealSystem
    H = Monoid.numerical([2, 3])

    def bad_closure(X):
        return lambda g: g in X  # drops the zero and all products

    r = rule_system(IdealSystem, "bad", H, bad_closure)
    checks = check_ideal_axioms(r, H, bound=6)
    by_name = {c.name: c for c in checks}
    assert not by_name["Id1"].ok
    assert by_name["Id1"].witness is not None


def test_enumerated_primes_match_windowed_primality_oracle():
    H = Monoid.numerical([2, 3])
    r = s_system(H)
    primes = enumerate_primes(H)
    assert sorted(p.name for p in primes) == ["P_max", "P_zero"]
    assert all(isinstance(p, RIdeal) for p in primes)
    window = H.context.window(10)
    ideals = enumerate_ideals(H, r, bound=6)
    for I in ideals:
        oracle = all_pairs_is_prime(I, window)
        assert is_prime(I, window) == oracle, I
        listed = any(equals(p, I) for p in primes)
        if oracle:
            assert listed, (I, "prime but not enumerated")
        # non-primes on the real window may still look prime on a small one;
        # enumerated primes must be genuinely prime
    for p in primes:
        assert all_pairs_is_prime(p, window)


DATA = os.path.join(os.path.dirname(__file__), "data")


def data_monoids():
    """The monoids of tests/data (the files that carry "kind")."""
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            if "kind" in json.load(fh):
                yield pytest.param(monoid_from_file(os.path.join(DATA, name)),
                                   id=name)


def generator_subset_primes(H, window):
    """The distinct primes among the (gens minus F) H, F over the subsets of
    H's generators, by `is_prime` on the window: every prime is generated by
    the generators it contains."""
    r = s_system(H)
    found = []
    for k in range(len(H.generators) + 1):
        for F in itertools.combinations(H.generators, k):
            I = RIdeal(r, [g for g in H.generators if g not in F])
            if is_prime(I, window) and not any(equals(I, J) for J in found):
                found.append(I)
    return found


@pytest.mark.parametrize("H", [
    *data_monoids(),
    pytest.param(Monoid.affine([[2], [3]]), id="dim1-2,3"),
    pytest.param(Monoid.affine([[-2], [-3]]), id="dim1--2,-3"),
    pytest.param(Monoid.affine([[2], [-3]]), id="dim1-2,-3")])
def test_enumerate_primes_matches_the_generator_subset_oracle(H):
    small = H.kind == "affine" and H.dim == 2
    primes = enumerate_primes(H)
    found = generator_subset_primes(H, H.context.window(6 if small else 60))
    assert len(primes) == len(found), (primes, found)
    assert all(any(equals(p, q) for q in found) for p in primes), \
        (primes, found)
    # the face lemma: a nonzero generator lies outside a prime exactly when
    # it is none of the prime's generators, as a face holds the summands of
    # its points, so the spectrum's profiles could be read without a closure
    zero = H.context.zero
    assert all((g != zero and g not in p.generators) == (not p.contains(g))
               for p in primes for g in H.generators)


def prime_recheck_cases(H):
    """(ideals, window) pairs: every listed ideal of a numerical or finite H
    at bound 6 on windows 10 and 20, and (gens minus F) H for every subset F
    of H's generators, on window 4 for an affine H."""
    r = s_system(H)
    subset_ideals = [RIdeal(r, [g for g in H.generators if g not in F])
                     for k in range(len(H.generators) + 1)
                     for F in itertools.combinations(H.generators, k)]
    if H.kind == "affine":
        return [(subset_ideals, H.context.window(4))]
    ideals = enumerate_ideals(H, r, bound=6)
    if H.kind == "finite":
        ideals += subset_ideals
    return [(ideals, H.context.window(w)) for w in (10, 20)]


@pytest.mark.parametrize("H", list(data_monoids()))
def test_is_prime_matches_the_all_pairs_loop(H):
    # the masked prime flags, on Box and Table alike, against the pointwise
    # oracle and the literal loop over ordered pairs
    groups = prime_recheck_cases(H)
    cases = [(I, window) for ideals, window in groups for I in ideals]
    verdicts = [is_prime(I, window) for I, window in cases]
    assert verdicts == [all_pairs_is_prime(I, window) for I, window in cases]
    assert verdicts == [flag for ideals, window in groups
                        for flag in IdealRead(ideals, window).prime_flags()]
    if H.kind != "affine":
        assert True in verdicts and False in verdicts


def test_affine_primes_one_per_face():
    H = Monoid.affine([[1, 0], [0, 1]])
    primes = enumerate_primes(H)
    names = sorted(p.name for p in primes)
    assert "P_max" in names and "P_zero" in names
    assert len(primes) == 4  # zero, two facets, maximal
    assert all(isinstance(p, RIdeal) for p in primes)
    half = Monoid.affine([[1, 0], [-1, 0], [0, 1]])
    primes2 = enumerate_primes(half)
    assert len(primes2) == 2
    # dim 1: a ray has the zero and the maximal ideal, a line only the zero
    for gens, names in (([[-2], [-3]], ["P_max", "P_zero"]),
                        ([[2], [-3]], ["P_zero"])):
        assert sorted(p.name for p in enumerate_primes(Monoid.affine(gens))) \
            == names, gens


def test_finite_primes():
    H = cyclic_group_with_zero(3)
    primes = enumerate_primes(H)
    assert len(primes) == 1 and primes[0].name == "P_zero"
    assert isinstance(primes[0], RIdeal)
    # the only prime is {zero}
    assert primes[0].contains(H.zero)
    assert not primes[0].contains(1)


def test_enumerate_ideals_distinct_and_bounded():
    H = Monoid.numerical([2, 3])
    r = s_system(H)
    ideals = enumerate_ideals(H, r, bound=6)
    # pairwise distinct
    assert not any(equals(I, J) for I, J in itertools.combinations(ideals, 2))
    # the zero ideal and the improper ideal are present
    assert any(not any(I.contains(n) for n in range(0, 20)) for I in ideals)
    assert any(I.contains(0) for I in ideals)
    with pytest.raises(UnsupportedRealization):
        enumerate_ideals(Monoid.affine([[1, 0], [0, 1]]), r, bound=3)


def test_o_sets_avoid_primes():
    H = Monoid.numerical([2, 3])
    r = s_system(H)
    ideals = enumerate_ideals(H, r, bound=6)
    window = H.context.window(10)
    prime = dict(zip(ideals, IdealRead(ideals, window).prime_flags()))
    members = [g for g in window if H.contains(g) and g is not INF]
    hit_any = False
    for a in members:
        for b in members:
            O = o_set(a, b, ideals, H)
            hit_any = hit_any or bool(O)
            for I in O:
                assert not prime[I], (a, b, I)
    assert hit_any  # some non-prime is actually flagged


def test_spec_subbasis_is_t0_sierpinski():
    H = Monoid.numerical([2, 3])
    primes = enumerate_primes(H)
    space = spec_subbasis(H, primes)
    assert space.is_t0()
    # P_zero specializes to nothing above it except via closure of P_zero
    i_zero = space.labels.index("P_zero")
    i_max = space.labels.index("P_max")
    assert space.leq(i_zero, i_max)  # P_max lies in the closure of P_zero
    assert not space.leq(i_max, i_zero)


def test_ideal_space_separates_and_limits_are_principal():
    H = Monoid.numerical([2, 3])
    r = s_system(H)
    ideals = enumerate_ideals(H, r, bound=6)
    space = IdealRead(ideals, H.context.window(6)).space()
    # each ideal is its own unique principal limit: no other point shares
    # its profile
    assert space.is_t0()
    assert space.labels == [repr(I) for I in ideals]


def signature_window(H, bound):
    """Window on which distinct s-ideals of a numerical H with minimum <=
    bound differ: such an ideal is pinned down by its elements up to
    bound + 2 * Frobenius + max generator."""
    frob = max(H.sgp.frobenius, 0)
    ext = bound + 2 * frob + max(H.generators) + 2
    return [n for n in range(ext + 1) if H.sgp.contains(n)] + [INF]


def brute_enumerate_ideals(H, r, bound):
    """The reference enumerator for numerical H: every generator subset of
    S cap [1, bound + Frobenius] with minimum <= bound, deduplicated by the
    signature window, first hit kept."""
    frob = max(H.sgp.frobenius, 0)
    universe = [n for n in range(1, bound + frob + 1) if H.sgp.contains(n)]
    sig_window = signature_window(H, bound)
    seen = {}
    out = []

    def add(ideal):
        sig = frozenset(x for x in sig_window if ideal.contains(x))
        key = (sig, ideal.contains(INF))
        if key not in seen:
            seen[key] = ideal
            out.append(ideal)

    add(RIdeal(r, ()))
    add(RIdeal(r, (H.one,)))
    for n in range(1, len(universe) + 1):
        for comb in itertools.combinations(universe, n):
            if min(comb) > bound:
                continue
            add(RIdeal(r, comb))
    out.sort(key=lambda I: tuple(sort_key(g) for g in I.generators))
    return out


def assert_matches_oracle(H, bound):
    r = s_system(H)
    assert ([repr(I) for I in enumerate_ideals(H, r, bound)]
            == [repr(I) for I in brute_enumerate_ideals(H, r, bound)]), \
        (H, bound)


def numerical_monoids(max_conductor):
    """Every numerical monoid with conductor <= max_conductor: a set of
    elements below the conductor c plus the generators c, ..., 2c - 1."""
    return st.integers(1, max_conductor).flatmap(lambda c: st.builds(
        lambda below: Monoid.numerical(sorted(below) + list(range(c, 2 * c))),
        st.sets(st.integers(1, c - 1) if c > 1 else st.nothing())))


@settings(max_examples=60, deadline=None)
@given(numerical_monoids(7), st.integers(0, 10))
def test_enumerate_ideals_matches_subset_oracle(H, bound):
    assert_matches_oracle(H, bound)


def test_enumerate_ideals_of_larger_semigroups_match_the_oracle():
    for gens, bound in [((4, 6, 9), 10), ((5, 7, 9), 6), ((3, 5, 7), 10)]:
        assert_matches_oracle(Monoid.numerical(gens), bound)


def test_enumerate_ideals_guard(monkeypatch):
    H = Monoid.numerical([2, 3])
    r = s_system(H)
    count = len(enumerate_ideals(H, r, bound=6))
    monkeypatch.setattr(idealsys, "MAX_IDEALS", count)
    assert len(enumerate_ideals(H, r, bound=6)) == count
    with pytest.raises(UnsupportedRealization):
        enumerate_ideals(H, r, bound=7)


def assert_primes_distinct(H):
    primes = enumerate_primes(H)
    assert not any(equals(p, q) for p, q in itertools.combinations(primes, 2))
    assert len({p.name for p in primes}) == len(primes), primes


@pytest.mark.parametrize("H", list(data_monoids()))
def test_enumerated_primes_are_pairwise_distinct(H):
    """Distinct faces give distinct primes, with no dedupe: a generator on
    one face and off the other lies outside the first prime and inside the
    second."""
    assert_primes_distinct(H)


LINES = [(1, 0), (0, 1), (1, 1), (2, -1)]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.one_of(
    numerical_monoids(7),
    # dim 1, a line of the plane, and the plane: rank 1 and 2
    st.lists(st.integers(-6, 6), min_size=1, max_size=4).map(
        lambda gens: Monoid.affine([[g] for g in gens])),
    st.tuples(st.sampled_from(LINES), st.lists(
        st.integers(-3, 3), min_size=1, max_size=3)).map(
        lambda t: Monoid.affine([[k * t[0][0], k * t[0][1]] for k in t[1]])),
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
             min_size=1, max_size=4).map(Monoid.affine)))
def test_generated_primes_are_pairwise_distinct(H):
    assert_primes_distinct(H)
