import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import idealsys
from monoid_spectra.idealsys import (RIdeal, check_ideal_axioms,
                                     enumerate_ideals, enumerate_primes,
                                     ideal_space_subbasis,
                                     is_prime, o_set, s_system,
                                     signature_window, spec_subbasis)
from monoid_spectra.intgeom import UnsupportedRealization
from monoid_spectra.monoid import INF, Monoid, sort_key


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
              Monoid.cyclic_group_with_zero(3)]:
        checks = check_ideal_axioms(s_system(H), H, bound=4)
        assert all(c.ok for c in checks), [(c.name, c.witness) for c in checks]


def test_axioms_catch_a_broken_system():
    from monoid_spectra.idealsys import IdealSystem
    H = Monoid.numerical([2, 3])

    def bad_closure(X):
        return lambda g: g in X  # drops the zero and all products

    r = IdealSystem("bad", H, bad_closure)
    checks = check_ideal_axioms(r, H, bound=6)
    by_name = {c.name: c for c in checks}
    assert not by_name["Id1"].ok
    assert by_name["Id1"].witness is not None


def brute_prime_window(I, H, window):
    members = [g for g in window if H.contains(g)]
    if I.contains(H.one):
        return False
    for a in members:
        for b in members:
            if not I.contains(a) and not I.contains(b) and I.contains(H.op(a, b)):
                return False
    return True


def test_enumerated_primes_match_windowed_primality_oracle():
    H = Monoid.numerical([2, 3])
    r = s_system(H)
    primes = enumerate_primes(H, bound=10)
    assert sorted(p.name for p in primes) == ["P_max", "P_zero"]
    assert all(isinstance(p, RIdeal) for p in primes)
    window = H.context.window(10)
    ideals = enumerate_ideals(H, r, bound=6)
    sig = signature_window(H, 6)
    for I in ideals:
        oracle = brute_prime_window(I, H, window)
        assert is_prime(I, window) == oracle, I
        listed = any(p.equals(I) for p in primes)
        if oracle:
            assert listed, (I, "prime but not enumerated")
        # non-primes on the real window may still look prime on a small one;
        # enumerated primes must be genuinely prime
    for p in primes:
        assert brute_prime_window(p, H, window)


def test_affine_primes_one_per_face():
    H = Monoid.affine([[1, 0], [0, 1]])
    primes = enumerate_primes(H, bound=4)
    names = sorted(p.name for p in primes)
    assert "P_max" in names and "P_zero" in names
    assert len(primes) == 4  # zero, two facets, maximal
    assert all(isinstance(p, RIdeal) for p in primes)
    half = Monoid.affine([[1, 0], [-1, 0], [0, 1]])
    primes2 = enumerate_primes(half, bound=4)
    assert len(primes2) == 2


def test_finite_primes():
    H = Monoid.cyclic_group_with_zero(3)
    primes = enumerate_primes(H, bound=3)
    assert len(primes) == 1 and primes[0].name == "P_zero"
    assert isinstance(primes[0], RIdeal)
    # the only prime is {zero}
    assert primes[0].contains(H.zero)
    assert not primes[0].contains(1)


def test_enumerate_ideals_distinct_and_bounded():
    H = Monoid.numerical([2, 3])
    r = s_system(H)
    ideals = enumerate_ideals(H, r, bound=6)
    sig = signature_window(H, 6)
    # pairwise distinct on the signature window
    profiles = [frozenset(x for x in sig if I.contains(x)) for I in ideals]
    assert len(set(profiles)) == len(profiles)
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
    members = [g for g in window if H.contains(g) and g is not INF]
    hit_any = False
    for a in members:
        for b in members:
            O = o_set(a, b, ideals, H)
            hit_any = hit_any or bool(O)
            for I in O:
                assert not is_prime(I, window), (a, b, I)
    assert hit_any  # some non-prime is actually flagged


def test_spec_subbasis_is_t0_sierpinski():
    H = Monoid.numerical([2, 3])
    primes = enumerate_primes(H, bound=10)
    space = spec_subbasis(H, primes, bound=10)
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
    space = ideal_space_subbasis(ideals, H, bound=6)
    # each ideal is its own unique principal limit: no other point shares
    # its profile
    assert space.is_t0()
    assert space.labels == [repr(I) for I in ideals]


def brute_enumerate_ideals(H, r, bound):
    """The reference enumerator for numerical H: every generator subset of
    S cap [1, bound + Frobenius] with minimum <= bound, deduplicated by the
    signature window, first hit kept."""
    frob = max(H.sgp.frobenius, 0)
    universe = [n for n in H.sgp.elements_upto(bound + frob) if n > 0]
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
