import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import monoid
from monoid_spectra.errors import UnsupportedRealization
from monoid_spectra.intgeom import hnf_rows, lattice_contains
from monoid_spectra.monoid import (INF, IntCarrier, LatticeCarrier, Monoid,
                                   Overmonoid, ParseError, adjoin,
                                   as_overmonoid, fraction_ideal, localize,
                                   monoid_from_json)
from monoid_spectra.valuation import WindowRead, read_window
from oracles import cyclic_group_with_zero


def closed_on_window(S, bound):
    """Every product of two members of S on the window that stays in the
    window is a member: the oracle for localizations."""
    ctx = S.context
    window = ctx.window(bound)
    inside = set(window)
    members = [g for g in window if S.has(g)]
    return all(ctx.op(a, b) not in inside or S.has(ctx.op(a, b))
               for a in members for b in members)


def test_numerical_membership_and_ops():
    H = Monoid.numerical([2, 3])
    assert H.contains(0) and H.contains(2) and H.contains(5)
    assert not H.contains(1)
    assert not H.contains(-2)
    assert H.contains(INF)
    assert H.op(2, 3) == 5
    assert H.op(2, INF) is INF
    assert H.one == 0 and H.zero is INF
    assert not H.contains(True) and not H.context.contains(True)


def test_affine_membership():
    H = Monoid.affine([[1, 0], [0, 1]])
    assert H.contains((2, 3))
    assert not H.contains((-1, 0))
    assert H.contains(INF)
    assert H.op((1, 2), (3, 4)) == (4, 6)
    # lattice of the generators, not all of Z^2
    H2 = Monoid.affine([[2, 0], [0, 2]])
    assert not H2.contains((1, 0))
    assert not H2.context.contains((1, 0))
    assert H2.context.contains((2, -4))
    assert not H2.context.contains((True, 0))


def test_finite_monoid_is_group_with_zero():
    H = cyclic_group_with_zero(3)
    assert H.one == 0 and H.zero == 3
    assert H.op(1, 2) == 0
    assert H.op(1, 3) == 3
    assert H.context.inv(2) == 1
    with pytest.raises(ValueError):
        H.context.inv(3)
    assert not H.context.contains(True)


def test_table_validation():
    # declared zero not absorbing
    with pytest.raises(ValueError):
        Monoid.finite([[0, 1], [1, 0]], one=1, zero=0)
    # identity equal to zero
    with pytest.raises(ValueError):
        Monoid.finite([[0, 0], [0, 0]], one=0, zero=0)
    # non-commutative
    with pytest.raises(ValueError):
        Monoid.finite([[0, 1, 2], [2, 1, 0], [1, 2, 0]], one=1, zero=2)
    # non-cancellative off the zero
    with pytest.raises(ValueError):
        Monoid.finite([[0, 1, 2], [1, 1, 2], [2, 2, 2]], one=0, zero=2)


def test_json_parse_errors_carry_fields():
    with pytest.raises(ParseError) as e:
        monoid_from_json('{"kind": "numerical", "generators": [2, 4]}')
    assert e.value.field == "generators"
    with pytest.raises(ParseError) as e:
        monoid_from_json('{"kind": "nope"}')
    assert e.value.field == "kind"
    with pytest.raises(ParseError) as e:
        monoid_from_json('{bad json')
    assert e.value.line is not None
    with pytest.raises(ParseError):
        monoid_from_json('{"kind": "affine", "dim": 0, "generators": []}')
    # bool is not an integer at the boundary
    for text, field in (
            ('{"kind": "numerical", "generators": [true, 2]}', "generators"),
            ('{"kind": "affine", "dim": true, "generators": [[1]]}', "dim"),
            ('{"kind": "affine", "dim": 1, "generators": [[false]]}',
             "generators"),
            ('{"kind": "finite", "size": 2, "table": [[0, 1], [1, 1]], '
             '"one": false, "zero": 1}', "one"),
            ('{"kind": "finite", "size": 2, "table": [[0, true], [1, 1]], '
             '"one": 0, "zero": 1}', "table"),
            ('{"kind": "finite", "size": true, "table": [[0]], '
             '"one": 0, "zero": 0}', "size"),
            ('{"kind": ["numerical"]}', "kind")):
        with pytest.raises(ParseError) as e:
            monoid_from_json(text)
        assert e.value.field == field, text


def test_json_roundtrip():
    H = monoid_from_json('{"kind": "numerical", "generators": [3, 4, 5]}')
    assert H.kind == "numerical" and H.generators == (3, 4, 5)
    A = monoid_from_json(
        '{"kind": "affine", "dim": 2, "generators": [[1, 0], [0, 1]]}')
    assert A.contains((1, 1))


def test_window_is_deterministic_and_contains_inf():
    H = Monoid.numerical([2, 3])
    w = H.context.window(5)
    assert w == list(range(-5, 6)) + [INF]
    A = Monoid.affine([[1, 0], [0, 1]])
    w2 = A.context.window(2)
    assert w2[-1] is INF
    assert (0, 0) in w2 and (-2, 2) in w2
    assert w2 == A.context.window(2)


def test_overmonoid_membership_generator_backed():
    H = Monoid.numerical([2, 3])
    M = as_overmonoid(H)
    assert M.contains(2) and not M.contains(1)
    Z = Overmonoid(H.context, gens=(1, -1), name="Z")
    assert Z.contains(-7) and Z.contains(INF)
    assert read_window(M, WindowRead(H, 6))[1] == {0}
    assert read_window(Z, WindowRead(H, 3))[1] == {-3, -2, -1, 0, 1, 2, 3}


def test_adjoin():
    H = Monoid.affine([[1, 0], [0, 1]])
    M = adjoin(as_overmonoid(H), (-1, 1))
    assert M.contains((-2, 3))
    assert not M.contains((0, -1))
    assert adjoin(M, INF) is M


def test_localize_at_face_prime():
    from monoid_spectra.idealsys import enumerate_primes
    H = Monoid.affine([[1, 0], [0, 1]])
    primes = enumerate_primes(H)
    by_name = {p.name: p for p in primes}
    face = next(p for n, p in by_name.items() if n.startswith("P_face"))
    L = localize(H, face)
    # inverting the generators off the prime frees one axis
    freed = [g for g in H.generators if not face.contains(g)]
    assert freed
    g = freed[0]
    assert L.contains(tuple(-c for c in g))
    assert closed_on_window(L, 3)


def test_localize_rejects_improper():
    from monoid_spectra.idealsys import RIdeal, s_system
    H = Monoid.numerical([2, 3])
    improper = RIdeal(s_system(H), [0])
    with pytest.raises(ValueError):
        localize(H, improper)


def test_fraction_ideal_predicate():
    H = Monoid.numerical([2, 3])
    member = fraction_ideal(H, 1)  # (H : 1) = {h in H : h + 1 in H}
    assert member(2) and member(3)
    assert not member(0)  # 0 + 1 = 1 is a gap
    assert member(INF)
    with pytest.raises(ValueError):
        fraction_ideal(H, INF)


def reachable(gens, radius):
    """Sums of generators reachable from 0 by steps that stay in the box of
    the given radius: the brute-force oracle for submonoid membership."""
    start = (0,) * len(gens[0]) if gens else (0,)
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = tuple(a + b for a, b in zip(v, g))
            if max(map(abs, w)) <= radius and w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def test_int_overmonoid_fixed_cases():
    ctx = IntCarrier()
    forms = {(2, -4): lambda x: x % 2 == 0,
             (2,): lambda x: x >= 0 and x % 2 == 0,
             (-3,): lambda x: x <= 0 and x % 3 == 0}
    for gens, form in forms.items():
        M = Overmonoid(ctx, gens=gens)
        for x in range(-12, 13):
            assert M.contains(x) == form(x), (gens, x)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-6, 6), max_size=4))
def test_int_submonoid_matches_bounded_closure(gens):
    # a sum reaching |x| <= 20 can be reordered to stay within 6 of [0, x]
    reach = reachable([(g,) for g in gens], 26)
    member = IntCarrier().submonoid(gens)
    for x in range(-20, 21):
        assert member(x) == ((x,) in reach), (gens, x)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.lists(
    st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=4)))
def test_lattice_submonoid_matches_bounded_closure(gens):
    # Steinitz lemma (constant <= dimension 2): a sum of vectors of sup-norm
    # <= 2 that lands in the radius-3 box can be reordered so that every
    # partial sum stays in the radius-9 box
    reach = reachable(gens, 9)
    ctx = LatticeCarrier(len(gens[0]), gens)
    member = ctx.submonoid(gens)
    for x in ctx.window(3)[:-1]:
        assert member(x) == (x in reach), (gens, x)


def test_lattice_memo_comes_after_the_structural_test():
    ctx = LatticeCarrier(2, [(1, 0), (0, 1)])
    assert ctx.contains((1, 0))
    assert (1, 0) in ctx._memo  # (True, 0) has the same hash and compares equal
    for g in ((True, 0), (1,), (1, 0, 0), [1, 0], (1.0, 0)):
        assert not ctx.contains(g), g


def test_lattice_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(monoid, "MAX_LATTICE_MEMO", 5)
    ctx = LatticeCarrier(2, [(2, 0), (1, 3)])
    box = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    for _ in range(2):
        for v in box:
            assert ctx.contains(v) == lattice_contains(ctx.basis, v), v
            assert len(ctx._memo) <= 5
    assert ctx.window(4) == [v for v in box
                             if lattice_contains(ctx.basis, v)] + [INF]
    assert len(ctx._memo) <= 5


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=3),
    st.lists(st.tuples(*[st.integers(-9, 9)] * d), max_size=30))))
def test_memoized_lattice_contains_matches_a_fresh_hnf(case):
    gens, points = case
    ctx = LatticeCarrier(len(gens[0]), gens)
    for v in points + points:  # the second pass reads the memo
        assert ctx.contains(v) == lattice_contains(hnf_rows(gens), v), v


MONOIDS = st.one_of(
    st.lists(st.integers(2, 9), min_size=1, max_size=3).map(
        lambda gens: Monoid.numerical(gens + [max(gens) + 1])),  # gcd 1
    st.integers(1, 2).flatmap(lambda d: st.lists(
        st.tuples(*[st.integers(-2, 2)] * d), min_size=1,
        max_size=3)).map(Monoid.affine),
    st.integers(1, 5).map(cyclic_group_with_zero))


@settings(max_examples=100, deadline=None)
@given(MONOIDS, st.randoms())
def test_has_agrees_with_contains_on_the_carrier(H, rnd):
    assert isinstance(H, Overmonoid)  # H is its own smallest overmonoid
    ctx = H.context
    units = [g for g in H.generators if g is not INF and g != ctx.zero]
    overs = [as_overmonoid(H),
             Overmonoid(ctx, gens=H.generators + tuple(
                 ctx.inv(g) for g in rnd.sample(units, len(units) // 2))),
             Overmonoid(ctx, rule=lambda g: hash(g) % 3 != 0)]
    for M in [H] + overs:
        for g in ctx.window(3):
            assert M.has(g) == M.contains(g), (M, g)
    # the window holds the zero once; nonzero_window is the rest, INF never
    window = ctx.window(3)
    nonzero = ctx.nonzero_window(3)
    assert nonzero == [g for g in window if g is not INF and g != ctx.zero]
    assert len(nonzero) == len(window) - 1
    assert all(g is not INF for g in nonzero)


def test_a_window_past_max_window_points_is_refused():
    """(2 bound + 1)^dim points at most; a finite window has every bound."""
    line, plane = IntCarrier(), LatticeCarrier(2, [(1, 0), (0, 1)])
    assert len(line.window(2047)) == 4095 + 1  # and INF
    assert len(plane.window(31)) == 63 * 63 + 1
    for ctx, bound in ((line, 2048), (plane, 32), (line, 10 ** 9)):
        with pytest.raises(UnsupportedRealization):
            ctx.window(bound)
    assert cyclic_group_with_zero(3).context.window(10 ** 9) == [0, 1, 2, 3]
