import copy
import itertools
import json
import os
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import monoid
from monoid_spectra.errors import UnsupportedRealization
from monoid_spectra.intgeom import hnf_rows, lattice_contains
from monoid_spectra.modsys import FAMILY_DEPTH
from monoid_spectra.monoid import (INF, CarrierMismatch, IntCarrier,
                                   LatticeCarrier, Monoid, Overmonoid,
                                   ParseError, adjoin, as_overmonoid,
                                   family_from_file, fraction_ideal, localize,
                                   monoid_from_file, monoid_from_json)
from monoid_spectra.valuation import WindowRead
from oracles import (cyclic_group_with_zero, load_workloads, localize_asking,
                     table_error)

DATA = os.path.join(os.path.dirname(__file__), "data")


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
    for S, bound, units in ((M, 6, {0}), (Z, 3, set(range(-3, 4)))):
        w = WindowRead(H, bound).window
        m = w.mask(S)
        m &= w.inverted(m)
        assert {g for g, b in zip(w.points, w.bits) if m >> b & 1} == units


def test_adjoin():
    H = Monoid.affine([[1, 0], [0, 1]])
    M = adjoin(as_overmonoid(H), (-1, 1))
    assert M.contains((-2, 3))
    assert not M.contains((0, -1))
    assert adjoin(M, INF) is M


def test_generators_are_checked_once_where_they_enter(monkeypatch):
    """A monoid's generators and adjoin's x are checked on the carrier;
    what is built from checked points is not: R(<7,11,13>), nxz's
    localizations in its overmonoid carrier and the adjoin-ray members
    call ``check`` zero times."""
    with pytest.raises(CarrierMismatch):
        Monoid.numerical([2, 3.0])
    with pytest.raises(CarrierMismatch):
        adjoin(as_overmonoid(Monoid.numerical([2, 3])), 2.0)
    H = monoid_from_file(os.path.join(DATA, "n71113.json"))
    nxz = monoid_from_file(os.path.join(DATA, "nxz.json"))
    _, family = family_from_file(os.path.join(DATA, "adjoin-ray.json"))
    asked = []
    check = monoid.GroupoidContext.check
    monkeypatch.setattr(monoid.GroupoidContext, "check",
                        lambda ctx, g: asked.append(g) or check(ctx, g))
    overs = H.context.overmonoids(H)
    locs = nxz.context.overmonoids(nxz)[1:]
    members = [family.member(k) for k in range(1, FAMILY_DEPTH + 1)]
    assert asked == []
    assert (len(overs), len(members)) == (109, FAMILY_DEPTH)
    assert [S.name for S in locs] == ["H_P_zero"]
    assert all(S.gens for S in [*overs, *locs, *members])
    adjoin(members[0], (1, 1))  # the counter sees the one check left here
    assert asked == [(1, 1)]


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
    # an ideal generated by the identity, by one of H's generators or by
    # its square is refused exactly when it holds the identity: on N x Z,
    # whose units (0, +-k) lie on every face of its cone, and on Z/3 with a
    # zero
    for K in (Monoid.affine([[1, 0], [0, 1], [0, -1]]),
              cyclic_group_with_zero(3)):
        for g in {K.one, *K.generators,
                  *(K.op(h, h) for h in K.generators)} - {K.zero}:
            P = RIdeal(s_system(K), [g])
            if P.contains(K.one):
                with pytest.raises(ValueError):
                    localize(K, P)
            else:
                assert localize(K, P).gens == localize_asking(K, P).gens


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


def test_lattice_contains_puts_the_structural_test_first():
    ctx = LatticeCarrier(2, [(1, 0), (0, 1)])
    assert ctx.contains((1, 0))
    for g in ((True, 0), (1,), (1, 0, 0), [1, 0], (1.0, 0)):
        assert not ctx.contains(g), g


def test_lattice_contains_and_window_match_the_hnf_test():
    ctx = LatticeCarrier(2, [(2, 0), (1, 3)])
    box = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    for v in box:
        assert ctx.contains(v) == lattice_contains(ctx.basis, v), v
    assert ctx.window(4) == [v for v in box
                             if lattice_contains(ctx.basis, v)] + [INF]


def lattice_inputs():
    """(name, monoid) of the affine tests/data inputs, the benchmark's
    affine pool, a line of index 1 and one of index 2, and sublattices of
    the plane of index 2, 3 and 4."""
    out = []
    for name in sorted(os.listdir(DATA)):
        path = os.path.join(DATA, name)
        with open(path, encoding="utf-8") as fh:
            if json.load(fh).get("kind") == "affine":
                out.append((name, monoid_from_file(path)))
    out += [(f"pool{k}", Monoid.affine(gens))
            for k, gens in enumerate(load_workloads().affine_pool(20))]
    out += [("line", Monoid.affine([[2], [3]])),
            ("line2", Monoid.affine([[2], [-4]])),
            ("index2", Monoid.affine([[2, 0], [0, 1]])),
            ("index3", Monoid.affine([[1, 1], [1, -2]])),
            ("index4", Monoid.affine([[2, 1], [0, 2]]))]
    return out


def test_window_is_the_box_points_the_hnf_test_admits():
    # the window reads the box's points from one comb; the oracle asks the
    # HNF test at every point of the box, in itertools.product's order
    for name, H in lattice_inputs():
        ctx = H.context
        for bound in range(1, 5):
            box = itertools.product(range(-bound, bound + 1), repeat=ctx.dim)
            assert ctx.window(bound) == [
                p for p in box if lattice_contains(ctx.basis, p)] + [INF], (
                name, bound)


def parse_error(desc):
    """The text of the ParseError that parsing `desc` raises, or None."""
    try:
        monoid_from_json(json.dumps(desc))
    except ParseError as e:
        return str(e)
    return None


def test_table_errors_name_the_first_defect_of_the_triple_loop():
    # defects planted into the sweep's relabelled tables: one entry moved
    # (non-commutative), a unit's square moved to each other value
    # (non-associative, or on Z/2 + 0 non-cancellative), and a unit
    # declared the identity or the zero; each message is the one the
    # triple loop reads first
    workloads = load_workloads()
    rng = random.Random(0)
    kinds = set()
    for orders in workloads.FINITE_ORDERS:
        for _ in range(4):
            desc = workloads.relabelled(orders, rng)
            assert parse_error(desc) is None
            table, one, zero = desc["table"], desc["one"], desc["zero"]
            n = len(table)
            units = [g for g in range(n) if g not in (one, zero)]
            a, b = rng.sample(range(n), 2)
            moved = copy.deepcopy(table)
            moved[a][b] = rng.choice([x for x in range(n) if x != table[a][b]])
            cases = [(moved, one, zero)]
            g, h = rng.choice(units), rng.choice(units)
            for x in range(n):
                if x != table[g][g]:
                    moved = copy.deepcopy(table)
                    moved[g][g] = x
                    cases.append((moved, one, zero))
            cases += [(table, h, zero), (table, one, h)]
            for t, o, z in cases:
                expected = table_error(t, o, z)
                kinds.add(expected.split(":")[0].split(" at ")[0])
                assert parse_error(dict(desc, table=t, one=o, zero=z)) == str(
                    ParseError(expected, field="table"))
    assert kinds == {"not commutative", "not associative", "not cancellative",
                     "declared identity is not neutral",
                     "declared zero is not absorbing"}


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.integers(-4, 4)] * d), min_size=1, max_size=3),
    st.lists(st.tuples(*[st.integers(-9, 9)] * d), max_size=30))))
def test_lattice_contains_matches_a_fresh_hnf(case):
    gens, points = case
    ctx = LatticeCarrier(len(gens[0]), gens)
    for v in points:
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


@settings(max_examples=100, deadline=None, derandomize=True)
@given(MONOIDS)
def test_localizations_are_read_from_the_primes_generators(H):
    """``localize``, which inverts the generators of H that P is not
    generated by and asks P nothing, and the H_P of the overmonoid carrier
    built through it, against ``oracles.localize_asking``, which asks P
    about the identity and each generator of H, on every realization."""
    from monoid_spectra.idealsys import enumerate_primes
    primes = enumerate_primes(H)
    locs = [(f"H_{P.name}", localize_asking(H, P).gens) for P in primes]
    assert [localize(H, P).gens for P in primes] == [g for _, g in locs]
    assert [(S.name, S.gens) for S in monoid.GroupoidContext.overmonoids(
        H.context, H)[1:]] == [(name, gens) for name, gens in locs
                               if not all(map(H.contains, gens))]


def test_a_window_past_max_window_points_is_refused():
    """(2 bound + 1)^dim points at most; a finite window has every bound."""
    line, plane = IntCarrier(), LatticeCarrier(2, [(1, 0), (0, 1)])
    assert len(line.window(2047)) == 4095 + 1  # and INF
    assert len(plane.window(31)) == 63 * 63 + 1
    for ctx, bound in ((line, 2048), (plane, 32), (line, 10 ** 9)):
        with pytest.raises(UnsupportedRealization):
            ctx.window(bound)
    assert cyclic_group_with_zero(3).context.window(10 ** 9) == [0, 1, 2, 3]
