import itertools
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra.modsys import (DeltaFamily, ModuleSystem, SystemSpace,
                                   check_family, check_id2,
                                   check_module_axioms,
                                   embedding_checks, example16,
                                   falsify_finitary, iota, meet,
                                   separating_points)
from monoid_spectra.idealsys import s_system
from monoid_spectra.monoid import (INF, CarrierMismatch, FiniteCarrier,
                                   IntCarrier, Monoid, Overmonoid, ParseError,
                                   as_overmonoid, family_from_json,
                                   monoid_from_file)
from monoid_spectra.valuation import enumerate_overmonoids
from oracles import (check_family_pointwise, cyclic_group_with_zero,
                     extract_finite_witness, falsify_finitary_pointwise,
                     meet_finite_witness, pool_space, specialization_matrix,
                     subbasis_membership)
from test_monoid import MONOIDS, reachable

DATA = os.path.join(os.path.dirname(__file__), "data")


def n23():
    return Monoid.numerical([2, 3])


def overmonoid_N(H):
    return Overmonoid(H.context, gens=H.generators, name="N")


def overmonoid_Z(H):
    return Overmonoid(H.context, gens=(1, -1), name="Z")


def singleton_pool(ctx, overs, bound):
    """main1's pool: {0}, then {x^-1} at every separating point x."""
    return [frozenset([ctx.zero])] + [
        frozenset([ctx.inv(x)]) for x in separating_points(ctx, overs, bound)]


def test_example16_values():
    H = n23()
    r = example16(H)
    # the absorbing zero in A fills all of G
    pred = r.closure(frozenset({INF, 2}))
    assert pred(-7) and pred(1) and pred(INF)
    # without it: AH plus the absorbing zero
    pred = r.closure(frozenset({2}))
    assert pred(2) and pred(4) and pred(5)
    assert not pred(3) and not pred(0) and not pred(-2)
    assert pred(INF)
    # empty set closes to the absorbing zero alone
    pred = r.closure(frozenset())
    assert pred(INF) and not pred(0)


def test_example16_satisfies_all_but_id2():
    H = n23()
    r = example16(H)
    checks = check_module_axioms([r], H, bound=4)[0]
    assert all(c.ok for c in checks), [(c.name, c.witness) for c in checks]
    id2 = check_id2(r, bound=4)
    assert not id2.ok
    assert id2.witness is not None


def test_example16_id2_failure_is_the_closure_of_one():
    # the closure of the identity is H with the absorbing zero adjoined;
    # reclosing it fills G because the zero entered, so closure is not
    # inclusion-monotone in the Id2 sense
    H = n23()
    r = example16(H)
    first = r.closure(frozenset({0}))
    assert first(2) and first(0) and first(INF) and not first(1)
    captured = frozenset(g for g in list(range(-4, 9)) + [INF] if first(g))
    second = r.closure(captured)
    assert second(1) and second(-3)


def test_members_system_matches_direct_intersection():
    H = n23()
    ctx = H.context
    N, Z = overmonoid_N(H), overmonoid_Z(H)
    r = ModuleSystem("r_NZ", ctx, [N, Z])
    for A in [frozenset({2}), frozenset({2, 3}), frozenset({5, 7}),
              frozenset({-1, 4})]:
        pred = r.closure(A)
        for g in list(range(-6, 13)) + [INF]:
            direct = g is INF or all(
                any(S.contains(ctx.op(ctx.inv(a), g)) for a in A
                    if a is not INF)
                for S in (N, Z))
            assert pred(g) == direct, (A, g)


def test_members_system_empty_set():
    H = n23()
    r = ModuleSystem("r_N", H.context, [overmonoid_N(H)])
    pred = r.closure(frozenset())
    assert pred(INF) and not pred(0)


def test_iota_and_module_axioms():
    H = n23()
    for S in (overmonoid_N(H), overmonoid_Z(H)):
        r = iota(S)
        checks = check_module_axioms([r], H, bound=4)[0]
        assert all(c.ok for c in checks), [(c.name, c.witness) for c in checks]


def test_meet_and_its_finite_witness():
    H = n23()
    ctx = H.context
    rN, rZ = iota(overmonoid_N(H)), iota(overmonoid_Z(H))
    m = meet([rN, rZ])
    A = frozenset({5, 7})
    x = 12
    assert m.closure(A)(x)
    E = meet_finite_witness([rN, rZ], A, x)
    assert E <= A
    assert m.closure(E)(x)


def test_extract_finite_witness():
    H = n23()
    ctx = H.context
    members = [overmonoid_N(H), overmonoid_Z(H)]
    r = ModuleSystem("r_NZ", ctx, members)
    A = frozenset({5, 7})
    x = 12
    assert r.closure(A)(x)
    F = extract_finite_witness(members, ctx, A, x)
    assert F <= A and len(F) <= 2
    assert r.closure(F)(x)
    with pytest.raises(ValueError):
        extract_finite_witness(members, ctx, frozenset({5}), 6)  # 1 not in Z+5? 6-5=1 not in N


def test_subbasis_membership_asks_for_the_identity():
    H = n23()
    r = iota(overmonoid_Z(H))
    assert subbasis_membership(r, frozenset({-2}))  # 1 in (-2)Z
    assert not subbasis_membership(iota(overmonoid_N(H)), frozenset({2}))
    with pytest.raises(ValueError):
        subbasis_membership(r, frozenset())


def separating_set(systems, pool, i, j):
    """The first pool set with exactly one of systems i and j in U_S."""
    return next((S for S in pool
                 if subbasis_membership(systems[i], S)
                 != subbasis_membership(systems[j], S)), None)


def first_unseparated(systems, pool):
    """The all-pairs oracle: the first pair, in combinations order, that no
    pool set separates, or None."""
    return next(((i, j) for i, j in itertools.combinations(
        range(len(systems)), 2)
        if separating_set(systems, pool, i, j) is None), None)


def test_system_space_t0_and_witnesses():
    H = n23()
    overs = [overmonoid_N(H), overmonoid_Z(H)]
    ss = SystemSpace(H, overs, 4)
    systems = ss.systems
    assert [r.name for r in systems] == ["r_N", "r_Z", "example16"]
    assert ss.space().is_t0()
    assert ss.t0_witnesses() is None
    pool = singleton_pool(H.context, overs, 4)
    assert first_unseparated(systems, pool) is None
    # the separating pool sets, found by the all-pairs loop
    assert separating_set(systems, pool, 0, 1) == frozenset([4])  # -4 in Z
    assert separating_set(systems, pool, 0, 2) == frozenset([INF])  # {0}


def test_separating_points_are_the_window_then_the_generators():
    H = n23()
    overs = [overmonoid_N(H), overmonoid_Z(H)]
    assert separating_points(H.context, overs, 1) == [-1, 0, 1, 2, 3]
    # a rule-backed member adds no points
    rule = Overmonoid(H.context, rule=lambda g: g >= 0, name="N")
    assert separating_points(H.context, [rule], 2) == [-2, -1, 0, 1, 2]


@pytest.mark.parametrize("name", ["n23", "c3z", "nxz"])
def test_singleton_opens_give_the_literal_system_topology(name):
    # U_A is the union of the U_{a}, a in A, on main1's carrier, so the
    # system space has the topology of every U_A with |A| <= 2 on the
    # window, each asked through a closure
    H = monoid_from_file(os.path.join(DATA, name + ".json"))
    ctx = H.context
    overs = enumerate_overmonoids(H)
    ss = SystemSpace(H, overs, 2)
    pool = singleton_pool(ctx, overs, 2)
    literal = pool + [A for n in (1, 2)
                      for A in map(frozenset,
                                   itertools.combinations(ctx.window(2), n))]
    space = ss.space()
    for oracle in (pool_space(ss.systems, p) for p in (pool, literal)):
        assert oracle.labels == space.labels
        assert oracle.is_t0() == space.is_t0()
        assert specialization_matrix(oracle) == specialization_matrix(space)


def adjoin_ray_family():
    text = ('{"family": "adjoin-ray", '
            '"base": {"kind": "affine", "dim": 2, '
            '"generators": [[1, 0], [0, 1]]}, '
            '"ray": [-1, 1], "scale": "k"}')
    return family_from_json(text)


def test_family_from_json_and_members():
    H, delta = adjoin_ray_family()
    assert H.kind == "affine"
    S1 = delta.member(1)
    S2 = delta.member(2)
    assert S1.contains((-1, 1))
    assert S2.contains((-1, 2)) and not S2.contains((-1, 1))
    # decreasing: S2 inside S1
    assert S1.contains((-1, 2))
    checks = check_family(delta, H.context, bound=3)
    assert all(c.ok for c in checks), [(c.name, c.witness) for c in checks]


def test_family_json_errors():
    with pytest.raises(ParseError):
        family_from_json('{"family": "other"}')
    with pytest.raises(ParseError):
        family_from_json('{"family": "adjoin-ray", "base": 3}')
    with pytest.raises(ParseError):
        family_from_json('{"family": "adjoin-ray", '
                         '"base": "affine:1,0;0,1", "ray": [1], "scale": "k"}')
    for base in ("affine:1,a;0,1", "affine:1,0;1"):
        with pytest.raises(ParseError) as e:
            family_from_json('{"family": "adjoin-ray", "base": "%s", '
                             '"ray": [-1, 1], "scale": "k"}' % base)
        assert e.value.field == "base"
    # (1, 1) is outside the lattice of <(2, 0), (0, 2)>
    with pytest.raises(ParseError) as e:
        family_from_json('{"family": "adjoin-ray", "base": "affine:2,0;0,2", '
                         '"ray": [1, 1], "scale": "k"}')
    assert e.value.field == "ray"


def bad_families():
    """Families that break their declarations, members that grow with the
    index and a limit that is the whole group, and families that keep them
    but stop shrinking, from the start or for one index, so the
    certificate search runs out of points."""
    H, _ = adjoin_ray_family()
    ctx = H.context
    group = Overmonoid(ctx, gens=((1, 0), (0, 1), (-1, 0), (0, -1)),
                       name="G")

    def growing(k):
        return Overmonoid(ctx, gens=H.generators + ((-k, 1),), name=f"T_{k}")

    def flat(k):
        return Overmonoid(ctx, gens=H.generators + ((-1, 1),), name=f"F_{k}")

    ray = adjoin_ray_family()[1].member_fn
    return [DeltaFamily(member_fn=growing, limit=H, name="growing"),
            DeltaFamily(member_fn=ray, limit=group, name="wide-limit"),
            DeltaFamily(member_fn=flat, limit=H, name="flat"),
            DeltaFamily(member_fn=lambda k: ray(max(k - 1, 1)), limit=H,
                        name="repeated")]


def test_family_scans_agree_with_the_pointwise_oracles():
    # the member masks give the checks' verdicts, witnesses and n, and the
    # certificate, of the point-by-point scans, on a family that keeps its
    # declarations and on families that break them
    H, delta = adjoin_ray_family()
    ctx = H.context
    for fam in [delta, *bad_families()]:
        for bound in range(1, 7):
            assert ([c.to_dict() for c in check_family(fam, ctx, bound)]
                    == [c.to_dict() for c in
                        check_family_pointwise(fam, ctx, bound)]), (
                fam.name, bound)
            assert (falsify_finitary(fam, ctx, bound)
                    == falsify_finitary_pointwise(fam, ctx, bound)), (
                fam.name, bound)
    verdicts = {fam.name: [c.ok for c in check_family(fam, ctx, 4)]
                for fam in bad_families()}
    assert verdicts == {"growing": [False, True], "wide-limit": [True, False],
                        "flat": [True, True], "repeated": [True, True]}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rays=st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                     min_size=6, max_size=6),
       limit=st.integers(0, 6), bound=st.integers(2, 6))
def test_family_scans_agree_on_drawn_families(rays, limit, bound):
    # S_k adjoins the k-th drawn point to N^2, and the limit is N^2 or one
    # of the members, so members need not shrink nor hold the limit
    H, _ = adjoin_ray_family()
    ctx = H.context
    members = [Overmonoid(ctx, gens=H.generators + (v,), name=f"S_{k}")
               for k, v in enumerate(rays, 1)]
    fam = DeltaFamily(member_fn=lambda k: members[k - 1],
                      limit=members[limit - 1] if limit else H, name="drawn")
    assert ([c.to_dict() for c in check_family(fam, ctx, bound)]
            == [c.to_dict() for c in check_family_pointwise(fam, ctx, bound)])
    assert (falsify_finitary(fam, ctx, bound)
            == falsify_finitary_pointwise(fam, ctx, bound))


def test_falsify_finitary_produces_certificate():
    H, delta = adjoin_ray_family()
    wit = falsify_finitary(delta, H.context, bound=6)
    assert wit is not None
    assert wit["separating_index"] == 6
    # certificate semantics: the first six members catch the target
    r_full = ModuleSystem("r_full", H.context,
                          [delta.member(k) for k in range(1, 7)])
    A = frozenset(eval(a) for a in wit["A"])
    assert r_full.closure(A)(H.context.one)


def test_exact_limit_evaluation_for_decreasing_family():
    # a witness a for S_k works for every smaller index, so the family's
    # system is iota of its declared limit; the limit lies inside every
    # member, so its closures lie inside those of the first six members,
    # and S_6 holds (-1, 6), which the limit misses
    H, delta = adjoin_ray_family()
    ctx = H.context
    r = iota(delta.limit)
    # closure of {(1, 0)} under the limit (the base) is (1,0) + N^2
    pred = r.closure(frozenset({(1, 0)}))
    assert pred((2, 3)) and not pred((0, 1))
    six = ModuleSystem("r_six", ctx, [delta.member(k) for k in range(1, 7)])
    window = ctx.window(6)
    for n in (1, 2):
        for A in itertools.combinations(ctx.nonzero_window(1), n):
            lim, wide = r.closure(A), six.closure(A)
            assert all(wide(g) for g in window if lim(g)), A
    one = frozenset({ctx.one})
    assert six.closure(one)((-1, 6)) and not r.closure(one)((-1, 6))


def test_a_delta_family_needs_a_rule_and_its_limit():
    H, delta = adjoin_ray_family()
    with pytest.raises(TypeError):
        DeltaFamily([delta.limit])
    with pytest.raises(TypeError):
        DeltaFamily(member_fn=delta.member_fn)
    with pytest.raises(TypeError):
        DeltaFamily(limit=delta.limit)
    assert DeltaFamily(member_fn=delta.member_fn, limit=delta.limit).member(
        2).contains((-1, 2))


def test_embedding_checks_pass():
    H = n23()
    N, Z = overmonoid_N(H), overmonoid_Z(H)
    check = embedding_checks([N, Z], H.context, bound=4)
    assert (check.name, check.ok, check.n) == ("iota-injective", True, 2)
    check = embedding_checks([N, Z, overmonoid_N(H)], H.context, bound=4)
    assert not check.ok and check.witness == {"S": repr(N)}


def test_iota_on_the_plane_rejects_points_off_the_carrier():
    # the lattice op zips, so without the boundary checks these points
    # would be truncated onto the plane and answered True
    S = as_overmonoid(Monoid.affine([(1, 0), (0, 1)]))
    r = iota(S)
    assert not r.closure({(0, 0)})((0, 5, -7))
    assert not r.closure({(0, 0)})((True, 0))
    with pytest.raises(CarrierMismatch):
        r.closure({(0, 0, 1)})((0, 0))


# (monoid, points off its carrier, an element of the carrier that lies in
# the closure of {1}); the affine monoid spans the even lattice
OFF_CARRIER = [
    (Monoid.numerical([2, 3]), [True, (2,), 2.0, "2", None], 2),
    (Monoid.affine([(2, 0), (0, 2)]),
     [(1, 0), (True, 0), (2,), (2, 0, 0), [2, 0], (2.0, 0), 2], (2, 2)),
    (cyclic_group_with_zero(3), [4, -1, True, (1,), 1.0], 1),
]


def group_of(H):
    """H with the inverses of its nonzero generators adjoined."""
    ctx = H.context
    return Overmonoid(ctx, gens=H.generators + tuple(
        ctx.inv(g) for g in H.generators if g is not INF and g != ctx.zero),
        name="G")


def closure_systems(H):
    ctx = H.context
    S = as_overmonoid(H)
    return [s_system(H), example16(H), iota(S),
            ModuleSystem("r_SG", ctx, [S, group_of(H)]),
            meet([iota(S), example16(H)])]


@pytest.mark.parametrize("H, off, inside", OFF_CARRIER,
                         ids=["int", "lattice", "finite"])
def test_closures_validate_a_and_g_at_their_boundary(H, off, inside):
    ctx = H.context
    hashable = [a for a in off if not isinstance(a, list)]
    for r in closure_systems(H):
        for A in (frozenset({ctx.one}), frozenset({ctx.one, ctx.zero})):
            pred = r.closure(A)
            assert pred(inside) and pred(ctx.zero), (r, A)
            for g in off:
                assert pred(g) is False, (r, A, g)
        for a in hashable:
            with pytest.raises(CarrierMismatch):
                r.closure({a})
            with pytest.raises(CarrierMismatch):
                r.closure({ctx.one, a})(ctx.one)
    members = [as_overmonoid(H)]
    for a in hashable:
        with pytest.raises(CarrierMismatch):
            extract_finite_witness(members, ctx, {ctx.one}, a)
        with pytest.raises(CarrierMismatch):
            extract_finite_witness(members, ctx, {ctx.one, a}, ctx.one)


def axiom_systems(H, bound):
    """main1's systems, the s-system, and iota of a monoid that misses H,
    on which M4 fails."""
    thin = Overmonoid(H.context, gens=H.generators[-1:], name="thin")
    return [s_system(H), *map(iota, enumerate_overmonoids(H)),
            example16(H), iota(thin)]


@pytest.mark.parametrize("name, bound", [("n23", 4), ("c3z", 4), ("n2", 4),
                                         ("nxz", 4), ("n579", 10)])
def test_one_plan_gives_each_system_its_own_verdicts(name, bound):
    # n579 at bound 10 has a window of 22 points: the sampled path
    H = monoid_from_file(os.path.join(DATA, name + ".json"))
    systems = axiom_systems(H, bound)

    def lines(rs, seed):
        return [[c.to_dict() for c in checks] for checks in
                check_module_axioms(rs, H, bound=bound, seed=seed)]

    alone = {seed: [line for r in systems for line in lines([r], seed)]
             for seed in (0, 1)}
    # seed 1 first: nothing of one call reaches the next
    assert lines(systems, 1) == alone[1]
    assert lines(systems, 0) == alone[0]
    assert any(not c["verdict"].endswith("PASS") for c in alone[0][-1])


def test_module_checks_refuse_systems_off_h_carrier():
    H = n23()
    other = Monoid.numerical([2, 3])
    plane = Monoid.affine([(1, 0), (0, 1)])
    for stray in (iota(as_overmonoid(other)), example16(plane)):
        with pytest.raises(CarrierMismatch):
            check_module_axioms([iota(overmonoid_N(H)), stray], H)
    # the window comes from H's carrier, and the plan trusts it; the
    # closures still check their A, also on a carrier without boxes
    c3z = monoid_from_file(os.path.join(DATA, "c3z.json"))
    for K, a in ((H, 2.0), (plane, (1, 0, 0)), (c3z, 99)):
        for r in (iota(as_overmonoid(K)), example16(K)):
            with pytest.raises(CarrierMismatch):
                r.closure({K.context.one, a})


def test_t0_witnesses_are_the_first_separating_pool_sets():
    # t0_witnesses gives the first pair that the all-pairs loop over the
    # first separating pool sets leaves unseparated
    H = n23()
    ctx = H.context
    N, Z, N2 = overmonoid_N(H), overmonoid_Z(H), overmonoid_N(H)
    # the first index with a twin, with its next twin, in combinations order
    for overs, pair in (([N, Z, N2], (0, 2)), ([Z, N, N, Z], (0, 3)),
                        ([N, Z, Z, N], (0, 3)), ([N, Z, Z], (1, 2))):
        ss = SystemSpace(H, overs, 4)
        pool = singleton_pool(ctx, overs, 4)
        assert ss.t0_witnesses() == first_unseparated(ss.systems, pool) \
            == pair
        assert (specialization_matrix(ss.space())
                == specialization_matrix(pool_space(ss.systems, pool)))


@pytest.mark.parametrize("name", ["n579", "n2", "nxz", "c3z"])
def test_system_space_reads_product_closures_from_their_members(name):
    """main1's systems at its default bound, read from their members' masks,
    against the general pool space with every closure asked and the
    members hidden: main1's pool and its sets of two adjacent points give
    the same order and the same first unseparated pair."""
    H = monoid_from_file(os.path.join(DATA, name + ".json"))
    ctx = H.context
    small = min(ctx.default_bound, 4)  # main1's bound for the space
    overs = enumerate_overmonoids(H)
    ss = SystemSpace(H, overs, small)
    space = ss.space()
    hidden = [ModuleSystem(r.name, ctx, rule=r.closure) for r in ss.systems]
    pool = singleton_pool(ctx, overs, small)
    pool += [S | T for S, T in zip(pool, pool[1:])]
    oracle = pool_space(hidden, pool)
    assert oracle.labels == space.labels
    assert specialization_matrix(oracle) == specialization_matrix(space)
    assert ss.t0_witnesses() == first_unseparated(hidden, pool)
    with pytest.raises(ValueError):
        pool_space(hidden[:1], [frozenset()])


@settings(max_examples=100, deadline=None)
@given(MONOIDS, st.data())
def test_s_and_example16_are_the_product_closure_of_H(H, data):
    # s = iota(H) on every realization; example16 is that closure without
    # the zero in A, and all of G with it
    ctx = H.context
    window = ctx.window(3)
    nonzero = [g for g in window if g is not INF and g != ctx.zero]
    A = data.draw(st.sets(st.sampled_from(nonzero), max_size=4)
                  if nonzero else st.just(set()))
    s, i, e16 = s_system(H), iota(as_overmonoid(H)), example16(H)
    for X in (frozenset(A), frozenset(A) | {ctx.zero}):
        ps, pi, pe = s.closure(X), i.closure(X), e16.closure(X)
        for g in [*window, INF, 0.5]:  # 0.5 is off every carrier
            assert ps(g) == pi(g), (X, g)
            assert pe(g) == (ctx.contains(g) if ctx.zero in X else ps(g)), \
                (X, g)


def bounded_members(S, ctx):
    """The members s of S with a s = g for some a, g in ``ctx.window(3)``,
    and possibly more, enumerated without asking S: the generator sums of
    ``test_monoid.reachable`` on the int and lattice carriers, a
    breadth-first search of the Cayley table on the finite one."""
    gens = [g for g in S.gens if g is not INF and g != ctx.zero]
    if isinstance(ctx, FiniteCarrier):
        seen, frontier = {ctx.one}, [ctx.one]
        while frontier:
            v = frontier.pop()
            for w in (ctx.op(v, g) for g in gens):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        return seen
    if isinstance(ctx, IntCarrier):
        return {v for (v,) in reachable([(g,) for g in gens],
                                        6 + max(map(abs, gens)))}
    # Steinitz lemma (constant <= the dimension): a sum of generators of
    # sup-norm <= M that lands in the radius-6 box reorders so that every
    # partial sum stays in the box of radius 6 + dim * M
    M = max(abs(c) for g in gens for c in g)
    return reachable(gens, 6 + ctx.dim * M)


@settings(max_examples=100, deadline=None)
@given(MONOIDS, st.data())
def test_closure_matches_a_bounded_enumeration_of_its_members(H, data):
    # g is in A_r iff g is the zero or every member S has a nonzero a in A
    # and an s in S with a s = g, or A holds the zero and S is filled; the
    # empty list closes A to all of G
    ctx = H.context
    members = data.draw(st.lists(
        st.sampled_from([H, as_overmonoid(H), group_of(H)]), max_size=2))
    filled = data.draw(st.sets(st.sampled_from(range(len(members))))
                       if members else st.just(set()))
    window = ctx.window(3)
    A = frozenset(data.draw(st.sets(st.sampled_from(window), max_size=3)))
    nonzero = [a for a in A if a is not INF and a != ctx.zero]
    held = len(nonzero) < len(A)
    products = [{ctx.op(a, s) for a in nonzero
                 for s in bounded_members(S, ctx)}
                for i, S in enumerate(members) if not (held and i in filled)]
    pred = ModuleSystem("r", ctx, members, filled).closure(A)
    for g in window:
        expected = g == ctx.zero or all(g in P for P in products)
        assert pred(g) == expected, (members, filled, A, g)
