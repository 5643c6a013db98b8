"""Box masks of the additive carriers against their pointwise predicates,
and the axiom checkers with and without masks."""

import functools
import os
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import cli, monoid, packs, window
from monoid_spectra.idealsys import (IdealSystem, check_ideal_axioms,
                                     enumerate_primes, s_system)
from monoid_spectra.modsys import (DeltaFamily, ModuleSystem, check_id2,
                                   check_idempotent, check_module_axioms,
                                   example16, iota, is_finitary, meet,
                                   product_closure, r_delta)
from monoid_spectra.monoid import (INF, Box, IntCarrier, Monoid, Overmonoid,
                                   as_overmonoid, localize, monoid_from_file)
from monoid_spectra.valuation import enumerate_overmonoids, enumerate_zar
from oracles import cyclic_group_with_zero

DATA = os.path.join(os.path.dirname(__file__), "data")

generators = st.lists(st.integers(2, 9), min_size=1, max_size=3).map(
    lambda gs: sorted(set(gs))).filter(lambda gs: gcd(*gs) == 1)
# index-2 sublattices, N^2, the half plane of nxz, and random rank-2 sets
PLANE = [[[1, 0], [0, 1]], [[1, 0], [0, 1], [0, -1]], [[2, 0], [0, 2]],
         [[1, 1], [1, -1]], [[2, 0], [1, 1]], [[1, 1], [-1, 1], [0, -1]]]
vectors = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)
plane = st.one_of(st.sampled_from(PLANE), st.lists(
    vectors, min_size=2, max_size=4).filter(
        lambda vs: any(a[0] * b[1] != a[1] * b[0] for a in vs for b in vs)))
line = st.lists(st.integers(-4, 4).filter(bool), min_size=1, max_size=3)


def cell(ctx, g):
    """The (row, column) of a carrier point in the box layout."""
    if isinstance(ctx, IntCarrier):
        return 0, g
    return (0, g[0]) if len(g) == 1 else g


def point(ctx, x, y):
    """The carrier point at a cell, built without the layout."""
    if isinstance(ctx, IntCarrier):
        return y
    return (y,) if ctx.dim == 1 else (x, y)


def pointwise(pred, box):
    """A predicate on the box's cells and INF, as a mask in its layout."""
    m = 1 << box.bit(INF) if pred(INF) else 0
    for i in range(box.rows):
        for j in range(box.cols):
            if pred(point(box.ctx, box.x0 + i, box.y0 + j)):
                m |= 1 << i * box.stride + j
    return m


def build(H):
    """H with its overmonoids: all of them on the int carrier; otherwise H,
    its group, its localizations and, in the plane, the rule-backed
    valuations of Zar(G|H).  Fresh objects, so every mask cache is
    empty."""
    if H.kind == "numerical":
        return H, enumerate_overmonoids(H)
    ctx = H.context
    group = Overmonoid(ctx, gens=H.generators + tuple(
        ctx.inv(g) for g in H.generators if g != ctx.zero), name="G")
    overs = [H, as_overmonoid(H), group]
    overs += [localize(H, P) for P in enumerate_primes(H)]
    if H.kind == "affine" and H.dim == 2:
        overs += enumerate_zar(H, bound=2)
    return H, overs


def monoid_of(kind, gens):
    if kind == "numerical":
        return Monoid.numerical(gens)
    return Monoid.affine([[g] for g in gens] if kind == "line" else gens)


@st.composite
def inputs(draw):
    """A kind of carrier with generators, a set A of window points and INF,
    and boxes: one row on the line, shifted rows with padded strides in the
    plane."""
    kind = draw(st.sampled_from(["numerical", "line", "plane"]))
    gens = draw({"numerical": generators, "line": line, "plane": plane}[kind])
    ctx = monoid_of(kind, gens).context
    A = draw(st.sets(st.sampled_from(ctx.window(2)), max_size=4))
    flat = kind != "plane"
    boxes = draw(st.lists(st.tuples(
        st.just(0) if flat else st.integers(-6, 6), st.integers(-12, 12),
        st.just(1) if flat else st.integers(1, 7), st.integers(1, 14),
        st.integers(0, 3)), min_size=1, max_size=5))
    return kind, gens, A, boxes


def on_lattice(box):
    """The bits of the box's lattice cells and of INF, in its layout: a
    read's bits at other cells are unspecified."""
    return pointwise(lambda g: g is INF or box.ctx.contains(g), box)


def lattice_cells(box):
    """The bits of the box's lattice cells, without INF."""
    return pointwise(lambda g: g is not INF and box.ctx.contains(g), box)


def moved(box, ctx, g):
    """The box moved by the carrier point g, in its layout."""
    x, y = cell(ctx, g)
    return Box(ctx, box.x0 + x, box.y0 + y, box.rows, box.cols, box.stride)


@settings(max_examples=150, deadline=None)
@given(spec=inputs(),
       system=st.sampled_from(["r_delta", "iota", "s_system", "example16",
                               "meet"]),
       picks=st.lists(st.integers(0, 50), min_size=1, max_size=3),
       moves=st.lists(st.integers(0, 50), max_size=4))
def test_span_matches_the_predicate(spec, system, picks, moves):
    """A_r read through a window: on the reach box, and on the window's box
    and on each of its moves, against the exact predicate; the first moves
    are Id3 scalars, the others M4 translators."""
    kind, gens, A, _ = spec
    H, overs = build(monoid_of(kind, gens))
    ctx = H.context
    chosen = [overs[i % len(overs)] for i in picks]
    r = {"r_delta": lambda: r_delta(DeltaFamily(chosen), ctx),
         "iota": lambda: iota(chosen[0]),
         "s_system": lambda: s_system(H),
         "example16": lambda: example16(H),
         "meet": lambda: meet([iota(S) for S in chosen])}[system]()
    universe = ctx.window(2)
    nonzero = universe[:-1]
    picked = [nonzero[i % len(nonzero)] for i in moves]
    half = len(picked) // 2
    scalars, translators = picked[:half], picked[half:]
    w = window._Window(ctx, universe, [r], None, scalars, nonzero,
                       translators)
    pack, = w.packs()
    A, pred = frozenset(A), r.closure(A)
    bits = pack.read(A)
    assert bits & lattice_cells(w.reach) == pointwise(
        lambda g: g is not INF and pred(g), w.reach)
    for by in [None, *map(ctx.inv, scalars), *translators]:
        box = w.box if by is None else moved(w.box, ctx, by)
        assert pack.at(bits, by) & on_lattice(box) == pointwise(pred, box), by


@settings(max_examples=80, deadline=None)
@given(spec=inputs(), picks=st.lists(st.integers(0, 50), max_size=3))
def test_span_mask_matches_has(spec, picks):
    kind, gens, _, boxes = spec
    H, overs = build(monoid_of(kind, gens))
    for M in [H] + [overs[i % len(overs)] for i in picks]:
        for x0, y0, rows, cols, pad in boxes:
            box = Box(H.context, x0, y0, rows, cols, cols + pad)
            assert M.span_mask(box) == pointwise(
                lambda g: g is not INF and M.contains(g), box)


def test_masks_need_a_box_layout():
    """The line, the plane and the integers have boxes and a finite carrier
    has its table row; a lattice of dimension 3 is read point by point."""
    for H in (Monoid.numerical([2, 3]), Monoid.affine([[2], [3]]),
              Monoid.affine([[1, 0], [0, 1]]), cyclic_group_with_zero(3)):
        assert H.context.box(H.context.window(2)) is not None
    H = Monoid.affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert H.context.box(H.context.window(1)) is None


def test_a_box_past_the_cap_reads_pointwise(monkeypatch):
    """A box whose cells pass MAX_SPAN_BITS asks no member and keeps no
    mask, and the checkers then read its closures point by point."""
    monkeypatch.setattr(monoid, "MAX_SPAN_BITS", 30)
    H = Monoid.affine([[1, 0], [0, 1]])
    ctx = H.context
    S = as_overmonoid(H)
    asked = []
    S.has = lambda g: asked.append(g) or True
    big = Box(ctx, -3, -3, 6, 6)
    assert S.span_mask(big) is None and asked == []
    assert S.span_mask(Box(ctx, 0, 0, 5, 6)) is not None and len(asked) == 30
    for r in (s_system(H), example16(H)):
        assert same_checks(r, H, 2)


def hidden(r):
    """The same system read point by point."""
    if isinstance(r, IdealSystem):
        return IdealSystem(r.name, r.H, r.closure)
    return ModuleSystem(r.name, r.context, r.closure)


def broken(H):
    """Product closures over rule-backed sets that are no overmonoids, so
    that the checkers' integer paths meet failing axioms: H without the
    identity fails Id1, and the identity alone, which misses H, fails
    M4."""
    ctx = H.context
    no_one = Overmonoid(ctx, rule=lambda g: g != ctx.one and H.has(g),
                        name="no_one")
    one = Overmonoid(ctx, rule=lambda g: g == ctx.one, name="one")
    return [IdealSystem(S.name, H, *product_closure(ctx, [S]))
            for S in (no_one, one)]


def fails(checks, name):
    """Whether the check named `name` is a FAIL."""
    return next(c for c in checks if c.name == name).ok is False


def same_checks(r, H, bound):
    """The checkers give the same lines with masks and point by point."""
    def lines(r):
        checks = check_module_axioms([r], H, bound=bound)[0] + [
            check_id2(r, bound=bound), check_idempotent(r, bound=bound),
            is_finitary(r, bound=bound)]
        if isinstance(r, IdealSystem):
            checks += check_ideal_axioms(r, H, bound=bound)
        return [c.to_dict() for c in checks]

    return lines(r) == lines(hidden(r))


NUMERICAL = ["n23", "n345", "n469", "n579", "n71113", "n81113"]


def thin_of(H):
    """A monoid that misses H, so that iota of it fails M4: the one of H's
    last generator on the integers, the subgroup <2> of Z/4 with a zero."""
    gens = [2] if H.kind == "finite" else H.generators[-1:]
    return Overmonoid(H.context, gens=gens, name="thin")


@pytest.mark.parametrize("bound", [4, 6, 10])
@pytest.mark.parametrize("name", NUMERICAL + ["z4"])
def test_checkers_agree_with_spans_hidden(name, bound):
    if name == "z4":
        H = cyclic_group_with_zero(4)
        overs = cli._curated_overmonoids(H, bound)
    else:
        H = monoid_from_file(os.path.join(DATA, name + ".json"))
        overs = enumerate_overmonoids(H)
    thin = thin_of(H)
    ideal_systems = [s_system(H)] + broken(H)
    systems = ideal_systems + [
        example16(H), iota(thin),
        r_delta(DeltaFamily(overs[1:3] + overs[-1:]), H.context)]
    masked = check_module_axioms(systems, H, bound=bound)
    pointwise = check_module_axioms(list(map(hidden, systems)), H,
                                    bound=bound)
    # M4 needs a translator besides the identity: a generator in the window
    assert fails(masked[1], "Id1")
    assert fails(masked[2], "M4") == (H.generators[0] <= bound)
    for r, checks, expected in zip(systems, masked, pointwise):
        assert ([c.to_dict() for c in checks]
                == [c.to_dict() for c in expected]), r
    for r in ideal_systems:
        assert ([c.to_dict() for c in check_ideal_axioms(r, H, bound=bound)]
                == [c.to_dict() for c in
                    check_ideal_axioms(hidden(r), H, bound=bound)]), r


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("gens", [[[1, 0], [0, 1]], [[1, 0], [0, 1], [0, -1]],
                                  [[1, 1], [1, -1]]],
                         ids=["n2", "nxz", "index2"])
def test_checkers_agree_on_lattice_carriers(gens, bound):
    H, overs = build(Monoid.affine(gens))
    # the last monoid misses H, so M4 fails; overs[2:] are the group, the
    # localizations and the valuations
    thin = Overmonoid(H.context, gens=H.generators[-1:], name="thin")
    systems = [s_system(H), *broken(H), example16(H), iota(thin),
               iota(overs[-1]), r_delta(DeltaFamily(overs[2:5]), H.context),
               meet([iota(S) for S in overs[1:4]]),
               # read point by point, as one of its systems is
               meet([iota(overs[1]), hidden(iota(overs[2]))])]
    for r in systems:
        assert same_checks(r, H, bound), r
    no_one, one = check_module_axioms(systems[1:3], H, bound=bound)
    assert fails(no_one, "Id1") and fails(one, "M4")


def dicts(checks):
    return [c.to_dict() for c in checks]


# main1's carriers with the bound they are scanned at: sampled draws,
# <2,3> on a line of the plane, whose boxes are one column wide, and Z/4
# with a zero, read in its table's row
MAIN1 = {"n579": 10, "n2": 2, "nxz": 2, "line": 2, "z4": 10}


@functools.cache
def main1_pool(name):
    """main1's systems on a carrier, then ``broken(H)`` and iota(thin),
    which fail at different items, with H, the bound and each system's
    verdicts in a call of its own, which equal its point-by-point run."""
    H = (Monoid.affine([[2, 0], [3, 0]]) if name == "line" else
         cyclic_group_with_zero(4) if name == "z4" else
         monoid_from_file(os.path.join(DATA, name + ".json")))
    bound = MAIN1[name]
    systems = [*map(iota, cli._curated_overmonoids(H, bound)), example16(H),
               *broken(H), iota(thin_of(H))]
    alone = [dicts(check_module_axioms([r], H, bound=bound)[0])
             for r in systems]
    for r, expected in zip(systems, alone):
        assert dicts(check_module_axioms([hidden(r)], H, bound=bound)[0]) \
            == expected, r
    return H, bound, systems, alone


@settings(derandomize=True, max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(MAIN1)), data=st.data())
def test_packed_scans_agree_with_each_system_alone(name, data):
    """Random sublists of main1's systems with failing ones, in one pack:
    each system gets the verdicts of its one-slot run and of its
    point-by-point run."""
    H, bound, systems, alone = main1_pool(name)
    picks = data.draw(st.lists(st.sampled_from(range(len(systems))),
                               min_size=1, unique=True))
    packed = check_module_axioms([systems[i] for i in picks], H, bound=bound)
    assert list(map(dicts, packed)) == [alone[i] for i in picks]
    assert any(c["verdict"] == "FAIL" for c in alone[-1])


@pytest.mark.parametrize("per", [1, 2, 3, None])
@pytest.mark.parametrize("name", sorted(MAIN1))
def test_packs_of_any_size_give_the_same_verdicts(name, per, monkeypatch):
    """A cap of `per` slots' bits splits the systems into packs of `per`
    (None: the default cap, one pack), each read after the other, the last
    one possibly not full: the same verdicts as each system alone."""
    H, bound, systems, alone = main1_pool(name)
    if per:
        ctx = H.context
        universe = ctx.window(bound)
        nonzero = [g for g in universe if g != ctx.zero]
        plan = window._plan(ctx, universe, window._Draw(universe), systems,
                            nonzero, [g for g in nonzero if H.contains(g)])
        # a slot's bits on the wide box
        monkeypatch.setattr(monoid, "MAX_SPAN_BITS",
                            per * plan.wide.rows * plan.width)
    sizes = []
    real = packs._Pack.__init__

    def spy(self, w, slots, width):
        sizes.append(len(slots))
        real(self, w, slots, width)

    monkeypatch.setattr(packs._Pack, "__init__", spy)
    packed = check_module_axioms(systems, H, bound=bound)
    n = len(systems)
    per = per or n
    assert sizes == [per] * (n // per) + [n % per] * (n % per > 0)
    assert list(map(dicts, packed)) == alone


def test_passing_systems_never_reach_the_point_loops(monkeypatch):
    """Every item of a passing system is settled as integers, on the
    integers, in the plane and on a finite table: no reader is opened, and
    no point-by-point mask or predicate is asked for a set."""
    opened = []
    for name in ("reader", "mask", "pred"):
        def counting(self, s, A, real=getattr(packs._Pack, name)):
            opened.append(A)
            return real(self, s, A)

        monkeypatch.setattr(packs._Pack, name, counting)
    for H, bound in ((Monoid.numerical([2, 3]), 4),
                     (Monoid.affine([[1, 0], [0, 1]]), 1),
                     # boxes one column wide: INF takes the guard bit
                     (Monoid.affine([[2, 0], [3, 0]]), 2),
                     (cyclic_group_with_zero(3), 10)):
        overs = build(H)[1]
        systems = [s_system(H), iota(overs[-1]), iota(overs[1])]
        opened.clear()
        for checks in check_module_axioms(systems, H, bound=bound):
            assert all(c.ok and c.exhaustive for c in checks)
        assert opened == []
        # a failing system opens readers, and only for its failing items
        thin = Overmonoid(H.context, gens=H.generators[-1:], name="thin")
        *_, checks = check_module_axioms([*systems, iota(thin)], H,
                                         bound=bound)
        assert fails(checks, "M4") and len(set(opened)) == 1


@pytest.mark.parametrize("name", sorted(MAIN1))
def test_a_bit_names_its_slot(name):
    """Every window point's bit in every slot of a pack that is not full
    names that slot, in every row of the box."""
    H, bound, systems, _ = main1_pool(name)
    ctx = H.context
    universe = ctx.window(bound)
    w = window._Window(ctx, universe, systems, None, (), universe[:-1])
    pack = packs._Pack(w, list(range(len(systems) - 1)), True)
    assert pack.stride == len(systems) * pack.width
    for s in range(len(pack.slots)):
        for g in universe:
            assert pack.slot(1 << w.cell[g] + s * pack.width) == s, (s, g)


def test_id2_and_idempotence_refuse_a_window_of_two_systems():
    """Id2 and idempotence read one slot's bits, so a window of more than
    one system is refused, not read as slot 0 for every slot."""
    H = Monoid.numerical([2, 3])
    ctx = H.context
    universe = ctx.window(2)
    draw = window._Draw(universe, size=2)
    w = window._plan(ctx, universe, draw, [s_system(H), iota(
        as_overmonoid(H))])
    pairs = [(A, B) for A in draw.subsets for B in draw.subsets]
    for scan in (("Id2", w.id2, pairs, "AB"), ("idempotent", w.idempotent)):
        with pytest.raises(ValueError, match="one system"):
            w.verdicts(scan)


def plan_systems(H, overs):
    """iota, a 3-member r_delta, a meet, example16 and the s-system."""
    return [iota(overs[1]), r_delta(DeltaFamily(overs[:3]), H.context),
            meet([iota(S) for S in overs[1:3]]), example16(H), s_system(H)]


LATTICES = {"n2": [[1, 0], [0, 1]], "nxz": [[1, 0], [0, 1], [0, -1]],
            "index2": [[1, 1], [1, -1]]}


def plan_carrier(name):
    """A fresh monoid with its overmonoids, and the bound it is read at."""
    if name in LATTICES:
        return build(Monoid.affine(LATTICES[name])) + (1,)
    return build(monoid_from_file(os.path.join(DATA, name + ".json"))) + (6,)


@pytest.mark.parametrize("name", NUMERICAL + list(LATTICES))
def test_plan_reads_agree_with_set_reads_and_the_predicate(name,
                                                           monkeypatch):
    """Below the mask cap every read of a plan, A = {} and {0} and
    example16's sets with the zero included, is a packed read, and each of
    its slots agrees with its system's exact predicate on the reach box.
    At a cap of one cell no read is packed, and every closure is read point
    by point: the same verdicts."""
    real = packs._Pack.reach
    log = []

    def checked(self, A):
        bits = real(self, A)
        if bits is not None:
            reach = self.w.reach
            for s, r in enumerate(self.systems):
                pred = r.closure(A)
                assert (bits >> s * self.width & lattice_cells(reach)
                        == pointwise(lambda g: g is not INF and pred(g),
                                     reach)), (r, A)
        log.append((A, bits is not None))
        return bits

    monkeypatch.setattr(packs._Pack, "reach", checked)
    verdicts = []
    for cap in (None, 1):
        if cap:
            monkeypatch.setattr(monoid, "MAX_SPAN_BITS", cap)
        log.clear()
        H, overs, bound = plan_carrier(name)
        verdicts.append([[c.to_dict() for c in checks] for checks in
                         check_module_axioms(plan_systems(H, overs), H,
                                             bound=bound)])
        sets, planned = zip(*log)
        assert all(planned) if cap is None else not any(planned)
        assert frozenset() in sets and frozenset([INF]) in sets
        assert any(INF in A and len(A) > 1 for A in sets)
    assert verdicts[0] == verdicts[1]


def test_a_plan_reads_each_member_once():
    """main1's systems on <5,7,9> at bound 10: each overmonoid's mask is
    read once per plan, not once per set."""
    H = monoid_from_file(os.path.join(DATA, "n579.json"))
    systems = [*map(iota, enumerate_overmonoids(H)), example16(H)]
    reads = []
    real = Overmonoid.span_mask

    def counted(self, box):
        reads.append(self)
        return real(self, box)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Overmonoid, "span_mask", counted)
        check_module_axioms(systems, H, bound=10)
    assert len(reads) == len(set(reads)) == len(systems)
