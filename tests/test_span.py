"""Box masks of the additive carriers against their pointwise predicates,
and the axiom checkers with and without masks."""

import os
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import monoid, window
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
        ctx.inv(g) for g in H.generators), name="G")
    overs = [H, as_overmonoid(H), group]
    overs += [localize(H, P) for P in enumerate_primes(H, 2)]
    if H.dim == 2:
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
    """A_r read through a window: on the window's box and on each of its
    moves, and as window bits, against the exact predicate; the first moves
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
    w = window._Window(ctx, universe, None, scalars, nonzero,
                       translators).on(r)
    A, pred = frozenset(A), r.closure(A)
    for by in [None, *map(ctx.inv, scalars), *translators]:
        box = w.box if by is None else moved(w.box, ctx, by)
        assert w.read(A, by) & on_lattice(box) == pointwise(pred, box), by
    assert w.mask(A) == sum(w.bit[g] for g in universe if pred(g))


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
    """The line, the plane and the integers have boxes; a finite carrier
    and a lattice of dimension 3 are read point by point."""
    for H in (Monoid.numerical([2, 3]), Monoid.affine([[2], [3]]),
              Monoid.affine([[1, 0], [0, 1]])):
        assert H.context.box(H.context.window(2)) is not None
    for H in (cyclic_group_with_zero(3),
              Monoid.affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]])):
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


@pytest.mark.parametrize("bound", [4, 6, 10])
@pytest.mark.parametrize("name", NUMERICAL)
def test_checkers_agree_with_spans_hidden(name, bound):
    H = monoid_from_file(os.path.join(DATA, name + ".json"))
    overs = enumerate_overmonoids(H)
    # the last monoid misses H, so M4 fails
    thin = Overmonoid(H.context, gens=H.generators[-1:], name="thin")
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


def test_passing_systems_never_reach_the_point_loops(monkeypatch):
    """Id3 and M4 settle every pair of a passing system as integers, on the
    integers and in the plane: no reader is asked about a point, and
    neither scan opens a reader for any set but the A it scans."""
    readers, reads = [], []
    real = window._Window.reader

    def counting(self, A):
        readers.append(A)
        member = real(self, A)

        def counted(g):
            reads.append(g)
            return member(g)

        return counted

    monkeypatch.setattr(window._Window, "reader", counting)
    for H, bound in ((Monoid.numerical([2, 3]), 4),
                     (Monoid.affine([[1, 0], [0, 1]]), 1)):
        overs = build(H)[1]
        for r in (s_system(H), iota(overs[-1]), iota(overs[1])):
            readers.clear()
            reads.clear()
            checks = {c.name: c for c in check_module_axioms(
                [r], H, bound=bound)[0]}
            assert all(c.ok and c.exhaustive for c in checks.values())
            assert len(readers) == 2 * checks["M4"].n
            assert reads == []


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
    example16's sets with the zero included, is planned, and agrees with
    the exact predicate on the box it is read on.  At a cap of one cell no
    read is planned, and every closure is read point by point: the same
    verdicts."""
    real = window._Window.read
    log = []

    def checked(self, A, by=None):
        bits = real(self, A, by)
        if bits is not None:
            box = self.box if by is None else moved(self.box, self.ctx, by)
            assert (bits & on_lattice(box)
                    == pointwise(self.r.closure(A), box)), (self.r, A, by)
        log.append((A, bits is not None))
        return bits

    monkeypatch.setattr(window._Window, "read", checked)
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
