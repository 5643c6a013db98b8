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
                                   example16, iota, is_finitary, meet, r_delta)
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


def on(box, g):
    """Whether the carrier point g is a cell of the box."""
    x, y = cell(box.ctx, g)
    return (box.x0 <= x < box.x0 + box.rows
            and box.y0 <= y < box.y0 + box.cols)


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


@settings(max_examples=150, deadline=None)
@given(spec=inputs(),
       system=st.sampled_from(["r_delta", "iota", "s_system", "example16",
                               "meet"]),
       picks=st.lists(st.integers(0, 50), min_size=1, max_size=3))
def test_span_matches_the_predicate(spec, system, picks):
    kind, gens, A, boxes = spec
    # narrow boxes first, so the members' masks grow, then wide first; a
    # box narrower than A's spread reads across the rows of its members
    for order in (sorted(boxes, key=lambda b: b[2] * b[3]),
                  sorted(boxes, key=lambda b: -b[2] * b[3])):
        H, overs = build(monoid_of(kind, gens))
        chosen = [overs[i % len(overs)] for i in picks]
        r = {"r_delta": lambda: r_delta(DeltaFamily(chosen), H.context),
             "iota": lambda: iota(chosen[0]),
             "s_system": lambda: s_system(H),
             "example16": lambda: example16(H),
             "meet": lambda: meet([iota(S) for S in chosen])}[system]()
        pred, read = r.closure(A), r.mask(A)
        for x0, y0, rows, cols, pad in order:
            box = Box(H.context, x0, y0, rows, cols, cols + pad)
            assert read(box) == pointwise(pred, box), (A, x0, y0, rows, cols)


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
    assert iota(as_overmonoid(H)).mask({(1, 0)})(big) is None
    for r in (s_system(H), example16(H)):
        assert same_checks(r, H, 2)


def hidden(r):
    """The same system read point by point."""
    if isinstance(r, IdealSystem):
        return IdealSystem(r.name, r.H, r.closure)
    return ModuleSystem(r.name, r.context, r.closure)


def broken(H):
    """s-systems broken as in test_axioms, with masks, so that the checkers'
    integer paths meet failing axioms; e is 1 on the int carrier and H's
    first generator on a lattice."""
    s, ctx = s_system(H), H.context
    e = 1 if H.kind == "numerical" else H.generators[0]

    def times(n):
        g = ctx.one
        for _ in range(n):
            g = ctx.op(g, e)
        return g

    def plus(q):
        """The s-closure with the point q added, when q is given."""
        def closure(X):
            p, g = s.closure(X), q(X)
            return lambda h: h == g or p(h)

        def mask(X):
            f, g = s.mask(X), q(X)
            return lambda box: f(box) | (
                1 << box.bit(g) if g is not None and on(box, g) else 0)

        return closure, mask

    def shifted(X):
        p = s.closure(X)
        return lambda g: g is INF or p(ctx.op(g, ctx.inv(e)))

    def shifted_mask(X):
        f, (x, y) = s.mask(X), cell(ctx, e)
        return lambda box: f(Box(ctx, box.x0 - x, box.y0 - y, box.rows,
                                 box.cols, box.stride))

    return [IdealSystem("shifts_by_one", H, shifted, shifted_mask),
            IdealSystem("depends_on_size", H,
                        *plus(lambda X: times(len(X)))),
            # 3e once X has two points: Id3 holds on smaller X
            IdealSystem("three_for_pairs", H,
                        *plus(lambda X: times(3) if len(X) > 1 else None))]


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
               meet([iota(S) for S in overs[1:4]])]
    for r in systems:
        assert same_checks(r, H, bound), r


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


def on_cells(box):
    """The bits of the box's cells and of INF, in its layout."""
    return pointwise(lambda g: True, box)


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
    """Every set a plan reads: the plan's read on the wide box, the
    system's read on the set's own box and the exact predicate agree on
    the reach box.  Then with the wide box past the mask cap, where the
    sets fall back to their own boxes, and with both past it, where they
    are read point by point: the same verdicts."""
    real_planned, real_span = window._Window._planned, Overmonoid.span_mask
    log, areas = [], []

    def checked(self, A, f):
        bits = real_planned(self, A, f)
        if f.members and self.ctx.box(A):  # a product with points
            box, own = self.reach, f(self.reach)
            exact = pointwise(self.r.closure(A), box)
            assert bits is None or bits & on_cells(box) == exact
            assert own is None or own == exact
            log.append((bits is not None, own is not None))
        return bits

    def span(self, box):
        areas.append(box.rows * box.cols)
        return real_span(self, box)

    monkeypatch.setattr(window._Window, "_planned", checked)
    monkeypatch.setattr(Overmonoid, "span_mask", span)
    verdicts = {}
    for cap in (None, "wide", 1):
        if cap == "wide":  # one cell below the widest box, the plan's
            monkeypatch.setattr(monoid, "MAX_SPAN_BITS", max(areas) - 1)
        elif cap:
            monkeypatch.setattr(monoid, "MAX_SPAN_BITS", cap)
        log.clear()
        H, overs, bound = plan_carrier(name)
        verdicts[cap] = [[c.to_dict() for c in checks] for checks in
                         check_module_axioms(plan_systems(H, overs), H,
                                             bound=bound)]
        planned, own = zip(*log)
        if cap is None:
            assert all(planned)
        elif cap == "wide":
            assert not any(planned) and any(own)
        else:
            assert not any(planned) and not any(own)
    assert verdicts[None] == verdicts["wide"] == verdicts[1]


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
