"""Box masks of the additive carriers against their pointwise predicates,
and the axiom checkers with and without masks."""

import functools
import os
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from monoid_spectra import cli, intgeom, monoid, packs, window
from monoid_spectra.errors import UnsupportedRealization
from monoid_spectra.idealsys import (IdealSystem, check_ideal_axioms,
                                     enumerate_primes, s_system)
from monoid_spectra.modsys import (ModuleSystem, check_id2,
                                   check_idempotent, check_module_axioms,
                                   example16, iota, is_finitary, meet,
                                   system_window)
from monoid_spectra.monoid import (INF, Box, IntCarrier, Monoid, Overmonoid,
                                   Table, as_overmonoid, localize,
                                   monoid_from_file)
from monoid_spectra.valuation import (CANDIDATES, ValuationDescriptor,
                                      WindowRead, enumerate_overmonoids,
                                      enumerate_zar)
from oracles import (RuleSet, cyclic_group_with_zero, finitary_by_subsets,
                     id3_item_by_item, m2_pair_by_pair, rule_system)

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
        overs += enumerate_zar(WindowRead(H, 2))
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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=inputs(),
       system=st.sampled_from(["members", "iota", "s_system", "example16",
                               "meet", "meet16"]),
       picks=st.lists(st.integers(0, 50), min_size=1, max_size=3),
       moves=st.lists(st.integers(0, 50), max_size=4))
def test_span_matches_the_predicate(spec, system, picks, moves):
    """A_r read through a window: on the reach box, and on the window's box
    and on each of its moves, against the exact predicate; the first moves
    are Id3 scalars, the others M4 translators.  A meet of iota(S) and
    example16 fills only example16's member for an A with the zero."""
    kind, gens, A, _ = spec
    H, overs = build(monoid_of(kind, gens))
    ctx = H.context
    chosen = [overs[i % len(overs)] for i in picks]
    r = {"members": lambda: ModuleSystem("r", ctx, chosen),
         "iota": lambda: iota(chosen[0]),
         "s_system": lambda: s_system(H),
         "example16": lambda: example16(H),
         "meet": lambda: meet([iota(S) for S in chosen]),
         # a filled member beside an unfilled one, perhaps H itself
         "meet16": lambda: meet([iota(chosen[0]), example16(H)])}[system]()
    universe = ctx.window(2)
    nonzero = universe[:-1]
    picked = [nonzero[i % len(nonzero)] for i in moves]
    half = len(picked) // 2
    scalars, translators = picked[:half], picked[half:]
    w = window._Window(ctx, universe, [r], scalars, nonzero, translators)
    pack, = w.packs
    A, pred = frozenset(A), r.closure(A)
    bits = pack.read(A)
    assert bits & lattice_cells(w.reach) == pointwise(
        lambda g: g is not INF and pred(g), w.reach)
    for by in [None, *map(ctx.inv, scalars), *translators]:
        box = w.box if by is None else moved(w.box, ctx, by)
        assert pack.at(bits, by) & on_lattice(box) == pointwise(pred, box), by


def negated(vs, k):
    """`vs` with the negatives of its first k vectors: units of rank 1, or
    of rank 2 when two of those are independent."""
    return vs + [tuple(-c for c in v) for v in vs[:k]]


# plane generators past `plane`: units of rank 1 and 2, and thin cones
# whose members lie far from 0 along a long generator
units = st.builds(negated, st.lists(vectors, min_size=1, max_size=3),
                  st.integers(1, 2))
thin = st.builds(lambda a, b, s: [(1, 0), (-a, b)] if s else [(1, a), (1, a + b)],
                 st.integers(3, 4000), st.integers(1, 3), st.booleans())


@st.composite
def span_inputs(draw):
    """A carrier kind with generators, and boxes of every offset, most of
    them missing 0, with strides up to several times their width."""
    kind = draw(st.sampled_from(["numerical", "line", "plane"]))
    gens = draw({"numerical": generators, "line": line,
                 "plane": st.one_of(plane, units, thin)}[kind])
    flat = kind != "plane"
    boxes = draw(st.lists(st.tuples(
        st.just(0) if flat else st.integers(-12, 12), st.integers(-20, 20),
        st.just(1) if flat else st.integers(1, 9), st.integers(1, 16),
        st.integers(0, 40)), min_size=1, max_size=5))
    return kind, gens, boxes


def descriptors(H):
    """Every valuation H's carrier gives, each held to its ``has``: V(N)
    and V(Z) on the integers, found by name in H's Zar carrier; in the
    plane every weight and tiebreak, and the trivial valuation, found by
    name there; on a line, which has no Zar carrier, its overmonoids, H
    and G among them."""
    ctx = H.context
    if not isinstance(ctx, IntCarrier) and ctx.dim == 1:
        return ctx.overmonoids(H)
    zar = {V.name: V for V in enumerate_zar(WindowRead(H, 4))}
    if isinstance(ctx, IntCarrier):
        return [zar["V(N)"], zar["V(Z)"]]
    return [ValuationDescriptor(ctx, w, t)
            for w, t in CANDIDATES] + [zar["V(trivial)"]]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(spec=span_inputs(), picks=st.lists(st.integers(0, 50), max_size=4))
@example(spec=("plane", [(1, 0), (-10000, 1)], [(0, 0, 3, 4, 2)]), picks=[])
def test_span_mask_matches_has(spec, picks):
    """Every overmonoid's mask, H and its localizations at every prime
    among them, against its pointwise membership."""
    kind, gens, boxes = spec
    H, overs = build(monoid_of(kind, gens))
    locs = [S for S in overs if S.name == "localization"]
    for M in [H, *locs] + [overs[i % len(overs)] for i in picks]:
        for x0, y0, rows, cols, pad in boxes:
            box = Box(H.context, x0, y0, rows, cols, cols + pad)
            assert M.span_mask(box) == pointwise(
                lambda g: g is not INF and M.contains(g), box), (M, box)


# the plane carriers of `PLANE` and two sublattices of index 3 and 4, with
# boxes in every quadrant, on the axes and around 0
DESCRIPTOR_CARRIERS = PLANE + [[[3, 0], [1, 1]], [[2, 0], [0, 2], [1, 1]],
                               [[4, 1], [0, 1]]]
DESCRIPTOR_BOXES = [(-5, -5, 11, 11, 11), (0, 0, 1, 9, 12), (-4, 0, 9, 1, 3),
                    (2, -7, 4, 5, 30), (-7, 3, 3, 6, 6), (-1, -9, 3, 18, 19),
                    (6, 6, 2, 2, 9)]


@pytest.mark.parametrize("gens", DESCRIPTOR_CARRIERS + [[[2], [3]],
                                                        [[2], [-4]]])
def test_every_descriptor_mask_matches_its_rule(gens):
    """Every weight and tiebreak and the trivial valuation, on full and
    sublattice carriers, and H and G on a line, against their ``has`` cell
    by cell."""
    H = Monoid.affine(gens)
    ctx = H.context
    boxes = DESCRIPTOR_BOXES if ctx.dim == 2 else [
        (0, y0, 1, cols, cols + pad) for _, y0, _, cols, pad in
        DESCRIPTOR_BOXES]
    for V in descriptors(H):
        for x0, y0, rows, cols, stride in boxes:
            box = Box(ctx, x0, y0, rows, cols, stride)
            assert V.span_mask(box) == pointwise(
                lambda g: g is not INF and V.contains(g), box), (V, box)


def test_int_descriptors_match_their_rules():
    """V(N) and V(Z) on int boxes from below 0 to past it."""
    H = Monoid.numerical([2, 3])
    ctx = H.context
    for V in descriptors(H):
        for y0 in range(-8, 3):
            for cols in (1, 5, 12):
                box = Box(ctx, 0, y0, 1, cols, cols + 2)
                assert V.span_mask(box) == pointwise(
                    lambda g: g is not INF and V.contains(g), box), (V, box)


def test_plane_masks_ask_no_cell():
    """H, a localization and a valuation on n2's wide box at bound 8: no
    ``has``, so no rule, and no ``intgeom.monoid_contains``; each mask is
    the pointwise one."""
    H = monoid_from_file(os.path.join(DATA, "n2.json"))
    ctx = H.context
    loc = next(L for L in map(functools.partial(localize, H),
                              enumerate_primes(H))
               if not all(map(H.contains, L.gens)))
    V = ValuationDescriptor(ctx, (1, -2), -1)
    wide = WindowRead(H, 8).window.wide
    asked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Overmonoid, "has", lambda self, g: asked.append(g))
        mp.setattr(intgeom, "monoid_contains",
                   lambda gens, g: asked.append(g))
        masks = [S.span_mask(wide) for S in (H, loc, V)]
    assert asked == []
    for S, m in zip((H, loc, V), masks):
        assert m == pointwise(lambda g: g is not INF and S.contains(g), wide)


THIN = [[1, 0], [-10000, 1]]


@pytest.mark.parametrize("gens, box", [
    # N^2 on a box off 0, and far from it
    ([[1, 0], [0, 1]], (3, 3, 3, 3, 5)),
    ([[1, 0], [0, 1]], (900, 880, 4, 5, 5)),
    # units of rank 1: rows -2 and -1 have w < 0 and hold no member
    ([[1, 0], [0, 1], [0, -1]], (-2, 4, 4, 3, 3)),
    ([[1, 0], [0, 1], [0, -1]], (2500, -3000, 3, 6, 9)),
    # two Apery points in one coset, and k of them for <(1,0),(0,1),(-1,k)>
    ([[4, 0], [0, 4], [1, 3], [3, 1]], (301, 297, 6, 7, 7)),
    ([[1, 0], [0, 1], [-1, 50]], (-20, 990, 5, 30, 31)),
    # the thin cone, along its long generator and past it
    (THIN, (-30000, 2, 3, 8, 8)), (THIN, (-10003, 1, 7, 5, 6)),
])
def test_plane_spans_ask_no_cell(gens, box):
    """A generator-backed plane overmonoid's mask asks no cell, on boxes
    far from 0 as on boxes around it, and matches the pointwise read."""
    H = Monoid.affine(gens)
    box = Box(H.context, *box)
    expected = pointwise(lambda g: g is not INF and H.contains(g), box)
    S = as_overmonoid(H)
    asked = []
    S.has = lambda g, S=S: asked.append(g) or Overmonoid.has(S, g)
    assert S.span_mask(box) == expected and asked == []


def test_thin_cone_masks_ask_no_cell(monkeypatch):
    """main1 on the thin cone at bound 4 reads H and its localizations on
    its wide layouts asking no cell (its separating generators are asked
    through ``has``, outside any mask), and each mask is the pointwise
    one."""
    span_mask, has = Overmonoid.span_mask, Overmonoid.has
    reading, asked, reads = [], [], []

    def spy_span(self, box):
        reading.append(self)
        try:
            bits = span_mask(self, box)
        finally:
            reading.pop()
        if self.gens is not None:
            reads.append((self, box, bits))
        return bits

    monkeypatch.setattr(Overmonoid, "span_mask", spy_span)
    monkeypatch.setattr(Overmonoid, "has", lambda self, g: (
        reading and reading[-1].gens is not None and asked.append(g))
        or has(self, g))
    report, _ = cli.run_suite("main1", Monoid.affine(THIN), bound=4, seed=0)
    monkeypatch.undo()
    assert report.ok and asked == [] and reads
    for S, box, bits in reads:
        assert bits == pointwise(
            lambda g: g is not INF and S.contains(g), box), (S, box)


def test_masks_need_a_box_layout():
    """The line, the plane and the integers have boxes and a finite carrier
    has its table row; a lattice of dimension 3 is refused where it is
    built, so no carrier reads point by point."""
    for H in (Monoid.numerical([2, 3]), Monoid.affine([[2], [3]]),
              Monoid.affine([[1, 0], [0, 1]]), cyclic_group_with_zero(3)):
        assert isinstance(H.context.box(H.context.window(2)), (Box, Table))
    with pytest.raises(UnsupportedRealization,
                       match="affine monoids are implemented for dimension"):
        Monoid.affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def hidden(r):
    """The same system without its members, read from its closures laid out
    cell by cell (``rule_system``)."""
    if isinstance(r, IdealSystem):
        return rule_system(IdealSystem, r.name, r.H, r.closure)
    return rule_system(ModuleSystem, r.name, r.context, r.closure)


def broken(H):
    """Product closures over rule-backed sets that are no overmonoids, so
    that the checkers' integer paths meet failing axioms: H without the
    identity fails Id1, and the identity alone, which misses H, fails
    M4."""
    ctx = H.context
    no_one = RuleSet(ctx, rule=lambda g: g != ctx.one and H.has(g),
                     name="no_one")
    one = RuleSet(ctx, rule=lambda g: g == ctx.one, name="one")
    return [IdealSystem(S.name, H, [S]) for S in (no_one, one)]


def fails(checks, name):
    """Whether the check named `name` is a FAIL."""
    return next(c for c in checks if c.name == name).ok is False


def same_checks(r, H, bound):
    """The checkers give the same lines with masks and from the closures."""
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
        overs = enumerate_overmonoids(H)
    else:
        H = monoid_from_file(os.path.join(DATA, name + ".json"))
        overs = enumerate_overmonoids(H)
    thin = thin_of(H)
    ideal_systems = [s_system(H)] + broken(H)
    systems = ideal_systems + [
        example16(H), iota(thin),
        ModuleSystem("r_overs", H.context, overs[1:3] + overs[-1:])]
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
               iota(overs[-1]), ModuleSystem("r_overs", H.context,
                                             overs[2:5]),
               meet([iota(S) for S in overs[1:4]])]
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
    verdicts in a call of its own, which equal its run with its members
    hidden."""
    H = (Monoid.affine([[2, 0], [3, 0]]) if name == "line" else
         cyclic_group_with_zero(4) if name == "z4" else
         monoid_from_file(os.path.join(DATA, name + ".json")))
    bound = MAIN1[name]
    systems = [*map(iota, enumerate_overmonoids(H)), example16(H),
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
    each system gets the verdicts of its one-slot run and of its run with
    its members hidden."""
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


def test_scans_never_ask_a_named_system_its_closure(monkeypatch):
    """Every item of a system that names its members is settled as
    integers, on the integers, in the plane and on a finite table, in the
    module and the ideal axioms: its ``closure`` is never asked, whether it
    passes or fails, and a failing system's witness comes from its bits."""
    asked = []
    real = ModuleSystem.closure

    def counting(self, A):
        asked.append(self)
        return real(self, A)

    monkeypatch.setattr(ModuleSystem, "closure", counting)
    for H, bound in ((Monoid.numerical([2, 3]), 4),
                     (Monoid.affine([[1, 0], [0, 1]]), 1),
                     # boxes one column wide: INF takes the guard bit
                     (Monoid.affine([[2, 0], [3, 0]]), 2),
                     (cyclic_group_with_zero(3), 10)):
        overs = build(H)[1]
        systems = [s_system(H), iota(overs[-1]), iota(overs[1])]
        thin = Overmonoid(H.context, gens=H.generators[-1:], name="thin")
        asked.clear()  # the primes of ``build`` ask the s-system
        for checks in [*check_module_axioms(systems, H, bound=bound),
                       check_ideal_axioms(s_system(H), H, bound)]:
            assert all(c.ok and c.exhaustive for c in checks)
        *_, checks = check_module_axioms([*systems, iota(thin)], H,
                                         bound=bound)
        assert fails(checks, "M4")
        assert asked == []


def test_id4_fails_off_the_identity():
    """Z/4 with a zero, relabelled so that the identity is element 2 and
    element 0 comes first: Id4 fails at c = 0 for both ``broken(H)``
    systems, packed and with their members hidden, alike."""
    H = Monoid.finite([[4, 1, 0, 2, 3], [1, 1, 1, 1, 1], [0, 1, 2, 3, 4],
                       [2, 1, 3, 4, 0], [3, 1, 4, 0, 2]], one=2, zero=1)
    lines = []
    for systems in (broken(H), list(map(hidden, broken(H)))):
        lines.append([next(c.to_dict() for c in check_ideal_axioms(r, H)
                           if c.name == "Id4") for r in systems])
    assert lines[0] == lines[1]
    assert [(d["verdict"], d["witness"], d["n"]) for d in lines[0]] == [
        ("FAIL", {"c": "0", "h": "2"}, 1), ("FAIL", {"c": "0", "h": "0"}, 1)]


@pytest.mark.parametrize("name", sorted(MAIN1))
def test_a_bit_names_its_slot(name):
    """Every window point's bit in every slot of a pack that is not full
    names that slot, in every row of the box."""
    H, bound, systems, _ = main1_pool(name)
    ctx = H.context
    universe = ctx.window(bound)
    w = window._Window(ctx, universe, systems, (), universe[:-1])
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
    for scan in (("Id2", w.id2, "AB", "B"), ("idempotent", w.idempotent)):
        with pytest.raises(ValueError, match="one system"):
            w.verdicts(draw, scan)


def test_a_shared_window_is_refused_for_another_system():
    """check_id2, check_idempotent and is_finitary scan the window they are
    given only when it is a window of their own system."""
    H = Monoid.numerical([2, 3])
    r, other = s_system(H), iota(as_overmonoid(H))
    w = system_window(other, 2)
    for check in (check_id2, check_idempotent, is_finitary):
        with pytest.raises(ValueError, match="another system"):
            check(r, bound=2, window=w)
        assert check(other, bound=2, window=w).to_dict() == check(
            other, bound=2).to_dict()


def plan_systems(H, overs):
    """iota, a 3-member system, a meet, example16, the s-system, a meet
    with a filled part, example16's, and all of G, the product closure of
    no member, whose slot is all padding."""
    ctx = H.context
    return [iota(overs[1]), ModuleSystem("r_overs", ctx, overs[:3]),
            meet([iota(S) for S in overs[1:3]]), example16(H), s_system(H),
            meet([iota(overs[2]), example16(H)]),
            ModuleSystem("G", ctx, [])]


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
    """Below the mask cap every read of a plan is a packed read from the
    columns: A = {}, {0} and sets with the zero and a nonzero point, in one
    pack with a member-less slot (all of G), example16's filled one and
    iotas, and Id3's images cA, read from the columns at the points c a;
    each of its slots agrees with its system's exact predicate on the
    reach box and at the zero, with the columns kept and with a column cap
    of no bit, where each is built for its read and dropped.  With the
    systems' members hidden no read is packed: every read comes from the
    closures on the same reach box, sets and images alike, agrees with the
    predicate at every cell and at the zero, and gives the same
    verdicts."""
    real = packs._Pack.reach
    log = []

    def checked(self, points):
        bits = real(self, points)
        A = frozenset(points)
        reach = self.w.reach
        lattice = on_lattice(reach)
        for s, r in enumerate(self.systems):
            pred = r.closure(A)
            assert (bits >> s * self.width & lattice
                    == pointwise(pred, reach)), (r, A)
        # an image's points come as a list, a set's as the set
        log.append((A, self.packed, isinstance(points, list)))
        return bits

    monkeypatch.setattr(packs._Pack, "reach", checked)
    verdicts = []
    for hide, column_cap in ((False, None), (False, 0), (True, None)):
        log.clear()
        with pytest.MonkeyPatch.context() as mp:
            if column_cap is not None:
                mp.setattr(packs, "MAX_COLUMN_BITS", column_cap)
            H, overs, bound = plan_carrier(name)
            systems = plan_systems(H, overs)
            if hide:
                systems = list(map(hidden, systems))
            verdicts.append([[c.to_dict() for c in checks] for checks in
                             check_module_axioms(systems, H, bound=bound)])
        sets, planned, images = zip(*log)
        assert not any(planned) if hide else all(planned)
        assert frozenset() in sets and frozenset([INF]) in sets
        assert any(INF in A and len(A) > 1 for A in sets)
        assert any(images)
    assert verdicts[0] == verdicts[1] == verdicts[2]


def test_a_plan_reads_each_member_once():
    """main1's systems on <5,7,9> at bound 10: each overmonoid's mask is
    read once per plan, not once per set, and H's once more, on the
    window, for its M4 translators (``members_in``)."""
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
    assert len(reads) == len(set(reads)) + 1 == len(systems) + 1
    assert reads.count(H) == 2


# carriers of the pair-scan oracle: the int line, where the largest bounds
# sample their draws, Z/4 with a zero in its table's row, and two lattices
PAIR_CARRIERS = {"n23": (Monoid.numerical, [2, 3]),
                 "n345": (Monoid.numerical, [3, 4, 5]),
                 "z4": (None, None),
                 "n2": (Monoid.affine, [[1, 0], [0, 1]]),
                 "nxz": (Monoid.affine, [[1, 0], [0, 1], [0, -1]])}
PAIR_CASES = [("n23", 2), ("n23", 4), ("n23", 6), ("n345", 3), ("n345", 7),
              ("z4", 2), ("n2", 1), ("nxz", 1)]


def shrinking(H):
    """A closure that shrinks as A grows, so that M2 and finitariness fail:
    all of G for A of at most one point, AH for a larger A.  No product
    closure shrinks, so it names no members and is read from its closures."""
    ctx = H.context
    small, large = ModuleSystem("G", ctx, []), iota(H)
    return rule_system(ModuleSystem, "shrinking", ctx, lambda A: (
        small if len(A) <= 1 else large).closure(A))


@functools.cache
def pair_systems(name):
    """H with the s-system, ``broken(H)``, example16, ``shrinking(H)``, iota
    of a monoid that misses H (on Z/4 its proper subgroup <2>, whose
    closures are not all of G) and an intersection system."""
    make, gens = PAIR_CARRIERS[name]
    H = cyclic_group_with_zero(4) if make is None else make(gens)
    H, overs = build(H) if make else (H, enumerate_overmonoids(H))
    return H, [s_system(H), *broken(H), example16(H), shrinking(H),
               iota(thin_of(H)),
               ModuleSystem("r_overs", H.context, overs[-2:])]


@pytest.mark.parametrize("hide", [False, True], ids=["packed", "pointwise"])
@settings(derandomize=True, max_examples=8, deadline=None)
@given(case=st.sampled_from(PAIR_CASES), seed=st.integers(0, 5),
       budget=st.sampled_from([20, 60]))
# a sampled finitary draw whose first failing set has three points, so
# that the union below it reaches two points down
@example(case=("n23", 6), seed=2, budget=20)
def test_grouped_scans_agree_with_the_pair_by_pair_oracle(hide, case, seed,
                                                          budget):
    """Id2 in both orders (per Y in check_id2, per X in the ideal axioms),
    M2 and finitariness give the witness and the count of the pair-by-pair
    scan, and of finitariness over all 2^|A| subsets, on every system; read
    packed, and from the closures with its members hidden."""
    name, bound = case
    H, systems = pair_systems(name)
    universe = H.context.window(bound)
    members = [g for g in universe if H.contains(g)]
    if hide:
        systems = list(map(hidden, systems))
    for r in systems:
        found = [check_id2(r, bound, budget, seed),
                 next(c for c in check_ideal_axioms(r, H, bound, seed)
                      if c.name == "Id2"),
                 next(c for c in check_module_axioms([r], H, bound, seed)[0]
                      if c.name == "M2"),
                 is_finitary(r, bound, budget, seed)]
        S = window._Draw(universe, size=2, budget=budget, seed=seed).subsets
        T = window._Draw(members, budget=500, limit=13, seed=seed).head(60)
        U = window._Draw(universe, seed=seed).subsets
        expected = [
            m2_pair_by_pair(r, universe, [(X, Y) for Y in S for X in S],
                            "AB", covered=True),
            m2_pair_by_pair(r, members, [(X, Y) for X in T for Y in T],
                            "XY", covered=True),
            m2_pair_by_pair(r, universe,
                            [(A, B) for A in U for B in U if A < B], "AB"),
            finitary_by_subsets(r, universe, window._Draw(
                universe, budget=budget, seed=seed).subsets)]
        assert [(c.witness, c.n) for c in found] == expected, r


def skewed(H):
    """A closure whose member depends on where A lies, so that Id3 fails:
    the product closure of `thin_of(H)` for a set that holds the identity,
    all of G otherwise; A = {1} and any c other than 1 give c thin against
    G.  It names no members, so it is read from its closures."""
    ctx = H.context
    whole, thin = ModuleSystem("G", ctx, []), iota(thin_of(H))
    return rule_system(ModuleSystem, "skewed", ctx, lambda A: (
        thin if ctx.one in A else whole).closure(A))


@pytest.mark.parametrize("hide", [False, True], ids=["packed", "pointwise"])
@pytest.mark.parametrize("name, bound", [("n23", 4), ("n345", 10),
                                         ("z4", 2), ("n2", 1), ("nxz", 2)])
def test_id3_groups_agree_with_the_item_by_item_oracle(name, bound, hide):
    """Id3 scans one group per subset, of its (A, c): in the module and the
    ideal axioms, each system gets the witness and the count of the scan
    item by item through its exact predicates, ``broken(H)``, which passes
    Id3, ``skewed(H)``, which fails it, and example16, which fails it in
    the ideal axioms at c = 0, where (0A)_r = {0}_r is all of G; read
    packed, and from the closures with their members hidden."""
    H = pair_systems(name)[0]
    ctx = H.context
    systems = [*broken(H), skewed(H), example16(H)]
    if hide:
        systems = list(map(hidden, systems))
    universe = ctx.window(bound)
    nonzero = [g for g in universe if g != ctx.zero]
    members = [g for g in universe if H.contains(g)]
    for module in (True, False):
        if module:
            draw = window._Draw(universe)
            plan = window._plan(ctx, universe, draw, systems, nonzero,
                                [g for g in nonzero if H.contains(g)])
            found = check_module_axioms(systems, H, bound)
            key = "A"
        else:
            draw = window._Draw(members, budget=500, limit=13)
            plan = window._plan(ctx, members, draw, systems, members)
            found = [check_ideal_axioms(r, H, bound) for r in systems]
            key = "X"
        lines = [next((c.witness, c.n) for c in checks if c.name == "Id3")
                 for checks in found]
        assert lines == [id3_item_by_item(r, ctx, draw.head(40),
                                          plan.scalars, plan.points, key)
                         for r in systems], module
        assert lines[0][0] is None and lines[2][0] is not None
        assert (lines[3][0] is None) == module


def no_zero(H):
    """AH without the zero, for every A: a closure that fails Id1 at the
    zero alone.  It names no members, so it is read from its closures."""
    ctx = H.context
    product = iota(H)

    def closure(A):
        member = product.closure(A)
        return lambda g: g != ctx.zero and member(g)

    return rule_system(ModuleSystem, "no-zero", ctx, closure)


@pytest.mark.parametrize("hide", [False, True], ids=["planned", "pointwise"])
@pytest.mark.parametrize("name, bound", [("n23", 4), ("n2", 1), ("nxz", 1),
                                         ("z4", 2)])
def test_systems_read_point_by_point_compare_ints(name, bound, hide):
    """Beside two systems that name their members (or, hidden, name none
    either), eight that name none: the window's plan sizes its rows for
    all ten, so the eight (or all ten) share one pack, which reads every
    set as one int on the window's bit map, and each of them gets the
    verdicts of a window of its own on Id1, M2, Id3, M4 and finitariness.
    Id2 and idempotence scan a window of one system, where each gets the
    verdicts of the system whose members it hides."""
    H, systems = pair_systems(name)
    rules = [*map(hidden, systems), no_zero(H)]
    named = [example16(H), iota(thin_of(H))]
    mixed = [*(map(hidden, named) if hide else named), *rules]
    w = window._Window(H.context, H.context.window(bound), mixed)
    draw = window._Draw(w.universe, budget=200)
    point_packs = [p for p in w.packs if not p.packed]
    assert len(rules) == 8
    assert [p.slots for p in point_packs] == (
        [list(range(len(mixed)))] if hide else
        [list(range(2, len(mixed)))])
    for pack in point_packs:
        assert all(type(pack.box(A)) is int for A in draw.subsets)
    finitary = w.verdicts(draw, ("finitary", w.finitary), exhaustive=False,
                          bound=bound)
    together = check_module_axioms(mixed, H, bound)
    for r, checks, last in zip(mixed, together, finitary):
        assert dicts(checks + last) == dicts(
            check_module_axioms([r], H, bound)[0] + [is_finitary(r, bound)])
    for r, twin in zip(systems, rules):
        assert dicts([check_id2(twin, bound), check_idempotent(twin, bound)]) \
            == dicts([check_id2(r, bound), check_idempotent(r, bound)]), r


@pytest.mark.parametrize("hide", [False, True], ids=["planned", "pointwise"])
@pytest.mark.parametrize("name", ["n23", "n2"])
def test_a_closure_without_the_zero_fails_id1_at_inf(name, hide):
    """A closure that names no members and omits the zero fails Id1 at the
    empty set with g = INF, the zero's bit of the window's layout: alone,
    and beside a system that names its members, or, hidden, names none."""
    H = pair_systems(name)[0]
    other = hidden(example16(H)) if hide else example16(H)
    for systems in ([no_zero(H)], [other, no_zero(H)]):
        id1 = check_module_axioms(systems, H, 2)[-1][0]
        assert (id1.name, id1.ok, id1.witness, id1.n) == (
            "Id1", False, {"A": [], "g": "INF"}, 1)


@pytest.mark.parametrize("name", ["n35", "c3z"])
def test_corollaries_read_each_set_once_per_window(name):
    """corollaries' finitary, idempotence and Id2 checks of one system share
    a window: each set is read once in it and each member's mask built
    once, and a passing Id2 scan is one item per outer set."""
    H = (Monoid.numerical([3, 5]) if name == "n35" else
         monoid_from_file(os.path.join(DATA, name + ".json")))
    reads, masks, items = [], [], []
    reach, span_mask = packs._Pack.reach, Overmonoid.span_mask
    id2 = window._Window.id2

    def counted_reach(self, A):
        reads.append((self.w, A))
        return reach(self, A)

    def counted_span_mask(self, box):
        masks.append((box, self))
        return span_mask(self, box)

    def counted_id2(self, pack, draw, *args):
        scan = list(id2(self, pack, draw, *args))
        items.append((len(scan), len(draw.subsets)))
        return iter(scan)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packs._Pack, "reach", counted_reach)
        mp.setattr(Overmonoid, "span_mask", counted_span_mask)
        mp.setattr(window._Window, "id2", counted_id2)
        rep, _ = cli.run_suite("corollaries", H, bound=10, seed=0)
    id2_checks = [c for c in rep.checks if c.name.endswith(":Id2")]
    windows = {id(w) for w, _ in reads}
    assert len(windows) == len(id2_checks) == len(items)
    assert len({(id(w), A) for w, A in reads}) == len(reads)
    assert masks and len({(id(b), S) for b, S in masks}) == len(masks)
    assert len({id(b) for b, _ in masks}) == len(windows)
    for c, (k, outer) in zip(id2_checks, items):
        assert c.ok and k == outer < c.n, (c.name, k, outer, c.n)


def redundant(H, overs):
    """Product closures with members a pack leaves out (``packs._minimal``):
    H before its overmonoids, and after them, reversed; H listed twice
    around its group G; G filled above an unfilled H, which goes, and an
    unfilled G above a filled H, which stays; H filled twice; and a
    rule-backed copy of H, which H's generators leave out, but which,
    having none, leaves nothing out."""
    ctx = H.context
    G = Overmonoid(ctx, gens=H.generators + tuple(
        ctx.inv(g) for g in H.generators if g != ctx.zero), name="G")
    copy = RuleSet(ctx, rule=H.has, name="copy")
    return [ModuleSystem("overs", ctx, [H, *overs]),
            ModuleSystem("reversed", ctx, [*overs[::-1], H]),
            ModuleSystem("twice", ctx, [H, G, H]),
            ModuleSystem("filled_above", ctx, [H, G], filled=(1,)),
            ModuleSystem("filled_below", ctx, [H, G], filled=(0,)),
            ModuleSystem("filled_twice", ctx, [H, H], filled=(0, 1)),
            ModuleSystem("copy_after", ctx, [H, copy]),
            ModuleSystem("copy_first", ctx, [copy, H])]


@pytest.mark.parametrize("name", ["n23", "n2", "c3z"])
def test_packs_read_product_closures_from_their_minimal_members(name):
    """A pack leaves out a member S when an already kept generator-backed
    member T lies inside it, T unfilled or S filled; every read of each
    slot, at the window's points and the zero, is its full member list's
    predicate (``ModuleSystem.closure``), and every verdict is the one
    read from those predicates, with the members hidden."""
    H, overs = build(monoid_from_file(os.path.join(DATA, name + ".json")))
    systems = redundant(H, overs)
    kept = {r.name: packs._minimal(r) for r in systems}
    copy = systems[-1].members[0]
    G = systems[2].members[1]
    assert {k: kept[k] for k in kept if k != "reversed"} == {
        "overs": ([H], []), "twice": ([H], []),
        "filled_above": ([H], []), "filled_below": ([H, G], [0]),
        "filled_twice": ([H], [0]), "copy_after": ([H], []),
        "copy_first": ([copy, H], [])}
    assert len(kept["reversed"][0]) < len(overs) + 1
    real = packs._Pack.box
    read = []

    def checked(self, A):
        bits = real(self, A)
        w = self.w
        for s, r in enumerate(self.systems):
            pred = r.closure(A)
            assert ([bits >> w.cell[g] + s * self.width & 1
                     for g in w.universe]
                    == [pred(g) for g in w.universe]), (r.name, A)
        read.append(self.packed)
        return bits

    bound = 1 if name == "n2" else 4
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packs._Pack, "box", checked)
        for r in systems:
            assert same_checks(r, H, bound), r.name
        packed = check_module_axioms(systems, H, bound=bound)
    assert any(read) and not all(read)
    assert list(map(dicts, packed)) == list(map(dicts, check_module_axioms(
        list(map(hidden, systems)), H, bound=bound)))


def test_corollaries_pack_one_member_per_system_on_the_integers():
    """On a numerical H both of corollaries' systems are intersection
    systems whose first member lies in every other (R(G|H) from H's own
    semigroup; V(N) inside V(Z)), so each of its packs keeps one member."""
    real = packs._Pack.__init__
    fields = []

    def counted(self, w, slots, packed):
        real(self, w, slots, packed)
        fields.append((len(self._members), [len(r.members)
                                            for r in self.systems]))

    H = monoid_from_file(os.path.join(DATA, "n345.json"))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packs._Pack, "__init__", counted)
        cli.run_suite("corollaries", H, bound=10, seed=0)
    assert [n for n, _ in fields] == [1, 1]
    assert [m for _, m in fields] == [[len(enumerate_overmonoids(H))], [2]]
