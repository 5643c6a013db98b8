"""``layout.Read`` against pointwise ``has``: every read of a set, its
translates by the planned moves, and inversion, on a numerical, two
planar, the sublattice and a finite carrier, with ``MAX_SPAN_BITS`` at its
default and at no cell, which no read depends on, as no span of a set
with generators is capped; a move off the planned ones is refused.  The
sets are overmonoids, sets given by a rule alone and read cell by cell
(``oracles.RuleSet``), the primes and, on numerical and finite inputs,
the listed s-ideals, which the layouts read as H's translates:
``Table.translate`` on the finite carrier, ``Box.translate`` on the
others."""


import pytest

from monoid_spectra import cli, layout, monoid, window
from monoid_spectra.errors import WindowTooLarge
from monoid_spectra.idealsys import (IdealRead, IdealSystem, RIdeal,
                                     check_ideal_axioms, enumerate_ideals,
                                     enumerate_primes, s_system)
from monoid_spectra.layout import Read
from monoid_spectra.modsys import (SystemSpace, check_module_axioms,
                                   embedding_checks)
from monoid_spectra.monoid import (MAX_SPAN_BITS, MAX_WINDOW, Monoid,
                                   Overmonoid, localize)
from monoid_spectra.valuation import WindowRead, enumerate_overmonoids
from oracles import (RuleSet, carrier_cells, cyclic_group_with_zero,
                     load_workloads, rule_system)


def inputs():
    """<2,3>, N^2, N x Z, the inputs of the affine pool whose generators
    span a sublattice, and Z/5 with a zero."""
    workloads = load_workloads()
    out = [("n23", Monoid.numerical([2, 3])),
           ("n2", Monoid.affine([[1, 0], [0, 1]])),
           ("nxz", Monoid.affine([[1, 0], [0, 1], [0, -1]]))]
    for k, gens in enumerate(workloads.affine_pool(20)):
        H = Monoid.affine(gens)
        if not all(map(H.context.contains, [(1, 0), (0, 1)])):
            out.append((f"pool{k}", H))
    out.append(("z5", Monoid.finite(*workloads.cyclic_product((5,)))))
    return out


def sets(H):
    """H, its primes, a set given by a rule alone and, on a finite carrier,
    the submonoid of the identity, otherwise H's localizations; on
    numerical and finite carriers also the s-ideals listed at bound 3."""
    ctx = H.context
    primes = enumerate_primes(H)
    if H.kind == "finite":
        return [H, *primes, Overmonoid(ctx, gens=[ctx.one]),
                RuleSet(ctx, rule=lambda g: g in (1, 2)),
                *enumerate_ideals(H, s_system(H), 3)]
    half = (lambda g: g > 1) if H.kind == "numerical" else (
        lambda g: 2 * g[0] + g[1] > 1)
    out = [H, *primes, *(localize(H, P) for P in primes),
           RuleSet(ctx, rule=half)]
    if H.kind == "numerical":
        out += enumerate_ideals(H, s_system(H), 3)
    return out


def pointwise(read, member):
    return sum(1 << b for g, b in zip(read.points, read.bits) if member(g))


@pytest.mark.parametrize("cap", [None, 0])
@pytest.mark.parametrize("name, H", inputs())
def test_read_matches_pointwise_has(name, H, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(monoid, "MAX_SPAN_BITS", cap)
    # the layouts that read an ideal's translates of H
    used = set()
    for cls in (layout.Box, layout.Table):
        def spy(self, S, x, real=cls.translate):
            used.add(type(self).__name__)
            return real(self, S, x)
        monkeypatch.setattr(cls, "translate", spy)
    ctx = H.context
    op, inv = ctx.op, ctx.inv
    for bound in (1, 2, 3):
        points = ctx.nonzero_window(bound)
        read = Read(ctx, points, moves=points)
        assert read.points == points
        assert read.bits == sorted(read.bits)
        assert [read.point(read.bit(g)) for g in points] == points
        assert read.full == pointwise(read, lambda g: True)
        for S in sets(H):
            # an r-ideal answers membership through its closure alone
            has = S.contains if isinstance(S, RIdeal) else S.has
            m = read.mask(S)
            assert m == pointwise(read, has), (name, S)
            assert read.inverted(m) == pointwise(
                read, lambda g: has(inv(g))), (name, S)
            for x in points:
                assert read.moved(S, x) == pointwise(
                    read, lambda g: has(op(x, g))), (name, S, x)
    assert used == ({"Table"} if H.kind == "finite" else {"Box"}), name
    # a table row serves every move; a box only the planned ones: three
    # times the window's last corner leaves the wide box
    if H.kind != "finite":
        corner = points[-1]
        with pytest.raises(ValueError):
            read.moved(H, op(corner, op(corner, corner)))


def test_span_mask_reads_only_s_ideals():
    """An r-ideal's ``span_mask`` is XH, so an r-ideal over any system but
    the product closure of [H] with no member filled refuses it, and a
    read of it raises rather than disagree with ``has``."""
    H = Monoid.numerical([2, 3])
    ctx = H.context
    box = ctx.box(range(-3, 8))
    I = RIdeal(s_system(H), (2,))
    assert I.span_mask(box) == sum(1 << b for b, g in carrier_cells(box)
                                   if I.contains(g))
    others = [IdealSystem("filled", H, [H], filled=(0,)),
              rule_system(IdealSystem, "rule", H, s_system(H).closure),
              IdealSystem("N", H, [Overmonoid(ctx, gens=[1])])]
    for r in others:
        I = RIdeal(r, (2,))
        with pytest.raises(ValueError):
            I.span_mask(box)
        with pytest.raises(ValueError):
            Read(ctx, range(-3, 8)).mask(I)


@pytest.mark.parametrize("name, gens", [("n23", [2, 3]),
                                        ("n469", [4, 6, 9]),
                                        ("n71113", [7, 11, 13])])
def test_pronconst_lays_out_no_product_points(name, gens, monkeypatch):
    """pronconst's ``IdealRead`` lays out the window's nonzero points, the
    identity and the ideals' generators, and nothing else: the prime flags
    move each ideal's own read, so no product of two window points is a
    point of the read."""
    reads = []
    init = IdealRead.__init__
    monkeypatch.setattr(IdealRead, "__init__", lambda self, *args: init(
        self, *args) or reads.append(self))
    H = Monoid.numerical(gens)
    ctx = H.context
    rep, _ = cli.run_suite("pronconst", H, bound=10, seed=0)
    assert rep.ok
    [read] = reads
    ideals = enumerate_ideals(H, s_system(H), 10)
    assert set(read.read.points) == {
        *ctx.nonzero_window(20), ctx.one,
        *(g for I in ideals for g in I.generators)}, name


def largest_bound(ctx):
    """The largest bound whose window the carrier admits: 2047 on the int
    line and 31 on the plane at MAX_WINDOW = 4096 points.  A finite table
    is its window at every bound, and is read at the int line's."""
    d = ctx.dim or 1
    b = round(MAX_WINDOW ** (1 / d)) // 2
    while (2 * b + 1) ** d > MAX_WINDOW:
        b -= 1
    if ctx.dim:
        with pytest.raises(WindowTooLarge):
            ctx.window(b + 1)
    return b


class Planned(Exception):
    """Raised in place of a scan, once the window's plan is built."""


# an input of each carrier whose generators lie near 0
NEAR = [("n23", Monoid.numerical([2, 3])),
        ("n2", Monoid.affine([[1, 0], [0, 1]])),
        ("nxz", Monoid.affine([[1, 0], [0, 1], [0, -1]])),
        ("index2", Monoid.affine([[1, 1], [1, -1]])),
        ("c3z", cyclic_group_with_zero(3))]


@pytest.mark.parametrize("name, H", NEAR)
def test_every_layout_at_the_largest_bound_fits_the_cap(name, H,
                                                        monkeypatch):
    """At the largest bound each carrier admits, the module and the ideal
    axioms' plans, ``WindowRead``'s read and pronconst's ``IdealRead`` on
    the window of twice the largest bound it admits, each built without a
    scan, lay their wide layouts out on at most MAX_SPAN_BITS cells: the
    window guard keeps every read planned."""
    ctx = H.context
    bound = largest_bound(ctx)
    plans = []

    def planned(self, *args, **kw):
        plans.append(self)
        raise Planned

    monkeypatch.setattr(window._Window, "verdicts", planned)
    for check in (lambda: check_module_axioms([s_system(H)], H, bound),
                  lambda: check_ideal_axioms(s_system(H), H, bound)):
        with pytest.raises(Planned):
            check()
    wides = [w.wide for w in plans] + [WindowRead(H, bound).window.wide]
    if H.kind != "affine":  # the realizations that list s-ideals
        half = bound // 2
        ideals = enumerate_ideals(H, s_system(H), half)
        wides.append(IdealRead(ideals, ctx.window(2 * half)).read.wide)
    assert len(wides) == (3 if H.kind == "affine" else 4)
    cells = [w.rows * w.cols for w in wides]
    assert max(cells) <= MAX_SPAN_BITS, (name, cells)


@pytest.mark.parametrize("name, H", NEAR + [
    ("thin", Monoid.affine([[1, 0], [-10000, 1]]))])
def test_separating_reads_fit_the_cap(name, H, monkeypatch):
    """main1's ``SystemSpace`` and prop1's ``embedding_checks``, at 4, the
    largest bound either reads them at, lay out at most MAX_SPAN_BITS
    cells, also where the overmonoids' generators lie far from the window,
    as the thin cone's localizations' (10000,-1) and (-1,0) do: those
    generators are asked, not laid out."""
    reads = []
    init = Read.__init__

    def planned(self, *args, **kw):
        init(self, *args, **kw)
        reads.append(self)
        raise Planned

    monkeypatch.setattr(Read, "__init__", planned)
    overs = enumerate_overmonoids(H)
    for read in (lambda: SystemSpace(H, overs, 4).space(),
                 lambda: embedding_checks(overs, H.context, 4)):
        with pytest.raises(Planned):
            read()
    cells = [r.wide.rows * r.wide.cols for r in reads]
    assert len(cells) == 2 and max(cells) <= MAX_SPAN_BITS, (name, cells)
