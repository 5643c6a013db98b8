"""``layout.Read`` against pointwise ``has``: every read of a set, its
translates by points on and off the planned moves, and inversion, on a
numerical, two planar, the sublattice and a finite carrier, with the box
layout and with a mask cap of no cell, where every set is asked point by
point.  The sets are overmonoids, the primes and, on numerical and finite
inputs, the listed s-ideals, which the layouts read as H's translates:
``Table.translate`` on the finite carrier, ``Box.translate`` on the
others."""

import importlib.util
import os

import pytest

from monoid_spectra import cli, layout, monoid
from monoid_spectra.idealsys import (IdealRead, IdealSystem, RIdeal,
                                     enumerate_ideals, enumerate_primes,
                                     s_system)
from monoid_spectra.layout import Read
from monoid_spectra.modsys import product_closure
from monoid_spectra.monoid import Monoid, Overmonoid, localize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_workloads():
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


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
                Overmonoid(ctx, rule=lambda g: g in (1, 2)),
                *enumerate_ideals(H, s_system(H), 3)]
    half = (lambda g: g > 1) if H.kind == "numerical" else (
        lambda g: 2 * g[0] + g[1] > 1)
    out = [H, *primes, *(localize(H, P) for P in primes),
           Overmonoid(ctx, rule=half)]
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
    # moves off the planned ones too: the inverses of H's generators
    far = [inv(g) for g in H.generators if g != ctx.zero]
    for bound in (1, 2, 3):
        points = ctx.nonzero_window(bound)
        read = Read(ctx, points, moves=points)
        assert (read.layout is None) == (cap == 0), name
        assert read.points == points
        assert read.bits == sorted(read.bits)
        assert [read.point(read.bit(g)) for g in points] == points
        assert read.full == pointwise(read, lambda g: True)
        for S in sets(H):
            m = read.mask(S)
            assert m == pointwise(read, S.has), (name, S)
            assert read.inverted(m) == pointwise(
                read, lambda g: S.has(inv(g))), (name, S)
            for x in [*points, *far]:
                assert read.moved(S, x) == pointwise(
                    read, lambda g: S.has(op(x, g))), (name, S, x)
    assert used == (set() if cap == 0 else
                    {"Table"} if H.kind == "finite" else {"Box"}), name


def test_span_mask_reads_only_s_ideals():
    """An r-ideal's ``span_mask`` is XH, so an r-ideal over any system but
    the product closure of [H] with no member filled refuses it, and a
    read of it raises rather than disagree with ``has``."""
    H = Monoid.numerical([2, 3])
    ctx = H.context
    box = ctx.box(range(-3, 8))
    I = RIdeal(s_system(H), (2,))
    assert I.span_mask(box) == sum(1 << b for b, g in box.cells() if I.has(g))
    others = [IdealSystem("filled", H, *product_closure(ctx, [H],
                                                         filled=[H])),
              IdealSystem("rule", H, s_system(H).closure),
              IdealSystem("N", H, *product_closure(
                  ctx, [Overmonoid(ctx, gens=[1])]))]
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
