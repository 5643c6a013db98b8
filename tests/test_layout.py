"""``layout.Read`` against pointwise ``has``: every read of a set, its
translates by points, a mask's translates inside the layout, inversion and
``layout.translates``, on a numerical, two planar, the sublattice and a finite
carrier, with the box layout and with a mask cap of no cell, where every
set is asked point by point."""

import importlib.util
import os

import pytest

from monoid_spectra import monoid
from monoid_spectra.idealsys import enumerate_primes
from monoid_spectra.layout import Read, translates
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
    """H, its localizations, a set given by a rule alone and, on a finite
    carrier, the submonoid of the identity."""
    ctx = H.context
    if H.kind == "finite":
        return [H, Overmonoid(ctx, gens=[ctx.one]),
                Overmonoid(ctx, rule=lambda g: g in (1, 2))]
    half = (lambda g: g > 1) if H.kind == "numerical" else (
        lambda g: 2 * g[0] + g[1] > 1)
    return [H, *(localize(H, P) for P in enumerate_primes(H)),
            Overmonoid(ctx, rule=half)]


def pointwise(read, member):
    return sum(1 << b for g, b in zip(read.points, read.bits) if member(g))


@pytest.mark.parametrize("cap", [None, 0])
@pytest.mark.parametrize("name, H", inputs())
def test_read_matches_pointwise_has(name, H, cap, monkeypatch):
    if cap is not None:
        monkeypatch.setattr(monoid, "MAX_SPAN_BITS", cap)
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
        inside = set(points)
        products = {op(x, g) for x in points for g in points} - {ctx.zero}
        assert products | inside <= set(translates(ctx, points, points)), name
        for S in sets(H):
            m = read.mask(S)
            assert m == pointwise(read, S.has), (name, S)
            assert read.inverted(m) == pointwise(
                read, lambda g: S.has(inv(g))), (name, S)
            for x in [*points, *far]:
                assert read.moved(S, x) == pointwise(
                    read, lambda g: S.has(op(x, g))), (name, S, x)
                # a mask moves inside the layout: exact where x g is a point
                held = pointwise(read, lambda g: op(x, g) in inside)
                assert read.moved(m, x) & held == pointwise(
                    read, lambda g: op(x, g) in inside
                    and S.has(op(x, g))), (name, S, x)
