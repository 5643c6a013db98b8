import functools
import importlib.util
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra.errors import UnsupportedRealization
from monoid_spectra.idealsys import RIdeal, enumerate_primes, spec_subbasis
from monoid_spectra.monoid import (INF, Monoid, Overmonoid, as_overmonoid,
                                   localize, monoid_from_file)
from monoid_spectra.valuation import (ValuationDescriptor, WindowRead,
                                      delta, delta_dot, delta_laws,
                                      enumerate_overmonoids, enumerate_zar,
                                      is_s_pruefer, is_valuation,
                                      overmonoid_space)
from oracles import (delta_pointwise, image_law_pointwise,
                     is_s_pruefer_pointwise, is_valuation_pointwise,
                     subbasis, zar_pointwise, zar_space_pointwise)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")


def domination(H, bound):
    """The primes, the Zar carrier and the prime index of each member's
    delta image, with the window read they share."""
    primes = enumerate_primes(H)
    read = WindowRead(H, bound)
    zar = enumerate_zar(read)
    return primes, zar, [delta(V, primes, read) for V in zar], read


def laws(H, bound):
    primes, zar, f, read = domination(H, bound)
    return {c.name: c for c in delta_laws(primes, f, zar,
                                          is_s_pruefer(primes, read).ok,
                                          read)}


def lex_contains(g, w, t):
    """Independent oracle: membership in the weight valuation by direct
    inequality on w and, at ties, on the perpendicular refined by t."""
    s = w[0] * g[0] + w[1] * g[1]
    if s != 0:
        return s > 0
    if t == 0:
        return True
    perp = (-w[1], w[0])
    p = perp[0] * g[0] + perp[1] * g[1]
    return p == 0 or (p > 0) == (t > 0)


def test_weight_descriptor_matches_inequality_oracle():
    ctx = Monoid.affine([[1, 0], [0, 1]]).context
    for w in [(1, 0), (0, 1), (1, 1), (2, 1), (-1, 2)]:
        for t in (-1, 0, 1):
            v = ValuationDescriptor(ctx, "weight", weight=w, tiebreak=t)
            for a in range(-4, 5):
                for b in range(-4, 5):
                    assert v.contains((a, b)) == lex_contains((a, b), w, t), \
                        (w, t, a, b)
            assert v.contains(INF)


def test_descriptor_validation():
    ctx = Monoid.affine([[1, 0], [0, 1]]).context
    with pytest.raises(ValueError):
        ValuationDescriptor(ctx, "weight", weight=(2, 4), tiebreak=0)
    with pytest.raises(ValueError):
        ValuationDescriptor(ctx, "weight", weight=(0, 0), tiebreak=0)
    with pytest.raises(ValueError):
        ValuationDescriptor(ctx, "weight", weight=(1, 0), tiebreak=2)
    with pytest.raises(ValueError):
        ValuationDescriptor(ctx, "nope")


def test_descriptors_are_valuations():
    H = Monoid.affine([[1, 0], [0, 1]])
    ctx, read = H.context, WindowRead(H, 4)
    for w in [(1, 0), (1, 1)]:
        for t in (-1, 0, 1):
            v = ValuationDescriptor(ctx, "weight", weight=w, tiebreak=t)
            assert isinstance(v, Overmonoid)
            assert is_valuation(v, read) is None, (w, t)
    assert is_valuation(ValuationDescriptor(ctx, "trivial"), read) is None


def test_n_squared_itself_is_not_a_valuation():
    H = Monoid.affine([[1, 0], [0, 1]])
    S = Overmonoid(H.context, gens=H.generators, name="N2")
    x = is_valuation(S, WindowRead(H, 4))
    # neither (-4, 1) nor (4, -1) lies in N^2, the first such window point
    assert x == (-4, 1)
    assert not S.contains(x) and not S.contains(H.context.inv(x))


def test_enumerate_overmonoids_numerical():
    H = Monoid.numerical([3, 4, 5])
    carrier = enumerate_overmonoids(H)
    # three oversemigroups plus Z
    assert len(carrier) == 4
    names = {S.name for S in carrier}
    assert "Z" in names
    z = next(S for S in carrier if S.name == "Z")
    assert z.contains(-1)
    # past the integers the carrier is H and its localizations at its
    # primes, one per prime outside the maximal one
    carrier = enumerate_overmonoids(Monoid.affine([[1, 0], [0, 1]]))
    assert [(S.name, S.gens) for S in carrier] == [
        ("H", ((1, 0), (0, 1))),
        ("H_P_zero", ((1, 0), (0, 1), (-1, 0), (0, -1))),
        ("H_P_face[(1, 0)]", ((1, 0), (0, 1), (-1, 0))),
        ("H_P_face[(0, 1)]", ((1, 0), (0, 1), (0, -1)))]
    with pytest.raises(UnsupportedRealization, match="affine monoids are "
                       "implemented for dimension <= 2"):
        Monoid.affine([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_enumerate_zar_numerical_and_affine():
    Hn = Monoid.numerical([2, 3])
    zn = enumerate_zar(WindowRead(Hn, 6))
    assert [v.tag for v in zn] == ["N", "Z"]
    Ha = Monoid.affine([[1, 0], [0, 1]])
    za = enumerate_zar(WindowRead(Ha, 6))
    assert len(za) == 14
    assert any(v.tag == "trivial" for v in za)
    # all contain the generators
    for v in za:
        assert v.contains((1, 0)) and v.contains((0, 1))
    # window profiles pairwise distinct
    window = Ha.context.window(6)
    profs = [frozenset(i for i, g in enumerate(window) if v.contains(g))
             for v in za]
    assert len(set(profs)) == len(profs)


def test_delta_numerical():
    H = Monoid.numerical([2, 3])
    primes = enumerate_primes(H)
    by_name = {p.name: j for j, p in enumerate(primes)}
    read = WindowRead(H, 6)
    zar = enumerate_zar(read)
    vN = next(v for v in zar if v.tag == "N")
    vZ = next(v for v in zar if v.tag == "Z")
    assert delta(vN, primes, read) == by_name["P_max"]
    assert delta(vZ, primes, read) == by_name["P_zero"]


def test_delta_images_affine():
    H = Monoid.affine([[1, 0], [0, 1]])
    primes, zar, f, _ = domination(H, 4)
    images = {repr(v): primes[j].name for v, j in zip(zar, f)}
    assert images["V(trivial)"] == "P_zero"
    # the two lex refinements of the axis weights both hit the maximal ideal
    assert images["V(w=(0, 1),t=-1)"] == "P_max"
    assert images["V(w=(1, 0),t=+1)"] == "P_max"
    # the flat axis weights hit the facet primes
    assert images["V(w=(1, 0),t=+0)"].startswith("P_face")
    assert images["V(w=(0, 1),t=+0)"].startswith("P_face")
    # an interior weight hits the maximal ideal
    assert images["V(w=(1, 1),t=+0)"] == "P_max"


def test_delta_laws_numerical_nonpruefer():
    H = Monoid.numerical([2, 3])
    checks = laws(H, 6)
    assert checks["delta-image-law-lower"].ok
    # the equality is reported informationally with the failure point
    assert checks["delta-image-law"].ok
    assert "fails at 1" in (checks["delta-image-law"].detail or "")


def test_delta_laws_pruefer_instance():
    H = Monoid.affine([[1, 0], [0, 1], [0, -1]])
    assert is_s_pruefer(enumerate_primes(H), WindowRead(H, 4)).ok
    checks = laws(H, 4)
    assert all(c.ok for c in checks.values())
    assert checks["delta-image-law"].witness is None


def test_pruefer_verdicts():
    for H, bound, ok in ((Monoid.numerical([2, 3]), 6, False),
                         (Monoid.affine([[1, 0], [0, 1]]), 4, False),
                         (Monoid.numerical([1]), 6, True)):
        assert is_s_pruefer(enumerate_primes(H),
                            WindowRead(H, bound)).ok == ok


def test_surjectivity_witness():
    H = Monoid.affine([[1, 0], [0, 1]])
    primes, zar, f, _ = domination(H, 4)
    assert set(f) == set(range(len(primes)))


def test_delta_preimage_law_follows_from_the_match():
    # delta^{-1}(D(x)) = B(x^{-1}) on the H-window, which is why delta_laws
    # does not report it
    for H, bound in ((Monoid.numerical([2, 3]), 6),
                     (Monoid.affine([[1, 0], [0, 1]]), 4)):
        primes, zar, f, _ = domination(H, bound)
        ctx = H.context
        for x in ctx.nonzero_window(bound):
            if H.contains(x):
                assert ({i for i, j in enumerate(f)
                         if not primes[j].contains(x)}
                        == {i for i, V in enumerate(zar)
                            if V.contains(ctx.inv(x))}), (H, x)


def test_b_complement_law_and_space():
    # Zar minus B(x) sits inside B(x^{-1}) exactly when every member holds
    # x or x^{-1}, which enumerate_zar's descriptors do by construction
    H = Monoid.affine([[1, 0], [0, 1]])
    read = WindowRead(H, 4)
    zar = enumerate_zar(read)
    assert all(is_valuation(V, read) is None for V in zar)
    assert overmonoid_space(zar, read).is_t0()


def test_ultrafilter_limit_valuation_is_principal():
    H = Monoid.numerical([2, 3])
    carrier = enumerate_overmonoids(H)
    # each overmonoid is its own unique principal limit, that is no other
    # point shares its profile
    assert overmonoid_space(carrier, WindowRead(H, 10)).is_t0()


def test_delta_dot_emission():
    H = Monoid.numerical([2, 3])
    primes, zar, f, read = domination(H, 6)
    dot = delta_dot(f, overmonoid_space(zar, read),
                    spec_subbasis(H, primes))
    assert dot.startswith("digraph")
    assert "l0 -> r" in dot


def additive_inputs():
    """(name, monoid) of every numerical and affine tests/data input, then
    the benchmark's sweep pool of affine monoids, read from
    bench/workloads.py."""
    out = []
    for name in sorted(os.listdir(DATA)):
        path = os.path.join(DATA, name)
        with open(path, encoding="utf-8") as fh:
            if json.load(fh).get("kind") in ("numerical", "affine"):
                out.append((name, monoid_from_file(path)))
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", os.path.join(ROOT, "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    pool = workloads.affine_pool(workloads.SWEEP_AFFINE)
    assert len(pool) == 20
    out += [(f"pool{k}", Monoid.affine(gens)) for k, gens in enumerate(pool)]
    return out


def outcome(fn, *args):
    """fn(*args), or the text of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as e:
        return f"ValueError: {e}"


def test_domination_reads_agree_with_the_pointwise_oracle():
    # the window reads give the pointwise code's f list, image-law checks
    # and small-bound ValueError, on every additive input
    raised = set()
    for name, H in additive_inputs():
        for bound in (1, 2, 3, 4):
            primes = enumerate_primes(H)
            read = WindowRead(H, bound)
            zar = enumerate_zar(read)
            f = [outcome(delta, V, primes, read) for V in zar]
            assert f == [outcome(delta_pointwise, H, V, primes, bound)
                         for V in zar], (name, bound)
            errors = [v for v in f if isinstance(v, str)]
            raised.update(errors)
            if errors:
                continue
            pruefer = is_s_pruefer(primes, read).ok
            assert ([c.to_dict() for c in
                     delta_laws(primes, f, zar, pruefer, read)]
                    == [c.to_dict() for c in image_law_pointwise(
                        H, primes, f, zar, pruefer, bound)]), (name, bound)
    assert "ValueError: domination image of V(N) matched 2 primes" in raised


def test_prime_parts_ask_no_prime(monkeypatch):
    """Each prime's part of H's window part is read as the OR of H's
    translates by the prime's generators, asking no ``RIdeal.contains``,
    and is the part asked point by point, on every additive input."""
    asked, real = [], RIdeal.contains
    monkeypatch.setattr(RIdeal, "contains",
                        lambda self, g: asked.append(g) or real(self, g))
    for name, H in additive_inputs():
        primes = enumerate_primes(H)
        for bound in (1, 2, 4, 6):
            read = WindowRead(H, bound)
            parts = read.parts(primes)
            assert asked == [], (name, bound)
            w = read.window
            assert parts == [sum(1 << b for g, b in zip(w.points, w.bits)
                                 if H.contains(g) and real(P, g))
                             for P in primes], (name, bound)


@functools.cache
def data_monoids():
    """The numerical and affine tests/data monoids."""
    return [H for name, H in additive_inputs() if name.endswith(".json")]


@st.composite
def zar_inputs(draw):
    """A monoid with a Zar carrier: a numerical or affine tests/data input,
    a numerical monoid of up to three generators in [1, 9], or 2-4
    generators in [-3, 3]^2 of rank 2, sublattices of small index among
    them."""
    source = draw(st.sampled_from(["data", "numerical", "plane"]))
    if source == "data":
        return draw(st.sampled_from(data_monoids()))
    if source == "numerical":
        gens = draw(st.lists(st.integers(1, 9), min_size=1, max_size=3,
                             unique=True).filter(
                                 lambda g: math.gcd(*g) == 1))
        return Monoid.numerical(gens)
    coord = st.integers(-3, 3)
    gens = draw(st.lists(st.tuples(coord, coord), min_size=2, max_size=4,
                         unique=True).filter(
        lambda g: any(a[0] * b[1] != a[1] * b[0] for a in g for b in g)))
    return Monoid.affine(gens)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(H=zar_inputs(), bound=st.integers(1, 4))
def test_window_reads_agree_with_the_pointwise_oracles(H, bound):
    """The mask reads give the pointwise code's Zar carrier, valuation
    witnesses (on H and its localizations too),
    space and Pruefer verdicts, f list or ValueError, and
    image-law checks."""
    read = WindowRead(H, bound)
    ctx = H.context
    zar = enumerate_zar(read)
    assert [V.name for V in zar] == [V.name for V in zar_pointwise(H, bound)]
    primes = enumerate_primes(H)
    tested = zar + [as_overmonoid(H)] + [localize(H, P) for P in primes]
    assert ([is_valuation(V, read) for V in tested]
            == [is_valuation_pointwise(V, bound) for V in tested])
    space = overmonoid_space(zar, read)
    oracle = zar_space_pointwise(zar, ctx, bound)
    assert ((space.labels, subbasis(space, read.window.bits))
            == (oracle.labels, subbasis(oracle)))
    pruefer = is_s_pruefer(primes, read)
    assert (pruefer.to_dict()
            == is_s_pruefer_pointwise(H, primes, bound).to_dict())
    f = [outcome(delta, V, primes, read) for V in zar]
    assert f == [outcome(delta_pointwise, H, V, primes, bound) for V in zar]
    if not any(isinstance(v, str) for v in f):
        assert ([c.to_dict() for c in
                 delta_laws(primes, f, zar, pruefer.ok, read)]
                == [c.to_dict() for c in image_law_pointwise(
                    H, primes, f, zar, pruefer.ok, bound)])
