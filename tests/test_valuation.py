import importlib.util
import json
import os

import pytest

from monoid_spectra.idealsys import enumerate_primes, spec_subbasis
from monoid_spectra.monoid import (INF, Monoid, Overmonoid, localize,
                                   monoid_from_file)
from monoid_spectra.valuation import (ValuationDescriptor, b_complement_law,
                                      delta, delta_dot, delta_laws,
                                      enumerate_overmonoids, enumerate_zar,
                                      is_local_window, is_s_pruefer,
                                      is_valuation, maximal_ideal,
                                      overmonoid_space, read_window)
from oracles import delta_pointwise, image_law_pointwise, is_local_pointwise

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")


def domination(H, bound):
    """The primes, the Zar carrier and the prime index of each member's
    delta image."""
    primes = enumerate_primes(H)
    zar = enumerate_zar(H, bound=bound)
    return primes, zar, [delta(H, V, primes, bound) for V in zar]


def laws(H, bound):
    primes, zar, f = domination(H, bound)
    space = overmonoid_space(zar, H.context, bound)
    return {c.name: c for c in delta_laws(H, primes, f, space,
                                          is_s_pruefer(H, primes, bound).ok,
                                          bound=bound)}


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
    ctx = Monoid.affine([[1, 0], [0, 1]]).context
    for w in [(1, 0), (1, 1)]:
        for t in (-1, 0, 1):
            v = ValuationDescriptor(ctx, "weight", weight=w, tiebreak=t)
            assert isinstance(v, Overmonoid)
            assert is_valuation(v, bound=4).ok, (w, t)
    assert is_valuation(ValuationDescriptor(ctx, "trivial"), bound=4).ok


def test_n_squared_itself_is_not_a_valuation():
    H = Monoid.affine([[1, 0], [0, 1]])
    S = Overmonoid(H.context, gens=H.generators, name="N2")
    c = is_valuation(S, bound=4)
    assert not c.ok
    # neither (1, -1) nor (-1, 1) lies in N^2
    assert c.witness is not None


def test_enumerate_overmonoids_numerical():
    H = Monoid.numerical([3, 4, 5])
    carrier = enumerate_overmonoids(H)
    # three oversemigroups plus Z
    assert len(carrier) == 4
    names = {S.name for S in carrier}
    assert "Z" in names
    z = next(S for S in carrier if S.name == "Z")
    assert z.contains(-1)
    with pytest.raises(Exception):
        enumerate_overmonoids(Monoid.affine([[1, 0], [0, 1]]))


def test_enumerate_zar_numerical_and_affine():
    Hn = Monoid.numerical([2, 3])
    zn = enumerate_zar(Hn)
    assert [v.tag for v in zn] == ["N", "Z"]
    Ha = Monoid.affine([[1, 0], [0, 1]])
    za = enumerate_zar(Ha, bound=6)
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


def test_maximal_ideal_and_delta_numerical():
    H = Monoid.numerical([2, 3])
    primes = enumerate_primes(H)
    by_name = {p.name: j for j, p in enumerate(primes)}
    zar = enumerate_zar(H)
    vN = next(v for v in zar if v.tag == "N")
    vZ = next(v for v in zar if v.tag == "Z")
    assert delta(H, vN, primes, bound=6) == by_name["P_max"]
    assert delta(H, vZ, primes, bound=6) == by_name["P_zero"]
    m = maximal_ideal(vN, bound=6)
    assert m(1) and m(2) and not m(0) and m(INF)


def test_delta_images_affine():
    H = Monoid.affine([[1, 0], [0, 1]])
    primes = enumerate_primes(H)
    zar = enumerate_zar(H, bound=4)
    images = {repr(v): primes[delta(H, v, primes, bound=4)].name
              for v in zar}
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
    assert is_s_pruefer(H, enumerate_primes(H), bound=4).ok
    checks = laws(H, 4)
    assert all(c.ok for c in checks.values())
    assert checks["delta-image-law"].witness is None


def test_pruefer_verdicts():
    for H, bound, ok in ((Monoid.numerical([2, 3]), 6, False),
                         (Monoid.affine([[1, 0], [0, 1]]), 4, False),
                         (Monoid.numerical([1]), 6, True)):
        assert is_s_pruefer(H, enumerate_primes(H), bound).ok == ok


def test_surjectivity_witness():
    H = Monoid.affine([[1, 0], [0, 1]])
    primes, zar, f = domination(H, 4)
    assert set(f) == set(range(len(primes)))


def test_delta_preimage_law_follows_from_the_match():
    # delta^{-1}(D(x)) = B(x^{-1}) on the H-window, which is why delta_laws
    # does not report it
    for H, bound in ((Monoid.numerical([2, 3]), 6),
                     (Monoid.affine([[1, 0], [0, 1]]), 4)):
        primes, zar, f = domination(H, bound)
        ctx = H.context
        for x in ctx.nonzero_window(bound):
            if H.contains(x):
                assert ({i for i, j in enumerate(f)
                         if not primes[j].contains(x)}
                        == {i for i, V in enumerate(zar)
                            if V.contains(ctx.inv(x))}), (H, x)


def test_b_complement_law_and_space():
    H = Monoid.affine([[1, 0], [0, 1]])
    space = overmonoid_space(enumerate_zar(H, bound=4), H.context, bound=4)
    assert b_complement_law(space, H.context, bound=4).ok
    assert space.is_t0()


def test_ultrafilter_limit_valuation_is_principal():
    H = Monoid.numerical([2, 3])
    carrier = enumerate_overmonoids(H)
    # each overmonoid is its own unique principal limit, that is no other
    # point shares its profile
    assert overmonoid_space(carrier, H.context, bound=10).is_t0()


def test_delta_dot_emission():
    H = Monoid.numerical([2, 3])
    primes, zar, f = domination(H, 6)
    dot = delta_dot(f, overmonoid_space(zar, H.context, 6),
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


def local(V, bound):
    """The locality verdict on V's window read."""
    return is_local_window(V.context, *read_window(V, bound))


def test_domination_reads_agree_with_the_pointwise_oracle():
    # the window reads give the pointwise code's locality verdicts, f list,
    # image-law checks and small-bound ValueError, on every additive input
    raised = set()
    for name, H in additive_inputs():
        for bound in (1, 2, 3, 4):
            primes = enumerate_primes(H)
            zar = enumerate_zar(H, bound=bound)
            for V in zar:
                assert local(V, bound) == is_local_pointwise(
                    V, bound), (name, bound, V)
            f = [outcome(delta, H, V, primes, bound) for V in zar]
            assert f == [outcome(delta_pointwise, H, V, primes, bound)
                         for V in zar], (name, bound)
            errors = [v for v in f if isinstance(v, str)]
            raised.update(errors)
            if errors:
                continue
            space = overmonoid_space(zar, H.context, bound)
            pruefer = is_s_pruefer(H, primes, bound).ok
            assert ([c.to_dict() for c in
                     delta_laws(H, primes, f, space, pruefer, bound)]
                    == [c.to_dict() for c in image_law_pointwise(
                        H, primes, f, space, pruefer, bound)]), (name, bound)
    assert "ValueError: domination image of V(N) matched 2 primes" in raised


def not_a_monoid(ctx, members, name):
    """A rule-backed set that need not be closed under the operation."""
    return Overmonoid(ctx, rule=members.__contains__, name=name)


def test_locality_reads_agree_on_sets_that_are_not_monoids():
    # a submonoid is always local, so only a rule that is no monoid can
    # fail: 1 * 2 = 3 is a unit while 1 is not
    line = Monoid.numerical([2, 3]).context
    plane = Monoid.affine([[1, 0], [0, 1]]).context
    cases = [(not_a_monoid(line, {0, 1, 2, 3, -3}, "1+2"), False),
             (not_a_monoid(line, {0, 1, 2, 3}, "no units"), True),
             (not_a_monoid(plane, {(0, 0), (1, 0), (0, 1), (1, 1), (-1, -1)},
                           "(1,0)+(0,1)"), False)]
    H = Monoid.affine([[1, 0], [0, 1]])
    cases += [(S, True) for S in (H, localize(H, enumerate_primes(H)[1]))]
    for S, expected in cases:
        for bound in (1, 2, 3, 4):
            assert local(S, bound) == is_local_pointwise(S, bound)
        assert local(S, 4) == expected, S.name
    with pytest.raises(ValueError, match="not local on the window"):
        maximal_ideal(cases[0][0], bound=4)


def test_maximal_ideal_is_exact_off_the_window_and_the_carrier():
    H = Monoid.numerical([2, 3])
    m = maximal_ideal(next(v for v in enumerate_zar(H) if v.tag == "N"),
                      bound=2)
    # 1 and 2 from the window read, 5 and -5 from the valuation itself; a
    # bool is no point of the carrier, although True == 1
    assert [m(g) for g in (1, 2, 5, 0, -5, True, 1.0)] == [
        True, True, True, False, False, False, False]
