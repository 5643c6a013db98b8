"""Shift-OR spans of int-carrier closures against their pointwise predicates,
and the axiom checkers with and without spans."""

import os
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monoid_spectra import modsys
from monoid_spectra.idealsys import IdealSystem, check_ideal_axioms, s_system
from monoid_spectra.modsys import (DeltaFamily, ModuleSystem,
                                   check_module_axioms, example16, iota,
                                   r_delta)
from monoid_spectra.monoid import INF, Monoid, Overmonoid, monoid_from_file
from monoid_spectra.valuation import enumerate_overmonoids
from oracles import cyclic_group_with_zero

DATA = os.path.join(os.path.dirname(__file__), "data")

generators = st.lists(st.integers(2, 9), min_size=1, max_size=3).map(
    lambda gs: sorted(set(gs))).filter(lambda gs: gcd(*gs) == 1)
ranges = st.lists(st.tuples(st.integers(-30, 30), st.integers(0, 40)),
                  min_size=1, max_size=5)


def pointwise(pred, lo, hi):
    return sum(1 << j for j, g in enumerate(range(lo, hi + 1)) if pred(g))


def build(kind, gens, picks):
    """A fresh system of the given kind, so every span cache starts empty."""
    H = Monoid.numerical(gens)
    overs = enumerate_overmonoids(H)
    if kind == "r_delta":
        members = [overs[i % len(overs)] for i in picks]
        return r_delta(DeltaFamily(members), H.context)
    if kind == "iota":
        return iota(overs[picks[0] % len(overs)])
    return {"s_system": s_system, "example16": example16}[kind](H)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(["r_delta", "iota", "s_system", "example16"]),
       gens=generators,
       picks=st.lists(st.integers(0, 50), min_size=1, max_size=3),
       A=st.sets(st.one_of(st.integers(-12, 12), st.just(INF)), max_size=4),
       spans=ranges)
def test_span_matches_the_predicate(kind, gens, picks, A, spans):
    spans = [(lo, lo + width) for lo, width in spans]
    # narrow ranges first, so the members' masks grow, then wide first
    for order in (sorted(spans, key=lambda s: s[1] - s[0]),
                  sorted(spans, key=lambda s: s[0] - s[1])):
        pred = build(kind, gens, picks).closure(frozenset(A))
        for lo, hi in order:
            assert pred.span(lo, hi) == pointwise(pred, lo, hi), (lo, hi)


@settings(max_examples=60, deadline=None)
@given(gens=generators, picks=st.lists(st.integers(0, 50), max_size=3),
       spans=ranges)
def test_span_mask_matches_has(gens, picks, spans):
    H = Monoid.numerical(gens)
    overs = enumerate_overmonoids(H)
    for M in [H] + [overs[i % len(overs)] for i in picks]:
        for lo, width in spans:
            assert M.span_mask(lo, lo + width) == pointwise(
                M.has, lo, lo + width)


def test_span_is_only_on_the_int_carrier():
    for H in (Monoid.affine([[1, 0], [0, 1]]),
              cyclic_group_with_zero(3)):
        for r in (s_system(H), example16(H)):
            assert not hasattr(r.closure(frozenset([H.one])), "span")


def hidden(r):
    """The same system with its closures read point by point."""
    def closure(A):
        pred = r.closure(A)
        return lambda g: pred(g)

    if isinstance(r, IdealSystem):
        return IdealSystem(r.name, r.H, closure)
    return ModuleSystem(r.name, r.context, closure)


def spanned(pred, span):
    pred.span = span
    return pred


def broken(H):
    """s-systems broken as in test_axioms, with spans, so that the checkers'
    integer paths meet failing axioms."""
    s = s_system(H)

    def shifts_by_one(X):
        p = s.closure(X)
        return spanned(lambda g: g is INF or p(g - 1),
                       lambda lo, hi: p.span(lo - 1, hi - 1))

    def depends_on_size(X):
        p, n = s.closure(X), len(X)
        return spanned(lambda g: g == n or p(g),
                       lambda lo, hi: p.span(lo, hi)
                       | (1 << (n - lo) if lo <= n <= hi else 0))

    def three_for_pairs(X):
        """XH, with 3 added once X has two points: Id3 holds on smaller X."""
        p, n = s.closure(X), 3 if len(X) > 1 else None
        return spanned(lambda g: g == n or p(g),
                       lambda lo, hi: p.span(lo, hi)
                       | (1 << (3 - lo) if n and lo <= 3 <= hi else 0))

    return [IdealSystem(f.__name__, H, f)
            for f in (shifts_by_one, depends_on_size, three_for_pairs)]


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
    for r in systems:
        assert ([c.to_dict() for c in check_module_axioms(r, H, bound=bound)]
                == [c.to_dict() for c in
                    check_module_axioms(hidden(r), H, bound=bound)]), r
    for r in ideal_systems:
        assert ([c.to_dict() for c in check_ideal_axioms(r, H, bound=bound)]
                == [c.to_dict() for c in
                    check_ideal_axioms(hidden(r), H, bound=bound)]), r


def test_passing_systems_never_reach_the_point_loops(monkeypatch):
    """Id3 and M4 settle every pair of a passing int-carrier system as
    integers: Id3 reads its left side only at INF, once per (A, c), and
    neither scan opens a reader for any set but the A it scans."""
    readers, reads = [], []
    real = modsys._Window.reader

    def counting(self, A):
        readers.append(A)
        member = real(self, A)

        def counted(g):
            reads.append(g)
            return member(g)

        return counted

    monkeypatch.setattr(modsys._Window, "reader", counting)
    H = Monoid.numerical([2, 3])
    for r in (s_system(H), iota(enumerate_overmonoids(H)[-1])):
        readers.clear()
        reads.clear()
        checks = {c.name: c for c in check_module_axioms(r, H, bound=4)}
        assert all(c.ok and c.exhaustive for c in checks.values())
        assert len(readers) == 2 * checks["M4"].n
        assert reads == [INF] * checks["Id3"].n
