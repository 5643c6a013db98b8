"""The ideal and module axiom checkers on closures that break the axioms: every
verdict, witness, count and bound is pinned, FAIL and PASS alike, on full
draws and on drawn ones; and the draw the checkers share."""

import json
import os

import pytest

from monoid_spectra.idealsys import IdealSystem, check_ideal_axioms, s_system
from monoid_spectra.modsys import (check_id2, check_idempotent,
                                   check_module_axioms, is_finitary)
from monoid_spectra.monoid import INF, Monoid, monoid_from_file
from monoid_spectra.window import _Draw, _subsets
from oracles import drawn_subsets, rule_system

DATA = os.path.join(os.path.dirname(__file__), "data")
H = Monoid.numerical([2, 3])
S = s_system(H)

with open(os.path.join(DATA, "broken-closures.json"),
          encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


def drops_zero(X):
    """XH without the absorbing zero."""
    p = S.closure(X)
    return lambda g: g is not INF and p(g)


def shifts_by_one(X):
    """1 + XH, with the zero."""
    p = S.closure(X)
    return lambda g: g is INF or p(g - 1)


def depends_on_size(X):
    """XH with the point |X| added."""
    p, n = S.closure(X), len(X)
    return lambda g: g == n or p(g)


def all_checks(r, K, bound):
    """Every verdict of the ideal and module checkers on r, as dicts."""
    checks = (check_ideal_axioms(r, K, bound=bound)
              + check_module_axioms([r], K, bound=bound)[0]
              + [check_id2(r, bound=bound), check_idempotent(r, bound=bound),
                 is_finitary(r, bound=bound)])
    return [c.to_dict() for c in checks]


# bound 16 puts 17 points of H and 34 of G in the windows, so every checker
# draws there
@pytest.mark.parametrize("bound", [4, 6, 12, 16])
@pytest.mark.parametrize("closure", [drops_zero, shifts_by_one,
                                     depends_on_size])
def test_checks_of_broken_closures_are_pinned(closure, bound):
    r = rule_system(IdealSystem, closure.__name__, H, closure)
    assert all_checks(r, H, bound) == EXPECTED[f"{closure.__name__}/{bound}"]


# the zero is a guard bit on a box and a cell on a finite table: N^2 at
# bound 2, whose module draws are sampled, and Z/3 with a zero
ZERO_CARRIERS = {
    "n2": (lambda: Monoid.affine([[1, 0], [0, 1]]), 2),
    "c3z": (lambda: monoid_from_file(os.path.join(DATA, "c3z.json")), 10)}
# which X lose the zero from XH: every X, and only the X that hold it
ZERO_DROPS = {"drops_zero": lambda X, zero: True,
              "drops_zero_of_zero": lambda X, zero: zero in X}


@pytest.mark.parametrize("drop", sorted(ZERO_DROPS))
@pytest.mark.parametrize("name", sorted(ZERO_CARRIERS))
def test_checks_of_a_closure_without_the_zero_are_pinned(name, drop):
    """XH without the zero on both layouts.  Dropped everywhere: Id1
    fails at the empty set and g = 0, Id3 at c = g = 0 and Id4 at the
    identity and h = 0.  Dropped where X holds the zero: Id4 fails at
    c = 0."""
    make, bound = ZERO_CARRIERS[name]
    K = make()
    s, zero = s_system(K), K.context.zero

    def closure(X):
        p, dropped = s.closure(X), ZERO_DROPS[drop](X, zero)
        return lambda g: not (dropped and g == zero) and p(g)

    r = rule_system(IdealSystem, drop, K, closure)
    assert all_checks(r, K, bound) == EXPECTED[f"{drop}/{name}"]


def test_every_module_verdict_fails_somewhere():
    failed = {c["name"] for checks in EXPECTED.values() for c in checks
              if c["verdict"] == "FAIL"}
    assert {"Id1", "Id2", "Id3", "Id4", "M2", "M4", "idempotent",
            "finitary"} <= failed


def test_a_draw_is_full_up_to_its_limit():
    points = list(range(13))
    full = _Draw(points[:12], limit=12)
    assert full.exhaustive
    assert full.subsets == _subsets(points[:12], range(4))
    assert full.head(5) == full.subsets
    assert full.pick(points, 2) is points
    drawn = [_Draw(points, size=2, budget=50, limit=12, seed=7)
             for _ in range(2)]
    assert not drawn[0].exhaustive
    assert drawn[0].subsets[0] == frozenset()
    assert all(len(A) <= 2 for A in drawn[0].subsets)
    assert drawn[0].head(5) == drawn[0].subsets[:5]
    picks = drawn[0].pick(points, 4)
    assert picks == sorted(set(picks)) and len(picks) == 4
    drawn[1].pick(points[::-1], 9)
    # the picks have their own stream, so the subsets ignore them
    assert drawn[0].subsets == drawn[1].subsets
    # a draw takes at most 5 points to a subset
    with pytest.raises(ValueError):
        _Draw(points, size=6)


@pytest.mark.parametrize("n", [14, 21, 22, 25, 81, 400])
def test_a_draw_is_the_seeded_samples(n):
    """A draw that is not full takes the subsets ``random.Random.sample``
    and ``randint`` give, on both sides of sample's switch from a pool to
    a set of taken indices past 21 points."""
    universe = [(x, -x) for x in range(n)]
    for size in (2, 3):
        for budget in (30, 300, 500):
            for seed in range(21):
                assert (_Draw(universe, size=size, budget=budget,
                              seed=seed).subsets
                        == drawn_subsets(universe, size, budget, seed)), (
                            size, budget, seed)
