"""The ideal and module axiom checkers on closures that break the axioms: every
verdict, witness, count and bound is pinned, FAIL and PASS alike."""

import json
import os

import pytest

from monoid_spectra.idealsys import IdealSystem, check_ideal_axioms, s_system
from monoid_spectra.modsys import (check_id2, check_idempotent,
                                   check_module_axioms, is_finitary)
from monoid_spectra.monoid import INF, Monoid

H = Monoid.numerical([2, 3])
S = s_system(H)

with open(os.path.join(os.path.dirname(__file__), "data",
                       "broken-closures.json"), encoding="utf-8") as fh:
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


@pytest.mark.parametrize("bound", [4, 6, 12])
@pytest.mark.parametrize("closure", [drops_zero, shifts_by_one,
                                     depends_on_size])
def test_checks_of_broken_closures_are_pinned(closure, bound):
    r = IdealSystem(closure.__name__, H, closure)
    checks = (check_ideal_axioms(r, H, bound=bound)
              + check_module_axioms([r], H, bound=bound)[0]
              + [check_id2(r, bound=bound), check_idempotent(r, bound=bound),
                 is_finitary(r, bound=bound)])
    assert ([c.to_dict() for c in checks]
            == EXPECTED[f"{closure.__name__}/{bound}"])


def test_every_module_verdict_fails_somewhere():
    failed = {c["name"] for checks in EXPECTED.values() for c in checks
              if c["verdict"] == "FAIL"}
    assert {"Id1", "Id2", "Id3", "Id4", "M2", "M4", "idempotent",
            "finitary"} <= failed
