"""Verdict records and report rendering: line-oriented text plus a JSON
mirror with identical fields.  Reports are deterministic given inputs and
seed, so they are byte-identical across runs."""

from __future__ import annotations

import json

PASS = "PASS"
FAIL = "FAIL"
BOUNDED_PASS = "BOUNDED-PASS"
INFO = "INFO"


class Check:
    """One verdict, or with ``ok=INFO`` a recorded fact that is no verdict.
    A FAIL always carries a concrete witness; a BOUNDED-PASS always carries
    the bound it was verified at."""

    def __init__(self, name, ok, *, witness=None, exhaustive=True, n=None,
                 bound=None, detail=""):
        self.name = name
        if ok is True:
            self.verdict = PASS if exhaustive else BOUNDED_PASS
        elif ok is False:
            self.verdict = FAIL
        elif ok == INFO:
            self.verdict, exhaustive = INFO, None  # a fact is not a verdict
        else:
            raise ValueError(f"{name}: ok must be True, False or INFO")
        self.witness = witness
        self.exhaustive = exhaustive
        self.n = n
        self.bound = bound
        self.detail = detail
        if self.verdict == FAIL and witness is None:
            raise ValueError(f"FAIL verdict for {name} requires a witness")
        if self.verdict == BOUNDED_PASS and bound is None and n is None:
            raise ValueError(f"BOUNDED-PASS verdict for {name} requires its bound")

    @classmethod
    def scan(cls, name, outcomes, *, exhaustive=False, **kw):
        """The first counterexample among `outcomes`, one entry per item
        tested: None when the item passes, its witness otherwise.  The stream
        is not advanced past the first witness, and n counts the items read;
        ``bound`` and ``detail`` pass through."""
        n = 0
        for n, witness in enumerate(outcomes, 1):
            if witness is not None:
                return cls(name, False, witness=witness,
                           exhaustive=exhaustive, n=n, **kw)
        return cls(name, True, exhaustive=exhaustive, n=n, **kw)

    @property
    def ok(self):
        return self.verdict != FAIL

    def line(self, prefix="CHECK"):
        bits = [prefix, self.name, self.verdict]
        quals = []
        if self.verdict != FAIL:
            if self.verdict != INFO:
                quals.append("exhaustive" if self.exhaustive else "bounded")
            if self.n is not None:
                quals.append(f"n={self.n}")
            if self.bound is not None:
                quals.append(f"bound={self.bound}")
            if quals:
                bits.append("(" + ", ".join(quals) + ")")
        else:
            if self.witness is not None:
                bits.append(" ".join(f"{k}={v}" for k, v in self.witness.items()))
        if self.detail:
            bits.append(f"-- {self.detail}")
        return " ".join(str(b) for b in bits)

    def to_dict(self):
        return {
            "name": self.name,
            "verdict": self.verdict,
            "witness": self.witness,
            "exhaustive": self.exhaustive,
            "n": self.n,
            "bound": self.bound,
            "detail": self.detail,
        }


class SuiteReport:
    """Per-suite report: a header, axiom/check lines, and an overall verdict."""

    def __init__(self, suite, claim, *, seed=0, bound=None):
        self.suite = suite
        self.claim = claim
        self.seed = seed
        self.bound = bound
        self.checks: list[Check] = []

    def add(self, check: Check, prefix="CHECK"):
        check._prefix = prefix
        self.checks.append(check)
        return check

    def extend(self, checks, prefix="CHECK"):
        for c in checks:
            self.add(c, prefix=prefix)

    @property
    def ok(self):
        return all(c.ok for c in self.checks)

    def text(self):
        lines = [
            f"SUITE {self.suite}",
            f"CLAIM {self.claim}",
            f"SEED {self.seed}" + (f" BOUND {self.bound}" if self.bound is not None else ""),
        ]
        for c in self.checks:
            lines.append(c.line(prefix=getattr(c, "_prefix", "CHECK")))
        lines.append(f"OVERALL {'PASS' if self.ok else 'FAIL'}")
        return "\n".join(lines) + "\n"

    def to_dict(self):
        return {
            "suite": self.suite,
            "claim": self.claim,
            "seed": self.seed,
            "bound": self.bound,
            "checks": [c.to_dict() for c in self.checks],
            "overall": "PASS" if self.ok else "FAIL",
        }

    def json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
