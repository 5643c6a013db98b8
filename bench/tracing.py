"""Per-layer tracing installed from outside the library.

Every layer is a module of ``monoid_spectra``.  Hot primitives (called
millions of times per run) get call counters only; coarse entry points get
spans, and a span's self time is its duration minus the time of the spans it
encloses.  Wrappers replace the module attribute and every other binding of
the same function in the package (``from .x import y`` copies), and they
return what the wrapped function returns, so reports do not change.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "monoid_spectra"

# (module, attribute) -> counter name; methods are given as "Class.method"
COUNTED = {
    ("monoid", "GroupoidContext.op"): "monoid.op.calls",
    ("monoid", "GroupoidContext.inv"): "monoid.inv.calls",
    ("monoid", "GroupoidContext.contains"): "monoid.ctx_contains.calls",
    ("monoid", "Monoid.contains"): "monoid.monoid_contains.calls",
    ("monoid", "Overmonoid.contains"): "monoid.overmonoid_contains.calls",
    ("intgeom", "lattice_contains"): "intgeom.lattice_contains.calls",
    ("intgeom", "monoid_contains"): "intgeom.monoid_contains.calls",
    ("intgeom", "hnf_rows"): "intgeom.hnf_rows.calls",
    ("valuation", "delta"): "valuation.delta.calls",
}

# (module, attribute) -> metric holding the span's self time
SPANNED = {
    ("cli", "main"): "cli.self_s",
    ("monoid", "monoid_from_json"): "monoid.parse_s",
    ("numsgp", "oversemigroups"): "numsgp.oversemigroups.s",
    ("idealsys", "enumerate_ideals"): "idealsys.enumerate_ideals.s",
    ("idealsys", "check_ideal_axioms"): "idealsys.check_ideal_axioms.s",
    ("idealsys", "enumerate_primes"): "idealsys.enumerate_primes.s",
    ("modsys", "check_module_axioms"): "modsys.check_module_axioms.s",
    ("modsys", "is_finitary"): "modsys.is_finitary.s",
    ("modsys", "check_id2"): "modsys.check_id2.s",
    ("modsys", "check_idempotent"): "modsys.check_idempotent.s",
    ("modsys", "SystemSpace.space"): "modsys.system_space.s",
    ("modsys", "SystemSpace.t0_witnesses"): "modsys.system_space.s",
    ("valuation", "enumerate_zar"): "valuation.enumerate_zar.s",
    ("valuation", "enumerate_overmonoids"): "valuation.enumerate_overmonoids.s",
    ("valuation", "delta_laws"): "valuation.delta_laws.s",
    ("valuation", "is_s_pruefer"): "valuation.is_s_pruefer.s",
    ("fintop", "FiniteSpace.__init__"): "fintop.space.s",
    ("fintop", "FiniteSpace.is_t0"): "fintop.space.s",
    ("fintop", "homeomorphic"): "fintop.homeomorphic.s",
    ("fintop", "poset_dot"): "fintop.dot.s",
    ("fintop", "bipartite_dot"): "fintop.dot.s",
    ("report", "SuiteReport.text"): "report.render_s",
    ("report", "SuiteReport.json"): "report.render_s",
}

# closure methods whose returned predicates are counted
CLOSURES = {
    ("idealsys", "IdealSystem.closure"): "idealsys",
    ("modsys", "ModuleSystem.closure"): "modsys",
}


class Tracer:
    """Counters and span self times of one traced pass."""

    def __init__(self):
        self.counts = defaultdict(int)
        self.self_s = defaultdict(float)
        self._open = []  # time covered by child spans, one entry per open span

    def counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def spanned(self, name, fn):
        self_s = self.self_s
        stack = self._open

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self_s[name] += dur - stack.pop()
                if stack:
                    stack[-1] += dur

        return wrapper

    def closure(self, layer, fn):
        counts = self.counts
        calls, evals = f"{layer}.closure.calls", f"{layer}.pred_evals"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            pred = fn(*args, **kwargs)

            def member(g):
                counts[evals] += 1
                return pred(g)

            return member

        return wrapper

    def enumerate_ideals(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            before = counts["idealsys.closure.calls"]
            out = fn(*args, **kwargs)
            counts["idealsys.enumerate_ideals.candidates"] += (
                counts["idealsys.closure.calls"] - before)
            counts["idealsys.enumerate_ideals.distinct"] += len(out)
            return out

        return wrapper

    def oversemigroups(self, fn):
        counts = self.counts

        def wrapper(sgp):
            counts["numsgp.oversemigroups.masks"] += 1 << len(sgp.gaps)
            out = fn(sgp)
            counts["numsgp.oversemigroups.found"] += len(out)
            return out

        return wrapper


def _resolve(module, attr):
    mod = sys.modules[f"{PACKAGE}.{module}"]
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(mod, cls_name), meth
    return mod, attr


def _rebind(owner, attr, wrap):
    """Replace owner.attr by wrap(original); for a module-level function also
    replace every copy bound under the same name in the package."""
    original = getattr(owner, attr)
    wrapped = wrap(original)
    setattr(owner, attr, wrapped)
    if isinstance(owner, type):
        return
    for name, mod in list(sys.modules.items()):
        if (name.startswith(PACKAGE) and mod is not owner
                and getattr(mod, attr, None) is original):
            setattr(mod, attr, wrapped)


def install(tracer):
    """Install the wrappers of `tracer` into the imported package.  Call once
    per process, after ``import monoid_spectra.cli``."""
    special = {("idealsys", "enumerate_ideals"): tracer.enumerate_ideals,
               ("numsgp", "oversemigroups"): tracer.oversemigroups}
    for key, layer in CLOSURES.items():
        _rebind(*_resolve(*key), lambda fn, layer=layer:
                tracer.closure(layer, fn))
    for key, name in COUNTED.items():
        _rebind(*_resolve(*key), lambda fn, name=name:
                tracer.counted(name, fn))
    for key, name in SPANNED.items():
        inner = special.get(key)
        _rebind(*_resolve(*key), lambda fn, name=name, inner=inner:
                tracer.spanned(name, inner(fn) if inner else fn))


def cache_stats(fn):
    """(hit ratio, current size, lookups) of an lru_cache-wrapped function."""
    info = fn.cache_info()
    lookups = info.hits + info.misses
    return (info.hits / lookups if lookups else 0.0), info.currsize, lookups
