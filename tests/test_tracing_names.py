"""Every function the benchmark's tracer wraps still exists in the package.

``bench/tracing.py`` names what it wraps as (module, "attr") or
(module, "Class.method") pairs; a renamed or deleted one would otherwise
show up only as a worker error inside the benchmark's traced pass."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "bench_tracing", os.path.join(ROOT, "bench", "tracing.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_tracing()
    names = [*tracing.COUNTED, *tracing.SPANNED, *tracing.CLOSURES]
    assert len(names) == 34
    missing = []
    for module, attr in names:
        owner = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module}:{attr}")
    assert not missing, missing
