"""Print one record per CLI run, as sorted JSON, to compare two checkouts.

Runs ``cli.main`` in this process on every suite x every monoid input in
``tests/data`` x {default bound, 1, 2, 3} x {text, --json}, each with
``--dot``, plus ``main2 --family adjoin-ray.json`` on the same bounds and
formats; main1, axioms, pruefer and corollaries on n2 and nxz at bounds
8, 10 and 12, in both formats, where the checkers draw from large windows
and read every closure from member masks on wide boxes of up to 8 370
cells, below the ``MAX_SPAN_BITS`` cap (the same reads with every
system's members hidden, each system read from a mask rule that lays its
closure predicates out cell by cell, ``tests/oracles.py``'s
``rule_system``, are run by ``tests/test_span.py``'s
``test_plan_reads_agree_with_set_reads_and_the_predicate``); main1, axioms and corollaries on n579 and
n71113 at bounds 20 and 40, in both formats, where the integer carrier's
windows are large; pronconst and ideals on n469, n579 and n71113 at
bounds 20 and 40, in both formats, where the s-ideals are many (7 642 for
ideals on n71113 at bound 40), each is read as one mask and the DOT
drawing reads the covers of their order as int rows; and every job of
the benchmark's seed-0 sweep plan,
read from ``bench/workloads.py``, in text format with ``--seed 0`` and
``--dot``, whose 21 relabelled finite tables read every closure in the
table layout (the same runs read from such mask rules, members hidden,
are ``tests/test_cli.py``'s
``test_finite_reports_are_the_same_read_point_by_point``); and
corollaries, axioms, main1, main2, zar, pruefer, spec and prop1 on the
20 generated monoids of ``bench/workloads.py``'s ``affine_pool(20)``, on
the same bounds and formats: the checkers' draws there are sampled, not
exhaustive, five of the inputs span sublattices of index 2-4, whose boxes
have cells off the lattice, and some pruefer runs raise ``ValueError``,
which the record keeps; axioms on the same 20 inputs at bound 8, in both
formats, where Id4 reads each {c}_r on a reach box moved by every nonzero
point of H's window, cells off the lattice included; and main1 on <11,12>
at bound 1, in both formats, the one run whose system space is large
(8 196 systems, one per oversemigroup and example16), its input written
inline as the sweep's are; spec, zar, axioms, main1 and prop1 on three
skewed plane inputs (``SKEWED``), written inline too, at bounds 1 and 2,
in both formats: the thin cone <(1,0),(-10000,1)>, whose members lie far
from 0 along a long generator, <(4,0),(0,4),(1,3),(3,1)>, whose Apery set
over its edge generators has two points in one coset, and <(3,1),(1,3)>,
a sublattice of index 8; and axioms, main1, prop1 and corollaries on the
proper subgroups <2> of Z/4 and <3> of Z/6 with a zero (``SUBGROUPS``), on
the same bounds and formats, run through ``cli.run_suite`` and rendered as
``cli.main`` renders, as no input file names a finite H smaller than its
table: their overmonoid is H itself, whose closures are not all of G, so
the table layout's moves are read under it, and on <3> in Z/6 a translate
by a and one by a^-1 differ.
A run's record is
``[sha1, status, fails]``: the SHA-1 over
stdout, stderr, the exit code (or the exception the run raised) and the
DOT file; that exit code or exception; and the sorted names of the
report's FAIL lines.  A refactor that keeps every report byte-identical
gives the same output before and after:

    python3 tools/report_hashes.py > after.json
    diff before.json after.json

A change that rewrites reports on purpose but moves no verdict differs only
in the first entry of each record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import runpy
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
WORKLOADS = os.path.join(ROOT, "bench", "workloads.py")
sys.path.insert(0, os.path.join(ROOT, "src"))

from monoid_spectra import cli, monoid  # noqa: E402

BOUNDS = (None, 1, 2, 3)
# Large-bound runs: (suites, inputs, bounds).
LARGE = ((("main1", "axioms", "pruefer", "corollaries"),
          ("n2.json", "nxz.json"), (8, 10, 12)),
         (("main1", "axioms", "corollaries"),
          ("n579.json", "n71113.json"), (20, 40)),
         (("pronconst", "ideals"), ("n469.json", "n579.json", "n71113.json"),
          (20, 40)))
# Suites run on the generated affine pool, and its size.
POOL_SUITES = ("corollaries", "axioms", "main1", "main2", "zar", "pruefer",
               "spec", "prop1")
POOL_SIZE = 20
# (suite, bounds) of the large-bound runs on the affine pool
POOL_LARGE = (("axioms", (8,)),)
# (suites, description, bounds) of the runs on inputs given inline
SKEWED = ([[1, 0], [-10000, 1]], [[4, 0], [0, 4], [1, 3], [3, 1]],
          [[3, 1], [1, 3]])
INLINE = ((("main1",), {"kind": "numerical", "generators": [11, 12]}, (1,)),
          *((("spec", "zar", "axioms", "main1", "prop1"),
             {"kind": "affine", "dim": 2, "generators": gens}, (1, 2))
            for gens in SKEWED))
# Suites run on proper subgroups <d> of Z/n with a zero n adjoined, as
# (n, d): <2> in Z/4, where aH = a^-1 H for every a, as 2a lies in H, and
# <3> in Z/6, where 1 + H = {1, 4} and 5 + H = {5, 2} differ
SUBGROUP_SUITES = ("axioms", "main1", "prop1", "corollaries")
SUBGROUPS = ((4, 2), (6, 3))
FAIL_LINE = re.compile(r"^\S+ (\S+) FAIL\b", re.M)


def monoid_inputs():
    """The files of tests/data that describe a monoid (they carry "kind")."""
    out = []
    for name in sorted(os.listdir(DATA)):
        with open(os.path.join(DATA, name), encoding="utf-8") as fh:
            data = json.load(fh)
        if isinstance(data, dict) and "kind" in data:
            out.append(name)
    return out


def runs():
    """(label, argv, bounds) of every run, without --dot or a bound."""
    for name in monoid_inputs():
        for suite in cli.SUITES:
            yield suite + " " + name, ["--suite", suite, "--input",
                                       os.path.join(DATA, name)], BOUNDS
    yield "main2 --family adjoin-ray.json", [
        "--suite", "main2", "--family",
        os.path.join(DATA, "adjoin-ray.json")], BOUNDS
    for suites, names, bounds in LARGE:
        for name in names:
            for suite in suites:
                yield suite + " " + name, ["--suite", suite, "--input",
                                           os.path.join(DATA, name)], bounds


def pool_runs(tmp):
    """(label, argv, bounds) of every run on the generated affine pool, its
    inputs written to `tmp`."""
    workloads = runpy.run_path(WORKLOADS)
    for i, gens in enumerate(workloads["affine_pool"](POOL_SIZE)):
        path = os.path.join(tmp, f"pool{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(workloads["affine"](*gens), fh)
        for suite in POOL_SUITES:
            yield f"{suite} pool{i}", ["--suite", suite, "--input",
                                       path], BOUNDS
        for suite, bounds in POOL_LARGE:
            yield f"{suite} pool{i}", ["--suite", suite, "--input",
                                       path], bounds


def sweep_runs(tmp):
    """(label, argv) of every job of the seed-0 sweep plan, its inputs
    written to `tmp`."""
    plan = runpy.run_path(WORKLOADS)["plan"]("sweep", 0)
    for key, desc in plan["inputs"].items():
        with open(os.path.join(tmp, f"{key}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(desc, fh)
    for jb in plan["jobs"]:
        label = (f"sweep seed=0 {jb['suite']} {jb['input']} "
                 f"bound={jb['bound'] or 'default'}")
        argv = ["--suite", jb["suite"], "--input",
                os.path.join(tmp, f"{jb['input']}.json"),
                "--seed", str(plan["cli_seed"])]
        if jb["bound"] is not None:
            argv += ["--bound", str(jb["bound"])]
        yield label, argv


def inline_runs(tmp):
    """(label, argv, bounds) of the runs on ``INLINE``'s inputs, each
    written to `tmp`."""
    for i, (suites, desc, bounds) in enumerate(INLINE):
        path = os.path.join(tmp, f"inline{i}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(desc, fh)
        gens = ",".join(map(str, desc["generators"])).replace(" ", "")
        for suite in suites:
            yield (f"{suite} <{gens}>", ["--suite", suite, "--input", path],
                   bounds)


def subgroup_runs():
    """(label, suite, H, bound) of the runs on ``SUBGROUPS``."""
    for n, d in SUBGROUPS:
        table = [[n if n in (a, b) else (a + b) % n for b in range(n + 1)]
                 for a in range(n + 1)]
        H = monoid.Monoid("finite", monoid.FiniteCarrier(table, 0, n),
                          (d, n), args=f"(<{d}> in Z/{n}+0)")
        for suite in SUBGROUP_SUITES:
            for bound in BOUNDS:
                yield f"{suite} <{d}>-in-z{n}", suite, H, bound


def run_in_process(suite, H, bound, as_json):
    """What ``cli.main`` prints and writes for `suite` on H, given as an
    object: stdout, the exit status and the DOT drawing."""
    if bound is None:
        bound = H.context.default_bound
    report, render = cli.run_suite(suite, H, bound=bound, seed=0)
    dot = render() if render is not None else None
    return (report.json() if as_json else report.text(),
            f"exit {0 if report.ok else 1}",
            dot if dot is not None else "digraph empty {\n}\n")


def fail_names(out, as_json):
    """Sorted names of the FAIL lines of one report, text or JSON."""
    if not as_json:
        return sorted(FAIL_LINE.findall(out))
    try:
        checks = json.loads(out)["checks"]
    except ValueError:  # no report was printed
        return []
    return sorted(c["name"] for c in checks if c["verdict"] == "FAIL")


def record(argv, dot_path):
    """What one run leaves, as [SHA-1 over output, exit status and DOT file,
    exit status, FAIL names]."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = f"exit {cli.main(['verify', *argv, '--dot', dot_path])}"
        except Exception as e:  # a traceback is part of the behaviour
            status = f"raised {type(e).__name__}: {e}"
    try:
        with open(dot_path, encoding="utf-8") as fh:
            dot = fh.read()
        os.remove(dot_path)
    except FileNotFoundError:
        dot = None
    blob = json.dumps([out.getvalue(), err.getvalue(), status, dot])
    return [hashlib.sha1(blob.encode()).hexdigest(), status,
            fail_names(out.getvalue(), "--json" in argv)]


def main():
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        dot_path = os.path.join(tmp, "out.dot")
        for label, argv, bounds in [*runs(), *pool_runs(tmp),
                                     *inline_runs(tmp)]:
            for bound in bounds:
                extra = [] if bound is None else ["--bound", str(bound)]
                for fmt in ("text", "json"):
                    key = f"{label} bound={bound or 'default'} {fmt}"
                    flags = ["--json"] if fmt == "json" else []
                    records[key] = record(argv + extra + flags, dot_path)
        for label, argv in sweep_runs(tmp):
            records[label] = record(argv, dot_path)
    for label, suite, H, bound in subgroup_runs():
        for fmt in ("text", "json"):
            out, status, dot = run_in_process(suite, H, bound, fmt == "json")
            blob = json.dumps([out, "", status, dot])
            records[f"{label} bound={bound or 'default'} {fmt}"] = [
                hashlib.sha1(blob.encode()).hexdigest(), status,
                fail_names(out, fmt == "json")]
    json.dump(records, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
