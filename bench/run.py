"""Benchmark runner for the monoid-spectra verification CLI.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Closed loop, one client: each job is one ``cli.main(["verify", ...])`` call,
run after the previous one returns.  A pass runs the workload's whole job
list in a fresh interpreter (``bench/worker.py``), so the library's caches
start cold; a run makes as many passes as fit in ``--seconds`` at the
workload's nominal pass time, a number fixed by ``--seconds`` alone.
Set-up (interpreter start, import, one parse per distinct input) is timed
separately, in extra set-up-only processes as well.

Times are scaled to a fixed machine speed: the worker times a fixed piece
of reference work before, during and after every job and after set-up, and
a time measured while the reference took ``r`` seconds is reported as
``time * REFERENCE_S / r``.  On a shared machine whose speed drifts by tens of percent over
minutes, this keeps the metrics of one program steady across runs, while
a change to the program still moves them in full.

Prints human-readable lines, then as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  A
traced run makes one untraced pass and one pass with the wrappers of
``bench/tracing.py`` installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
BASELINE = os.path.join(BENCH, "baseline.json")

SETUP_PROBES = 20    # set-up-only processes per untraced run
# The reference work's time at the speed all times are scaled to: about its
# time on an unloaded core of the 2.1 GHz Xeon the benchmark was written on.
REFERENCE_S = 0.0003
HARD_LIMIT_S = 170   # a run never outlives this, whatever --seconds says
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile

END_TO_END = {
    "wall_s": "s", "setup_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB",
    "completed_share": "ratio", "pass_share": "ratio",
}
PER_LAYER = {
    "monoid.op.calls": "count", "monoid.inv.calls": "count",
    "monoid.ctx_contains.calls": "count",
    "monoid.monoid_contains.calls": "count",
    "monoid.overmonoid_contains.calls": "count", "monoid.parse_s": "s",
    "monoid.lattice_checks_per_op": "ratio",
    "intgeom.lattice_contains.calls": "count",
    "intgeom.monoid_contains.calls": "count",
    "intgeom.hnf_rows.calls": "count",
    "intgeom.monoid_contains.hit_ratio": "ratio",
    "intgeom.monoid_contains.cache_size": "count",
    "numsgp.oversemigroups.s": "s", "numsgp.oversemigroups.masks": "count",
    "numsgp.oversemigroups.found": "count",
    "numsgp.oversemigroups.yield": "ratio",
    "numsgp.cached_semigroup.hit_ratio": "ratio",
    "numsgp.cached_semigroup.cache_size": "count",
    "idealsys.closure.calls": "count", "idealsys.pred_evals": "count",
    "idealsys.enumerate_ideals.s": "s",
    "idealsys.enumerate_ideals.candidates": "count",
    "idealsys.enumerate_ideals.distinct": "count",
    "idealsys.enumerate_ideals.yield": "ratio",
    "idealsys.check_ideal_axioms.s": "s", "idealsys.enumerate_primes.s": "s",
    "modsys.closure.calls": "count", "modsys.pred_evals": "count",
    "modsys.check_module_axioms.s": "s", "modsys.is_finitary.s": "s",
    "modsys.check_id2.s": "s", "modsys.check_idempotent.s": "s",
    "modsys.system_space.s": "s",
    "valuation.enumerate_zar.s": "s", "valuation.enumerate_overmonoids.s": "s",
    "valuation.delta.calls": "count", "valuation.delta_laws.s": "s",
    "valuation.is_s_pruefer.s": "s",
    "fintop.space.s": "s", "fintop.homeomorphic.s": "s", "fintop.dot.s": "s",
    "cli.self_s": "s", "report.render_s": "s",
    "trace.overhead_ratio": "ratio",
}
FAILED = ("error", "timeout", "bad_exit")


class HarnessError(Exception):
    """The benchmark itself could not run; no result is printed."""


def ratio(num, den):
    return num / den if den else 0.0


# -- passes -------------------------------------------------------------------

def run_worker(plan_path, *, trace, setup_only, deadline):
    """Spawn one worker and collect its lines; returns (setup, records,
    summary), where setup holds the set-up time and the reference time
    measured right after it.  The worker is killed if it is still running
    at `deadline`."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONHASHSEED"] = "0"
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-s", os.path.join(BENCH, "worker.py"), plan_path,
         "1" if trace else "0", "1" if setup_only else "0"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - perf_counter(), 0), proc.kill)
    watchdog.start()
    try:
        lines = iter(proc.stdout.readline, "")
        first = next(lines, "")
        setup_s = perf_counter() - t0
        if not first.startswith('{"ready"'):
            raise HarnessError("worker failed during set-up")
        setup = {"setup_s": setup_s, **json.loads(next(lines, "{}"))}
        records, summary = [], None
        for line in lines:
            rec = json.loads(line)
            if rec.get("done"):
                summary = rec
            else:
                records.append(rec)
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or "ref_s" not in setup or (summary is None
                                             and not setup_only):
        raise HarnessError(f"worker exited with {code} before finishing")
    return setup, records, summary


def report_digest(records):
    body = "\n".join(f"{r['job']} {r['outcome']} {r['sha1']}" for r in records)
    return hashlib.sha1(body.encode()).hexdigest()


# -- known defects ------------------------------------------------------------

def known_defect(entry, jb, kind, rec):
    """Does the failing job `rec` match the ledger entry?"""
    if jb["suite"] not in entry["suites"] or kind not in entry["kinds"]:
        return False
    if rec["outcome"] != entry["outcome"]:
        return False
    if rec["outcome"] == "fail_verdict":
        return set(rec["failed_checks"]) <= set(entry["checks"])
    return re.search(entry["match"], rec["detail"]) is not None


def match_ledger(ledger, plan, records):
    """Ledger id of every non-passing job, or None for an unknown failure."""
    out = {}
    for rec in records:
        if rec["outcome"] == "pass":
            continue
        jb = plan["jobs"][rec["job"]]
        kind = workloads.input_kind(plan, jb)
        out[rec["job"]] = next((e["id"] for e in ledger
                                if known_defect(e, jb, kind, rec)), None)
    return out


def describe(plan, jb):
    bound = "default" if jb["bound"] is None else jb["bound"]
    desc = plan["inputs"][jb["input"]]
    what = (desc["generators"] if desc["kind"] != "finite"
            else f"of size {desc['size']}")
    return f"{jb['suite']} on {desc['kind']} {what} bound={bound}"


# -- metrics ------------------------------------------------------------------

def scaled_latencies(records, ref_end_s):
    """Job latencies of one pass scaled to the reference speed, each by the
    median of the reference times taken just before it, during it and just
    after it.  A job that timed out took its time budget, whatever the
    machine's speed, so its latency stays as measured."""
    after = [r["ref_s"] for r in records[1:]] + [ref_end_s]
    return [r["latency_s"] if r["outcome"] == "timeout"
            else r["latency_s"] * REFERENCE_S / statistics.median(
                [r["ref_s"], *r["ref_in_job_s"], end])
            for r, end in zip(records, after)]


def job_medians(passes):
    """Each job's median scaled latency over the passes of a run."""
    scaled = [scaled_latencies(p["records"], p["ref_end_s"]) for p in passes]
    return [statistics.median(lat[i] for lat in scaled)
            for i in range(len(scaled[0]))]


def end_to_end(setups, passes):
    outcomes = [r["outcome"] for p in passes for r in p["records"]]
    n = len(outcomes)
    completed = sum(o not in FAILED for o in outcomes)
    medians = job_medians(passes)
    return {
        "wall_s": sum(medians),
        "setup_s": statistics.median(s["setup_s"] * REFERENCE_S / s["ref_s"]
                                     for s in setups),
        "job_p50_s": statistics.median(medians),
        "peak_rss_mb": statistics.median(p["maxrss_kb"] for p in passes) / 1024,
        "completed_share": completed / n,
        "pass_share": outcomes.count("pass") / n,
    }


def per_layer(summary, untraced_wall):
    c, s = summary["counts"], summary["self_s"]
    m = {name: s.get(name, 0.0) if unit == "s" else c.get(name, 0)
         for name, unit in PER_LAYER.items()}
    for name, (hit, size, _) in summary["caches"].items():
        m[f"{name}.hit_ratio"] = hit
        m[f"{name}.cache_size"] = size
    ops = c.get("monoid.op.calls", 0) + c.get("monoid.inv.calls", 0)
    m["monoid.lattice_checks_per_op"] = ratio(
        c.get("intgeom.lattice_contains.calls", 0), ops)
    m["numsgp.oversemigroups.yield"] = ratio(
        c.get("numsgp.oversemigroups.found", 0),
        c.get("numsgp.oversemigroups.masks", 0))
    m["idealsys.enumerate_ideals.yield"] = ratio(
        c.get("idealsys.enumerate_ideals.distinct", 0),
        c.get("idealsys.enumerate_ideals.candidates", 0))
    m["trace.overhead_ratio"] = ratio(summary["wall_s"], untraced_wall)
    return m


def ratio_bases(summary, untraced_wall):
    c = summary["counts"]
    caches = summary["caches"]
    ops = c.get("monoid.op.calls", 0) + c.get("monoid.inv.calls", 0)
    lookups = {k: v[2] for k, v in caches.items()}
    return [
        f"monoid.lattice_checks_per_op = "
        f"{c.get('intgeom.lattice_contains.calls', 0)} lattice_contains / "
        f"{ops} op+inv",
        f"intgeom.monoid_contains.hit_ratio over "
        f"{lookups['intgeom.monoid_contains']} lookups",
        f"numsgp.cached_semigroup.hit_ratio over "
        f"{lookups['numsgp.cached_semigroup']} lookups",
        f"numsgp.oversemigroups.yield = "
        f"{c.get('numsgp.oversemigroups.found', 0)} found / "
        f"{c.get('numsgp.oversemigroups.masks', 0)} masks",
        f"idealsys.enumerate_ideals.yield = "
        f"{c.get('idealsys.enumerate_ideals.distinct', 0)} distinct / "
        f"{c.get('idealsys.enumerate_ideals.candidates', 0)} candidates",
        f"trace.overhead_ratio = {summary['wall_s']:.3f} s traced / "
        f"{untraced_wall:.3f} s untraced",
    ]


# -- main -----------------------------------------------------------------------

def write_plan(plan, workdir):
    """Write the inputs and the worker's plan file; returns its path."""
    files = {}
    for group, key in (("inputs", "input_files"), ("families", "family_files")):
        files[key] = {}
        for name, desc in plan[group].items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(desc, fh)
            files[key][name] = path
    plan_path = os.path.join(workdir, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump({**plan, **files}, fh)
    return plan_path


def run(args, workdir, out):
    start = perf_counter()
    deadline = start + HARD_LIMIT_S
    plan = workloads.plan(args.workload, args.seed)
    plan_path = write_plan(plan, workdir)
    with open(BASELINE, encoding="utf-8") as fh:
        baseline = json.load(fh)

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(run_worker(plan_path, trace=False, setup_only=True,
                                     deadline=deadline)[0])
    passes = []
    n_passes = 1 if args.trace else workloads.passes(args.workload,
                                                      args.seconds)
    longest = 0.0
    while len(passes) < n_passes:
        if perf_counter() + longest > deadline:
            raise HarnessError(f"only {len(passes)} of {n_passes} passes fit "
                               f"in {HARD_LIMIT_S} s")
        t0 = perf_counter()
        setup, records, summary = run_worker(
            plan_path, trace=False, setup_only=False, deadline=deadline)
        longest = max(longest, perf_counter() - t0)
        setups.append(setup)
        passes.append({**summary, "records": records,
                       "digest": report_digest(records)})

    digests = {p["digest"] for p in passes}
    correct = len(digests) == 1
    if not correct:
        print("passes of one run gave different reports", file=out)
    traced = None
    if args.trace:
        _, t_records, traced = run_worker(plan_path, trace=True,
                                          setup_only=False, deadline=deadline)
        if report_digest(t_records) not in digests:
            correct = False
            print("traced reports differ from untraced ones", file=out)

    records = passes[0]["records"]
    ledger = baseline["known_defects"]
    matches = match_ledger(ledger, plan, records)
    n_jobs = len(plan["jobs"])
    attempted = n_jobs * len(passes)
    failed = sum(r["outcome"] in FAILED for p in passes for r in p["records"])
    verdict_fails = sum(r["outcome"] == "fail_verdict"
                        for p in passes for r in p["records"])
    kinds = sorted({workloads.input_kind(plan, jb) for jb in plan["jobs"]})

    print(f"workload {args.workload} seed {args.seed}: {n_jobs} jobs per pass "
          f"on {len(plan['inputs'])} inputs ({', '.join(kinds)}), "
          f"{len(passes)} pass(es), {len(setups)} set-ups", file=out)
    print(f"failed_share = {failed}/{attempted} = "
          f"{ratio(failed, attempted):.4f}", file=out)
    print(f"fail_verdict_share = {verdict_fails}/{attempted} = "
          f"{ratio(verdict_fails, attempted):.4f}", file=out)
    for entry in ledger:
        hits = [describe(plan, plan["jobs"][j]) for j, e in matches.items()
                if e == entry["id"]]
        if hits:
            print(f"known defect {entry['id']}: {len(hits)} job(s) per pass, "
                  f"e.g. {hits[0]}", file=out)
    for j, e in matches.items():
        if e is None:
            correct = False
            rec = records[j]
            print(f"UNEXPECTED {rec['outcome']}: "
                  f"{describe(plan, plan['jobs'][j])} "
                  f"{rec['detail'] or rec['failed_checks']}", file=out)
    digest = passes[0]["digest"]
    base = baseline["report_digest"].get(args.workload, {})
    if base.get("seed") == args.seed:
        state = "matches" if base["digest"] == digest else "DIFFERS from"
        print(f"report_digest {digest} {state} the baseline", file=out)
    else:
        print(f"report_digest {digest} (baseline digest is for seed "
              f"{base.get('seed')})", file=out)

    if traced is None:
        metrics = end_to_end(setups, passes)
        units = END_TO_END
        medians = job_medians(passes)
        raw_wall = statistics.median(p["wall_s"] for p in passes)
        refs = [r["ref_s"] for p in passes for r in p["records"]]
        print(f"reference work {statistics.median(refs) * 1e3:.3f} ms "
              f"(median of {len(refs)}; scaled to {REFERENCE_S * 1e3:g} ms); "
              f"unscaled pass time {raw_wall:.3f} s (median)", file=out)
        print(f"per-job latency, each job's median over {len(passes)} "
              f"passes, {len(medians)} samples: job_p50_s "
              f"{statistics.median(medians):.4f} s", file=out)
        if len(medians) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(medians, n=10)[8]
            print(f"job_p90_s {p90:.4f} s ({len(medians)} samples)", file=out)
    else:
        metrics = per_layer(traced, passes[0]["wall_s"])
        units = PER_LAYER
        for line in ratio_bases(traced, passes[0]["wall_s"]):
            print(line, file=out)
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}", file=out)
    print(f"elapsed {perf_counter() - start:.1f} s", file=out)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]}
                        for name in units}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "monoid_spectra")):
        print("error: src/monoid_spectra not found next to bench/",
              file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        result = run(args, workdir, sys.stdout)
    except HarnessError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
