"""Self-tests of the benchmark harness.

    python3 -m pytest bench
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


# -- workloads ----------------------------------------------------------------

def test_sweep_is_deterministic_for_a_seed():
    assert workloads.plan("sweep", 7) == workloads.plan("sweep", 7)
    assert workloads.plan("sweep", 7) != workloads.plan("sweep", 8)


def test_sweep_covers_three_realizations_with_distinct_inputs():
    plan = workloads.plan("sweep", 3)
    descs = [json.dumps(d, sort_keys=True) for d in plan["inputs"].values()]
    assert len(set(descs)) == len(descs)
    assert len(plan["jobs"]) >= 100
    kinds = {workloads.input_kind(plan, jb) for jb in plan["jobs"]}
    assert kinds == {"numerical", "affine", "finite"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_jobs_use_supported_suite_realization_pairs(name):
    plan = workloads.plan(name, 0)
    for jb in plan["jobs"]:
        assert jb["suite"] in workloads.SUPPORTED[
            workloads.input_kind(plan, jb)]


def test_sweep_verdicts_do_not_depend_on_the_seed():
    # affine inputs are images of one fixed pool under symmetries of the
    # square, so the same generator shapes appear for every seed
    def shapes(seed):
        return sorted(
            min(tuple(sorted(sym(*g) for g in d["generators"]))
                for sym in workloads.SQUARE_SYMMETRIES)
            for d in workloads.plan("sweep", seed)["inputs"].values()
            if d["kind"] == "affine")
    assert shapes(1) == shapes(2)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_pass_count_depends_on_seconds_alone(name):
    assert workloads.passes(name, 1) == 1
    assert workloads.passes(name, 36) >= 2


def test_numerical_semigroups_have_the_known_count():
    # numerical semigroups with Frobenius number -1..8: 1+1+1+2+2+5+4+11+10
    assert len(workloads.numerical_semigroups(8)) == 37


# -- outcome classification ---------------------------------------------------

def fake_cli(body):
    def main(argv):
        return body()
    return main


def test_traceback_is_an_error():
    def body():
        raise ValueError("Sample larger than population or is negative")
    rec = worker.run_job(fake_cli(body), [], 5)
    assert rec["outcome"] == "error"
    assert rec["detail"].startswith("ValueError: Sample larger")


def test_overall_fail_is_a_fail_verdict_with_its_checks():
    def body():
        sys.stdout.write("SUITE x\nCHECK a PASS\nCHECK t0 FAIL pair=1,2\n"
                         "OVERALL FAIL\n")
        return 1
    rec = worker.run_job(fake_cli(body), [], 5)
    assert rec["outcome"] == "fail_verdict"
    assert rec["failed_checks"] == ["t0"]


def test_timeout_is_not_an_oserror_and_is_classified():
    assert not issubclass(worker.JobTimeout, OSError)

    def body():
        while True:
            time.sleep(0.01)
    t0 = time.perf_counter()
    rec = worker.run_job(fake_cli(body), [], 0.2)
    assert rec["outcome"] == "timeout"
    assert time.perf_counter() - t0 < 2


@pytest.mark.parametrize("code, outcome", [(0, "pass"), (2, "bad_exit"),
                                           (3, "bad_exit")])
def test_exit_codes(code, outcome):
    assert worker.run_job(fake_cli(lambda: code), [], 5)["outcome"] == outcome


def test_known_defect_ledger_matches_only_its_failures():
    with open(run.BASELINE, encoding="utf-8") as fh:
        ledger = json.load(fh)["known_defects"]
    plan = {"inputs": {"z2": {"kind": "finite"}, "n": {"kind": "numerical"}},
            "jobs": [{"suite": "prop1", "input": "z2"},
                     {"suite": "axioms", "input": "z2"},
                     {"suite": "main1", "input": "n"},
                     {"suite": "main1", "input": "n"}]}
    sample = "ValueError: Sample larger than population or is negative"
    records = [
        {"job": 0, "outcome": "error", "detail": sample, "failed_checks": []},
        {"job": 1, "outcome": "error", "detail": sample, "failed_checks": []},
        {"job": 2, "outcome": "fail_verdict", "detail": "",
         "failed_checks": ["system-carrier-t0"]},
        {"job": 3, "outcome": "fail_verdict", "detail": "",
         "failed_checks": ["system-carrier-t0", "Id1"]},
    ]
    assert run.match_ledger(ledger, plan, records) == {
        0: "sample-exceeds-window", 1: None, 2: "main1-t0-window", 3: None}


# -- metrics ------------------------------------------------------------------

def test_benchmark_json_lists_the_runner_metrics():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def synthetic_summary():
    return {"wall_s": 3.0,
            "counts": {"monoid.op.calls": 30, "monoid.inv.calls": 10,
                       "intgeom.lattice_contains.calls": 90,
                       "numsgp.oversemigroups.masks": 64,
                       "numsgp.oversemigroups.found": 8,
                       "idealsys.enumerate_ideals.candidates": 50,
                       "idealsys.enumerate_ideals.distinct": 5},
            "self_s": {"cli.self_s": 1.5, "fintop.space.s": 0.25},
            "caches": {"intgeom.monoid_contains": [0.75, 12, 40],
                       "numsgp.cached_semigroup": [0.5, 3, 6]}}


def test_ratios_are_computed_and_printed_with_their_bases():
    summary = synthetic_summary()
    m = run.per_layer(summary, 2.0)
    assert set(m) == set(run.PER_LAYER)
    assert m["monoid.lattice_checks_per_op"] == 90 / 40
    assert m["numsgp.oversemigroups.yield"] == 8 / 64
    assert m["idealsys.enumerate_ideals.yield"] == 5 / 50
    assert m["trace.overhead_ratio"] == 1.5
    assert m["fintop.space.s"] == 0.25 and m["cli.self_s"] == 1.5
    assert m["intgeom.monoid_contains.hit_ratio"] == 0.75
    assert m["numsgp.cached_semigroup.cache_size"] == 3
    text = "\n".join(run.ratio_bases(summary, 2.0))
    for base in ("90 lattice_contains / 40 op+inv", "over 40 lookups",
                 "over 6 lookups", "8 found / 64 masks",
                 "5 distinct / 50 candidates", "3.000 s traced / 2.000 s"):
        assert base in text


def test_latencies_are_scaled_by_the_reference_times_around_and_in_a_job():
    ref = run.REFERENCE_S
    records = [{"latency_s": 1.0, "outcome": "pass", "ref_s": ref,
                "ref_in_job_s": []},
               {"latency_s": 1.0, "outcome": "fail_verdict", "ref_s": 2 * ref,
                "ref_in_job_s": [4 * ref, 4 * ref]},
               {"latency_s": 1.5, "outcome": "timeout", "ref_s": 2 * ref,
                "ref_in_job_s": [4 * ref]}]
    scaled = run.scaled_latencies(records, ref_end_s=2 * ref)
    # a timed-out job took its budget whatever the machine's speed
    assert scaled == pytest.approx([2 / 3, 1 / 3, 1.5])


# -- tracing ----------------------------------------------------------------

def test_traced_reports_equal_untraced_and_cli_imports_are_patched(tmp_path):
    plan = {"inputs": {"n23": workloads.numerical(2, 3)}, "families": {},
            "jobs": [workloads.job("spec", "n23"),
                     workloads.job("prop1", "n23")], "cli_seed": 0}
    path = run.write_plan(plan, str(tmp_path))
    deadline = time.perf_counter() + 60
    _, plain, _ = run.run_worker(path, trace=False, setup_only=False,
                                 deadline=deadline)
    _, traced, summary = run.run_worker(path, trace=True, setup_only=False,
                                        deadline=deadline)
    assert run.report_digest(plain) == run.report_digest(traced)
    # suite_spec calls enumerate_primes through cli's own binding
    assert summary["self_s"]["idealsys.enumerate_primes.s"] > 0
    assert summary["counts"]["idealsys.pred_evals"] > 0
    assert summary["self_s"]["numsgp.oversemigroups.s"] > 0
