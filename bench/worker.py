"""One pass of a workload in a fresh interpreter, so the library's caches
start cold.

    python3 bench/worker.py <plan.json> <trace 0|1> <setup-only 0|1>

The plan names the input files and the job list.  The worker imports the
library from the checkout's ``src``, parses every distinct input once (set-up),
prints a ``ready`` line, runs the jobs one at a time through ``cli.main`` and
prints one JSON line per job and a final summary line.  The CLI's own output
is captured and hashed, never echoed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import resource
import signal
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


class JobTimeout(Exception):
    """Raised inside a job when its time budget runs out.  Deliberately not
    an OSError: ``cli.main`` maps OSError to exit code 2."""


@contextlib.contextmanager
def deadline(seconds):
    def expire(signum, frame):
        raise JobTimeout(f"no result within {seconds:g} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# The reference work, timed next to every job and during it, so that the
# runner can scale job times to a fixed machine speed (see run.py)
REFERENCE_ITERS = 2000
# CPU time between two timings of the reference work inside a job: about 60
# samples in a 3 s job, at a cost of 0.5 % of its time
SAMPLE_EVERY_S = 0.05

FAILED_CHECK = re.compile(r"^\S+ (\S+) FAIL\b", re.M)


def classify(code=None, exc=None):
    """Outcome of one job from its exit code or the exception it raised:
    pass (0), fail_verdict (1, OVERALL FAIL), bad_exit (any other code),
    timeout, or error (a traceback)."""
    if isinstance(exc, JobTimeout):
        return "timeout"
    if exc is not None:
        return "error"
    return {0: "pass", 1: "fail_verdict"}.get(code, "bad_exit")


def run_job(cli_main, argv, timeout_s):
    """Run one CLI call in-process; returns its record without the job
    index."""
    out, err = io.StringIO(), io.StringIO()
    code = exc = None
    t0 = perf_counter()
    try:
        with deadline(timeout_s), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as e:  # argparse rejects an argument list
        code = e.code
    except Exception as e:  # any traceback is a failed job, not a crash
        exc = e
    latency = perf_counter() - t0
    outcome = classify(code, exc)
    report = out.getvalue()
    if exc is not None:
        detail = f"{type(exc).__name__}: {exc}"
    elif outcome == "bad_exit":
        detail = f"exit {code}: {err.getvalue().strip()}"
    else:
        detail = ""
    return {"outcome": outcome, "latency_s": latency,
            "sha1": hashlib.sha1((report + detail).encode()).hexdigest(),
            "failed_checks": FAILED_CHECK.findall(report)
            if outcome == "fail_verdict" else [],
            "detail": detail}


def reference_work():
    """A fixed piece of pure-Python work (integer arithmetic, list stores,
    a loop) whose time tracks the machine's current speed.  It keeps no
    object alive, so it leaves the library's state as it found it."""
    acc = [0] * 256
    x = y = 0
    for i in range(REFERENCE_ITERS):
        x += i % 7
        y -= i % 5
        acc[x & 255] = y
    return acc[0]


def reference_s():
    """Median time of three runs of the reference work."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        reference_work()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


@contextlib.contextmanager
def speed_samples(samples):
    """Append a timing of the reference work to `samples` every
    SAMPLE_EVERY_S of CPU time while the block runs.  The machine's speed
    drifts within a job of a few seconds, so timings taken only before and
    after it do not tell how fast it ran."""
    def sample(signum, frame):
        t0 = perf_counter()
        reference_work()
        samples.append(perf_counter() - t0)

    previous = signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def job_argv(plan, jb):
    argv = ["verify", "--suite", jb["suite"],
            "--input", plan["input_files"][jb["input"]],
            "--seed", str(plan["cli_seed"])]
    if jb["family"] is not None:
        argv += ["--family", plan["family_files"][jb["family"]]]
    if jb["bound"] is not None:
        argv += ["--bound", str(jb["bound"])]
    return argv


def emit(stream, record):
    stream.write(json.dumps(record) + "\n")
    stream.flush()


def main(argv):
    # one core for the whole pass: on a shared two-core machine this halves
    # the run-to-run spread of the timings
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    plan_path, trace, setup_only = argv[0], argv[1] == "1", argv[2] == "1"
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    channel = sys.stdout
    sys.path.insert(0, SRC)
    import monoid_spectra
    from monoid_spectra import cli, intgeom, modsys, monoid, numsgp
    if os.path.dirname(os.path.abspath(monoid_spectra.__file__)) != \
            os.path.join(SRC, "monoid_spectra"):
        print(f"monoid_spectra was imported from {monoid_spectra.__file__},"
              f" not from {SRC}", file=sys.stderr)
        return 2
    # the lru_cache objects, read before the tracer rebinds their names
    caches = {"intgeom.monoid_contains": intgeom.monoid_contains,
              "numsgp.cached_semigroup": numsgp.cached_semigroup}
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    for path in plan["input_files"].values():
        monoid.monoid_from_file(path)
    for path in plan["family_files"].values():
        modsys.family_from_file(path)
    emit(channel, {"ready": True})
    emit(channel, {"ref_s": reference_s()})
    if setup_only:
        return 0
    t0 = perf_counter()
    for i, jb in enumerate(plan["jobs"]):
        counts = dict(tracer.counts) if tracer else None
        ref = reference_s()
        samples = []
        with speed_samples(samples):
            record = run_job(cli.main, job_argv(plan, jb), jb["timeout_s"])
        if tracer and record["outcome"] == "timeout":
            # how far a cut-off job got depends on machine speed; dropping
            # its counts keeps every count repeatable
            tracer.counts.clear()
            tracer.counts.update(counts)
        record["job"] = i
        record["ref_s"] = ref
        record["ref_in_job_s"] = samples
        emit(channel, record)
    wall = perf_counter() - t0
    summary = {"done": True, "wall_s": wall, "ref_end_s": reference_s(),
               "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if tracer is not None:
        summary["counts"] = dict(tracer.counts)
        summary["self_s"] = dict(tracer.self_s)
        summary["caches"] = {name: tracing.cache_stats(fn)
                             for name, fn in caches.items()}
    emit(channel, summary)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
