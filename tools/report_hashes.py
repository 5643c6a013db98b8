"""Print one record per CLI run, as sorted JSON, to compare two checkouts.

Runs ``cli.main`` in this process on every suite x every monoid input in
``tests/data`` x {default bound, 1, 2, 3} x {text, --json}, each with
``--dot``, plus ``main2 --family adjoin-ray.json`` on the same bounds and
formats.  A run's record is ``[sha1, status, fails]``: the SHA-1 over
stdout, stderr, the exit code (or the exception the run raised) and the DOT
file; that exit code or exception; and the sorted names of the report's FAIL
lines.  A refactor that keeps every report byte-identical gives the same
output before and after:

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
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(ROOT, "tests", "data")
sys.path.insert(0, os.path.join(ROOT, "src"))

from monoid_spectra import cli  # noqa: E402

BOUNDS = (None, 1, 2, 3)
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
    """(label, argv) of every run, without --dot."""
    for name in monoid_inputs():
        for suite in cli.SUITES:
            yield suite + " " + name, ["--suite", suite, "--input",
                                       os.path.join(DATA, name)]
    yield "main2 --family adjoin-ray.json", [
        "--suite", "main2", "--family", os.path.join(DATA, "adjoin-ray.json")]


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
        for label, argv in runs():
            for bound in BOUNDS:
                extra = [] if bound is None else ["--bound", str(bound)]
                for fmt in ("text", "json"):
                    key = f"{label} bound={bound or 'default'} {fmt}"
                    flags = ["--json"] if fmt == "json" else []
                    records[key] = record(argv + extra + flags, dot_path)
    json.dump(records, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
