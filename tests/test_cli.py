import hashlib
import importlib.util
import itertools
import json
import os
import re
import subprocess
import sys
import time
from collections import Counter

import pytest

from monoid_spectra import (cli, idealsys, intgeom, layout, modsys, monoid,
                           packs, valuation)
from monoid_spectra.cli import main
from monoid_spectra.modsys import ModuleSystem, example16, iota, meet
from monoid_spectra.monoid import (MAX_WINDOW, IntCarrier, LatticeCarrier,
                                   Monoid, Overmonoid, monoid_from_file)
from monoid_spectra.report import Check
from monoid_spectra.window import _Window
from oracles import cyclic_product

DATA = os.path.join(os.path.dirname(__file__), "data")


# SHA-1 of the default text report; a speed-up or refactor must keep these
REPORT_SHA1 = {
    ("axioms", "n23"): "8b6765020e8e2aa2d587f74a5b46a1098f35e4f6",
    ("spec", "n23"): "aacc70ea37c69d9b3f5a57b390d7047c0fd221b8",
    ("ideals", "n23"): "7cb34eb9ff2f684724ad4bc6a4a330a72ef7003d",
    ("zar", "n23"): "13895c457476d10c8862e59a72114737de90e9e2",
    ("pruefer", "n23"): "d489949e8e68892caecab799b43d0e3f22c2afe4",
    ("pronconst", "n23"): "50b9f5a1aac706aaa07847e228754ffe1315df21",
    ("main1", "n23"): "5f5c77b1dfc4d062e2b98cc53d0b75264cf8f6b8",
    ("prop1", "n23"): "f65e7a3363d968f3cbc0e821ba9fedd1d60a5e74",
    ("prop2", "n23"): "aa4538accdbecbb1042e97d8dd99771beafac781",
    ("corollaries", "n23"): "caff8471fe7c80583d014b2a3f81ab82573a4cb9",
    ("axioms", "n2"): "343e3306ec3e56655b91d97bdff16e5cf7ddf29b",
    ("spec", "n2"): "09db7413787ea8bc8002524388258e41a42611ff",
    ("zar", "n2"): "00386b5ab0d56999eec31c063aa1013c247bc9ba",
    ("pruefer", "n2"): "e6f18eddc4b3353d41e5f914602f76284468f1da",
    ("main1", "n2"): "5ade82daadde7fc2750b1e608c388a0ce93a578a",
    ("prop1", "n2"): "617a47eaca11c8d0130a5ddb22574deb55677d12",
    ("prop2", "n2"): "db0087f8cea3c4a02392f88bee29bfa3a10c045c",
    ("corollaries", "n2"): "5917fe1137fb198de49b378fd08be57d5eb08cce",
    ("axioms", "c3z"): "d9fc47a4c8dc14af542a2a0bd7082ee10bbc8888",
    ("spec", "c3z"): "26a996bf5684b5394ae042d21362b6a209a57634",
    ("ideals", "c3z"): "9eed33d49cbd0ea2152babb7beb4b231ff16a516",
    ("pronconst", "c3z"): "2022f581d13d12c6650e8783b6f1c67cd1bd597b",
    ("main1", "c3z"): "fc5fbc5b7358654a48248accaf32d828e6fd1700",
    ("prop2", "c3z"): "512057f2c540fef0465c9e51a0d3649e675855be",
    # larger numerical inputs; main1 separates its systems at the
    # oversemigroups' generators
    ("pronconst", "n469"): "71311a1750d85c98edc6b4f7cff0860109bc9d46",
    ("main1", "n579"): "b9ea365bbc27b5e6ab365be6e312041d402649b2",
    # prop1 separates the oversemigroups at their generators
    ("prop1", "n71113"): "c92e07c097960b76ad089caab22836bcf665a69f",
    ("prop1", "n81113"): "b7ab14af63f57b8135d652b8b0761bea1e28681b",
    # N x Z, the s-Pruefer instance: delta is a homeomorphism
    ("zar", "nxz"): "dba1bd508079addc093b6b12b514d8cf7291b72d",
    ("pruefer", "nxz"): "1eea42d2972625b5b3d12e58781f3acb88b6f7c2",
}

# SHA-1 of the JSON report, which also carries the counts and the exhaustive
# flag of FAIL verdicts that the text report leaves out
REPORT_JSON_SHA1 = {
    ("axioms", "n23"): "5776fe879d8f9f63fe5242a389ee498807d8da25",
    ("main1", "n23"): "57481c71b81f7cf9511a71039db4ae0fac18241a",
    ("corollaries", "n23"): "191899bb4041bacf7a07caf28e830d2684eefb9a",
    ("axioms", "n2"): "b971616291872bd9322a55c8fafd6ed509ea0b25",
    ("main1", "n2"): "8f6f11432da38de5352c568e8b84203d21dffbe5",
    ("corollaries", "n2"): "23ab5f5271337a36768ebaaa14389571a04bffa0",
    ("axioms", "c3z"): "61bf8fb44f6a5f91fbdd29c4acaa541b32706eeb",
    ("main1", "c3z"): "44746f8e6a62f0b9959885954f62f231dca1b7af",
    ("corollaries", "c3z"): "f82b44078d89958bca9c59c3a1d77b8cbb5d3a8f",
    # the counts n of the int-carrier Id3 and M4 scans
    ("axioms", "n345"): "5022947e55fdc7040c96b6c6146f68b68b14d48d",
    ("axioms", "n469"): "155d9bd168b79454a362b1153c0edf02b02e3b31",
    ("axioms", "n579"): "b2eaeffc17aa827917807004284616f325590d56",
    ("corollaries", "n579"): "bb2eb173ef7cffab0041244f2d5fc684fafab739",
    # main1 separates its systems at the oversemigroups' generators
    ("main1", "n579"): "c3283910c238612db943c8dc4a0a49a08a75378c",
    ("zar", "nxz"): "8a483508cb5ef12a399268f122b6c02bee95d31d",
    ("pruefer", "nxz"): "15d1f76ba5821111dc10f05a7677bca6d7c9a979",
}

# SHA-1 of the --dot drawing of every suite that draws one, on each input
# the suite supports
DOT_SHA1 = {
    ("spec", "n23"): "accc435e906c689c2ab4b87a095579cae1dc25fa",
    ("spec", "n2"): "bb9c5631ab64cf9295f382be9f3d98d8a8ba1f39",
    ("spec", "c3z"): "ea55766c71ddbe2fb5ed992c1da8da668a3863e6",
    ("ideals", "n23"): "8584fef662d3774c568ecdb3cc9e2ff9eaca1fe9",
    ("ideals", "c3z"): "cc524715625d4805ae2cd89a795dc23ba998dac5",
    ("zar", "n23"): "66a24b4fb6d823235f8a264b5aa4fc4e21d1fb5f",
    ("zar", "n2"): "986930734dcefce61a6e120301a3ae8aecfaa912",
    ("pruefer", "n23"): "ab0948a0d40e8751bfb4057eebf71bca3767f9f4",
    ("pruefer", "n2"): "05ae6694143597949d98e6119cad6fd078b9cf0e",
    ("main1", "n23"): "aa1757a732697bbaa64aaf7677b14d8ab47c0011",
    ("main1", "n2"): "fb7cffc6f7f103d6315ecdd9ae8b34595aab0016",
    ("main1", "c3z"): "9e5fc3e960439bdd2d365040d560058c550abce9",
}


def data(name):
    return os.path.join(DATA, name)


def sha1(text):
    return hashlib.sha1(text.encode()).hexdigest()


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_axioms_suite_passes(capsys):
    code, out = run(capsys, "verify", "--suite", "axioms",
                    "--input", data("n23.json"))
    assert code == 0
    assert "OVERALL PASS" in out
    assert "Id1" in out and "Id4" in out


def test_all_suites_pass_on_n23(capsys):
    for suite in ("axioms", "spec", "ideals", "zar", "pruefer", "pronconst",
                  "main1", "prop1", "prop2", "corollaries"):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data("n23.json"))
        assert code == 0, (suite, out)
        assert sha1(out) == REPORT_SHA1[suite, "n23"], suite


def test_main2_with_family(capsys):
    code, out = run(capsys, "verify", "--suite", "main2",
                    "--input", data("n2.json"),
                    "--family", data("adjoin-ray.json"))
    assert code == 0, out
    assert "non-finitary" in out or "certificate" in out or "falsif" in out


def test_exit_code_2_on_missing_file(capsys):
    code, _ = run(capsys, "verify", "--suite", "axioms",
                  "--input", data("does-not-exist.json"))
    assert code == 2


def test_exit_code_2_on_bad_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "numerical", "generators": [2, 4]}')
    code, _ = run(capsys, "verify", "--suite", "axioms", "--input", str(bad))
    assert code == 2
    for text in ("{not json",
                 '{"kind": "numerical", "generators": [true, 2]}',
                 '{"kind": "finite", "size": 2, "table": [[0, 1], [1, 1]], '
                 '"one": false, "zero": 1}'):
        bad.write_text(text)
        code, _ = run(capsys, "verify", "--suite", "axioms",
                      "--input", str(bad))
        assert code == 2, text
    for base in ("affine:1,a;0,1", "affine:1,0;1"):
        bad.write_text('{"family": "adjoin-ray", "base": "%s", '
                       '"ray": [-1, 1], "scale": "k"}' % base)
        code, _ = run(capsys, "verify", "--suite", "main2",
                      "--family", str(bad))
        assert code == 2, base


def test_sampling_suites_run_on_a_two_element_window(capsys):
    # the suites whose checkers draw subsets, on Z/2 with zero: its window
    # has 3 points, under every draw's limit, so every draw is a full one
    for suite in ("axioms", "main1", "main2", "corollaries"):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data("c2z.json"))
        assert code == 0, (suite, out)


IDEALS = "unsupported: ideal enumeration needs numerical or finite kind"
ZAR = ("unsupported: valuation enumeration supports numerical and affine "
       "d=2 monoids")
DIM3 = "unsupported: affine monoids are implemented for dimension <= 2"
# each form at --bound 2: the suites that exit 3, with their first stderr
# line; every other suite exits 0 and writes no stderr
REFUSED = {
    "n23": {},
    "n2": {"ideals": IDEALS, "pronconst": IDEALS},
    "dim1": {"ideals": IDEALS, "zar": ZAR, "pruefer": ZAR,
             "pronconst": IDEALS},
    "line": {"ideals": IDEALS, "pronconst": IDEALS},
    "n3": dict.fromkeys(cli.SUITES, DIM3),
    "c3z": {"zar": ZAR, "pruefer": ZAR},
}
FORMS = {
    "dim1": {"kind": "affine", "dim": 1, "generators": [[2], [3]]},
    "line": {"kind": "affine", "dim": 2, "generators": [[2, 0], [3, 0]]},
    "n3": {"kind": "affine", "dim": 3,
           "generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
}


def test_exit_code_3_on_unsupported_realization(tmp_path, capsys):
    """Every suite on a numerical, a dim-1, a line, a plane, a dim-3 and a
    finite input: its exit code and first stderr line, and the suites that
    pass on each realization are the benchmark's ``SUPPORTED`` table.  A
    dim-3 input is refused where it is parsed, with one message, and a
    malformed one is still an input error."""
    spec = importlib.util.spec_from_file_location(
        "bench_workloads",
        os.path.join(DATA, "..", "..", "bench", "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    passed = {}
    for form, refused in REFUSED.items():
        path = data(form + ".json")
        if form in FORMS:
            path = tmp_path / (form + ".json")
            path.write_text(json.dumps(FORMS[form]))
        for suite in cli.SUITES:
            code = main(["verify", "--suite", suite, "--input", str(path),
                         "--bound", "2"])
            err = capsys.readouterr().err
            first = err.splitlines()[0] if err else ""
            assert (code, first) == ((3, refused[suite]) if suite in refused
                                     else (0, "")), (form, suite)
            if code == 0:
                passed.setdefault(form, []).append(suite)
    assert {kind: tuple(passed[form]) for kind, form in (
        ("numerical", "n23"), ("affine", "n2"), ("finite", "c3z"))} == \
        workloads.SUPPORTED
    path = tmp_path / "n3.json"
    path.write_text(json.dumps({**FORMS["n3"], "generators": [[1, 0]]}))
    assert main(["verify", "--suite", "spec", "--input", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: expected a list")


def test_exit_code_3_past_the_semigroup_size_guard(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"kind": "numerical", "generators": [1009, 1013]}')
    code = main(["verify", "--suite", "spec", "--input", str(big)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("unsupported: numerical semigroup too large")
    assert "Traceback" not in captured.err + captured.out


def test_exit_code_3_when_an_oversemigroup_passes_the_size_guard(
        tmp_path, capsys):
    # <300,301> fits the reach table, its oversemigroup with 89699 does not
    big = tmp_path / "big.json"
    big.write_text('{"kind": "numerical", "generators": [300, 301]}')
    code = main(["verify", "--suite", "prop1", "--input", str(big)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith(
        "unsupported: numerical semigroup too large: generators 300 and 89699")


@pytest.mark.parametrize("suite, digest", [
    ("main1", "74ffedc5924dbf260ea4ce79a89905459b4a4657"),
    ("prop1", "ab6ddb92b40aa305427a20a48294e4ebeb909d52")])
def test_far_generators_are_asked_not_laid_out(suite, digest, tmp_path,
                                              capsys, monkeypatch):
    """On the thin cone <(1,0),(-10000,1)> the localizations add the
    separating generators (10000,-1) and (-1,0).  A box around them holds
    10 002 x 3 cells at bound 1, and reading each set on it asked 120 028
    cells; main1's and prop1's reports come from the window's box and a
    question per generator instead, asking a few hundred."""
    path = tmp_path / "thin.json"
    path.write_text('{"kind": "affine", "dim": 2, '
                    '"generators": [[1, 0], [-10000, 1]]}')
    asked = []
    has = monoid.Overmonoid.has
    monkeypatch.setattr(monoid.Overmonoid, "has",
                        lambda self, g: asked.append(g) or has(self, g))
    code, out = run(capsys, "verify", "--suite", suite, "--input", str(path),
                    "--bound", "1")
    assert code == 0 and sha1(out) == digest
    assert len(asked) < 1000, len(asked)


@pytest.mark.parametrize("name", ["n23", "n2"])
def test_exit_code_3_past_the_window_guard(name, capsys, monkeypatch):
    # a bound whose window passes MAX_WINDOW points is refused before any
    # point is built; a suite that clips the bound finishes
    built = []
    for ctx in (IntCarrier, LatticeCarrier):
        def counted(self, bound, real=ctx._window):
            built.append((2 * bound + 1) ** self.dim)
            return real(self, bound)

        monkeypatch.setattr(ctx, "_window", counted)
    for suite in cli.SUITES:
        code = main(["verify", "--suite", suite, "--input",
                     data(name + ".json"), "--bound", "1000000000"])
        err = capsys.readouterr().err
        assert code in (0, 1, 3), suite
        assert code != 3 or err.startswith("unsupported: "), suite
        if suite in ("prop1", "prop2") and name == "n23":
            assert code == 0
    assert all(n <= MAX_WINDOW for n in built)


def test_the_window_refusal_names_the_bound_given(capsys):
    # ideals and pronconst widen the window to bound + F(H); the refusal
    # names the --bound the user gave, not the window's bound
    for suite in ("ideals", "pronconst", "main1"):
        code = main(["verify", "--suite", suite, "--input", data("n23.json"),
                     "--bound", "1000000000"])
        assert code == 3, suite
        assert capsys.readouterr().err == (
            "unsupported: --bound 1000000000 needs a window of more than "
            f"{MAX_WINDOW} points\n"), suite


def test_exit_code_2_on_a_seed_that_is_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("MONOID_SPECTRA_SEED", "abc")
    code = main(["verify", "--suite", "spec", "--input", data("n23.json")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: MONOID_SPECTRA_SEED")


@pytest.mark.parametrize("flag", ["--report", "--dot"])
def test_exit_code_2_on_an_unwritable_output_path(tmp_path, capsys, flag):
    code = main(["verify", "--suite", "spec", "--input", data("n23.json"),
                 flag, str(tmp_path / "missing" / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_identity_generators_are_outside_no_prime(tmp_path, capsys):
    # the identity lies on every face of the cone
    path = tmp_path / "h.json"
    path.write_text('{"kind": "affine", "dim": 2, '
                    '"generators": [[0, 0], [1, 0], [0, 1]]}')
    code, out = run(capsys, "verify", "--suite", "spec", "--input", str(path))
    assert code == 0
    assert out == run(capsys, "verify", "--suite", "spec",
                      "--input", data("n2.json"))[1]
    path.write_text('{"kind": "affine", "dim": 1, "generators": [[0]]}')
    code, out = run(capsys, "verify", "--suite", "spec", "--input", str(path))
    assert code == 0
    assert "primes-enumerated INFO (n=1, bound=4) -- P_zero" in out


def test_reports_on_larger_numerical_inputs(capsys):
    for suite, name in (("pronconst", "n469"), ("main1", "n579"),
                        ("prop1", "n71113"), ("prop1", "n81113")):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data(name + ".json"))
        assert code == 0, (suite, name, out)
        assert sha1(out) == REPORT_SHA1[suite, name], (suite, name)


# Reports at seeds the benchmark passes with --seed, besides the default
# seed 0 of REPORT_SHA1.  main1 on <5,7,9>: the sampled Id3 and M4 scans
# differ by seed.  main2: the finitary check of the carrier's intersection
# system draws its sets A from the seed.  prop2 draws nothing, so its
# reports differ by seed in the SEED line alone.
SEEDED_SHA1 = {
    ("main1", "n579", 1): "3c7a462354b7164090c94f05764ac5b8bdf240d1",
    ("main1", "n579", 2): "c183fcbf8b9d86a99d4d53d9ea966d08a27c6342",
    ("main2", "n2", 1): "3633de3074878a253be64c47e2b77c4faaafdf74",
    ("main2", "n2", 2): "6b17f140e184d644d51047923318890eed8c086c",
    ("main2", "nxz", 1): "5063b808bee2a6f2b88e5c1388eca5fa149f86e9",
    ("main2", "nxz", 2): "ce2eef2df89c039f65bf37cda5dbb68fa661d78e",
    ("main2", "n23", 1): "353d8b39d65caeb2f4ea68012d301f5e771fc6b1",
    ("main2", "n23", 2): "b11e738fa93beb657e5508f3bc06458dc82de161",
    ("main2", "c3z", 1): "10900010ad8267fc8cd0887078d15739f666c3dd",
    ("main2", "c3z", 2): "b2f276f75c2ce13b30dadad2a5578b0016459293",
    ("prop2", "n2", 1): "c75f138104bd129be0ac28e2f130e45ce73ad94b",
    ("prop2", "n2", 2): "c809fce6b41231923f3d20496f41beb7a6a74c1d",
    ("prop2", "nxz", 1): "10cea1390c72c0bcb18d1f8c2bccefe06d78af9d",
    ("prop2", "nxz", 2): "0e85f503a9b04493f9b7d3bb27b7ca5820330611",
    ("prop2", "n23", 1): "da68610e40c1a2f2a0908cebb883170943f8589a",
    ("prop2", "n23", 2): "4e34959b883c8d95163489e8b7c86446ef75d181",
    ("prop2", "c3z", 1): "4bc0a4a8c0b9718537e049412cf7d248c9584f19",
    ("prop2", "c3z", 2): "872e31758462042dea5096cf35080eee9577c785",
}


def check_seeded(capsys, suites):
    for (suite, name, seed), digest in SEEDED_SHA1.items():
        if suite in suites:
            code, out = run(capsys, "verify", "--suite", suite, "--input",
                            data(name + ".json"), "--seed", str(seed))
            assert code == 0, (suite, name, seed)
            assert sha1(out) == digest, (suite, name, seed)


def test_main1_reports_at_more_seeds(capsys):
    check_seeded(capsys, ("main1",))


def test_main2_and_prop2_report_at_more_seeds(capsys):
    check_seeded(capsys, ("main2", "prop2"))


def test_window_masks_are_the_window_points_of_the_closure():
    # a window reads A_r from its members' masks, one slot per system, in
    # the carrier's layout: a box, or the row of a finite table (a meet's
    # members are all its systems' members); each slot's bits of a box are
    # the closure's window points, on the window's one bit map, whose bits
    # rise in window order, and the zero's bit, which every product
    # closure holds
    for name in ("n2", "nxz", "n23", "c3z"):
        H = monoid_from_file(data(name + ".json"))
        ctx = H.context
        overs = valuation.enumerate_overmonoids(H)
        points = ctx.nonzero_window(4)
        systems = [*map(iota, overs), example16(H),
                   ModuleSystem("r_overs", ctx, overs),
                   meet([iota(S) for S in overs])]
        w = _Window(ctx, points, systems)
        pack, = w.packs
        assert pack.slots == list(range(len(systems)))
        assert [w.cell[g] for g in points] == sorted(w.cell.values())
        assert all(w.point[w.cell[g]] == g for g in points)
        # every pair of c3z's three points, every fifth point elsewhere
        step = 5 if len(points) > 5 else 1
        for A in map(frozenset, itertools.combinations(points[::step], 2)):
            bits = pack.box(A)
            for s, r in enumerate(systems):
                pred = r.closure(A)
                inside = {g for g in points if pred(g)}
                assert inside == {g for g in points if bits >> s
                                  * pack.width + w.cell[g] & 1}, (name, r, A)
                assert bits >> s * pack.width & w.inf, (name, r, A)


# finite inputs: the two tables of tests/data, Z/4, (Z/2)^2 and a
# relabelled Z/6, each with an absorbing zero
FINITE = {"c2z": None, "c3z": None, "z4": cyclic_product([4]),
          "z2z2": cyclic_product([2, 2]),
          "z6-relabelled": cyclic_product([6], [3, 6, 0, 5, 1, 4, 2])}


@pytest.mark.parametrize("name", sorted(FINITE))
def test_finite_reports_are_the_same_read_point_by_point(
        name, tmp_path, capsys, monkeypatch):
    """Every suite on a finite table, text and JSON, at the default bound
    and at bound 1: the same report and exit code with the table layout as
    with every window's systems read from their closures, their members hidden
    from its packs."""
    path = data(name + ".json")
    if FINITE[name]:
        path = str(tmp_path / "table.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(FINITE[name], fh)
    runs = [["--suite", suite, "--input", path, *bound, *fmt]
            for suite in cli.SUITES for bound in ([], ["--bound", "1"])
            for fmt in ([], ["--json"])]
    reports = [[run(capsys, "verify", *args) for args in runs]]
    init, packed = _Window.__init__, []

    def hiding(self, ctx, universe, systems, *args):
        systems = list(systems)
        init(self, ctx, universe, [modsys.ModuleSystem(
            r.name, r.context, rule=r.closure) for r in systems], *args)
        self.systems = systems  # a shared window still names its system
        packed.extend(p.packed for p in self.packs)

    monkeypatch.setattr(_Window, "__init__", hiding)
    reports.append([run(capsys, "verify", *args) for args in runs])
    assert packed and not any(packed)
    assert reports[0] == reports[1]
    assert {code for code, _ in reports[0]} == {0, 3}


def every_suite_run():
    """main2 on the family of tests/data, then every suite on every monoid
    input there."""
    runs = [["--suite", "main2", "--family", data("adjoin-ray.json")]]
    for name in sorted(os.listdir(DATA)):
        with open(data(name), encoding="utf-8") as fh:
            if "kind" in json.load(fh):
                runs += [["--suite", suite, "--input", data(name)]
                         for suite in cli.SUITES]
    return runs


def test_every_suite_reads_its_systems_from_their_members(capsys,
                                                          monkeypatch):
    # every system the library builds names its members, so no pack asks
    # a rule, one ask per reach cell: only the tests' hidden systems do
    init, packed = packs._Pack.__init__, []

    def recording(self, w, slots, flag):
        init(self, w, slots, flag)
        packed.append(flag)

    monkeypatch.setattr(packs._Pack, "__init__", recording)
    for args in every_suite_run():
        run(capsys, "verify", *args)
    assert packed and all(packed)


def test_no_info_line_carries_a_verdict_word(capsys):
    # an INFO line records a fact and never moves the overall verdict, so
    # its detail must not read as one
    verdict = re.compile(r"\b(PASS|FAIL|BOUNDED-PASS)\b")
    infos = 0
    for args in every_suite_run():
        code, out = run(capsys, "verify", *args, "--json")
        if code == 3:  # unsupported here: no report
            continue
        for c in json.loads(out)["checks"]:
            if c["verdict"] == "INFO":
                infos += 1
                assert not verdict.search(c["detail"]), (args, c["name"])
    assert infos


def test_one_parse_serves_every_call_of_a_process(capsys):
    # a usage error leaves later calls of the process as they were, and the
    # command line costs no argparse, gettext or locale import
    args = ["verify", "--suite", "main1", "--input", data("n23.json")]
    code, out = run(capsys, *args)
    assert code == 0 and sha1(out) == REPORT_SHA1["main1", "n23"]
    code, out = run(capsys, *args, "--json")
    assert code == 0 and sha1(out) == REPORT_JSON_SHA1["main1", "n23"]
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonesuch", "--input", data("n23.json")])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out = run(capsys, *args)
    assert code == 0 and sha1(out) == REPORT_SHA1["main1", "n23"]
    script = ("import sys\n"
              "import monoid_spectra.cli as cli\n"
              f"cli.main({args!r})\n"
              "print([m for m in ('argparse', 'gettext', 'locale')\n"
              "       if m in sys.modules], file=sys.stderr)\n")
    src = os.path.join(DATA, "..", "..", "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert sha1(proc.stdout) == REPORT_SHA1["main1", "n23"]
    assert proc.stderr == "[]\n"


# one call per kind of usage error, with the word its message carries
USAGE_ERRORS = {
    "no command": ([], "required"),
    "another command": (["check", "--suite", "spec"], "invalid choice"),
    "no suite": (["verify", "--input", "n23"], "required"),
    "unknown suite": (["verify", "--suite", "nonesuch"], "invalid choice"),
    "unknown option": (["verify", "--suite", "spec", "--output", "x"],
                       "unrecognized"),
    "abbreviated option": (["verify", "--suite", "spec", "--inp", "n23"],
                           "unrecognized"),
    "missing value": (["verify", "--suite", "spec", "--input"],
                      "expected one argument"),
    "option for a value": (["verify", "--suite", "spec", "--input",
                            "--json"], "expected one argument"),
    "bound not an int": (["verify", "--suite", "spec", "--bound", "two"],
                         "invalid int value"),
    "seed not an int": (["verify", "--suite", "spec", "--seed=1.5"],
                        "invalid int value"),
}


@pytest.mark.parametrize("case", USAGE_ERRORS)
def test_a_usage_error_exits_2_with_one_error_line(case, capsys):
    argv, word = USAGE_ERRORS[case]
    argv = [data(a + ".json") if a == "n23" else a for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage == cli.USAGE
    assert error.startswith("monoid-spectra: error: ") and word in error


def test_options_take_their_value_after_a_space_or_an_equals_sign(capsys):
    spaced = run(capsys, "verify", "--suite", "spec", "--input",
                 data("n2.json"), "--bound", "2")
    joined = run(capsys, "verify", "--suite=spec",
                 f"--input={data('n2.json')}", "--bound=2")
    assert spaced == joined and spaced[0] == 0


def test_help_names_every_suite_and_exits_0(capsys):
    for flag in ("-h", "--help"):
        with pytest.raises(SystemExit) as exc:
            main(["verify", flag])
        assert exc.value.code == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == cli.USAGE and err == ""
        assert [line.split()[0] for line in lines[1:]] == list(cli.SUITES)


def test_a_bound_that_is_not_positive_is_refused_by_main(capsys):
    for bound in ("0", "-1"):
        code = main(["verify", "--suite", "spec", "--input", data("n23.json"),
                     "--bound", bound])
        assert code == 2
        assert capsys.readouterr().err == "error: --bound must be positive\n"


def test_spec_and_prop1_separate_numerical_inputs_at_every_bound(capsys):
    # primes and overmonoids are told apart by their generators, so no bound
    # can make spec's t0, prop1's iota-injective or main1's
    # system-carrier-t0 FAIL; main1 at the default bound takes seconds on
    # the larger inputs and is left to tools/report_hashes.py
    numerical = []
    for name in sorted(os.listdir(DATA)):
        with open(data(name), encoding="utf-8") as fh:
            if json.load(fh).get("kind") == "numerical":
                numerical.append(name)
    assert numerical
    for name in numerical:
        for bound in (None, 1, 2, 3):
            extra = [] if bound is None else ["--bound", str(bound)]
            checks = [("spec", "t0"), ("prop1", "iota-injective")]
            if bound is not None:
                checks.append(("main1", "system-carrier-t0"))
            for suite, check in checks:
                code, out = run(capsys, "verify", "--suite", suite, "--input",
                                data(name), "--json", *extra)
                verdicts = {c["name"]: c["verdict"]
                            for c in json.loads(out)["checks"]}
                assert verdicts[check] != "FAIL", (name, bound, suite)
                assert code == 0, (name, bound, suite)


def test_reports_on_the_pruefer_instance(capsys):
    for suite in ("zar", "pruefer"):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data("nxz.json"))
        assert code == 0, (suite, out)
        assert sha1(out) == REPORT_SHA1[suite, "nxz"], suite


def test_dot_drawings(tmp_path, capsys):
    for (suite, name), digest in DOT_SHA1.items():
        path = tmp_path / f"{suite}-{name}.dot"
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data(name + ".json"), "--dot", str(path))
        assert code == 0, (suite, name)
        assert sha1(out) == REPORT_SHA1[suite, name], (suite, name)
        assert sha1(path.read_text()) == digest, (suite, name)


def test_json_reports(capsys):
    for (suite, name), digest in REPORT_JSON_SHA1.items():
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data(name + ".json"), "--json")
        assert code == 0, (suite, name)
        assert sha1(out) == digest, (suite, name)


def test_ideal_suites_finish_on_7_11_13(capsys):
    # a generator-subset enumeration would try about 2^27 subsets here
    for suite in ("ideals", "pronconst"):
        start = time.perf_counter()
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data("n71113.json"))
        assert code == 0, (suite, out)
        assert time.perf_counter() - start < 2.0, suite


@pytest.mark.parametrize("name", ["n23", "n469", "n71113", "c3z",
                                  "n1_99998"])
def test_ideal_reads_ask_no_contains(name, monkeypatch):
    """ideals and pronconst read every listed ideal from H's translates on
    a ``layout.Read`` of the window, the identity and the ideals'
    generators, asking no ``RIdeal.contains``.
    H's generators are not laid out: with them the box of <1,99998>
    passed MAX_SPAN_BITS, and each suite asked every ideal at every cell,
    for 5 s instead of a few ms."""
    H = (Monoid.numerical([1, 99998]) if name == "n1_99998"
         else monoid_from_file(data(name + ".json")))
    asked, reads = [], []
    real, init = idealsys.RIdeal.contains, idealsys.IdealRead.__init__
    monkeypatch.setattr(idealsys.RIdeal, "contains",
                        lambda self, g: asked.append(g) or real(self, g))
    monkeypatch.setattr(idealsys.IdealRead, "__init__",
                        lambda self, *args: init(self, *args)
                        or reads.append(self.read))
    for suite in ("ideals", "pronconst"):
        rep, _ = cli.run_suite(suite, H, bound=10, seed=0)
        assert rep.ok, suite
    assert asked == [] and len(reads) == 2
    assert all(r.wide.rows * r.wide.cols < monoid.MAX_SPAN_BITS
               for r in reads)


def test_main1_fails_when_example16_keeps_id2(capsys, monkeypatch):
    # example16-id2-fails is the main1 line that can fail: an Id2 check
    # that finds no failure on example16 turns it into a FAIL
    monkeypatch.setattr(cli, "check_id2", lambda r, **kw: Check(
        "Id2", True, exhaustive=False, n=1, bound=kw["bound"]))
    code, out = run(capsys, "verify", "--suite", "main1",
                    "--input", data("n23.json"))
    assert code == 1
    assert ("CHECK example16-id2-fails FAIL expected=an Id2 failure"
            in out.splitlines())
    assert "OVERALL FAIL" in out


def test_prop1_fails_when_the_carrier_repeats_an_overmonoid(capsys,
                                                            monkeypatch):
    # iota-injective's falsifier: a carrier that lists <1> twice has two
    # equal closures of {1}, and the witness is the second of the pair
    overmonoids = cli.enumerate_overmonoids
    monkeypatch.setattr(cli, "enumerate_overmonoids", lambda H: [
        *overmonoids(H), Overmonoid(H.context, gens=(1,), name="again")])
    code, out = run(capsys, "verify", "--suite", "prop1",
                    "--input", data("n23.json"))
    assert code == 1
    assert ("CHECK iota-injective FAIL S=Overmonoid(again)"
            in out.splitlines())
    assert "OVERALL FAIL" in out


def test_json_report(capsys):
    code, out = run(capsys, "verify", "--suite", "spec",
                    "--input", data("n23.json"), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "spec"
    assert doc["overall"] in ("PASS", "BOUNDED-PASS")
    assert isinstance(doc["checks"], list) and doc["checks"]
    assert all("name" in c and "verdict" in c for c in doc["checks"])


def test_report_and_dot_files(tmp_path, capsys):
    rep = tmp_path / "report.txt"
    dot = tmp_path / "spec.dot"
    code, out = run(capsys, "verify", "--suite", "spec",
                    "--input", data("n23.json"),
                    "--report", str(rep), "--dot", str(dot))
    assert code == 0
    assert rep.read_text() == out
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "P_zero" in text and "P_max" in text


def test_runs_are_byte_identical(capsys):
    outs = []
    for _ in range(2):
        code, out = run(capsys, "verify", "--suite", "main1",
                        "--input", data("n23.json"), "--seed", "3")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("MONOID_SPECTRA_SEED", "7")
    _, out_env = run(capsys, "verify", "--suite", "axioms",
                     "--input", data("n345.json"))
    monkeypatch.delenv("MONOID_SPECTRA_SEED")
    _, out_flag = run(capsys, "verify", "--suite", "axioms",
                      "--input", data("n345.json"), "--seed", "7")
    assert out_env == out_flag
    assert "SEED 7" in out_env


def test_suites_pass_on_affine_and_finite(capsys):
    for suite in ("axioms", "spec", "zar", "pruefer", "main1", "prop1",
                  "prop2", "corollaries"):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data("n2.json"))
        assert code == 0, (suite, out)
        assert sha1(out) == REPORT_SHA1[suite, "n2"], suite
    for suite in ("axioms", "spec", "ideals", "pronconst", "main1", "prop2"):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data("c3z.json"))
        assert code == 0, (suite, out)
        assert sha1(out) == REPORT_SHA1[suite, "c3z"], suite


# Call-count guards for the boundary validation: deterministic, no timing.

def test_lattice_check_runs_once_per_point_and_carrier(capsys, monkeypatch):
    calls = Counter()
    bases = {}  # keeps every counted basis alive, so no id is reused
    real = intgeom.lattice_contains

    def counting(basis, v):
        bases[id(basis)] = basis
        calls[id(basis), tuple(v)] += 1
        return real(basis, v)

    monkeypatch.setattr(intgeom, "lattice_contains", counting)
    code, out = run(capsys, "verify", "--suite", "prop2",
                    "--input", data("n2.json"))
    assert code == 0
    assert sha1(out) == REPORT_SHA1["prop2", "n2"]
    assert calls and max(calls.values()) == 1


def test_system_space_reads_each_overmonoid_once(capsys, monkeypatch):
    # the space reads each overmonoid and H once, through a layout.Read's
    # mask, and asks no closure; asking U_S of each (system, pool set) it
    # made 491 760 calls on <11,12> at bound 1
    reads, closures, spaces = Counter(), [], []
    real_mask = layout.Read.mask
    real_closure = modsys.ModuleSystem.closure

    def counting_mask(self, S):
        reads[id(S)] += 1
        return real_mask(self, S)

    def counting_closure(self, A):
        closures.append(A)
        return real_closure(self, A)

    class Recording(modsys.SystemSpace):
        def space(self):
            before = len(closures)
            built = super().space()
            spaces.append((self, len(closures) - before))
            return built

    monkeypatch.setattr(layout.Read, "mask", counting_mask)
    monkeypatch.setattr(modsys.ModuleSystem, "closure", counting_closure)
    monkeypatch.setattr(cli, "SystemSpace", Recording)
    code, out = run(capsys, "verify", "--suite", "main1",
                    "--input", data("n579.json"))
    assert code == 0
    assert sha1(out) == REPORT_SHA1["main1", "n579"]
    (space,) = {ss for ss, _ in spaces}
    assert len(space.overmonoids) == 16
    # and the module axioms read H once more, for their M4 translators
    assert reads == Counter(map(id, [*space.overmonoids, space.H, space.H]))
    assert not any(asked for _, asked in spaces)


def test_main1_reads_int_closures_by_span(capsys, monkeypatch):
    # read point by point, the checker made 407 132 has calls here
    calls = []
    for cls in (Monoid, Overmonoid):
        def counting(self, g, real=cls.has):
            calls.append(1)
            return real(self, g)

        monkeypatch.setattr(cls, "has", counting)
    code, out = run(capsys, "verify", "--suite", "main1",
                    "--input", data("n579.json"))
    assert code == 0
    assert sha1(out) == REPORT_SHA1["main1", "n579"]
    assert 0 < len(calls) <= 60_000


def test_pruefer_builds_its_domination_data_once(capsys, monkeypatch,
                                                 tmp_path):
    # rebuilt by every helper, this was 9, 7 and 62 calls on n2; with --dot
    # the s-Pruefer nxz built each space twice; delta_laws made a second
    # is_s_pruefer call
    calls = Counter()
    for module, attr in ((idealsys, "enumerate_primes"),
                         (valuation, "enumerate_zar"), (valuation, "delta"),
                         (valuation, "overmonoid_space"),
                         (idealsys, "spec_subbasis"),
                         (valuation, "is_s_pruefer")):
        real = getattr(module, attr)

        def counting(*args, real=real, attr=attr, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        for mod in (cli, idealsys, valuation):
            if getattr(mod, attr, None) is real:
                monkeypatch.setattr(mod, attr, counting)
    for name, n_delta in (("n2", 14), ("nxz", 2)):
        calls.clear()
        code, out = run(capsys, "verify", "--suite", "pruefer", "--input",
                        data(name + ".json"), "--dot", str(tmp_path / "d"))
        assert code == 0
        assert sha1(out) == REPORT_SHA1["pruefer", name]
        assert calls == {"enumerate_primes": 1, "enumerate_zar": 1,
                         "delta": n_delta, "overmonoid_space": 1,
                         "spec_subbasis": 1, "is_s_pruefer": 1}, name


def test_delta_asks_no_point(capsys, monkeypatch):
    # the domination map reads m_V intersect H as masks: no carrier op or
    # inv and no overmonoid ask outside the primes' own read of H's window
    # part (``WindowRead.parts``, one inverse per prime generator).
    # Deciding locality pair by pair once made 1 672 op and 1 672 inv calls
    # in delta on n2
    asked = Counter()
    inside = []  # "delta" while in delta, "prime" while a prime is asked

    def counting(cls, attr, key):
        real = getattr(cls, attr)

        def wrapper(*args):
            if key in ("delta", "prime"):
                inside.append(key)
                try:
                    return real(*args)
                finally:
                    inside.pop()
            if inside[-1:] == ["delta"]:
                asked[key] += 1
            return real(*args)

        monkeypatch.setattr(cls, attr, wrapper)

    for cls in (monoid.IntCarrier, monoid.LatticeCarrier):
        counting(cls, "op", "op")
        counting(cls, "inv", "inv")
    counting(monoid.Overmonoid, "has", "has")
    counting(monoid.Overmonoid, "contains", "contains")
    counting(valuation.WindowRead, "parts", "prime")
    counting(cli, "delta", "delta")
    for name in ("n2", "nxz"):
        asked.clear()
        code, out = run(capsys, "verify", "--suite", "pruefer", "--input",
                        data(name + ".json"))
        assert code == 0
        assert sha1(out) == REPORT_SHA1["pruefer", name]
        assert asked == {}, name


def test_pronconst_reads_principal_limits_from_the_ideal_space(
        capsys, monkeypatch):
    # the suite reads each listed ideal once, as one mask, and takes the
    # prime flags and the ideal space from the masks; rebuilding each
    # principal-limit ideal point by point once made 116 161 calls here,
    # and the pointwise prime test asked 1 815, up to 4 per (ideal, point)
    asked = Counter()
    keep = []  # every asked ideal stays alive, so no id is reused
    real = idealsys.RIdeal.contains

    def counting(self, g):
        keep.append(self)
        asked[id(self), g] += 1
        return real(self, g)

    monkeypatch.setattr(idealsys.RIdeal, "contains", counting)
    code, out = run(capsys, "verify", "--suite", "pronconst",
                    "--input", data("n469.json"))
    assert code == 0
    assert sha1(out) == REPORT_SHA1["pronconst", "n469"]
    assert sum(asked.values()) <= 25_000
    assert max(asked.values(), default=0) <= 1


def test_zar_reads_principal_limits_from_the_valuation_space(
        capsys, monkeypatch):
    # the suites read each overmonoid once per window point (H once per
    # point of the wide box), through has, into a mask, and each prime once
    # per point of H's window part, and take the valuation space, the
    # valuation and Pruefer tests and the domination map from the masks.
    # Asking the validating contains point by point made 4 009 has calls on
    # zar and 7 558 and 4 774 on pruefer here, and 621 prime asks on pruefer
    # n2, 504 of them in delta for 104 (prime, point) pairs; rebuilding each
    # principal-limit valuation point by point once made 53 714 contains
    # calls on zar
    asked, primes = Counter(), Counter()
    keep = []  # every asked object stays alive, so no id is reused
    real_has, real_contains = Overmonoid.has, idealsys.RIdeal.contains
    closing = []  # set while a prime's closure asks H

    def counting_has(self, g):
        if not closing:
            keep.append(self)
            asked[id(self), g] += 1
        return real_has(self, g)

    def counting_contains(self, g):
        keep.append(self)
        primes[id(self), g] += 1
        closing.append(g)
        try:
            return real_contains(self, g)
        finally:
            closing.pop()

    monkeypatch.setattr(Overmonoid, "has", counting_has)
    monkeypatch.setattr(idealsys.RIdeal, "contains", counting_contains)
    for suite, name in (("zar", "n2"), ("pruefer", "n2"), ("pruefer", "nxz")):
        asked.clear()
        primes.clear()
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data(name + ".json"))
        assert code == 0
        assert sha1(out) == REPORT_SHA1[suite, name]
        H = monoid_from_file(data(name + ".json"))
        # past one ask per point: a Zar candidate is asked about H's
        # generators before its mask is read; localizing H at a prime asks
        # the prime about H's identity and generators, and the spec space
        # about the generators
        extra = (Counter(H.generators),
                 Counter([H.one, *H.generators, *H.generators]))
        for counts, more in zip((asked, primes), extra):
            assert all(k <= 1 + more[g] for (_, g), k in counts.items()), (
                suite, name)
        assert asked and (suite == "zar") == (not primes)
