import hashlib
import json
import os
import time
from collections import Counter

import pytest

from monoid_spectra import cli, idealsys, intgeom, modsys, valuation
from monoid_spectra.cli import main
from monoid_spectra.monoid import Monoid, Overmonoid

DATA = os.path.join(os.path.dirname(__file__), "data")


# SHA-1 of the default text report; a speed-up or refactor must keep these
REPORT_SHA1 = {
    ("axioms", "n23"): "8b6765020e8e2aa2d587f74a5b46a1098f35e4f6",
    ("spec", "n23"): "59ab23ec74b55d3d929e37053834bb4f90da0001",
    ("ideals", "n23"): "93aabf3da6d62be831ade282eebe684268d81d6b",
    ("zar", "n23"): "dc77dc2eccc090ddd2f36024b65fdead4edf18e1",
    ("pruefer", "n23"): "e2a72ae6ae56bf59e2e101ba47d78e4c2e6082a8",
    ("pronconst", "n23"): "03391e7bf85aaaa55670a5478885943a3073a2ac",
    ("main1", "n23"): "7409a195485de6e4b0293e86b63dd599181d790f",
    ("prop1", "n23"): "78dfcd07f03725328b769b47bffbfd168e01d6b5",
    ("prop2", "n23"): "cafde56d0ca07c53873aafb5d93dd092af00d932",
    ("corollaries", "n23"): "caff8471fe7c80583d014b2a3f81ab82573a4cb9",
    ("axioms", "n2"): "343e3306ec3e56655b91d97bdff16e5cf7ddf29b",
    ("spec", "n2"): "eb40a9fda562119151cc91788b491c26118fb632",
    ("zar", "n2"): "9bcb5f87dda469ea43da292d98113b553231d648",
    ("pruefer", "n2"): "5946a7036dfe1183eeb01f622ec9c0d54e7562ad",
    ("main1", "n2"): "3f1104760ca7508f5d55e11d225e22da59414044",
    ("prop1", "n2"): "84bb7b2139ccf1f069c50c6c9af8501df24a5750",
    ("prop2", "n2"): "185bca8b28d62843dbdfd86105fd9e0dfba56bf1",
    ("corollaries", "n2"): "5917fe1137fb198de49b378fd08be57d5eb08cce",
    ("axioms", "c3z"): "d9fc47a4c8dc14af542a2a0bd7082ee10bbc8888",
    ("spec", "c3z"): "dbff3f58aa94eeabdc7bef42c6c023e2661645a3",
    ("ideals", "c3z"): "d688af77ddfe615642de007bc192a835b6166fb8",
    ("pronconst", "c3z"): "62686d69b9c9011be6d6fce7cc99fb37f3e575a5",
    ("main1", "c3z"): "eaca996a7f23cd70a34980ba32f9d5d9158f1fc1",
    ("prop2", "c3z"): "cafde56d0ca07c53873aafb5d93dd092af00d932",
    # main1 and prop1 report their known window-limited FAILs (exit 1)
    ("pronconst", "n469"): "2757b18ef50f41154acbf744344c066c80eaa204",
    ("main1", "n579"): "8277bb57860d31ce9b97f300afc88b1b53acd54a",
    ("prop1", "n71113"): "93cb8920cb49da67de84165164785497e4b44c22",
    ("prop1", "n81113"): "8e31ddc3bf2675a54e528dcd8aa3da5899fc486b",
    # N x Z, the s-Pruefer instance: delta is a homeomorphism
    ("zar", "nxz"): "73d83dee59471952515f3afa23c4fdbd6f676965",
    ("pruefer", "nxz"): "fdd7abf82fbfe7357eec4b800b9f5f04b39d9282",
}

# SHA-1 of the JSON report, which also carries the counts and the exhaustive
# flag of FAIL verdicts that the text report leaves out
REPORT_JSON_SHA1 = {
    ("axioms", "n23"): "5776fe879d8f9f63fe5242a389ee498807d8da25",
    ("main1", "n23"): "d6d93af7e10241b7ea395559ce146900b0cefffd",
    ("corollaries", "n23"): "191899bb4041bacf7a07caf28e830d2684eefb9a",
    ("axioms", "n2"): "b971616291872bd9322a55c8fafd6ed509ea0b25",
    ("main1", "n2"): "65e8a9b9420ff5ab02b30c28fb0889a7fafe3472",
    ("corollaries", "n2"): "23ab5f5271337a36768ebaaa14389571a04bffa0",
    ("axioms", "c3z"): "61bf8fb44f6a5f91fbdd29c4acaa541b32706eeb",
    ("main1", "c3z"): "8abe4583072cc853435cb4618161e8a88f29fe70",
    ("corollaries", "c3z"): "f82b44078d89958bca9c59c3a1d77b8cbb5d3a8f",
    # the counts n of the int-carrier Id3 and M4 scans
    ("axioms", "n345"): "5022947e55fdc7040c96b6c6146f68b68b14d48d",
    ("axioms", "n469"): "155d9bd168b79454a362b1153c0edf02b02e3b31",
    ("axioms", "n579"): "b2eaeffc17aa827917807004284616f325590d56",
    ("corollaries", "n579"): "bb2eb173ef7cffab0041244f2d5fc684fafab739",
    # the known window-limited FAIL (exit 1)
    ("main1", "n579"): "e9c6624679ab4994e48b93ad950bdcc9dc1a9924",
    ("zar", "nxz"): "135daf9255d15b9ffb6358a42d8921350e5d657a",
    ("pruefer", "nxz"): "f4c00350f254182fce9c54f2fe836c9394ce99f3",
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
    # Z/2 + 0 has two nonzero elements, fewer than the samples of up to three
    for suite in ("prop1", "prop2", "main2"):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data("c2z.json"))
        assert code in (0, 1), (suite, out)
        assert "OVERALL" in out, suite


def test_exit_code_3_on_unsupported_realization(capsys):
    # bounded ideal enumeration is undefined for affine inputs
    code, _ = run(capsys, "verify", "--suite", "ideals",
                  "--input", data("n2.json"))
    assert code == 3
    # valuation enumeration is undefined for finite inputs
    code, _ = run(capsys, "verify", "--suite", "zar",
                  "--input", data("c3z.json"))
    assert code == 3


def test_exit_code_3_past_the_semigroup_size_guard(tmp_path, capsys):
    big = tmp_path / "big.json"
    big.write_text('{"kind": "numerical", "generators": [1009, 1013]}')
    code = main(["verify", "--suite", "spec", "--input", str(big)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("unsupported: numerical semigroup too large")
    assert "Traceback" not in captured.err + captured.out


def test_reports_on_larger_numerical_inputs(capsys):
    for suite, name in (("pronconst", "n469"), ("main1", "n579"),
                        ("prop1", "n71113"), ("prop1", "n81113")):
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data(name + ".json"))
        assert code in (0, 1), (suite, name, out)
        assert sha1(out) == REPORT_SHA1[suite, name], (suite, name)


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
        assert code == (1 if suite == "main1" and name == "n579" else 0), (
            suite, name)
        assert sha1(out) == digest, (suite, name)


def test_ideal_suites_finish_on_7_11_13(capsys):
    # a generator-subset enumeration would try about 2^27 subsets here
    for suite in ("ideals", "pronconst"):
        start = time.perf_counter()
        code, out = run(capsys, "verify", "--suite", suite,
                        "--input", data("n71113.json"))
        assert code == 0, (suite, out)
        assert time.perf_counter() - start < 2.0, suite


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


def test_system_space_evaluates_each_membership_once(capsys, monkeypatch):
    calls = []
    sizes = []
    real = modsys.subbasis_membership

    def counting(r, S, g=None):
        calls.append(1)
        return real(r, S, g)

    class Recording(modsys.SystemSpace):
        def __init__(self, systems, pool):
            super().__init__(systems, pool)
            sizes.append(len(self.systems) * len(self.pool))

    monkeypatch.setattr(modsys, "subbasis_membership", counting)
    monkeypatch.setattr(cli, "SystemSpace", Recording)
    code, out = run(capsys, "verify", "--suite", "main1",
                    "--input", data("n579.json"))
    assert code == 1  # the known window-limited FAIL
    assert sha1(out) == REPORT_SHA1["main1", "n579"]
    assert sizes and 0 < len(calls) <= sum(sizes)


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
    assert code == 1  # the known window-limited FAIL
    assert sha1(out) == REPORT_SHA1["main1", "n579"]
    assert 0 < len(calls) <= 60_000


def scripted(*outcomes):
    """A trial that returns the given outcomes in turn; one more draw raises
    StopIteration."""
    it = iter(outcomes)
    return lambda: next(it)


def test_trials_stop_at_the_quota_at_a_witness_or_out_of_attempts():
    # draws with nothing to test (None) count as attempts, not as passes
    c = cli._trials("t", scripted(None, {}, None, {}, {}), 3, 10, 4)
    assert (c.verdict, c.n, c.witness, c.bound) == ("BOUNDED-PASS", 3, None, 4)
    c = cli._trials("t", scripted({}, None, {"x": "1"}), 3, 10, 4)
    assert (c.verdict, c.n, c.witness) == ("FAIL", 1, {"x": "1"})
    c = cli._trials("t", scripted(None, {}, None), 3, 3, 4)
    assert (c.verdict, c.n, c.witness) == (
        "FAIL", 1, {"instances": 1, "attempts": 3})
    assert not c.exhaustive


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


def count_calls(monkeypatch, cls, attr):
    calls = []
    real = getattr(cls, attr)

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(cls, attr, counting)
    return calls


def test_pronconst_reads_principal_limits_from_the_ideal_space(
        capsys, monkeypatch):
    # rebuilding each limit ideal point by point made 116 161 calls here
    calls = count_calls(monkeypatch, idealsys.RIdeal, "contains")
    code, out = run(capsys, "verify", "--suite", "pronconst",
                    "--input", data("n469.json"))
    assert code == 0
    assert sha1(out) == REPORT_SHA1["pronconst", "n469"]
    assert 0 < len(calls) <= 25_000


def test_zar_reads_principal_limits_from_the_valuation_space(
        capsys, monkeypatch):
    # rebuilding each limit valuation point by point made 53 714 calls here
    calls = count_calls(monkeypatch, Overmonoid, "contains")
    code, out = run(capsys, "verify", "--suite", "zar",
                    "--input", data("n2.json"))
    assert code == 0
    assert sha1(out) == REPORT_SHA1["zar", "n2"]
    assert 0 < len(calls) <= 6_000
