"""Check.scan, the first-counterexample scan behind every bounded check, and
INFO lines, which record facts and carry no verdict."""

import json

import pytest

from monoid_spectra.report import (BOUNDED_PASS, FAIL, INFO, PASS, Check,
                                   SuiteReport)


def test_a_passing_stream_gives_n_the_number_of_items():
    c = Check.scan("all-pass", iter([None] * 5), bound=3, detail="d")
    assert (c.verdict, c.n, c.bound, c.witness, c.detail) == (
        BOUNDED_PASS, 5, 3, None, "d")
    assert not c.exhaustive
    c = Check.scan("exhaustive", [None, None], exhaustive=True)
    assert (c.verdict, c.n) == (PASS, 2)


def test_a_witness_at_item_k_gives_n_k_and_that_witness():
    c = Check.scan("fails", [None, None, {"g": "1"}, {"g": "2"}], bound=4)
    assert (c.verdict, c.n, c.witness, c.bound) == (FAIL, 3, {"g": "1"}, 4)
    assert c.line() == "CHECK fails FAIL g=1"
    c = Check.scan("fails", [{"g": "0"}], exhaustive=True)
    assert (c.verdict, c.n, c.witness, c.exhaustive) == (
        FAIL, 1, {"g": "0"}, True)


def test_the_stream_is_not_advanced_past_the_witness():
    def outcomes():
        yield None
        yield {"x": "0"}
        raise AssertionError("the scan read past its witness")

    c = Check.scan("lazy", outcomes(), bound=1)
    assert (c.verdict, c.n, c.witness) == (FAIL, 2, {"x": "0"})
    rest = iter([None, {"x": "1"}, None, {"x": "2"}])
    Check.scan("lazy", rest, bound=1)
    assert list(rest) == [None, {"x": "2"}]


def test_an_empty_stream_passes_with_n_zero():
    c = Check.scan("empty", iter(()), bound=2)
    assert (c.verdict, c.n, c.witness) == (BOUNDED_PASS, 0, None)


def test_an_info_line_has_no_bounded_or_exhaustive_qualifier():
    c = Check("facts", INFO, n=2, bound=10, detail="P_zero P_max")
    assert (c.verdict, c.ok) == (INFO, True)
    assert c.line() == "CHECK facts INFO (n=2, bound=10) -- P_zero P_max"
    assert Check("bare", INFO).line() == "CHECK bare INFO"
    doc = c.to_dict()
    assert (doc["verdict"], doc["exhaustive"]) == ("INFO", None)


def report(*checks):
    rep = SuiteReport("s", "a claim", bound=3)
    rep.extend(checks)
    return rep


@pytest.mark.parametrize("ok, overall", [(True, "PASS"), (False, "FAIL")])
def test_info_lines_leave_the_overall_verdict_alone(ok, overall):
    info = Check("facts", INFO, n=1, bound=3)
    verdict = Check("v", ok, witness=None if ok else {"g": "1"}, bound=3,
                    exhaustive=False)
    for rep in (report(info, verdict), report(verdict, info)):
        assert rep.ok is ok
        assert rep.text().endswith(f"OVERALL {overall}\n")
        doc = json.loads(rep.json())
        assert doc["overall"] == overall
        assert [c["verdict"] for c in doc["checks"]].count("INFO") == 1


@pytest.mark.parametrize("ok", ["PASS", "FAIL", "BOUNDED-PASS", "info", "",
                                None, 1, 0])
def test_a_verdict_is_true_false_or_info(ok):
    with pytest.raises(ValueError):
        Check("v", ok, witness={"g": "1"}, bound=3)
