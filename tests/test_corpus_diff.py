"""tools/corpus_diff.py, which compares the corpus reports of two checkouts."""

import importlib.util
import json
import os
import shutil

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_PATH = os.path.join(_ROOT, "tools", "corpus_diff.py")


@pytest.fixture(scope="module")
def corpus_diff():
    spec = importlib.util.spec_from_file_location("corpus_diff", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_flatten_keys_check_records_by_name(corpus_diff):
    report = {"checks": [{"name": "trace-identity", "lhs": 1.0},
                         {"lhs": 2.0}],
              "spectral": {"eigenvalues": [], "solver": "dense"}}
    assert corpus_diff.flatten(report, "", {}) == {
        ".checks[trace-identity].lhs": 1.0,
        ".checks[trace-identity].name": "trace-identity",
        ".checks[1].lhs": 2.0,
        ".spectral.eigenvalues": [],
        ".spectral.solver": "dense",
    }


def test_differences_counts_serialized_moves(corpus_diff):
    a = {"x": 0.0, "n": 1, "same": 2.5, "gone": True}
    b = {"x": -0.0, "n": 1.0, "same": 2.5, "new": None}
    assert corpus_diff.differences(a, b) == [
        (".gone", True, "<absent>"),
        (".n", 1, 1.0),
        (".new", "<absent>", None),
        (".x", 0.0, -0.0),
    ]
    assert corpus_diff.differences(a, dict(a)) == []


def test_summary_names_key_fields_first(corpus_diff):
    diffs = [(".checks[trace-identity].lhs", 1.0, 1.1),
             (".checks[trace-identity].verdict", "pass", "fail"),
             (".spectral.numerical_rank", 3, 4),
             (".spectral.solver", "dense", "randomized")]
    assert corpus_diff.summary("rank3.json", diffs) == (
        "rank3.json: .checks[trace-identity].verdict, "
        ".spectral.numerical_rank, .spectral.solver moved; "
        "4 field(s) moved in all")
    assert corpus_diff.summary("a.json", diffs[:1]) == (
        "a.json: 1 field(s) moved in all")


def test_summary_reports_a_renamed_check_as_added_and_removed(corpus_diff):
    # the old record's verdict leaf reads pass -> <absent>: that is a
    # record gone, not a verdict that moved
    old = {"checks": [{"name": "model-vs-kernel-matrix", "verdict": "pass"},
                      {"name": "trace-identity", "verdict": "pass"}]}
    new = {"checks": [{"name": "model-vs-kernel-norm", "verdict": "pass"},
                      {"name": "trace-identity", "verdict": "fail"}]}
    diffs = corpus_diff.differences(old, new)
    assert corpus_diff.summary("rank3.json", diffs) == (
        "rank3.json: added .checks[model-vs-kernel-norm]; "
        "removed .checks[model-vs-kernel-matrix]; "
        ".checks[trace-identity].verdict moved; 5 field(s) moved in all")


def test_raising_config_stands_as_an_error_report(corpus_diff, tmp_path):
    # a root holding one good and one bad config, with this checkout's src
    paper = tmp_path / "configs" / "paper"
    paper.mkdir(parents=True)
    os.symlink(os.path.abspath(os.path.join(_ROOT, "src")), tmp_path / "src")
    shutil.copy(os.path.join(_ROOT, "configs", "paper", "deriv-avg-tanh.json"),
                paper / "deriv-avg-tanh.json")
    bad = json.loads((paper / "deriv-avg-tanh.json").read_text())
    bad["params"]["slope_range"] = [1.8, 2.2]
    (paper / "bad.json").write_text(json.dumps(bad))
    reports = corpus_diff.corpus_reports(str(tmp_path))
    assert json.loads(reports["deriv-avg-tanh.json"])["verdict"] == "pass"
    error = json.loads(reports["bad.json"])
    assert error == {"error": "ConfigError: params.slope_range is gone: the "
                              "slope window is fixed at (1.8, 2.2)"}
    assert corpus_diff.differences({}, error) == [
        (".error", "<absent>", error["error"])]


def test_relative_size_of_a_numeric_move(corpus_diff):
    rel = corpus_diff.relative
    assert rel(2.0, 1.5) == rel(1.5, 2.0) == 0.25
    assert rel(-1.0, 1.0) == 2.0
    assert rel(0.0, 1e-13) == 1.0
    assert rel(0.0, -0.0) == 0.0
    assert rel(1, 1.0) == 0.0
    # not numbers: no size
    assert rel(True, False) is None
    assert rel("pass", "fail") is None
    assert rel(1.0, "<absent>") is None
    assert rel([], [1.0]) is None
