import glob
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import poscomm
from poscomm.cli import (
    _grid_from_config,
    _operator,
    _pair,
    _psd_check,
    function_from_config,
    load_config,
    main,
    run,
)
from poscomm.errors import ConfigError, SectionAbsentError
from poscomm.finiterank import rank_three_example
from poscomm.monotone import catalog as monotone_catalog
from poscomm.monotone import compose_pair
from poscomm.operators import (
    RANK_THRESHOLD,
    SpectralReport,
    build_nystrom_x,
    operator_two_norm,
)
from poscomm.reporting import emit_plot_data, stable_bytes, write_report

from conftest import dense_spectrum

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs", "paper")
ALL_CONFIGS = sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json")))


def test_corpus_exists():
    assert len(ALL_CONFIGS) >= 20


class TestFunctionDescriptors:
    def test_catalog_names(self):
        fn = function_from_config(
            {"catalog": "tanh-affine", "params": {"rate": 2.0}})
        assert fn(0.0) == 0.0
        s = function_from_config(
            {"catalog": "sum", "params": {"terms": [
                {"catalog": "tanh-affine", "params": {"rate": 1.0}},
                {"catalog": "constant", "params": {"value": 0.5}}]}})
        assert s(50.0) == pytest.approx(1.5, abs=1e-12)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError):
            function_from_config({"catalog": "nope"})

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            function_from_config(
                {"catalog": "tanh-affine", "params": {"slope": 2}})

    def test_sample_file(self, tmp_path):
        t = np.linspace(-20, 20, 801)
        path = tmp_path / "samples.txt"
        np.savetxt(path, np.column_stack([t, np.tanh(t)]))
        fn = function_from_config({"samples": str(path)})
        assert fn(0.5) == pytest.approx(np.tanh(0.5), abs=1e-4)


SMALL_PAIR = {"f": {"catalog": "tanh-affine", "params": {"rate": np.pi / 2}},
              "g": {"catalog": "tanh-affine", "params": {"rate": 1.0}},
              "grid": {"L": 8.0, "N": 64}}
TANH = {"catalog": "tanh-affine", "params": {"rate": 1.0}}

# each of these used to escape the handler as a raw KeyError, TypeError,
# ValueError or AttributeError (exit 1, documented as "check failed")
MALFORMED = {
    "fit-measure-without-f": {"kind": "fit-measure"},
    "deriv-avg-without-g": {"kind": "deriv-avg"},
    "deriv-avg-lattice-without-hi": {
        "kind": "deriv-avg", "g": TANH,
        "params": {"lattice": {"lo": -1.0, "n": 5}}},
    "moment-scan-entry-without-b": {
        "kind": "moment-scan", "f": TANH,
        "params": {"b_values": [{"expect_diverged": False}]}},
    "rank1-negative-alpha": {"kind": "rank1", "params": {"alpha": -1}},
    "rank3-string-beta": {"kind": "rank3", "params": {"beta": "x"}},
    "tanh-affine-zero-rate": {
        **SMALL_PAIR, "kind": "verify-pair",
        "f": {"catalog": "tanh-affine", "params": {"rate": 0}}},
    "loewner-order-one": {
        "kind": "loewner-test",
        "params": {"function": "sqrt", "orders": [1], "trials": 10}},
    "strip-check-negative-y": {
        **SMALL_PAIR, "kind": "strip-check", "params": {"y_values": [-0.1]}},
    "grid-not-an-object": {**SMALL_PAIR, "kind": "verify-pair",
                           "grid": [1, 2]},
    "tolerances-not-an-object": {**SMALL_PAIR, "kind": "verify-pair",
                                 "tolerances": 3},
    "seed-not-an-integer": {"kind": "rank1", "seed": "x"},
    # json reads Infinity, NaN, true and false; none is a length or tolerance
    "grid-L-infinite": {**SMALL_PAIR, "kind": "verify-pair",
                        "grid": {"L": float("inf"), "N": 64}},
    "grid-L-boolean": {**SMALL_PAIR, "kind": "verify-pair",
                       "grid": {"L": True, "N": 64}},
    "tolerance-infinite": {**SMALL_PAIR, "kind": "verify-pair",
                           "tolerances": {"positivity": float("inf")}},
    "tolerance-boolean": {**SMALL_PAIR, "kind": "verify-pair",
                          "tolerances": {"positivity": True}},
    # each of these exited 0 or 1: a check passing on lhs Infinity, a
    # ZeroDivisionError traceback, a NaN slope or a one-point fit
    "loewner-zero-trials": {
        "kind": "loewner-test",
        "params": {"function": "sqrt", "orders": [2], "trials": 0}},
    "loewner-negative-trials": {
        "kind": "loewner-test",
        "params": {"function": "sqrt", "orders": [2], "trials": -3}},
    "fit-measure-zero-atom-step": {
        "kind": "fit-measure", "f": TANH, "params": {"atom_step": 0}},
    "fit-measure-zero-alpha": {
        "kind": "fit-measure", "f": TANH, "params": {"alpha": 0}},
    "deriv-avg-empty-lattice": {
        "kind": "deriv-avg", "g": TANH,
        "params": {"lattice": {"lo": -1, "hi": 1, "n": 0}}},
    "deriv-avg-one-r-value": {
        "kind": "deriv-avg", "g": TANH, "params": {"r_values": [0.1]}},
    "moment-scan-zero-window": {
        "kind": "moment-scan", "f": TANH, "params": {"window": 0}},
    "moment-scan-negative-window": {
        "kind": "moment-scan", "f": TANH, "params": {"window": -5}},
}


class TestValidation:
    @pytest.mark.parametrize("cfg", MALFORMED.values(), ids=list(MALFORMED))
    def test_malformed_config_exits_2(self, cfg, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": 1, **cfg}))
        assert main(["run", "--config", str(p)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_linalg_error_exits_3(self, tmp_path, monkeypatch):
        # LinAlgError subclasses ValueError; the config boundary must
        # not turn it into a config error
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("eigensolver did not converge")

        monkeypatch.setattr("poscomm.cli.spectrum", no_convergence)
        p = tmp_path / "spectrum.json"
        p.write_text(json.dumps({"schema_version": 1, "kind": "spectrum",
                                 **SMALL_PAIR}))
        assert main(["run", "--config", str(p)]) == 3

    def test_power_of_two_enforced(self, tmp_path):
        cfg = {"schema_version": 1, "kind": "verify-pair",
               "f": {"catalog": "tanh-affine", "params": {"rate": 1.0}},
               "g": {"catalog": "tanh-affine", "params": {"rate": 1.0}},
               "grid": {"L": 24.0, "N": 1000}}
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(p)]) == 2

    def test_unknown_kind(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": 1, "kind": "nope"}))
        assert main(["run", "--config", str(p)]) == 2

    def test_missing_config_file(self):
        assert main(["run", "--config", "/does/not/exist.json"]) == 2

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["run", "--config", str(p)]) == 2

    def test_nonfinite_operator_exits_3(self, tmp_path):
        # differences of f = 1e308 tanh overflow and the kernel fills with
        # inf and NaN; that is a numerical-accuracy error
        cfg = {"schema_version": 1, "kind": "spectrum", "route": "nystrom-p",
               "f": {"catalog": "tanh-affine",
                     "params": {"rate": np.pi / 2, "scale": 1e308}},
               "g": {"catalog": "tanh-affine", "params": {"rate": 0.25}},
               "grid": {"L": 8.0, "N": 512}}
        p = tmp_path / "nan.json"
        p.write_text(json.dumps(cfg))
        with np.errstate(all="ignore"):
            assert main(["run", "--config", str(p)]) == 3

    def test_grid_too_large_for_memory_exits_2(self, tmp_path):
        # N = 2**24 asks for a 2 PiB kernel: refused at once as a config
        # error naming grid.N, not a MemoryError traceback (exit 1).  A
        # child process, because numpy records the refused request in
        # tracemalloc and this process's peak RSS is that of earlier tests
        cfg = {"schema_version": 1, "kind": "verify-pair", **SMALL_PAIR,
               "grid": {"L": 24.0, "N": 2 ** 24}}
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(cfg))
        err = tmp_path / "stderr.txt"
        src = os.path.dirname(os.path.dirname(poscomm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        with open(err, "w") as fh:
            proc = subprocess.Popen(
                [sys.executable, "-m", "poscomm.cli", "run", "--config",
                 str(p)], stdout=subprocess.DEVNULL, stderr=fh, env=env)
            # wait4 reaps the child with its own resource usage; tell
            # Popen, which would otherwise wait for it again
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 2
        assert "grid.N = 16777216" in err.read_text()
        assert usage.ru_maxrss * 1024 < 1e9          # kB on Linux

    def test_bad_tolerance(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "verify-pair-two-atom.json"))
        cfg["tolerances"] = {"trace": -1.0}
        with pytest.raises(ConfigError):
            run(cfg)


class TestRunCorpus:
    @pytest.mark.parametrize("path", ALL_CONFIGS,
                             ids=[os.path.basename(p) for p in ALL_CONFIGS])
    def test_config_passes(self, path, corpus_reports, tmp_path):
        report, blob = corpus_reports[os.path.basename(path)]
        assert report["verdict"] == "pass", [
            c for c in report["checks"] if c["verdict"] != "pass"]
        out = tmp_path / "report.json"
        write_report(report, str(out))
        assert stable_bytes(json.loads(out.read_text())) == blob

    def test_exit_codes(self, tmp_path):
        ok = os.path.join(CONFIG_DIR, "loewner-square-falsify.json")
        assert main(["run", "--config", ok,
                     "--out", str(tmp_path / "r.json")]) == 0
        # flip the expectation -> checks fail -> exit 1
        cfg = json.load(open(ok))
        cfg["params"]["expect"] = "pass"
        bad = tmp_path / "flipped.json"
        bad.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(bad),
                     "--out", str(tmp_path / "r2.json")]) == 1

    @pytest.mark.parametrize("name", ["rank1-default.json",
                                      "rank3-beta-one.json",
                                      "compose-log-kato.json",
                                      "spectrum-kato-momentum.json"])
    def test_reports_take_certified_solve(self, name, corpus_reports):
        # schema-2 reports list the significant eigenvalues only, so a
        # low-rank operator is solved by the certified randomized sketch
        spec = corpus_reports[name][0]["spectral"]
        assert spec["solver"] == "randomized"
        assert spec["residual_bound"] <= RANK_THRESHOLD * abs(spec["max_eig"])
        assert len(spec["significant_eigenvalues"]) == spec["numerical_rank"]

    def test_howland_report_stays_dense(self, corpus_reports):
        # hundreds of significant eigenvalues: the sketch does not pay
        spec = corpus_reports["verify-pair-howland.json"][0]["spectral"]
        assert spec["solver"] == "dense"
        assert spec["residual_bound"] == 0.0
        assert len(spec["significant_eigenvalues"]) == spec["numerical_rank"]

    @pytest.mark.parametrize("name", ["compose-moebius-two-atom.json",
                                      "rank3-beta-one.json",
                                      "verify-pair-two-atom.json"])
    def test_report_matches_dense_spectrum(self, name, corpus_reports):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        grid = _grid_from_config(cfg)
        if cfg["kind"] == "rank3":
            ex = rank_three_example(cfg["params"]["beta"], grid)
            f, g = ex.f, ex.g
        else:
            f, g = _pair(cfg)
        if cfg["kind"] == "compose":
            cat = monotone_catalog()
            f, g = compose_pair(cat[cfg["params"]["F"]], f,
                                cat[cfg["params"]["G"]], g)
        dense = dense_spectrum(build_nystrom_x(f, g, grid))
        spec = corpus_reports[name][0]["spectral"]
        sig = np.array(spec["significant_eigenvalues"])
        assert spec["numerical_rank"] == dense.numerical_rank
        assert spec["insignificant_count"] == grid.n - dense.numerical_rank
        assert (int(np.sum(sig > 0)), int(np.sum(sig < 0))) \
            == dense.sign_pattern()
        scale = np.max(np.abs(dense.eigenvalues))
        assert np.max(np.abs(sig - dense.significant())) \
            <= spec["residual_bound"] + 1e-13 * scale


def _checks(report):
    return {c["name"]: c for c in report["checks"]}


class TestRouteChecks:
    """The trace and zero-norm checks of the ``spectrum`` and
    ``build-kernel`` kinds, on operators that pass and that fail them."""

    def _config(self, name, **changes):
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        cfg.update(changes)
        return cfg

    def test_truncated_window_fails_trace_identity(self, tmp_path):
        # tanh(0.05 x) is far from its limits at L = 8: tr K = 0.242
        # against [f][g]/(2 pi) = 2/pi, which the sum of the eigenvalues
        # (the matrix's own trace) could never show
        cfg = self._config("spectrum-kato-momentum.json", route="nystrom-x",
                           grid={"L": 8.0, "N": 256})
        cfg["g"] = {"catalog": "tanh-affine", "params": {"rate": 0.05}}
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 1
        check = _checks(json.loads(out.read_text()))["trace-identity"]
        assert check["verdict"] == "fail"
        assert check["lhs"] == pytest.approx(0.242, abs=1e-3)
        assert check["rhs"] == pytest.approx(2 / np.pi, rel=1e-15)

    def test_direct_spectrum_checks_trace_zero(self):
        cfg = self._config("spectrum-kato-momentum.json", route="direct",
                           grid={"L": 16.0, "N": 256})
        report = run(cfg)
        assert report["verdict"] == "pass"
        assert list(_checks(report)) == ["direct-trace-zero"]
        assert report["checks"][0]["lhs"] == 0.0

    def test_nonzero_commutator_fails_norm_bound(self):
        cfg = self._config("direct-kato-trace-zero.json", expect_zero=True)
        check = _checks(run(cfg))["operator-norm-bound"]
        assert check["verdict"] == "fail"
        assert check["lhs"] > 1.0

    def test_norm_bound_dominates_two_norm(self, corpus_reports):
        cfg = self._config("zero-pair-direct.json")
        report = corpus_reports["zero-pair-direct.json"][0]
        bound = _checks(report)["operator-norm-bound"]["lhs"]
        assert operator_two_norm(_operator(cfg, "direct")) <= bound < 1e-8


def test_psd_check_counts_residual_bound():
    # min_eig = 0 is positive only up to the certified eps
    rep = SpectralReport(eigenvalues=np.array([1.0, 0.0]), trace=1.0,
                         rank_threshold=RANK_THRESHOLD,
                         solver="randomized", residual_bound=1e-9)
    assert rep.psd_error == pytest.approx(1e-9, rel=1e-12)
    assert not rep.positive
    check = _psd_check(rep, 1e-10)
    assert check["error"] == pytest.approx(1e-9, rel=1e-12)
    assert check["verdict"] == "fail"


def test_report_byte_stability_spot_check():
    # full-corpus determinism runs in the acceptance suite; keep one
    # cheap spot check here
    cfg = load_config(os.path.join(CONFIG_DIR, "deriv-avg-tanh.json"))
    assert stable_bytes(run(cfg)) == stable_bytes(run(cfg))


class TestPlotData:
    def test_eigenvalues_table(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "rank1-shifted.json"))
        report = run(cfg)
        out = tmp_path / "eig.csv"
        emit_plot_data(report, "eigenvalues", str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 1 + report["spectral"]["numerical_rank"]

    def test_eigenvalues_table_needs_schema_2(self, tmp_path):
        # significant_eigenvalues exist from schema 2 on and the table
        # checks only that they are present; a schema-1 report lists all
        # N eigenvalues under another key
        report = {"schema_version": 1, "kind": "rank1",
                  "spectral": {"eigenvalues": [0.6, 1e-17, -1e-17]}}
        with pytest.raises(SectionAbsentError,
                           match="spectral.significant_eigenvalues"):
            emit_plot_data(report, "eigenvalues", str(tmp_path / "e.csv"))
        rp = tmp_path / "old.json"
        rp.write_text(json.dumps(report))
        assert main(["plot-data", "--report", str(rp), "--what",
                     "eigenvalues", "--out", str(tmp_path / "e.csv")]) == 2
        assert not (tmp_path / "e.csv").exists()
        # a schema-2 report carries the list under the same key
        report = {"schema_version": 2, "kind": "rank1",
                  "spectral": {"significant_eigenvalues": [0.6],
                               "top_eigenvalues": [0.6, 1e-17]}}
        emit_plot_data(report, "eigenvalues", str(tmp_path / "e.csv"))
        assert (tmp_path / "e.csv").read_text() == "index,eigenvalue\n0,0.6\n"

    def test_measure_atoms_table(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "fit-measure-two-atom.json"))
        report = run(cfg)
        out = tmp_path / "atoms.csv"
        emit_plot_data(report, "measure-atoms", str(out))
        rows = [l.split(",") for l in out.read_text().strip().splitlines()[1:]]
        locs = sorted(float(r[0]) for r in rows)
        assert locs[0] == pytest.approx(-1.0, abs=0.05)
        assert locs[-1] == pytest.approx(1.0, abs=0.05)

    def test_convergence_table(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR, "deriv-avg-tanh.json"))
        report = run(cfg)
        out = tmp_path / "conv.csv"
        emit_plot_data(report, "convergence", str(out))
        assert len(out.read_text().strip().splitlines()) == 5

    def test_absent_section(self):
        cfg = load_config(os.path.join(CONFIG_DIR, "fit-measure-two-atom.json"))
        report = run(cfg)
        with pytest.raises(SectionAbsentError):
            emit_plot_data(report, "eigenvalues", "/tmp/never.csv")

    def test_kernel_slice_table(self, tmp_path):
        cfg = load_config(os.path.join(CONFIG_DIR,
                                       "direct-kato-trace-zero.json"))
        report = run(cfg)
        out = tmp_path / "slice.csv"
        emit_plot_data(report, "kernel-slice", str(out))
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "coordinate,value"
        assert len(lines) == 1 + 1024
        # no non-standard JSON tokens in the serialized report
        from poscomm.reporting import stable_bytes
        blob = stable_bytes(report).decode()
        assert "Infinity" not in blob and "NaN" not in blob

    def test_cli_plot_data_roundtrip(self, tmp_path):
        cfgp = os.path.join(CONFIG_DIR, "deriv-avg-tanh.json")
        rp = tmp_path / "rep.json"
        assert main(["run", "--config", cfgp, "--out", str(rp)]) == 0
        assert main(["plot-data", "--report", str(rp),
                     "--what", "convergence",
                     "--out", str(tmp_path / "c.csv")]) == 0
        assert (tmp_path / "c.csv").exists()
