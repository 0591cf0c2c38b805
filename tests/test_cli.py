import glob
import hashlib
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
from poscomm.errors import AccuracyError, ConfigError, SectionAbsentError
from poscomm.finiterank import (
    default_probes,
    gamma_recover,
    rank_one_pair,
    rank_three_example,
)
from poscomm.grids import Grid
from poscomm.monotone import catalog as monotone_catalog
from poscomm.monotone import compose_pair
from poscomm.operators import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    RANK_THRESHOLD,
    DiscretizedOperator,
    SpectralReport,
    _probe_bound,
    build_nystrom_x,
    trace_identity_check,
)
from poscomm.reporting import (
    emit_plot_data,
    make_check,
    record,
    stable_bytes,
    write_report,
)

from conftest import dense_spectrum, operator_two_norm, oracle_norm_bound

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

    @pytest.mark.parametrize("column", [0, 1], ids=["node", "value"])
    def test_nonfinite_sample_file_exits_2(self, column, tmp_path, capsys):
        # a NaN value passed, and fit-measure exited 0 with NaN in its report
        t = np.linspace(-12, 12, 481)
        data = np.column_stack([t, np.tanh(t)])
        data[100, column] = np.nan
        np.savetxt(tmp_path / "samples.txt", data)
        p = tmp_path / "fit.json"
        p.write_text(json.dumps({
            "schema_version": 1, "kind": "fit-measure",
            "f": {"samples": str(tmp_path / "samples.txt")},
            "params": {"expect_member": False}}))
        assert main(["run", "--config", str(p)]) == 2
        assert "bad sample file" in capsys.readouterr().err

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
# a moment-scan entry that passes on a valid config, so that a malformed
# row exits 2 only for its own defect, not for asking for no checks
NO_DIVERGENCE_AT_0 = {"b": 0.0, "expect_diverged": False}

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
    # the string "false" is truthy: it ran as true and exited 1
    "build-kernel-string-expect-zero": {
        **SMALL_PAIR, "kind": "build-kernel", "route": "direct",
        "expect_zero": "false"},
    "fit-measure-string-expect-member": {
        "kind": "fit-measure", "f": TANH,
        "params": {"expect_member": "false"}},
    "tanh-affine-zero-rate": {
        **SMALL_PAIR, "kind": "verify-pair",
        "f": {"catalog": "tanh-affine", "params": {"rate": 0}}},
    "loewner-order-one": {
        "kind": "loewner-test",
        "params": {"function": "sqrt", "orders": [1]}},
    "strip-check-negative-y": {
        **SMALL_PAIR, "kind": "strip-check", "params": {"y_values": [-0.1]}},
    # y = NaN exited 1 with a RuntimeWarning and true ran as y = 1
    "strip-check-nan-y": {
        **SMALL_PAIR, "kind": "strip-check",
        "params": {"y_values": [0.2, float("nan")]}},
    "strip-check-infinite-y": {
        **SMALL_PAIR, "kind": "strip-check",
        "params": {"y_values": [float("inf")]}},
    "strip-check-boolean-y": {
        **SMALL_PAIR, "kind": "strip-check", "params": {"y_values": [True]}},
    "grid-not-an-object": {**SMALL_PAIR, "kind": "verify-pair",
                           "grid": [1, 2]},
    "seed-not-an-integer": {"kind": "rank1", "seed": "x"},
    # json reads Infinity, NaN, true and false; none is a length
    "grid-L-infinite": {**SMALL_PAIR, "kind": "verify-pair",
                        "grid": {"L": float("inf"), "N": 64}},
    "grid-L-boolean": {**SMALL_PAIR, "kind": "verify-pair",
                       "grid": {"L": True, "N": 64}},
    # 2L = inf: dx = inf and x[0] = NaN, exit 1 with NaN in the report
    "grid-L-window-overflows": {**SMALL_PAIR, "kind": "strip-check",
                                "grid": {"L": 1e308, "N": 64}},
    # pi/(2 alpha) = 0: a ZeroDivisionError traceback, and a measure with
    # rate 0
    "fit-measure-rate-underflow": {
        "kind": "fit-measure", "f": TANH, "params": {"alpha": 1e308}},
    "tanh-measure-rate-underflow": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "tanh-measure",
              "params": {"atoms": [[0.0, 1.0]], "alpha": 1e308}}},
    # each of these exited 0 or 1: a check passing on lhs Infinity, a
    # ZeroDivisionError traceback, a NaN slope or a one-point fit
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
        "kind": "moment-scan", "f": TANH,
        "params": {"window": 0, "b_values": [NO_DIVERGENCE_AT_0]}},
    "moment-scan-negative-window": {
        "kind": "moment-scan", "f": TANH,
        "params": {"window": -5, "b_values": [NO_DIVERGENCE_AT_0]}},
    # a non-finite function or study parameter: rate NaN passed as a
    # diagonal-only positive kernel, the others exited 0 or 3
    "tanh-affine-nan-rate": {
        **SMALL_PAIR, "kind": "verify-pair",
        "f": {"catalog": "tanh-affine", "params": {"rate": float("nan")}}},
    "rank1-nan-alpha": {"kind": "rank1", "grid": SMALL_PAIR["grid"],
                        "params": {"alpha": float("nan")}},
    "rank1-infinite-c1": {"kind": "rank1", "grid": SMALL_PAIR["grid"],
                          "params": {"c1": float("inf")}},
    "rank3-infinite-beta": {"kind": "rank3", "grid": SMALL_PAIR["grid"],
                            "params": {"beta": float("inf")}},
    "moment-scan-nan-b": {
        "kind": "moment-scan", "f": TANH,
        "params": {"b_values": [
            NO_DIVERGENCE_AT_0,
            {"b": float("nan"), "expect_diverged": False}]}},
    "deriv-avg-nan-r": {
        "kind": "deriv-avg", "g": TANH,
        "params": {"r_values": [0.2, float("nan")]}},
    # linspace(NaN, 2, 5) is [NaN] * 4 + [2]: one real point passed
    "deriv-avg-nan-lattice": {
        "kind": "deriv-avg", "g": TANH,
        "params": {"lattice": {"lo": float("nan"), "hi": 2.0, "n": 5}}},
    # each of these exited 1: a check against a string or an integer, and
    # a typo that ran a falsification test
    "moment-scan-string-expect-diverged": {
        "kind": "moment-scan", "f": TANH,
        "params": {"b_values": [{"b": 0.0, "expect_diverged": "false"}]}},
    "moment-scan-integer-expect-diverged": {
        "kind": "moment-scan", "f": TANH,
        "params": {"b_values": [{"b": 0.0, "expect_diverged": 0}]}},
    "loewner-expect-typo": {
        "kind": "loewner-test",
        "params": {"function": "log-shift", "orders": [2], "expect": "pas"}},
    # the Loewner certificate is deterministic: a trial count is a stale key
    "loewner-trials": {
        "kind": "loewner-test",
        "params": {"function": "sqrt", "orders": [2], "trials": 400}},
    # each check carries its own tolerance, and the slope window is fixed:
    # a key that once set them is stale, even empty or at its old default
    "tolerances-section-gone-empty": {**SMALL_PAIR, "kind": "verify-pair",
                                      "tolerances": {}},
    "tolerances-section-gone-trace": {**SMALL_PAIR, "kind": "verify-pair",
                                      "tolerances": {"trace": 1e-3}},
    "deriv-avg-slope-range-gone": {
        "kind": "deriv-avg", "g": TANH, "params": {"slope_range": [1.8, 2.2]}},
    # atoms not an (n, 2) array with n >= 1: an IndexError traceback for
    # the first two, the third column dropped in silence for the last
    "tanh-measure-flat-atoms": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "tanh-measure", "params": {"atoms": [0.0, 1.0]}}},
    "tanh-measure-no-atoms": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "tanh-measure", "params": {"atoms": []}}},
    "tanh-measure-three-columns": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "tanh-measure",
              "params": {"atoms": [[0.0, 1.0, 5.0]]}}},
    # each of these exited 0 with "checks": [] and verdict pass
    "loewner-no-orders": {
        "kind": "loewner-test", "params": {"function": "sqrt", "orders": []}},
    "strip-check-no-y-values": {
        **SMALL_PAIR, "kind": "strip-check", "params": {"y_values": []}},
    # each of these passed on an always-true "moments-computed" check
    "moment-scan-no-b-values": {
        "kind": "moment-scan", "f": TANH, "params": {"b_values": []}},
    "moment-scan-no-expectations": {
        "kind": "moment-scan", "f": TANH, "params": {"b_values": [1.0]}},
    # a mistyped key: each ran on the default in place of the value meant
    # (N = 2048, alpha = 1, the position route, alpha = pi/2), and the
    # last exited 1 as a failed check
    "grid-key-typo": {"kind": "rank1", "grid": {"L": 24, "n": 64}},
    "rank1-params-typo": {"kind": "rank1", "grid": SMALL_PAIR["grid"],
                          "params": {"aplha": 2.0}},
    "spectrum-route-typo": {**SMALL_PAIR, "kind": "spectrum",
                            "rout": "nystrom-p"},
    "tanh-measure-params-typo": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "tanh-measure",
              "params": {"atoms": [[0.0, 1.0]], "alhpa": 1.0}}},
    "sum-params-typo": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "sum", "params": {"terms": [TANH], "term": []}}},
    "function-descriptor-typo": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "tanh-affine", "parms": {"rate": 2.0}}},
    "sample-descriptor-extra-key": {
        "kind": "fit-measure", "f": {"samples": "s.txt", "catalog": "sine"}},
    "deriv-avg-lattice-typo": {
        "kind": "deriv-avg", "g": TANH,
        "params": {"lattice": {"lo": -1.0, "hi": 1.0, "n": 5, "N": 9}}},
    "moment-scan-entry-typo": {
        "kind": "moment-scan", "f": TANH,
        "params": {"b_values": [{"b": 0.0, "expect_divergd": True}]}},
    "fit-measure-expect-member-typo": {
        "kind": "fit-measure", "f": TANH,
        "params": {"expect_membr": False}},
    # a key of another kind: verify-pair reads no params
    "verify-pair-params": {**SMALL_PAIR, "kind": "verify-pair",
                           "params": {"y_values": [0.2]}},
    # true ran as seed 1 and 2.7 as seed 2
    "seed-boolean": {"kind": "rank1", "grid": SMALL_PAIR["grid"],
                     "seed": True},
    "seed-fraction": {"kind": "rank1", "grid": SMALL_PAIR["grid"],
                      "seed": 2.7},
    # the remaining config-error exits
    "unknown-route": {**SMALL_PAIR, "kind": "spectrum", "route": "nystrom-q"},
    "unknown-finite-rank-model": {
        "kind": "gamma-recover", "grid": SMALL_PAIR["grid"],
        "params": {"model": "rank2"}},
    "unknown-monotone-entry": {
        "kind": "loewner-test", "params": {"function": "cube"}},
    "descriptor-not-an-object": {**SMALL_PAIR, "kind": "verify-pair",
                                 "f": ["tanh-affine"]},
    "schema-version-2": {**SMALL_PAIR, "kind": "verify-pair",
                         "schema_version": 2},
    # a key the chosen model does not read: each exited 0, its value unused
    "gamma-recover-rank3-alpha": {
        "kind": "gamma-recover", "grid": SMALL_PAIR["grid"],
        "params": {"model": "rank3", "alpha": 5.0}},
    "gamma-recover-rank1-beta": {
        "kind": "gamma-recover", "grid": SMALL_PAIR["grid"],
        "params": {"model": "rank1", "beta": 5.0}},
    "tanh-affine-params-typo": {
        **SMALL_PAIR, "kind": "verify-pair",
        "f": {"catalog": "tanh-affine", "params": {"rat": 2.0}}},
    # a KeyError named the entry, where loewner-test names the catalog
    "compose-unknown-monotone-entry": {
        **SMALL_PAIR, "kind": "compose",
        "params": {"F": "nope", "G": "log-shift"}},
    # a JSON boolean where a number is read ran as 1: each exited 0 or 1
    "rank1-boolean-alpha": {"kind": "rank1", "grid": SMALL_PAIR["grid"],
                            "params": {"alpha": True}},
    "tanh-affine-boolean-rate": {
        **SMALL_PAIR, "kind": "verify-pair",
        "f": {"catalog": "tanh-affine", "params": {"rate": True}}},
    "moment-scan-boolean-window": {
        "kind": "moment-scan", "f": TANH,
        "params": {"window": True, "b_values": [NO_DIVERGENCE_AT_0]}},
    "deriv-avg-boolean-lattice-n": {
        "kind": "deriv-avg", "g": TANH,
        "params": {"lattice": {"lo": -1.0, "hi": 1.0, "n": True}}},
    "fit-measure-boolean-alpha": {
        "kind": "fit-measure", "f": TANH, "params": {"alpha": True}},
    "moment-scan-boolean-b": {
        "kind": "moment-scan", "f": TANH,
        "params": {"b_values": [{"b": True, "expect_diverged": False}]}},
    "moment-scan-boolean-plain-b": {
        "kind": "moment-scan", "f": TANH,
        "params": {"b_values": [True, NO_DIVERGENCE_AT_0]}},
    "schema-version-boolean": {**SMALL_PAIR, "kind": "verify-pair",
                               "schema_version": True},
    # a missing key was named as a KeyError or as the entry None
    "loewner-without-function": {"kind": "loewner-test", "params": {}},
    "compose-without-F": {**SMALL_PAIR, "kind": "compose",
                          "params": {"G": "log-shift"}},
    # a null is no default: it exits 2 rather than run on the default
    "deriv-avg-null-lattice": {
        "kind": "deriv-avg", "g": TANH, "params": {"lattice": None}},
    # a boolean inside a list of numbers ran as 1 and exited 1
    "deriv-avg-boolean-r-value": {
        "kind": "deriv-avg", "g": TANH, "params": {"r_values": [True, 0.5]}},
    "tanh-measure-boolean-atom": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "tanh-measure", "params": {"atoms": [[True, 1.0]]}}},
    "tanh-measure-boolean-weight": {
        **SMALL_PAIR, "kind": "verify-pair",
        "g": {"catalog": "tanh-measure",
              "params": {"atoms": [[0.0, 1.0], [1.0, False]]}}},
    # (2L)^2 = inf: the quadrature profile's int(ceil(u dx / pi)) raised
    # OverflowError out of main
    "compose-grid-L-phase-overflows": {
        **SMALL_PAIR, "kind": "compose", "grid": {"L": 1e300, "N": 64},
        "params": {"F": "log-shift", "G": "identity"}},
}


# rows whose message names the stale key, so that no other rule passes them
MALFORMED_MESSAGES = {
    "tolerances-section-gone-empty": "field 'tolerances' is gone",
    "tolerances-section-gone-trace": "field 'tolerances' is gone",
    "deriv-avg-slope-range-gone": "params.slope_range is gone",
    "tanh-measure-flat-atoms": "params.atoms",
    "tanh-measure-no-atoms": "params.atoms",
    "tanh-measure-three-columns": "params.atoms",
    "grid-L-window-overflows": "grid.L",
    "compose-grid-L-phase-overflows": "grid.L",
    "grid-key-typo": "unknown key 'n' in grid",
    "rank1-params-typo": "unknown key 'aplha' in rank1 params",
    "spectrum-route-typo": "unknown key 'rout' in a spectrum config",
    "tanh-measure-params-typo": "unknown key 'alhpa' in tanh-measure params",
    "sum-params-typo": "unknown key 'term' in sum params",
    "function-descriptor-typo": "unknown key 'parms' in a function descriptor",
    "sample-descriptor-extra-key":
        "unknown key 'catalog' in a function descriptor",
    "deriv-avg-lattice-typo": "unknown key 'N' in params.lattice",
    "moment-scan-entry-typo": "unknown key 'expect_divergd'",
    "fit-measure-expect-member-typo":
        "unknown key 'expect_membr' in fit-measure params",
    "verify-pair-params": "unknown key 'params' in a verify-pair config",
    "seed-boolean": "seed must be an integer",
    "seed-fraction": "seed must be an integer",
    "unknown-route": "unknown route",
    "unknown-finite-rank-model": "unknown finite-rank model",
    "unknown-monotone-entry": "unknown monotone catalog entry",
    "descriptor-not-an-object": "function descriptor must be an object",
    "schema-version-2": "unsupported schema_version",
    "gamma-recover-rank3-alpha":
        "unknown key 'alpha' in gamma-recover rank3 params",
    "gamma-recover-rank1-beta":
        "unknown key 'beta' in gamma-recover rank1 params",
    "tanh-affine-params-typo": "unknown key 'rat' in tanh-affine params",
    "compose-unknown-monotone-entry": "unknown monotone catalog entry 'nope'",
    "rank1-boolean-alpha": "alpha in rank1 params must not be true or false",
    "tanh-affine-boolean-rate":
        "rate in tanh-affine params must not be true or false",
    "moment-scan-boolean-window":
        "window in moment-scan params must not be true or false",
    "deriv-avg-boolean-lattice-n":
        "n in params.lattice must not be true or false",
    "fit-measure-boolean-alpha":
        "alpha in fit-measure params must not be true or false",
    "moment-scan-boolean-b": "b in a b_values entry must not be true or false",
    "moment-scan-boolean-plain-b":
        "b in a b_values entry must not be true or false",
    "schema-version-boolean": "unsupported schema_version True",
    "loewner-without-function": "missing key 'function' in loewner-test params",
    "compose-without-F": "missing key 'F' in compose params",
    "deriv-avg-boolean-r-value": "params.r_values must not hold true or false",
    "tanh-measure-boolean-atom": "params.atoms must not hold true or false",
    "tanh-measure-boolean-weight": "params.atoms must not hold true or false",
}


class TestValidation:
    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_config_exits_2(self, name, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"schema_version": 1, **MALFORMED[name]}))
        assert main(["run", "--config", str(p)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err
        assert MALFORMED_MESSAGES.get(name, "") in err

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

    def test_config_not_an_object(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("[1, 2]")
        assert main(["run", "--config", str(p)]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err

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

    @pytest.mark.parametrize("n", [256, 512])
    def test_compose_below_position_nyquist(self, n, tmp_path):
        # N < 4L^2/pi: the position lattice reaches past pi/dx, so the
        # quadrature profile samples f' at dx/r (aliased at dx, min_eig
        # read -4.7e-2 at N = 256 and -8.6e-11 at N = 512)
        cfg = load_config(os.path.join(CONFIG_DIR, "compose-log-kato.json"))
        cfg["grid"]["N"] = n
        path = tmp_path / "compose.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path),
                     "--out", str(tmp_path / "r.json")]) == 0

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
        # hundreds of significant eigenvalues: the sketch does not pay, and
        # the dense solve splits by parity, its blocks coupled by row 0
        spec = corpus_reports["verify-pair-howland.json"][0]["spectral"]
        assert spec["solver"] == "dense"
        assert 0.0 < spec["residual_bound"] <= 1e-20 * spec["max_eig"]
        assert len(spec["significant_eigenvalues"]) == spec["numerical_rank"]

    @pytest.mark.parametrize("name", [
        "compose-log-kato.json", "compose-moebius-two-atom.json",
        "rank1-default.json", "rank1-scaled.json", "rank1-shifted.json",
        "rank3-beta-half.json", "rank3-beta-one.json", "rank3-beta-two.json",
        "gamma-recover-rank1.json", "gamma-recover-rank3.json",
        "spectrum-kato-momentum.json", "trace-check-kato.json",
        "verify-pair-kato.json", "verify-pair-two-atom.json",
        "direct-kato-trace-zero.json", "zero-pair-direct.json",
        "verify-pair-howland.json"])
    def test_reports_assemble_no_matrix(self, name, corpus_reports,
                                        monkeypatch):
        # these kinds read K through its factors, its rows or the lattice:
        # the same report with the N x N assembly refused
        def assembled(op):
            raise AssertionError(f"{name} assembled the N x N matrix")

        monkeypatch.setattr(DiscretizedOperator, "matrix",
                            property(assembled))
        report = run(load_config(os.path.join(CONFIG_DIR, name)))
        assert report["verdict"] == "pass"
        assert stable_bytes(report) == corpus_reports[name][1]

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


# poscomm and every submodule imported in a fresh interpreter, then every
# config given run; prints the sha256 of each report's stable bytes, then
# the scipy modules loaded
_COLD_START = """
import hashlib, importlib, json, pkgutil, sys
import poscomm
from poscomm.cli import load_config, run
from poscomm.reporting import stable_bytes
for mod in pkgutil.iter_modules(poscomm.__path__):
    importlib.import_module("poscomm." + mod.name)
for path in sys.argv[1:]:
    blob = stable_bytes(run(load_config(path)))
    print(json.dumps(hashlib.sha256(blob).hexdigest()))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_corpus_run_loads_no_scipy(corpus_reports):
    src = os.path.dirname(os.path.dirname(poscomm.__file__))
    out = subprocess.run([sys.executable, "-c", _COLD_START, *ALL_CONFIGS],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    *digests, loaded = [json.loads(line) for line in out.stdout.splitlines()]
    assert loaded == []
    assert len(digests) == len(corpus_reports) == 26
    for path, digest in zip(ALL_CONFIGS, digests):
        name = os.path.basename(path)
        assert digest == hashlib.sha256(corpus_reports[name][1]).hexdigest(), \
            name


# every config given run under a profiler, load_config included; prints
# the module-level functions of poscomm that no call reached
_REACH = """
import importlib, inspect, json, pkgutil, sys
import poscomm
from poscomm.cli import load_config, run
mods = [importlib.import_module("poscomm." + m.name)
        for m in pkgutil.iter_modules(poscomm.__path__)]
called = set()
def profile(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)
sys.setprofile(profile)
for path in sys.argv[1:]:
    run(load_config(path))
sys.setprofile(None)
print(json.dumps(sorted(
    f"{mod.__name__.split('.')[1]}.{name}"
    for mod in mods for name, fn in vars(mod).items()
    if inspect.isfunction(fn) and fn.__module__ == mod.__name__
    and fn.__code__ not in called)))
"""

# the functions the corpus does not reach, by reason; any other function
# that nothing reaches is a deletion or a corpus check away
REACH_LEDGER = [
    # the command line and the report files: run returns the report
    "cli.main", "reporting._dump", "reporting.write_report",
    "reporting.stable_bytes", "reporting.emit_plot_data",
    # sample-file input: no corpus config reads a sample file
    "functions.function_from_samples", "grids.centered_difference",
    # paper identities that no corpus config checks yet (ROADMAP item 11)
    "operators.shifted_trace", "operators.route_agreement",
    "finiterank.reconstruct_gprime", "finiterank.reconstruct_fprime",
    "finiterank._require_positive", "grids.to_momentum",
    "grids._nyquist_phases", "functions.cosh_mollify",
    "functions.herglotz_check",
]


def test_corpus_reaches_all_but_the_ledger():
    src = os.path.dirname(os.path.dirname(poscomm.__file__))
    out = subprocess.run([sys.executable, "-c", _REACH, *ALL_CONFIGS],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == sorted(REACH_LEDGER)


def test_overflowed_moment_reads_diverged(tmp_path):
    # f' e^(2bt) = inf at both the edge and the inner sample read as
    # converging, and this config exited 1
    p = tmp_path / "moment.json"
    p.write_text(json.dumps({
        "schema_version": 1, "kind": "moment-scan", "f": TANH,
        "params": {"window": 40.0,
                   "b_values": [{"b": 25.0, "expect_diverged": True}]}}))
    assert main(["run", "--config", str(p)]) == 0


def _corpus_with(name, path, value) -> dict:
    """The corpus config ``name`` with the leaf at ``path`` set to value."""
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    leaf = cfg
    for key in path[:-1]:
        leaf = leaf[key]
    leaf[path[-1]] = value
    return cfg


# corpus configs with one leaf moved, each of which exited 0 with NaN or
# Infinity in its report, raised out of main, warned before its config
# error, or asked for 5.96 GiB (atom_step), 7.5 GiB (lattice n) or about
# 8 GiB (the quadrature profile's 5.1e8 samples at L = 2e4)
NONFINITE_CASES = {
    "fit-measure-steep-rate": ("fit-measure-reject-steep.json",
                               ("f", "params", "rate"), 1e300),
    "moment-scan-huge-b": ("moment-scan-tanh.json",
                           ("params", "b_values", 2, "b"), 1e8),
    "compose-huge-window": ("compose-log-kato.json", ("grid", "L"), 1e300),
    "fit-measure-tiny-step": ("fit-measure-reject-steep.json",
                              ("params", "atom_step"), 1e-8),
    "deriv-avg-infinite-hi": ("deriv-avg-tanh.json",
                              ("params", "lattice", "hi"), float("inf")),
    "deriv-avg-huge-lattice": ("deriv-avg-tanh.json",
                               ("params", "lattice", "n"), 10 ** 9),
    "compose-wide-window": ("compose-log-kato.json", ("grid", "L"), 2e4),
}
# the cases above refused by name, with no warning: (exit code, text of
# stderr)
_REFUSED_CASES = {
    "fit-measure-tiny-step": (2, "params.atom_step"),
    "deriv-avg-infinite-hi": (2, "params.lattice.lo and hi must be finite"),
    "deriv-avg-huge-lattice": (2, "params.lattice.n = 1000000000"),
    "compose-wide-window": (2, "samples of f' at grid.L = 20000.0"),
}


def test_nan_residual_is_refused(tmp_path, capsys):
    # f = tanh(1e300 t) fitted with a NaN residual, its norms overflowing,
    # and the run exited 0 with "lhs": NaN, then 3 once NaN was refused.
    # Fitted to f' scaled by a power of two, it is a finite non-member,
    # with no warning (tests turn warnings into errors)
    p, out = tmp_path / "steep.json", tmp_path / "steep-report.json"
    p.write_text(json.dumps(_corpus_with(
        *NONFINITE_CASES["fit-measure-steep-rate"])))
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"] == "pass"
    assert report["extras"]["residual"] == pytest.approx(0.981, abs=1e-3)
    assert [a["weight"] for a in report["extras"]["atoms"]] == [
        pytest.approx(3.75e298)]
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("part", ["lhs", "rhs", "error"])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)],
                         ids=["nan", "inf", "complex-inf"])
def test_record_refuses_a_non_finite_number(part, value):
    args = dict(lhs=1.0, rhs=1.0, error=0.0)
    args[part] = value
    with pytest.raises(AccuracyError, match=f"'demo' has a non-finite {part}"):
        record("demo", tolerance=1e-6, ok=True, **args)
    if part != "error":
        for mode in ("abs", "rel", "exact"):
            with pytest.raises(AccuracyError, match=f"'demo'.* {part}"):
                make_check("demo", args["lhs"], args["rhs"], 1e-6, mode)


def test_overflowed_moment_is_written_null(tmp_path):
    # e^(2bt) at b = 1e8 overflows: the moment was written as JSON's
    # Infinity, which no JSON reader accepts.  The finite moments keep
    # their values
    out = tmp_path / "moment-report.json"
    p = tmp_path / "moment.json"
    p.write_text(json.dumps(_corpus_with(
        *NONFINITE_CASES["moment-scan-huge-b"])))
    assert main(["run", "--config", str(p), "--out", str(out)]) == 0
    blob = out.read_text()
    assert "Infinity" not in blob and "NaN" not in blob
    rows = json.loads(blob)["extras"]["moments"]
    assert rows[2] == {"b": 1e8, "value": None, "diverged": True}
    assert all(np.isfinite(r["value"]) for r in rows[:2])


# ``python -m poscomm.cli`` in a child that first caps its own address
# space at 3 GiB (a preexec_fn is not safe in this threaded process)
_CAPPED_CLI = ("import resource, runpy; "
               "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30)); "
               "runpy.run_module('poscomm.cli', run_name='__main__')")


def test_nonfinite_cases_end_in_a_documented_exit(tmp_path):
    # the cases above through the CLI, capped, so that a runaway
    # allocation fails in the child rather than take this process down:
    # an exit in 0-3, no traceback and no non-finite number in any report
    # written
    src = os.path.dirname(os.path.dirname(poscomm.__file__))
    for name, case in NONFINITE_CASES.items():
        p, out = tmp_path / f"{name}.json", tmp_path / f"{name}-report.json"
        p.write_text(json.dumps(_corpus_with(*case)))
        proc = subprocess.run(
            [sys.executable, "-c", _CAPPED_CLI, "run", "--config", str(p),
             "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert proc.returncode in (0, 1, 2, 3), (name, proc.stderr)
        assert "Traceback" not in proc.stderr, name
        if name in _REFUSED_CASES:
            code, text = _REFUSED_CASES[name]
            assert proc.returncode == code and text in proc.stderr, name
            assert "Warning" not in proc.stderr, name
        if out.exists():
            blob = out.read_text()
            assert "NaN" not in blob and "Infinity" not in blob, name


def test_exact_averaged_quotient_exits_2(tmp_path):
    # g constant: every max error is exactly 0, whose log made the slope,
    # lhs and error NaN and the run exit 1 with a RuntimeWarning
    p = tmp_path / "constant.json"
    p.write_text(json.dumps({
        "schema_version": 1, "kind": "deriv-avg",
        "g": {"catalog": "constant", "params": {"value": 1.0}}}))
    src = os.path.dirname(os.path.dirname(poscomm.__file__))
    out = subprocess.run([sys.executable, "-m", "poscomm.cli", "run",
                          "--config", str(p)],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True)
    assert out.returncode == 2
    assert "NaN" not in out.stdout
    assert "r = 0.2" in out.stderr and "Warning" not in out.stderr


def _checks(report):
    return {c["name"]: c for c in report["checks"]}


class TestPositivityNearBoundary:
    """verify-pair-kato with f = tanh(a t): positive for a <= pi/2, and
    its eigenvalues decay ever more slowly as a nears pi/2."""

    @staticmethod
    def _run(tmp_path, rate=np.pi / 2, g_offset=0.0, n=2048):
        cfg = load_config(os.path.join(CONFIG_DIR, "verify-pair-kato.json"))
        cfg["f"]["params"]["rate"] = rate
        cfg["g"]["params"]["offset"] = g_offset
        cfg["grid"]["N"] = n
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(cfg))
        code = main(["run", "--config", str(path), "--out", str(out)])
        return code, json.loads(out.read_text())

    def test_positive_pair_inside_the_boundary_passes(self, tmp_path):
        # at 0.999 pi/2 depth 1 reads 6 significant Ritz values, more
        # than its 4, and depths 2 and 3 leave positivity undecided (a
        # width-16 sketch with a power step left psd_error at 2.45e-8
        # against 1e-10 and went dense, min/max -2.4e-16); depth 4 (32
        # columns) certifies the six positive eigenvalues dense reads
        code, report = self._run(tmp_path, rate=1.5692255304681016)
        spec = report["spectral"]
        assert code == 0
        assert spec["solver"] == "randomized" and spec["positive"]
        assert spec["numerical_rank"] == 6
        assert min(spec["significant_eigenvalues"]) > 0
        assert spec["residual_bound"] <= 1e-10 * spec["max_eig"]

    def test_pair_outside_the_boundary_stays_indefinite(self, tmp_path):
        code, report = self._run(tmp_path, rate=1.001 * np.pi / 2)
        spec = report["spectral"]
        assert code == 1
        assert not spec["positive"]
        assert spec["min_eig"] / spec["max_eig"] == pytest.approx(
            -3.50e-4, abs=5e-7)

    def test_offset_multiplier_keeps_the_certified_solve(self, tmp_path):
        # g = tanh(t) + 1000 gives the same K; the factored apply must
        # not lose the certificate to the size of g
        code, report = self._run(tmp_path, g_offset=1e3)
        spec = report["spectral"]
        assert code == 0
        assert spec["solver"] == "randomized" and spec["positive"]

    def test_large_offset_keeps_the_certified_solve(self, tmp_path):
        # with g = tanh(t) + 1e4, g_i - g_j taken from the offset values
        # carried 1e4 eps of rounding into K, and the solve went dense;
        # the builds difference g without its offset
        code, report = self._run(tmp_path, g_offset=1e4, n=1024)
        spec = report["spectral"]
        assert code == 0
        assert spec["solver"] == "randomized" and spec["positive"]


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

    def test_vanishing_variation_compares_absolutely(self):
        # g = tanh x - tanh(x - 1) has [g] = 0: the record takes
        # trace_identity_check's absolute rule, not an error over 1e-300
        cfg = self._config("spectrum-kato-momentum.json", route="nystrom-x",
                           grid={"L": 24.0, "N": 256})
        cfg["g"] = {"catalog": "sum", "params": {"terms": [
            {"catalog": "tanh-affine", "params": {}},
            {"catalog": "tanh-affine",
             "params": {"center": 1.0, "scale": -1.0}}]}}
        check = _checks(run(cfg))["trace-identity"]
        tc = trace_identity_check(_operator(cfg))
        assert tc.rhs == 0.0
        assert check["error"] == tc.rel_error < 1e-12
        assert check["verdict"] == "pass"

    def test_trace_check_with_vanishing_variation(self, tmp_path):
        # [g] = 0 makes the predicted momentum diagonal ([g]/2 pi) f'
        # vanish: it is compared absolutely (it exited 2 on an empty mask)
        cfg = self._config("trace-check-kato.json",
                           grid={"L": 24.0, "N": 256})
        cfg["g"] = {"catalog": "sum", "params": {"terms": [
            {"catalog": "tanh-affine", "params": {}},
            {"catalog": "tanh-affine",
             "params": {"center": 1.0, "scale": -1.0}}]}}
        path, out = tmp_path / "cfg.json", tmp_path / "report.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        check = _checks(json.loads(out.read_text()))[
            "momentum-diagonal-identity"]
        assert check["verdict"] == "pass" and check["error"] < 1e-12

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

    @pytest.mark.parametrize("t1", [0.0, 3.0])
    def test_norm_bound_dominates_a_kernels_two_norm(self, t1):
        # the check's probe bound of a real (t1 = 0) or complex kernel,
        # whose probes are then complex, is above its 2-norm and within
        # the Gaussian norms' factor of it
        op = build_nystrom_x(*rank_one_pair(1.0, t1=t1), Grid(24.0, 300))
        assert np.iscomplexobj(op) == (t1 != 0)
        bound = _probe_bound(op)
        two_norm = operator_two_norm(op)
        assert two_norm <= bound <= 100 * two_norm


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ["rank3-beta-one.json",
                                  "gamma-recover-rank3.json"])
def test_rank3_model_on_a_wide_window_exits_0(tmp_path, name):
    # at L = 1500 cosh x overflows from |x| = 710 on and cosh(x/2) sech x
    # read inf * 0 = NaN from |x| = 1421 on (exit 3, "Eigenvalues did not
    # converge"); the factors written in exp(-|x|) stay finite there
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    cfg["grid"] = {"L": 1500.0, "N": 8192}
    path, out = tmp_path / "cfg.json", tmp_path / "report.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0


def test_huge_atom_weight_keeps_the_certified_solve():
    # K's entries near 1e300 overflowed the squares of the probe bound's
    # norms (8 RuntimeWarnings, which tests raise): the bound read inf and
    # the spectrum took the dense solve
    report = run(_corpus_with("verify-pair-two-atom.json",
                              ("f", "params", "atoms", 0, 1), 1e300))
    spec = report["spectral"]
    assert report["verdict"] == "pass"
    assert spec["solver"] == "randomized" and spec["positive"]
    assert 0 < spec["residual_bound"] <= 1e-6 * spec["max_eig"]


def test_gamma_recover_reads_the_echoed_seed():
    cfg = load_config(os.path.join(CONFIG_DIR, "gamma-recover-rank1.json"))
    cfg["grid"] = {"L": 24.0, "N": 256}
    report = run(cfg, seed=7)
    # the seed the probes were drawn with is the one the report echoes;
    # the report gives the grid nodes read for them
    assert report["config"]["seed"] == 7
    grid = _grid_from_config(cfg)
    probes = default_probes(1, 7)
    for key, points in (("probes_a", probes.points_a),
                        ("probes_b", probes.points_b)):
        assert report["extras"][key] == [
            grid.x[grid.index_of(y)] for y in points]
    assert cfg["seed"] == 3


class TestSharedProbeProduct:
    """The solve's bound and the norm checks of K read one probe product
    K W per operator."""

    @pytest.mark.parametrize("name, check", [
        ("rank3-beta-one.json", "model-vs-kernel-norm"),
        ("gamma-recover-rank3.json", "reassembly-norm-bound"),
        ("zero-pair-direct.json", "operator-norm-bound"),
    ])
    def test_norm_checks_keep_their_bits(self, name, check, corpus_reports):
        # the bits of (K - M) W on probes drawn afresh for the check
        cfg = load_config(os.path.join(CONFIG_DIR, name))
        grid = _grid_from_config(cfg)
        if cfg["kind"] == "build-kernel":
            op, model = _operator(cfg, "direct"), None
        else:
            ex = rank_three_example(cfg["params"]["beta"], grid)
            op = build_nystrom_x(ex.f, ex.g, grid)
            model = (ex.model if cfg["kind"] == "rank3" else
                     gamma_recover(op, default_probes(3, cfg["seed"])).model)
        lhs = _checks(corpus_reports[name][0])[check]["lhs"]
        assert lhs == oracle_norm_bound(op, model)

    def test_rank3_applies_k_to_the_probes_once(self, monkeypatch):
        # depth 1's K Omega_8 and Q^H K Q (16 + 8 Toeplitz
        # columns), K W (20), which the model-vs-kernel-norm check reads
        # again, and the odd-sector quadratic form (1)
        widths, toeplitz = [], DiscretizedOperator._toeplitz

        def counted(op, x):
            widths.append(x.shape[1])
            return toeplitz(op, x)

        monkeypatch.setattr(DiscretizedOperator, "_toeplitz", counted)
        report = run(load_config(os.path.join(CONFIG_DIR,
                                              "rank3-beta-one.json")))
        assert report["verdict"] == "pass"
        assert widths == [16, 8, 20, 1]


class TestIdentityRecords:
    """Each identity's check record comes from one helper, whichever kind
    asks for it."""

    def test_rank1_trace_identity_reads_trace(self, corpus_reports, kato_op):
        rank1 = _checks(corpus_reports["rank1-default.json"][0])
        verify = _checks(corpus_reports["verify-pair-kato.json"][0])
        check = rank1["trace-identity"]
        f, g = kato_op.f, kato_op.g
        assert check["lhs"] == kato_op.trace()
        assert check["rhs"] == f.variation * g.variation / (2 * np.pi)
        assert check["error"] == (abs(check["lhs"] - check["rhs"])
                                  / abs(check["rhs"]))
        # the same pair on the same grid: the verify-pair record
        assert check == verify["trace-identity"]

    def test_hermiticity_record_uses_the_constant(self, tmp_path):
        # a sampled f has a quadrature profile, whose raw lattice is
        # conjugate-symmetric only to rounding
        t = np.linspace(-30.0, 30.0, 6001)
        samples = tmp_path / "f.txt"
        np.savetxt(samples, np.column_stack([t, np.tanh(np.pi * t / 2)]))
        cfg = {"schema_version": 1, "kind": "verify-pair",
               "f": {"samples": str(samples)}, "g": TANH,
               "grid": {"L": 24.0, "N": 128}}
        check = _checks(run(cfg))["hermiticity-defect"]
        op = _operator(cfg)
        assert check["lhs"] == op.hermiticity_defect > 0.0
        assert check["tolerance"] == (HERMITICITY_TOL
                                      * float(np.max(np.abs(op.matrix))))
        assert check["verdict"] == "pass"
        # build-kernel builds the same record for the same operator
        build = _checks(run({**cfg, "kind": "build-kernel"}))
        assert build["hermiticity-defect"] == check


def test_psd_check_counts_residual_bound():
    # min_eig = 0 is positive only up to the certified eps
    rep = SpectralReport(eigenvalues=np.array([1.0, 0.0]), trace=1.0,
                         solver="randomized", residual_bound=1e-9)
    assert rep.psd_error == pytest.approx(1e-9, rel=1e-12)
    assert not rep.positive
    check = _psd_check(rep)
    assert check["error"] == pytest.approx(1e-9, rel=1e-12)
    assert check["tolerance"] == POSITIVITY_TOL
    assert check["verdict"] == "fail"
    # the record and the spectral section give one verdict
    for eps in (1e-9, 0.0):
        rep = SpectralReport(np.array([1.0, 0.0]), 1.0, "randomized", eps)
        assert (_psd_check(rep)["verdict"] == "pass") == rep.positive
    assert rep.positive


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
