"""Declarative experiment runner.

Each experiment is a JSON config with a versioned schema; reports are
machine-readable JSON (see reporting module) and CSV tables can be pulled
out of a report with the plot-data subcommand.  Exit codes: 0 pass,
1 check failure, 2 usage/config error, 3 numerical-accuracy error.

Spectral checks read only extremes, rank, sign pattern and trace, and a
report's ``spectral`` section lists only the significant eigenvalues.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import __version__
from .averaging import _RULE, convergence_study
from .errors import (
    AccuracyError,
    ConfigError,
    DivergenceError,
    FitQualityError,
    PoscommError,
    TruncationError,
)
from .finiterank import (
    default_probes,
    gamma_recover,
    rank_one_pair,
    rank_three_example,
    strip_product_check,
)
from .functions import (
    ArctanAffine,
    Constant,
    FunctionSum,
    RealFunction,
    Sine,
    TanhAffine,
    TanhMeasure,
    exp_moment,
    fit_tanh_measure,
    function_from_samples,
)
from .grids import Grid
from .monotone import catalog as monotone_catalog
from .monotone import composition_positivity_experiment, loewner_matrix_test
from .operators import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    RANK_THRESHOLD,
    build_direct,
    build_nystrom_p,
    build_nystrom_x,
    spectrum,
    strip_positivity_check,
    trace_identity_check,
)
from .reporting import (
    assemble_report,
    bool_check,
    emit_plot_data,
    make_check,
    stable_bytes,
    write_report,
)

_CATALOG_BUILDERS = {
    "tanh-affine": TanhAffine,
    "arctan-affine": ArctanAffine,
    "sine": Sine,
    "constant": Constant,
}


def function_from_config(desc: dict) -> RealFunction:
    if not isinstance(desc, dict):
        raise ConfigError("function descriptor must be an object")
    if "samples" in desc:
        try:
            return function_from_samples(desc["samples"])
        except (OSError, ValueError) as e:
            raise ConfigError(f"bad sample file {desc['samples']}: {e}") from e
    name = desc.get("catalog")
    params = desc.get("params", {})
    if name == "sum":
        return FunctionSum([function_from_config(t) for t in params["terms"]])
    if name == "tanh-measure":
        atoms = np.asarray(params["atoms"], dtype=float)
        return TanhMeasure(atoms[:, 0], atoms[:, 1],
                           offset=params.get("offset", 0.0),
                           alpha=params.get("alpha", np.pi / 2))
    builder = _CATALOG_BUILDERS.get(name)
    if builder is None:
        raise ConfigError(f"unknown catalog function {name!r}")
    try:
        return builder(**params)
    except TypeError as e:
        raise ConfigError(f"bad parameters for {name!r}: {e}") from e


def _positive_real(v) -> bool:
    """A JSON number in (0, max float]: not a boolean, NaN or Infinity."""
    return type(v) in (int, float) and 0 < v <= sys.float_info.max


def _grid_from_config(cfg: dict) -> Grid:
    g = cfg.get("grid", {})
    length = g.get("L", 24.0)
    n = g.get("N", 2048)
    if not isinstance(n, int) or n < 8 or (n & (n - 1)) != 0:
        raise ConfigError(f"grid.N must be a power of two >= 8, got {n!r}")
    if not _positive_real(length):
        raise ConfigError(
            f"grid.L must be finite and positive, got {length!r}")
    return Grid(float(length), n)


def _tol(cfg: dict, name: str, default: float) -> float:
    t = cfg.get("tolerances", {}).get(name, default)
    if not _positive_real(t):
        raise ConfigError(f"tolerance {name!r} must be finite and positive")
    return float(t)


def _pair(cfg: dict):
    return function_from_config(cfg["f"]), function_from_config(cfg["g"])


def _operator(cfg: dict, route: str = "nystrom-x"):
    """The config's pair built on its grid by ``route``."""
    f, g = _pair(cfg)
    grid = _grid_from_config(cfg)
    # looked up at call time: instrumentation may rebind the builders
    builders = {"nystrom-x": build_nystrom_x, "nystrom-p": build_nystrom_p,
                "direct": build_direct}
    if route not in builders:
        raise ConfigError(f"unknown route {route!r}")
    return builders[route](f, g, grid)


def _spectral_summary(rep, n: int) -> dict:
    """The report's ``spectral`` section for an N = ``n`` operator: its
    significant eigenvalues and a count of the rest, never all N."""
    return {
        "significant_eigenvalues": rep.significant(),
        "insignificant_count": n - rep.numerical_rank,
        "min_eig": rep.min_eig,
        "max_eig": rep.max_eig,
        "trace": rep.trace,
        "numerical_rank": rep.numerical_rank,
        "positive": rep.positive,
        "solver": rep.solver,
        "residual_bound": rep.residual_bound,
    }


def _hermiticity_check(op, tol) -> dict:
    scale = float(np.max(np.abs(op.matrix)))
    return make_check("hermiticity-defect", op.hermiticity_defect, 0.0,
                      tol * max(scale, 1e-300))


def _psd_check(rep, tol) -> dict:
    return {
        "name": "psd-certificate",
        "lhs": rep.min_eig,
        "rhs": 0.0,
        "error": rep.psd_error,
        "tolerance": tol,
        "verdict": "pass" if rep.psd_error <= tol else "fail",
    }


def _trace_check(cfg, op) -> dict:
    """tr K against [f][g]/(2*pi), or exactly 0 on the direct route."""
    if op.route == "direct":
        return make_check("direct-trace-zero", op.trace(), 0.0, 0.0,
                          mode="exact")
    tc = trace_identity_check(op)
    return make_check("trace-identity", tc.lhs, tc.rhs,
                      _tol(cfg, "trace", 1e-6), mode="rel")


def _run_build_kernel(cfg, seed):
    route = cfg.get("route", "nystrom-x")
    op = _operator(cfg, route)
    checks = [_hermiticity_check(op,
                                 _tol(cfg, "hermiticity", HERMITICITY_TOL))]
    if route == "direct":
        checks.append(_trace_check(cfg, op))
        if cfg.get("expect_zero"):
            # ||K||_F bounds ||K||_2 from above
            checks.append(make_check("operator-norm-bound",
                                     float(np.linalg.norm(op.matrix)),
                                     0.0, _tol(cfg, "zero_norm", 1e-8)))
    mid = op.grid.index_of(0.0)
    extras = {
        "kernel_slice": {
            "coordinates": op.coords,
            "values": op.matrix[mid] / op.weights[mid],
        },
        "route": route,
    }
    return checks, extras, None


def _run_spectrum(cfg, seed):
    route = cfg.get("route", "nystrom-x")
    op = _operator(cfg, route)
    rep = spectrum(op, rank_threshold=_tol(cfg, "rank_threshold",
                                            RANK_THRESHOLD))
    checks = [_trace_check(cfg, op)]
    return checks, {"route": route}, _spectral_summary(rep, op.n)


def _run_verify_pair(cfg, seed):
    op = _operator(cfg)
    rep = spectrum(op)
    checks = [
        _psd_check(rep, _tol(cfg, "positivity", POSITIVITY_TOL)),
        _trace_check(cfg, op),
        _hermiticity_check(op, HERMITICITY_TOL),
    ]
    return checks, {}, _spectral_summary(rep, op.n)


def _run_trace_check(cfg, seed):
    op_x = _operator(cfg)
    op_p = _operator(cfg, "nystrom-p")
    f, g, grid = op_p.f, op_p.g, op_p.grid
    tx = trace_identity_check(op_x)
    tp = trace_identity_check(op_p)
    diag = np.real(np.diag(op_p.matrix)) / grid.dk
    fp = np.asarray(f.derivative(grid.k), dtype=float)
    predicted = (g.variation / (2 * np.pi)) * fp
    mask = np.abs(predicted) > 1e-12 * np.max(np.abs(predicted))
    diag_err = float(np.max(np.abs(diag[mask] - predicted[mask])
                            / np.abs(predicted[mask])))
    rx = spectrum(op_x)
    rp = spectrum(op_p)
    checks = [
        make_check("trace-identity-x", tx.lhs, tx.rhs,
                   _tol(cfg, "trace", 1e-6), mode="rel"),
        make_check("trace-identity-p", tp.lhs, tp.rhs,
                   _tol(cfg, "trace", 1e-6), mode="rel"),
        make_check("momentum-diagonal-identity", diag_err, 0.0,
                   _tol(cfg, "diagonal", 1e-8)),
        make_check("fourier-symmetry-top-eigenvalue", rp.max_eig, rx.max_eig,
                   _tol(cfg, "eigen", 1e-6), mode="rel"),
    ]
    return checks, {}, _spectral_summary(rx, op_x.n)


def _run_rank1(cfg, seed):
    p = cfg.get("params", {})
    alpha = p.get("alpha", 1.0)
    c1, c2 = p.get("c1", 1.0), p.get("c2", 1.0)
    f, g = rank_one_pair(alpha, c1, c2, p.get("t1", 0.0), p.get("t2", 0.0),
                         p.get("d1", 0.0), p.get("d2", 0.0))
    grid = _grid_from_config(cfg)
    op = build_nystrom_x(f, g, grid)
    rep = spectrum(op)
    lam_target = 2.0 * c1 * c2 / np.pi
    checks = [
        make_check("numerical-rank", rep.numerical_rank, 1, 0.0, mode="exact"),
        make_check("top-eigenvalue", rep.max_eig, lam_target,
                   _tol(cfg, "eigen", 1e-4)),
        _psd_check(rep, _tol(cfg, "positivity", POSITIVITY_TOL)),
        make_check("trace-identity", trace_identity_check(op).rel_error, 0.0,
                   _tol(cfg, "trace", 1e-6)),
    ]
    return checks, {}, _spectral_summary(rep, op.n)


def _run_rank3(cfg, seed):
    beta = cfg.get("params", {}).get("beta", 1.0)
    grid = _grid_from_config(cfg)
    ex = rank_three_example(beta, grid)
    op = build_nystrom_x(ex.f, ex.g, grid)
    rep = spectrum(op)
    pos, neg = rep.sign_pattern()
    lam_minus_target = -(beta / np.pi) * (np.pi - 2) / 2
    norms = ex.model.factor_norms_sq()
    quad_target = -(beta / np.pi) * norms[2] ** 2
    u = np.sqrt(grid.dx) * ex.model.factors[2]
    quad = float(np.real(u @ op.matrix @ u.conj()))
    diff = ex.model.assemble()      # in place: no second N x N temporary
    diff -= op.matrix
    model_err = float(np.max(np.abs(diff, out=diff)))
    strips = strip_product_check(ex.f, ex.g, grid)
    checks = [
        make_check("significant-eigenvalues", rep.numerical_rank, 3, 0.0,
                   mode="exact"),
        bool_check("sign-pattern-plus-plus-minus", (pos, neg) == (2, 1),
                   observed=[pos, neg]),
        make_check("negative-eigenvalue", rep.min_eig, lam_minus_target,
                   _tol(cfg, "eigen", 1e-6), mode="rel"),
        make_check("trace-identity", rep.trace, 2 * (1 + beta) / np.pi,
                   _tol(cfg, "trace", 1e-6), mode="rel"),
        make_check("odd-sector-quadratic-form", quad, quad_target,
                   _tol(cfg, "quadform", 1e-6), mode="rel"),
        make_check("model-vs-kernel-matrix", model_err, 0.0,
                   _tol(cfg, "assembly", 1e-6)),
        make_check("strip-product", strips.product, np.pi / 4,
                   _tol(cfg, "strip", 0.05), mode="rel"),
        bool_check("strip-product-bound", strips.within_bound,
                   observed=strips.product),
    ]
    extras = {"strips": {"f": strips.strip_f, "g": strips.strip_g,
                         "product": strips.product}}
    return checks, extras, _spectral_summary(rep, op.n)


def _run_gamma_recover(cfg, seed):
    p = cfg.get("params", {})
    model = p.get("model", "rank3")
    grid = _grid_from_config(cfg)
    if model == "rank3":
        ex = rank_three_example(p.get("beta", 1.0), grid)
        f, g = ex.f, ex.g
        rank = 3
    elif model == "rank1":
        f, g = rank_one_pair(p.get("alpha", 1.0))
        rank = 1
    else:
        raise ConfigError(f"unknown finite-rank model {model!r}")
    op = build_nystrom_x(f, g, grid)
    probes = default_probes(rank, seed)
    rec = gamma_recover(op, probes)
    checks = [
        make_check("reassembly-max-error", rec.reassembly_max_err, 0.0,
                   _tol(cfg, "reassembly", 1e-5)),
        make_check("probe-set-consistency-angle",
                   rec.cross_consistency_angle, 0.0,
                   _tol(cfg, "angles", 1e-5)),
    ]
    extras = {
        "probes_a": probes.points_a,
        "probes_b": probes.points_b,
        "probe_condition": rec.probe_condition,
    }
    return checks, extras, None


def _run_compose(cfg, seed):
    p = cfg.get("params", {})
    cat = monotone_catalog()
    outer_f, outer_g = cat[p["F"]], cat[p["G"]]
    f, g = _pair(cfg)
    grid = _grid_from_config(cfg)
    rep = composition_positivity_experiment(outer_f, f, outer_g, g, grid)
    checks = [_psd_check(rep, _tol(cfg, "positivity", POSITIVITY_TOL))]
    return checks, {"F": p["F"], "G": p["G"]}, _spectral_summary(rep, grid.n)


def _run_loewner(cfg, seed):
    p = cfg.get("params", {})
    cat = monotone_catalog()
    name = p.get("function")
    if name not in cat:
        raise ConfigError(f"unknown monotone catalog entry {name!r}")
    fn = cat[name]
    orders = p.get("orders", [2, 3, 5])
    trials = p.get("trials", 1000)
    expect_pass = p.get("expect", "pass") == "pass"
    checks = []
    margins = {}
    for i, n in enumerate(orders):
        rep = loewner_matrix_test(fn, n, trials, seed + i)
        margins[str(n)] = rep.worst_margin
        checks.append(bool_check(
            f"order-{n}-{'pass' if expect_pass else 'falsified'}",
            rep.passed == expect_pass,
            observed=rep.worst_margin))
        if not expect_pass:
            checks.append(bool_check(
                f"order-{n}-violation-found-within-100",
                rep.first_violation is not None and rep.first_violation < 100,
                observed=rep.first_violation))
    return checks, {"worst_margins": margins, "trials": trials}, None


def _run_fit_measure(cfg, seed):
    p = cfg.get("params", {})
    fn = function_from_config(cfg["f"])
    alpha = p.get("alpha", np.pi / 2)
    window = p.get("atom_window", 4.0)
    step = p.get("atom_step", 0.1)
    if not _positive_real(step):
        raise ConfigError(
            f"atom_step must be finite and positive, got {step!r}")
    atoms = np.arange(-window, window + step / 2, step)
    fit = fit_tanh_measure(fn, alpha, atoms,
                           membership_tol=_tol(cfg, "membership", 1e-4))
    expect_member = p.get("expect_member", True)
    checks = [bool_check("membership-verdict", fit.member == expect_member,
                         observed=fit.residual)]
    if expect_member:
        checks.append(make_check("fit-residual", fit.residual, 0.0,
                                 _tol(cfg, "residual", 1e-6)))
    extras = {
        "residual": fit.residual,
        "atoms": [{"location": a.location, "weight": a.weight}
                  for a in fit.clusters],
    }
    return checks, extras, None


def _run_deriv_avg(cfg, seed):
    p = cfg.get("params", {})
    g = function_from_config(cfg["g"])
    lat = p.get("lattice", {"lo": -2.0, "hi": 2.0, "n": 17})
    lattice = np.linspace(lat["lo"], lat["hi"], lat["n"])
    r_values = p.get("r_values", [0.2, 0.1, 0.05, 0.025])
    study = convergence_study(g, lattice, r_values)
    slope_lo, slope_hi = p.get("slope_range", [1.8, 2.2])
    checks = [
        make_check("weight-integral", _RULE.weight_integral(),
                   1.0, _tol(cfg, "weight", 1e-10)),
        make_check("convergence-slope", study.slope,
                   0.5 * (slope_lo + slope_hi),
                   0.5 * (slope_hi - slope_lo)),
    ]
    extras = {"convergence": [{"r": float(r), "max_error": float(e)}
                              for r, e in zip(study.r_values,
                                              study.max_errors)],
              "slope": study.slope}
    return checks, extras, None


def _run_strip_check(cfg, seed):
    f, g = _pair(cfg)
    grid = _grid_from_config(cfg)
    ys = cfg.get("params", {}).get("y_values", [0.2, 0.5, 1.0])
    checks = []
    rows = []
    for y in ys:
        res = strip_positivity_check(f, g, y, grid)
        checks.append(make_check(f"strip-identity-residual-y={y}",
                                 res.max_residual, 0.0,
                                 _tol(cfg, "residual", 1e-8)))
        checks.append(bool_check(f"upper-strip-imag-nonneg-y={y}",
                                 res.min_imag >= -1e-12,
                                 observed=res.min_imag))
        rows.append({"y": y, "max_residual": res.max_residual,
                     "min_imag": res.min_imag,
                     "fhat_2iy": res.fhat_at_2iy,
                     "pole_proximity": res.pole_proximity})
    return checks, {"strip_rows": rows}, None


def _run_moment_scan(cfg, seed):
    p = cfg.get("params", {})
    fn = function_from_config(cfg["f"])
    window = p.get("window", 30.0)
    rows = []
    checks = []
    for entry in p.get("b_values", [0.0]):
        if isinstance(entry, dict):
            b, expect = entry["b"], entry.get("expect_diverged")
        else:
            b, expect = entry, None
        res = exp_moment(fn.derivative, b, window)
        rows.append({"b": b, "value": res.value, "diverged": res.diverged})
        if expect is not None:
            checks.append(bool_check(f"divergence-flag-b={b}",
                                     res.diverged == expect,
                                     observed=res.diverged))
    if not checks:
        checks.append(bool_check("moments-computed", True, observed=len(rows)))
    return checks, {"moments": rows}, None


_HANDLERS = {
    "build-kernel": _run_build_kernel,
    "spectrum": _run_spectrum,
    "verify-pair": _run_verify_pair,
    "trace-check": _run_trace_check,
    "rank1": _run_rank1,
    "rank3": _run_rank3,
    "gamma-recover": _run_gamma_recover,
    "compose": _run_compose,
    "loewner-test": _run_loewner,
    "fit-measure": _run_fit_measure,
    "deriv-avg": _run_deriv_avg,
    "strip-check": _run_strip_check,
    "moment-scan": _run_moment_scan,
}
EXPERIMENT_KINDS = tuple(_HANDLERS)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    if cfg.get("schema_version", 1) != 1:
        raise ConfigError(
            f"unsupported schema_version {cfg.get('schema_version')!r}")
    for section in ("grid", "tolerances", "params"):
        if not isinstance(cfg.get(section, {}), dict):
            raise ConfigError(f"field {section!r} must be an object")
    kind = cfg.get("kind")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError(
            f"field 'kind' must be one of {EXPERIMENT_KINDS}, got {kind!r}")
    return cfg


def run(config: dict, seed: int = None, out: str = None) -> dict:
    """Dispatch one experiment config and (optionally) write its report."""
    kind = config["kind"]
    try:
        if seed is None:
            seed = int(config.get("seed", 0))
        t0 = time.perf_counter()
        checks, extras, spectral = _HANDLERS[kind](config, seed)
    except np.linalg.LinAlgError:
        raise           # a ValueError, but a numerical failure
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(
            f"malformed {kind} config: {type(e).__name__}: {e}") from e
    except MemoryError as e:
        raise ConfigError(
            f"{kind} config needs more memory than this machine can "
            f"allocate (grid.N = {config.get('grid', {}).get('N')!r}): "
            f"{e}") from e
    wall = time.perf_counter() - t0
    cfg_echo = dict(config)
    cfg_echo["seed"] = seed
    report = assemble_report(kind, cfg_echo, checks, extras, spectral,
                             wall_seconds=wall, artifact_version=__version__)
    target = out or config.get("out")
    if target:
        write_report(report, target)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="poscomm",
        description="commutator positivity experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config")
    runp.add_argument("--config", required=True)
    runp.add_argument("--out", default=None)
    runp.add_argument("--seed", type=int, default=None)
    plotp = sub.add_parser("plot-data", help="extract a CSV table from a report")
    plotp.add_argument("--report", required=True)
    plotp.add_argument("--what", required=True,
                       choices=["eigenvalues", "kernel-slice",
                                "measure-atoms", "convergence"])
    plotp.add_argument("--out", required=True)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        if args.command == "run":
            config = load_config(args.config)
            report = run(config, seed=args.seed, out=args.out)
            if not (args.out or config.get("out")):
                sys.stdout.write(stable_bytes(report).decode())
            return 0 if report["verdict"] == "pass" else 1
        try:
            with open(args.report) as fh:
                report = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read report: {e}") from e
        emit_plot_data(report, args.what, args.out)
        return 0
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (AccuracyError, TruncationError, DivergenceError,
            FitQualityError, np.linalg.LinAlgError) as e:
        print(f"numerical-accuracy error: {e}", file=sys.stderr)
        return 3
    except PoscommError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
