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
import inspect
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
    _FIT_SAMPLES,
    exp_moment,
    fit_tanh_measure,
    function_from_samples,
)
from .grids import ARRAY_BUDGET, Grid
from .monotone import catalog as monotone_catalog
from .monotone import composition_positivity_experiment
from .monotone import LOEWNER_TOL, loewner_certificate
from .operators import (
    HERMITICITY_TOL,
    POSITIVITY_TOL,
    _probe_bound,
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
    record,
    stable_bytes,
    write_report,
)


def _only(section: dict, keys, where: str) -> None:
    """ConfigError naming the first key of ``section`` not in ``keys``:
    a mistyped key would leave its default in force without a word."""
    for key in section:
        if key not in keys:
            raise ConfigError(f"unknown key {key!r} in {where}; it reads "
                              f"{', '.join(keys) or 'no key'}")


def _call(fn, params: dict, where: str, *args):
    """``fn(*args, **params)``: each key of ``params`` is one of ``fn``'s
    keywords, which name and default every input once; one without a
    default must be set.  A ``fn`` that takes ``**`` passes the keys it
    does not name on to its own call.  A JSON true or false is read only
    where the default is a boolean or None (an optional flag): elsewhere
    it would run as 1 or 0."""
    if not isinstance(params, dict):
        raise ConfigError(f"{where} must be an object, got {params!r}")
    keywords = list(inspect.signature(fn).parameters.values())[len(args):]
    named = [p for p in keywords if p.kind is not p.VAR_KEYWORD]
    if len(named) == len(keywords):
        _only(params, tuple(p.name for p in named), where)
    for p in named:
        if p.default is p.empty and p.name not in params:
            raise ConfigError(f"missing key {p.name!r} in {where}")
        if (type(params.get(p.name)) is bool and p.default is not None
                and type(p.default) is not bool):
            raise ConfigError(f"{p.name} in {where} must not be true or "
                              "false")
    return fn(*args, **params)


def _holds_bool(v) -> bool:
    """A JSON true or false in the list v or the lists nested in it: as a
    number it would run as 1 or 0."""
    return isinstance(v, list) and any(type(x) is bool or _holds_bool(x)
                                       for x in v)


def _tanh_measure(atoms, offset=0.0, alpha=np.pi / 2) -> TanhMeasure:
    """A tanh measure from its atoms, a list of [location, weight] pairs."""
    if _holds_bool(atoms):
        raise ConfigError("params.atoms must not hold true or false")
    atoms = np.asarray(atoms, dtype=float)
    if atoms.ndim != 2 or atoms.shape[0] < 1 or atoms.shape[1] != 2:
        raise ConfigError(
            "params.atoms must be a non-empty list of [location, "
            f"weight] pairs, got shape {atoms.shape}")
    return TanhMeasure(atoms[:, 0], atoms[:, 1], offset=offset, alpha=alpha)


# each catalog name and the constructor whose keywords are its params
_CATALOG = {
    "tanh-affine": TanhAffine,
    "arctan-affine": ArctanAffine,
    "sine": Sine,
    "constant": Constant,
    "tanh-measure": _tanh_measure,
    "sum": lambda terms: FunctionSum([function_from_config(t)
                                      for t in terms]),
}


def function_from_config(desc: dict) -> RealFunction:
    if not isinstance(desc, dict):
        raise ConfigError("function descriptor must be an object")
    if "samples" in desc:
        _only(desc, ("samples",), "a function descriptor")
        try:
            return function_from_samples(desc["samples"])
        except (OSError, ValueError) as e:
            raise ConfigError(f"bad sample file {desc['samples']}: {e}") from e
    _only(desc, ("catalog", "params"), "a function descriptor")
    name = desc.get("catalog")
    if name not in _CATALOG:
        raise ConfigError(f"unknown catalog function {name!r}")
    return _call(_CATALOG[name], desc.get("params", {}), f"{name} params")


def _positive_real(v) -> bool:
    """A JSON number above 0: not a boolean, NaN or Infinity."""
    return type(v) in (int, float) and 0 < v <= sys.float_info.max


def _flag(v, name: str) -> bool:
    """A JSON true or false; the string "false" is neither."""
    if type(v) is not bool:
        raise ConfigError(f"{name} must be true or false, got {v!r}")
    return v


def _grid(L=24.0, N=2048) -> Grid:
    """The grid section: N a power of two, L with a finite (2L)^2, the
    largest phase u t a Fourier transform over the window reads (a
    quadrature profile's sample step is read off it)."""
    if not isinstance(N, int) or N < 8 or (N & (N - 1)) != 0:
        raise ConfigError(f"grid.N must be a power of two >= 8, got {N!r}")
    if not (_positive_real(L) and (2.0 * L) * (2.0 * L) < np.inf):
        raise ConfigError(f"grid.L must be finite and positive, with a "
                          f"finite (2L)^2, got {L!r}")
    return Grid(float(L), N)


def _grid_from_config(cfg: dict) -> Grid:
    return _call(_grid, cfg.get("grid", {}), "grid")


def _pair(cfg: dict):
    return function_from_config(cfg["f"]), function_from_config(cfg["g"])


def _operator(cfg: dict, route: str = None):
    """The config's pair built on its grid by ``route``, by default the
    config's own ``route``, the position route if it names none."""
    if route is None:
        route = cfg.get("route", "nystrom-x")
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


def _hermiticity_check(op) -> dict:
    """The raw matrix's Hermiticity defect against HERMITICITY_TOL*max|K|."""
    return make_check("hermiticity-defect", op.hermiticity_defect, 0.0,
                      HERMITICITY_TOL * max(op.max_abs, 1e-300))


def _psd_check(rep) -> dict:
    """The certified positivity margin ``psd_error``; the verdict is
    ``rep.positive``."""
    return record("psd-certificate", rep.min_eig, 0.0, rep.psd_error,
                  POSITIVITY_TOL, rep.positive)


def _trace_check(op) -> dict:
    """tr K against [f][g]/(2*pi), or exactly 0 on the direct route."""
    if op.route == "direct":
        return make_check("direct-trace-zero", op.trace(), 0.0, 0.0,
                          mode="exact")
    tc = trace_identity_check(op)
    return record("trace-identity", tc.lhs, tc.rhs, tc.rel_error, 1e-6,
                  tc.rel_error <= 1e-6)


def _run_build_kernel(cfg):
    expect_zero = _flag(cfg.get("expect_zero", False), "expect_zero")
    op = _operator(cfg)
    checks = [_hermiticity_check(op)]
    if op.route == "direct":
        checks.append(_trace_check(op))
        if expect_zero:
            # a bound on ||K||_2, K applied by FFT
            bound = _probe_bound(op)
            checks.append(make_check("operator-norm-bound", bound, 0.0,
                                     1e-8))
    mid = op.grid.index_of(0.0)
    step = op.grid.dk if op.route == "nystrom-p" else op.grid.dx
    extras = {
        "kernel_slice": {
            "coordinates": op.coords,
            "values": op._rows(mid, np.empty((1, op.n), op.dtype))[0] / step,
        },
        "route": op.route,
    }
    return checks, extras, None


def _run_spectrum(cfg):
    op = _operator(cfg)
    rep = spectrum(op)
    checks = [_trace_check(op)]
    return checks, {"route": op.route}, _spectral_summary(rep, op.n)


def _run_verify_pair(cfg):
    op = _operator(cfg)
    rep = spectrum(op)
    checks = [_psd_check(rep), _trace_check(op),
              _hermiticity_check(op)]
    return checks, {}, _spectral_summary(rep, op.n)


def _run_trace_check(cfg):
    op_x = _operator(cfg)
    op_p = _operator(cfg, "nystrom-p")
    f, g, grid = op_p.f, op_p.g, op_p.grid
    diag = op_p._factors.d / grid.dk
    fp = np.asarray(f.derivative(grid.k), dtype=float)
    predicted = (g.variation / (2 * np.pi)) * fp
    peak = np.max(np.abs(predicted))
    if peak > 1e-12:
        mask = np.abs(predicted) > 1e-12 * peak
        diag_err = float(np.max(np.abs(diag[mask] - predicted[mask])
                                / np.abs(predicted[mask])))
    else:   # absolute where the prediction vanishes, as for the trace
        diag_err = float(np.max(np.abs(diag - predicted)))
    rx, rp = spectrum(op_x), spectrum(op_p)
    checks = [
        {**_trace_check(op_x), "name": "trace-identity-x"},
        {**_trace_check(op_p), "name": "trace-identity-p"},
        make_check("momentum-diagonal-identity", diag_err, 0.0, 1e-8),
        make_check("fourier-symmetry-top-eigenvalue", rp.max_eig, rx.max_eig,
                   1e-6, mode="rel"),
    ]
    return checks, {}, _spectral_summary(rx, op_x.n)


def _run_rank1(cfg, alpha=1.0, c1=1.0, c2=1.0, t1=0.0, t2=0.0, d1=0.0,
               d2=0.0):
    f, g = rank_one_pair(alpha, c1, c2, t1, t2, d1, d2)
    grid = _grid_from_config(cfg)
    op = build_nystrom_x(f, g, grid)
    rep = spectrum(op)
    lam_target = 2.0 * c1 * c2 / np.pi
    checks = [
        make_check("numerical-rank", rep.numerical_rank, 1, 0.0, mode="exact"),
        make_check("top-eigenvalue", rep.max_eig, lam_target, 1e-4),
        _psd_check(rep),
        _trace_check(op),
    ]
    return checks, {}, _spectral_summary(rep, op.n)


def _run_rank3(cfg, beta=1.0):
    grid = _grid_from_config(cfg)
    ex = rank_three_example(beta, grid)
    op = build_nystrom_x(ex.f, ex.g, grid)
    rep = spectrum(op)
    pos, neg = rep.sign_pattern()
    lam_minus_target = -(beta / np.pi) * (np.pi - 2) / 2
    norms = ex.model.factor_norms_sq()
    quad_target = -(beta / np.pi) * norms[2] ** 2
    u = np.sqrt(grid.dx) * ex.model.factors[2]
    # u^T K u from one Toeplitz column
    quad = float(op._rayleigh(u[:, None])[0, 0].real)
    strips = strip_product_check(ex.f, ex.g, grid)
    checks = [
        make_check("significant-eigenvalues", rep.numerical_rank, 3, 0.0,
                   mode="exact"),
        bool_check("sign-pattern-plus-plus-minus", (pos, neg) == (2, 1),
                   observed=[pos, neg]),
        make_check("negative-eigenvalue", rep.min_eig, lam_minus_target,
                   1e-6, mode="rel"),
        _trace_check(op),
        make_check("odd-sector-quadratic-form", quad, quad_target,
                   1e-6, mode="rel"),
        make_check("model-vs-kernel-norm", ex.model.error_bound(op), 0.0,
                   1e-6),
        make_check("strip-product", strips.product, np.pi / 4,
                   0.05, mode="rel"),
        bool_check("strip-product-bound", strips.within_bound,
                   observed=strips.product),
    ]
    extras = {"strips": {"f": strips.strip_f, "g": strips.strip_g,
                         "product": strips.product}}
    return checks, extras, _spectral_summary(rep, op.n)


def _gamma_rank3(grid, beta=1.0):
    ex = rank_three_example(beta, grid)
    return ex.f, ex.g, 3


# gamma-recover's models: each returns (f, g, rank), its params keywords
_MODELS = {"rank3": _gamma_rank3,
           "rank1": lambda grid, alpha=1.0: (*rank_one_pair(alpha), 1)}


def _run_gamma_recover(cfg, model="rank3", **params):
    if model not in _MODELS:
        raise ConfigError(f"unknown finite-rank model {model!r}")
    grid = _grid_from_config(cfg)
    f, g, rank = _call(_MODELS[model], params,
                       f"gamma-recover {model} params", grid)
    op = build_nystrom_x(f, g, grid)
    probes = default_probes(rank, cfg["seed"])
    rec = gamma_recover(op, probes)
    checks = [
        make_check("reassembly-norm-bound", rec.reassembly_norm_bound, 0.0,
                   1e-5),
        make_check("probe-set-consistency-angle",
                   rec.cross_consistency_angle, 0.0, 1e-5),
    ]
    extras = {
        "probes_a": rec.nodes_a,
        "probes_b": rec.nodes_b,
        "probe_condition": rec.probe_condition,
    }
    return checks, extras, None


def _monotone(name):
    """The monotone catalog's entry ``name``."""
    cat = monotone_catalog()
    if name not in cat:
        raise ConfigError(f"unknown monotone catalog entry {name!r}")
    return cat[name]


def _run_compose(cfg, F, G):
    outer_f, outer_g = _monotone(F), _monotone(G)
    f, g = _pair(cfg)
    grid = _grid_from_config(cfg)
    rep = composition_positivity_experiment(outer_f, f, outer_g, g, grid)
    checks = [_psd_check(rep)]
    return checks, {"F": F, "G": G}, _spectral_summary(rep, grid.n)


def _run_loewner(cfg, function, expect="pass", orders=(2, 3, 5)):
    fn = _monotone(function)
    if expect not in ("pass", "fail"):
        raise ConfigError("params.expect must be \"pass\" or \"fail\"")
    cert = loewner_certificate(fn, orders)
    passing = expect == "pass"
    # pass: every margin >= -LOEWNER_TOL; fail: each one below it, and a
    # 2-node witness that falsifies every order >= 2 at once
    rows = [(f"order-{n}", m) for n, m in cert.margins.items()]
    rows.append(("all-orders", cert.all_orders_margin) if passing
                else ("two-node-witness", cert.witness_det))
    checks = [bool_check(f"{label}-{'pass' if passing else 'falsified'}",
                         (value >= -LOEWNER_TOL) == passing,
                         observed=value) for label, value in rows]
    return checks, cert._asdict(), None


def _run_fit_measure(cfg, alpha=np.pi / 2, atom_window=4.0, atom_step=0.1,
                     expect_member=True):
    fn = function_from_config(cfg["f"])
    if not _positive_real(atom_step):
        raise ConfigError(
            f"atom_step must be finite and positive, got {atom_step!r}")
    lo, hi = -atom_window, atom_window + atom_step / 2
    # np.arange's own count, taken before it allocates
    count = np.ceil((hi - lo) / atom_step)
    if not count * _FIT_SAMPLES * 8 <= ARRAY_BUDGET:
        raise ConfigError(
            f"params.atom_window = {atom_window!r} and params.atom_step = "
            f"{atom_step!r} ask for {count:.4g} atoms: the fit's "
            f"{_FIT_SAMPLES} x {count:.4g} design matrix would exceed "
            f"{ARRAY_BUDGET} bytes")
    fit = fit_tanh_measure(fn, alpha, np.arange(lo, hi, atom_step))
    expect_member = _flag(expect_member, "expect_member")
    checks = [bool_check("membership-verdict", fit.member == expect_member,
                         observed=fit.residual)]
    if expect_member:
        checks.append(make_check("fit-residual", fit.residual, 0.0, 1e-6))
    extras = {
        "residual": fit.residual,
        "atoms": [{"location": a.location, "weight": a.weight}
                  for a in fit.clusters],
    }
    return checks, extras, None


# the slope window of convergence-slope: a smooth g converges at r^2
_SLOPE_WINDOW = (1.8, 2.2)


def _lattice(lo, hi, n):
    """np.linspace(lo, hi, n), for finite lo and hi and n points within
    ARRAY_BUDGET, checked before it allocates."""
    if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max
               for v in (lo, hi)):
        raise ConfigError(f"params.lattice.lo and hi must be finite "
                          f"numbers, got {lo!r}, {hi!r}")
    if not n * 8 <= ARRAY_BUDGET:
        raise ConfigError(f"params.lattice.n = {n!r} points would exceed "
                          f"{ARRAY_BUDGET} bytes")
    return np.linspace(lo, hi, n)


def _run_deriv_avg(cfg, lattice={"lo": -2.0, "hi": 2.0, "n": 17},
                   r_values=(0.2, 0.1, 0.05, 0.025)):
    g = function_from_config(cfg["g"])
    if _holds_bool(r_values):
        raise ConfigError("params.r_values must not hold true or false")
    points = _call(_lattice, lattice, "params.lattice")
    study = convergence_study(g, points, r_values)
    lo, hi = _SLOPE_WINDOW
    checks = [
        make_check("weight-integral", _RULE.weight_integral(), 1.0, 1e-10),
        make_check("convergence-slope", study.slope, 0.5 * (lo + hi),
                   0.5 * (hi - lo)),
    ]
    extras = {"convergence": [{"r": float(r), "max_error": float(e)}
                              for r, e in zip(study.r_values,
                                              study.max_errors)],
              "slope": study.slope}
    return checks, extras, None


def _run_strip_check(cfg, y_values=(0.2, 0.5, 1.0)):
    f, g = _pair(cfg)
    grid = _grid_from_config(cfg)
    for y in y_values:
        if not _positive_real(y):
            raise ConfigError(
                f"params.y_values entries must be finite and positive, "
                f"got {y!r}")
    checks, rows = [], []
    for y in y_values:
        res = strip_positivity_check(f, g, y, grid)
        checks.append(make_check(f"strip-identity-residual-y={y}",
                                 res.max_residual, 0.0, 1e-8))
        checks.append(bool_check(f"upper-strip-imag-nonneg-y={y}",
                                 res.min_imag >= -1e-12,
                                 observed=res.min_imag))
        rows.append({"y": y, "max_residual": res.max_residual,
                     "min_imag": res.min_imag,
                     "fhat_2iy": res.fhat_at_2iy,
                     "pole_proximity": res.pole_proximity})
    return checks, {"strip_rows": rows}, None


def _b_value(b, expect_diverged=None):
    """A moment-scan b and the divergence verdict it expects, if any."""
    if expect_diverged is not None:
        _flag(expect_diverged, "expect_diverged")
    return b, expect_diverged


def _run_moment_scan(cfg, window=30.0, b_values=()):
    fn = function_from_config(cfg["f"])
    rows, checks = [], []
    for entry in b_values:
        b, expect = _call(_b_value, entry if isinstance(entry, dict)
                          else {"b": entry}, "a b_values entry")
        res = exp_moment(fn.derivative, b, window)
        # an overflowed moment is written null, not as JSON's Infinity
        value = res.value if np.isfinite(res.value) else None
        rows.append({"b": b, "value": value, "diverged": res.diverged})
        if expect is not None:
            checks.append(bool_check(f"divergence-flag-b={b}",
                                     res.diverged == expect,
                                     observed=res.diverged))
    return checks, {"moments": rows}, None


# each kind: its handler, whose keywords are its params, and the keys it
# reads at the top level besides schema_version, kind, seed and out
_KINDS = {
    "build-kernel": (_run_build_kernel, "f g grid route expect_zero"),
    "spectrum": (_run_spectrum, "f g grid route"),
    "verify-pair": (_run_verify_pair, "f g grid"),
    "trace-check": (_run_trace_check, "f g grid"),
    "rank1": (_run_rank1, "grid params"),
    "rank3": (_run_rank3, "grid params"),
    "gamma-recover": (_run_gamma_recover, "grid params"),
    "compose": (_run_compose, "f g grid params"),
    "loewner-test": (_run_loewner, "params"),
    "fit-measure": (_run_fit_measure, "f params"),
    "deriv-avg": (_run_deriv_avg, "g params"),
    "strip-check": (_run_strip_check, "f g grid params"),
    "moment-scan": (_run_moment_scan, "f params"),
}
EXPERIMENT_KINDS = tuple(_KINDS)

# keys once read, refused by name: at the top level or "<kind> params.<key>"
_RETIRED = {
    "tolerances": "field 'tolerances' is gone: each check carries its own "
                  "tolerance",
    "loewner-test params.trials":
        "params.trials is gone: the certificate is exact",
    "deriv-avg params.slope_range": "params.slope_range is gone: the slope "
                                    f"window is fixed at {_SLOPE_WINDOW}",
}


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
    version = cfg.get("schema_version", 1)
    if type(version) is not int or version != 1:    # bool subclasses int
        raise ConfigError(f"unsupported schema_version {version!r}")
    for section in ("grid", "params"):
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
        params = config.get("params", {})
        for key in [*config, *(f"{kind} params.{k}" for k in params)]:
            if key in _RETIRED:
                raise ConfigError(_RETIRED[key])
        handler, top = _KINDS[kind]
        _only(config, ["schema_version", "kind", "seed", "out", *top.split()],
              f"a {kind} config")
        if seed is None:
            seed = config.get("seed", 0)
            if type(seed) is not int:       # bool subclasses int
                raise ConfigError(f"seed must be an integer, got {seed!r}")
        config = {**config, "seed": seed}
        t0 = time.perf_counter()
        checks, extras, spectral = _call(handler, params, f"{kind} params",
                                         config)
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
    if not checks:
        raise ConfigError(f"{kind} config asks for no checks")
    report = assemble_report(kind, config, checks, extras, spectral,
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
