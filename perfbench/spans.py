"""Span tracing around poscomm's public entry points, from outside the package.

``Tracer.install`` replaces each traced function in every ``poscomm``
module namespace that binds it (so ``poscomm.cli.build_nystrom_x`` and
``poscomm.monotone.build_nystrom_x`` are both covered) and each traced
method on its class.  Every call then records a span (name, start, end,
parent, operation id, pass) and, for some layers, work counters.
``Tracer.uninstall`` restores the originals.  Spans nest strictly because
the benchmark is single-threaded, so a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

CLI_KINDS = (
    "build-kernel", "spectrum", "verify-pair", "trace-check", "rank1",
    "rank3", "gamma-recover", "compose", "loewner-test", "fit-measure",
    "deriv-avg", "strip-check", "moment-scan",
)

# span name -> per-layer self-time metric
SELF_TIME_METRICS = {
    "fourier.deriv": "fourier.profile_s",
    "fourier.profile": "fourier.profile_s",
    "operators.build_x": "operators.build_x_s",
    "operators.build_p": "operators.build_p_s",
    "operators.build_direct": "operators.build_direct_s",
    "operators.spectrum": "operators.spectrum_s",
    "operators.checks": "operators.checks_s",
    "finiterank.gamma_recover": "finiterank.gamma_recover_s",
    "finiterank.assemble": "finiterank.assemble_s",
    "finiterank.strip_product": "finiterank.strip_product_s",
    "monotone.loewner": "monotone.loewner_s",
    "monotone.compose": "monotone.compose_s",
    "functions.fit_measure": "functions.fit_measure_s",
    "functions.moment": "functions.moment_s",
    "averaging.convergence": "averaging.convergence_s",
    "reporting.serialize": "reporting.serialize_s",
    "cli.run": "cli.self_s",
}

# (metric, unit) in report order; the single-thread baseline and the
# trace overhead are filled in by the runner.
LAYER_METRICS = (
    [("fourier.profile_s", "s"), ("fourier.profile_evals", "count"),
     ("fourier.quadrature_share", "share"),
     ("operators.build_x_s", "s"), ("operators.build_p_s", "s"),
     ("operators.build_direct_s", "s"),
     ("operators.spectrum_s", "s"), ("operators.eig_flops", "flop"),
     ("operators.eig_gflop_s", "GFLOP/s"),
     ("operators.spectrum_s.single_thread", "s"),
     ("operators.spectrum_s.default_threads", "s"),
     ("operators.matrix_bytes", "B"), ("operators.complex_share", "share"),
     ("operators.checks_s", "s"), ("operators.nonfinite_ops", "count"),
     ("operators.linalg_errors", "count"),
     ("finiterank.gamma_recover_s", "s"), ("finiterank.assemble_s", "s"),
     ("finiterank.strip_product_s", "s"),
     ("finiterank.probe_sets_used_share", "share"),
     ("monotone.loewner_s", "s"), ("monotone.loewner_trials", "count"),
     ("monotone.compose_s", "s"),
     ("functions.fit_measure_s", "s"),
     ("functions.fit_atoms_kept_share", "share"),
     ("functions.moment_s", "s"), ("averaging.convergence_s", "s"),
     ("reporting.serialize_s", "s"), ("reporting.report_bytes", "B")]
    + [(f"cli.kind_s.{k}", "s") for k in CLI_KINDS]
    + [("cli.self_s", "s"), ("trace_overhead_share", "share")]
)


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "op", "pass_",
                 "attrs", "child_s")

    def __init__(self, index, name, start, parent, op, pass_):
        self.index = index
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op = op
        self.pass_ = pass_
        self.attrs = None
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


# --- counters recorded at span boundaries ----------------------------------

def _after_profile_eval(tr, span, args, kwargs, result):
    profile, u = args[0], args[1]
    span.attrs = {"route": profile.route}
    tr.count("fourier.profile_evals", int(np.size(u)))


def _after_fourier_deriv(tr, span, args, kwargs, result):
    span.attrs = {"route": result.route}


def _after_build(tr, span, args, kwargs, result):
    m = getattr(result, "matrix", None)
    if not isinstance(m, np.ndarray):
        return
    tr.count("operators.builds", 1)
    tr.count("operators.matrix_bytes", int(m.nbytes))
    tr.count("operators.complex_builds", int(np.iscomplexobj(m)))
    tr.count("operators.nonfinite_ops", int(not np.isfinite(m).all()))


def _count_spectrum(tr, args, kwargs):
    # Householder tridiagonal reduction 4n^3/3 (values only); symmetric QR
    # with vectors about 9n^3 (Golub & Van Loan).  Complex arithmetic costs
    # four real flops per multiply-add.
    op = kwargs["op"] if "op" in kwargs else args[0]
    m = getattr(op, "matrix", None)
    if not isinstance(m, np.ndarray):
        return
    want = kwargs.get("want_vectors", args[3] if len(args) > 3 else False)
    flops = (9.0 if want else 4.0 / 3.0) * float(m.shape[0]) ** 3
    tr.count("operators.eig_flops",
             4.0 * flops if np.iscomplexobj(m) else flops)


def _after_spectrum(tr, span, args, kwargs, result):
    _count_spectrum(tr, args, kwargs)


def _error_spectrum(tr, span, args, kwargs, exc):
    _count_spectrum(tr, args, kwargs)
    if isinstance(exc, np.linalg.LinAlgError):
        tr.count("operators.linalg_errors", 1)


def _error_checks(tr, span, args, kwargs, exc):
    if isinstance(exc, np.linalg.LinAlgError):
        tr.count("operators.linalg_errors", 1)


def _after_gamma(tr, span, args, kwargs, result):
    tr.count("finiterank.probe_sets_tried", 2)
    tr.count("finiterank.probe_sets_used",
             1 if np.isnan(result.cross_consistency_angle) else 2)


def _after_loewner(tr, span, args, kwargs, result):
    tr.count("monotone.loewner_trials", result.trials + result.retries)


def _after_fit(tr, span, args, kwargs, result):
    atoms = np.asarray(kwargs.get("atom_grid", args[2] if len(args) > 2
                                  else ()))
    w = result.measure.weights
    tr.count("functions.fit_atoms", int(atoms.size))
    tr.count("functions.fit_atoms_kept",
             int(np.count_nonzero(w > 1e-12 * max(float(w.sum()), 1e-300))))


def _after_stable_bytes(tr, span, args, kwargs, result):
    tr.count("reporting.report_bytes", len(result))


def _cli_kind(tr, span, args, kwargs, result_or_exc):
    config = kwargs["config"] if "config" in kwargs else args[0]
    span.attrs = {"kind": config.get("kind")}


# (module, attribute, span name, after-hook, error-hook); a dotted attribute
# names a method on a class.
TARGETS = (
    ("poscomm.fourier", "fourier_deriv", "fourier.deriv",
     _after_fourier_deriv, None),
    ("poscomm.fourier", "FourierProfile.real_values", "fourier.profile",
     _after_profile_eval, None),
    ("poscomm.fourier", "FourierProfile.__call__", "fourier.profile",
     _after_profile_eval, None),
    ("poscomm.operators", "build_nystrom_x", "operators.build_x",
     _after_build, None),
    ("poscomm.operators", "build_nystrom_p", "operators.build_p",
     _after_build, None),
    ("poscomm.operators", "build_direct", "operators.build_direct",
     _after_build, None),
    ("poscomm.operators", "spectrum", "operators.spectrum",
     _after_spectrum, _error_spectrum),
    ("poscomm.operators", "trace_identity_check", "operators.checks",
     None, _error_checks),
    ("poscomm.operators", "route_agreement", "operators.checks",
     None, _error_checks),
    ("poscomm.operators", "strip_positivity_check", "operators.checks",
     None, _error_checks),
    ("poscomm.operators", "operator_two_norm", "operators.checks",
     None, _error_checks),
    ("poscomm.operators", "shifted_trace", "operators.checks",
     None, _error_checks),
    ("poscomm.finiterank", "gamma_recover", "finiterank.gamma_recover",
     _after_gamma, None),
    ("poscomm.finiterank", "FiniteRankModel.assemble",
     "finiterank.assemble", None, None),
    ("poscomm.finiterank", "strip_product_check",
     "finiterank.strip_product", None, None),
    ("poscomm.monotone", "loewner_matrix_test", "monotone.loewner",
     _after_loewner, None),
    ("poscomm.monotone", "compose_pair", "monotone.compose", None, None),
    ("poscomm.monotone", "composition_positivity_experiment",
     "monotone.compose", None, None),
    ("poscomm.functions", "fit_tanh_measure", "functions.fit_measure",
     _after_fit, None),
    ("poscomm.functions", "exp_moment", "functions.moment", None, None),
    ("poscomm.averaging", "convergence_study", "averaging.convergence",
     None, None),
    ("poscomm.reporting", "assemble_report", "reporting.serialize",
     None, None),
    ("poscomm.reporting", "stable_bytes", "reporting.serialize",
     _after_stable_bytes, None),
    ("poscomm.cli", "run", "cli.run", _cli_kind, _cli_kind),
)


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None
        self.pass_ = None
        # pass -> counter name -> value
        self.counters = defaultdict(lambda: defaultdict(float))
        self.missing: list[str] = []
        self._patches = []

    def count(self, name: str, value):
        self.counters[self.pass_][name] += value

    def _open(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(len(self.spans), name, time.perf_counter(),
                    parent.index if parent is not None else None,
                    self.op, self.pass_)
        self.spans.append(span)
        self.stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_s += span.duration

    def _wrap(self, fn, name, after, on_error):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(span)
                if on_error is not None:
                    on_error(tracer, span, args, kwargs, exc)
                raise
            tracer._close(span)
            if after is not None:
                after(tracer, span, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Patch every target; a target the program no longer has is listed
        in ``missing`` and its layer reads zero."""
        self.missing = []
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "poscomm"
                                         or k.startswith("poscomm."))]
        for mod_name, attr, name, after, on_error in TARGETS:
            owner = sys.modules.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name, None)
                orig = None if cls is None else cls.__dict__.get(meth)
                if orig is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                setattr(cls, meth, self._wrap(orig, name, after, on_error))
                self._patches.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapped = self._wrap(orig, name, after, on_error)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._patches.append((mod, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # --- derived metrics ----------------------------------------------------

    def pass_metrics(self, pass_: int) -> dict:
        """Per-layer metrics of one traced pass, without the runner's."""
        spans = [s for s in self.spans if s.pass_ == pass_]
        c = self.counters[pass_]
        out = {m: 0.0 for m, _ in LAYER_METRICS}
        quad_s = 0.0
        for s in spans:
            metric = SELF_TIME_METRICS.get(s.name)
            if metric is not None:
                out[metric] += s.self_s
            if s.name.startswith("fourier.") and s.attrs \
                    and s.attrs.get("route") == "fft":
                quad_s += s.self_s
            if s.name == "cli.run" and s.attrs:
                key = f"cli.kind_s.{s.attrs['kind']}"
                if key in out:
                    out[key] += s.duration
        out["fourier.profile_evals"] = c["fourier.profile_evals"]
        out["fourier.quadrature_share"] = _share(quad_s,
                                                 out["fourier.profile_s"])
        out["operators.eig_flops"] = c["operators.eig_flops"]
        out["operators.eig_gflop_s"] = _share(
            c["operators.eig_flops"], out["operators.spectrum_s"]) / 1e9
        out["operators.matrix_bytes"] = c["operators.matrix_bytes"]
        out["operators.complex_share"] = _share(c["operators.complex_builds"],
                                                c["operators.builds"])
        out["operators.nonfinite_ops"] = c["operators.nonfinite_ops"]
        out["operators.linalg_errors"] = c["operators.linalg_errors"]
        out["finiterank.probe_sets_used_share"] = _share(
            c["finiterank.probe_sets_used"], c["finiterank.probe_sets_tried"])
        out["monotone.loewner_trials"] = c["monotone.loewner_trials"]
        out["functions.fit_atoms_kept_share"] = _share(
            c["functions.fit_atoms_kept"], c["functions.fit_atoms"])
        out["reporting.report_bytes"] = c["reporting.report_bytes"]
        return out

    def accounting(self, pass_: int, wall_s: float) -> dict:
        """Top-level spans of one pass plus the remainder: its wall time."""
        top = [s for s in self.spans if s.pass_ == pass_ and s.parent is None]
        by_layer = defaultdict(float)
        for s in top:
            by_layer[s.name] += s.duration
        top_s = sum(by_layer.values())
        return {"pass": pass_, "wall_s": wall_s, "top_level_s": top_s,
                "remainder_s": wall_s - top_s,
                "top_level_by_layer_s": dict(by_layer)}

    def dump(self, t0: float) -> list[dict]:
        return [{"id": s.index, "name": s.name, "op": s.op, "pass": s.pass_,
                 "parent": s.parent, "start_s": s.start - t0,
                 "end_s": s.end - t0, "self_s": s.self_s,
                 **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]


def _share(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0
