"""Set-up and the three workloads: corpus, scale-x and routes.

A workload is a list of operations ("cases").  Each case calls poscomm's
public functions, evaluates its own correctness checks and returns the
names of the checks that failed.  Every call into poscomm looks the
function up on its module at call time (``operators.spectrum(...)``), so
the tracer's wrappers are seen.

Why these workloads:

* corpus   - the 26 ``configs/paper`` experiments through ``cli.run``: what
             users run, all 13 kinds, the only workload that exercises cli,
             reporting, monotone, finiterank, averaging and functions fitting.
* scale-x  - the position route on closed-form profiles at N = 1024, 2048,
             4096: the dense O(N^2) build and O(N^3) eigensolve walls, with
             almost no Fourier work.
* routes   - the quadrature profile (complex Hermitian matrix), the
             momentum route and the direct route: the only workload where
             fourier quadrature, build_nystrom_p and build_direct do real work.
"""

from __future__ import annotations

import glob
import hashlib
import os
import random
import time
from dataclasses import dataclass
from typing import Callable, Optional

L = 24.0
SCALE_X_SIZES = (1024, 2048, 4096)
COMPOSED_SIZES = (1024, 2048)
KATO_SIZES = (1024, 2048, 4096)
# Analytic targets hold to ~1e-10 or better at L = 24 on every rung.
ANALYTIC_TOL = 1e-8
PSD_TOL = 1e-10
DIAGONAL_TOL = 1e-8
# cli kinds whose report carries a spectrum: the corpus cases behind solve_s.*
SPECTRAL_KINDS = {"spectrum", "verify-pair", "trace-check", "rank1", "rank3",
                  "compose"}


class Env:
    """poscomm's modules and the loaded paper configs, made by ``setup``."""

    def __init__(self, root: str):
        import numpy as np

        import poscomm
        from poscomm import (cli, finiterank, fourier, functions, grids,
                             monotone, operators, reporting)

        src = os.path.realpath(os.path.join(root, "src"))
        if not os.path.realpath(poscomm.__file__).startswith(src + os.sep):
            raise RuntimeError(f"poscomm was imported from "
                               f"{poscomm.__file__}, not from {src}")
        self.np = np
        self.cli, self.reporting, self.operators = cli, reporting, operators
        self.fourier, self.finiterank = fourier, finiterank
        self.monotone = monotone
        self.functions, self.grids = functions, grids
        paths = sorted(glob.glob(os.path.join(root, "configs", "paper",
                                              "*.json")))
        if not paths:
            raise RuntimeError("no configs under configs/paper")
        self.configs = [(os.path.basename(p)[:-5], cli.load_config(p))
                        for p in paths]


def setup(root: str) -> tuple[Env, float]:
    """Import, load configs and warm up one build plus eigensolve.

    Returns the environment and the seconds it took; the BLAS thread pool
    starts on the warm-up eigensolve.
    """
    t0 = time.perf_counter()
    env = Env(root)
    f, g = env.finiterank.rank_one_pair(1.0)
    op = env.operators.build_nystrom_x(f, g, env.grids.Grid(L, 256))
    if env.operators.spectrum(op).numerical_rank != 1:
        raise RuntimeError("warm-up rank-one operator does not have rank 1")
    return env, time.perf_counter() - t0


@dataclass
class Case:
    name: str
    n: Optional[int]         # grid points; None when the case has no grid
    spectral: bool           # counts towards solve_s.*
    run: Callable[[], list]  # names of failed checks; raises on program error


@dataclass
class Outcome:
    name: str
    n: Optional[int]
    spectral: bool
    seconds: float
    status: str              # "ok" | "wrong" (a check failed) | "raised"
    detail: str = ""

    def as_dict(self) -> dict:
        return dict(self.__dict__)


def run_case(case: Case) -> Outcome:
    t0 = time.perf_counter()
    try:
        failed = case.run()
    # the loop must go on after any program error; the error is the outcome
    except Exception as exc:
        return Outcome(case.name, case.n, case.spectral,
                       time.perf_counter() - t0, "raised",
                       f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - t0
    if failed:
        return Outcome(case.name, case.n, case.spectral, seconds, "wrong",
                       ", ".join(failed))
    return Outcome(case.name, case.n, case.spectral, seconds, "ok")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _failed(checks: dict) -> list:
    return [name for name, ok in checks.items() if not ok]


class Corpus:
    """Every paper config through cli.run, then reporting.stable_bytes.

    The seed only shuffles the config order; each config keeps its own seed.
    A config passes when its verdict is "pass" and its report digest equals
    the digest of the same config in every earlier pass of the run.
    """

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.order = list(env.configs)
        random.Random(seed).shuffle(self.order)
        self.digests: dict[str, str] = {}

    def cases(self) -> list[Case]:
        out = []
        for name, cfg in self.order:
            spectral = cfg["kind"] in SPECTRAL_KINDS
            n = cfg.get("grid", {}).get("N", 2048) if spectral else None
            out.append(Case(name, n, spectral,
                            lambda name=name, cfg=cfg: self._run(name, cfg)))
        return out

    def _run(self, name: str, cfg: dict) -> list:
        report = self.env.cli.run(cfg)
        data = self.env.reporting.stable_bytes(report)
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(name, digest)
        failed = [f"check {c['name']}" for c in report["checks"]
                  if c["verdict"] != "pass"]
        if report["verdict"] != "pass" and not failed:
            failed.append("verdict")
        if digest != first:
            failed.append("stable_bytes differ from an earlier pass")
        return failed


class ScaleX:
    """Position route, closed-form profiles, N = 1024/2048/4096.

    Each rung runs the rank-one pair and the rank-three example through
    fourier_deriv -> build_nystrom_x -> spectrum -> trace_identity_check and
    checks them against their analytic values.  Parameters are drawn from
    the seed, afresh for every case of every pass.  The rank-one shift t1
    stays 0: a nonzero t1 multiplies the kernel by the phase
    exp(-i(y-x)t1), a unitary similarity that keeps every eigenvalue but
    turns the matrix complex, and complex matrices are the routes
    workload's job.
    """

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.rng = env.np.random.default_rng(seed)

    def cases(self) -> list[Case]:
        out = []
        for n in SCALE_X_SIZES:
            alpha = float(self.rng.uniform(0.75, 1.5))
            c1, c2 = (float(v) for v in self.rng.uniform(0.5, 2.0, 2))
            t2 = float(self.rng.uniform(-2.0, 2.0))
            beta = float(self.rng.uniform(0.5, 2.0))
            out.append(Case(f"rank1.n{n}", n, True,
                            lambda n=n, p=(alpha, c1, c2, t2):
                            self._rank1(n, *p)))
            out.append(Case(f"rank3.n{n}", n, True,
                            lambda n=n, b=beta: self._rank3(n, b)))
        return out

    def _solve(self, f, g, grid):
        env = self.env
        profile = env.fourier.fourier_deriv(f, grid)
        op = env.operators.build_nystrom_x(f, g, grid, profile=profile)
        rep = env.operators.spectrum(op)
        tc = env.operators.trace_identity_check(op)
        return op, rep, tc

    def _rank1(self, n, alpha, c1, c2, t2) -> list:
        env = self.env
        f, g = env.finiterank.rank_one_pair(alpha, c1, c2, 0.0, t2)
        op, rep, tc = self._solve(f, g, env.grids.Grid(L, n))
        np = env.np
        return _failed({
            "matrix finite": bool(np.isfinite(op.matrix).all()),
            "eigenvalues finite": bool(np.isfinite(rep.eigenvalues).all()),
            "rank 1": rep.numerical_rank == 1,
            "top eigenvalue 2c1c2/pi":
                _rel(rep.max_eig, 2 * c1 * c2 / np.pi) <= ANALYTIC_TOL,
            "trace identity": tc.rel_error <= ANALYTIC_TOL,
        })

    def _rank3(self, n, beta) -> list:
        env = self.env
        np = env.np
        grid = env.grids.Grid(L, n)
        ex = env.finiterank.rank_three_example(beta, grid)
        op, rep, tc = self._solve(ex.f, ex.g, grid)
        return _failed({
            "matrix finite": bool(np.isfinite(op.matrix).all()),
            "eigenvalues finite": bool(np.isfinite(rep.eigenvalues).all()),
            "sign pattern (2, 1)": rep.sign_pattern() == (2, 1),
            "lambda_minus": _rel(rep.min_eig,
                                 -(beta / np.pi) * (np.pi - 2) / 2)
            <= ANALYTIC_TOL,
            "trace identity": tc.rel_error <= ANALYTIC_TOL,
        })


class Routes:
    """Quadrature profile, momentum route and direct route.

    * composed: (log-shift o tanh(pi/2 .), identity o tanh) takes the
      quadrature profile and yields a complex Hermitian matrix; N = 1024,
      2048; PSD certificate and trace identity.
    * momentum: the Kato pair through build_nystrom_p, spectrum and
      trace_identity_check plus the momentum-diagonal identity; N = 1024,
      2048, 4096.  At N = 4096 the build has NaN entries and spectrum
      raises LinAlgError: the known defect, kept as a failed operation.
    * direct: the Kato pair through build_direct and build_nystrom_x,
      compared by the smeared route_agreement; N = 1024, 2048, 4096.

    The seed shuffles the case order.
    """

    def __init__(self, env: Env, seed: int):
        self.env = env
        self.order = (
            [Case(f"composed.n{n}", n, True, lambda n=n: self._composed(n))
             for n in COMPOSED_SIZES]
            + [Case(f"momentum.n{n}", n, True, lambda n=n: self._momentum(n))
               for n in KATO_SIZES]
            + [Case(f"direct.n{n}", n, True, lambda n=n: self._direct(n))
               for n in KATO_SIZES])
        random.Random(seed).shuffle(self.order)

    def _kato(self):
        tanh = self.env.functions.TanhAffine
        return tanh(rate=self.env.np.pi / 2), tanh(rate=1.0)

    def cases(self) -> list[Case]:
        return self.order

    def _composed(self, n) -> list:
        env = self.env
        np = env.np
        cat = env.monotone.catalog()
        inner_f, inner_g = self._kato()
        f, g = env.monotone.compose_pair(cat["log-shift"], inner_f,
                                         cat["identity"], inner_g)
        grid = env.grids.Grid(L, n)
        profile = env.fourier.fourier_deriv(f, grid)
        op = env.operators.build_nystrom_x(f, g, grid, profile=profile)
        rep = env.operators.spectrum(op)
        tc = env.operators.trace_identity_check(op)
        return _failed({
            "matrix finite": bool(np.isfinite(op.matrix).all()),
            "eigenvalues finite": bool(np.isfinite(rep.eigenvalues).all()),
            "psd certificate":
                rep.min_eig >= -PSD_TOL * max(abs(rep.max_eig), 1e-300),
            "trace identity": tc.rel_error <= ANALYTIC_TOL,
        })

    def _momentum(self, n) -> list:
        env = self.env
        np = env.np
        f, g = self._kato()
        grid = env.grids.Grid(L, n)
        op = env.operators.build_nystrom_p(f, g, grid)
        finite = bool(np.isfinite(op.matrix).all())
        rep = env.operators.spectrum(op)
        tc = env.operators.trace_identity_check(op)
        diag = np.real(np.diag(op.matrix)) / grid.dk
        predicted = (g.variation / (2 * np.pi)) * np.asarray(
            f.derivative(grid.k), dtype=float)
        mask = np.abs(predicted) > 1e-12 * np.max(np.abs(predicted))
        diag_err = float(np.max(np.abs(diag[mask] - predicted[mask])
                                / np.abs(predicted[mask])))
        return _failed({
            "matrix finite": finite,
            "eigenvalues finite": bool(np.isfinite(rep.eigenvalues).all()),
            "trace identity": tc.rel_error <= ANALYTIC_TOL,
            "momentum-diagonal identity": diag_err <= DIAGONAL_TOL,
        })

    def _direct(self, n) -> list:
        env = self.env
        np = env.np
        f, g = self._kato()
        grid = env.grids.Grid(L, n)
        op_d = env.operators.build_direct(f, g, grid)
        op_x = env.operators.build_nystrom_x(f, g, grid)
        ra = env.operators.route_agreement(op_x, op_d)
        return _failed({
            "matrices finite": bool(np.isfinite(op_d.matrix).all()
                                    and np.isfinite(op_x.matrix).all()),
            "smeared route agreement":
                ra.smeared_max_diff <= ANALYTIC_TOL * ra.smeared_scale,
        })


def make_workload(name: str, env: Env, seed: int):
    classes = {"corpus": Corpus, "scale-x": ScaleX, "routes": Routes}
    return classes[name](env, seed)

