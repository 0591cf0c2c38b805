"""Matrix monotone functions: catalog, Loewner order test, compositions.

A function F on an open interval I is matrix monotone when A >= B (both
self-adjoint with spectra in I) implies F(A) >= F(B).  Composing a
positive-commutator pair (f, g) with matrix monotone (F, G) whose domains
contain the closures of the ranges preserves positivity, and the test
below is the falsification tool: random A >= B with spectra in I (B
drawn with a known eigendecomposition, A = B + PSD kept inside I by
Weyl's inequality), matrix functions through the eigendecompositions,
verdict on the smallest eigenvalue of F(A) - F(B).

Catalog honesty note: tanh and arctan are Herglotz on a strip (they
generate positive commutators) but are provably not matrix monotone even
at 2x2 -- the 2-point Loewner determinant f'(x) f'(y) - f[x,y]^2 is
negative for every x != y in the tanh case since sinh(u)/u > 1.  They are
catalogued with ``claimed_monotone=False`` and the order test finds the
violations immediately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ContainmentError
from .functions import RealFunction
from .grids import Grid
from .operators import SpectralReport, build_nystrom_x, spectrum

__all__ = [
    "MonotoneFunction",
    "catalog",
    "claimed_monotone_entries",
    "loewner_matrix_test",
    "LoewnerReport",
    "compose_pair",
    "ComposedFunction",
    "composition_positivity_experiment",
]


@dataclass(frozen=True)
class MonotoneFunction:
    name: str
    domain: tuple[float, float]          # open interval
    func: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    claimed_monotone: bool               # matrix monotone (all orders)
    test_interval: tuple[float, float]   # Loewner test's I: bounded, in domain
    scalar_increasing: bool = True


def catalog() -> dict[str, MonotoneFunction]:
    inf = np.inf
    entries = [
        MonotoneFunction("affine", (-inf, inf),
                         lambda v: 0.7 * v + 0.3, lambda v: 0.7 + 0 * v,
                         True, test_interval=(-4.0, 4.0)),
        MonotoneFunction("sqrt", (0.0, inf),
                         np.sqrt, lambda v: 0.5 / np.sqrt(v),
                         True, test_interval=(0.1, 4.0)),
        MonotoneFunction("power-third", (0.0, inf),
                         lambda v: v ** (1.0 / 3.0),
                         lambda v: (1.0 / 3.0) * v ** (-2.0 / 3.0),
                         True, test_interval=(0.1, 4.0)),
        MonotoneFunction("power-half", (0.0, inf),
                         lambda v: v ** 0.5, lambda v: 0.5 * v ** (-0.5),
                         True, test_interval=(0.1, 4.0)),
        MonotoneFunction("power-three-quarter", (0.0, inf),
                         lambda v: v ** 0.75, lambda v: 0.75 * v ** (-0.25),
                         True, test_interval=(0.1, 4.0)),
        MonotoneFunction("log-shift", (-2.0, inf),
                         lambda v: np.log(v + 2.0), lambda v: 1.0 / (v + 2.0),
                         True, test_interval=(-1.5, 4.0)),
        MonotoneFunction("neg-inverse", (0.0, inf),
                         lambda v: -1.0 / v, lambda v: 1.0 / v ** 2,
                         True, test_interval=(0.1, 4.0)),
        MonotoneFunction("neg-inverse-shift", (-2.0, inf),
                         lambda v: -1.0 / (v + 2.0),
                         lambda v: 1.0 / (v + 2.0) ** 2,
                         True, test_interval=(-1.5, 4.0)),
        MonotoneFunction("sqrt-shift", (-2.0, inf),
                         lambda v: np.sqrt(v + 2.0),
                         lambda v: 0.5 / np.sqrt(v + 2.0),
                         True, test_interval=(-1.5, 4.0)),
        MonotoneFunction("moebius", (-3.0, inf),
                         lambda v: (2.0 * v + 1.0) / (v + 3.0),
                         lambda v: 5.0 / (v + 3.0) ** 2,
                         True, test_interval=(-2.0, 4.0)),
        # strip-Herglotz, not matrix monotone (see module docstring)
        MonotoneFunction("tanh", (-inf, inf),
                         np.tanh, lambda v: 1.0 / np.cosh(v) ** 2,
                         False, test_interval=(-2.0, 2.0)),
        MonotoneFunction("arctan", (-inf, inf),
                         np.arctan, lambda v: 1.0 / (1.0 + v ** 2),
                         False, test_interval=(-2.0, 2.0)),
        # non-monotone controls
        MonotoneFunction("square", (0.0, 2.0),
                         lambda v: v ** 2, lambda v: 2.0 * v,
                         False, test_interval=(1e-6, 2.0)),
        MonotoneFunction("square-wide", (-2.0, 2.0),
                         lambda v: v ** 2, lambda v: 2.0 * v,
                         False, scalar_increasing=False,
                         test_interval=(-2.0, 2.0)),
        MonotoneFunction("identity", (-inf, inf),
                         lambda v: v, lambda v: 1.0 + 0 * v,
                         True, test_interval=(-4.0, 4.0)),
    ]
    return {e.name: e for e in entries}


def claimed_monotone_entries() -> list[MonotoneFunction]:
    return [e for e in catalog().values() if e.claimed_monotone]


class LoewnerReport(NamedTuple):
    passed: bool
    worst_margin: float        # min over trials of min-eig / scale
    first_violation: Optional[int]
    violations: int
    trials: int
    retries: int               # always 0; kept for perfbench/spans.py


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def loewner_matrix_test(fn: MonotoneFunction, n: int, trials: int,
                        seed: int) -> LoewnerReport:
    """Randomized search for violations of A >= B  =>  F(A) >= F(B).

    B = Q diag(eb) Q^T with a random orthogonal Q and eb drawn from I less
    a 5% margin at each end, so F(B) = Q diag(F(eb)) Q^T.  The PSD update
    C = R R^T is scaled to ||s C|| <= room, the gap between max(eb) and the
    top of that margin, so by Weyl's inequality the spectrum of A = B + s C
    lies in [min(eb), max(eb) + room], inside I, and no draw is rejected
    (``retries`` is always 0).  Each trial records the smallest eigenvalue
    of F(A) - F(B) divided by the result scale; pass means no trial fell
    below -1e-10.
    """
    if n < 2:
        raise ValueError("matrix order must be at least 2")
    if type(trials) is not int or trials < 1:     # bool subclasses int
        raise ValueError(f"trials must be a positive integer, got {trials!r}")
    rng = np.random.default_rng(seed)
    lo, hi = fn.test_interval
    margin = 0.05 * (hi - lo)
    worst = np.inf
    first = None
    violations = 0
    for t in range(trials):
        q = _random_orthogonal(rng, n)
        eb = rng.uniform(lo + margin, hi - margin, n)
        b = (q * eb) @ q.T
        r = rng.standard_normal((n, n))
        c = r @ r.T
        room = (hi - margin) - eb.max()
        s = rng.uniform(0.05, 1.0) * room / np.linalg.norm(c, 2)
        ea, va = np.linalg.eigh(b + s * c)
        fea, feb = fn.func(ea), fn.func(eb)
        dmin = float(np.linalg.eigvalsh((va * fea) @ va.T
                                        - (q * feb) @ q.T)[0])
        scale = max(np.max(np.abs(fea)), np.max(np.abs(feb)), 1e-300)
        normed = dmin / scale
        worst = min(worst, normed)
        if normed < -1e-10:
            violations += 1
            if first is None:
                first = t
    return LoewnerReport(violations == 0, float(worst), first, violations,
                         trials, 0)


class ComposedFunction(RealFunction):
    """F composed with a bounded catalog function; derivative by chain rule."""

    def __init__(self, outer: MonotoneFunction, inner: RealFunction):
        lo, hi = _range_closure(inner)
        dlo, dhi = outer.domain
        if not (lo > dlo and hi < dhi):
            offending = lo if lo <= dlo else hi
            raise ContainmentError(
                f"range endpoint {offending:.6g} of the inner function is "
                f"not inside the domain ({dlo:.6g}, {dhi:.6g}) of "
                f"{outer.name}")
        self.outer = outer
        self.inner = inner
        self.monotone = outer.scalar_increasing and inner.monotone
        if inner.limits is not None:
            a = float(outer.func(np.asarray(inner.limits[0])))
            b = float(outer.func(np.asarray(inner.limits[1])))
            self.limits = (a, b) if a <= b else (b, a)
        self.strip_half_width = 0.0    # real-axis object; transforms go FFT route

    def _eval_real(self, t):
        return self.outer.func(np.asarray(self.inner(t), dtype=float))

    def derivative(self, t):
        iv = np.asarray(self.inner(t), dtype=float)
        return self.outer.deriv(iv) * np.asarray(self.inner.derivative(t),
                                                 dtype=float)


def _range_closure(fn: RealFunction) -> tuple[float, float]:
    if fn.limits is not None and fn.monotone:
        return min(fn.limits), max(fn.limits)
    t = np.linspace(-64.0, 64.0, 20001)
    v = np.asarray(fn(t), dtype=float)
    return float(v.min()), float(v.max())


def _compose_one(outer: MonotoneFunction, inner: RealFunction) -> RealFunction:
    if outer.name == "identity":
        # exact: keeps closed-form transforms available downstream
        lo, hi = _range_closure(inner)
        dlo, dhi = outer.domain
        if not (lo > dlo and hi < dhi):
            raise ContainmentError("range escapes the identity domain")
        return inner
    return ComposedFunction(outer, inner)


def compose_pair(F: MonotoneFunction, f: RealFunction,
                 G: MonotoneFunction, g: RealFunction
                 ) -> tuple[RealFunction, RealFunction]:
    """(F o f, G o g) with interval containment checked on both sides."""
    return _compose_one(F, f), _compose_one(G, g)


def composition_positivity_experiment(F: MonotoneFunction, f: RealFunction,
                                      G: MonotoneFunction, g: RealFunction,
                                      grid: Grid) -> SpectralReport:
    """Spectrum of the position-kernel operator for (F o f, G o g)."""
    ff, gg = compose_pair(F, f, G, g)
    op = build_nystrom_x(ff, gg, grid)
    return spectrum(op)
