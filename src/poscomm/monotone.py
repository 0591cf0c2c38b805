"""Matrix monotone functions: catalog, Loewner certificate, compositions.

A function F on an open interval I is matrix monotone when A >= B (both
self-adjoint with spectra in I) implies F(A) >= F(B).  Composing a
positive-commutator pair (f, g) with matrix monotone (F, G) whose domains
contain the closures of the ranges preserves positivity.  By Loewner's
theorem F is n-monotone on I exactly when every n-point Loewner matrix
[F(l_i) - F(l_j)] / (l_i - l_j), F' on the diagonal, is PSD; the
certificate reads that matrix on Chebyshev nodes of the entry's test
interval, with no random draws.

Catalog honesty note: tanh and arctan are Herglotz on a strip (they
generate positive commutators) but are provably not matrix monotone even
at 2x2 -- the 2-point Loewner determinant f'(x) f'(y) - f[x,y]^2 is
negative for every x != y in the tanh case since sinh(u)/u > 1.  They are
catalogued with ``claimed_monotone=False`` and the certificate names a
2-node witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .errors import ContainmentError
from .functions import RealFunction
from .grids import Grid
from .operators import SpectralReport, build_nystrom_x, spectrum

__all__ = [
    "MonotoneFunction",
    "catalog",
    "LOEWNER_TOL",
    "loewner_matrix",
    "loewner_certificate",
    "LoewnerCertificate",
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
    test_interval: tuple[float, float]   # Loewner nodes' I: bounded, in domain
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


LOEWNER_TOL = 1e-10        # a margin below -LOEWNER_TOL is a violation


def loewner_matrix(fn: MonotoneFunction, nodes) -> np.ndarray:
    """[F(l_i) - F(l_j)] / (l_i - l_j) on distinct nodes, F' on the
    diagonal; exactly symmetric, since an entry and its mirror are one
    IEEE quotient with both signs flipped."""
    lam = np.asarray(nodes, dtype=float)
    if np.unique(lam).size != lam.size:
        raise ValueError("Loewner nodes must be distinct")
    den = lam[:, None] - lam[None, :]
    np.fill_diagonal(den, 1.0)
    fv = fn.func(lam)
    mat = (fv[:, None] - fv[None, :]) / den
    np.fill_diagonal(mat, fn.deriv(lam))
    return mat


def _margin(mat: np.ndarray) -> float:
    """min eig / max|eig|: the PSD margin on the matrix's own scale."""
    eig = np.linalg.eigvalsh(mat)
    return float(eig[0] / max(np.max(np.abs(eig)), 1e-300))


class LoewnerCertificate(NamedTuple):
    margins: dict              # order n -> margin on n Chebyshev nodes
    all_orders_margin: float   # margin on 64 Chebyshev nodes
    witness: tuple[float, float]   # node pair of the most negative 2x2 minor
    witness_det: float         # (L_ii L_jj - L_ij^2) / max|L|^2 on 64 nodes


def loewner_certificate(fn: MonotoneFunction, orders) -> LoewnerCertificate:
    """Loewner-matrix margins of F on Chebyshev nodes of its test interval.

    Order n reads the margin on n nodes.  The 64-node matrix covers every
    principal submatrix on its nodes at once, and its most negative
    normalized 2x2 minor names a witness pair: below -LOEWNER_TOL, F is
    not n-monotone on I for any n >= 2.
    """
    if not orders or any(type(n) is not int or n < 2 for n in orders):
        raise ValueError(f"orders must be a non-empty list of integers "
                         f">= 2, got {orders!r}")      # bool subclasses int
    lo, hi = fn.test_interval

    def nodes(n):
        theta = (2 * np.arange(n) + 1) * np.pi / (2 * n)
        return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(theta)

    margins = {n: _margin(loewner_matrix(fn, nodes(n))) for n in orders}
    lam = nodes(64)
    mat = loewner_matrix(fn, lam)
    d = np.diag(mat)
    dets = (np.outer(d, d) - mat ** 2) / max(np.max(np.abs(mat)), 1e-300) ** 2
    np.fill_diagonal(dets, np.inf)
    i, j = np.unravel_index(np.argmin(dets), dets.shape)
    return LoewnerCertificate(margins, _margin(mat),
                              (float(lam[i]), float(lam[j])),
                              float(dets[i, j]))


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
            self.limits = tuple(float(outer.func(np.asarray(v)))
                                for v in inner.limits)

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
    composed = ComposedFunction(outer, inner)      # checks the range
    # the identity keeps inner itself, and with it any closed-form transform
    return inner if outer.name == "identity" else composed


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
