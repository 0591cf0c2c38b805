"""Finite-rank commutator workbench.

Covers the closed rank-one family, the indefinite rank-three example, the
derivative-reconstruction identities

    g'(x)  = (2*pi/[f]) * sum_k |phi_k(x)|^2,
    f'(xi) = (2*pi/[g]) * sum_k |phi_hat_k(xi)|^2      (positive rank),

and recovery of the factor span from kernel columns
gamma_j(x) = K(x, y_j) at probe points, read as rows of the operator at
the grid nodes nearest them: the model is checked against the K its
columns came from, and nothing here evaluates the kernel itself.

A model M = F^T diag(c) conj(F) dx is never assembled: it is applied by
its factors in O(N r), and checked against K by a certified bound on
||M - K||_2 from ten Gaussian probes (`FiniteRankModel.error_bound`),
with no N x N array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    NotApplicableError,
    ProbeSelectionError,
    RouteMismatchError,
    SignConstraintError,
)
from .fourier import fit_exponential_strip, fourier_deriv
from .functions import FunctionSum, RealFunction, TanhAffine
from .grids import Grid, to_momentum
from .operators import (
    DiscretizedOperator,
    _norm_bound,
    _probe_bound,
    _probes,
)

__all__ = [
    "FiniteRankModel",
    "GammaProbe",
    "Rank3Example",
    "rank_one_pair",
    "rank_three_example",
    "reconstruct_gprime",
    "reconstruct_fprime",
    "gamma_recover",
    "default_probes",
    "strip_product_check",
]


class FiniteRankModel:
    """K = sum_k c_k (phi_k, .) phi_k sampled on a grid.

    ``factors`` has one row per factor (function values at the grid
    nodes), kept real when their imaginary part is exactly 0;
    ``coefficients`` are real and may be signed.
    """

    def __init__(self, grid: Grid, factors: np.ndarray, coefficients):
        factors = np.atleast_2d(np.asarray(factors))
        if np.iscomplexobj(factors) and not np.any(factors.imag):
            factors = factors.real
        coefficients = np.atleast_1d(np.asarray(coefficients, dtype=float))
        if factors.shape[0] != coefficients.size:
            raise ValueError("one coefficient per factor required")
        if factors.shape[1] != grid.n:
            raise ValueError("factors must be sampled on the grid nodes")
        gram = (factors.conj() @ factors.T) * grid.dx
        ev = np.linalg.eigvalsh(gram)
        if ev[0] < 1e-12 * max(ev[-1], 1e-300):
            raise ValueError("factors are numerically linearly dependent")
        self.grid = grid
        self.factors = factors
        self.coefficients = coefficients

    @property
    def rank(self) -> int:
        return self.factors.shape[0]

    def error_bound(self, op: DiscretizedOperator) -> float:
        """A bound on ||M - K||_2, so on every |M_ij - K_ij| too, from ten
        Gaussian probes (`operators._probe_bound`), M = (F^T c) conj(F) dx
        applied by its factors in O(N r) a column and K by FFT: certified
        except with probability 1e-10, and deterministic.  The probes and
        their product K W are the operator's, which its spectrum's bound
        reads too; a complex model of a real K draws complex probes of
        its own.  A NaN factor reads NaN."""
        weighted = self.factors.T * (self.coefficients * self.grid.dx)
        right = self.factors.conj()
        if np.iscomplexobj(weighted) and not np.iscomplexobj(op):
            w = _probes(op.n, True)
            return _norm_bound(op @ w - weighted @ (right @ w))
        return _probe_bound(op, lambda w, _: weighted @ (right @ w))

    def factor_norms_sq(self) -> np.ndarray:
        return np.real(np.sum(np.abs(self.factors) ** 2, axis=1) * self.grid.dx)


def rank_one_pair(alpha: float, c1: float = 1.0, c2: float = 1.0,
                  t1: float = 0.0, t2: float = 0.0, d1: float = 0.0,
                  d2: float = 0.0) -> tuple[RealFunction, RealFunction]:
    """The complete rank-one family: f = c1*tanh(alpha_hat*(t-t1)) + d1,
    g = c2*tanh(alpha*(t-t2)) + d2 with alpha*alpha_hat = pi/2, c1*c2 > 0.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if c1 * c2 <= 0:
        raise SignConstraintError("rank-one pair needs c1*c2 > 0")
    alpha_hat = np.pi / (2 * alpha)
    return (TanhAffine(rate=alpha_hat, center=t1, scale=c1, offset=d1),
            TanhAffine(rate=alpha, center=t2, scale=c2, offset=d2))


@dataclass
class Rank3Example:
    f: RealFunction
    g: RealFunction
    model: FiniteRankModel
    beta: float


def rank_three_example(beta: float, grid: Grid) -> Rank3Example:
    """g = tanh x, f = tanh(pi*xi/2) + beta*tanh(pi*xi); rank three, indefinite.

    The commutator assembles as
    (1/pi)(phi,.)phi + (beta/pi)[(phi_p,.)phi_p - (phi_m,.)phi_m]
    with phi = sech x, phi_p = cosh(x/2) sech x, phi_m = sinh(x/2) sech x,
    each written in e = exp(-|x|), which cannot overflow:
    sech x = 2e/(1 + e^2), and phi_p, phi_m = sqrt(e) (1 +- e)/(1 + e^2),
    phi_m with the sign of x.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    f = FunctionSum([TanhAffine(rate=np.pi / 2),
                     TanhAffine(rate=np.pi, scale=beta)])
    g = TanhAffine(rate=1.0)
    a = np.abs(grid.x)
    e = np.exp(-a)
    den = 1.0 + e * e
    half = np.exp(-0.5 * a) / den
    # 1 - e as -expm1(-a), accurate near x = 0
    factors = np.vstack([2.0 * e / den, half * (1.0 + e),
                         np.sign(grid.x) * half * -np.expm1(-a)])
    coeffs = np.array([1.0 / np.pi, beta / np.pi, -beta / np.pi])
    return Rank3Example(f, g, FiniteRankModel(grid, factors, coeffs), beta)


def _require_positive(model: FiniteRankModel):
    if np.any(model.coefficients <= 0):
        raise NotApplicableError(
            "reconstruction identities need a positive-coefficient model "
            "(K >= 0); this model has mixed signs")


def reconstruct_gprime(model: FiniteRankModel, f_bracket: float) -> np.ndarray:
    """g'(x) = (2*pi/[f]) * sum_k c_k |phi_k(x)|^2 on the grid nodes."""
    _require_positive(model)
    dens = np.sum(model.coefficients[:, None] * np.abs(model.factors) ** 2,
                  axis=0)
    return (2 * np.pi / f_bracket) * dens


def reconstruct_fprime(model: FiniteRankModel, g_bracket: float) -> np.ndarray:
    """f'(xi) = (2*pi/[g]) * sum_k c_k |phi_hat_k(xi)|^2 on the momentum nodes."""
    _require_positive(model)
    hats = np.vstack([to_momentum(model.grid, row) for row in model.factors])
    dens = np.sum(model.coefficients[:, None] * np.abs(hats) ** 2, axis=0)
    return (2 * np.pi / g_bracket) * dens


@dataclass(frozen=True)
class GammaProbe:
    points_a: np.ndarray
    points_b: np.ndarray

    def __post_init__(self):
        a = np.atleast_1d(np.asarray(self.points_a, dtype=float))
        b = np.atleast_1d(np.asarray(self.points_b, dtype=float))
        object.__setattr__(self, "points_a", a)
        object.__setattr__(self, "points_b", b)
        if a.size != b.size:
            raise ValueError("probe sets must have equal size")
        if np.min(np.abs(a[:, None] - b[None, :])) < 1e-9:
            raise ValueError("probe sets must be disjoint")


def default_probes(rank: int, seed: int) -> GammaProbe:
    """Quasi-random probe points in [-2, 2], mutually more than 0.2 apart."""
    rng = np.random.default_rng(seed)

    def draw(exclude):
        pts = []
        for _ in range(1000):
            c = rng.uniform(-2.0, 2.0)
            if all(abs(c - p) > 0.2 for p in pts + exclude):
                pts.append(c)
            if len(pts) == rank:
                return np.array(pts)
        raise ProbeSelectionError("could not place separated probe points")

    a = draw([])
    b = draw(list(a))
    return GammaProbe(a, b)


class GammaRecovery(NamedTuple):
    model: FiniteRankModel
    reassembly_norm_bound: float      # of ||model - K||_2
    probe_condition: float
    cross_consistency_angle: float    # max principal angle between the two sets
    nodes_a: np.ndarray               # the grid nodes read for each set
    nodes_b: np.ndarray


def _recover_from_set(op: DiscretizedOperator, idx: np.ndarray):
    """The factors and signs recovered from the nodes idx, or None, and
    the Gram's relative smallest eigenvalue.

    Row j of K is dx K(x_j, .), so conj(K[idx_j, :]) / dx is the column
    gamma_j(x_i) = K(x_i, y_j), K being Hermitian bit for bit, and the Gram
    P[l, j] = gamma_j(y_l) is the columns at the nodes: K's own entries."""
    rows = np.empty((idx.size, op.n), dtype=op.dtype)
    for k, i in enumerate(idx):
        op._rows(i, rows[k:k + 1])
    gcols = rows.conj().T / op.grid.dx
    lam, vec = np.linalg.eigh(gcols[idx])
    amax = np.max(np.abs(lam))
    cond = np.min(np.abs(lam)) / max(amax, 1e-300)
    if cond < 1e-10:
        return None, cond
    # P = V diag(lam) V^H, so the factors gamma V |lam|^(-1/2) reassemble
    # K = psi diag(sign(lam)) psi^H
    psi = (gcols @ vec) / np.sqrt(np.abs(lam))
    signs = np.sign(lam)
    return (psi.T, signs), cond


def _orth(a: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column space of a, from its SVD, with
    numerical rank cut at max(shape) eps of the largest singular value."""
    u, sv, _ = np.linalg.svd(a, full_matrices=False)
    cut = max(a.shape) * np.finfo(float).eps * (sv[0] if sv.size else 0.0)
    return u[:, :int(np.sum(sv > cut))]


def _largest_angle(a: np.ndarray, b: np.ndarray) -> float:
    """The largest principal angle between the column spaces of a and b
    (Bjorck & Golub, Math. Comp. 27, 1973): its cosine is the smallest
    singular value of Q_a^H Q_b, and its sine the largest one of the part
    of the narrower basis orthogonal to the wider one (b's when the
    widths are equal), so atan2 of the two keeps it accurate from 0 to
    pi/2."""
    qa, qb = _orth(a), _orth(b)
    cross = qa.conj().T @ qb
    if qa.shape[1] >= qb.shape[1]:
        rest = qb - qa @ cross
    else:
        rest = qa - qb @ cross.conj().T
    return float(np.arctan2(np.linalg.norm(rest, 2),
                            np.linalg.svd(cross, compute_uv=False)[-1]))


def gamma_recover(op: DiscretizedOperator,
                  probes: GammaProbe) -> GammaRecovery:
    """Recover a finite-rank model from kernel columns at probe points.

    gamma_j(x) = K(x, y_j) spans the factor space; the probe Gram
    P[l, j] = K(y_l, y_j) supplies the (signed) change of basis.  Each
    probe is read at the grid node nearest it, as the operator's rows
    there, so the model is checked against the K it was read from.  Both
    probe sets are tried; if either is well-conditioned (relative
    smallest Gram eigenvalue at least 1e-10) the recovery proceeds and the
    two recovered spans are compared.  Two probes of a set on one node
    make its Gram singular.
    """
    if op.route != "nystrom-x":
        raise RouteMismatchError(
            "gamma recovery works on the position-kernel route")
    grid = op.grid
    for y in (*probes.points_a, *probes.points_b):
        if not -grid.half_width <= y < grid.half_width:
            raise ProbeSelectionError(
                f"probe point {float(y)!r} lies outside the window "
                f"[-{grid.half_width!r}, {grid.half_width!r})")
    idx_a, idx_b = (np.array([grid.index_of(y) for y in points])
                    for points in (probes.points_a, probes.points_b))
    res_a, cond_a = _recover_from_set(op, idx_a)
    res_b, cond_b = _recover_from_set(op, idx_b)
    if res_a is None and res_b is None:
        raise ProbeSelectionError(
            f"both probe sets are ill-conditioned (relative smallest "
            f"Gram eigenvalues {cond_a:.3e}, {cond_b:.3e}; probes closer "
            f"than the node spacing dx = {grid.dx:.3g} share a node)")
    primary, cond = (res_a, cond_a) if res_a is not None else (res_b, cond_b)
    factors, signs = primary
    model = FiniteRankModel(grid, factors, signs)
    err = model.error_bound(op)
    if res_a is not None and res_b is not None:
        ang = _largest_angle(res_a[0].T, res_b[0].T)
    else:
        ang = np.nan
    return GammaRecovery(model, err, float(cond), ang,
                         grid.x[idx_a], grid.x[idx_b])


class StripProduct(NamedTuple):
    strip_f: float
    strip_g: float
    product: float
    within_bound: bool     # product <= pi/2 (with a 1% numerical margin)


def strip_product_check(f: RealFunction, g: RealFunction,
                        grid: Grid) -> StripProduct:
    """Fit both analyticity strips from Fourier decay and check r*r' <= pi/2."""
    sf = fit_exponential_strip(fourier_deriv(f, grid))
    sg = fit_exponential_strip(fourier_deriv(g, grid))
    prod = sf * sg
    return StripProduct(sf, sg, prod, prod <= np.pi / 2 * 1.01)
