"""Discretized commutator operators, spectra, and trace/strip identities.

The operator K = i[f(P), g(Q)] is built by independent routes:

* position-kernel quadrature of
  K(x, y) = (1/sqrt(2*pi)) * (g(x)-g(y))/(x-y) * fhat(y-x),
* momentum-kernel quadrature of
  Kt(xi, eta) = (1/sqrt(2*pi)) * (f(xi)-f(eta))/(xi-eta) * ghat(xi-eta),
* direct functional calculus i*(f(P_N) g(Q_N) - g(Q_N) f(P_N)) on the
  N-point periodic grid, f(P_N) being the circulant of one inverse FFT of
  the symbol f(k).

Every route reports the measured Hermiticity defect of its raw matrix.
The kernel routes read the Toeplitz factor profile(c_j - c_i) of the
uniform lattice as a view of its 2N-1 values, assemble in place and in
real arithmetic whenever those values are exactly real, and share one
in-place, tile-by-tile symmetrization (`_finalize`) with the arithmetic
of 0.5*(m + m^H).

`spectrum` has one path: a certified randomized Rayleigh-Ritz solve
(Halko, Martinsson & Tropp 2011), O(N^2 k), falling back to dense
`eigvalsh` only when the sketch does not certify or does not pay.  Its
`SpectralReport` stores what the solve measured; extremes, positivity,
rank and sign pattern derive from that.

The direct route is exact linear algebra on the discrete torus, so its
trace is exactly zero (a finite commutator has zero trace) and it carries
a Nyquist-scale artifact wherever f has unequal limits: the symbol f(k)
jumps by [f] at the momentum wrap, which shows up as a checkerboard
O(1/|i-j|) oscillation in nodal matrix entries.  Positivity and trace
verdicts therefore come from the kernel routes only; route consistency is
assessed on Gaussian-smeared matrix elements, where the artifact is
filtered and both routes represent the same operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import circulant

from .errors import (
    AccuracyError,
    ContractViolationError,
    DerivativeRequiredError,
    DivergenceError,
    PeriodizationError,
    RouteMismatchError,
    StripViolationError,
)
from .fourier import FourierProfile, fourier_deriv
from .functions import RealFunction
from .grids import SQRT_2PI, Grid, momentum_weights, quadrature_weights

__all__ = [
    "DiscretizedOperator",
    "SpectralReport",
    "build_nystrom_x",
    "build_nystrom_p",
    "build_direct",
    "spectrum",
    "trace_identity_check",
    "shifted_trace",
    "strip_positivity_check",
    "route_agreement",
    "operator_two_norm",
]

HERMITICITY_TOL = 1e-12
RANK_THRESHOLD = 1e-6
POSITIVITY_TOL = 1e-10
FLATNESS_TOL = 1e-10
_TILE = 64         # block edge of the tiled passes; a pair stays in cache


@dataclass
class DiscretizedOperator:
    grid: Grid
    coords: np.ndarray
    weights: np.ndarray
    matrix: np.ndarray
    route: str                 # "nystrom-x" | "nystrom-p" | "direct"
    f: RealFunction
    g: RealFunction
    profile: Optional[FourierProfile] = None
    hermiticity_defect: float = 0.0

    @property
    def n(self) -> int:
        return self.coords.size

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)))


def _profile_matrix(profile: FourierProfile, n: int, step: float) -> np.ndarray:
    """Read-only Toeplitz view of profile(c_j - c_i) over a uniform
    coordinate lattice, real when every lattice value is exactly real."""
    vals = profile.real_values(step * np.arange(-(n - 1), n))
    if not np.any(vals.imag):
        vals = vals.real
    return sliding_window_view(vals, n)[::-1]


def _tile_pairs(n: int):
    """Slice pairs (I, J), J >= I, covering the upper block triangle."""
    for i in range(0, n, _TILE):
        for j in range(i, n, _TILE):
            yield slice(i, i + _TILE), slice(j, j + _TILE)


def _finalize(matrix: np.ndarray):
    """Hermitian part of a built matrix (realified if near-real) and its
    measured Hermiticity defect; non-finite entries raise AccuracyError.

    Symmetrizes in place, one tile pair at a time, with the arithmetic of
    0.5 * (m + m^H), so it consumes its argument: pass a fresh temporary.
    """
    defect = 0.0
    for rows, cols in _tile_pairs(matrix.shape[0]):
        a = matrix[rows, cols]
        bh = matrix[cols, rows].conj().T
        tile_defect = float(np.max(np.abs(a - bh)))
        if not np.isfinite(tile_defect):
            raise AccuracyError("operator matrix has non-finite entries")
        defect = max(defect, tile_defect)
        sym = 0.5 * (a + bh)
        matrix[rows, cols] = sym
        matrix[cols, rows] = sym.conj().T
    if np.iscomplexobj(matrix):
        re = im = 0.0
        for i in range(0, matrix.shape[0], _TILE):
            block = matrix[i:i + _TILE]
            re = max(re, np.max(np.abs(block.real)))
            im = max(im, np.max(np.abs(block.imag)))
        if im < 1e-14 * max(re, 1e-300):
            matrix = np.ascontiguousarray(matrix.real)
    return matrix, defect


def _nystrom_matrix(fn: RealFunction, coords: np.ndarray,
                    profile: FourierProfile, step: float):
    """Finalized step * (fn(c_i)-fn(c_j))/(c_i-c_j) * profile(c_j-c_i)
    / sqrt(2*pi), with the analytic limit fn'(c_i) on the diagonal.

    Built in place, in real arithmetic unless the lattice profile is
    complex."""
    values = np.asarray(fn(coords), dtype=float)
    dq = np.subtract.outer(values, values)
    for i in range(0, coords.size, _TILE):
        den = np.subtract.outer(coords[i:i + _TILE], coords)
        rows = np.arange(den.shape[0])
        den[rows, rows + i] = 1.0
        dq[i:i + _TILE] /= den
        del den
    np.fill_diagonal(dq, _diag_derivative(fn, coords))
    prof = _profile_matrix(profile, coords.size, step)
    if np.iscomplexobj(prof):
        dq = dq * prof
        dq /= SQRT_2PI
    else:
        dq *= prof
        # numpy divides complex by a real scalar as a product with its
        # reciprocal; the real path does the same to keep every bit
        dq *= 1.0 / SQRT_2PI
    dq *= step
    return _finalize(dq)


def _diag_derivative(fn: RealFunction, coords: np.ndarray) -> np.ndarray:
    try:
        return np.asarray(fn.derivative(coords), dtype=float)
    except DerivativeRequiredError as e:
        raise DerivativeRequiredError(
            "kernel diagonal needs the derivative of the multiplication-side "
            "function; supply one or use a representation that has it"
        ) from e


def build_nystrom_x(f: RealFunction, g: RealFunction, grid: Grid,
                    profile: FourierProfile = None) -> DiscretizedOperator:
    """Quadrature discretization of the position-space kernel.

    Entries are W^(1/2) K(x_i, x_j) W^(1/2) with the analytic limit
    g'(x_i) on the diagonal of the difference quotient.
    """
    if profile is None:
        profile = fourier_deriv(f, grid)
    matrix, defect = _nystrom_matrix(g, grid.x, profile, grid.dx)
    return DiscretizedOperator(grid, grid.x, quadrature_weights(grid), matrix,
                               "nystrom-x", f, g, profile, defect)


def build_nystrom_p(f: RealFunction, g: RealFunction, grid: Grid,
                    profile: FourierProfile = None) -> DiscretizedOperator:
    """Momentum-space analogue on the momentum lattice.

    The kernel swaps roles: the difference quotient is taken in f and the
    transform is of g'.  The diagonal is ([g]/2*pi) f(xi) by construction.
    """
    if profile is None:
        profile = fourier_deriv(g, grid)
    matrix, defect = _nystrom_matrix(f, grid.k, profile, grid.dk)
    return DiscretizedOperator(grid, grid.k, momentum_weights(grid), matrix,
                               "nystrom-p", f, g, profile, defect)


def _ends_compatible(values: np.ndarray, wrap_gap: float, tol: float) -> bool:
    scale = max(np.max(np.abs(values)), 1.0)
    flat = (abs(values[1] - values[0]) < tol * scale
            and abs(values[-1] - values[-2]) < tol * scale)
    periodic = abs(wrap_gap) < tol * scale
    return flat or periodic


def build_direct(f: RealFunction, g: RealFunction,
                 grid: Grid) -> DiscretizedOperator:
    """Direct functional calculus: i*(f(P) g(Q) - g(Q) f(P)) on the grid.

    f(P) is diagonal f(k_m) in the discrete Fourier basis (a circulant in
    position) and g(Q) is diagonal g(x_j) in position.  Both functions
    must be either flat at their window ends or exactly periodic over the
    window (to ``FLATNESS_TOL`` relative), else the periodization of the
    FFT grid misrepresents them.  The diagonal of the result is
    identically zero, so the trace is exactly 0.0.
    """
    x, k = grid.x, grid.k
    gx = np.asarray(g(x), dtype=float)
    g_wrap = float(g(grid.half_width)) - gx[0]
    if not _ends_compatible(gx, g_wrap, FLATNESS_TOL):
        raise PeriodizationError(
            "g is neither limit-flat at +-L nor periodic over the window")
    fk = np.asarray(f(k), dtype=float)
    k_max = grid.dk * (grid.n // 2)
    f_wrap = float(f(k_max)) - fk[0]
    if not _ends_compatible(fk, f_wrap, FLATNESS_TOL):
        raise PeriodizationError(
            "f is neither limit-flat at +-k_max nor periodic over the "
            "momentum window")
    m = circulant(1j * np.fft.ifft(np.fft.ifftshift(fk)))    # i f(P)
    for i in range(0, grid.n, _TILE):
        m[i:i + _TILE] *= gx[None, :] - gx[i:i + _TILE, None]
    matrix, defect = _finalize(m)
    return DiscretizedOperator(grid, x, quadrature_weights(grid), matrix,
                               "direct", f, g, None, defect)


@dataclass
class SpectralReport:
    """What one solve measured; every verdict below derives from it."""
    eigenvalues: np.ndarray    # descending: all N (dense) or k Ritz values
    trace: float
    rank_threshold: float
    solver: str                # "dense" | "randomized"
    residual_bound: float      # certified ||K - Q B Q^H||, eps; 0.0 dense

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def max_eig(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def psd_error(self) -> float:
        """Certified (max(0, -min_eig) + eps) / |max_eig|."""
        return ((max(0.0, -self.min_eig) + self.residual_bound)
                / max(abs(self.max_eig), 1e-300))

    @property
    def positive(self) -> bool:
        return self.psd_error <= POSITIVITY_TOL

    def significant(self) -> np.ndarray:
        """Eigenvalues with |lambda| > rank_threshold * max|lambda|."""
        mags = np.abs(self.eigenvalues)
        return self.eigenvalues[mags > self.rank_threshold * np.max(mags)]

    @property
    def numerical_rank(self) -> int:
        return int(self.significant().size)

    def sign_pattern(self) -> tuple[int, int]:
        sig = self.significant()
        return int(np.sum(sig > 0)), int(np.sum(sig < 0))


# Randomized Rayleigh-Ritz (Halko, Martinsson & Tropp, SIAM Rev. 53, 2011,
# Alg. 4.4 with one power iteration; a-posteriori bound of their Sec. 4.3)
_SKETCH_START = 16       # initial sketch width k, doubled until certified
_SKETCH_MAX_SHARE = 8    # dense once k > N / _SKETCH_MAX_SHARE
_BOUND_PROBES = 10       # failure probability of the bound: 10**-probes
# 10 sqrt(2/pi) bounds ||(I - QQ^H) K|| from the probes; ||K - QBQ^H|| is
# at most twice that for Hermitian K
_BOUND_FACTOR = 2 * 10 * np.sqrt(2 / np.pi)


def _gaussian(rng, n: int, k: int, complex_: bool) -> np.ndarray:
    g = rng.standard_normal((n, k))
    if complex_:
        g = g + 1j * rng.standard_normal((n, k))
    return g


def _randomized(m: np.ndarray, rank_threshold: float):
    """Descending Ritz values of Hermitian m and a bound eps such that every
    eigenvalue of m lies within eps of a Ritz value or of 0, except with
    probability 10**-_BOUND_PROBES; None when the sketch does not pay.

    Deterministic: the Gaussian draws are seeded by N.
    """
    n, cplx = m.shape[0], np.iscomplexobj(m)
    rng = np.random.default_rng(n)
    k = _SKETCH_START
    while k * _SKETCH_MAX_SHARE <= n:
        q = np.linalg.qr(m @ _gaussian(rng, n, k, cplx))[0]
        q = np.linalg.qr(m @ q)[0]
        b = q.conj().T @ (m @ q)
        theta = np.linalg.eigvalsh(0.5 * (b + b.conj().T))[::-1]
        cut = rank_threshold * np.max(np.abs(theta))
        if np.sum(np.abs(theta) > cut) > k // 2:
            return None
        y = m @ _gaussian(rng, n, _BOUND_PROBES, cplx)
        y -= q @ (q.conj().T @ y)
        eps = _BOUND_FACTOR * float(np.max(np.linalg.norm(y, axis=0)))
        if eps <= cut:
            return theta, eps
        k *= 2
    return None


def _checked(m: np.ndarray) -> np.ndarray:
    """m, after raising on non-finite entries or a non-Hermitian matrix."""
    scale = defect = 0.0
    for rows, cols in _tile_pairs(m.shape[0]):
        a, b = m[rows, cols], m[cols, rows]
        # np.maximum, not max(): max(0.0, nan) is 0.0
        tile = np.maximum(np.max(np.abs(a)), np.max(np.abs(b)))
        if not np.isfinite(tile):
            raise AccuracyError("operator matrix has non-finite entries")
        scale = max(scale, tile)
        defect = max(defect, np.max(np.abs(a - b.conj().T)))
    if defect > max(HERMITICITY_TOL * scale, 1e-14):
        raise ContractViolationError("operator matrix is not Hermitian")
    return m


def spectrum(op: DiscretizedOperator, *,
             rank_threshold: float = RANK_THRESHOLD) -> SpectralReport:
    """Eigenvalues of the operator matrix, with the solver that found them.

    A certified randomized Rayleigh-Ritz solve runs first: k Ritz values
    and a bound eps with every eigenvalue of the matrix within eps of a
    Ritz value or of 0 (failure probability 1e-10).  It is accepted once
    eps <= rank_threshold * max|Ritz value| and at most k/2 Ritz values
    are significant; otherwise, and for N < 128, the dense ``eigvalsh``
    runs.  The report names its ``solver`` and ``residual_bound`` (0.0 on
    the dense path); extremes, positivity (on the certified
    min(min_eig, 0) - eps), ``significant()``, rank and sign pattern
    derive from those and mean the same on both paths.  Eigenvectors are
    ``np.linalg.eigh(op.matrix)``.
    """
    m = _checked(op.matrix)
    sketch = _randomized(m, rank_threshold)
    solver = "dense" if sketch is None else "randomized"
    vals, eps = sketch or (np.linalg.eigvalsh(m)[::-1], 0.0)
    return SpectralReport(vals, op.trace(), rank_threshold, solver, eps)


class TraceCheck(NamedTuple):
    lhs: float      # matrix trace
    rhs: float      # [f][g]/(2*pi)
    rel_error: float


def trace_identity_check(op: DiscretizedOperator) -> TraceCheck:
    """Matrix trace against [f][g]/(2*pi); kernel routes only."""
    if op.route == "direct":
        raise RouteMismatchError(
            "the direct route has trace exactly zero by construction "
            "(finite-dimensional commutator); use a kernel route")
    lhs = op.trace()
    rhs = op.f.variation * op.g.variation / (2 * np.pi)
    # absolute comparison when the predicted trace vanishes (constant factor)
    rel = abs(lhs - rhs) / (abs(rhs) if abs(rhs) > 1e-12 else 1.0)
    return TraceCheck(lhs, rhs, rel)


def shifted_trace(op: DiscretizedOperator, x, y) -> complex:
    """(sqrt(2*pi)/[g]) * tr(exp(iPx) K exp(-iPy)) from the momentum diagonal.

    Equals fhat(y - x) for the transform of f'; the contract holds for
    complex shifts as long as |Im(x - y)| stays inside the moment-finite
    region of f', the ``imag_half_width`` of its Fourier profile (so a
    complex shift needs f' to have one).
    """
    if op.route != "nystrom-p":
        raise RouteMismatchError("shifted traces need the momentum route")
    w = complex(x) - complex(y)
    if w.imag:
        half = fourier_deriv(op.f, op.grid).imag_half_width
        if abs(w.imag) >= half:
            raise DivergenceError(
                f"|Im(x-y)| = {abs(w.imag):.3g} outside the moment region "
                f"|Im| < {half:.3g}")
    diag = np.diag(op.matrix)
    phases = np.exp(1j * op.coords * w)
    return complex(SQRT_2PI / op.g.variation * np.sum(diag * phases))


@dataclass
class StripCheckResult:
    y: float
    max_residual: float
    min_imag: float
    fhat_at_2iy: complex
    strip_g: float
    pole_proximity: bool


def strip_positivity_check(f: RealFunction, g: RealFunction, y: float,
                           grid: Grid) -> StripCheckResult:
    """Check K(x-iy, x+iy) = (1/sqrt(2*pi)) (Im g(x+iy)/y) fhat(2iy) on a lattice.

    The lattice is 201 points spanning +-``grid.half_width``, and fhat is
    the profile of f' on ``grid``.  Both sides are evaluated from the
    analytic continuations; the residual certifies the continuation
    machinery and ``min_imag`` certifies the half-strip Herglotz property
    of g.  Proximity of y to g's strip boundary is flagged rather than
    fatal.
    """
    if y <= 0:
        raise ValueError("y must be positive")
    if y >= g.strip_half_width:
        raise StripViolationError(
            f"y = {y} is outside the strip of g (half-width "
            f"{g.strip_half_width:.4g})")
    fhat_val = fourier_deriv(f, grid)(2j * y)
    xs = np.linspace(-grid.half_width, grid.half_width, 201)
    zp = xs + 1j * y
    gzp = np.asarray(g(zp))
    gzm = np.asarray(g(xs - 1j * y))
    lhs = (gzm - gzp) / (-2j * y) * fhat_val / SQRT_2PI
    rhs = (gzp.imag / y) * fhat_val / SQRT_2PI
    return StripCheckResult(
        y=float(y),
        max_residual=float(np.max(np.abs(lhs - rhs))),
        min_imag=float(np.min(gzp.imag)),
        fhat_at_2iy=complex(fhat_val),
        strip_g=float(g.strip_half_width),
        pole_proximity=bool(y > 0.8 * g.strip_half_width),
    )


class RouteAgreement(NamedTuple):
    smeared_max_diff: float
    smeared_scale: float
    nodal_max_diff: float
    smear_width: float


def route_agreement(op_a: DiscretizedOperator,
                    op_b: DiscretizedOperator) -> RouteAgreement:
    """Compare two position-grid routes on interior matrix elements.

    Matrix elements are taken against unit-mass Gaussian windows of width
    4*dx centered 0.5 apart at interior points (|x| < L/2), which
    expresses both operators in kernel units and filters the direct
    route's Nyquist-scale checkerboard (an artifact of the momentum-wrap
    jump of f, not a property of the operator).  The raw nodal maximum
    difference over the interior block is reported alongside; it is
    dominated by that artifact plus the direct route's identically-zero
    diagonal.  Momentum-lattice operators raise RouteMismatchError.
    """
    if "nystrom-p" in (op_a.route, op_b.route):
        raise RouteMismatchError(
            "route agreement compares position-grid routes; the momentum "
            "route lives on the momentum lattice")
    if op_a.grid is not op_b.grid and (
            op_a.grid.n != op_b.grid.n
            or op_a.grid.half_width != op_b.grid.half_width):
        raise ValueError("operators must share a grid")
    grid = op_a.grid
    x, dx = grid.x, grid.dx
    smear_width = 4 * dx
    lim = 0.5 * grid.half_width
    centers = np.arange(-lim, lim + 1e-12, 0.5)
    win = np.exp(-((x[None, :] - centers[:, None]) ** 2) /
                 (2 * smear_width ** 2))
    win /= (np.sqrt(2 * np.pi) * smear_width)
    ka = win @ op_a.matrix @ win.T * dx
    kb = win @ op_b.matrix @ win.T * dx
    idx = np.where(np.abs(x) < lim)[0]
    lo, hi = idx[0], idx[-1] + 1        # x is increasing: a range
    nodal = 0.0
    for i in range(lo, hi, _TILE):      # row blocks of slice views
        rows = slice(i, min(i + _TILE, hi))
        nodal = max(nodal, float(np.max(np.abs(
            op_a.matrix[rows, lo:hi] - op_b.matrix[rows, lo:hi]))))
    return RouteAgreement(
        smeared_max_diff=float(np.max(np.abs(ka - kb))),
        smeared_scale=float(np.max(np.abs(kb))),
        nodal_max_diff=nodal,
        smear_width=float(smear_width),
    )


def operator_two_norm(op: DiscretizedOperator) -> float:
    """Spectral norm of the (Hermitian) matrix, exact from all N eigenvalues."""
    return float(np.max(np.abs(np.linalg.eigvalsh(_checked(op.matrix)))))
