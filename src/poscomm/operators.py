"""Discretized commutator operators, spectra, and trace/strip identities.

The operator K = i[f(P), g(Q)] is built by independent routes:

* position-kernel quadrature of
  K(x, y) = (1/sqrt(2*pi)) * (g(x)-g(y))/(x-y) * fhat(y-x),
* momentum-kernel quadrature of
  Kt(xi, eta) = (1/sqrt(2*pi)) * (f(xi)-f(eta))/(xi-eta) * ghat(xi-eta),
* direct functional calculus i*(f(P_N) g(Q_N) - g(Q_N) f(P_N)) on the
  N-point periodic grid, f(P_N) being the circulant of one inverse FFT of
  the symbol f(k).

On the uniform lattice every route's matrix is one discrete commutator,

    K = G T - T G + D,    K_ij = t(j-i) (g_i - g_j) + d_i delta_ij,

with G = diag(g(c_i)) of the multiplication-side function on the
lattice c (g on the position route, f on the momentum route), T the
Toeplitz matrix of a 2N-1 lattice t with t(0) = 0, and D diagonal.  The
kernel routes fold the 1/(c_i - c_j) of the difference quotient into t,
t(m) = v(m) / (sqrt(2*pi) (-m)) for the lattice profile v(m) =
profile(m * step), and D = step g'(c_i) Re v(0) / sqrt(2*pi) is the
analytic limit; the direct route has t = -c((-m) mod N), minus the
circulant column of i f(P), and D = 0.  t is antisymmetrized,
t(-m) = -conj t(m) bit for bit, in O(N), so every matrix is exactly
Hermitian; each route still measures the Hermiticity defect its raw
lattice would have given, and is real whenever t is exactly real.

The builders are the only constructors of a `DiscretizedOperator`, and
they make its factors (g, t, D) alone, which it holds read-only.  Its
N x N matrix is assembled on first read of ``matrix`` by one row-block
writer, each block written once as one real product (over the float
view of a complex matrix); readers that need less take rows from the
writer or read K through one Toeplitz product T X by FFT (`_toeplitz`,
the only FFT code): K X (``op @ X``) from one product of [X, g X], the
Rayleigh quotient Q^H K Q (`_rayleigh`) from one of Q, and most never
assemble it.
max|K|, max|Im K| and the defect are read off t and the lag spread
max_i |g_{i+m} - g_i| of g, bit for bit what a scan of the N^2 entries
reads, and only at the lags whose bound fl(t(m) (max g - min g)) can
win: on a complex lattice at build, so that a matrix the realify test
makes real is never complex, on a real one on first read.  The trace is
sum D.

`spectrum` tries a certified randomized Rayleigh-Ritz solve (Halko,
Martinsson & Tropp 2011) on a block Krylov space grown 8 columns a
depth (Musco & Musco 2015), with T applied by circulant embedding
(Chan & Jin 2007), O(N k log N) for k columns.  Depth 1 certifies the
spectra of rank <= 4.  When the solve does not pay (N < 128), or no
depth up to 64 columns certifies with positivity decided, the solve is
dense: split by parity where the factors have it (`_parity_split`: a
real lattice, g odd and d even under j <-> N - j, bit for bit, an O(N)
test), two `eigvalsh` of N/2 read off N/2 + 1 rows, coupled only by
row 0, whose norm bounds every eigenvalue's distance by Weyl's
inequality; otherwise, or when that bound is too large, `eigvalsh` of
the matrix.  Its `SpectralReport` stores what the solve measured;
extremes, positivity, rank and sign pattern derive from that.  Each
operator keeps one probe product (`_probed`): ten Gaussian probes W,
the first draws of default_rng(N), and K W.  `_probe_bound` reads
||K - C||_2 off it (failure probability 1e-10 a bound): the solve's
residual bounds (C = Z Z^H K), the norm check of K against a
finite-rank model (C = M) and that of K against 0 (C = 0).  The sketch
draws from default_rng((N, 1)), independent of W.

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

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import NamedTuple, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    AccuracyError,
    DivergenceError,
    NotApplicableError,
    PeriodizationError,
    RouteMismatchError,
    StripViolationError,
)
from .fourier import FourierProfile, fourier_deriv
from .functions import RealFunction
from .grids import SQRT_2PI, Grid

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
]

HERMITICITY_TOL = 1e-12
RANK_THRESHOLD = 1e-6
POSITIVITY_TOL = 1e-10
FLATNESS_TOL = 1e-10
_TILE = 64         # row-block height of the writer and the scans


class _Factors(NamedTuple):
    """K = G T - T G + diag(d): the multiplier values g (without an
    offset, which G T - T G cancels), the 2N-1 lattice t of the Toeplitz T
    (T_ij = t[j - i + N - 1], t(0) = 0) and d."""
    g: np.ndarray
    t: np.ndarray
    d: np.ndarray


@dataclass(frozen=True)
class DiscretizedOperator:
    """K on one grid, made only by the builders below as its factors,
    which it keeps read-only; they are finite and make K exactly
    Hermitian.  ``matrix`` is assembled from them on first read and kept,
    read-only; ``op @ X`` applies K by FFT without it.  ``max_abs`` is
    max|K_ij| and ``hermiticity_defect`` that of the matrix the raw
    lattice would have given, read off the lattice: by the build on a
    complex lattice, on first read on a real one."""
    grid: Grid
    coords: np.ndarray
    route: str                 # "nystrom-x" | "nystrom-p" | "direct"
    f: RealFunction
    g: RealFunction
    _factors: _Factors = field(repr=False)
    # |t(m) + conj t(-m)| of the raw lattice (None when 0) and the raw
    # diagonal's defect
    _raw_defect: tuple = field(repr=False)
    profile: Optional[FourierProfile] = None
    # (max|K|, defect) when the build read them
    _known_peaks: Optional[tuple] = field(default=None, repr=False)

    def __post_init__(self):
        for a in self._factors:
            a.setflags(write=False)

    @property
    def n(self) -> int:
        return self.coords.size

    @property
    def dtype(self) -> np.dtype:
        return self._factors.t.dtype

    @property
    def shape(self) -> tuple:
        return self.n, self.n

    @cached_property
    def matrix(self) -> np.ndarray:
        """The N x N matrix, assembled by `_rows` on first read."""
        out = np.empty((self.n, self.n), dtype=self.dtype)
        for lo in range(0, self.n, _TILE):
            self._rows(lo, out[lo:lo + _TILE])
        out.setflags(write=False)
        return out

    @cached_property
    def _writer(self) -> tuple:
        """What `_rows` reads for every block: g across the columns, the
        N x N Toeplitz view of the lattice and the width of an entry in
        it (for a complex lattice its float view, with g repeated
        twice)."""
        g, t, _ = self._factors
        if np.iscomplexobj(t):
            return np.repeat(g, 2), _lattice_view(t.view(float), g.size, 2), 2
        return g, _lattice_view(t, g.size), 1

    def _rows(self, lo: int, out: np.ndarray) -> np.ndarray:
        """Rows lo:lo + len(out) of K, written into ``out`` (N wide,
        C-contiguous, of the operator's dtype) and returned.

        One real product of the lattice, or of the float view of a complex
        one (real and imaginary parts interleaved), and g_i - g_j, written
        in place, then d on the diagonal: the same bits in any block."""
        g, _, d = self._factors
        gcols, tview, width = self._writer
        blk, h = out.view(float), out.shape[0]
        rows = slice(lo, lo + h)
        np.subtract(g[rows, None], gcols, out=blk)
        np.multiply(tview[rows], blk, out=blk)
        r = np.arange(h)
        # the imaginary part there is t(0) * 0 = +0.0
        blk[r, width * (r + lo)] = d[rows]
        return out

    @cached_property
    def _peaks(self) -> tuple:
        if self._known_peaks is not None:
            return self._known_peaks
        return _lattice_peaks(*self._factors, *self._raw_defect)[:2]

    @property
    def max_abs(self) -> float:
        return self._peaks[0]

    @property
    def hermiticity_defect(self) -> float:
        return self._peaks[1]

    def trace(self) -> float:
        """sum D: the diagonal of G T - T G is 0."""
        return float(np.sum(self._factors.d))

    @cached_property
    def _transform(self) -> tuple:
        """g shifted by its midrange, the FFT pair (rfft on a real lattice)
        and the transform of T's circulant embedding, the leading N x N
        block of the 2N circulant whose first column is t(0), t(-1), ..,
        t(1-N), 0, t(N-1), .., t(1); taken on first apply."""
        g, t, _ = self._factors
        n = g.size
        # (G - cI) T - T (G - cI) = G T - T G: centred, the apply's rounding
        # scales with the spread of g, as K does, not with max|g|
        centred = g - 0.5 * (np.max(g) + np.min(g))
        fft, ifft = ((np.fft.fft, np.fft.ifft) if np.iscomplexobj(t)
                     else (np.fft.rfft, np.fft.irfft))
        kernel = fft(np.concatenate([t[n - 1::-1], [0.0], t[:n - 1:-1]]))
        return centred, fft, ifft, kernel

    def _toeplitz(self, x: np.ndarray) -> np.ndarray:
        """T X for an N x k block X by circulant embedding: one FFT pair
        over X's columns, zero-padded to 2N, O(N log N) a column; a real T
        takes a complex X part by part.  The operator's only FFT code.
        For X of T's type the result is the transpose of k contiguous
        rows."""
        if np.iscomplexobj(x) and not np.iscomplexobj(self):
            return self._toeplitz(x.real) + 1j * self._toeplitz(x.imag)
        _, fft, ifft, kernel = self._transform
        n = x.shape[0]
        # the columns as rows, so that each transform is contiguous
        rows = np.ascontiguousarray(x.T)
        return ifft(fft(rows, 2 * n) * kernel, 2 * n)[:, :n].T

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """K X by the factors, g (T X) - T (g X) + d X, for an N x k block
        X: one Toeplitz product of the stacked columns [X, g X].  K v for
        a vector v has the bits of the one-column block's."""
        if x.ndim == 1:
            return (self @ x[:, None])[:, 0]
        g = self._transform[0]
        k = x.shape[1]
        rows = np.empty((2 * k, self.n), dtype=x.dtype)
        rows[:k] = x.T
        np.multiply(x.T, g, out=rows[k:])
        y = self._toeplitz(rows.T).T
        return (g * y[:k] - y[k:] + self._factors.d * x.T).T

    def _rayleigh(self, q: np.ndarray) -> np.ndarray:
        """Q^H K Q for an N x k block Q from k Toeplitz columns: M + M^H
        with M = Q^H (G T Q + D Q / 2), which is Q^H K Q since T^H = -T
        bit for bit (`_antisymmetrized`); Hermitian bit for bit.  The
        rounding is that of G T + T^H G + D with T the FFT product, not
        that of ``op @``'s G T - T G + D; the two differ at rounding level.
        Q's columns are taken _RAYLEIGH_CHUNK at a time, so that the
        temporaries stay O(N _RAYLEIGH_CHUNK) for any k."""
        g = self._transform[0][:, None]
        half_d = 0.5 * self._factors.d[:, None]
        k = q.shape[1]
        m = np.empty((k, k), dtype=np.result_type(q, self.dtype))
        for j in range(0, k, _RAYLEIGH_CHUNK):
            block = q[:, j:j + _RAYLEIGH_CHUNK]
            m[:, j:j + _RAYLEIGH_CHUNK] = q.conj().T @ (
                g * self._toeplitz(block) + half_d * block)
        return m + m.conj().T

    @cached_property
    def _probed(self) -> tuple:
        """The probes W of the operator's dtype (`_probes`) and K W, made on
        first read and kept, read-only: 2 * _BOUND_PROBES N entries, which
        every probe bound of this operator reads (`_probe_bound`)."""
        w = _probes(self.n, np.iscomplexobj(self))
        kw = self @ w
        for a in (w, kw):
            a.setflags(write=False)
        return w, kw


def _lattice_view(vals: np.ndarray, n: int, width: int = 1) -> np.ndarray:
    """Read-only N x N Toeplitz view whose (i, j) entry is vals[j - i + n - 1],
    each entry ``width`` consecutive values of ``vals`` (2 for the float
    view of a complex lattice: N x 2N)."""
    return sliding_window_view(vals, width * n)[::-width]


def _parts(a: np.ndarray) -> tuple:
    """The real and imaginary parts of a complex array as float views, or
    a real array alone.

    numpy's product of a complex and a real array has these parts times
    the real array as its parts (bit for bit, up to the sign of a zero);
    written into them, it runs without converting the real operand to
    complex."""
    return (a.real, a.imag) if np.iscomplexobj(a) else (a,)


def _antisymmetrized(t: np.ndarray):
    """The 2N-1 lattice 0.5 (t(m) - conj t(-m)) with t(0) = 0, real when all
    of it is exactly real, and |t(m) + conj t(-m)| of the raw lattice
    (None when that is 0 off m = 0).

    t(-m) = -conj t(m) holds bit for bit, so t(j-i) (g_i - g_j) is
    Hermitian bit for bit."""
    flipped = t[::-1].conj()
    delta = np.abs(t + flipped)
    # a no-op, bit for bit, on an exactly antisymmetric lattice
    t = 0.5 * (t - flipped)
    mid = t.size // 2
    t[mid] = delta[mid] = 0.0
    if not np.any(t.imag):
        t = t.real
    return t, (delta if np.any(delta) else None)


def _lag_spread(padded: np.ndarray, g: np.ndarray,
                first_lag: int) -> np.ndarray:
    """s(m) = max_i |g_{i+m} - g_i|, the largest |g_i - g_j| at lag
    |j - i| = m, for the lags m = first_lag .. first_lag + 63 below N.

    One lag-major 64 x N pass: lag m's differences g_{i+m} - g_i, read
    through a window of ``padded`` (g followed by N - 1 NaN), make one
    row, and np.fmax drops the padding."""
    n = g.size
    diff = sliding_window_view(padded, n)[first_lag:first_lag + _TILE] - g
    return np.fmax.reduce(np.abs(diff, out=diff), axis=1)


def _entry_peaks(t, delta, spread) -> tuple:
    """|t s|, delta s (0 without delta) and |Im t s| of lattice entries t
    whose lags have the spread s, t s taken part by part."""
    top = np.empty_like(t)
    for part, t_part in zip(_parts(top), _parts(t)):
        np.multiply(t_part, spread, out=part)
    scaled = np.zeros(t.size) if delta is None else delta * spread
    return np.abs(top), scaled, np.abs(top.imag)


def _lattice_peaks(g, t, d, delta, diag_defect) -> tuple:
    """max|K|, the raw matrix's Hermiticity defect and max|Im K| of the
    commutator on the lattice t, read off the lattice, bit for bit what a
    scan of the N x N entries gives.

    The entries at lag m are t(m) (g_i - g_j) with |g_i - g_j| at most
    s(|m|) and equal to it for some i; rounding is monotone, so the
    largest |Re|, |Im| and defect there are those of fl(t(m) s(|m|)),
    part by part, and, numpy's complex |.| being monotone in each part
    too, so is the largest modulus (numpy's complex |.| is not np.hypot,
    which can differ from it by an ulp).

    Every s(m) is at most S = fl(max g - min g), so fl(t(+-m) S) bounds
    what lag m can give each maximum.  s is read in blocks of 64 lags
    (`_lag_spread`), for each maximum in the order of the blocks' largest
    bounds, until no bound left exceeds the largest value found; a block
    read for one maximum serves the others.  When S is not finite, or a
    bound is NaN, every block is read, so that a NaN propagates as a
    scan's would."""
    n = g.size
    starts = np.arange(0, n, _TILE)
    with np.errstate(over="ignore", invalid="ignore"):
        whole = np.max(g) - np.min(g)
        bounds = [np.maximum.reduceat(np.maximum(b[n - 1:], b[n - 1::-1]),
                                      starts)
                  for b in _entry_peaks(t, delta, whole)]
    read_all = not np.isfinite(whole) or any(np.isnan(b).any()
                                             for b in bounds)
    padded = np.concatenate([g, np.full(n - 1, np.nan)])

    @cache
    def block(b: int) -> list:
        lags = np.arange(starts[b], min(starts[b] + _TILE, n))
        idx = np.concatenate([n - 1 + lags, n - 1 - lags])
        spread = np.tile(_lag_spread(padded, g, starts[b]), 2)
        return [np.max(v) for v in _entry_peaks(
            t[idx], None if delta is None else delta[idx], spread)]

    found = [0.0, 0.0, 0.0]    # each maximum over the blocks read
    floor = (np.max(np.abs(d)), diag_defect, 0.0)    # and off the lattice
    for q, bound in enumerate(bounds):
        order = (range(starts.size) if read_all
                 else np.argsort(-bound, kind="stable"))
        for b in order:
            if not read_all and bound[b] <= max(found[q], floor[q]):
                break
            # np.maximum, not max(), so that a NaN propagates
            found[q] = np.maximum(found[q], block(b)[q])
    peak = np.maximum(found[0], floor[0])
    defect = diag_defect if delta is None else max(diag_defect,
                                                   float(found[1]))
    return float(peak), defect, float(found[2])


def _commutator(n: int, factors) -> dict:
    """The factors of the N x N matrix t(j-i) (g_i - g_j) + d_i delta_ij
    and the raw lattice's defect, with max|K| and the defect where the
    build reads them, as `DiscretizedOperator` fields.

    ``factors()`` gives g, the raw 2N-1 lattice t, d and the defect of the
    raw diagonal; it runs after an N x N float array is reserved (and
    dropped, never written, so no memory is committed), so that a grid
    too large for memory fails before the lattice evaluation.  A
    non-finite g, t or d makes a non-finite entry, so it raises
    AccuracyError, in O(N).

    On a complex lattice max|K|, max|Im K| and the defect come off the
    lattice and the lag spread s(m) of g (`_lattice_peaks`); when
    max|Im K| is below 1e-14 of max|K| the lattice is realified: the
    matrix is then real, from the real part of t, which the factors keep.
    On a real one every entry fl(t(m) fl(g_i - g_j)) is at most
    fl(max|t| fl(max g - min g)) in modulus, rounding being monotone, so
    when that bound is finite every entry is, and max|K| and the defect
    wait for their first read; otherwise they are read here.  An entry
    that overflows raises AccuracyError: max|K| is then not finite."""
    np.empty((n, n))    # the reservation
    g, t, d, diag_defect = factors()
    t, delta = _antisymmetrized(t)
    if not all(np.all(np.isfinite(a)) for a in (g, t, d)):
        raise AccuracyError("operator matrix has non-finite entries")
    peaks = None
    if np.iscomplexobj(t):
        peak, defect, im = _lattice_peaks(g, t, d, delta, diag_defect)
        if im < 1e-14 * max(peak, 1e-300):
            t = np.ascontiguousarray(t.real)
        peaks = peak, defect
    else:
        # an overflow here only sends the decision to the exact peaks
        with np.errstate(over="ignore", invalid="ignore"):
            bound = np.max(np.abs(t)) * (np.max(g) - np.min(g))
        if not np.isfinite(bound):
            peaks = _lattice_peaks(g, t, d, delta, diag_defect)[:2]
    if peaks is not None and not np.isfinite(peaks[0]):
        raise AccuracyError("operator matrix has non-finite entries")
    return dict(_factors=_Factors(g, t, d), _raw_defect=(delta, diag_defect),
                _known_peaks=peaks)


def _nystrom_factors(fn: RealFunction, coords: np.ndarray,
                     profile: FourierProfile, step: float):
    """Factors of step (fn(c_i) - fn(c_j))/(c_i - c_j) profile(c_j - c_i)
    / sqrt(2 pi) on the uniform lattice c_i - c_j = (i - j) step, with the
    analytic limit step fn'(c_i) profile(0) / sqrt(2 pi) on the diagonal:
    t(m) = v(m) / (sqrt(2 pi) (-m)) for the lattice profile v, and the
    raw diagonal's defect.  The values are fn's without its offset, which
    the differences cancel."""
    values = np.array(fn.without_offset(coords), dtype=float)
    slope = fn.derivative(coords)
    m = np.arange(-(coords.size - 1), coords.size)
    v = profile.real_values(step * m)
    den = SQRT_2PI * -m
    t = np.zeros_like(v)
    # a complex quotient by a real array is the product with its
    # reciprocals in numpy; divide the parts
    for part, v_part in zip(_parts(t), _parts(v)):
        np.divide(v_part, den, out=part, where=m != 0)
    v0 = v[coords.size - 1]
    d = slope * v0.real * (1.0 / SQRT_2PI) * step
    # the raw diagonal's anti-Hermitian part: step fn' (v(0) - conj v(0))
    diag_defect = float(np.max(np.abs(slope * v0.imag)) * 2 * step / SQRT_2PI)
    return values, t, d, diag_defect


def build_nystrom_x(f: RealFunction, g: RealFunction, grid: Grid,
                    profile: FourierProfile = None) -> DiscretizedOperator:
    """Quadrature discretization of the position-space kernel.

    Entries are dx K(x_i, x_j) with the analytic limit g'(x_i) on the
    diagonal of the difference quotient.
    """
    if profile is None:
        profile = fourier_deriv(f, grid)
    return DiscretizedOperator(
        grid, grid.x, route="nystrom-x", f=f, g=g, profile=profile,
        **_commutator(grid.n, lambda: _nystrom_factors(
            g, grid.x, profile, grid.dx)))


def build_nystrom_p(f: RealFunction, g: RealFunction, grid: Grid,
                    profile: FourierProfile = None) -> DiscretizedOperator:
    """Momentum-space analogue on the momentum lattice.

    The kernel swaps roles: the difference quotient is taken in f and the
    transform is of g'.  The diagonal is dk * [g]/(2*pi) * f'(xi) by
    construction.
    """
    if profile is None:
        profile = fourier_deriv(g, grid)
    return DiscretizedOperator(
        grid, grid.k, route="nystrom-p", f=f, g=g, profile=profile,
        **_commutator(grid.n, lambda: _nystrom_factors(
            f, grid.k, profile, grid.dk)))


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
    gx = np.array(g(x), dtype=float)
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
    n = grid.n
    c = 1j * np.fft.ifft(np.fft.ifftshift(fk))    # column of i f(P)
    # i f(P) g(Q) - g(Q) i f(P) = G T - T G with T = -i f(P), whose
    # circulant c((i - j) mod N) is the Toeplitz view of 2N-1 values
    wrap = (n - 1 - np.arange(2 * n - 1)) % n
    # g without its offset, which g_i - g_j cancels
    g0 = np.array(g.without_offset(x), dtype=float)
    return DiscretizedOperator(
        grid, x, route="direct", f=f, g=g,
        **_commutator(n, lambda: (g0, -c[wrap], np.zeros(n), 0.0)))


@dataclass
class SpectralReport:
    """What one solve measured; every verdict below derives from it."""
    eigenvalues: np.ndarray    # descending: all N (dense) or k Ritz values
    trace: float
    solver: str                # "dense" | "randomized"
    # eps: certified ||K - Q B Q^H||, the norm of row 0 that couples the
    # parity split's blocks, or 0.0 from eigvalsh of the matrix
    residual_bound: float

    @property
    def min_eig(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def max_eig(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def psd_error(self) -> float:
        return _psd_error(self.eigenvalues, self.residual_bound)

    @property
    def positive(self) -> bool:
        return self.psd_error <= POSITIVITY_TOL

    def significant(self) -> np.ndarray:
        """Eigenvalues with |lambda| > RANK_THRESHOLD * max|lambda|."""
        return _significant(self.eigenvalues)

    @property
    def numerical_rank(self) -> int:
        return int(self.significant().size)

    def sign_pattern(self) -> tuple[int, int]:
        sig = self.significant()
        return int(np.sum(sig > 0)), int(np.sum(sig < 0))


def _psd_error(vals: np.ndarray, eps: float) -> float:
    """Certified (max(0, -min) + eps) / |max| of descending vals."""
    return ((max(0.0, -float(vals[-1])) + eps)
            / max(abs(float(vals[0])), 1e-300))


def _significant(vals: np.ndarray) -> np.ndarray:
    """The entries of vals with |v| > RANK_THRESHOLD * max|v|."""
    mags = np.abs(vals)
    return vals[mags > RANK_THRESHOLD * np.max(mags)]


# Randomized Rayleigh-Ritz on a block Krylov space (Halko, Martinsson &
# Tropp, SIAM Rev. 53, 2011, Alg. 4.4 with the a-posteriori bound of their
# Sec. 4.3; Musco & Musco, NeurIPS 2015), grown one block at a time
_BLOCK = 8               # block width b; dense for N < 16 b
_BUDGET = 64             # columns of Z past which the solve goes dense
_RAYLEIGH_CHUNK = 16     # columns `_rayleigh` takes at a time
_BOUND_PROBES = 10       # failure probability of a bound: 10**-probes


def _gaussian(rng, n: int, k: int, complex_: bool) -> np.ndarray:
    g = rng.standard_normal((n, k))
    if complex_:
        g = g + 1j * rng.standard_normal((n, k))
    return g


def _probes(n: int, complex_: bool) -> np.ndarray:
    """The _BOUND_PROBES Gaussian probes of an N x N matrix (complex when
    ``complex_``): the first draws of default_rng(N), so that every bound
    is deterministic.  The sketch draws from default_rng((N, 1)), a
    stream SeedSequence keeps independent of this one."""
    return _gaussian(np.random.default_rng(n), n, _BOUND_PROBES, complex_)


def _norm_bound(y: np.ndarray) -> float:
    """10 sqrt(2/pi) max_i ||y_i|| over the columns y_i = A w_i of
    _BOUND_PROBES Gaussian probes: at least ||A||_2 except with
    probability 10**-_BOUND_PROBES (Halko, Martinsson & Tropp 2011,
    Lemma 4.1); a NaN in y reads NaN.

    The norms are those of y scaled by the power of two 2^-e that puts
    max|y| in [1/2, 1), exactly (e at least -1022, so that 2^-e is
    finite), then scaled back, so that no square overflows near 1e300."""
    e = max(int(np.frexp(np.max(np.abs(y)))[1]), -1022)
    norms = np.linalg.norm(y * np.ldexp(1.0, -e), axis=0)
    return 10 * np.sqrt(2 / np.pi) * float(np.ldexp(np.max(norms), e))


def _probe_bound(op, minus=None) -> float:
    """`_norm_bound` of A = K - C on the operator's probes W and K W
    (``op._probed``, made once per operator), with C W = ``minus(W, K W)``
    and C = 0 without it: at least ||A||_2 except with probability
    10**-_BOUND_PROBES, for any C made without W.

    The solve's bounds, the norm of K against a finite-rank model and
    that of K against 0 all read this one probe set, so their failures
    are not independent; by the union bound, the bounds one run reads
    all hold except with at most the sum of their probabilities."""
    w, kw = op._probed
    return _norm_bound(kw if minus is None else kw - minus(w, kw))


def _accepts(theta: np.ndarray, eps: float) -> bool:
    """Whether descending values theta with the bound eps stand for the
    spectrum: eps <= RANK_THRESHOLD * max|theta| and positivity is
    decided, that is not psd_error above POSITIVITY_TOL with no value
    below -POSITIVITY_TOL * max, where only eps would stand between it
    and a positive verdict.  A NaN eps is refused."""
    undecided = (_psd_error(theta, eps) > POSITIVITY_TOL
                 and theta[-1] >= -POSITIVITY_TOL * abs(theta[0]))
    return eps <= RANK_THRESHOLD * np.max(np.abs(theta)) and not undecided


def _certified(m):
    """Descending Ritz values of Hermitian m (an operator: shape, dtype,
    @, ``_rayleigh`` and ``_probed``) and a bound eps such that every
    eigenvalue of m lies within eps of a Ritz value or of 0, except with
    probability 8 * 10**-_BOUND_PROBES (one probe set read at up to eight
    depths); None for N < 16 _BLOCK, or when no depth certifies.

    Depth 1 is Z = Q1 = orth(K Omega), Omega the first N x b draw of
    default_rng((N, 1)); depth j + 1 appends Q_{j+1} = orth((I - Z Z^H)
    K Q_j), two passes of block Gram-Schmidt.  Each depth reads the Ritz
    values of B = ``m._rayleigh(Z)`` and, once at most half of them are
    significant, eps = 2 ||(I - Z Z^H) K|| off the operator's probe
    product K W (`_probe_bound`).  A depth certifies when `_accepts`
    does.  The solve gives up at _BUDGET columns, or once
    every Ritz value has been significant at two depths in a row, as on
    a spectrum far from finite rank.  Deterministic: the draws are
    seeded by N.
    """
    n = m.shape[0]
    if n < 16 * _BLOCK:
        return None
    rng = np.random.default_rng((n, 1))
    q = np.linalg.qr(m @ _gaussian(rng, n, _BLOCK, np.iscomplexobj(m)))[0]
    z, was_full = q, False
    while True:
        theta = np.linalg.eigvalsh(m._rayleigh(z))[::-1]
        cols, sig = z.shape[1], _significant(theta).size
        if sig <= cols // 2:
            # ||K - Z B Z^H|| is at most twice ||(I - Z Z^H) K|| for
            # Hermitian K
            eps = 2 * _probe_bound(m, lambda w, kw: z @ (z.conj().T @ kw))
            if _accepts(theta, eps):
                return theta, eps
        full = sig == cols
        if cols >= _BUDGET or (full and was_full):
            return None
        was_full = full
        y = m @ q
        for _ in range(2):
            y -= z @ (z.conj().T @ y)
        q = np.linalg.qr(y)[0]
        z = np.hstack([z, q])


def _parity_split(op: DiscretizedOperator):
    """All N eigenvalues of an operator with parity off two dense blocks of
    N/2 and a bound eps, every eigenvalue of K within eps of one of them;
    None when the factors have no parity or `_accepts` refuses eps.

    The reflection R: j <-> N - j of 1 .. N - 1 fixes N/2, where both
    lattices put 0; index 0 has no mirror.  On a real lattice with
    g_{N-j} = -g_j and d_{N-j} = d_j bit for bit, t(-m) = -t(m) makes
    R K R = K there bit for bit, so in the basis e_{N/2}, (e_j +- e_{N-j})
    / sqrt 2 (j = 1 .. N/2 - 1) that block splits into the even block
    [K_cc, sqrt2 K_cj; sqrt2 K_jc, K_jk + K_j,N-k] (c = N/2) and the odd
    block K_jk - K_j,N-k, both read off rows 0 .. N/2 (`_rows`).  The
    third block is d_0; what couples them is row 0, b = K_0,1:, so by
    Weyl's inequality every eigenvalue of K is within eps = ||b||_2 of
    one of the merged values, deterministically."""
    g, t, d = op._factors
    if (np.iscomplexobj(t) or not np.array_equal(g[:0:-1], -g[1:])
            or not np.array_equal(d[:0:-1], d[1:])):
        return None
    n, h = op.n, op.n // 2
    rows = op._rows(0, np.empty((h + 1, n)))
    # K_jk and K_j,N-k for j, k = 1 .. h - 1
    head, mirror = rows[1:h, 1:h], rows[1:h, :h:-1]
    even = np.empty((h, h))
    even[0, 0] = rows[h, h]
    even[0, 1:] = even[1:, 0] = np.sqrt(2.0) * rows[h, 1:h]
    np.add(head, mirror, out=even[1:, 1:])
    vals = np.concatenate([np.linalg.eigvalsh(even),
                           np.linalg.eigvalsh(head - mirror), d[:1]])
    vals = np.sort(vals)[::-1]
    eps = float(np.linalg.norm(rows[0, 1:]))
    return (vals, eps) if _accepts(vals, eps) else None


def spectrum(op: DiscretizedOperator) -> SpectralReport:
    """Eigenvalues of the operator matrix, with the solver that found them.

    The operator is read as it is: a builder made it finite and exactly
    Hermitian, and the frozen operator keeps it read-only.  A certified
    randomized Rayleigh-Ritz solve runs first (`_certified`), on the
    factors K = G T - T G + D with T applied by FFT: Ritz values and a
    bound eps with every eigenvalue of that FFT-applied operator within
    eps of a Ritz value or of 0 (failure probability 8e-10: up to eight
    depths read the operator's one probe set).  Its space Z grows by 8
    columns a depth, Q_{j+1} = orth((I - Z Z^H) K Q_j) from Q1 =
    orth(K Omega).  At rank <= 4 depth 1 passes the test below, with
    Toeplitz products of 16 + 8 + 20 columns (K Omega, Q^H K Q and K W)
    and one QR, as every certified solve of the paper configs does but
    the rank-five compose pair's, which certifies at depth 2 (16
    columns).  Depth j + 1 costs 16 Toeplitz columns for K Q_j, 8 (j + 1)
    for Z^H K Z, and K W if not yet made.  The Ritz values are those of
    Z^H (G T + T^H G + D) Z, the Hermitian form `_rayleigh` reads, and
    eps covers ``op @``'s G T - T G + D; with T the FFT product these
    differ at rounding level, and both from the matrix, so eps, which
    carries that rounding, reads about 1e-13 * max|lambda| on the paper
    configs where GEMMs on the matrix read about 1e-14.  A depth is
    accepted when eps <= RANK_THRESHOLD * max|Ritz value|, at most half
    the Ritz values are significant and positivity is decided: either
    certified, or refuted by a Ritz value below -POSITIVITY_TOL * max.
    The solve gives up at 64 columns, or when every Ritz value is
    significant at two depths in a row (the Howland pair, after 16
    columns); then, and for N < 128, the solve is dense.  Where the
    factors have parity (a real lattice, g_{N-j} = -g_j and d_{N-j} =
    d_j bit for bit), `_parity_split` takes ``eigvalsh`` of the even and
    odd blocks of N/2 and N/2 - 1, read off rows 0 .. N/2, and d_0:
    every eigenvalue of the matrix lies within eps = ||K_0,1:||_2 of one
    of them (Weyl), and the split stands when the rule above accepts
    eps (Howland: eps = 3.6e-22 max|lambda|, two 512-blocks for one
    1024 x 1024 solve).  Otherwise ``eigvalsh`` of ``op.matrix`` runs,
    the only path that assembles the matrix, with eps = 0.0.  The
    report names its ``solver`` and ``residual_bound``; extremes,
    positivity (on the certified min(min_eig, 0) - eps),
    ``significant()``, rank and sign pattern derive from those and mean
    the same on every path.
    """
    ritz = _certified(op)
    solver = "dense" if ritz is None else "randomized"
    vals, eps = (ritz or _parity_split(op)
                 or (np.linalg.eigvalsh(op.matrix)[::-1], 0.0))
    return SpectralReport(vals, op.trace(), solver, eps)


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
    complex shift needs f' to have one).  It divides by [g], so a g with
    [g] = 0 raises NotApplicableError.
    """
    if op.route != "nystrom-p":
        raise RouteMismatchError("shifted traces need the momentum route")
    if op.g.variation == 0:
        raise NotApplicableError(
            "the shifted trace divides by [g], which is 0 for this g")
    w = complex(x) - complex(y)
    if w.imag:
        half = fourier_deriv(op.f, op.grid).imag_half_width
        if abs(w.imag) >= half:
            raise DivergenceError(
                f"|Im(x-y)| = {abs(w.imag):.3g} outside the moment region "
                f"|Im| < {half:.3g}")
    phases = np.exp(1j * op.coords * w)
    return complex(SQRT_2PI / op.g.variation * np.sum(op._factors.d * phases))


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
    smear_width: float


def route_agreement(op_a: DiscretizedOperator,
                    op_b: DiscretizedOperator) -> RouteAgreement:
    """Compare two position-grid routes on interior matrix elements.

    Matrix elements are taken against unit-mass Gaussian windows of width
    4*dx centered 0.5 apart at interior points (|x| < L/2), which
    expresses both operators in kernel units and filters the direct
    route's Nyquist-scale checkerboard (an artifact of the momentum-wrap
    jump of f, not a property of the operator).  Both are read from
    their factors as Rayleigh quotients (``_rayleigh``), one Toeplitz
    product of the windows each; neither matrix is read.
    Momentum-lattice operators raise RouteMismatchError.
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
    # win K win^T from one Toeplitz product of the windows
    ka, kb = (op._rayleigh(win.T) * dx for op in (op_a, op_b))
    return RouteAgreement(
        smeared_max_diff=float(np.max(np.abs(ka - kb))),
        smeared_scale=float(np.max(np.abs(kb))),
        smear_width=float(smear_width),
    )
