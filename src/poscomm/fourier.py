"""Fourier transforms of derivatives, in the fixed unitary convention.

For a bounded increasing f the object of interest is

    fhat(k) = (1/sqrt(2*pi)) * integral f'(t) exp(-i*k*t) dt,

with fhat(0) = [f]/sqrt(2*pi) ([f] itself is ``RealFunction.variation``).
A function that has fhat in closed form supplies it itself
(``RealFunction.derivative_transform``), e.g.

    f = tanh(a*t)  ->  fhat(k) = (1/sqrt(2*pi)) * pi*k / (a*sinh(pi*k/(2a))),

and every other function goes through trapezoid quadrature of sampled
f' over the window [-L, L) (the "fft" route).  The samples are spaced
dx/r, with r the smallest integer such that pi*r/dx reaches the largest
|Re k| of the call, so no real argument is aliased: a position-kernel
lattice with N >= 4L**2/pi keeps r = 1, and the momentum-kernel lattice
takes r = 2.
On a symmetric uniform lattice k_n = s*n, |n| < m (what the kernel routes
ask for), the sum is one Bluestein chirp convolution, O(N log N) through
one FFT pair; any other argument set takes the dense O(N) per-argument
sum over the same samples.
Complex arguments are supported inside the moment-finite region
|Im k| < 2*(tail decay rate of f'): exact for closed forms, fitted to the
sampled tails for quadrature profiles, and 0 (real arguments only) when
the tails are not exponential.  ``FourierProfile.imag_half_width`` is the
one source of that width, and ``FourierProfile.__call__`` the one check.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import (
    DivergenceError,
    FitQualityError,
    MonotonicityError,
    TruncationError,
)
from .functions import RealFunction, estimate_decay_rate
from .grids import SQRT_2PI, Grid

__all__ = ["FourierProfile", "fourier_deriv", "fit_exponential_strip"]


class FourierProfile:
    """Evaluation of fhat for one function, tagged by construction route."""

    def __init__(self, eval_fn: Callable, route: str, imag_half_width: float):
        self._eval = eval_fn
        self.route = route                    # "closed-form" | "fft"
        self.imag_half_width = float(imag_half_width)

    def __call__(self, u) -> complex:
        """fhat at one (complex) argument inside the moment-finite region."""
        u = complex(u)
        if u.imag and abs(u.imag) >= self.imag_half_width:
            raise DivergenceError(
                f"|Im k| = {abs(u.imag):.3g} outside the moment-finite region "
                f"|Im k| < {self.imag_half_width:.3g}")
        return complex(self._eval(np.asarray(u)))

    def real_values(self, u):
        """fhat at real arguments: a float array when every imaginary part
        is exactly 0 (f' even about 0, as a centred tanh), else complex."""
        vals = self._eval(np.asarray(u, dtype=float) + 0j)
        return vals if np.any(vals.imag) else vals.real.copy()


# 2*pi to extended precision: the double nearest it plus the remainder
_TWO_PI = np.longdouble(2 * np.pi) + np.longdouble(2.4492935982947064e-16)


def _phases(theta: float, shift: float, n: np.ndarray) -> np.ndarray:
    """exp(-i*(theta*n**2/2 - shift*n)) for integer n; the phase is
    formed from the exact int64 n**2 and reduced mod 2*pi in long double,
    so it keeps full double accuracy where theta*n**2 is large."""
    n = n.astype(np.int64)
    ph = (np.longdouble(theta) * (n * n) / 2
          - np.longdouble(shift) * n) % _TWO_PI
    return np.exp(-1j * ph.astype(float))


def _fast_len(n: int) -> int:
    """The least 11-smooth integer >= n, the length pocketfft transforms
    fastest (scipy.fft.next_fast_len's value for a complex transform)."""
    while True:
        m = n
        for p in (2, 3, 5, 7, 11):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _lattice_sum(step: float, m: int, half_width: float, dxs: float,
                 hs: np.ndarray) -> np.ndarray:
    """(dxs/sqrt(2*pi)) * sum_j hs_j exp(-i u_n x_j) at u_n = step*n,
    |n| < m, x_j = -half_width + dxs*j, as one chirp convolution.

    Bluestein (1970): n*j = (n**2 + j**2 - (n-j)**2)/2 turns the sum into
    c_n * sum_j (hs_j c_j) conj(c_{n-j}), c_k = exp(-i*theta*k**2/2),
    theta = step*dxs, evaluated by one FFT pair of a fast length.
    """
    size = hs.size
    theta = step * dxs
    span = m + size - 1                    # n - j runs over (-span, m)
    a = hs * _phases(theta, 0.0, np.arange(size))
    b = np.conj(_phases(theta, 0.0, np.arange(-(span - 1), m)))
    nfft = _fast_len(b.size)               # no wrap reaches the output
    conv = np.fft.ifft(np.fft.fft(a, nfft) * np.fft.fft(b, nfft))
    n = np.arange(-(m - 1), m)
    out = conv[size - 1:size - 1 + n.size]
    # exp(-i u_n x_j) = exp(i*step*half_width*n) exp(-i*theta*n*j)
    out *= _phases(theta, step * half_width, n)
    out *= dxs / SQRT_2PI
    return out


def fourier_deriv(fn: RealFunction, grid: Grid) -> FourierProfile:
    """FourierProfile of f' for the given function.

    A function that supplies its own transform
    (``fn.derivative_transform()``) gets that closed form; any other
    samples f' on the grid window and evaluates the transform by
    quadrature (spectrally accurate because f' must fall below 1e-12 of
    its peak at the window ends), refined by the sample-step rule of the
    module docstring.
    """
    closed = fn.derivative_transform()
    if closed is not None:
        return FourierProfile(closed[0], "closed-form", closed[1])

    x = grid.x
    h = fn.derivative(x)
    scale = max(np.max(np.abs(h)), 1e-300)
    if abs(h[0]) > 1e-12 * scale or abs(h[-1]) > 1e-12 * scale:
        raise TruncationError(
            f"derivative does not decay below 1e-12 at the window "
            f"ends (got {h[0]:.3e}, {h[-1]:.3e})")
    try:
        ihw = 2.0 * estimate_decay_rate(lambda t: np.interp(t, x, h),
                                        window=0.9 * grid.half_width).rate
    except (FitQualityError, MonotonicityError):
        ihw = 0.0          # no exponential tail: real arguments only

    samples = {1: h}

    def sampled(umax):
        """(step, samples of f') at grid.dx / r, r the smallest integer
        with pi * r / grid.dx >= umax: no real argument up to umax is
        aliased, and every grid keeps r = 1 while umax <= pi / grid.dx."""
        r = max(1, int(np.ceil(umax * grid.dx / np.pi)))
        if r not in samples:
            samples[r] = fn.derivative(
                -grid.half_width + (grid.dx / r) * np.arange(r * grid.n))
        return grid.dx / r, samples[r]

    def ev(u):
        flat = np.asarray(u, dtype=complex).ravel()
        m = (flat.size + 1) // 2
        re = flat.real
        if (flat.size > 1 and flat.size % 2 and not np.any(flat.imag)
                and np.array_equal(re, re[m] * np.arange(-(m - 1), m))):
            return _lattice_sum(re[m], m, grid.half_width,
                                *sampled((m - 1) * abs(re[m]))
                                ).reshape(np.shape(u))
        step, hs = sampled(np.max(np.abs(re), initial=0.0))
        xs = -grid.half_width + step * np.arange(hs.size)
        out = np.empty(flat.size, dtype=complex)
        chunk = max(1, 256 * grid.n // hs.size)   # 256 x N temporaries
        for i in range(0, flat.size, chunk):
            uu = flat[i:i + chunk]
            out[i:i + chunk] = \
                (np.exp(-1j * uu[:, None] * xs[None, :]) @ hs) * step / SQRT_2PI
        return out.reshape(np.shape(u))

    return FourierProfile(ev, "fft", ihw)


def fit_exponential_strip(profile: FourierProfile) -> float:
    """Analyticity strip from the exponential decay of |fhat|.

    For f analytic and bounded on |Im z| < s the transform of f' decays
    like exp(-s*|k|) (times a polynomial); fitting log(|fhat(k)|/|k|)
    against k at 800 points of [0.5, 60] returns s.  Only magnitudes
    above 1e-13 and below 1e-2 times the peak enter the fit, keeping it
    away from both the rounding floor and the non-asymptotic head.
    """
    k = np.linspace(0.5, 60.0, 800)
    v = np.abs(profile.real_values(k))
    top = v.max()
    ok = (v > 1e-13) & (v < 1e-2 * top)
    if np.count_nonzero(ok) < 16:
        raise FitQualityError("not enough decaying samples to fit a strip")
    kk, vv = k[ok], v[ok]
    design = np.vstack([np.ones_like(kk), -kk]).T
    coef, *_ = np.linalg.lstsq(design, np.log(vv / kk), rcond=None)
    return float(coef[1])
