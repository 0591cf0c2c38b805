"""Fourier transforms of derivatives, in the fixed unitary convention.

For a bounded increasing f the object of interest is

    fhat(k) = (1/sqrt(2*pi)) * integral f'(t) exp(-i*k*t) dt,

with fhat(0) = [f]/sqrt(2*pi) ([f] itself is ``RealFunction.variation``).
Catalog entries get closed forms, e.g.

    f = tanh(a*t)  ->  fhat(k) = (1/sqrt(2*pi)) * pi*k / (a*sinh(pi*k/(2a))),

everything else goes through quadrature on the grid samples (the "fft"
route; at the momentum nodes it coincides with the discrete transform).
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
    UnsupportedVariantError,
)
from .functions import (
    ArctanAffine,
    Constant,
    FunctionSum,
    RealFunction,
    ReflectedNegated,
    Sine,
    TanhAffine,
    TanhMeasure,
    _derivative_samples,
    estimate_decay_rate,
)
from .grids import SQRT_2PI, Grid

__all__ = ["FourierProfile", "fourier_deriv", "fit_exponential_strip"]


def _tanh_rate_profile(u, rate):
    """pi*u/(rate*sinh(x)), x = pi*u/(2*rate), the k-dependence for
    tanh(rate*t), and its limit 0 from |Re x| = 700 on."""
    u = np.asarray(u)
    out = np.full(u.shape, 2.0, dtype=complex)
    big = np.abs(u) >= 1e-8
    uu = u[big]
    x = np.pi * uu / (2 * rate)
    # past |Re x| = 700 the value is below 1e-300 and sinh overflows soon
    # after (np.where discards it); the exact tail would put subnormal
    # entries into the kernel, which halve the speed of BLAS products
    with np.errstate(over="ignore", invalid="ignore"):
        out[big] = np.where(np.abs(x.real) < 700,
                            np.pi * uu / (rate * np.sinh(x)), 0.0)
    return out


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
        """fhat at real arguments, returned as a complex array."""
        return self._eval(np.asarray(u, dtype=float) + 0j)


def _closed_form(fn: RealFunction):
    """Closed-form (eval, imag_half_width) or None."""
    if isinstance(fn, Constant):
        return lambda u: np.zeros_like(np.asarray(u, dtype=complex)), np.inf
    if isinstance(fn, TanhAffine):
        rate, c, s = fn.rate, fn.center, fn.scale

        def ev(u):
            u = np.asarray(u, dtype=complex)
            return s * np.exp(-1j * u * c) * _tanh_rate_profile(u, rate) / SQRT_2PI
        return ev, 2.0 * rate
    if isinstance(fn, TanhMeasure):
        rate = fn.alpha_hat
        locs, wts = fn.locations, fn.weights

        def ev(u):
            u = np.asarray(u, dtype=complex)
            base = _tanh_rate_profile(u, rate) / SQRT_2PI
            phases = np.exp(-1j * u[..., None] * locs) @ wts
            return base * phases
        return ev, 2.0 * rate
    if isinstance(fn, ArctanAffine):
        wdt, c, s = fn.width, fn.center, fn.scale

        def ev(u):
            # real arguments only: a zero half-width makes __call__
            # refuse every complex one (no exponential moments)
            u = np.asarray(u, dtype=complex)
            return s * np.exp(-1j * u * c) * np.sqrt(np.pi / 2) * \
                np.exp(-wdt * np.abs(u.real))
        return ev, 0.0
    if isinstance(fn, ReflectedNegated):
        inner = _closed_form(fn.fn)
        if inner is None:
            return None
        ev0, ihw = inner

        def ev(u):
            u = np.asarray(u, dtype=complex)
            return ev0(-u)   # FT of f'(-t) is fhat(-u)
        return ev, ihw
    if isinstance(fn, FunctionSum):
        parts = [_closed_form(t) for t in fn.terms]
        if any(p is None for p in parts):
            return None
        evs = [p[0] for p in parts]

        def ev(u):
            return sum(e(u) for e in evs)
        return ev, min(p[1] for p in parts)
    return None


def fourier_deriv(fn: RealFunction, grid: Grid) -> FourierProfile:
    """FourierProfile of f' for the given function.

    Catalog entries use closed forms; anything else samples f' on the
    grid and evaluates the transform by quadrature (spectrally accurate
    because f' must fall below 1e-12 of its peak at the window ends).
    """
    if isinstance(fn, Sine):
        raise UnsupportedVariantError(
            "sine has a distributional derivative transform; use the "
            "direct functional-calculus route instead")
    cf = _closed_form(fn)
    if cf is not None:
        ev, ihw = cf
        return FourierProfile(ev, "closed-form", ihw)

    x = grid.x
    h = _derivative_samples(fn, x)
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

    dx = grid.dx

    def ev(u):
        flat = np.asarray(u, dtype=complex).ravel()
        out = np.empty(flat.size, dtype=complex)
        chunk = 256
        for i in range(0, flat.size, chunk):
            uu = flat[i:i + chunk]
            out[i:i + chunk] = \
                (np.exp(-1j * uu[:, None] * x[None, :]) @ h) * dx / SQRT_2PI
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
