"""Bounded real functions, tanh-measure representations, and strip diagnostics.

The central object is the class of bounded increasing functions that can be
written as

    f(t) = sum_i w_i * tanh(alpha_hat * (t - s_i)) + d,      w_i >= 0,

with rate alpha_hat tied to the strip half-width alpha by
alpha * alpha_hat = pi/2.  Such functions continue analytically to
|Im z| < alpha with Im f(z) * Im z >= 0.  The module provides closed-form
catalog entries, atomic tanh measures, sampled functions, mollifiers that
land in the class, exponential-moment and decay diagnostics, and a
nonnegative-deconvolution fitter for the inverse problem.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import nnls

from .errors import (
    ConditioningWarning,
    DerivativeRequiredError,
    FitQualityError,
    MonotonicityError,
    SignConstraintError,
    StripViolationError,
    TruncationError,
    UnsupportedVariantError,
)
from .grids import DEFAULT_WINDOW, centered_difference

__all__ = [
    "RealFunction",
    "Constant",
    "TanhAffine",
    "ArctanAffine",
    "Sine",
    "FunctionSum",
    "TanhMeasure",
    "Sampled",
    "GaussianSmoothed",
    "ReflectedNegated",
    "cosh_mollify",
    "gaussian_mollify",
    "exp_moment",
    "estimate_decay_rate",
    "herglotz_check",
    "fit_tanh_measure",
    "function_from_samples",
]


class RealFunction:
    """Base class: a bounded real function of one real variable.

    Subclasses fill in ``_eval_real`` and, when an analytic continuation
    exists, ``_eval_complex``.  ``limits`` holds (f(-inf), f(+inf)) when
    the function has limits, else None.  ``strip_half_width`` carries the
    Herglotz claim; ``eval_strip_half_width`` bounds where complex
    evaluation is defined (they differ for meromorphic entries).
    """

    monotone = False
    limits = None
    #: half-width of the strip where the Herglotz property Im f * Im z >= 0
    #: is claimed; 0.0 when the function makes no such claim.
    strip_half_width = 0.0

    def _eval_real(self, t):
        raise NotImplementedError

    def _eval_complex(self, z):
        raise UnsupportedVariantError(
            f"{type(self).__name__} does not support complex evaluation"
        )

    @property
    def eval_strip_half_width(self) -> float:
        """Where complex evaluation is defined.

        Meromorphic catalog entries override this with np.inf: they stay
        evaluable past the Herglotz strip (that is what lets the strip
        diagnostics falsify an over-claimed strip), while branch cuts and
        sample-only representations keep the evaluation region tight.
        """
        return self.strip_half_width

    def __call__(self, z):
        if np.iscomplexobj(z):
            zz = np.asarray(z)
            width = self.eval_strip_half_width
            if width > 0 and np.any(np.abs(zz.imag) >= width):
                raise StripViolationError(
                    f"argument outside strip |Im z| < {width}")
            # width == 0: let the variant report how it fails (sampled
            # representations raise UnsupportedVariantError)
            return self._eval_complex(zz if zz.ndim else complex(z))
        return self._eval_real(np.asarray(z, dtype=float) if np.ndim(z) else float(z))

    def derivative(self, t):
        raise DerivativeRequiredError(
            f"{type(self).__name__} carries no derivative"
        )

    @property
    def variation(self) -> float:
        """Total variation [f] = f(+inf) - f(-inf) for monotone entries."""
        if self.limits is None:
            raise UnsupportedVariantError("function has no limits at infinity")
        lo, hi = self.limits
        return hi - lo


class Constant(RealFunction):
    monotone = True  # weakly
    strip_half_width = np.inf

    def __init__(self, value: float):
        self.value = float(value)
        self.limits = (self.value, self.value)

    def _eval_real(self, t):
        return self.value * np.ones_like(t) if np.ndim(t) else self.value

    def _eval_complex(self, z):
        return self.value + 0j * z

    def derivative(self, t):
        return np.zeros_like(t) if np.ndim(t) else 0.0


class TanhAffine(RealFunction):
    """scale * tanh(rate * (t - center)) + offset, with rate > 0.

    Strip half-width pi/(2*rate): the first poles of tanh(rate*z) sit at
    Im z = +-pi/(2*rate).
    """

    def __init__(self, rate: float = 1.0, center: float = 0.0,
                 scale: float = 1.0, offset: float = 0.0):
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.center = float(center)
        self.scale = float(scale)
        self.offset = float(offset)
        self.monotone = self.scale > 0
        self.limits = (offset - scale, offset + scale) if scale >= 0 else (
            offset + scale, offset - scale)
        self.strip_half_width = np.pi / (2 * self.rate)

    @property
    def eval_strip_half_width(self):
        return np.inf      # meromorphic; poles handled by tanh itself

    def _eval_real(self, t):
        return self.scale * np.tanh(self.rate * (t - self.center)) + self.offset

    _eval_complex = _eval_real

    def derivative(self, t):
        with np.errstate(over="ignore"):    # cosh(y)**2 = inf: the limit 0
            return self.scale * self.rate / np.cosh(self.rate * (t - self.center)) ** 2


class ArctanAffine(RealFunction):
    """scale * arctan((t - center)/width) + offset, width > 0.

    Branch points of arctan(z/width) at z = +-i*width bound the strip.
    """

    def __init__(self, width: float = 2.0, center: float = 0.0,
                 scale: float = 1.0, offset: float = 0.0):
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = float(width)
        self.center = float(center)
        self.scale = float(scale)
        self.offset = float(offset)
        self.monotone = self.scale > 0
        half = self.scale * np.pi / 2
        self.limits = (offset - half, offset + half) if half >= 0 else (
            offset + half, offset - half)
        self.strip_half_width = self.width

    def _eval_real(self, t):
        return self.scale * np.arctan((t - self.center) / self.width) + self.offset

    _eval_complex = _eval_real

    def derivative(self, t):
        u = (t - self.center) / self.width
        return self.scale / (self.width * (1.0 + u * u))


class Sine(RealFunction):
    """amplitude * sin(frequency*t + phase); periodic, no limits, entire."""

    monotone = False
    strip_half_width = np.inf

    def __init__(self, frequency: float = 1.0, amplitude: float = 1.0,
                 phase: float = 0.0):
        self.frequency = float(frequency)
        self.amplitude = float(amplitude)
        self.phase = float(phase)

    @property
    def period(self) -> float:
        return 2 * np.pi / abs(self.frequency)

    def _eval_real(self, t):
        return self.amplitude * np.sin(self.frequency * t + self.phase)

    _eval_complex = _eval_real

    def derivative(self, t):
        return self.amplitude * self.frequency * np.cos(self.frequency * t + self.phase)


class FunctionSum(RealFunction):
    """Finite sum of catalog functions."""

    def __init__(self, terms: Sequence[RealFunction]):
        if not terms:
            raise ValueError("empty sum")
        self.terms = list(terms)
        self.monotone = all(t.monotone for t in self.terms)
        if all(t.limits is not None for t in self.terms):
            self.limits = (sum(t.limits[0] for t in self.terms),
                           sum(t.limits[1] for t in self.terms))
        self.strip_half_width = min(t.strip_half_width for t in self.terms)

    @property
    def eval_strip_half_width(self):
        return min(t.eval_strip_half_width for t in self.terms)

    def _eval_real(self, t):
        return sum(term(t) for term in self.terms)

    _eval_complex = _eval_real

    def derivative(self, t):
        return sum(term.derivative(t) for term in self.terms)


class ReflectedNegated(RealFunction):
    """r(t) = -f(-t); preserves monotonicity and the variation bracket."""

    def __init__(self, fn: RealFunction):
        self.fn = fn
        self.monotone = fn.monotone
        if fn.limits is not None:
            self.limits = (-fn.limits[1], -fn.limits[0])
        self.strip_half_width = fn.strip_half_width

    @property
    def eval_strip_half_width(self):
        return self.fn.eval_strip_half_width

    def _eval_real(self, t):
        return -self.fn(-t)

    _eval_complex = _eval_real

    def derivative(self, t):
        return self.fn.derivative(-t)


@dataclass(frozen=True)
class EffectiveAtom:
    location: float
    weight: float


class TanhMeasure(RealFunction):
    """Finite nonnegative atomic measure plus offset and strip half-width.

    eval(t) = sum_i w_i * tanh(alpha_hat*(t - s_i)) + d with w_i >= 0 and
    alpha * alpha_hat = pi/2 exactly.
    """

    monotone = True

    def __init__(self, locations, weights, offset: float = 0.0,
                 alpha: float = np.pi / 2):
        locations = np.atleast_1d(np.asarray(locations, dtype=float))
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if locations.shape != weights.shape:
            raise ValueError("locations and weights must have equal length")
        if np.any(weights < 0):
            raise SignConstraintError("tanh-measure weights must be nonnegative")
        if alpha <= 0:
            raise ValueError("strip half-width alpha must be positive")
        order = np.argsort(locations)
        self.locations = locations[order]
        self.weights = weights[order]
        self.offset = float(offset)
        self.alpha = float(alpha)
        self.strip_half_width = self.alpha
        total = float(self.weights.sum())
        self.limits = (self.offset - total, self.offset + total)

    @property
    def eval_strip_half_width(self):
        return np.inf      # finite sum of tanh terms, meromorphic

    @property
    def alpha_hat(self) -> float:
        return np.pi / (2 * self.alpha)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def _eval_real(self, t):
        arg = self.alpha_hat * (np.asarray(t, dtype=float)[..., None] - self.locations)
        out = np.tanh(arg) @ self.weights + self.offset
        return out if np.ndim(t) else float(out)

    def _eval_complex(self, z):
        arg = self.alpha_hat * (np.asarray(z)[..., None] - self.locations)
        out = np.tanh(arg) @ self.weights + self.offset
        return out if np.ndim(z) else complex(out)

    def derivative(self, t):
        arg = self.alpha_hat * (np.asarray(t, dtype=float)[..., None] - self.locations)
        with np.errstate(over="ignore"):    # cosh(y)**2 = inf: the limit 0
            out = (self.alpha_hat / np.cosh(arg) ** 2) @ self.weights
        return out if np.ndim(t) else float(out)

    def clustered(self, min_gap: float = None) -> list[EffectiveAtom]:
        """Group neighboring atoms into effective atoms.

        Atoms closer than ``min_gap`` (default: one kernel width
        1/alpha_hat) merge into a single atom at the weighted centroid.
        """
        if min_gap is None:
            min_gap = 1.0 / self.alpha_hat
        keep = self.weights > 1e-12 * max(self.total_mass, 1e-300)
        locs, wts = self.locations[keep], self.weights[keep]
        if locs.size == 0:
            return []
        clusters = []
        start = 0
        for i in range(1, locs.size + 1):
            if i == locs.size or locs[i] - locs[i - 1] > min_gap:
                w = wts[start:i].sum()
                c = float(np.sum(locs[start:i] * wts[start:i]) / w)
                clusters.append(EffectiveAtom(c, float(w)))
                start = i
        return clusters


class Sampled(RealFunction):
    """Grid samples with linear interpolation, clamped beyond the window."""

    def __init__(self, nodes, values):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape:
            raise ValueError("nodes and values must be equal-length 1-d arrays")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("sample nodes must be strictly increasing")
        self.nodes = nodes
        self.values = values
        self.limits = (values[0], values[-1])
        self.monotone = bool(np.all(np.diff(values) >= -1e-12))
        self.strip_half_width = 0.0
        spacing = np.diff(nodes)
        if np.allclose(spacing, spacing[0], rtol=1e-9, atol=0) and nodes.size >= 7:
            self._deriv = centered_difference(values, float(spacing[0]))
        else:
            self._deriv = np.gradient(values, nodes, edge_order=2)

    def _eval_real(self, t):
        return np.interp(t, self.nodes, self.values)

    def derivative(self, t):
        return np.interp(t, self.nodes, self._deriv)


class GaussianSmoothed(RealFunction):
    """Convolution with the unit Gaussian of the given width; entire.

    Real evaluation uses Gauss-Hermite quadrature against the kernel.
    Complex evaluation integrates the shifted Gaussian against real
    samples of the inner function, which is what makes any strip
    reachable even when the inner function itself has none.
    """

    _GH_NODES = 96
    _GL_NODES = 480

    def __init__(self, fn: RealFunction, width: float):
        if width <= 0:
            raise ValueError("width must be positive")
        self.fn = fn
        self.width = float(width)
        self.monotone = fn.monotone
        self.limits = fn.limits
        self.strip_half_width = np.inf
        u, w = np.polynomial.hermite_e.hermegauss(self._GH_NODES)
        # probabilists' Hermite: integral f(t - width*u) exp(-u^2/2)/sqrt(2pi)
        self._gh_u = u
        self._gh_w = w / np.sqrt(2 * np.pi)
        gl_x, gl_w = leggauss(self._GL_NODES)
        self._gl_x = gl_x
        self._gl_w = gl_w

    def _eval_real(self, t):
        t = np.asarray(t, dtype=float)
        shifted = t[..., None] - self.width * self._gh_u
        out = self.fn(shifted) @ self._gh_w
        return out if out.ndim else float(out)

    def _eval_complex(self, z):
        z = np.asarray(z)
        span = 14.0 * self.width + np.max(np.abs(z.imag)) if z.ndim else \
            14.0 * self.width + abs(complex(z).imag)
        centers = z.real
        half = span
        s = centers[..., None] + half * self._gl_x if z.ndim else \
            float(centers) + half * self._gl_x
        fvals = self.fn(s)
        kern = np.exp(-((z[..., None] - s) ** 2) / (2 * self.width ** 2)) / (
            self.width * np.sqrt(2 * np.pi))
        out = np.sum(kern * fvals * (half * self._gl_w), axis=-1)
        return out if np.ndim(z) else complex(out)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        shifted = t[..., None] - self.width * self._gh_u
        try:
            out = self.fn.derivative(shifted) @ self._gh_w
        except DerivativeRequiredError:
            # differentiate the kernel: d/dt (psi_w * f) = -(1/w) E[u f(t-wu)]
            out = -(self.fn(shifted) * (self._gh_u / self.width)) @ self._gh_w
        return out if out.ndim else float(out)


def _derivative_samples(fn: RealFunction, t: np.ndarray) -> np.ndarray:
    try:
        return np.asarray(fn.derivative(t), dtype=float)
    except DerivativeRequiredError:
        dt = t[1] - t[0]
        return centered_difference(np.asarray(fn(t), dtype=float), dt)


def _require_limits(fn: RealFunction):
    if fn.limits is None:
        raise UnsupportedVariantError("function needs limits at +-infinity")
    return fn.limits


def cosh_mollify(fn: RealFunction, epsilon: float,
                 window: float = DEFAULT_WINDOW) -> TanhMeasure:
    """Mollify with the kernel (2*eps)^-1 * cosh^-2(t/eps).

    Integration by parts turns the convolution into an atomic tanh
    representation with rate 1/eps, measure (1/2) f'(s) ds discretized by
    the midpoint rule on 4096 atoms over [-window, window], and offset
    (f(+inf)+f(-inf))/2.  The result lives in the class with strip
    half-width pi*eps/2.  A derivative tail beyond the window holding more
    than 1e-8 * max([f]/2, 1) of the mass raises TruncationError.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not fn.monotone:
        raise MonotonicityError("cosh mollifier requires a monotone increasing input")
    lo, hi = _require_limits(fn)
    delta = 2.0 * window / 4096
    s = -window + delta * (np.arange(4096) + 0.5)
    fprime = _derivative_samples(fn, s)
    if np.any(fprime < -1e-12 * max(abs(hi - lo), 1.0)):
        raise MonotonicityError("derivative samples are negative")
    weights = 0.5 * np.clip(fprime, 0.0, None) * delta
    target = 0.5 * (hi - lo)
    deficit = target - weights.sum()
    if abs(deficit) > 1e-8 * max(target, 1.0):
        raise TruncationError(
            f"derivative tail beyond |t|={window} holds mass {deficit:.3e}",
            deficit=float(deficit),
        )
    keep = weights > 1e-18 * max(weights.max(), 1e-300)
    return TanhMeasure(s[keep], weights[keep],
                       offset=0.5 * (hi + lo), alpha=np.pi * epsilon / 2)


def gaussian_mollify(fn: RealFunction, width: float) -> GaussianSmoothed:
    """Convolve with the unit-mass Gaussian of the given width."""
    return GaussianSmoothed(fn, width)


class MomentResult(NamedTuple):
    value: float
    diverged: bool


def exp_moment(fn_deriv, b: float, window: float = 30.0) -> MomentResult:
    """integral of f'(t) * exp(2*b*t) over [-window, window].

    Trapezoid rule on 4001 equispaced samples.  ``fn_deriv`` is the
    derivative (callable or RealFunction).  The
    divergence flag is set when the integrand is still growing at the
    window edge, i.e. the infinite integral cannot be finite.
    """
    if not 0 < window < np.inf:
        raise ValueError(f"window must be positive and finite, got {window!r}")
    t = np.linspace(-window, window, 4001)
    fp = np.asarray(fn_deriv(t), dtype=float)
    scale = np.max(np.abs(fp))
    if np.any(fp < -1e-10 * max(scale, 1.0)):
        raise MonotonicityError("derivative must be nonnegative on the window")
    integrand = fp * np.exp(2.0 * b * t)
    value = float(np.trapezoid(integrand, t))
    edge = max(integrand[0], integrand[-1])
    inner = max(integrand[t.size // 5], integrand[-1 - t.size // 5])
    diverged = bool(edge > inner and edge > 1e-300)
    return MomentResult(value, diverged)


class DecayFit(NamedTuple):
    rate: float           # beta in f'(t) ~ C_+- exp(-2*beta*|t|)
    strip: float          # pi/(2*beta), the tanh-representation strip
    rms_residual: float


def estimate_decay_rate(fn_deriv,
                        window: float = DEFAULT_WINDOW) -> DecayFit:
    """Fit f'(t) ~ C_+- exp(-2*beta*|t|) on the outer half of the window.

    Least squares on log f' at 200 points of each tail, with a constant
    C_+ or C_- per tail (they differ when f' is not even) and one rate
    beta.  A non-exponential tail (e.g. a Lorentzian) leaves an rms
    residual above 1e-3 and raises FitQualityError carrying it.  The
    companion strip pi/(2*beta) is the strip of a tanh representation
    with rate beta, so that strip * rate = pi/2 by construction.
    """
    t = np.linspace(window / 2, window, 200)
    vp = np.asarray(fn_deriv(t), dtype=float)
    vm = np.asarray(fn_deriv(-t), dtype=float)
    if np.any(vp <= 0) or np.any(vm <= 0):
        raise MonotonicityError("derivative must be positive on the fit window")
    y = np.log(np.concatenate([vp, vm]))
    a = np.concatenate([t, t])
    right = np.repeat([1.0, 0.0], t.size)
    design = np.vstack([right, 1.0 - right, -2.0 * a]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    rms = float(np.sqrt(np.mean(resid ** 2)))
    if rms > 1e-3:
        raise FitQualityError(
            f"tail is not exponential (rms residual {rms:.3e})", residual=rms)
    beta = float(coef[2])
    return DecayFit(beta, np.pi / (2 * beta), rms)


class HerglotzReport(NamedTuple):
    min_imag: float
    argmin: complex
    passed: bool


def herglotz_check(fn: RealFunction, alpha: float, samples: int = 40,
                   window: float = DEFAULT_WINDOW) -> HerglotzReport:
    """Sample Im f on a lattice in the upper half-strip 0 < Im z < 0.95*alpha.

    Passes iff the minimum sampled imaginary part is >= -1e-10.  Strip
    violations from evaluation propagate.
    """
    xs = np.linspace(-window, window, 2 * samples + 1)
    ys = 0.95 * alpha * np.arange(1, samples + 1) / samples
    z = xs[None, :] + 1j * ys[:, None]
    vals = np.asarray(fn(z)).imag
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    m = float(vals[i, j])
    return HerglotzReport(m, complex(z[i, j]), m >= -1e-10)


class MeasureFit(NamedTuple):
    measure: TanhMeasure
    residual: float
    member: bool
    clusters: list


def fit_tanh_measure(fn_or_samples, alpha: float, atom_grid,
                     membership_tol: float = 1e-4) -> MeasureFit:
    """Nonnegative deconvolution of f' against sech^2 kernels.

    Solves min ||A w - f'||_2 subject to w >= 0 where
    A[:, i] = alpha_hat * sech^2(alpha_hat*(t - s_i)) and
    alpha_hat = pi/(2*alpha); the offset comes from the midpoint of the
    limits.  A RealFunction is sampled at 481 points of [-12, 12]; an
    (n, 2) array of (t, f(t)) becomes ``Sampled(t, f)`` sampled at its
    own t.  The verdict ``member`` is residual < membership_tol
    (relative L2 on the sample set); an unrepresentable function is a
    non-membership verdict, not an error.
    """
    atom_grid = np.asarray(atom_grid, dtype=float)
    if atom_grid.size < 2:
        raise ValueError("need at least two atom locations")
    if not 0 < alpha < np.inf:
        raise ValueError(f"alpha must be positive and finite, got {alpha!r}")
    spacing = np.min(np.diff(np.sort(atom_grid)))
    alpha_hat = np.pi / (2 * alpha)
    if spacing < 0.1 / alpha_hat - 1e-12:
        warnings.warn(
            f"atom spacing {spacing:.3g} is below a tenth of the kernel "
            f"width {1/alpha_hat:.3g}; the fit may be ill-conditioned",
            ConditioningWarning,
        )
    if isinstance(fn_or_samples, RealFunction):
        fn = fn_or_samples
        t = np.linspace(-DEFAULT_WINDOW / 2, DEFAULT_WINDOW / 2, 481)
    else:
        arr = np.asarray(fn_or_samples, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ValueError("samples must be an (n, 2) array of (t, f(t))")
        t = arr[:, 0]
        fn = Sampled(t, arr[:, 1])
    b = _derivative_samples(fn, t)
    lo, hi = _require_limits(fn)
    d = 0.5 * (lo + hi)
    design = alpha_hat / np.cosh(alpha_hat * (t[:, None] - atom_grid[None, :])) ** 2
    w, rnorm = nnls(design, b)
    residual = float(rnorm / max(np.linalg.norm(b), 1e-300))
    measure = TanhMeasure(atom_grid, w, offset=d, alpha=alpha)
    return MeasureFit(measure, residual, residual < membership_tol,
                      measure.clustered())


def function_from_samples(path) -> Sampled:
    """Load the CLI sample-file format: two columns (t, f(t)), increasing t."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("sample file must have two columns: t, f(t)")
    return Sampled(data[:, 0], data[:, 1])
