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

from .errors import (
    AccuracyError,
    ConditioningWarning,
    DerivativeRequiredError,
    FitQualityError,
    MonotonicityError,
    SignConstraintError,
    StripViolationError,
    TruncationError,
    UnsupportedVariantError,
)
from .grids import DEFAULT_WINDOW, SQRT_2PI, centered_difference

__all__ = [
    "RealFunction",
    "Constant",
    "TanhAffine",
    "ArctanAffine",
    "Sine",
    "FunctionSum",
    "TanhMeasure",
    "Sampled",
    "ReflectedNegated",
    "cosh_mollify",
    "exp_moment",
    "estimate_decay_rate",
    "herglotz_check",
    "fit_tanh_measure",
    "function_from_samples",
]


def _require_finite(**params):
    """Raise ValueError naming the first parameter that is not finite."""
    for name, value in params.items():
        if not np.all(np.isfinite(value)):
            raise ValueError(f"{name} must be finite, got {value!r}")


class RealFunction:
    """Base class: a bounded real function of one real variable.

    The protocol, each part supplied by the function itself:

    * ``_eval_real`` (required) and ``_eval_complex``, when an analytic
      continuation exists;
    * ``derivative``, f' (required wherever f' is read: it is never
      differenced numerically);
    * ``derivative_transform``, fhat (the unitary transform of f') in
      closed form with the half-width of the strip |Im k| where it is
      finite, or None, and then ``fourier`` takes quadrature of f' (a
      sine, whose fhat is a distribution, raises instead);
    * ``without_offset``, f with its explicit constant offset left out;
    * ``limits``, (f(-inf), f(+inf)) when the function has limits, else
      None, and ``monotone``;
    * ``strip_half_width``, the one strip: where the Herglotz property
      Im f * Im z >= 0 is claimed.  Meromorphic entries evaluate past it
      (that is what lets the strip diagnostics falsify an over-claimed
      strip); a continuation with branch points refuses arguments past
      them itself, with StripViolationError.
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

    def __call__(self, z):
        if np.iscomplexobj(z):
            zz = np.asarray(z)
            return self._eval_complex(zz if zz.ndim else complex(z))
        return self._eval_real(np.asarray(z, dtype=float) if np.ndim(z) else float(z))

    def without_offset(self, t):
        """The function at real t with its explicit constant offset, if it
        has one, left out: differences of these values carry none of the
        offset's rounding."""
        return self(t)

    def derivative(self, t):
        raise DerivativeRequiredError(
            f"{type(self).__name__} carries no derivative"
        )

    def derivative_transform(self):
        """(fhat, imag_half_width) in closed form, or None: no closed form."""
        return None

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
        _require_finite(value=value)
        self.value = float(value)
        self.limits = (self.value, self.value)

    def _eval_real(self, t):
        return self.value * np.ones_like(t) if np.ndim(t) else self.value

    def without_offset(self, t):
        return np.zeros(np.shape(t)) if np.ndim(t) else 0.0

    def _eval_complex(self, z):
        return self.value + 0j * z

    def derivative(self, t):
        return np.zeros_like(t) if np.ndim(t) else 0.0

    def derivative_transform(self):
        return lambda u: np.zeros_like(np.asarray(u, dtype=complex)), np.inf


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


class TanhAffine(RealFunction):
    """scale * tanh(rate * (t - center)) + offset, with rate > 0.

    Strip half-width pi/(2*rate): the first poles of tanh(rate*z) sit at
    Im z = +-pi/(2*rate).
    """

    def __init__(self, rate: float = 1.0, center: float = 0.0,
                 scale: float = 1.0, offset: float = 0.0):
        _require_finite(rate=rate, center=center, scale=scale, offset=offset)
        if rate <= 0:
            raise ValueError("rate must be positive")
        self.rate = float(rate)
        self.center = float(center)
        self.scale = float(scale)
        self.offset = float(offset)
        self.monotone = self.scale > 0
        self.limits = (self.offset - self.scale, self.offset + self.scale)
        self.strip_half_width = np.pi / (2 * self.rate)

    def without_offset(self, t):
        return self.scale * np.tanh(self.rate * (t - self.center))

    def _eval_real(self, t):
        return self.without_offset(t) + self.offset

    _eval_complex = _eval_real

    def derivative(self, t):
        with np.errstate(over="ignore"):    # cosh(y)**2 = inf: the limit 0
            return self.scale * self.rate / np.cosh(self.rate * (t - self.center)) ** 2

    def derivative_transform(self):
        def fhat(u):
            u = np.asarray(u, dtype=complex)
            return (self.scale * np.exp(-1j * u * self.center)
                    * _tanh_rate_profile(u, self.rate) / SQRT_2PI)
        return fhat, 2.0 * self.rate


class ArctanAffine(RealFunction):
    """scale * arctan((t - center)/width) + offset, width > 0.

    Branch points of arctan(z/width) at z = +-i*width bound the strip.
    """

    def __init__(self, width: float = 2.0, center: float = 0.0,
                 scale: float = 1.0, offset: float = 0.0):
        _require_finite(width=width, center=center, scale=scale, offset=offset)
        if width <= 0:
            raise ValueError("width must be positive")
        self.width = float(width)
        self.center = float(center)
        self.scale = float(scale)
        self.offset = float(offset)
        self.monotone = self.scale > 0
        half = self.scale * np.pi / 2
        self.limits = (self.offset - half, self.offset + half)
        self.strip_half_width = self.width

    def without_offset(self, t):
        return self.scale * np.arctan((t - self.center) / self.width)

    def _eval_real(self, t):
        return self.without_offset(t) + self.offset

    def _eval_complex(self, z):
        if np.any(np.abs(np.imag(z)) >= self.width):
            raise StripViolationError(
                f"argument outside strip |Im z| < {self.width}")
        return self._eval_real(z)

    def derivative(self, t):
        u = (t - self.center) / self.width
        return self.scale / (self.width * (1.0 + u * u))

    def derivative_transform(self):
        def fhat(u):
            # real arguments only: a zero half-width makes FourierProfile
            # refuse every complex one (no exponential moments)
            u = np.asarray(u, dtype=complex)
            return (self.scale * np.exp(-1j * u * self.center)
                    * np.sqrt(np.pi / 2) * np.exp(-self.width * np.abs(u.real)))
        return fhat, 0.0


class Sine(RealFunction):
    """amplitude * sin(frequency*t + phase); periodic, no limits, entire."""

    monotone = False
    strip_half_width = np.inf

    def __init__(self, frequency: float = 1.0, amplitude: float = 1.0,
                 phase: float = 0.0):
        _require_finite(frequency=frequency, amplitude=amplitude, phase=phase)
        self.frequency = float(frequency)
        self.amplitude = float(amplitude)
        self.phase = float(phase)

    def _eval_real(self, t):
        return self.amplitude * np.sin(self.frequency * t + self.phase)

    _eval_complex = _eval_real

    def derivative(self, t):
        return self.amplitude * self.frequency * np.cos(self.frequency * t + self.phase)

    def derivative_transform(self):
        raise UnsupportedVariantError(
            "sine has a distributional derivative transform; use the "
            "direct functional-calculus route instead")


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

    def without_offset(self, t):
        return sum(term.without_offset(t) for term in self.terms)

    def _eval_real(self, t):
        return sum(term(t) for term in self.terms)

    _eval_complex = _eval_real

    def derivative(self, t):
        return sum(term.derivative(t) for term in self.terms)

    def derivative_transform(self):
        parts = [term.derivative_transform() for term in self.terms]
        if any(p is None for p in parts):
            return None
        return (lambda u: sum(fhat(u) for fhat, _ in parts),
                min(width for _, width in parts))


class ReflectedNegated(RealFunction):
    """r(t) = -f(-t); preserves monotonicity and the variation bracket."""

    def __init__(self, fn: RealFunction):
        self.fn = fn
        self.monotone = fn.monotone
        if fn.limits is not None:
            self.limits = (-fn.limits[1], -fn.limits[0])
        self.strip_half_width = fn.strip_half_width

    def _eval_real(self, t):
        return -self.fn(-t)

    _eval_complex = _eval_real

    def derivative(self, t):
        return self.fn.derivative(-t)

    def derivative_transform(self):
        inner = self.fn.derivative_transform()
        if inner is None:
            return None
        fhat, width = inner
        # the transform of f'(-t) is fhat(-u)
        return lambda u: fhat(-np.asarray(u, dtype=complex)), width


#: points x atoms per block of a tanh measure's atom sums: 2 MB complex
_ATOM_BLOCK = 1 << 17


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
        _require_finite(locations=locations, weights=weights, offset=offset,
                        alpha=alpha)
        if np.any(weights < 0):
            raise SignConstraintError("tanh-measure weights must be nonnegative")
        if alpha <= 0 or np.pi / (2 * alpha) == 0:
            raise ValueError("strip half-width alpha must be positive, "
                             f"with a nonzero rate pi/(2*alpha), got {alpha!r}")
        order = np.argsort(locations)
        self.locations = locations[order]
        self.weights = weights[order]
        self.offset = float(offset)
        self.alpha = float(alpha)
        self.strip_half_width = self.alpha
        total = float(self.weights.sum())
        self.limits = (self.offset - total, self.offset + total)

    @property
    def alpha_hat(self) -> float:
        return np.pi / (2 * self.alpha)

    @property
    def total_mass(self) -> float:
        return float(self.weights.sum())

    def _atom_sum(self, z, term):
        """sum_i w_i * term(z)_i, where term maps the column z[..., None]
        to one value per atom.  Past _ATOM_BLOCK entries of points x atoms
        the flattened z goes through in blocks, so a measure with many
        atoms holds no points x atoms temporary; a measure of a few atoms
        takes every call the kernel routes make in one block."""
        z = np.asarray(z)
        if z.size * self.locations.size <= _ATOM_BLOCK:
            return term(z[..., None]) @ self.weights
        flat = z.ravel()
        rows = max(1, _ATOM_BLOCK // self.locations.size)
        return np.concatenate([term(flat[i:i + rows, None]) @ self.weights
                               for i in range(0, flat.size, rows)]
                              ).reshape(z.shape)

    def without_offset(self, t):
        a = self.alpha_hat
        return self._atom_sum(t, lambda c: np.tanh(a * (c - self.locations)))

    def _eval_real(self, t):
        out = self.without_offset(t) + self.offset
        return out if np.ndim(t) else out.item()

    _eval_complex = _eval_real

    def derivative(self, t):
        a = self.alpha_hat
        with np.errstate(over="ignore"):    # cosh(y)**2 = inf: the limit 0
            out = self._atom_sum(np.asarray(t, dtype=float), lambda c:
                                 a / np.cosh(a * (c - self.locations)) ** 2)
        return out if np.ndim(t) else float(out)

    def derivative_transform(self):
        rate = self.alpha_hat

        def fhat(u):
            u = np.asarray(u, dtype=complex)
            base = _tanh_rate_profile(u, rate) / SQRT_2PI
            return base * self._atom_sum(
                u, lambda c: np.exp(-1j * c * self.locations))
        return fhat, 2.0 * rate

    def clustered(self) -> list[EffectiveAtom]:
        """Group neighboring atoms into effective atoms.

        Atoms closer than one kernel width 1/alpha_hat merge into a single
        atom at the weighted centroid.
        """
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
        if not (np.all(np.isfinite(nodes)) and np.all(np.isfinite(values))):
            raise ValueError("sample nodes and values must be finite")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("sample nodes must be strictly increasing")
        self.nodes = nodes
        self.values = values
        self.limits = (values[0], values[-1])
        self.monotone = bool(np.all(np.diff(values) >= -1e-12))
        spacing = np.diff(nodes)
        if np.allclose(spacing, spacing[0], rtol=1e-9, atol=0) and nodes.size >= 7:
            self._deriv = centered_difference(values, float(spacing[0]))
        else:
            self._deriv = np.gradient(values, nodes, edge_order=2)

    def _eval_real(self, t):
        return np.interp(t, self.nodes, self.values)

    def derivative(self, t):
        return np.interp(t, self.nodes, self._deriv)


def _require_limits(fn: RealFunction):
    if fn.limits is None:
        raise UnsupportedVariantError("function needs limits at +-infinity")
    return fn.limits


def cosh_mollify(fn: RealFunction, epsilon: float) -> TanhMeasure:
    """Mollify with the kernel (2*eps)^-1 * cosh^-2(t/eps).

    Integration by parts turns the convolution into an atomic tanh
    representation with rate 1/eps, measure (1/2) f'(s) ds discretized by
    the midpoint rule on 4096 atoms over [-DEFAULT_WINDOW, DEFAULT_WINDOW],
    and offset (f(+inf)+f(-inf))/2.  The result lives in the class with
    strip half-width pi*eps/2.  A derivative tail beyond the window holding
    more than 1e-8 * max([f]/2, 1) of the mass raises TruncationError.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not fn.monotone:
        raise MonotonicityError("cosh mollifier requires a monotone increasing input")
    lo, hi = _require_limits(fn)
    window = DEFAULT_WINDOW
    delta = 2.0 * window / 4096
    s = -window + delta * (np.arange(4096) + 0.5)
    fprime = fn.derivative(s)
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


class MomentResult(NamedTuple):
    value: float
    diverged: bool


def exp_moment(fn_deriv, b: float, window: float = 30.0) -> MomentResult:
    """integral of f'(t) * exp(2*b*t) over [-window, window].

    Trapezoid rule on 4001 equispaced samples.  ``fn_deriv`` is the
    derivative (callable or RealFunction).  The integrand is 0 wherever
    f' is, also where exp(2*b*t) overflows (0 * inf would be NaN); an
    exp(2*b*t) = inf where f' is not 0 makes the value inf.  The
    divergence flag is set when the integrand is still growing at the
    edge of the support of f' (its first and last positive samples)
    against one fifth inside it, i.e. the infinite integral cannot be
    finite; an edge sample that overflowed to inf counts as growing.
    """
    if not 0 < window < np.inf:
        raise ValueError(f"window must be positive and finite, got {window!r}")
    _require_finite(b=b)
    t = np.linspace(-window, window, 4001)
    fp = np.asarray(fn_deriv(t), dtype=float)
    scale = np.max(np.abs(fp))
    if np.any(fp < -1e-10 * max(scale, 1.0)):
        raise MonotonicityError("derivative must be nonnegative on the window")
    with np.errstate(over="ignore"):    # exp = inf: the moment is inf
        # b * (2t), not (2b) * t: the same bits while 2b is finite, and
        # no inf * 0 at t = 0 when it is not
        integrand = np.multiply(fp, np.exp(b * (2.0 * t)),
                                out=np.zeros_like(fp), where=fp != 0)
        value = float(np.trapezoid(integrand, t))
    support = np.flatnonzero(fp > 0)
    if support.size == 0:
        return MomentResult(value, False)
    on = integrand[support[0]:support[-1] + 1]
    edge = max(on[0], on[-1])
    inner = max(on[on.size // 5], on[-1 - on.size // 5])
    diverged = bool(edge == np.inf or (edge > inner and edge > 1e-300))
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


def herglotz_check(fn: RealFunction, alpha: float) -> HerglotzReport:
    """Sample Im f on a lattice in the upper half-strip 0 < Im z < 0.95*alpha:
    81 points of [-DEFAULT_WINDOW, DEFAULT_WINDOW] by 40 heights.

    Passes iff the minimum sampled imaginary part is >= -1e-10.  Strip
    violations from evaluation propagate.
    """
    xs = np.linspace(-DEFAULT_WINDOW, DEFAULT_WINDOW, 81)
    ys = 0.95 * alpha * np.arange(1, 41) / 40
    z = xs[None, :] + 1j * ys[:, None]
    vals = np.asarray(fn(z)).imag
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    m = float(vals[i, j])
    return HerglotzReport(m, complex(z[i, j]), m >= -1e-10)


def _nnls(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, float]:
    """min ||a w - b||_2 subject to w >= 0, and that residual norm, by the
    Lawson-Hanson active-set method (*Solving Least Squares Problems*,
    1974, ch. 23).

    Each outer step frees the bound variable whose gradient a^T (b - a w)
    is largest, solves the least-squares problem on the free set, and
    steps back towards the previous w while a free variable would go
    negative, binding the first to reach 0.  A variable whose own solve
    puts it at or below 0 was freed by rounding alone; it stays bound
    until w moves.  In exact arithmetic every step lowers the residual;
    the first that does not ends the solve.  AccuracyError if 3n outer
    steps do not."""
    n = a.shape[1]
    w = np.zeros(n)
    free = np.zeros(n, dtype=bool)
    rnorm = np.linalg.norm(b)
    grad = a.T @ b

    def solve():
        s = np.zeros(n)
        s[free] = np.linalg.lstsq(a[:, free], b)[0]
        return s

    for _ in range(3 * n):
        j = int(np.argmax(np.where(free, -np.inf, grad)))
        if free[j] or not grad[j] > 0:
            return w, float(rnorm)
        free[j] = True
        s = solve()
        if s[j] <= 0:
            free[j], grad[j] = False, 0.0
            continue
        while np.any(s[free] <= 0):
            hit = np.flatnonzero(free & (s <= 0))
            ratio = w[hit] / (w[hit] - s[hit])
            w = w + np.min(ratio) * (s - w)
            w[hit[np.argmin(ratio)]] = 0.0
            free &= w > 0
            s = solve()
        r = b - a @ s
        if not np.linalg.norm(r) < rnorm:
            return w, float(rnorm)
        w, rnorm, grad = s, np.linalg.norm(r), a.T @ r
    raise AccuracyError(f"NNLS did not converge in {3 * n} steps")


class MeasureFit(NamedTuple):
    measure: TanhMeasure
    residual: float
    member: bool
    clusters: list


def fit_tanh_measure(fn: RealFunction, alpha: float, atom_grid) -> MeasureFit:
    """Nonnegative deconvolution of f' against sech^2 kernels.

    Solves min ||A w - f'||_2 subject to w >= 0 where
    A[:, i] = alpha_hat * sech^2(alpha_hat*(t - s_i)) and
    alpha_hat = pi/(2*alpha); the offset comes from the midpoint of the
    limits.  f' is sampled at 481 points of [-12, 12] (raw samples enter
    as ``Sampled(t, f)``).  The verdict ``member`` is residual < 1e-4
    (relative L2 on the sample set); an unrepresentable function is a
    non-membership verdict, not an error.
    """
    atom_grid = np.asarray(atom_grid, dtype=float)
    if atom_grid.size < 2:
        raise ValueError("need at least two atom locations")
    if not 0 < alpha < np.inf or np.pi / (2 * alpha) == 0:
        raise ValueError("alpha must be positive and finite, with a nonzero "
                         f"rate pi/(2*alpha), got {alpha!r}")
    spacing = np.min(np.diff(np.sort(atom_grid)))
    alpha_hat = np.pi / (2 * alpha)
    if spacing < 0.1 / alpha_hat - 1e-12:
        warnings.warn(
            f"atom spacing {spacing:.3g} is below a tenth of the kernel "
            f"width {1/alpha_hat:.3g}; the fit may be ill-conditioned",
            ConditioningWarning,
        )
    t = np.linspace(-DEFAULT_WINDOW / 2, DEFAULT_WINDOW / 2, 481)
    b = fn.derivative(t)
    lo, hi = _require_limits(fn)
    d = 0.5 * (lo + hi)
    with np.errstate(over="ignore"):    # cosh(y)**2 = inf: the limit 0
        design = alpha_hat / np.cosh(
            alpha_hat * (t[:, None] - atom_grid[None, :])) ** 2
    w, rnorm = _nnls(design, b)
    residual = float(rnorm / max(np.linalg.norm(b), 1e-300))
    measure = TanhMeasure(atom_grid, w, offset=d, alpha=alpha)
    return MeasureFit(measure, residual, residual < 1e-4,
                      measure.clustered())


def function_from_samples(path) -> Sampled:
    """Load the CLI sample-file format: two columns (t, f(t)), increasing t."""
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError("sample file must have two columns: t, f(t)")
    return Sampled(data[:, 0], data[:, 1])
