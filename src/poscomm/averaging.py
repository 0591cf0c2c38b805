"""Averaged difference quotients converging to g'.

The averaging weight is

    h(w) = w * log((1+w)/(1-w)) = 2 * sum_{m>=1} w^(2m)/(2m-1),

positive and increasing on (0, 1) with integral exactly 1, so

    I_r(x) = integral_0^1 h(w) * (g(x+rw) - g(x-rw))/(2rw) dw

is a weighted average of symmetric difference quotients and converges to
g'(x) as r -> 0 (at rate r^2 for smooth g).  The logarithmic endpoint
singularity of h at w = 1 is handled by the substitution w = 1 - e^(-u).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import AccuracyError

__all__ = [
    "averaging_weight",
    "averaging_weight_series",
    "AveragingProfile",
    "averaged_quotient",
    "convergence_study",
    "ConvergenceStudy",
]


def averaging_weight(w):
    """h(w) = w*log((1+w)/(1-w)) on (0, 1)."""
    w = np.asarray(w, dtype=float)
    return w * np.log((1.0 + w) / (1.0 - w))


def averaging_weight_series(w):
    """Power series 2*sum w^(2m)/(2m-1) to 200 terms; matches h on [0, 1)."""
    w = np.asarray(w, dtype=float)
    m = np.arange(1, 201)
    return 2.0 * np.sum(w[..., None] ** (2 * m) / (2 * m - 1), axis=-1)


class AveragingProfile:
    """Quadrature rule for integrals against h over (0, 1).

    Gauss-Legendre in u after w = 1 - exp(-u); u_max = 37 puts the
    truncated tail below 1e-15.
    """

    def __init__(self, nodes: int = 240, u_max: float = 37.0):
        gx, gw = leggauss(nodes)
        u = 0.5 * u_max * (gx + 1.0)
        self.w_nodes = 1.0 - np.exp(-u)
        self.quad_weights = 0.5 * u_max * gw * np.exp(-u)
        self.h_values = averaging_weight(self.w_nodes)
        self.nodes = nodes
        self.u_max = u_max

    def integrate(self, values: np.ndarray) -> float:
        """integral_0^1 h(w) * values(w) dw for samples at the rule nodes."""
        return float(np.sum(self.quad_weights * self.h_values * values))

    def weight_integral(self) -> float:
        """Quadrature value of integral_0^1 h(w) dw (exactly 1)."""
        return float(np.sum(self.quad_weights * self.h_values))


_DEFAULT_PROFILE = AveragingProfile()


def averaged_quotient(g, x: float, r: float,
                      profile: AveragingProfile = None,
                      accuracy_check: bool = False) -> float:
    """I_r(x), the h-averaged symmetric difference quotient of g at x;
    ``accuracy_check`` raises AccuracyError if doubling the nodes moves it
    by more than 1e-9 * max(|I_r|, 1)."""
    if r <= 0:
        raise ValueError("r must be positive")
    prof = profile or _DEFAULT_PROFILE
    w = prof.w_nodes
    dq = (np.asarray(g(x + r * w)) - np.asarray(g(x - r * w))) / (2.0 * r * w)
    val = prof.integrate(dq)
    if accuracy_check:
        fine = AveragingProfile(nodes=2 * prof.nodes, u_max=prof.u_max)
        dq_fine = (np.asarray(g(x + r * fine.w_nodes))
                   - np.asarray(g(x - r * fine.w_nodes))) / (2.0 * r * fine.w_nodes)
        ref = fine.integrate(dq_fine)
        if abs(ref - val) > 1e-9 * max(abs(ref), 1.0):
            raise AccuracyError(
                "endpoint quadrature did not converge", achieved=abs(ref - val))
    return val


class ConvergenceStudy(NamedTuple):
    r_values: np.ndarray
    max_errors: np.ndarray
    slope: float


def convergence_study(g, lattice, r_values,
                      profile: AveragingProfile = None) -> ConvergenceStudy:
    """Max |I_r(x) - g'(x)| over the lattice and the log-log slope in r."""
    r_values = np.asarray(r_values, dtype=float)
    lattice = np.asarray(lattice, dtype=float)
    if r_values.size < 2 or lattice.size == 0:
        raise ValueError("need two r values or more and a lattice point")
    if np.any(np.diff(r_values) >= 0):
        raise ValueError("r sequence must be decreasing")
    errs = np.empty(r_values.size)
    for i, r in enumerate(r_values):
        err = 0.0
        for x in lattice:
            err = max(err, abs(averaged_quotient(g, x, r, profile)
                               - float(g.derivative(x))))
        errs[i] = err
    slope = float(np.polyfit(np.log(r_values), np.log(errs), 1)[0])
    return ConvergenceStudy(r_values, errs, slope)
