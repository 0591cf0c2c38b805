"""Averaged difference quotients converging to g'.

The averaging weight is

    h(w) = w * log((1+w)/(1-w)) = 2 * sum_{m>=1} w^(2m)/(2m-1),

positive and increasing on (0, 1) with integral exactly 1, so

    I_r(x) = integral_0^1 h(w) * (g(x+rw) - g(x-rw))/(2rw) dw

is a weighted average of symmetric difference quotients and converges to
g'(x) as r -> 0 (at rate r^2 for smooth g).  The logarithmic endpoint
singularity of h at w = 1 is handled by the substitution w = 1 - e^(-u).
Every I_r(x) is computed with one fixed Gauss-Legendre rule in u and
checked against the rule with twice the nodes.
"""

from __future__ import annotations

import functools
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


_U_MAX = 37.0      # u range of the rule: the tail past it is below 1e-15


class AveragingProfile:
    """Quadrature rule for integrals against h over (0, 1).

    Gauss-Legendre in u on [0, _U_MAX] after w = 1 - exp(-u).
    """

    def __init__(self, nodes: int = 240):
        gx, gw = leggauss(nodes)
        u = 0.5 * _U_MAX * (gx + 1.0)
        self.w_nodes = 1.0 - np.exp(-u)
        self.quad_weights = 0.5 * _U_MAX * gw * np.exp(-u)
        self.h_values = averaging_weight(self.w_nodes)

    def integrate(self, values: np.ndarray) -> float:
        """integral_0^1 h(w) * values(w) dw for samples at the rule nodes."""
        return float(np.sum(self.quad_weights * self.h_values * values))

    def weight_integral(self) -> float:
        """Quadrature value of integral_0^1 h(w) dw (exactly 1)."""
        return float(np.sum(self.quad_weights * self.h_values))

    def quotient(self, g, x: float, r: float) -> float:
        """This rule's value of I_r(x)."""
        w = self.w_nodes
        return self.integrate(
            (np.asarray(g(x + r * w)) - np.asarray(g(x - r * w))) / (2.0 * r * w))


_RULE = AveragingProfile()
# the 480-node rule of the node-doubling check, built on first use
_fine_rule = functools.cache(functools.partial(AveragingProfile, nodes=480))


def averaged_quotient(g, x: float, r: float) -> float:
    """I_r(x), the h-averaged symmetric difference quotient of g at x.

    Raises AccuracyError if doubling the quadrature nodes moves it by more
    than 1e-9 * max(|I_r|, 1), as a kink of g within r of x does.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    val = _RULE.quotient(g, x, r)
    ref = _fine_rule().quotient(g, x, r)
    if abs(ref - val) > 1e-9 * max(abs(ref), 1.0):
        raise AccuracyError(
            "endpoint quadrature did not converge", achieved=abs(ref - val))
    return val


class ConvergenceStudy(NamedTuple):
    r_values: np.ndarray
    max_errors: np.ndarray
    slope: float


def convergence_study(g, lattice, r_values) -> ConvergenceStudy:
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
            err = max(err, abs(averaged_quotient(g, x, r)
                               - float(g.derivative(x))))
        errs[i] = err
    slope = float(np.polyfit(np.log(r_values), np.log(errs), 1)[0])
    return ConvergenceStudy(r_values, errs, slope)
