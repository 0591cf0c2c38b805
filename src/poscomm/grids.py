"""Uniform position/momentum grids and the unitary Fourier convention.

Every module uses the same transform convention,

    h_hat(k) = (1/sqrt(2*pi)) * integral h(t) exp(-i*k*t) dt,

discretized on a periodic grid of N points over [-L, L).  Kernel formulas
downstream are sensitive to this sign/normalization; nothing else in the
package re-derives it.
"""

from __future__ import annotations

import numpy as np

SQRT_2PI = np.sqrt(2.0 * np.pi)

#: default half-width of the computational window; tanh-type tails are
#: below 1e-20 at |t| = 24.
DEFAULT_WINDOW = 24.0

#: bytes one array sized by a config may take: the fit-measure design
#: matrix, the deriv-avg lattice and the quadrature profile's transforms
ARRAY_BUDGET = 1 << 28


class Grid:
    """Uniform periodic grid on [-L, L) with its momentum lattice.

    Position nodes x_j = -L + j*dx (j = 0..N-1, dx = 2L/N) and momentum
    nodes k_m = (pi/L)*m for m in the symmetric integer range
    [-N/2, N/2).  N must be even and at least 8; transform-based routes
    additionally want a power of two (enforced by the CLI, not here).
    """

    def __init__(self, half_width: float, n: int):
        if not 0 < 2.0 * half_width < np.inf:
            raise ValueError("grid window 2L must be positive and finite")
        n = int(n)
        if n < 8 or n % 2 != 0:
            raise ValueError("grid needs an even number of points, at least 8")
        self.half_width = float(half_width)
        self.n = n
        self.dx = 2.0 * self.half_width / n
        self.dk = np.pi / self.half_width
        self.x = -self.half_width + self.dx * np.arange(n)
        self.k = self.dk * np.arange(-(n // 2), n // 2)

    def __repr__(self):
        return f"Grid(L={self.half_width}, N={self.n})"

    def index_of(self, x0: float) -> int:
        """Index of the node closest to x0."""
        return int(np.argmin(np.abs(self.x - x0)))


def _nyquist_phases(grid: Grid) -> np.ndarray:
    # exp(i*k_m*L) = (-1)^m for the ascending momentum ordering
    m = np.arange(-(grid.n // 2), grid.n // 2)
    return np.where(m % 2 == 0, 1.0, -1.0)


def to_momentum(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Discrete unitary-convention transform: samples -> h_hat(k_m)."""
    spec = np.fft.fftshift(np.fft.fft(values))
    return (grid.dx / SQRT_2PI) * _nyquist_phases(grid) * spec


def centered_difference(values: np.ndarray, dx: float) -> np.ndarray:
    """Fourth-order centered differences on uniform samples.

    End points fall back to one-sided second-order stencils; intended for
    functions that are flat near the window edges, where the downgraded
    order is harmless.
    """
    v = np.asarray(values, dtype=float)
    n = v.size
    if n < 7:
        raise ValueError("need at least 7 samples for the 4th-order stencil")
    d = np.empty_like(v)
    d[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * dx)
    d[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * dx)
    d[1] = (v[2] - v[0]) / (2 * dx)
    d[-2] = (v[-1] - v[-3]) / (2 * dx)
    d[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * dx)
    return d
