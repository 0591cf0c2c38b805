import glob
import os
from functools import cached_property

import numpy as np
import pytest

from poscomm import Grid, build_nystrom_x, catalog, rank_one_pair
from poscomm.cli import load_config, run
from poscomm.grids import SQRT_2PI, _nyquist_phases
from poscomm import operators
from poscomm.operators import SpectralReport
from poscomm.reporting import stable_bytes

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs", "paper")


def dense_spectrum(op) -> SpectralReport:
    """All N eigenvalues from ``np.linalg.eigvalsh``: the dense reference
    the certified solve is compared against."""
    return SpectralReport(np.linalg.eigvalsh(op.matrix)[::-1], op.trace(),
                          "dense", 0.0)


def operator_two_norm(op) -> float:
    """Spectral norm of the Hermitian matrix, exact from all N eigenvalues:
    the dense reference the norm bounds are compared against."""
    return float(np.max(np.abs(np.linalg.eigvalsh(op.matrix))))


def assemble(model) -> np.ndarray:
    """The finite-rank model's N x N matrix, (F^T c) conj(F) dx: the GEMM
    product on and above the diagonal and its conjugate transpose below,
    so Hermitian bit for bit.  The oracle the norm bounds of a model
    against K are compared with."""
    m = (model.factors.T * model.coefficients) @ model.factors.conj()
    m *= model.grid.dx
    np.copyto(m, np.conjugate(m.T),
              where=np.tri(model.grid.n, k=-1, dtype=bool))
    return m


class Dense:
    """A dense Hermitian matrix read as the solver reads an operator:
    shape, dtype, @, the Rayleigh quotient Q^H M Q and the probe product
    M W, each one GEMM on the matrix.  ``widths`` records the width of
    every block the matrix multiplies."""

    def __init__(self, m):
        self.m, self.shape, self.dtype, self.widths = m, m.shape, m.dtype, []

    def __matmul__(self, x):
        self.widths.append(x.shape[1])
        return self.m @ x

    def _rayleigh(self, q):
        b = q.conj().T @ (self @ q)
        return 0.5 * (b + b.conj().T)

    @cached_property
    def _probed(self):
        w = operators._probes(self.shape[0], np.iscomplexobj(self))
        return w, self @ w


def _draw(rng, n, k, cplx):
    w = rng.standard_normal((n, k))
    return w + 1j * rng.standard_normal((n, k)) if cplx else w


def _oracle_norm(y) -> float:
    """10 sqrt(2/pi) max_i ||y_i|| over the columns of y."""
    return 10 * np.sqrt(2 / np.pi) * float(np.max(np.linalg.norm(y, axis=0)))


def _oracle_bound(m, q):
    """2 ||(I - Q Q^H) K W|| off probes W drawn afresh, the first draws of
    default_rng(N)."""
    n, cplx = m.shape[0], np.iscomplexobj(m)
    kw = m @ _draw(np.random.default_rng(n), n, 10, cplx)
    return 2 * _oracle_norm(kw - q @ (q.conj().T @ kw))


def oracle_norm_bound(op, model=None) -> float:
    """10 sqrt(2/pi) max_i ||(K - M) w_i|| over ten probes drawn afresh,
    the first draws of default_rng(N), complex when K or the model M is
    (M = 0 without a model), M applied by its factors: the bits of the
    norm checks of K against a model and against 0."""
    n, cplx = op.n, np.iscomplexobj(op)
    if model is not None:
        weighted = model.factors.T * (model.coefficients * model.grid.dx)
        cplx = cplx or np.iscomplexobj(weighted)
    w = _draw(np.random.default_rng(n), n, 10, cplx)
    y = op @ w
    if model is not None:
        y = y - weighted @ (model.factors.conj() @ w)
    return _oracle_norm(y)


def _oracle_accepts(theta, eps) -> bool:
    undecided = (operators._psd_error(theta, eps) > operators.POSITIVITY_TOL
                 and theta[-1] >= -operators.POSITIVITY_TOL * abs(theta[0]))
    return not (eps > operators.RANK_THRESHOLD * np.max(np.abs(theta))
                or undecided)


def oracle_randomized(m):
    """The k = 16 certified solve that always takes the power step:
    (theta, eps) or None, what ``_randomized`` must return bit for bit
    whenever neither its narrow solve nor its wide solve's first step
    certifies.  Omega is the first draw of default_rng((N, 1)) and B is
    ``m._rayleigh(Q)``."""
    n, cplx = m.shape[0], np.iscomplexobj(m)
    if n < 128:
        return None
    q = np.linalg.qr(m @ _draw(np.random.default_rng((n, 1)), n, 16, cplx))[0]
    q = np.linalg.qr(m @ q)[0]
    theta = np.linalg.eigvalsh(m._rayleigh(q))[::-1]
    if operators._significant(theta).size > 8:
        return None
    eps = _oracle_bound(m, q)
    return (theta, eps) if _oracle_accepts(theta, eps) else None


def oracle_wide_randomized(m):
    """The k = 16 certified solve alone, with the power step only when
    its first step does not certify: (theta, eps) or None, what
    ``_randomized`` must return bit for bit whenever its narrow solve
    does not certify."""
    n, cplx = m.shape[0], np.iscomplexobj(m)
    if n < 128:
        return None
    q = np.linalg.qr(m @ _draw(np.random.default_rng((n, 1)), n, 16, cplx))[0]
    for power in (False, True):
        if power:
            q = np.linalg.qr(m @ q)[0]
        theta = np.linalg.eigvalsh(m._rayleigh(q))[::-1]
        if operators._significant(theta).size > 8:
            continue
        eps = _oracle_bound(m, q)
        if _oracle_accepts(theta, eps):
            return theta, eps
    return None


def same_bits(a, b) -> bool:
    """Same dtype, shape, memory layout and bytes: signed zeros and NaN
    payloads included."""
    return (a.dtype == b.dtype and a.shape == b.shape
            and a.strides == b.strides and a.tobytes() == b.tobytes())


def to_position(grid, spectrum):
    """Exact inverse of ``to_momentum``: the round-trip oracle."""
    spec = spectrum / _nyquist_phases(grid) * (SQRT_2PI / grid.dx)
    return np.fft.ifft(np.fft.ifftshift(spec))


def averaging_weight_series(w):
    """Power series 2*sum w^(2m)/(2m-1) to 200 terms; matches the
    averaging weight h on [0, 1)."""
    w = np.asarray(w, dtype=float)
    m = np.arange(1, 201)
    return 2.0 * np.sum(w[..., None] ** (2 * m) / (2 * m - 1), axis=-1)


def claimed_monotone_entries():
    """The monotone catalog's entries that claim operator monotonicity."""
    return [e for e in catalog().values() if e.claimed_monotone]


@pytest.fixture(scope="session")
def grid_std():
    return Grid(24.0, 2048)


@pytest.fixture(scope="session")
def grid_mid():
    return Grid(24.0, 1024)


@pytest.fixture(scope="session")
def grid_small():
    return Grid(24.0, 512)


@pytest.fixture(scope="session")
def kato_pair():
    return rank_one_pair(1.0)


@pytest.fixture(scope="session")
def kato_op(kato_pair, grid_std):
    f, g = kato_pair
    return build_nystrom_x(f, g, grid_std)


@pytest.fixture(scope="session")
def kato_spectrum(kato_op):
    return dense_spectrum(kato_op)


@pytest.fixture(scope="session")
def corpus_reports():
    """Every configs/paper config run once through ``run``:
    file name -> (report, stable_bytes of the report)."""
    reports = {}
    for path in sorted(glob.glob(os.path.join(CONFIG_DIR, "*.json"))):
        report = run(load_config(path))
        reports[os.path.basename(path)] = (report, stable_bytes(report))
    return reports
