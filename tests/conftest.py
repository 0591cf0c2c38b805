import glob
import os

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


def oracle_randomized(m):
    """The k = 16 certified solve that always takes the power step:
    (theta, eps) or None, what ``_randomized`` must return bit for bit
    whenever neither its narrow solve nor its wide solve's first step
    certifies."""
    def gaussian(k):
        w = rng.standard_normal((n, k))
        return w + 1j * rng.standard_normal((n, k)) if cplx else w

    n, cplx = m.shape[0], np.iscomplexobj(m)
    if n < 128:
        return None
    rng = np.random.default_rng(n)
    q = np.linalg.qr(m @ gaussian(16))[0]
    q = np.linalg.qr(m @ q)[0]
    b = q.conj().T @ (m @ q)
    theta = np.linalg.eigvalsh(0.5 * (b + b.conj().T))[::-1]
    if operators._significant(theta).size > 8:
        return None
    y = m @ gaussian(10)
    y -= q @ (q.conj().T @ y)
    eps = 2 * (10 * np.sqrt(2 / np.pi)
               * float(np.max(np.linalg.norm(y, axis=0))))
    undecided = (operators._psd_error(theta, eps) > operators.POSITIVITY_TOL
                 and theta[-1] >= -operators.POSITIVITY_TOL * abs(theta[0]))
    if eps > operators.RANK_THRESHOLD * np.max(np.abs(theta)) or undecided:
        return None
    return theta, eps


def oracle_wide_randomized(m):
    """The k = 16 certified solve alone, with the power step only when
    its first step does not certify: (theta, eps) or None, what
    ``_randomized`` must return bit for bit whenever its narrow solve
    does not certify."""
    def gaussian(k):
        w = rng.standard_normal((n, k))
        return w + 1j * rng.standard_normal((n, k)) if cplx else w

    n, cplx = m.shape[0], np.iscomplexobj(m)
    if n < 128:
        return None
    rng = np.random.default_rng(n)
    q = np.linalg.qr(m @ gaussian(16))[0]
    kq, kw = m @ q, None
    for power in (False, True):
        if power:
            q = np.linalg.qr(kq)[0]
            kq = m @ q
        b = q.conj().T @ kq
        theta = np.linalg.eigvalsh(0.5 * (b + b.conj().T))[::-1]
        if operators._significant(theta).size > 8:
            continue
        if kw is None:
            kw = m @ gaussian(10)
        y = kw if power else kw.copy(order="K")
        y -= q @ (q.conj().T @ y)
        eps = 2 * (10 * np.sqrt(2 / np.pi)
                   * float(np.max(np.linalg.norm(y, axis=0))))
        undecided = (
            operators._psd_error(theta, eps) > operators.POSITIVITY_TOL
            and theta[-1] >= -operators.POSITIVITY_TOL * abs(theta[0]))
        if eps > operators.RANK_THRESHOLD * np.max(np.abs(theta)) or undecided:
            continue
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
