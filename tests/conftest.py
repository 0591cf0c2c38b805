import glob
import os

import numpy as np
import pytest

from poscomm import Grid, build_nystrom_x, catalog, rank_one_pair
from poscomm.cli import load_config, run
from poscomm.grids import SQRT_2PI, _nyquist_phases
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
