import glob
import os

import numpy as np
import pytest

from poscomm import Grid, build_nystrom_x, rank_one_pair
from poscomm.cli import load_config, run
from poscomm.operators import RANK_THRESHOLD, SpectralReport
from poscomm.reporting import stable_bytes

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs", "paper")


def dense_spectrum(op) -> SpectralReport:
    """All N eigenvalues from ``np.linalg.eigvalsh``: the dense reference
    the certified solve is compared against."""
    return SpectralReport(np.linalg.eigvalsh(op.matrix)[::-1], op.trace(),
                          RANK_THRESHOLD, "dense", 0.0)


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
