"""The span contract of the benchmark's tracer (perfbench/spans.py).

The tracer wraps module globals by name, so every name it traces must
exist and every builder and solver must be looked up at call time.
"""

import os
import sys

import numpy as np

from poscomm import Grid, TanhAffine, cli, monotone, operators

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

SMALL_VERIFY_PAIR = {
    "schema_version": 1, "kind": "verify-pair",
    "f": {"catalog": "tanh-affine", "params": {"rate": 1.5707963267948966}},
    "g": {"catalog": "tanh-affine", "params": {"rate": 1.0}},
    "grid": {"L": 24.0, "N": 256},
}


def _tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    return spans.Tracer()


def test_tracer_finds_every_target_and_sees_the_solver():
    tracer = _tracer()
    tracer.install()
    try:
        # the two names the program retired (the dense two-norm moved to
        # the tests, the Loewner trial search became loewner_certificate);
        # the tracer's target list follows with the next benchmark change
        assert tracer.missing == ["poscomm.operators.operator_two_norm",
                                  "poscomm.monotone.loewner_matrix_test"]
        cli.run(SMALL_VERIFY_PAIR)      # looked up after install
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "operators.build_x", "operators.spectrum"} <= names


def test_lattice_profile_is_one_traced_quadrature_call():
    # the kernel build reads the 2N-1 lattice values of a quadrature
    # profile through FourierProfile.real_values, where the tracer sees them
    cat = monotone.catalog()
    f, g = monotone.compose_pair(cat["log-shift"], TanhAffine(rate=np.pi / 2),
                                 cat["identity"], TanhAffine(rate=1.0))
    n = 256
    tracer = _tracer()
    tracer.install()
    try:
        operators.build_nystrom_x(f, g, Grid(24.0, n))
    finally:
        tracer.uninstall()
    profile = [s for s in tracer.spans if s.name == "fourier.profile"]
    assert [s.attrs["route"] for s in profile] == ["fft"]
    assert tracer.counters[tracer.pass_]["fourier.profile_evals"] == 2 * n - 1
