"""The span contract of the benchmark's tracer (perfbench/spans.py).

The tracer wraps module globals by name, so every name it traces must
exist and every builder and solver must be looked up at call time.
"""

import os
import sys

from poscomm import cli

PERFBENCH = os.path.join(os.path.dirname(__file__), "..", "perfbench")

SMALL_VERIFY_PAIR = {
    "schema_version": 1, "kind": "verify-pair",
    "f": {"catalog": "tanh-affine", "params": {"rate": 1.5707963267948966}},
    "g": {"catalog": "tanh-affine", "params": {"rate": 1.0}},
    "grid": {"L": 24.0, "N": 256},
}


def test_tracer_finds_every_target_and_sees_the_solver():
    sys.path.insert(0, PERFBENCH)
    try:
        import spans
    finally:
        sys.path.remove(PERFBENCH)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        cli.run(SMALL_VERIFY_PAIR)      # looked up after install
    finally:
        tracer.uninstall()
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "operators.build_x", "operators.spectrum"} <= names
