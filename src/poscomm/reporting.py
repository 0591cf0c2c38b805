"""Machine-readable experiment reports and CSV plot tables.

Reports are JSON documents with a versioned schema.  Given an identical
config and seed the serialized report is byte-stable except for the
``timing`` block, which :func:`stable_bytes` strips for comparisons, as
long as the BLAS library and its thread count stay the same: eigenvalues
and norms move in their last bits between thread counts.  The
eigenvalues table reads ``spectral.significant_eigenvalues``.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .errors import SectionAbsentError

# 2: ``spectral`` lists the significant eigenvalues and a count of the
# rest, names the solver and its residual bound (1 listed all N);
# 3: drops ``spectral.top_eigenvalues``, whose meaning hung on the solver
SCHEMA_VERSION = 3

__all__ = [
    "SCHEMA_VERSION",
    "jsonable",
    "make_check",
    "record",
    "bool_check",
    "assemble_report",
    "write_report",
    "stable_bytes",
    "emit_plot_data",
]


def jsonable(obj):
    """Recursively convert numpy scalars/arrays and complex numbers."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        c = complex(obj)
        if c.imag == 0.0:
            return c.real
        return {"re": c.real, "im": c.imag}
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


def make_check(name: str, lhs, rhs, tolerance: float,
               mode: str = "abs") -> dict:
    """One named comparison record with its verdict.

    ``mode`` is "abs" (|lhs-rhs| <= tol), "rel" (relative to |rhs|), or
    "exact" (bitwise equality, tolerance ignored).
    """
    if mode == "exact":
        err = 0.0 if lhs == rhs else abs(complex(lhs) - complex(rhs))
        ok = lhs == rhs
    else:
        err = abs(complex(lhs) - complex(rhs))
        if mode == "rel":
            err = err / max(abs(complex(rhs)), 1e-300)
        ok = err <= tolerance
    return record(name, lhs, rhs, err, tolerance, ok)


def record(name: str, lhs, rhs, error, tolerance: float, ok: bool) -> dict:
    """One named comparison record whose error and verdict are already
    decided, by a check with its own error rule."""
    return {
        "name": name,
        "lhs": jsonable(lhs),
        "rhs": jsonable(rhs),
        "error": jsonable(error),
        "tolerance": jsonable(tolerance),
        "verdict": "pass" if ok else "fail",
    }


def bool_check(name: str, condition: bool, observed=None) -> dict:
    return record(name, observed if observed is not None else bool(condition),
                  True, 0.0 if condition else 1.0, 0.0, condition)


def assemble_report(kind: str, config: dict, checks: list[dict],
                    extras: dict = None, spectral: dict = None,
                    wall_seconds: float = 0.0,
                    artifact_version: str = "0.1.0") -> dict:
    verdict = "pass" if all(c["verdict"] == "pass" for c in checks) else "fail"
    report = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": artifact_version,
        "kind": kind,
        "config": jsonable(config),
        "checks": checks,
        "extras": jsonable(extras or {}),
        "verdict": verdict,
        "timing": {"wall_seconds": wall_seconds},
    }
    if spectral is not None:
        report["spectral"] = jsonable(spectral)
    return report


def _dump(report: dict) -> str:
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def write_report(report: dict, path: str):
    """Atomic write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(_dump(report))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def stable_bytes(report: dict) -> bytes:
    """Serialized report with volatile fields (timing) removed."""
    clean = {k: v for k, v in report.items() if k != "timing"}
    return _dump(clean).encode()


_PLOT_SECTIONS = {
    "eigenvalues": ("spectral", "significant_eigenvalues",
                    ("index", "eigenvalue")),
    "kernel-slice": ("extras", "kernel_slice", ("coordinate", "value")),
    "measure-atoms": ("extras", "atoms", ("location", "weight")),
    "convergence": ("extras", "convergence", ("r", "max_error")),
}


def emit_plot_data(report: dict, what: str, path: str):
    """Write one report section as a comma-separated table with a header."""
    if what not in _PLOT_SECTIONS:
        raise SectionAbsentError(
            f"unknown table {what!r}; choose from {sorted(_PLOT_SECTIONS)}")
    top, key, header = _PLOT_SECTIONS[what]
    section = report.get(top, {}).get(key)
    if section is None:
        raise SectionAbsentError(f"report has no {top}.{key} section")
    lines = [",".join(header)]
    if what == "eigenvalues":
        for i, v in enumerate(section):
            lines.append(f"{i},{v!r}")
    elif what == "kernel-slice":
        for c, v in zip(section["coordinates"], section["values"]):
            vv = v["re"] if isinstance(v, dict) else v
            lines.append(f"{c!r},{vv!r}")
    else:               # records keyed by the header's names
        for row in section:
            lines.append(",".join(repr(row[k]) for k in header))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
