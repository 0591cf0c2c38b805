"""Run the corpus configs with one numeric leaf moved at a time, and count
the exits.

    python tools/config_fuzz.py [ROOT]

The grid: every numeric leaf of every ``configs/paper/*.json`` under ROOT
(default: this checkout), booleans, ``schema_version`` and ``seed`` left
out, set in turn to each of ``VALUES``; ``grid.N`` takes ``GRID_N``
instead.  Each case is one ``poscomm.cli.main(["run", ...])`` with its
report written to a file.  The cases of one config run in one child
process, one config after another; the child caps its own address space
at 3 GiB (``RLIMIT_AS``) and runs with ``OPENBLAS_NUM_THREADS=1``, so
that a runaway allocation fails in the child, not on the machine.

Prints the number of cases by exit code and of cases that warned, then
one line per case that raised out of ``main``, wrote NaN or Infinity into
its report, or was lost with a killed child.  Exits 1 if there is any
such case, 0 otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import tempfile
from collections import Counter

VALUES = (0, -1, 1e-300, 1e-8, 3, 1e8, 1e300, -1e300, float("inf"),
          float("nan"))
GRID_N = (0, 1, 2, 3, 7, 129, 4096)
_SKIPPED = ("schema_version", "seed")
_CAP = 3 << 30

# argv: the config file, the cases as JSON and a scratch directory; one
# JSON line a case on stdout
_CHILD = """
import json, os, resource, sys, warnings
resource.setrlimit(resource.RLIMIT_AS, (%d, %d))
from poscomm.cli import main
path, cases, scratch = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3]
base = open(path).read()
for n, (leaf, value) in enumerate(cases):
    cfg = json.loads(base)
    node = cfg
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    conf = os.path.join(scratch, "%%d.json" %% n)
    out = os.path.join(scratch, "%%d-report.json" %% n)
    with open(conf, "w") as fh:
        json.dump(cfg, fh)
    row = {"leaf": leaf, "value": value, "raised": None, "nonfinite": False}
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            row["exit"] = main(["run", "--config", conf, "--out", out])
        except BaseException as e:
            row["exit"] = None
            row["raised"] = "%%s: %%s" %% (type(e).__name__, e)
    row["warned"] = bool(seen)
    if os.path.exists(out):
        blob = open(out).read()
        row["nonfinite"] = "NaN" in blob or "Infinity" in blob
        os.remove(out)
    print(json.dumps(row), flush=True)
""" % (_CAP, _CAP)


def numeric_leaves(node, path=()):
    """The paths of the int and float leaves below ``node``, in order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_leaves(value, path + (i,))
    elif type(node) in (int, float):
        yield path


def cases(cfg: dict) -> list:
    """(leaf path, value) for every case of one config."""
    return [(list(leaf), value)
            for leaf in numeric_leaves(cfg) if leaf[0] not in _SKIPPED
            for value in (GRID_N if leaf == ("grid", "N") else VALUES)]


def plan(root: str) -> dict:
    """config file name -> its cases, for every corpus config under root."""
    out = {}
    for path in sorted(glob.glob(os.path.join(root, "configs", "paper",
                                              "*.json"))):
        with open(path) as fh:
            out[os.path.basename(path)] = cases(json.load(fh))
    return out


def run_config(root: str, name: str, todo: list, scratch: str) -> list:
    """One child's rows for the cases ``todo`` of config ``name``; a case
    the child did not reach stands as a row with ``killed`` set."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD,
         os.path.join(root, "configs", "paper", name), json.dumps(todo),
         scratch],
        env=env, capture_output=True, text=True)
    rows = [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]
    for leaf, value in todo[len(rows):]:
        rows.append({"leaf": leaf, "value": value, "exit": None,
                     "killed": proc.returncode})
    return rows


def fuzz(root: str, todo: dict, scratch: str) -> tuple:
    """(Counter of exits, count of warned cases, faulty rows) over the
    plan ``todo``: config name -> cases."""
    exits, warned, faults = Counter(), 0, []
    for name, config_cases in todo.items():
        for row in run_config(root, name, config_cases, scratch):
            exits[row["exit"]] += 1
            warned += bool(row.get("warned"))
            if row.get("raised") or row.get("nonfinite") or "killed" in row:
                faults.append((name, row))
    return exits, warned, faults


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    root = argv[0] if argv else os.path.join(os.path.dirname(__file__), "..")
    with tempfile.TemporaryDirectory() as scratch:
        exits, warned, faults = fuzz(root, plan(root), scratch)
    total = sum(exits.values())
    print(f"{total} cases: " + ", ".join(
        f"{'no exit' if code is None else f'exit {code}'}: {exits[code]}"
        for code in sorted(exits, key=lambda c: (c is None, c)))
        + f"; {warned} warned")
    for name, row in faults:
        what = ("raised " + row["raised"] if row.get("raised")
                else f"killed (child status {row['killed']})"
                if "killed" in row else "NaN or Infinity in the report")
        print(f"{name} {'.'.join(map(str, row['leaf']))} = {row['value']!r}: "
              f"{what}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
