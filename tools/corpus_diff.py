"""Compare the corpus reports of two checkouts, field by field.

    python tools/corpus_diff.py ROOT_A ROOT_B

Runs every ``configs/paper/*.json`` of each checkout through
``poscomm.cli.run``, in a child process per checkout with that checkout's
``src`` on ``PYTHONPATH`` and ``OPENBLAS_NUM_THREADS=2``, and prints each
field of ``reporting.stable_bytes`` that differs, one path a line (check
records are named by their ``name``).  Then one summary line per changed
config counts its moved fields, naming first the check records added or
removed (a renamed check is one of each), then any moved verdict, solver,
numerical rank, insignificant count or positivity of a record both
reports hold, and a last line counts the identical reports.  A config
that raises stands as the report ``{"error": "<Type>: <message>"}``, so
its one moved field names it.
Reports are byte-stable only at a fixed BLAS thread count, hence the
pinned count.  Exits 0 when all reports are identical, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

_CHILD = """
import glob, json, os, sys
from poscomm.cli import load_config, run
from poscomm.reporting import stable_bytes
reports = {}
for path in sorted(glob.glob(os.path.join("configs", "paper", "*.json"))):
    try:
        blob = stable_bytes(run(load_config(path))).decode()
    except Exception as e:
        blob = json.dumps({"error": f"{type(e).__name__}: {e}"})
    reports[os.path.basename(path)] = blob
json.dump(reports, sys.stdout)
"""

_ABSENT = "<absent>"
# fields whose move changes what a report concludes, not how precisely
_KEY_FIELDS = ("verdict", "solver", "numerical_rank", "insignificant_count",
               "positive")


def corpus_reports(root: str) -> dict:
    """config file name -> its report's stable_bytes, run under ``root``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.path.join(os.path.abspath(root), "src"))
    out = subprocess.run([sys.executable, "-c", _CHILD], cwd=root, env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _label(i: int, item) -> str:
    named = isinstance(item, dict) and "name" in item
    return item["name"] if named else str(i)


def flatten(node, path: str, out: dict) -> dict:
    """Leaf values of a JSON tree, keyed by their path."""
    if isinstance(node, dict):
        for key in sorted(node):
            flatten(node[key], f"{path}.{key}", out)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            flatten(item, f"{path}[{_label(i, item)}]", out)
        if not node:
            out[path] = []
    else:
        out[path] = node
    return out


def differences(a: dict, b: dict) -> list:
    """(path, value in a, value in b) for every leaf whose serialized form
    differs, so that 0.0 against -0.0 or 1 against 1.0 counts too."""
    fa = flatten(a, "", {})
    fb = flatten(b, "", {})
    pairs = ((p, fa.get(p, _ABSENT), fb.get(p, _ABSENT))
             for p in sorted(fa.keys() | fb.keys()))
    return [(p, va, vb) for p, va, vb in pairs
            if json.dumps(va) != json.dumps(vb)]


def summary(name: str, diffs: list) -> str:
    """One line for a changed config: the named records it added and
    removed, then the key fields that moved in records both reports hold,
    then the count.  A record's ``name`` leaf present on one side only
    marks it added or removed, so a renamed check reads as one of each,
    not as a moved verdict."""
    ends = {"added": [], "removed": []}
    for path, va, vb in diffs:
        if path.endswith("].name") and _ABSENT in (va, vb):
            side = "added" if va == _ABSENT else "removed"
            ends[side].append(path[:-len(".name")])
    one_sided = tuple(f"{p}." for p in ends["added"] + ends["removed"])
    key = [p for p, _, _ in diffs if p.rsplit(".", 1)[-1] in _KEY_FIELDS
           and not p.startswith(one_sided)]
    parts = [f"{side} {', '.join(paths)}" for side, paths in ends.items()
             if paths]
    if key:
        parts.append(f"{', '.join(key)} moved")
    parts.append(f"{len(diffs)} field(s) moved in all")
    return f"{name}: {'; '.join(parts)}"


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    root_a, root_b = argv
    reports_a, reports_b = corpus_reports(root_a), corpus_reports(root_b)
    names = sorted(reports_a.keys() | reports_b.keys())
    changed = {}
    for name in names:
        a, b = reports_a.get(name, "{}"), reports_b.get(name, "{}")
        if a == b:
            continue
        changed[name] = differences(json.loads(a), json.loads(b))
        for path, va, vb in changed[name]:
            print(f"{name}{path}: {va!r} -> {vb!r}")
    for name, diffs in changed.items():
        print(summary(name, diffs))
    total = len(names)
    same = total - len(changed)
    print(f"{same} of {total} reports identical")
    return 0 if same == total else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
