"""poscomm benchmark: corpus, scale-x and routes workloads.

    python3 perfbench/run.py --workload {corpus,scale-x,routes} \\
        --seed N --seconds S --trace {0,1}
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a poscomm checkout; the benchmark imports poscomm
from ``src/`` there and refuses to run without it.  One process, closed
loop (each operation starts after the previous one ends), BLAS limited to
nproc threads.  Passes of the workload run until ``--seconds`` have
elapsed (at least one).  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics.  ``all`` runs every workload both ways in child
processes and prints every metric with its unit.  The last line of output
is a JSON object with keys correct, attempted, failed and metrics; the
full result (machine block, cases, spans) goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
# Fresh-process set-ups besides this process's own, half before the passes
# and half after, so that the median spans the run's drift in machine speed.
SETUP_PROBES = 4
SPECTRUM_REPS = 2
PROBE_TIMEOUT_S = 120
ALL_CHILD_TIMEOUT_S = 900
WORKLOADS = ("corpus", "scale-x", "routes")

END_TO_END = (
    ("pass_s", "s"), ("solve_s.n2048", "s"), ("solve_s.nmax", "s"),
    ("setup_s", "s"), ("ok_share", "share"), ("peak_rss_mb", "MB"),
)
# Printed with the end-to-end metrics but left out of the result object:
# its N = 1024 cases total well under a second per pass, and between runs
# it spread by more than the largest bound allowed (see README.md).
PRINTED_ONLY = (("solve_s.n1024", "s"),)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def blas_env(threads: int) -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def check_checkout():
    missing = [p for p in ("src/poscomm/__init__.py", "configs/paper")
               if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        print(f"not a poscomm checkout: {ROOT} lacks {', '.join(missing)}",
              file=sys.stderr)
        sys.exit(2)


def probe(kind: str, *args, threads: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), kind, ROOT, *args],
        env=blas_env(threads), cwd=ROOT, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"probe {kind} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_pass(workload, index: int, tracer=None) -> dict:
    from workloads import run_case

    if tracer is not None:
        tracer.pass_ = index
        tracer.install()
    try:
        t0 = time.perf_counter()
        outcomes = []
        for i, case in enumerate(workload.cases()):
            if tracer is not None:
                tracer.op = f"{index}.{i}:{case.name}"
            outcomes.append(run_case(case))
        wall = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"index": index, "traced": tracer is not None, "wall_s": wall,
            "outcomes": outcomes}


def solve_s(untraced, n: int) -> float:
    """Median over passes of the mean seconds per spectral case at N = n.

    The mean, not the median, within a pass: the cases at one N are
    different problems (8 corpus configs at N = 1024 range from 0.2 to
    0.6 s), and a median over them jumps between neighbouring cases.
    """
    per_pass = []
    for p in untraced:
        times = [o.seconds for o in p["outcomes"] if o.spectral and o.n == n]
        if not times:
            raise RuntimeError(f"no spectral cases at N = {n}")
        per_pass.append(statistics.fmean(times))
    return statistics.median(per_pass)


def end_to_end(untraced, setup_samples, ok_share) -> dict:
    nmax = max(o.n for p in untraced for o in p["outcomes"] if o.spectral)
    return {
        "pass_s": statistics.median(p["wall_s"] for p in untraced),
        "solve_s.n1024": solve_s(untraced, 1024),
        "solve_s.n2048": solve_s(untraced, 2048),
        "solve_s.nmax": solve_s(untraced, nmax),
        "setup_s": statistics.median(setup_samples),
        "ok_share": ok_share,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def per_layer(per_pass: list, untraced, traced, nproc: int) -> dict:
    from spans import LAYER_METRICS

    out = {m: statistics.median(pm[m] for pm in per_pass)
           for m, _ in LAYER_METRICS}
    out["operators.spectrum_s.single_thread"] = probe(
        "spectrum", str(SPECTRUM_REPS), threads=1)["spectrum_s"]
    out["operators.spectrum_s.default_threads"] = probe(
        "spectrum", str(SPECTRUM_REPS), threads=nproc)["spectrum_s"]
    out["trace_overhead_share"] = (
        statistics.median(p["wall_s"] for p in traced)
        / statistics.median(p["wall_s"] for p in untraced) - 1.0)
    return out


def run_workload(args) -> int:
    check_checkout()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from machine import nproc

    threads = nproc()
    os.environ.update(blas_env(threads))   # before numpy loads OpenBLAS

    import workloads
    from machine import machine_block

    env, own_setup = workloads.setup(ROOT)   # the first numpy import is timed
    from spans import LAYER_METRICS, Tracer

    setup_samples = [own_setup] + [probe("setup", threads=threads)["setup_s"]
                                   for _ in range(SETUP_PROBES // 2)]
    machine = machine_block()
    print("machine " + json.dumps(machine), flush=True)

    workload = workloads.make_workload(args.workload, env, args.seed)
    tracer = Tracer() if args.trace else None
    passes = []
    run_t0 = time.perf_counter()
    while True:
        passes.append(run_pass(workload, len(passes)))
        if tracer is not None:
            passes.append(run_pass(workload, len(passes), tracer))
        if time.perf_counter() - run_t0 >= args.seconds:
            break
    setup_samples += [probe("setup", threads=threads)["setup_s"]
                      for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    for p in passes:
        bad = [o for o in p["outcomes"] if o.status != "ok"]
        print(f"pass {p['index']} {'traced' if p['traced'] else 'untraced'}: "
              f"{p['wall_s']:.3f} s, {len(p['outcomes'])} operations, "
              f"{len(bad)} failed", flush=True)
        for o in bad:
            print(f"  {o.status}: {o.name} after {o.seconds:.3f} s: "
                  f"{o.detail}")

    outcomes = [o for p in passes for o in p["outcomes"]]
    attempted = len(outcomes)
    failed = sum(o.status != "ok" for o in outcomes)
    correct = not any(o.status == "wrong" for o in outcomes)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    printed = {}
    if tracer is None:
        values = end_to_end(untraced, setup_samples,
                            (attempted - failed) / attempted)
        units = dict(END_TO_END)
        printed = {m: (values.pop(m), u) for m, u in PRINTED_ONLY}
    else:
        per_pass = {p["index"]: tracer.pass_metrics(p["index"])
                    for p in traced}
        values = per_layer(list(per_pass.values()), untraced, traced, threads)
        units = dict(LAYER_METRICS)
        if tracer.missing:
            print("untraced (not found): " + ", ".join(tracer.missing))
    metrics = {m: {"value": int(v) if units[m] in ("count", "B", "flop")
                   else float(v), "unit": units[m]}
               for m, v in values.items()}
    print(f"passes: {len(untraced)} untraced, {len(traced)} traced; "
          f"failed_share = {failed / attempted:.6g} ({failed}/{attempted})")
    for m, rec in metrics.items():
        print(f"{m} = {rec['value']} {rec['unit']}")
    for m, (v, u) in printed.items():
        print(f"{m} = {v} {u} (printed only)")

    detail = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "setup_samples_s": setup_samples,
        "passes": [{"index": p["index"], "traced": p["traced"],
                    "wall_s": p["wall_s"],
                    "outcomes": [o.as_dict() for o in p["outcomes"]]}
                   for p in passes],
        "metrics": metrics,
        "printed_only": {m: {"value": v, "unit": u}
                         for m, (v, u) in printed.items()},
    }
    if tracer is not None:
        detail["trace"] = {
            "missing_targets": tracer.missing,
            "accounting": [tracer.accounting(p["index"], p["wall_s"])
                           for p in traced],
            "layers_by_pass": per_pass,
            "spans": tracer.dump(run_t0),
        }
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    check_checkout()
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True,
                timeout=ALL_CHILD_TIMEOUT_S)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            res = json.loads(lines[-1])
            print(f"== {name} --trace {trace}: correct {res['correct']}")
            print("\n".join("  " + line for line in lines[:-1]), flush=True)
            totals["correct"] &= res["correct"]
            totals["attempted"] += res["attempted"]
            totals["failed"] += res["failed"]
            totals["metrics"].update(
                {f"{name}.{m}": rec for m, rec in res["metrics"].items()})
    print(json.dumps(totals))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
