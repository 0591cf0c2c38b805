"""Measurements that need a fresh interpreter; run.py starts these.

    python3 perfbench/probe.py setup <root>
        one set-up (imports, config loading, warm-up build + eigensolve)
    python3 perfbench/probe.py spectrum <root> <reps>
        spectrum() on the scale-x rank-one case at N = 2048, median of
        <reps> calls, with whatever BLAS thread count the environment sets

The last line of output is a JSON object with the result in seconds.
"""

import json
import statistics
import sys
import time


def main(argv) -> int:
    kind, root = argv[0], argv[1]
    sys.path.insert(0, f"{root}/src")
    import workloads

    env, setup_s = workloads.setup(root)
    if kind == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if kind == "spectrum":
        reps = int(argv[2])
        f, g = env.finiterank.rank_one_pair(1.0)
        op = env.operators.build_nystrom_x(
            f, g, env.grids.Grid(workloads.L, 2048))
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            rep = env.operators.spectrum(op)
            times.append(time.perf_counter() - t0)
        if rep.numerical_rank != 1:
            print("rank-one baseline case does not have rank 1",
                  file=sys.stderr)
            return 1
        print(json.dumps({"spectrum_s": statistics.median(times)}))
        return 0
    print(f"unknown probe {kind!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
