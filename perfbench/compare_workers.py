"""Reference measurement of SolverConfig(workers=2) against workers=1.

Alternates worker processes with workers=1 and workers=2 (which one goes
first alternates too), checks that both give the same trace, and prints
each side's median and quartiles of the solve time.

    python3 perfbench/compare_workers.py --workload l1-l1reg-tau64 --seed 0 --pairs 8
"""

from __future__ import annotations

import argparse
import statistics
import sys

from run import HERE, run_worker, worker_env
from workloads import WORKLOADS, generate, write_input


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", default="l1-l1reg-tau64", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=8)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    workdir = HERE / "work" / f"{wl.name}-workers"
    input_path = write_input(wl, generate(wl, args.seed), workdir)
    env = worker_env()
    times = {1: [], 2: []}
    traces = set()
    for k in range(args.pairs):
        for workers in ((1, 2) if k % 2 == 0 else (2, 1)):
            r = run_worker(wl, args.seed, input_path, workdir, False, env, workers=workers)
            if r is None:
                return 1
            times[workers].append(r["time_to_target_s"])
            traces.add(repr(r["trace"]))
    input_path.unlink()
    if len(traces) != 1:
        print("workers=1 and workers=2 traces differ", file=sys.stderr)
        return 1
    for workers, t in times.items():
        q1, q2, q3 = statistics.quantiles(t, n=4)
        print(f"workers={workers}: median {q2:.3f} s  quartiles {q1:.3f} .. {q3:.3f} s  ({len(t)} runs)")
    wins = sum(a < b for a, b in zip(times[1], times[2]))
    print(f"workers=1 faster in {wins} of {args.pairs} pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
