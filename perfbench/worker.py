"""One repeat of a workload in a fresh process: set up, solve, report.

run.py starts this once per repeat, so each repeat's peak resident
memory is its own and no repeat keeps another's data alive.  The last
line of stdout is one JSON object; final_x is written to --x-out.

    python3 perfbench/worker.py --workload NAME --seed N --input PATH \
        --x-out PATH [--trace --spans-out PATH] [--workers K]

spcdm must be importable (run.py puts the checkout's src/ on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import time

import numpy as np

from spcdm import problem, smoothing, solver
from tracer import Tracer
from workloads import WORKLOADS, Workload


def build_loss(wl: Workload, raw):
    """Raw input -> bound loss through the public API, as a user would.

    raw is the svmlight path, or the dict of triplet arrays.
    """
    if wl.input_format == "svmlight":
        pd = problem.load_svmlight(raw, n_cols=wl.n)
    else:
        pd = problem.ProblemData.from_coo(
            wl.m, wl.n, raw["rows"], raw["cols"], raw["vals"], raw["b"]
        )
    working = smoothing.prepare_problem(pd, wl.app)
    loss = smoothing.make_loss(working, wl.app, wl.mu)
    smoothing.loss_constants(wl.app, working)  # (sigma, D), as a caller choosing mu needs
    return loss


def regularizer(wl: Workload) -> solver.Regularizer:
    return solver.Regularizer.l1(wl.lam) if wl.lam is not None else solver.Regularizer.none()


def peak_rss_mb() -> float:
    """This process image's peak resident memory (VmHWM, Linux).

    Not ru_maxrss: a child started by vfork + exec inherits its parent's
    high-water mark there, so it would report the benchmark's own memory.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def read_raw(wl: Workload, path: str):
    if wl.input_format == "svmlight":
        return path
    with np.load(path) as z:
        return {k: z[k] for k in ("rows", "cols", "vals", "b")}


def repeat(
    wl: Workload, seed: int, raw, setup_reps: int, workers: int = 1
) -> tuple[list[float], float, solver.RunReport]:
    """setup_reps builds of the loss, then one timed solve on the last one."""
    setup_s = []
    loss = None
    for _ in range(setup_reps):
        loss = None  # drop the previous build before timing the next
        t0 = time.perf_counter()
        loss = build_loss(wl, raw)
        setup_s.append(time.perf_counter() - t0)
    reg = regularizer(wl)
    cfg = solver.SolverConfig(
        tau=wl.tau, seed=seed, max_epochs=wl.max_epochs, target_value=wl.target, workers=workers
    )
    t0 = time.perf_counter()
    report = solver.run(loss.pd, loss, reg, cfg)
    solve_s = time.perf_counter() - t0
    return setup_s, solve_s, report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--x-out", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-out")
    ap.add_argument("--workers", type=int, default=1, help="SolverConfig.workers")
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    raw = read_raw(wl, args.input)

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    try:
        # a traced repeat sets up once, so its layer times are one setup + one solve
        setup_s, solve_s, report = repeat(
            wl, args.seed, raw, 1 if args.trace else wl.setup_reps, args.workers
        )
    finally:
        if tracer is not None:
            tracer.uninstall()

    x = report.final_x
    np.save(args.x_out, x)
    out = {
        "setup_s": statistics.median(setup_s),
        "time_to_target_s": solve_s,
        "updates": report.coordinate_updates,
        "epochs": report.epochs_run,
        "target_reached": report.target_reached,
        "trace": [[int(e), float(v)] for e, v in report.objective_trace],
        "final_x_sha256": hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest(),
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics(report)
        out["solve_shares"] = tracer.solve_shares()
        if args.spans_out:
            tracer.save(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
