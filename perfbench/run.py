"""Time-to-target benchmark for spcdm.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The benchmark generates the workload's
input from the seed in this process, then runs repeats, one fresh
worker process each (perfbench/worker.py), one after another for about
S seconds.  A repeat builds the loss from the raw input through spcdm's
public API and solves to the workload's fixed target.  Every result is
checked against an oracle that does not use spcdm (oracle.py).

--trace 0 reports the end-to-end metrics: medians over repeats.
--trace 1 alternates untraced and traced repeats and reports the
per-layer metrics of the traced ones (tracer.py); the untraced ones give
the tracing overhead and the trace-identity check.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Files go to perfbench/work/<workload>/.
Exit 1 if no repeat could run, 2 if spcdm's sources are not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
from workloads import WORKLOADS, generate, write_input

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

# the whole run ends within this many seconds: a worker still running
# then has hung, is killed and counts as failed, and no new one starts
RUN_LIMIT_S = 165

END_TO_END = {
    "time_to_target_s": "s",
    "setup_s": "s",
    "updates_per_s": "1/s",
    "updates_to_target": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "eso.beta_prime": "1",
    "smoothing.useful_step_ratio": "1",
}


def per_layer_unit(name: str) -> str:
    if name in PER_LAYER_UNITS:
        return PER_LAYER_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def worker_env() -> dict:
    """The environment of a worker: spcdm from this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(
    wl, seed: int, input_path: Path, workdir: Path, traced: bool, env, workers: int = 1,
    timeout: float = RUN_LIMIT_S,
) -> dict | None:
    """One repeat in a fresh process; its JSON result, or None if it failed."""
    cmd = [
        sys.executable, str(WORKER),
        "--workload", wl.name,
        "--seed", str(seed),
        "--input", str(input_path),
        "--x-out", str(workdir / "final_x.npy"),
        "--workers", str(workers),
    ]
    if traced:
        cmd += ["--trace", "--spans-out", str(workdir / "spans.npz")]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        print(f"repeat killed after {timeout:.0f} s", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"repeat failed (exit {proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["traced"] = traced
    return out


def check(wl, inst, repeats: list[dict], workdir: Path) -> list[str]:
    """Same-seed repeats must agree exactly; the result must pass the oracle."""
    bad = []
    first = repeats[0]
    for key in ("trace", "updates", "final_x_sha256", "target_reached"):
        if any(r[key] != first[key] for r in repeats[1:]):
            bad.append(f"repeats disagree on {key} (traced and untraced included)")
    x = np.load(workdir / "final_x.npy")
    if hashlib.sha256(np.ascontiguousarray(x).tobytes()).hexdigest() != first["final_x_sha256"]:
        bad.append("saved final_x does not match the reported one")
    A = oracle.matrix(inst.m, inst.n, inst.rows, inst.cols, inst.vals)
    lp = oracle.l1_lp_optimum(A, inst.b, wl.lam) if wl.app == "l1" else None
    bad += oracle.check_solution(
        app=wl.app, A=A, b=inst.b, mu=wl.mu, lam=wl.lam, target=wl.target,
        final_x=x, last_value=first["trace"][-1][1],
        target_reached=first["target_reached"], lp_optimum=lp,
    )
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "spcdm" / "__init__.py").is_file():
        print(f"spcdm sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    t_start = time.monotonic()
    workdir = HERE / "work" / wl.name
    inst = generate(wl, args.seed)
    input_path = write_input(wl, inst, workdir)
    env = worker_env()

    # whole rounds only: one repeat, or in trace mode an untraced + traced pair
    round_size = 2 if args.trace else 1
    min_rounds = 1 if args.trace else 3
    repeats, attempted, failed = [], 0, 0
    measure_start = time.monotonic()
    rounds = 0
    while True:
        for k in range(round_size):
            left = RUN_LIMIT_S - (time.monotonic() - t_start)
            r = run_worker(wl, args.seed, input_path, workdir, k == 1, env, timeout=max(left, 1.0))
            attempted += 1
            if r is None:
                failed += 1
            else:
                r["round"] = rounds
                repeats.append(r)
        rounds += 1
        now = time.monotonic()
        # stop before a round that would overrun the measuring window
        per_round = (now - measure_start) / rounds
        if now + per_round > t_start + RUN_LIMIT_S or (
            rounds >= min_rounds and now + per_round > measure_start + args.seconds
        ):
            break
    untraced = [r for r in repeats if not r["traced"]]
    traced = [r for r in repeats if r["traced"]]
    if not untraced or (args.trace and not traced):
        print("no repeat of a needed kind completed", file=sys.stderr)
        return 1

    problems = check(wl, inst, repeats, workdir)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    input_path.unlink()

    med = statistics.median
    summary = {
        "workload": wl.name,
        "seed": args.seed,
        "repeats": len(repeats),
        "updates_to_target": repeats[0]["updates"],
        "epochs": repeats[0]["epochs"],
        "time_to_target_s": [r["time_to_target_s"] for r in untraced],
        "setup_s": [r["setup_s"] for r in untraced],
    }
    if args.trace:
        metrics = {
            name: {"value": med([r["layers"][name] for r in traced]), "unit": per_layer_unit(name)}
            for name in traced[0]["layers"]
        }
        # traced minus untraced solve time within a round: the pair ran back to back
        plain = {r["round"]: r["time_to_target_s"] for r in untraced}
        diffs = [r["time_to_target_s"] - plain[r["round"]] for r in traced if r["round"] in plain]
        overhead = med(diffs) if diffs else float("nan")
        shares = {
            name: med([r["solve_shares"].get(name, 0.0) for r in traced])
            for name in traced[0]["solve_shares"]
        }
        summary.update(tracing_overhead_s=overhead, solve_self_time_shares=shares)
        print(f"{wl.name} seed {args.seed}: {len(traced)} traced / {len(untraced)} untraced repeats, "
              f"tracing overhead {overhead:.3f} s on the solve")
        for name, share in sorted(shares.items(), key=lambda kv: -kv[1]):
            print(f"  solve self time {name:32s} {100 * share:5.1f} %")
    else:
        values = {
            "time_to_target_s": med(r["time_to_target_s"] for r in untraced),
            "setup_s": med(r["setup_s"] for r in untraced),
            "updates_per_s": med(r["updates"] / r["time_to_target_s"] for r in untraced),
            "updates_to_target": repeats[0]["updates"],
            "peak_rss_mb": med(r["peak_rss_mb"] for r in untraced),
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"{wl.name} seed {args.seed}: {len(untraced)} repeats, {repeats[0]['epochs']} epochs")
    for name, m in metrics.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    summary["metrics"] = metrics
    summary["problems"] = problems
    (workdir / "result.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
