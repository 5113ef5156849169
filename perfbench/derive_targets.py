"""Re-derive a workload's fixed target from the objective traces of many seeds.

Runs the workload without a target for ``--epoch`` + 1 epochs on each
seed and prints, per epoch, the lowest and highest traced value across
seeds.  A target reached at exactly epoch E on every seed must lie in
[max over seeds at E, min over seeds at E-1); the script prints that
window and its midpoint, which is what workloads.py pins.

    PYTHONPATH=src python3 perfbench/derive_targets.py \
        --workload l1-l1reg-tau64 --epoch 17 --seeds 0:20
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, generate, svmlight_text


def seed_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--epoch", type=int, required=True, help="epoch E the target should sit at")
    ap.add_argument("--seeds", type=seed_range, default=range(0, 20), help="LO:HI, HI exclusive")
    args = ap.parse_args(argv)

    from spcdm import solver
    from worker import build_loss, regularizer

    wl = WORKLOADS[args.workload]
    traces = []
    for seed in args.seeds:
        inst = generate(wl, seed)
        if wl.input_format == "svmlight":
            raw = Path(__file__).resolve().parent / "work" / f"derive-{wl.name}.svm"
            raw.parent.mkdir(parents=True, exist_ok=True)
            raw.write_text(svmlight_text(inst), encoding="utf-8")
        else:
            raw = {"rows": inst.rows, "cols": inst.cols, "vals": inst.vals, "b": inst.b}
        try:
            loss = build_loss(wl, str(raw) if isinstance(raw, Path) else raw)
        finally:
            if isinstance(raw, Path):
                raw.unlink()
        cfg = solver.SolverConfig(tau=wl.tau, seed=seed, max_epochs=args.epoch + 1)
        report = solver.run(loss.pd, loss, regularizer(wl), cfg)
        traces.append([v for _, v in report.objective_trace])
        print(f"seed {seed}: updates/epoch {report.coordinate_updates // cfg.max_epochs}",
              file=sys.stderr)
    t = np.array(traces)
    for e in range(t.shape[1]):
        print(f"epoch {e:3d}  min {t[:, e].min():.9g}  max {t[:, e].max():.9g}")
    hi, lo = t[:, args.epoch - 1].min(), t[:, args.epoch].max()
    print(f"window at epoch {args.epoch}: [{lo:.9g}, {hi:.9g})  pinned {wl.target!r}")
    if lo < hi:
        print(f"midpoint {0.5 * (lo + hi):.9g}")
    else:
        print("no target separates the seeds at this epoch")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
