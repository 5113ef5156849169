"""Command line front end: solve, eso-table, gradcheck, bench.

Exit codes: 0 success, 1 usage or I/O or runtime error, 2 iteration
budget exhausted before the requested target, 3 a requested check
failed.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

import numpy as np

from .eso import beta1, beta2, beta3
from .problem import ProblemData, load_svmlight, synth_problem
from .smoothing import (
    evaluate,
    init_state,
    loss_constants,
    make_loss,
    nonsmooth_value,
    prepare_problem,
)
from .solver import (
    Regularizer,
    RunReport,
    SolverConfig,
    SolverDiverged,
    choose_mu,
    run,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _add_dataset_args(p: _Parser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dataset", help="svmlight/libsvm text file")
    src.add_argument("--synth", metavar="M,N,OMEGA",
                     help="synthetic instance: rows, columns, nonzeros per row")
    p.add_argument("--n-cols", type=int, default=None,
                   help="declared column count when the data understates it "
                        "(--dataset only)")
    p.add_argument("--synth-seed", type=int, default=0,
                   help="seed for --synth generation")


def _add_run_args(p: _Parser) -> None:
    p.add_argument("--app", required=True, choices=("linf", "l1", "adaboost"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-epochs", type=int, default=100)
    p.add_argument("--trace-every", type=int, default=1)
    p.add_argument("--beta-formula", default="auto",
                   help="auto, beta1, beta2, beta3, or a numeric override; for "
                        "linf and adaboost auto runs the column-local ESO (reported "
                        "as local) when its largest factor is below beta3")
    smooth = p.add_mutually_exclusive_group()
    smooth.add_argument("--mu", type=float, default=None,
                        help="smoothing level (fixed at 1 for adaboost)")
    smooth.add_argument("--eps-prime", type=float, default=None,
                        help="accuracy on the unsmoothed objective; sets mu")


def build_parser() -> _Parser:
    parser = _Parser(prog="spcdm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("solve",
                       help="minimize one smoothed objective")
    _add_dataset_args(p)
    _add_run_args(p)
    p.add_argument("--tau", type=int, required=True)
    p.add_argument("--reg", default="none",
                   help="none, l1:LAM, box:LO:HI, or ridge:DELTA")
    p.add_argument("--target", type=float, default=None,
                   help="stop once the traced objective reaches this value")
    p.add_argument("--out", default=None,
                   help="prefix for OUT.json report and OUT.csv trace")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("eso-table",
                       help="tabulate beta1/beta2/beta3 over a tau range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--omega", type=int, required=True)
    p.add_argument("--tau-range", required=True,
                   help="LO:HI, LO:HI:STEP, or a comma list")
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_eso_table)

    p = sub.add_parser("gradcheck",
                       help="finite-difference audit of the gradients")
    p.add_argument("--app", required=True, choices=("linf", "l1", "adaboost"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--mu", type=float, default=None,
                   help="smoothing level (default 0.1; adaboost fixes 1)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench",
                       help="updates-to-target across a tau list")
    _add_dataset_args(p)
    _add_run_args(p)
    p.add_argument("--tau-list", required=True, help="comma list, e.g. 1,2,4,8")
    p.add_argument("--reg", default="none")
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def _load_problem(args) -> ProblemData:
    if args.dataset is not None:
        return load_svmlight(args.dataset, n_cols=args.n_cols)
    if args.n_cols is not None:
        raise _UsageError("--n-cols applies to --dataset only; --synth sets the column count")
    try:
        m, n, omega = (int(t) for t in args.synth.split(","))
    except ValueError:
        raise _UsageError(f"bad --synth spec {args.synth!r}") from None
    return synth_problem(m, n, omega, seed=args.synth_seed)


def _parse_reg(spec: str) -> Regularizer:
    head, _, rest = spec.partition(":")
    try:
        if head == "none" and not rest:
            return Regularizer.none()
        if head == "l1":
            return Regularizer.l1(float(rest))
        if head == "box":
            lo, hi = rest.split(":")
            return Regularizer.box(float(lo), float(hi))
        if head == "ridge":
            return Regularizer.ridge(float(rest))
    except ValueError as e:
        raise _UsageError(f"bad regularizer {spec!r}: {e}") from None
    raise _UsageError(f"bad regularizer {spec!r}")


def _parse_tau_values(spec: str, n: int) -> list[int]:
    try:
        if "," in spec:
            taus = [int(t) for t in spec.split(",")]
        elif ":" in spec:
            parts = [int(t) for t in spec.split(":")]
            if len(parts) == 2:
                taus = list(range(parts[0], parts[1] + 1))
            elif len(parts) == 3:
                taus = list(range(parts[0], parts[1] + 1, parts[2]))
            else:
                raise ValueError("too many fields")
        else:
            taus = [int(spec)]
    except ValueError:
        raise _UsageError(f"bad tau range {spec!r}") from None
    if not taus or any(t < 1 or t > n for t in taus):
        raise _UsageError(f"tau values must lie in [1, {n}]")
    return taus


def _resolve_mu(args, app: str, D: float) -> float:
    """Pick the smoothing level from --mu / --eps-prime / defaults;
    make_loss checks the value."""
    if args.eps_prime is not None:
        if app == "adaboost":
            raise _UsageError("adaboost has no eps-prime mode (mu is fixed)")
        return choose_mu(args.eps_prime, D)
    if args.mu is not None:
        return args.mu
    if app == "adaboost":
        return 1.0
    raise _UsageError(f"--app {app} needs --mu or --eps-prime")


def _write_report(report: RunReport, prefix: str) -> None:
    with open(prefix + ".json", "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2)
        fh.write("\n")
    with open(prefix + ".csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "objective"])
        for epoch, val in report.objective_trace:
            writer.writerow([epoch, repr(val)])


def _setup(args):
    """Dataset -> (working matrix, bound loss, regularizer) for solve and bench."""
    working = prepare_problem(_load_problem(args), args.app)
    _, D = loss_constants(args.app, working)
    mu = _resolve_mu(args, args.app, D)
    reg = _parse_reg(args.reg)
    return working, make_loss(working, args.app, mu), reg


def _config(args, tau: int) -> SolverConfig:
    return SolverConfig(
        tau=tau,
        seed=args.seed,
        beta_formula=_beta_formula(args.beta_formula),
        max_epochs=args.max_epochs,
        target_value=args.target,
        trace_every=args.trace_every,
    )


def cmd_solve(args) -> int:
    working, loss, reg = _setup(args)

    target_requested = args.target is not None or args.eps_prime is not None
    if args.eps_prime is not None and args.target is None and args.app != "adaboost":
        # f >= 0 for the residual losses, so F(0) bounds the initial gap:
        # an accuracy request at or above it is already met by x = 0.
        f0 = nonsmooth_value(loss, np.zeros(working.n))
        if args.eps_prime >= f0:
            report = run(working, loss, reg, replace(_config(args, args.tau), max_epochs=0))
            report.target_reached = True  # the accuracy target, not a --target value
            if args.out:
                _write_report(report, args.out)
            print("accuracy target met at the starting point; nothing to do")
            return 0

    report = run(working, loss, reg, _config(args, args.tau))
    if args.out:
        _write_report(report, args.out)
    last = report.objective_trace[-1][1]
    print(
        f"epochs={report.epochs_run} updates={report.coordinate_updates} "
        f"objective={last:.12g} target_reached={report.target_reached}"
    )
    if target_requested and not report.target_reached:
        return 2
    return 0


def _beta_formula(spec: str):
    """A number is an override; any other name is select_eso's to check."""
    try:
        return float(spec)
    except ValueError:
        return spec


def cmd_eso_table(args) -> int:
    taus = _parse_tau_values(args.tau_range, args.n)
    rows = [
        (
            tau,
            beta1(args.omega, tau),
            beta2(args.omega, tau, args.n),
            beta3(args.omega, tau, args.n, args.m),
        )
        for tau in taus
    ]
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["tau", "beta1", "beta2", "beta3"])
        for tau, b1, b2, b3 in rows:
            writer.writerow([tau, repr(float(b1)), repr(float(b2)), repr(float(b3))])
    finally:
        if args.out:
            out.close()
    return 0


def cmd_gradcheck(args) -> int:
    app = args.app
    mu = args.mu if args.mu is not None else 1.0 if app == "adaboost" else 0.1
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    worst_where = ""
    step = 1e-6
    for inst in range(20):
        m = int(rng.integers(4, 12))
        n = int(rng.integers(4, 10))
        omega = int(rng.integers(1, n + 1))
        raw = synth_problem(m, n, omega, seed=args.seed * 1000 + inst)
        working = prepare_problem(raw, app)
        loss = make_loss(working, app, mu)
        x = 0.5 * rng.standard_normal(n)
        g = init_state(loss, x).full_gradient()
        scale = max(1.0, float(np.abs(g).max()))
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd = (evaluate(loss, x + e) - evaluate(loss, x - e)) / (2 * step)
            err = abs(fd - g[i]) / scale
            if err > worst:
                worst = err
                worst_where = f"instance {inst}, coordinate {i}"
    print(f"gradcheck app={app} mu={mu:g}: max relative error {worst:.3e}")
    if worst > 1e-5:
        print(f"FAILED at {worst_where} (tolerance 1e-5)", file=sys.stderr)
        return 3
    return 0


def cmd_bench(args) -> int:
    working, loss, reg = _setup(args)
    taus = _parse_tau_values(args.tau_list, working.n)

    rows = []
    all_reached = True
    for tau in taus:
        report = run(working, loss, reg, _config(args, tau))
        all_reached &= report.target_reached
        rows.append(
            (
                tau,
                report.epochs_run,
                report.coordinate_updates,
                report.wall_time,
                report.objective_trace[-1][1],
                report.target_reached,
                report.config["beta_formula"],
                report.config["beta_prime"],
                report.config["local_beta_max"],
            )
        )
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.writer(out)
        # a row that stopped at --max-epochs says so instead of passing for converged
        # and each row names the ESO it ran, with the largest column-local
        # factor where it was computed (under local, beta_prime reads 1)
        writer.writerow(["tau", "epochs", "updates", "wall_time", "final_value", "target_reached",
                         "beta_formula", "beta_prime", "local_beta_max"])
        for tau, epochs, updates, wall, val, reached, formula, bp, local in rows:
            writer.writerow([tau, epochs, updates, f"{wall:.6f}", repr(val), reached,
                             formula, repr(bp), "" if local is None else repr(local)])
    finally:
        if args.out:
            out.close()
    return 0 if all_reached else 2


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, SolverDiverged, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
