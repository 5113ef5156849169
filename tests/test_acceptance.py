"""End-to-end acceptance checks, one numbered test per shipped guarantee.

Each test prints a single verdict line (run pytest with -s to see them
all); the assertion carries the same text, so failures are self-describing.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.optimize import linprog, minimize
from scipy.special import logsumexp

from helpers import (
    expected_intersection_sq,
    operator_norm_oracle,
    step,
    subspace_lipschitz,
)
from spcdm.eso import (
    beta1, beta2, beta3, dual_weights, local_factors, primal_weights, select_eso,
)
from spcdm.problem import ProblemData, synth_problem
from spcdm.sampling import hypergeom_pmf
from spcdm.smoothing import (
    evaluate,
    init_state,
    loss_constants,
    make_loss,
    nonsmooth_value,
    prepare_problem,
)
from spcdm.solver import Regularizer, SolverConfig, run


def _verdict(num, name, ok, details=""):
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}"
    if details:
        line += f"  [{details}]"
    print(line)
    assert ok, line


def _all_active_synth(m, n, omega, app):
    for seed in range(100):
        pd = synth_problem(m, n, omega, seed=seed)
        working = prepare_problem(pd, app)
        if primal_weights(working, dual_weights(working, app)).active.all():
            return working
    raise AssertionError("no fully active instance found")


def test_01_stepsize_factor_closed_forms():
    # (omega, tau, n, expected beta1, expected beta2), arithmetic done by hand
    grid = [
        (1, 1, 2, 1.0, 1.0),
        (1, 2, 2, 1.0, 1.0),
        (2, 1, 2, 1.0, 1.0),
        (2, 2, 2, 2.0, 2.0),
        (3, 2, 10, 2.0, 1.0 + 2.0 / 9.0),
        (5, 3, 10, 3.0, 1.0 + 8.0 / 9.0),
        (10, 10, 10, 10.0, 10.0),
        (4, 7, 12, 4.0, 1.0 + 18.0 / 11.0),
        (7, 4, 12, 4.0, 1.0 + 18.0 / 11.0),
        (12, 2, 12, 2.0, 2.0),
        (6, 6, 36, 6.0, 1.0 + 25.0 / 35.0),
        (2, 9, 20, 2.0, 1.0 + 8.0 / 19.0),
        (19, 2, 20, 2.0, 1.0 + 18.0 / 19.0),
        (100, 50, 1000, 50.0, 1.0 + 99.0 * 49.0 / 999.0),
        (50, 100, 1000, 50.0, 1.0 + 49.0 * 99.0 / 999.0),
        (414, 2, 3231961, 2.0, 1.0 + 413.0 / 3231960.0),
        (414, 16, 3231961, 16.0, 1.0 + 413.0 * 15.0 / 3231960.0),
        (414, 32, 3231961, 32.0, 1.0 + 413.0 * 31.0 / 3231960.0),
        (6061, 4, 100000, 4.0, 1.0 + 6060.0 * 3.0 / 99999.0),
        (6061, 16, 100000, 16.0, 1.0 + 6060.0 * 15.0 / 99999.0),
    ]
    assert len(grid) == 20
    worst = 0.0
    for omega, tau, n, want1, want2 in grid:
        worst = max(worst, abs(beta1(omega, tau) - want1))
        worst = max(worst, abs(beta2(omega, tau, n) - want2))
    wide = max(beta2(414, tau, 3231961) for tau in range(2, 33))
    ok = worst <= 1e-12 and wide < 1.004
    _verdict(
        1,
        "stepsize factor closed forms",
        ok,
        f"grid err {worst:.2e}, max wide-grid value {wide:.6f}",
    )


def test_02_stepsize_factor_max_norm_table():
    b4 = beta3(6061, 4, 100000, 1600)
    b16 = beta3(6061, 16, 100000, 1600)
    ok = 2.7 <= b4 <= 3.3 and 4.9 <= b16 <= 5.9
    _verdict(
        2,
        "max-norm stepsize factor reference windows",
        ok,
        f"tau=4 -> {b4:.4f} (want [2.7, 3.3]), tau=16 -> {b16:.4f} (want [4.9, 5.9])",
    )


def test_03_intersection_moment_oracles():
    worst_pmf = 0.0
    worst_sq = 0.0
    for n in range(1, 13):
        for tau in range(1, n + 1):
            subsets = np.array(list(itertools.combinations(range(n), tau)))
            # counts[s, j] = |{0..j} ∩ S_s|: intersection sizes for nested J
            counts = (subsets[:, :, None] < np.arange(1, n + 1)).sum(axis=1)
            sq_mean = (counts.astype(float) ** 2).mean(axis=0)
            for omega in range(1, n + 1):
                total = sum(hypergeom_pmf(omega, n, tau, l) for l in range(tau + 1))
                worst_pmf = max(worst_pmf, abs(total - 1.0))
                worst_sq = max(
                    worst_sq,
                    abs(expected_intersection_sq(omega, n, tau) - sq_mean[omega - 1]),
                )
    ok = worst_pmf <= 1e-10 and worst_sq <= 1e-9
    _verdict(
        3,
        "intersection moment oracles",
        ok,
        f"pmf sum err {worst_pmf:.2e}, second moment err {worst_sq:.2e}",
    )


def test_04_expected_separable_overapproximation():
    rng = np.random.default_rng(2024)
    worst = -math.inf
    checked = 0
    # p = 1 checks beta3 and the column-local ESO (beta' = 1, the step
    # weight of coordinate i is beta_i * w_i / mu), whether or not auto
    # would pick it.  The directions h are random, so this is a sanity
    # check: too-small factors can pass it.  The safety oracle is
    # test_eso's test_p1_eso_is_safe_by_brute_force, which maximises over h.
    cases = (("l1", 0.3, "beta2"), ("linf", 0.25, "beta3"), ("linf", 0.25, "local"),
             ("adaboost", 1.0, "beta3"), ("adaboost", 1.0, "local"))
    for n in range(4, 9):
        for app, mu, formula in cases:
            working = _all_active_synth(n + 3, n, 3, app)
            loss = make_loss(working, app, mu)
            dw = dual_weights(working, app)
            pw = primal_weights(working, dw)
            A = working.dense()
            if app == "l1":
                v = (A * A).sum(axis=1)
                a = mu * v * v
            pairs = [
                (0.5 * rng.standard_normal(n), 0.7 * rng.standard_normal(n))
                for _ in range(100)
            ]
            grads = []
            for x, h in pairs:
                st = init_state(loss, x)
                grads.append(st.full_gradient())
            for tau in range(1, n + 1):
                if formula == "local":
                    beta, w = 1.0 / mu, local_factors(working, tau, n) * pw.w
                else:
                    eso = select_eso(formula, working, pw, p=dw.p, tau=tau)
                    assert eso.formula == formula
                    beta, w = eso.beta_prime / mu, pw.w
                subsets = np.array(list(itertools.combinations(range(n), tau)))
                mask = np.zeros((len(subsets), n))
                mask[np.arange(len(subsets))[:, None], subsets] = 1.0
                for (x, h), g in zip(pairs, grads):
                    r0 = A @ x - working.b
                    cols = r0[:, None] + (A * h[None, :]) @ mask.T
                    if app == "l1":
                        ar = np.abs(cols)
                        q = np.minimum(ar, a[:, None])
                        vals = (q * q / (2 * a[:, None]) + (ar - q)).sum(axis=0)
                        ar0 = np.abs(r0)
                        q0 = np.minimum(ar0, a)
                        f0 = float((q0 * q0 / (2 * a) + (ar0 - q0)).sum())
                    else:
                        vals = mu * (logsumexp(cols / mu, axis=0) - math.log(working.m))
                        f0 = mu * float(logsumexp(r0 / mu) - math.log(working.m))
                    bound = f0 + (tau / n) * (
                        float(g @ h) + 0.5 * beta * float(w @ (h * h))
                    )
                    worst = max(worst, float(vals.mean()) - bound)
                    checked += 1
    ok = worst <= 1e-10
    _verdict(
        4,
        "expected separable overapproximation",
        ok,
        f"{checked} exhaustive expectations, worst slack {worst:.2e}",
    )


def test_05_submatrix_norm_bound():
    rng = np.random.default_rng(55)
    worst_gap = -math.inf
    worst_unit = 0.0
    for trial in range(200):
        omega = int(rng.integers(1, 11))
        pd = synth_problem(8, 10, omega, seed=trial)
        dw = dual_weights(pd, "l1")
        pw = primal_weights(pd, dw)
        active = np.flatnonzero(pw.active)
        for i in active:
            worst_unit = max(
                worst_unit,
                abs(operator_norm_oracle(pd, [int(i)], pw.w, dw.v) - 1.0),
            )
        size = int(rng.integers(1, 11))
        S = np.sort(rng.choice(10, size=size, replace=False))
        S = S[pw.active[S]]
        if S.size == 0:
            continue
        gap = operator_norm_oracle(pd, S, pw.w, dw.v) - subspace_lipschitz(pd, S)
        worst_gap = max(worst_gap, gap)
    ok = worst_gap <= 1e-9 and worst_unit <= 1e-9
    _verdict(
        5,
        "submatrix norm bound",
        ok,
        f"worst norm-vs-overlap gap {worst_gap:.2e}, "
        f"worst single-column deviation {worst_unit:.2e}",
    )


def test_06_gradient_finite_difference():
    rng = np.random.default_rng(66)
    step = 1e-6
    worst = 0.0
    combos = [("l1", mu) for mu in (1e-2, 1e-1, 1.0)]
    combos += [("linf", mu) for mu in (1e-2, 1e-1, 1.0)]
    combos += [("adaboost", 1.0)]
    for app, mu in combos:
        for inst in range(50):
            m = int(rng.integers(4, 12))
            n = int(rng.integers(4, 10))
            omega = int(rng.integers(1, n + 1))
            raw = synth_problem(m, n, omega, seed=inst * 7 + 1)
            working = prepare_problem(raw, app)
            loss = make_loss(working, app, mu)
            x = 0.5 * rng.standard_normal(n)
            g = init_state(loss, x).full_gradient()
            scale = max(1.0, float(np.abs(g).max()))
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                fd = (evaluate(loss, x + e) - evaluate(loss, x - e)) / (2 * step)
                worst = max(worst, abs(fd - g[i]) / scale)
    ok = worst <= 1e-5
    _verdict(6, "gradient finite differences", ok, f"max relative error {worst:.2e}")


def test_07_smoothing_sandwich_and_gap_bracket():
    rng = np.random.default_rng(77)
    worst_sandwich = -math.inf
    apps = ("linf", "l1", "adaboost")
    for trial in range(200):
        app = apps[trial % 3]
        m, n = int(rng.integers(2, 8)), int(rng.integers(1, 6))
        raw = synth_problem(m, n, min(2, n), seed=trial)
        working = prepare_problem(raw, app)
        mu = 1.0 if app == "adaboost" else float(rng.uniform(0.05, 1.0))
        loss = make_loss(working, app, mu)
        _, D = loss_constants(app, working)
        for _ in range(5):
            x = 2.0 * rng.standard_normal(n)
            fmu = evaluate(loss, x)
            f = nonsmooth_value(loss, x)
            worst_sandwich = max(worst_sandwich, fmu - f, f - fmu - mu * D)

    # optimality-gap bracket against reference optima of both objectives
    worst_gap = -math.inf
    for trial in range(10):
        app = ("l1", "linf")[trial % 2]
        n = int(rng.integers(2, 7))
        m = n + 2 + int(rng.integers(0, 3))
        raw = synth_problem(m, n, min(2, n), seed=trial + 300)
        working = prepare_problem(raw, app)
        mu = float(rng.uniform(0.1, 0.5))
        loss = make_loss(working, app, mu)
        _, D = loss_constants(app, working)
        W, bw = working.dense(), working.b
        if app == "l1":
            # min sum of t with -t <= Wx - bw <= t
            c = np.concatenate([np.zeros(n), np.ones(working.m)])
            A_ub = np.block([[W, -np.eye(working.m)], [-W, -np.eye(working.m)]])
            b_ub = np.concatenate([bw, -bw])
            bounds = [(None, None)] * n + [(0, None)] * working.m
        else:
            # min s with Wx - s <= bw (rows already carry both signs)
            c = np.concatenate([np.zeros(n), [1.0]])
            A_ub = np.hstack([W, -np.ones((working.m, 1))])
            b_ub = bw
            bounds = [(None, None)] * (n + 1)
        lp = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=bounds, method="highs")
        assert lp.status == 0
        f_star = float(lp.fun)

        if app == "l1":
            v = (W * W).sum(axis=1)
            a = mu * v * v

            def fmu_dense(x):
                r = W @ x - bw
                ar = np.abs(r)
                q = np.minimum(ar, a)
                return float((q * q / (2 * a) + (ar - q)).sum())

            def grad_dense(x):
                return W.T @ np.clip((W @ x - bw) / a, -1.0, 1.0)

        else:

            def fmu_dense(x):
                return mu * float(logsumexp((W @ x - bw) / mu) - math.log(working.m))

            def grad_dense(x):
                r = (W @ x - bw) / mu
                z = np.exp(r - logsumexp(r))
                return W.T @ z

        fmu_star = math.inf
        for x0 in (np.zeros(n), lp.x[:n]):
            res = minimize(
                fmu_dense, x0, jac=grad_dense, method="L-BFGS-B",
                options={"maxiter": 20000, "ftol": 1e-15, "gtol": 1e-12},
            )
            fmu_star = min(fmu_star, float(res.fun))

        for _ in range(20):
            x = 1.5 * rng.standard_normal(n)
            gap_f = nonsmooth_value(loss, x) - f_star
            gap_fmu = evaluate(loss, x) - fmu_star
            worst_gap = max(
                worst_gap, gap_f - gap_fmu - mu * D, gap_fmu - mu * D - gap_f
            )
    ok = worst_sandwich <= 1e-10 and worst_gap <= 1e-6
    _verdict(
        7,
        "smoothing sandwich and optimality-gap bracket",
        ok,
        f"worst sandwich violation {worst_sandwich:.2e}, "
        f"worst gap-bracket violation {worst_gap:.2e}",
    )


def test_08_incremental_state_fidelity():
    pd = synth_problem(1000, 2000, 5, seed=13)
    working = prepare_problem(pd, "linf")
    loss = make_loss(working, "linf", 0.5)
    pw = primal_weights(working, dual_weights(working, "linf"))
    active = np.flatnonzero(pw.active)
    st = init_state(loss)
    rng = np.random.default_rng(99)
    for _ in range(10 * working.n):
        i = int(active[rng.integers(active.size)])
        step(st, i, float(0.02 * rng.standard_normal()))
    assert st.staleness == 10 * working.n
    ref = evaluate(loss, st.x)
    drift = abs(st.value() - ref) / max(1.0, abs(ref))
    st.recompute()
    acc_err = abs(st.lse_acc - 1.0)
    ok = drift <= 1e-6 and acc_err <= 1e-14
    _verdict(
        8,
        "incremental state fidelity",
        ok,
        f"drift {drift:.2e} after {10 * working.n} updates, "
        f"accumulator reset error {acc_err:.1e}",
    )


def _trailing_means_nonincreasing(vals, window, slack):
    means = [
        sum(vals[k - window + 1: k + 1]) / window
        for k in range(window - 1, len(vals))
    ]
    return all(b <= a + slack for a, b in zip(means, means[1:]))


def test_09_solver_speedup_model():
    pd = synth_problem(2000, 5000, 5, seed=42)
    loss = make_loss(pd, "l1", 0.1)
    reg = Regularizer.none()

    probe = run(pd, loss, reg, SolverConfig(tau=1, seed=7, max_epochs=30))
    vals = [v for _, v in probe.objective_trace]
    target = vals[20]

    updates = {}
    reached = True
    for tau in (1, 2, 4, 8):
        rep = run(
            pd, loss, reg,
            SolverConfig(tau=tau, seed=7, max_epochs=120, target_value=target),
        )
        reached &= rep.target_reached
        updates[tau] = rep.coordinate_updates

    free8 = run(pd, loss, reg, SolverConfig(tau=8, seed=3, max_epochs=30))
    vals8 = [v for _, v in free8.objective_trace]
    slack = 1e-9 * max(1.0, vals[0])
    monotone = _trailing_means_nonincreasing(
        vals, 6, slack
    ) and _trailing_means_nonincreasing(vals8, 6, slack)

    ratio = max(updates.values()) / min(updates.values())
    ok = reached and ratio <= 2.0 and monotone
    _verdict(
        9,
        "solver speedup model",
        ok,
        f"updates to target {updates}, spread x{ratio:.3f}, "
        f"trailing means nonincreasing {monotone}",
    )


def test_10_determinism():
    pd = synth_problem(200, 300, 6, seed=1)
    working = prepare_problem(pd, "linf")
    loss = make_loss(working, "linf", 0.2)
    reports = [
        run(working, loss, Regularizer.none(),
            SolverConfig(tau=16, seed=11, max_epochs=5, workers=workers))
        for workers in (1, 1, 4)
    ]
    same_trace = (
        reports[0].objective_trace == reports[1].objective_trace
        and reports[0].objective_trace == reports[2].objective_trace
    )
    same_x = np.array_equal(reports[0].final_x, reports[1].final_x) and np.array_equal(
        reports[0].final_x, reports[2].final_x
    )
    ok = same_trace and same_x
    _verdict(
        10,
        "determinism across reruns and worker counts",
        ok,
        f"trace bit-identical {same_trace}, iterate bit-identical {same_x}",
    )
