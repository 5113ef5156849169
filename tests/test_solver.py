import json
import math
import warnings

import numpy as np
import pytest

from helpers import assert_same_array, prox, replay, row_slices
from spcdm import solver
from spcdm.eso import beta3, dual_weights, primal_weights
from spcdm.problem import ProblemData, synth_problem
from spcdm.sampling import SamplingSpec, draw
from spcdm.smoothing import (
    LSE_ACC_HI, LSE_ACC_LO, SmoothState, evaluate, init_state, make_loss, prepare_problem,
)
from spcdm.solver import (
    Regularizer,
    RunReport,
    SolverConfig,
    SolverDiverged,
    choose_mu,
    iter_bound_nonsmooth,
    iter_bound_smoothed,
    run,
)


def _model(h, grad, x, beta, w, reg):
    return grad * h + 0.5 * beta * w * h * h + reg.value(np.array([x + h]), np.array([w]))


def test_prox_step_hand_values():
    assert prox(2.0, 0.0, 1.0, 2.0, Regularizer.none()) == pytest.approx(-1.0)
    assert prox(-3.0, 0.0, 1.0, 1.0, Regularizer.l1(1.0)) == pytest.approx(2.0)
    assert prox(10.0, 0.5, 1.0, 1.0, Regularizer.box(0.0, 1.0)) == pytest.approx(-0.5)
    assert prox(2.0, 1.0, 2.0, 3.0, Regularizer.ridge(4.0)) == pytest.approx(-7.0 / 9.0)
    # soft threshold kills small gradients entirely
    assert prox(0.5, 0.0, 1.0, 1.0, Regularizer.l1(1.0)) == 0.0


def test_prox_step_minimizes_model():
    rng = np.random.default_rng(31)
    regs = [
        Regularizer.none(),
        Regularizer.l1(0.7),
        Regularizer.box(-0.4, 1.1),
        Regularizer.ridge(2.3),
    ]
    for reg in regs:
        for _ in range(50):
            grad = float(rng.standard_normal() * 3)
            x = float(rng.standard_normal())
            if reg.kind == "box":
                x = float(rng.uniform(reg.lo, reg.hi))
            beta = float(rng.uniform(0.1, 5.0))
            w = float(rng.uniform(0.1, 5.0))
            h = prox(grad, x, beta, w, reg)
            best = _model(h, grad, x, beta, w, reg)
            for trial in np.concatenate(
                [rng.uniform(-4, 4, size=60), h + np.array([-1e-6, 1e-6])]
            ):
                assert best <= _model(float(trial), grad, x, beta, w, reg) + 1e-10


def test_regularizer_validation_and_values():
    with pytest.raises(ValueError):
        Regularizer(kind="elastic")
    with pytest.raises(ValueError):
        Regularizer.l1(-0.1)
    with pytest.raises(ValueError):
        Regularizer.box(2.0, 1.0)
    with pytest.raises(ValueError):
        Regularizer.ridge(-1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="lam must be nonnegative and finite"):
            Regularizer.l1(bad)
        with pytest.raises(ValueError, match="delta must be nonnegative and finite"):
            Regularizer.ridge(bad)
    with pytest.raises(ValueError):
        Regularizer.box(math.nan, 1.0)
    w = np.array([2.0, 0.5])
    assert Regularizer.none().value(np.ones(2), w) == 0.0
    assert Regularizer.l1(3.0).value(np.array([1.0, -2.0]), w) == pytest.approx(9.0)
    assert Regularizer.box(0.0, 1.0).value(np.array([0.5, 1.0]), w) == 0.0
    assert Regularizer.box(0.0, 1.0).value(np.array([0.5, 1.5]), w) == math.inf
    assert Regularizer.ridge(4.0).value(np.array([1.0, 2.0]), w) == pytest.approx(
        0.5 * 4.0 * (2.0 + 2.0)
    )
    assert Regularizer.ridge(4.0).sigma_psi == 4.0
    assert Regularizer.l1(1.0).sigma_psi == 0.0


def test_ridge_value_is_a_ufunc_sum_within_1e15_of_dot():
    # the value sums w * x * x pairwise, where a BLAS dot may split over threads
    rng = np.random.default_rng(5)
    for n in (7, 20_000):
        x, w = rng.standard_normal(n), rng.uniform(0.01, 10.0, n)
        want = 0.5 * 0.7 * float(np.dot(w * x, x))
        assert abs(Regularizer.ridge(0.7).value(x, w) - want) <= 1e-15 * want


def test_choose_mu():
    assert choose_mu(0.01, math.log(1600)) == pytest.approx(0.01 / (2 * math.log(1600)))
    with pytest.raises(ValueError):
        choose_mu(0.0, 1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eps_prime must be positive and finite"):
            choose_mu(bad, 1.0)
    with pytest.raises(ValueError):
        choose_mu(0.1, 0.0)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tau=0)
    with pytest.raises(ValueError):
        SolverConfig(tau=1, max_epochs=-1)
    with pytest.raises(ValueError):
        SolverConfig(tau=1, trace_every=0)
    with pytest.raises(ValueError):
        SolverConfig(tau=1, workers=0)
    with pytest.raises(ValueError, match="target_value"):
        SolverConfig(tau=1, target_value=math.nan)
    for name in ("tau", "seed", "max_epochs", "trace_every", "workers"):
        for bad in (2.5, 2.0, True, np.True_, "2", None):
            with pytest.raises(ValueError, match=name):
                SolverConfig(**{"tau": 1, name: bad})
    cfg = SolverConfig(tau=np.int64(2), seed=np.int32(1), max_epochs=np.uint8(3),
                       trace_every=np.int16(1), workers=np.int64(1))
    assert cfg.tau == 2 and cfg.max_epochs == 3


def _all_active_problem(m, n, omega, seed):
    pd = synth_problem(m, n, omega, seed=seed)
    pw = primal_weights(pd, dual_weights(pd, "l1"))
    assert pw.active.all(), "pick a seed where every column is hit"
    return pd


def test_serial_run_matches_straight_line_reference():
    pd = _all_active_problem(30, 6, 3, seed=14)
    mu = 0.25
    loss = make_loss(pd, "l1", mu)
    cfg = SolverConfig(tau=1, seed=9, max_epochs=3, trace_every=1)
    report = run(pd, loss, Regularizer.none(), cfg)

    # mirror of the update loop, plain arrays only
    n = pd.n
    # each row's squares summed one term at a time, by ascending column
    v = np.zeros(pd.m)
    for j, (_, vals) in enumerate(row_slices(pd)):
        for t in vals.tolist():
            v[j] += t * t
    a = mu * v * v
    w = primal_weights(pd, dual_weights(pd, "l1")).w
    beta = 1.0 / mu  # tau=1 pairwise term vanishes, beta_prime = 1

    def residual(x):
        r = -pd.b.copy()
        for i in np.flatnonzero(x):
            rows, vals = pd.col(int(i))
            r[rows] += vals * x[i]
        return r

    def huber_total(r):
        ar = np.abs(r)
        q = np.minimum(ar, a)
        return float((q * q / (2 * a) + (ar - q)).sum())

    x = np.zeros(n)
    r = residual(x)
    staleness = 0
    spec = SamplingSpec(n=n, tau=1, seed=9)
    trace = [(0, huber_total(r))]
    rnd = 0
    for epoch in range(1, 4):
        for _ in range(n):
            i = int(draw(spec, rnd)[0])
            rnd += 1
            rows, vals = pd.col(i)
            z = np.clip(r[rows] / a[rows], -1.0, 1.0)
            g = float(np.dot(vals, z))
            h = -g / (beta * w[i])
            if h != 0.0:
                x[i] += h
                r[rows] = r[rows] + vals * h
                staleness += 1
            if staleness >= n:
                r = residual(x)
                staleness = 0
        r = residual(x)
        staleness = 0
        trace.append((epoch, huber_total(r)))

    assert report.objective_trace == trace
    assert np.array_equal(report.final_x, x)
    assert report.coordinate_updates == 3 * n
    assert report.config["beta_prime"] == 1.0
    assert report.config["beta_formula"] == "beta2"


def test_serial_trace_monotone_for_single_coordinate_steps():
    pd = _all_active_problem(40, 8, 4, seed=3)
    loss = make_loss(pd, "l1", 0.1)
    report = run(pd, loss, Regularizer.none(), SolverConfig(tau=1, seed=4, max_epochs=25))
    vals = [v for _, v in report.objective_trace]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < vals[0]


def test_parallel_converges_to_reference_minimum():
    pd = _all_active_problem(60, 10, 5, seed=8)
    mu = 0.05
    loss = make_loss(pd, "l1", mu)
    report = run(pd, loss, Regularizer.none(), SolverConfig(tau=4, seed=1, max_epochs=200))
    vals = np.array([v for _, v in report.objective_trace])
    assert np.diff(vals).mean() < 0

    from scipy.optimize import minimize

    A = pd.dense()
    v = (A * A).sum(axis=1)
    a = mu * v * v

    def f(x):
        r = A @ x - pd.b
        ar = np.abs(r)
        q = np.minimum(ar, a)
        return float((q * q / (2 * a) + (ar - q)).sum())

    def g(x):
        return A.T @ np.clip((A @ x - pd.b) / a, -1.0, 1.0)

    res = minimize(f, np.zeros(10), jac=g, method="L-BFGS-B",
                   options={"maxiter": 5000, "ftol": 1e-15, "gtol": 1e-12})
    gap0 = vals[0] - res.fun
    assert vals[-1] - res.fun <= 1e-3 * gap0


def test_deterministic_across_runs_and_workers():
    pd = synth_problem(50, 40, 6, seed=77)
    working = prepare_problem(pd, "linf")
    loss = make_loss(working, "linf", 0.2)
    base = None
    for workers in (1, 1, 4):
        cfg = SolverConfig(tau=8, seed=5, max_epochs=6, workers=workers)
        rep = run(working, loss, Regularizer.none(), cfg)
        if base is None:
            base = rep
        else:
            assert rep.objective_trace == base.objective_trace
            assert np.array_equal(rep.final_x, base.final_x)


def test_run_report_json_round_trip():
    pd = _all_active_problem(20, 5, 2, seed=6)
    loss = make_loss(pd, "l1", 0.3)
    rep = run(pd, loss, Regularizer.l1(0.01), SolverConfig(tau=2, seed=0, max_epochs=4))
    blob = json.dumps(rep.to_dict())
    back = RunReport.from_dict(json.loads(blob))
    assert back.epochs_run == rep.epochs_run
    assert back.coordinate_updates == rep.coordinate_updates
    assert back.objective_trace == rep.objective_trace
    assert back.target_reached == rep.target_reached
    assert back.final_x_norm == rep.final_x_norm
    assert back.final_x_nnz == rep.final_x_nnz
    assert back.config == rep.config
    # the echoed step factor is beta = beta'/(sigma mu), here with beta' > 1
    c = rep.config
    assert c["beta_prime"] > 1 and c["beta"] == c["beta_prime"] / (c["sigma"] * c["mu"])
    assert back.final_x is None  # the iterate itself stays out of the report file
    with pytest.raises(ValueError):
        RunReport.from_dict({"schema": 99})


def test_final_x_norm_matches_linalg_norm():
    pd = synth_problem(300, 2000, 4, seed=9)
    loss = make_loss(pd, "l1", 0.3)
    rep = run(pd, loss, Regularizer.none(), SolverConfig(tau=16, seed=2, max_epochs=3))
    want = np.linalg.norm(rep.final_x)
    assert want > 0 and rep.final_x_nnz > 500
    assert abs(rep.final_x_norm - want) <= 1e-15 * want


def test_auto_eso_pins_adaboost_updates_to_target():
    # adaboost under "auto": the column-local ESO where its largest factor
    # is below beta3 (tau = 8), beta3 where it is not (tau = 1 and 64);
    # the run stops at the step where the objective reaches the target
    pd = prepare_problem(synth_problem(2000, 1000, 5, seed=0), "adaboost")
    loss = make_loss(pd, "adaboost", 1.0)
    target = -0.0015
    for tau, formula, local_max, updates in (
        (1, "beta3", 1.0, 1320),
        (8, "local", 1.0 + 7 * 80 / 999, 1824),  # the largest sum of |J_j| - 1 is 80
        (64, "beta3", 5.0, 5632),  # capped at the longest row
    ):
        rep = run(pd, loss, Regularizer.none(),
                  SolverConfig(tau=tau, max_epochs=10, target_value=target))
        c = rep.config
        assert (c["beta_formula"], rep.coordinate_updates, rep.target_reached) == (
            formula, updates, True)
        assert c["local_beta_max"] == pytest.approx(local_max, rel=1e-12)
        b3 = beta3(5, tau, 1000, 2000)
        assert c["beta_prime"] == (1.0 if formula == "local" else b3)
        assert local_max < b3 if formula == "local" else local_max >= b3
    slower = run(pd, loss, Regularizer.none(),
                 SolverConfig(tau=8, max_epochs=10, target_value=target, beta_formula="beta3"))
    assert slower.target_reached and slower.coordinate_updates == 3440
    assert slower.config["local_beta_max"] is None


def test_auto_keeps_beta3_bit_for_bit_at_tau_1():
    pd = prepare_problem(synth_problem(300, 200, 5, seed=0), "linf")
    loss = make_loss(pd, "linf", 0.1)
    auto, b3 = (run(pd, loss, Regularizer.none(), SolverConfig(tau=1, max_epochs=3, beta_formula=f))
                for f in ("auto", "beta3"))
    assert auto.config["beta_formula"] == b3.config["beta_formula"] == "beta3"
    assert auto.objective_trace == b3.objective_trace
    assert np.array_equal(auto.final_x.view(np.uint64), b3.final_x.view(np.uint64))


def test_early_stop_on_target():
    pd = _all_active_problem(30, 6, 3, seed=14)
    loss = make_loss(pd, "l1", 0.25)
    free = run(pd, loss, Regularizer.none(), SolverConfig(tau=2, seed=3, max_epochs=30))
    half = free.objective_trace[len(free.objective_trace) // 2][1]
    rep = run(
        pd,
        loss,
        Regularizer.none(),
        SolverConfig(tau=2, seed=3, max_epochs=30, target_value=half),
    )
    assert rep.target_reached
    assert rep.epochs_run < 30
    assert rep.objective_trace[-1][1] <= half
    # a target satisfied at the start means zero work
    rep0 = run(
        pd,
        loss,
        Regularizer.none(),
        SolverConfig(tau=2, seed=3, max_epochs=30, target_value=1e12),
    )
    assert rep0.target_reached and rep0.epochs_run == 0 and rep0.coordinate_updates == 0


# the target check inside an epoch: (app, mu, regularizer, tau) on a
# problem whose columns are all active
STOP_CASES = {
    "linf": ("linf", 0.2, Regularizer.none(), 8),
    "adaboost": ("adaboost", 1.0, Regularizer.none(), 8),
    "l1-l1reg": ("l1", 0.3, Regularizer.l1(0.05), 4),
}


def _stop_case(name):
    app, mu, reg, tau = STOP_CASES[name]
    raw = synth_problem(200, 100, 20, seed=3) if app == "l1" else synth_problem(50, 40, 6, seed=77)
    working = prepare_problem(raw, app)
    assert primal_weights(working, dual_weights(working, app)).active.all()
    return make_loss(working, app, mu), reg, tau


def _iterations_per_epoch(loss, tau):
    return -(-loss.pd.n // tau)


def _count_evaluations(monkeypatch):
    calls = []

    def counted(loss, x):
        calls.append(1)
        return evaluate(loss, x)

    monkeypatch.setattr(solver, "evaluate", counted)
    return calls


@pytest.mark.parametrize("name", sorted(STOP_CASES))
def test_target_stops_the_run_at_the_step_that_reaches_it(name):
    loss, reg, tau = _stop_case(name)
    free = run(loss.pd, loss, reg, SolverConfig(tau=tau, seed=2, max_epochs=8))
    vals = [v for _, v in free.objective_trace]
    target = 0.5 * (vals[3] + vals[4])
    assert vals[4] < target < vals[3]
    cfg = SolverConfig(tau=tau, seed=2, max_epochs=8, target_value=target)
    rep = run(loss.pd, loss, reg, cfg)
    assert rep.target_reached
    # the stop is inside the epoch that the last trace point names
    steps = rep.coordinate_updates // tau
    assert rep.coordinate_updates == steps * tau
    assert rep.coordinate_updates < rep.epochs_run * _iterations_per_epoch(loss, tau) * tau
    assert rep.objective_trace[-1][0] == rep.epochs_run
    # every trace point before the stop is the target-free run's
    k = len(rep.objective_trace) - 1
    assert k == rep.epochs_run and rep.objective_trace[:k] == free.objective_trace[:k]
    # the checks left the state alone: a replay of as many steps with no
    # check ends at the same x, bit for bit
    assert_same_array(rep.final_x, replay(loss, reg, cfg, steps).x)
    # the last trace point is a fresh evaluation at that x
    w = primal_weights(loss.pd, dual_weights(loss.pd, loss.kind)).w
    fresh = evaluate(loss, rep.final_x) + reg.value(rep.final_x, w)
    assert rep.objective_trace[-1][1] == fresh and fresh <= target


def test_l1_check_reads_the_state_once_per_check_cost(monkeypatch):
    # a check reads m residuals and n coordinates: it runs once the steps
    # since the last one touched m + n entries, and never on the last step
    # of a traced epoch
    loss, reg, tau = _stop_case("l1-l1reg")
    pd = loss.pd
    reads = []
    value = SmoothState.value

    def counted(self):
        reads.append(1)
        return value(self)

    monkeypatch.setattr(SmoothState, "value", counted)
    epochs = 3
    # f_mu and the l1 term are never negative: the target is never met
    rep = run(pd, loss, reg, SolverConfig(tau=tau, seed=2, max_epochs=epochs, target_value=-1.0))
    assert not rep.target_reached and rep.epochs_run == epochs
    cost = pd.m + pd.n
    per_epoch = _iterations_per_epoch(loss, tau)
    spec = SamplingSpec(n=pd.n, tau=tau, seed=2)
    want = 1  # the starting point
    for e in range(epochs):
        touched = np.cumsum(pd.col_nnz()[draw(spec, e * per_epoch, per_epoch)].sum(axis=1))
        last = 0
        for t in touched[:-1].tolist():
            if t - last >= cost:
                want, last = want + 1, t
        want += 1  # the epoch's trace point
    assert len(reads) == want
    assert epochs + 1 < want < epochs * per_epoch  # checks ran, and not after every step


def test_a_refuted_running_value_costs_one_evaluation_per_epoch(monkeypatch):
    # a running value the fresh evaluation refutes disarms the check for
    # the rest of its epoch, and changes nothing the run computes
    loss, reg, tau = _stop_case("linf")
    cfg = SolverConfig(tau=tau, seed=2, max_epochs=5)
    free = run(loss.pd, loss, reg, cfg)
    value = SmoothState.value
    # the traced values are read right after a recompute, at staleness 0;
    # the bound open, so that the state is asked after every step
    monkeypatch.setattr(SmoothState, "value",
                        lambda self: value(self) if self.staleness == 0 else -math.inf)
    monkeypatch.setattr(SmoothState, "acc_bound", lambda self, target: math.inf)
    evals = _count_evaluations(monkeypatch)
    target = min(v for _, v in free.objective_trace) - 1.0
    rep = run(loss.pd, loss, reg,
              SolverConfig(tau=tau, seed=2, max_epochs=5, target_value=target))
    assert not rep.target_reached
    assert len(evals) == rep.epochs_run == 5
    assert rep.objective_trace == free.objective_trace
    assert rep.coordinate_updates == free.coordinate_updates
    assert_same_array(rep.final_x, free.final_x)


@pytest.mark.parametrize("acc", [0.0, -1.0, math.inf, math.nan])
def test_state_value_is_nan_where_the_accumulator_cannot_say(acc):
    loss, _, _ = _stop_case("adaboost")
    st = init_state(loss)
    for edge in (LSE_ACC_LO, LSE_ACC_HI):
        st.lse_acc = edge
        assert st.value() == float(st.fmu) + loss.mu * math.log(edge)
    st.lse_acc = acc
    assert math.isnan(st.value())


@pytest.mark.parametrize("acc", [0.0, -1.0, math.inf])
def test_out_of_band_accumulator_skips_the_check(monkeypatch, acc):
    loss, reg, tau = _stop_case("linf")
    value = SmoothState.value

    def spoiled(self):
        # a check after a step (staleness > 0; a trace point reads the
        # state right after a recompute) finds lse_acc out of band: the
        # next step's refresh rebuilds it from x
        if self.staleness:
            self.lse_acc = acc
        return value(self)

    monkeypatch.setattr(SmoothState, "value", spoiled)
    evals = _count_evaluations(monkeypatch)
    free = run(loss.pd, loss, reg, SolverConfig(tau=tau, seed=2, max_epochs=8))
    target = free.objective_trace[2][1]
    rep = run(loss.pd, loss, reg,
              SolverConfig(tau=tau, seed=2, max_epochs=8, target_value=target))
    assert rep.target_reached and evals == []
    # with no check able to fire, the run stops at an epoch end
    assert rep.coordinate_updates == rep.epochs_run * _iterations_per_epoch(loss, tau) * tau


def test_a_traced_epoch_leaves_its_last_step_to_the_trace_point(monkeypatch):
    # tau = n: each epoch is one step, its last
    loss, reg, _ = _stop_case("linf")
    n = loss.pd.n
    free = run(loss.pd, loss, reg, SolverConfig(tau=n, seed=2, max_epochs=6))
    target = free.objective_trace[3][1]
    assert min(v for _, v in free.objective_trace[:3]) > target
    evals = _count_evaluations(monkeypatch)
    rep = run(loss.pd, loss, reg, SolverConfig(tau=n, seed=2, max_epochs=6, target_value=target))
    # no check ran: the recompute at the epoch's end traced the stop, once
    assert evals == [] and rep.objective_trace == free.objective_trace[:4]
    # an untraced epoch checks its last step, and the fresh evaluation
    # gives the bits the recompute gives
    rep = run(loss.pd, loss, reg,
              SolverConfig(tau=n, seed=2, max_epochs=6, trace_every=2, target_value=target))
    assert len(evals) == 1
    assert rep.objective_trace == [free.objective_trace[e] for e in (0, 2, 3)]


def test_trace_cadence():
    pd = _all_active_problem(30, 6, 3, seed=14)
    loss = make_loss(pd, "l1", 0.25)
    rep = run(
        pd, loss, Regularizer.none(), SolverConfig(tau=3, seed=0, max_epochs=5, trace_every=2)
    )
    assert [e for e, _ in rep.objective_trace] == [0, 2, 4, 5]


@pytest.mark.parametrize("trace_every", [1, 2])
def test_state_is_refreshed_once_per_epoch_end(monkeypatch, trace_every):
    # tau=1 over 6 columns: every epoch's 6 nonzero steps make the state
    # stale at its last step; that refresh and the trace refresh are one,
    # and the report reads only x
    pd = _all_active_problem(30, 6, 3, seed=14)
    loss = make_loss(pd, "l1", 0.25)
    calls = []
    recompute = SmoothState.recompute

    def counted(self):
        calls.append(self.staleness)
        recompute(self)

    monkeypatch.setattr(SmoothState, "recompute", counted)
    cfg = SolverConfig(tau=1, seed=3, max_epochs=3, trace_every=trace_every)
    rep = run(pd, loss, Regularizer.none(), cfg)
    assert rep.coordinate_updates == 18
    assert calls == [0] + [6] * rep.epochs_run


def test_run_validation_errors():
    pd = _all_active_problem(30, 6, 3, seed=14)
    other = synth_problem(30, 6, 3, seed=15)
    loss = make_loss(pd, "l1", 0.25)
    with pytest.raises(ValueError, match="not bound"):
        run(other, loss, Regularizer.none(), SolverConfig(tau=1))
    with pytest.raises(ValueError, match="starting point"):
        run(pd, loss, Regularizer.box(1.0, 2.0), SolverConfig(tau=1))
    with pytest.raises(ValueError, match="active"):
        run(pd, loss, Regularizer.none(), SolverConfig(tau=7))
    empty = ProblemData.from_coo(2, 2, [], [], [], np.zeros(2))
    with pytest.raises(ValueError, match="no active columns"):
        run(empty, make_loss(empty, "linf", 0.5), Regularizer.none(), SolverConfig(tau=1))


def test_empty_column_is_skipped_not_touched():
    # column 1 never appears; the solver works on the rest
    pd = ProblemData.from_coo(
        4, 3, [0, 1, 2, 3], [0, 0, 2, 2], [1.0, -2.0, 1.5, 0.5], np.array([1.0, -1.0, 2.0, 0.5])
    )
    loss = make_loss(pd, "l1", 0.5)
    rep = run(pd, loss, Regularizer.none(), SolverConfig(tau=2, seed=1, max_epochs=20))
    assert rep.final_x[1] == 0.0
    assert rep.objective_trace[-1][1] < rep.objective_trace[0][1]
    with pytest.raises(ValueError, match="exceeds 2 active"):
        run(pd, loss, Regularizer.none(), SolverConfig(tau=3))


def test_divergence_raises():
    pd = ProblemData.from_coo(2, 1, [0, 1], [0, 0], [1.0, 1.0], np.array([1e308, 1e308]))
    loss = make_loss(pd, "l1", 1.0)
    with pytest.raises(SolverDiverged):
        run(pd, loss, Regularizer.none(), SolverConfig(tau=1, max_epochs=1))


@pytest.mark.parametrize("app,mu", [("linf", 1e-3), ("adaboost", 1.0)])
def test_overflowing_steps_warn_nothing(monkeypatch, app, mu):
    # beta' = 1e-6 makes steps so long that exponentials overflow and
    # inf - inf gives NaN: lse_acc stops being finite, which is only the
    # signal for a refresh
    pd = prepare_problem(synth_problem(40, 30, 3, seed=0), app)
    loss = make_loss(pd, app, mu)
    non_finite, recompute = [], SmoothState.recompute

    def logged_recompute(self):
        non_finite.append(not math.isfinite(self.lse_acc))
        recompute(self)

    monkeypatch.setattr(SmoothState, "recompute", logged_recompute)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = run(pd, loss, Regularizer.none(),
                     SolverConfig(tau=30, beta_formula=1e-6, max_epochs=3))
    assert report.epochs_run == 3 and any(non_finite)


def test_ridge_and_box_runs_descend():
    pd = _all_active_problem(30, 6, 3, seed=14)
    loss = make_loss(pd, "l1", 0.25)
    for reg in (Regularizer.ridge(0.5), Regularizer.box(-0.2, 0.2), Regularizer.l1(0.05)):
        rep = run(pd, loss, reg, SolverConfig(tau=2, seed=2, max_epochs=15))
        assert rep.objective_trace[-1][1] < rep.objective_trace[0][1]
        if reg.kind == "box":
            assert np.all(rep.final_x >= -0.2) and np.all(rep.final_x <= 0.2)


def test_iter_bound_smoothed_values():
    # all factors equal to one: single coordinate, unit ratio, log(e) = 1
    k = iter_bound_smoothed(
        "strongly_convex",
        n=1, tau=1, beta_prime=1.0, mu=1.0, sigma=1.0,
        eps=1.0, rho=0.5, initial_gap=0.5 * math.e, sigma_fmu=1.0,
    )
    assert k == 1
    # hand arithmetic
    k = iter_bound_smoothed(
        "strongly_convex",
        n=100, tau=10, beta_prime=3.0, mu=0.01, sigma=1.0,
        eps=0.1, rho=0.1, initial_gap=7.0, sigma_fmu=2.0, sigma_psi=0.5,
    )
    want = math.ceil((100 / 10) * ((3.0 / 0.01 + 0.5) / 2.5) * math.log(7.0 / 0.01))
    assert k == want
    k = iter_bound_smoothed(
        "convex",
        n=50, tau=5, beta_prime=2.0, mu=0.1, sigma=1.0,
        eps=2.0, rho=0.2, initial_gap=10.0, level_diameter=1.5,
    )
    want = math.ceil((50 * 2.0 / 5) * (2 * 1.5**2 / (0.1 * 2.0)) * math.log(10.0 / 0.4))
    assert k == want


def test_iter_bound_strong_regularization_limit():
    # a huge strongly convex regularizer drives the ratio to 1
    kwargs = dict(
        n=80, tau=8, beta_prime=2.5, mu=0.05, sigma=1.0,
        eps=0.01, rho=0.05, initial_gap=3.0, sigma_fmu=0.0,
    )
    k = iter_bound_smoothed("strongly_convex", sigma_psi=1e12, **kwargs)
    plain = math.ceil((80 / 8) * math.log(3.0 / (0.01 * 0.05)))
    assert k == plain


def test_iter_bound_nonsmooth_values_and_scaling():
    k = iter_bound_nonsmooth(
        "strongly_convex",
        n=60, tau=6, beta_prime=2.0, D=math.log(100), sigma=1.0,
        eps_prime=0.05, rho=0.1, initial_gap=4.0, sigma_fmu=1.5, sigma_psi=0.0,
    )
    want = math.ceil(
        (60 / 6)
        * ((2 * 2.0 * math.log(100) / 0.05) / 1.5)
        * math.log((8.0 + 0.05) / (0.05 * 0.1))
    )
    assert k == want

    def convex_k(eps_prime):
        return iter_bound_nonsmooth(
            "convex",
            n=60, tau=6, beta_prime=2.0, D=math.log(100), sigma=1.0,
            eps_prime=eps_prime, rho=0.1, initial_gap=4.0, level_diameter=2.0,
        )

    ratio = convex_k(0.05) / convex_k(0.1)
    assert 3.9 <= ratio <= 4.5  # quadratic in 1/eps', up to the log factor

    # the smoothed bound at mu = eps'/(2D), accuracy eps'/2 and gap + eps'/2
    def smoothed(case, eps_prime, **kw):
        return iter_bound_smoothed(
            case, n=60, tau=6, beta_prime=2.0, mu=eps_prime / (2 * math.log(100)),
            sigma=1.0, eps=eps_prime / 2, rho=0.1, initial_gap=4.0 + eps_prime / 2, **kw,
        )

    assert k == smoothed("strongly_convex", 0.05, sigma_fmu=1.5)
    for eps_prime in (0.05, 0.1):
        assert convex_k(eps_prime) == smoothed("convex", eps_prime, level_diameter=2.0)


def test_iter_bound_side_conditions():
    base = dict(n=10, tau=2, beta_prime=1.0, mu=1.0, sigma=1.0, rho=0.1, initial_gap=1.0)
    with pytest.raises(ValueError, match="2 n beta"):
        iter_bound_smoothed("convex", eps=100.0, level_diameter=1.0, **base)
    with pytest.raises(ValueError, match="level_diameter"):
        iter_bound_smoothed("convex", eps=0.1, **base)
    with pytest.raises(ValueError, match="sigma_fmu"):
        iter_bound_smoothed("strongly_convex", eps=0.1, **base)
    with pytest.raises(ValueError, match="unknown case"):
        iter_bound_smoothed("flat", eps=0.1, level_diameter=1.0, **base)
    with pytest.raises(ValueError, match="rho"):
        iter_bound_smoothed("convex", eps=0.1, level_diameter=1.0,
                            n=10, tau=2, beta_prime=1.0, mu=1.0, sigma=1.0,
                            rho=1.0, initial_gap=1.0)
    nb = dict(n=10, tau=2, beta_prime=1.0, D=1.0, sigma=1.0, rho=0.1, initial_gap=1.0)
    with pytest.raises(ValueError, match="8 n D"):
        iter_bound_nonsmooth("convex", eps_prime=100.0, level_diameter=1.0, **nb)
    with pytest.raises(ValueError, match="D must be"):
        iter_bound_nonsmooth("convex", eps_prime=0.1, level_diameter=1.0,
                             n=10, tau=2, beta_prime=1.0, D=0.0, sigma=1.0,
                             rho=0.1, initial_gap=1.0)


def test_iter_bound_warns_on_heuristic_formula_pairing():
    kw = dict(
        n=50, tau=5, beta_prime=2.0, mu=0.1, sigma=1.0,
        eps=2.0, rho=0.2, initial_gap=10.0, level_diameter=1.5,
    )
    with pytest.warns(UserWarning, match="heuristic"):
        iter_bound_smoothed("convex", formula="beta3", **kw)
    with pytest.warns(UserWarning, match="heuristic"):
        iter_bound_nonsmooth(
            "convex",
            n=50, tau=5, beta_prime=2.0, D=1.0, sigma=1.0,
            eps_prime=0.5, rho=0.2, initial_gap=10.0, level_diameter=1.5,
            formula="beta2",
        )
