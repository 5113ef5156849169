import math

import numpy as np
import pytest
from scipy.special import logsumexp

from helpers import gradient, row_slices, step, triplets
from spcdm.problem import ProblemData, synth_problem
from spcdm.smoothing import (
    LSE_ACC_HI,
    SmoothState,
    evaluate,
    init_state,
    loss_constants,
    make_loss,
    nonsmooth_value,
    prepare_problem,
    value_from_residual,
)
from spcdm.solver import Regularizer, SolverConfig, run


def _loss(app, pd, mu):
    return make_loss(prepare_problem(pd, app), app, mu)


def _scalar_problem(b):
    return ProblemData.from_coo(1, 1, [0], [0], [1.0], np.array([b]))


def _reference_value(loss, x):
    """Dense restatement of each variant, scipy doing the log-sum-exp."""
    dense = loss.pd.dense()
    r = dense @ x - loss.pd.b
    if loss.kind == "l1":
        a = loss.huber_a
        out = 0.0
        for rj, aj in zip(r, a):
            out += rj * rj / (2 * aj) if abs(rj) <= aj else abs(rj) - aj / 2
        return out
    return loss.mu * (logsumexp(r / loss.mu) - math.log(loss.denom))


def test_huber_hand_values():
    # unit row, mu=1: threshold 1, quadratic inside, linear outside
    loss = _loss("l1", _scalar_problem(-0.5), 1.0)
    assert loss.huber_a == pytest.approx([1.0])
    assert evaluate(loss, np.zeros(1)) == pytest.approx(0.125)
    loss2 = _loss("l1", _scalar_problem(-2.0), 1.0)
    assert evaluate(loss2, np.zeros(1)) == pytest.approx(1.5)
    # threshold scales as mu * (squared row norm)^2
    pd = ProblemData.from_coo(1, 2, [0, 0], [0, 1], [3.0, 4.0], np.zeros(1))
    assert _loss("l1", pd, 0.1).huber_a == pytest.approx([62.5])


def test_linf_value_is_log_cosh():
    pd = _scalar_problem(0.0)
    for mu in (0.05, 0.5, 2.0):
        loss = _loss("linf", pd, mu)
        assert loss.pd.m == 2 and loss.denom == 2
        assert evaluate(loss, np.zeros(1)) == 0.0
        for t in (-1.3, 0.2, 4.0):
            want = mu * math.log(math.cosh(t / mu))
            assert evaluate(loss, np.array([t])) == pytest.approx(want, rel=1e-12)
            assert nonsmooth_value(loss, np.array([t])) == pytest.approx(abs(t))


def test_adaboost_label_folding():
    pd = ProblemData.from_coo(2, 1, [0, 1], [0, 0], [1.0, 1.0], np.array([1.0, -1.0]))
    loss = _loss("adaboost", pd, 1.0)
    assert np.all(loss.pd.b == 0.0)
    for t in (-0.7, 0.0, 2.1):
        assert evaluate(loss, np.array([t])) == pytest.approx(
            math.log(math.cosh(t)), rel=1e-12
        )


def test_adaboost_zero_label_contributes_constant():
    pd = ProblemData.from_coo(2, 1, [0, 1], [0, 0], [1.0, 1.0], np.array([1.0, 0.0]))
    loss = _loss("adaboost", pd, 1.0)
    assert row_slices(loss.pd)[1][0].size == 0
    t = 1.5
    assert evaluate(loss, np.array([t])) == pytest.approx(
        math.log((math.exp(t) + 1.0) / 2.0), rel=1e-12
    )


def test_make_loss_validation():
    pd = _scalar_problem(1.0)
    with pytest.raises(ValueError):
        make_loss(pd, "l1", 0.0)
    with pytest.raises(ValueError):
        make_loss(pd, "l1", -1.0)
    # NaN compares False with everything, so mu <= 0 alone would let it in
    for app in ("l1", "linf"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="mu must be positive and finite"):
                make_loss(pd, app, bad)
    with pytest.raises(ValueError):
        make_loss(pd, "adaboost", 0.5)
    with pytest.raises(ValueError):
        make_loss(pd, "huber", 1.0)
    with pytest.raises(ValueError):
        prepare_problem(pd, "hinge")
    empty_row = ProblemData.from_coo(2, 2, [0], [0], [1.0], np.zeros(2))
    with pytest.raises(ValueError, match="row 1"):
        make_loss(empty_row, "l1", 1.0)


def test_loss_constants():
    pd = synth_problem(800, 50, 5, seed=0)
    working = prepare_problem(pd, "linf")
    sigma, D = loss_constants("linf", working)
    assert sigma == 1.0
    assert D == pytest.approx(math.log(1600), rel=1e-15)
    sigma, D = loss_constants("adaboost", prepare_problem(pd, "adaboost"))
    assert D == pytest.approx(math.log(800), rel=1e-15)
    l1w = prepare_problem(pd, "l1")
    v = np.array([np.dot(vals, vals) for _, vals in row_slices(l1w)])
    sigma, D = loss_constants("l1", l1w)
    assert sigma == 1.0
    assert D == pytest.approx(0.5 * float((v * v).sum()), rel=1e-12)


def test_evaluate_matches_dense_reference():
    rng = np.random.default_rng(42)
    for app in ("linf", "l1", "adaboost"):
        for _ in range(25):
            m, n = int(rng.integers(3, 10)), int(rng.integers(2, 8))
            pd = synth_problem(m, n, min(3, n), seed=int(rng.integers(1 << 30)))
            if app == "adaboost":
                pd = ProblemData.from_coo(
                    m, n, *triplets(pd), np.sign(rng.standard_normal(m))
                )
            mu = 1.0 if app == "adaboost" else float(rng.uniform(0.05, 2.0))
            loss = _loss(app, pd, mu)
            x = rng.standard_normal(n)
            assert evaluate(loss, x) == pytest.approx(
                _reference_value(loss, x), rel=1e-12, abs=1e-12
            )


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    step = 1e-6
    for app in ("linf", "l1", "adaboost"):
        for trial in range(15):
            m, n = int(rng.integers(3, 10)), int(rng.integers(2, 8))
            pd = synth_problem(m, n, min(3, n), seed=int(rng.integers(1 << 30)))
            if app == "adaboost":
                pd = ProblemData.from_coo(
                    m, n, *triplets(pd), np.sign(rng.standard_normal(m))
                )
            mu = 1.0 if app == "adaboost" else float(rng.uniform(0.1, 1.0))
            loss = _loss(app, pd, mu)
            x = rng.standard_normal(n)
            st = init_state(loss, x)
            g = st.full_gradient()
            for i in range(n):
                e = np.zeros(n)
                e[i] = step
                fd = (evaluate(loss, x + e) - evaluate(loss, x - e)) / (2 * step)
                assert abs(g[i] - fd) <= 1e-5 * max(1.0, float(np.abs(g).max()))


def test_partial_gradient_agrees_with_full():
    rng = np.random.default_rng(19)
    for app in ("linf", "l1", "adaboost"):
        pd = synth_problem(8, 6, 3, seed=5)
        if app == "adaboost":
            pd = ProblemData.from_coo(8, 6, *triplets(pd), np.sign(rng.standard_normal(8)))
        loss = _loss(app, pd, 1.0 if app == "adaboost" else 0.3)
        st = init_state(loss, rng.standard_normal(6))
        g = st.full_gradient()
        for i in range(6):
            assert gradient(st, i) == g[i]


def test_incremental_value_tracks_evaluate():
    rng = np.random.default_rng(3)
    for app in ("linf", "l1", "adaboost"):
        pd = synth_problem(12, 9, 4, seed=21)
        if app == "adaboost":
            pd = ProblemData.from_coo(12, 9, *triplets(pd), np.sign(rng.standard_normal(12)))
        loss = _loss(app, pd, 1.0 if app == "adaboost" else 0.4)
        st = init_state(loss)
        for _ in range(60):
            i = int(rng.integers(9))
            step(st, i, float(rng.standard_normal() * 0.3))
            ref = evaluate(loss, st.x)
            assert st.value() == pytest.approx(ref, rel=1e-9, abs=1e-12)
        step(st, 0, 0.0)  # no-op leaves staleness alone
        assert st.value() == pytest.approx(evaluate(loss, st.x), rel=1e-9)


@pytest.mark.parametrize("app,mu,bound", [("linf", 0.1, None), ("adaboost", 1.0, 1.5e-15)])
def test_running_value_drifts_from_a_fresh_evaluation_by_rounding_only(monkeypatch, app, mu,
                                                                       bound):
    # lse_acc takes each iteration's change as sum e'_j * expm1(d_j / mu),
    # which does not cancel.  At every epoch end, before the refresh,
    # fmu + mu*log(lse_acc) stays within 2 ulps of the fresh evaluation
    # for linf and 1.5e-15 for adaboost, whose values lie near 0; the old
    # difference of sums, sum exp(new) - sum exp(old), drifted by up to 2
    # ulps and 1.7e-15 on these runs
    drift = []
    recompute = SmoothState.recompute

    def checked(self):
        if self.staleness:
            fresh = evaluate(self.loss, self.x)
            drift.append(abs(self.value() - fresh) / (bound or 2 * np.spacing(abs(fresh))))
        recompute(self)

    monkeypatch.setattr(SmoothState, "recompute", checked)
    for tau in (1, 8):
        for seed in range(3):
            working = prepare_problem(synth_problem(400, 300, 5, seed=seed), app)
            run(working, make_loss(working, app, mu), Regularizer.none(),
                SolverConfig(tau=tau, seed=seed, max_epochs=8))
    assert len(drift) == 48 and max(drift) <= 1.0, max(drift)


def test_recompute_idempotent_and_resets():
    pd = synth_problem(10, 7, 3, seed=9)
    loss = _loss("linf", pd, 0.2)
    st = init_state(loss)
    rng = np.random.default_rng(0)
    for _ in range(11):
        step(st, int(rng.integers(7)), float(rng.standard_normal()))
    before = st.value()
    st.recompute()
    assert st.lse_acc == 1.0
    assert st.staleness == 0
    assert st.value() == pytest.approx(before, rel=1e-10)
    snap = st.value()
    st.recompute()
    assert st.value() == snap


def test_disjoint_updates_commute_bitwise():
    # columns 0 and 1 touch disjoint row sets
    pd = ProblemData.from_coo(
        3, 2, [0, 1, 2], [0, 0, 1], [1.0, 2.0, 3.0], np.array([0.5, -1.0, 2.0])
    )
    loss = _loss("linf", pd, 0.7)
    a = init_state(loss)
    b = init_state(loss)
    step(a, 0, 0.3)
    step(a, 1, -0.8)
    step(b, 1, -0.8)
    step(b, 0, 0.3)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.r, b.r)


def test_staleness_policy():
    pd = synth_problem(6, 4, 2, seed=1)
    loss = _loss("linf", pd, 0.1)
    st = init_state(loss)
    assert not st.needs_recompute()
    for k in range(4):
        step(st, k % 4, 1e-3)
    assert st.staleness == 4
    assert st.needs_recompute()  # staleness hit n
    st.recompute()
    assert not st.needs_recompute()
    step(st, 0, 50.0)  # blows the accumulator out of band
    assert st.lse_acc > LSE_ACC_HI or not math.isfinite(st.lse_acc)
    assert st.needs_recompute()
    st.recompute()
    assert st.lse_acc == 1.0
    assert math.isfinite(st.value())


def test_large_residual_stays_finite():
    pd = ProblemData.from_coo(2, 1, [0, 1], [0, 0], [1.0, -1.0], np.array([0.0, 0.0]))
    loss = make_loss(pd, "linf", 1e-3)
    st = init_state(loss, np.array([1e5]))
    assert math.isfinite(st.value())
    # the opposing row is dead at this scale, leaving max - mu*log(2)
    assert st.value() == pytest.approx(1e5 - 1e-3 * math.log(2), rel=1e-12)
    step(st, 0, 1.0)
    st.recompute()
    assert st.value() == pytest.approx(1e5 + 1.0 - 1e-3 * math.log(2), rel=1e-12)


def test_sandwich_bounds():
    rng = np.random.default_rng(77)
    for app in ("linf", "l1", "adaboost"):
        for _ in range(40):
            m, n = int(rng.integers(2, 8)), int(rng.integers(1, 6))
            pd = synth_problem(m, n, min(2, n), seed=int(rng.integers(1 << 30)))
            if app == "adaboost":
                pd = ProblemData.from_coo(
                    m, n, *triplets(pd), np.sign(rng.standard_normal(m))
                )
            mu = 1.0 if app == "adaboost" else float(rng.uniform(0.01, 1.5))
            loss = _loss(app, pd, mu)
            _, D = loss_constants(app, loss.pd)
            x = rng.standard_normal(n) * 3
            fmu = evaluate(loss, x)
            f = nonsmooth_value(loss, x)
            assert fmu <= f + 1e-10
            assert f <= fmu + mu * D + 1e-10


def test_init_state_copies_and_validates():
    pd = synth_problem(4, 3, 2, seed=2)
    loss = _loss("l1", pd, 0.5)
    x0 = np.ones(3)
    st = init_state(loss, x0)
    x0[0] = 99.0
    assert st.x[0] == 1.0
    with pytest.raises(ValueError):
        init_state(loss, np.ones(4))


def test_value_from_residual_consistency():
    pd = synth_problem(5, 4, 2, seed=8)
    loss = _loss("linf", pd, 0.3)
    st = init_state(loss, np.array([0.1, -0.2, 0.0, 0.4]))
    assert value_from_residual(loss, st.r) == pytest.approx(st.value(), rel=1e-12)
