import math

import numpy as np
import pytest

from helpers import dense, eso_ratio_max, operator_norm_oracle, subspace_lipschitz
from spcdm.eso import (
    beta1,
    beta2,
    beta3,
    dual_weights,
    local_factors,
    primal_weights,
    select_eso,
)
from spcdm.problem import ProblemData, synth_problem
from spcdm.smoothing import prepare_problem


def _pd_2x3():
    # dense [[1, 2, 0], [0, 2, 3]]
    return ProblemData.from_coo(
        2, 3, [0, 0, 1, 1], [0, 1, 1, 2], [1.0, 2.0, 2.0, 3.0], np.zeros(2)
    )


def test_dual_weights_l1_squared_row_norms():
    dw = dual_weights(_pd_2x3(), "l1")
    assert dw.p == 2
    assert dw.v == pytest.approx([5.0, 13.0])


def test_dual_weights_unit_for_max_type():
    for app in ("linf", "adaboost"):
        dw = dual_weights(_pd_2x3(), app)
        assert dw.p == 1
        assert np.all(dw.v == 1.0)


def test_dual_weights_rejects_empty_row():
    pd = ProblemData.from_coo(3, 2, [0, 2], [0, 1], [1.0, 1.0], np.zeros(3))
    with pytest.raises(ValueError, match="row 1"):
        dual_weights(pd, "l1")
    with pytest.raises(ValueError):
        dual_weights(pd, "ridge")


def test_primal_weights_sum_form():
    pd = _pd_2x3()
    w = primal_weights(pd, dual_weights(pd, "l1")).w
    assert w == pytest.approx([1 / 25, 4 / 25 + 4 / 169, 9 / 169])


def test_primal_weights_max_form():
    pd = _pd_2x3()
    w = primal_weights(pd, dual_weights(pd, "linf")).w
    assert w == pytest.approx([1.0, 4.0, 9.0])


def test_primal_weights_empty_column_inactive():
    pd = ProblemData.from_coo(2, 3, [0, 1], [0, 2], [2.0, 5.0], np.zeros(2))
    pw = primal_weights(pd, dual_weights(pd, "linf"))
    assert pw.w[1] == 0.0
    assert list(pw.active) == [True, False, True]


def test_beta1_beta2_closed_forms():
    assert beta1(5, 3) == 3.0
    assert beta1(2, 7) == 2.0
    assert beta2(5, 3, 10) == pytest.approx(1 + 8 / 9, abs=1e-15)
    assert beta2(414, 32, 3231961) == pytest.approx(1 + 413 * 31 / 3231960, abs=1e-15)
    # tau = 1 or omega = 1 means no interaction
    assert beta2(9, 1, 9) == 1.0
    assert beta2(1, 6, 9) == 1.0
    assert beta2(1, 1, 1) == 1.0


def test_beta_validation():
    with pytest.raises(ValueError):
        beta1(-1, 3)
    with pytest.raises(ValueError):
        beta2(3, 0, 5)
    with pytest.raises(ValueError):
        beta2(6, 2, 5)
    with pytest.raises(ValueError):
        beta3(3, 6, 5, 2)
    with pytest.raises(ValueError):
        beta3(3, 2, 5, 0)


def _beta3_naive(omega, tau, n, m):
    """Straight double loop with exact binomial mass, no shared code."""
    if omega == 0:
        return 0.0
    k_min = max(1, tau - (n - omega))
    k_max = min(tau, omega)
    total = 0.0
    for k in range(1, k_max + 1):
        inner = 0.0
        for l in range(max(k, k_min), k_max + 1):
            pmf = (
                math.comb(omega, l)
                * math.comb(n - omega, tau - l)
                / math.comb(n, tau)
            )
            c = l / omega if omega == n else max(l / omega, (tau - l) / (n - omega))
            inner += min(c, 1.0) * pmf
        total += min(1.0, (m * n / tau) * inner)
    return total


def test_beta3_matches_naive_everywhere_small():
    for n in range(1, 11):
        for m in (1, 2, 7):
            for omega in range(0, n + 1):
                for tau in range(1, n + 1):
                    assert beta3(omega, tau, n, m) == pytest.approx(
                        _beta3_naive(omega, tau, n, m), abs=1e-13
                    )


def test_beta3_matches_naive_large():
    for omega, tau, n, m in [
        (6061, 4, 100000, 1600),
        (6061, 16, 100000, 1600),
        (414, 32, 3231961, 520000),
        (50, 13, 3000, 91),
    ]:
        assert beta3(omega, tau, n, m) == pytest.approx(
            _beta3_naive(omega, tau, n, m), rel=1e-13
        )


def test_beta3_edges():
    assert beta3(1, 5, 9, 4) == pytest.approx(1.0, abs=1e-15)
    for n in (3, 8):
        for omega in range(1, n + 1):
            assert beta3(omega, 1, n, 2) == pytest.approx(1.0, abs=1e-15)
    assert beta3(0, 3, 7, 2) == 0.0
    # fully dense, full subset: every row hits all tau = n picks
    assert beta3(4, 4, 4, 1) == pytest.approx(_beta3_naive(4, 4, 4, 1), abs=1e-15)


def test_beta3_hand_value():
    # omega=2, tau=2, n=5, m=3: k_min=1, k_max=2,
    # pi_1 = 0.6, pi_2 = 0.1, c_1 = max(1/2, 1/3) = 1/2, c_2 = 1
    # k=1: min(1, 7.5*(0.3+0.1)) = 1; k=2: min(1, 7.5*0.1) = 0.75
    assert beta3(2, 2, 5, 3) == pytest.approx(1.75, abs=1e-13)


def test_beta_orderings_and_monotonicity():
    for n in range(2, 9):
        for omega in range(1, n + 1):
            for tau in range(1, n + 1):
                b1 = beta1(omega, tau)
                b2 = beta2(omega, tau, n)
                assert 1.0 <= b2 <= b1 + 1e-12
                for m in (1, 3):
                    b3 = beta3(omega, tau, n, m)
                    assert 1.0 - 1e-12 <= b3 <= b1 + 1e-12
        for m in (1, 3):
            for omega in range(1, n + 1):
                vals = [beta3(omega, t, n, m) for t in range(1, n + 1)]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            for tau in range(1, n + 1):
                vals = [beta3(o, tau, n, m) for o in range(1, n + 1)]
                assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_local_factors_hand_values():
    # rows of [[1, 2, 0], [0, 2, 3]] have 2 entries each; column 1 is in both
    pd = _pd_2x3()
    assert local_factors(pd, 1, 3).tolist() == [1.0, 1.0, 1.0]
    # 1 + (1/2) * (sum of |J_j| - 1 over the column's rows), capped at 2
    assert local_factors(pd, 2, 3).tolist() == [1.5, 2.0, 1.5]
    assert local_factors(pd, 3, 3).tolist() == [2.0, 2.0, 2.0]
    # an empty column gets 1; the sum form binds below the longest row
    pd = ProblemData.from_coo(3, 6, [0, 0, 0, 1, 2], [0, 1, 2, 3, 4], [1.0] * 5, np.zeros(3))
    assert local_factors(pd, 3, 5).tolist() == [2.0, 2.0, 2.0, 1.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        local_factors(pd, 6, 5)


def test_select_eso():
    pd = prepare_problem(synth_problem(200, 100, 3, seed=1), "adaboost")
    pw = primal_weights(pd, dual_weights(pd, "adaboost"))
    n = int(pw.active.sum())
    b3 = beta3(3, 4, n, 200)
    auto = select_eso("auto", pd, pw, p=1, tau=4)
    assert auto.formula == "local" and auto.beta_prime == 1.0
    assert auto.factors.tolist() == local_factors(pd, 4, n).tolist()
    assert auto.local_max == auto.factors[pw.active].max() < b3
    # beta3 is kept where no factor is below it: always at tau = 1, and
    # where few rows make beta3 small; a kept or named scalar formula
    # has every factor 1
    few = prepare_problem(synth_problem(60, 30, 3, seed=1), "adaboost")
    few_w = primal_weights(few, dual_weights(few, "adaboost"))
    for eso, want in (
        (select_eso("auto", pd, pw, p=1, tau=1), (1.0, "beta3", 1.0)),
        (select_eso("beta1", pd, pw, p=1, tau=4), (3.0, "beta1", None)),
        (select_eso("beta2", pd, pw, p=1, tau=4), (beta2(3, 4, n), "beta2", None)),
        (select_eso("beta3", pd, pw, p=1, tau=4), (b3, "beta3", None)),
        (select_eso("beta3", pd, pw, p=2, tau=4), (b3, "beta3", None)),
        (select_eso(2.5, pd, pw, p=1, tau=4), (2.5, "override", None)),
        (select_eso(2, pd, pw, p=2, tau=4), (2.0, "override", None)),
        (select_eso("auto", pd, pw, p=2, tau=4), (beta2(3, 4, n), "beta2", None)),
    ):
        assert (eso.beta_prime, eso.formula, eso.local_max) == want
        assert eso.factors.tolist() == [1.0] * pd.n
    kept = select_eso("auto", few, few_w, p=1, tau=4)
    assert (kept.beta_prime, kept.formula) == (beta3(3, 4, 30, 60), "beta3")
    assert kept.local_max >= kept.beta_prime and np.all(kept.factors == 1.0)
    # local is what auto reports, not a name that can be asked for
    for bad in ("beta4", "local", True):
        with pytest.raises(ValueError, match="unknown beta formula"):
            select_eso(bad, pd, pw, p=1, tau=4)
    for bad in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="beta_prime override must be positive and finite"):
            select_eso(bad, pd, pw, p=1, tau=4)


def _brute_force_instances(rng):
    """Dense A with m, n <= 8 and no empty column: one dense row, where
    Cauchy-Schwarz and the sum over rows are both tight at every tau, two
    such rows side by side, a dense block, then random supports and
    values spanning two decades."""
    out = [np.ones((1, n)) for n in range(2, 9)]
    out += [np.kron(np.eye(2), np.ones((1, 4))), np.ones((3, 5))]
    while len(out) < 50:
        m, n = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        support = rng.random((m, n)) < rng.uniform(0.2, 0.9)
        support[rng.integers(0, m, n), np.arange(n)] = True
        out.append(support * rng.choice([-1.0, 1.0], (m, n)) * 10.0 ** rng.uniform(-1, 1, (m, n)))
    return out


@pytest.mark.parametrize("formula", ["local", "beta3"])
def test_p1_eso_is_safe_by_brute_force(formula):
    # E_S ||A h_S||_inf^2 <= (tau/n) sum_i d_i h_i^2 over every tau on
    # the working matrices of both max-type losses, with d = beta_i w_i
    # for the column-local ESO (whether or not auto would pick it) and
    # d = beta3 w; linf doubles the rows, so its raw instances have m <= 4
    rng = np.random.default_rng(12)
    worst, checked = 0.0, 0
    for A in _brute_force_instances(rng):
        m, n = A.shape
        r, c = np.nonzero(A)
        raw = ProblemData.from_coo(m, n, r, c, A[r, c], rng.choice([-1.0, 1.0], m))
        for app in ("adaboost", "linf") if m <= 4 else ("adaboost",):
            pd = prepare_problem(raw, app)
            pw = primal_weights(pd, dual_weights(pd, app))
            assert pw.active.all()
            full = dense(pd)
            for tau in range(1, n + 1):
                if formula == "local":
                    d = local_factors(pd, tau, n) * pw.w
                else:
                    d = select_eso(formula, pd, pw, p=1, tau=tau).beta_prime * pw.w
                assert np.all(d > 0)
                worst = max(worst, eso_ratio_max(full, tau, d, rng))
                checked += 1
    # at tau = 1 every h = e_i meets the bound: a search that finds less is broken
    assert 1.0 - 1e-12 <= worst <= 1.0 + 1e-12, (worst, checked)


@pytest.mark.parametrize("variant", ["over-n", "no-plus-one"])
def test_brute_force_oracle_catches_too_small_local_factors(variant):
    # the oracle's power: two too-small variants of local_factors, from
    # the same row lengths, (tau-1)/n in place of (tau-1)/(n-1) and the
    # "+1" dropped, fail it on one dense row, where the sum form is tight
    # at every tau (test_04's random directions let both pass)
    rng = np.random.default_rng(12)
    for n in range(2, 9):
        raw = ProblemData.from_coo(1, n, np.zeros(n), np.arange(n), np.ones(n), [1.0])
        pd = prepare_problem(raw, "adaboost")
        pw = primal_weights(pd, dual_weights(pd, "adaboost"))
        through = pd._row_lens[pd.col_rows]
        longest = np.maximum.reduceat(through, pd.col_ptr[:-1])
        spread = np.add.reduceat(through - 1, pd.col_ptr[:-1])
        for tau in range(2, n + 1):
            if variant == "over-n":
                factors = np.minimum(np.minimum(longest, tau), 1.0 + (tau - 1) / n * spread)
            else:
                factors = np.minimum(np.minimum(longest, tau), (tau - 1) / (n - 1) * spread)
            assert eso_ratio_max(dense(pd), tau, factors * pw.w, rng) > 1.0 + 1e-6, (n, tau)


def test_subspace_lipschitz_examples():
    pd = _pd_2x3()
    assert subspace_lipschitz(pd, []) == 0
    assert subspace_lipschitz(pd, [0]) == 1
    assert subspace_lipschitz(pd, [0, 1]) == 2
    assert subspace_lipschitz(pd, [0, 2]) == 1
    assert subspace_lipschitz(pd, [0, 1, 2]) == 2
    with pytest.raises(ValueError):
        subspace_lipschitz(pd, [3])
    ident = ProblemData.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 1.0, 1.0], np.zeros(3))
    assert subspace_lipschitz(ident, [0, 1, 2]) == 1


def test_operator_norm_oracle_vs_svd():
    rng = np.random.default_rng(7)
    for _ in range(20):
        pd = synth_problem(6, 9, 4, seed=int(rng.integers(1 << 30)))
        dw = dual_weights(pd, "l1")
        pw = primal_weights(pd, dw)
        S = np.sort(rng.choice(9, size=5, replace=False))
        S = S[pw.active[S]]
        if S.size == 0:
            continue
        got = operator_norm_oracle(pd, S, pw.w, dw.v)
        M = dense(pd)[:, S] / dw.v[:, None] / np.sqrt(pw.w[S])[None, :]
        ref = float(np.linalg.svd(M, compute_uv=False)[0] ** 2)
        assert got == pytest.approx(ref, rel=1e-7)


def test_operator_norm_oracle_singletons_normalized():
    # with p=2 weights every nonzero column has unit squared norm
    rng = np.random.default_rng(11)
    for _ in range(10):
        pd = synth_problem(5, 8, 3, seed=int(rng.integers(1 << 30)))
        dw = dual_weights(pd, "l1")
        pw = primal_weights(pd, dw)
        for i in np.flatnonzero(pw.active):
            assert operator_norm_oracle(pd, [i], pw.w, dw.v) == pytest.approx(
                1.0, abs=1e-9
            )


def test_max_form_singleton_normalization():
    # p=1 analogue, checked directly: max_j (A_ji / v_j)^2 / w_i = 1
    pd = _pd_2x3()
    dw = dual_weights(pd, "linf")
    pw = primal_weights(pd, dw)
    full = dense(pd)
    for i in range(pd.n):
        assert np.max((full[:, i] / dw.v) ** 2) / pw.w[i] == pytest.approx(1.0)


def test_operator_norm_bounded_by_row_overlap():
    # squared norm of the normalized submatrix never beats the worst
    # row overlap count with S
    rng = np.random.default_rng(23)
    for _ in range(40):
        m, n = int(rng.integers(4, 10)), int(rng.integers(4, 12))
        omega = int(rng.integers(1, n + 1))
        pd = synth_problem(m, n, omega, seed=int(rng.integers(1 << 30)))
        dw = dual_weights(pd, "l1")
        pw = primal_weights(pd, dw)
        size = int(rng.integers(1, n + 1))
        S = np.sort(rng.choice(n, size=size, replace=False))
        S = S[pw.active[S]]
        if S.size == 0:
            continue
        got = operator_norm_oracle(pd, S, pw.w, dw.v)
        assert got <= subspace_lipschitz(pd, S) + 1e-9


def test_operator_norm_oracle_edge_cases():
    pd = _pd_2x3()
    dw = dual_weights(pd, "l1")
    pw = primal_weights(pd, dw)
    assert operator_norm_oracle(pd, [], pw.w, dw.v) == 0.0
    with pytest.raises(RuntimeError, match="converge"):
        operator_norm_oracle(pd, [0, 1], pw.w, dw.v, max_iter=0)
    pd_gap = ProblemData.from_coo(2, 3, [0, 1], [0, 2], [2.0, 5.0], np.zeros(2))
    with pytest.raises(ValueError, match="positive"):
        operator_norm_oracle(pd_gap, [1], primal_weights(pd_gap, dual_weights(pd_gap, "linf")).w, np.ones(2))
    # empty column but caller-supplied positive weight: zero matrix
    assert operator_norm_oracle(pd_gap, [1], np.ones(3), np.ones(2)) == 0.0
