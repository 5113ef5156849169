"""The length-grouped segment reductions against the per-row and per-column
loops they replace.

The loops below are the reference implementations.  Every derived
quantity must equal them bit for bit: the solver's traces are pinned
exactly, so a last-bit change in v, w, the residual or the gradient is
a behaviour change, not rounding noise.
"""

import numpy as np
import pytest

from helpers import row_lens, row_slices
from spcdm import problem
from spcdm.eso import DualWeights, dual_weights, primal_weights
from spcdm.problem import ProblemData, _segments
from spcdm.solver import Regularizer, SolverConfig, run
from spcdm.smoothing import (
    _residual,
    evaluate,
    init_state,
    loss_constants,
    make_loss,
    nonsmooth_value,
    prepare_problem,
    value_from_residual,
)


def _ref_row_sq_norms(pd):
    # each row's squares summed one term at a time, by ascending column
    v = np.zeros(pd.m)
    for j, (_, vals) in enumerate(row_slices(pd)):
        for a in vals.tolist():
            v[j] += a * a
    return v


def _ref_l1_D(pd):
    total = 0.0
    for vj in _ref_row_sq_norms(pd).tolist():
        total += vj * vj
    return 0.5 * total


def _ref_primal_weights(pd, v, p):
    w = np.zeros(pd.n)
    vinv2 = 1.0 / (v * v)
    for i in range(pd.n):
        rows, vals = pd.col(i)
        if rows.size == 0:
            continue
        contrib = vinv2[rows] * vals * vals
        w[i] = contrib.max() if p == 1 else contrib.sum()
    return w


def _ref_residual(pd, x):
    r = -pd.b.copy()
    for i in np.flatnonzero(x):
        rows, vals = pd.col(int(i))
        r[rows] += vals * x[i]
    return r


def _ref_full_gradient(st):
    loss = st.loss
    g = np.empty(loss.pd.n)
    for i in range(loss.pd.n):
        rows, vals = loss.pd.col(i)
        if not rows.size:
            g[i] = 0.0
        elif loss.kind == "l1":
            g[i] = np.dot(vals, np.clip(st.r[rows] / loss.huber_a[rows], -1.0, 1.0))
        else:
            # the dot of the exponentials, then the normaliser
            s = np.dot(vals, np.exp((st.r[rows] - st.fmu) / loss.mu))
            g[i] = s / (loss.denom * st.lse_acc)
    return g


def _same_bits(a, b):
    """Equal including the sign of zero."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# column 0 has 1 nonzero, column 1 has 12 (numpy sums 8 or more pairwise),
# column 2 has 200 (past numpy's 128-element pairwise block), column 3 is empty
EMPTY_COL = 3


def _instance(seed, m=260, n=40):
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for i, k in [(0, 1), (1, 12), (2, 200), (EMPTY_COL, 0)]:
        rows.append(rng.choice(m, size=k, replace=False))
        cols.append(np.full(k, i))
    for i in range(EMPTY_COL + 1, n):
        k = int(rng.integers(1, 30))
        rows.append(rng.choice(m, size=k, replace=False))
        cols.append(np.full(k, i))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    # every row nonempty (l1 needs it), without touching columns 0-3
    bare = np.setdiff1d(np.arange(m), rows)
    rows = np.concatenate([rows, bare])
    cols = np.concatenate([cols, rng.integers(EMPTY_COL + 1, n, size=bare.size)])
    keep = np.unique(rows * n + cols, return_index=True)[1]
    rows, cols = rows[keep], cols[keep]
    # magnitudes over four decades, so summation order shows in the last bit
    vals = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-2, 2, rows.size)
    b = rng.standard_normal(m)
    b[rng.random(m) < 0.2] = 0.0  # r = -0.0 on these rows until a column lands
    pd = ProblemData.from_coo(m, n, rows, cols, vals, b)
    assert list(pd.col_nnz()[:4]) == [1, 12, 200, 0]
    assert np.unique(row_lens(pd)).size > 3
    return pd, rng


def test_segments_yield_each_nonempty_segment_once():
    lens = np.array([0, 3, 1, 3, 0, 2, 1, 3])
    ptr = np.concatenate([[0], np.cumsum(lens)])
    seen = {}
    for ids, idx in _segments(ptr):
        assert idx.shape == (ids.size, lens[ids[0]])
        assert np.all(np.diff(ids) > 0)
        for s, row in zip(ids, idx):
            seen[int(s)] = row.tolist()
    assert seen == {s: list(range(ptr[s], ptr[s + 1])) for s in np.flatnonzero(lens)}
    assert list(_segments(np.array([0]))) == []
    assert list(_segments(np.zeros(4, dtype=np.int64))) == []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_weights_match_loop_references(seed):
    pd, _ = _instance(seed)
    v = pd.row_sq_norms
    assert _same_bits(v, _ref_row_sq_norms(pd))
    assert _same_bits(dual_weights(pd, "l1").v, v)
    assert _same_bits(make_loss(pd, "l1", 0.3).huber_a, 0.3 * v * v)
    assert loss_constants("l1", pd)[1] == _ref_l1_D(pd)
    for p in (1, 2):
        for dv in (v, np.ones(pd.m)):
            pw = primal_weights(pd, DualWeights(v=dv, p=p))
            assert _same_bits(pw.w, _ref_primal_weights(pd, dv, p))
            assert pw.w[EMPTY_COL] == 0.0
            assert list(np.flatnonzero(~pw.active)) == [EMPTY_COL]


@pytest.mark.parametrize("budget", [64, 200])
def test_row_sq_norms_sum_each_row_in_column_order_across_spans(monkeypatch, budget):
    # spans of several columns that split the rows: per-span partial sums
    # added together move the last bit of some rows at both budgets
    monkeypatch.setattr(problem, "_BUDGET", budget)
    for seed in range(3):
        pd, _ = _instance(seed)
        assert 1 < len(list(problem._spans(pd.col_ptr))) < pd.n
        assert _same_bits(pd.row_sq_norms, _ref_row_sq_norms(pd))


def test_row_sq_norms_are_computed_once_and_read_only(monkeypatch):
    pd, _ = _instance(0)
    passes = []
    spans = problem._spans

    def counted(ptr):
        # row_sq_norms is problem's one pass over A's own column pointers
        passes.append(ptr is pd.col_ptr)
        return spans(ptr)

    monkeypatch.setattr(problem, "_spans", counted)
    loss = make_loss(pd, "l1", 0.3)
    loss_constants("l1", pd)
    run(pd, loss, Regularizer.none(), SolverConfig(tau=4, seed=0, max_epochs=1))
    assert passes.count(True) == 1
    v = pd.row_sq_norms
    assert dual_weights(pd, "l1").v is v
    with pytest.raises(ValueError, match="read-only"):
        v[0] = 1.0


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("app", ["l1", "linf", "adaboost"])
def test_residual_and_gradient_match_loop_references(app, seed):
    raw, rng = _instance(seed)
    working = prepare_problem(raw, app)
    loss = make_loss(working, app, 1.0 if app == "adaboost" else 0.3)
    x = rng.standard_normal(working.n)
    x[rng.random(working.n) < 0.4] = 0.0
    x[EMPTY_COL + 1] = -0.0
    r = _ref_residual(working, x)
    assert _same_bits(_residual(working, x), r)
    assert evaluate(loss, x) == value_from_residual(loss, r)
    assert nonsmooth_value(loss, x) == (
        float(np.abs(r).sum()) if app == "l1" else float(r.max())
    )
    st = init_state(loss, x)
    assert _same_bits(st.r, r)
    g = st.full_gradient()
    assert _same_bits(g, _ref_full_gradient(st))
    assert g[EMPTY_COL] == 0.0


def test_empty_row_error_names_the_row():
    pd = ProblemData.from_coo(4, 2, [0, 1, 3], [0, 1, 0], [1.0, 2.0, 3.0], np.zeros(4))
    for call in (
        lambda: pd.row_sq_norms,
        lambda: dual_weights(pd, "l1"),
        lambda: make_loss(pd, "l1", 0.5),
        lambda: loss_constants("l1", pd),
    ):
        with pytest.raises(ValueError, match="row 2 has no nonzeros"):
            call()
