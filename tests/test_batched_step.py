"""The batched step kernel against the per-coordinate loop it replaces.

The functions prefixed _ref_ are that loop: one gradient per selected
coordinate from the frozen state, one scalar prox each, then the steps
applied one column at a time in ascending order.  The batched kernel
(ProblemData.columns, SmoothState.gradients, prox_steps,
SmoothState.apply_steps) must reproduce it bit for bit, sign of zero
included: solver traces are pinned exactly.  The kernel steps through
a block of rounds drawn and gathered at once, as run does an epoch;
_ref_columns is the one-selection gather that block replaces.
"""

import math

import numpy as np
import pytest

from helpers import gradient, prox, step
from spcdm import problem
from spcdm.eso import dual_weights, primal_weights
from spcdm.problem import ProblemData
from spcdm.sampling import SamplingSpec, draw
from spcdm.smoothing import (
    LSE_ACC_HI, LSE_ACC_LO, SmoothState, init_state, make_loss, prepare_problem,
)
from spcdm.solver import Regularizer, SolverConfig, prox_steps, run


def _ref_partial_gradient(st, i):
    rows, vals = st.loss.pd.col(i)
    if rows.size == 0:
        return 0.0
    loss = st.loss
    if loss.kind == "l1":
        z = np.clip(st.r[rows] / loss.huber_a[rows], -1.0, 1.0)
    else:
        z = np.exp((st.r[rows] - st.fmu) / loss.mu) / (loss.denom * st.lse_acc)
    return float(np.dot(vals, z))


def _ref_prox_step(grad, x, beta, w, reg):
    bw = beta * w
    if reg.kind == "none":
        return -grad / bw
    if reg.kind == "l1":
        u = x - grad / bw
        t = reg.lam / bw
        return math.copysign(max(abs(u) - t, 0.0), u) - x
    if reg.kind == "box":
        u = x - grad / bw
        return min(max(u, reg.lo), reg.hi) - x
    return -(grad + reg.delta * w * x) / ((beta + reg.delta) * w)


def _ref_apply_update(st, i, h):
    if h == 0.0:
        return
    loss = st.loss
    rows, vals = loss.pd.col(i)
    st.x[i] += h
    old = st.r[rows]
    new = old + vals * h
    if loss.kind != "l1":
        shift = (new - st.fmu) / loss.mu
        shift_old = (old - st.fmu) / loss.mu
        with np.errstate(over="ignore"):
            st.lse_acc += float(np.exp(shift).sum() - np.exp(shift_old).sum()) / loss.denom
    st.r[rows] = new
    st.staleness += 1


def _ref_iteration(st, ids, beta, w, reg):
    hs = [_ref_prox_step(_ref_partial_gradient(st, int(i)), st.x[i], beta, w[i], reg)
          for i in ids]
    for i, h in zip(ids, hs):
        _ref_apply_update(st, int(i), h)
    return hs


def _ref_columns(pd, ids):
    """One selection's columns, length groups and shared-row pairs, each
    from its own sorts: what ProblemData.columns computed per iteration
    before it took a whole block of rounds."""
    lens = pd.col_nnz()[ids]
    rows = np.concatenate([pd.col(int(i))[0] for i in ids] + [np.zeros(0, dtype=np.int64)])
    vals = np.concatenate([pd.col(int(i))[1] for i in ids] + [np.zeros(0)])
    starts = np.cumsum(lens) - lens
    groups = []
    for k in sorted(set(lens.tolist()) - {0}):
        sel = np.flatnonzero(lens == k)
        groups.append((sel, starts[sel][:, None] + np.arange(k)))
    order = rows.argsort(kind="stable")
    dup = np.flatnonzero(rows[order][1:] == rows[order][:-1])
    return lens, rows, vals, groups, np.stack((order[dup], order[dup + 1]))


def _ref_run(loss, reg, cfg):
    """run's loop before the batched kernel: (trace, final_x, updates)."""
    pd = loss.pd
    report = run(pd, loss, reg, SolverConfig(tau=cfg.tau, seed=cfg.seed, max_epochs=0,
                                             beta_formula=cfg.beta_formula))
    beta = report.config["beta"]
    w = primal_weights(pd, dual_weights(pd, loss.kind)).w
    active = np.flatnonzero(w > 0)
    spec = SamplingSpec(n=active.size, tau=cfg.tau, seed=cfg.seed)
    st = init_state(loss)
    trace = [(0, st.value() + reg.value(st.x, w))]
    updates, rnd = 0, 0
    for epoch in range(1, cfg.max_epochs + 1):
        for _ in range(-(-active.size // cfg.tau)):
            ids = active[draw(spec, rnd)]
            rnd += 1
            _ref_iteration(st, ids, beta, w, reg)
            updates += ids.size
            if st.needs_recompute():
                st.recompute()
        st.recompute()
        trace.append((epoch, st.value() + reg.value(st.x, w)))
    return trace, st.x.copy(), updates


def _same_bits(a, b):
    """Equal including the sign of zero (and NaN payloads)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


# column 0 has 1 nonzero, column 1 has 2, column 2 has 45 (numpy sums more
# than 8 terms pairwise), column 3 is empty and so inactive
EMPTY_COL = 3


def _instance(seed, m=60, n=14):
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for i in range(n):
        k = {0: 1, 1: 2, 2: 45, EMPTY_COL: 0}.get(i, int(rng.integers(1, 9)))
        rows.append(rng.choice(m, size=k, replace=False))
        cols.append(np.full(k, i))
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    bare = np.setdiff1d(np.arange(m), rows)  # l1 needs every row nonempty
    rows = np.concatenate([rows, bare])
    cols = np.concatenate([cols, rng.integers(EMPTY_COL + 1, n, size=bare.size)])
    keep = np.unique(rows * n + cols, return_index=True)[1]
    rows, cols = rows[keep], cols[keep]
    vals = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-1, 1, rows.size)
    b = rng.standard_normal(m)
    b[rng.random(m) < 0.3] = 0.0  # r = -0.0 on these rows until a step lands
    pd = ProblemData.from_coo(m, n, rows, cols, vals, b)
    assert list(pd.col_nnz()[:4]) == [1, 2, 45, 0]
    return pd


APPS = [("l1", 0.3), ("linf", 0.25), ("adaboost", 1.0)]
REGS = {
    "none": Regularizer.none(),
    "l1": Regularizer.l1(0.4),
    "box": Regularizer.box(-0.005, 0.01),
    "ridge": Regularizer.ridge(0.7),
}
N_ACTIVE = 13


def _setup(app, mu, seed=0):
    working = prepare_problem(_instance(seed), app)
    loss = make_loss(working, app, mu)
    w = primal_weights(working, dual_weights(working, app)).w
    active = np.flatnonzero(w > 0)
    assert active.size == N_ACTIVE and EMPTY_COL not in active
    return loss, w, active


def _first_difference(a, b):
    for name in ("x", "r"):
        if not _same_bits(getattr(a, name), getattr(b, name)):
            return name
    for name in ("lse_acc", "fmu", "staleness"):
        if not _same_bits(getattr(a, name), getattr(b, name)):
            return name
    return None


def _compare_states(app, mu, reg, tau, iters=60, beta=0.8):
    """Step two copies of one state, reference and batched, through one
    block of iters rounds drawn and gathered at once; (first difference
    or None, zero steps, box-clipped steps, iterations with a row shared
    by two selected columns)."""
    loss, w, active = _setup(app, mu)
    ref, new = init_state(loss), init_state(loss)
    spec = SamplingSpec(n=active.size, tau=tau, seed=11)
    zeros = clipped = shared = 0
    for cols in loss.pd.columns(active[draw(spec, 0, iters)]):
        ids = cols.ids
        hs = _ref_iteration(ref, ids, beta, w, reg)
        h = prox_steps(new.gradients(cols), new.x[ids], beta, w[ids], reg)
        new.apply_steps(cols, h)
        if not _same_bits(hs, h):
            return "h", zeros, clipped, shared
        zeros += int(np.count_nonzero(h == 0.0))
        clipped += int(np.count_nonzero((new.x[ids] == reg.lo) | (new.x[ids] == reg.hi)))
        shared += int(np.unique(cols.rows).size < cols.rows.size)
        diff = _first_difference(ref, new)
        if diff is not None:
            return diff, zeros, clipped, shared
        if ref.needs_recompute():
            ref.recompute()
            new.recompute()
    return None, zeros, clipped, shared


@pytest.mark.parametrize("tau", [1, 3, N_ACTIVE])
@pytest.mark.parametrize("reg_name", sorted(REGS))
@pytest.mark.parametrize("app,mu", APPS)
def test_batched_step_matches_per_coordinate_loop(app, mu, reg_name, tau):
    reg = REGS[reg_name]
    diff, zeros, clipped, shared = _compare_states(app, mu, reg, tau)
    assert diff is None, f"{diff} differs"
    if reg_name == "l1":
        assert zeros > 0  # the soft threshold produced zero steps
    if reg_name == "box":
        assert clipped > 0
    if tau == N_ACTIVE:
        assert shared > 0


@pytest.mark.parametrize("tau", [1, 3, N_ACTIVE])
@pytest.mark.parametrize("reg_name", sorted(REGS))
@pytest.mark.parametrize("app,mu", APPS)
def test_run_matches_per_coordinate_loop(app, mu, reg_name, tau):
    loss, _, _ = _setup(app, mu)
    cfg = SolverConfig(tau=tau, seed=4, max_epochs=5)
    report = run(loss.pd, loss, REGS[reg_name], cfg)
    trace, x, updates = _ref_run(loss, REGS[reg_name], cfg)
    assert report.coordinate_updates == updates
    assert _same_bits([v for _, v in report.objective_trace], [v for _, v in trace])
    assert _same_bits(report.final_x, x)


def test_run_matches_the_loop_across_mid_epoch_accumulator_refreshes(monkeypatch):
    # beta' = 0.01 is far below the safe value: steps this long drive
    # lse_acc out of [1e-6, 1e6] within an epoch of 5 iterations
    loss, _, _ = _setup("linf", 0.25)
    cfg = SolverConfig(tau=3, seed=4, max_epochs=5, beta_formula=0.01)
    iterations, refreshed_at = [0], []
    apply_steps, recompute = SmoothState.apply_steps, SmoothState.recompute

    def counted_apply_steps(self, cols, h):
        iterations[0] += 1
        apply_steps(self, cols, h)

    def logged_recompute(self):
        if not LSE_ACC_LO <= self.lse_acc <= LSE_ACC_HI:
            refreshed_at.append(iterations[0])
        recompute(self)

    monkeypatch.setattr(SmoothState, "apply_steps", counted_apply_steps)
    monkeypatch.setattr(SmoothState, "recompute", logged_recompute)
    report = run(loss.pd, loss, REGS["none"], cfg)
    monkeypatch.undo()
    assert any(i % 5 for i in refreshed_at), refreshed_at  # not at an epoch's end
    trace, x, updates = _ref_run(loss, REGS["none"], cfg)
    assert report.coordinate_updates == updates
    assert _same_bits([v for _, v in report.objective_trace], [v for _, v in trace])
    assert _same_bits(report.final_x, x)


def test_one_element_calls_match_the_loop():
    loss, w, active = _setup("adaboost", 1.0)
    ref, new = init_state(loss), init_state(loss)
    for i in list(active) + [EMPTY_COL]:
        g = gradient(new, int(i))
        assert g == _ref_partial_gradient(ref, int(i))
        h = prox(g, float(new.x[i]), 0.9, 1.0, REGS["l1"])
        assert _same_bits(h, _ref_prox_step(g, float(ref.x[i]), 0.9, 1.0, REGS["l1"]))
        step(new, int(i), 0.5)
        _ref_apply_update(ref, int(i), 0.5)
        assert _first_difference(ref, new) is None
    assert _same_bits(new.full_gradient(),
                      [_ref_partial_gradient(ref, i) for i in range(loss.pd.n)])


def test_prox_steps_keeps_the_scalar_zero_signs():
    grad = np.array([0.0, -0.0, 1e-3, -1e-3, 0.5, 7.0, -7.0])
    for reg in list(REGS.values()) + [Regularizer.box(0.0, 1.0), Regularizer.box(-1.0, -0.0)]:
        for x in (0.0, -0.0, 0.02):
            h = prox_steps(grad, np.full(grad.size, x), 1.3, np.full(grad.size, 2.0), reg)
            assert _same_bits(h, [_ref_prox_step(g, x, 1.3, 2.0, reg) for g in grad])


@pytest.mark.parametrize("tau", [1, 4, N_ACTIVE + 1])
def test_block_gather_matches_one_gather_per_selection(tau):
    pd = _instance(1)  # column 3 is empty: it has no length group
    block = draw(SamplingSpec(n=pd.n, tau=tau, seed=2), 0, 40)
    batches = list(pd.columns(block))
    assert len(batches) == len(block)
    shared = 0
    for ids, cols in zip(block, batches):
        lens, rows, vals, groups, pairs = _ref_columns(pd, ids)
        assert np.array_equal(cols.ids, ids) and np.array_equal(cols.lens, lens)
        assert np.array_equal(cols.rows, rows) and np.array_equal(cols.vals, vals)
        assert [(s.tolist(), i.tolist()) for s, i in cols.groups] == [
            (s.tolist(), i.tolist()) for s, i in groups]
        assert cols.shared.shape == pairs.shape and np.array_equal(cols.shared, pairs)
        shared += pairs.size > 0
    assert (shared > 0) == (tau > 1)  # one column shares no row with itself


def test_columns_gathers_in_column_order():
    pd = _instance(1)
    ids = np.array([0, 1, 2, 3, 5, 9])
    cols = next(pd.columns(ids[None]))
    assert np.array_equal(cols.rows, np.concatenate([pd.col(int(i))[0] for i in ids]))
    assert np.array_equal(cols.vals, np.concatenate([pd.col(int(i))[1] for i in ids]))
    assert np.array_equal(cols.lens, pd.col_nnz()[ids])
    seen = {}
    for sel, idx in cols.groups:
        assert idx.shape == (sel.size, cols.lens[sel[0]])
        for s, row in zip(sel, idx):
            seen[int(s)] = cols.rows[row].tolist()
    assert seen == {s: pd.col(int(ids[s]))[0].tolist() for s in range(ids.size) if ids[s] != EMPTY_COL}
    assert next(pd.columns(np.empty((1, 0), dtype=np.int64))).rows.size == 0


def _bincount_gradients(self, cols):
    z = self._col_z(cols.rows)
    seg = np.repeat(np.arange(cols.ids.size), cols.lens)
    return np.bincount(seg, weights=cols.vals * z, minlength=cols.ids.size)


def _lse_acc_after_without_fixup(self, cols, d, keep):
    loss, rows = self.loss, cols.rows
    old = self.r[rows]
    shift = np.empty((2, rows.size))
    shift[0] = old + d
    shift[1] = old
    with np.errstate(over="ignore"):
        e = np.exp((shift - self.fmu) / loss.mu)
    change = np.zeros(cols.ids.size)
    for sel, idx in cols.groups:
        new_sum, old_sum = e.take(idx, axis=1).sum(axis=2)
        change[sel] = new_sum - old_sum
    if keep is not None:
        change = change[keep]
    acc = self.lse_acc
    for c in change.tolist():
        acc += c / loss.denom
    return acc


def _no_shared_rows(rows, ptr, m):
    """The epoch pass with its shared-row marks lost."""
    for _ in range(ptr.size - 1):
        yield np.zeros((2, 0), dtype=np.int64)


@pytest.mark.parametrize("app,mu", [("adaboost", 1.0), ("linf", 0.25)])
def test_comparison_catches_a_block_gather_without_shared_rows(monkeypatch, app, mu):
    monkeypatch.setattr(problem, "_shared_rows", _no_shared_rows)
    diff, *_ = _compare_states(app, mu, REGS["none"], N_ACTIVE)
    assert diff is not None


@pytest.mark.parametrize("attr,mutant,app,mu", [
    ("gradients", _bincount_gradients, "l1", 0.3),
    ("_lse_acc_after", _lse_acc_after_without_fixup, "adaboost", 1.0),
    ("_lse_acc_after", _lse_acc_after_without_fixup, "linf", 0.25),
])
def test_comparison_catches_mutants(monkeypatch, attr, mutant, app, mu):
    monkeypatch.setattr(SmoothState, attr, mutant)
    diff, *_ = _compare_states(app, mu, REGS["none"], N_ACTIVE)
    assert diff is not None
