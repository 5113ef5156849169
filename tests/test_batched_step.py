"""The batched step kernel against the per-coordinate loop it replaces.

The functions prefixed _ref_ are that loop: one gradient per selected
coordinate from the frozen state, one scalar prox each, then the steps
applied one column at a time in ascending order, each column's terms of
lse_acc taken at the residuals the earlier ones moved and added in one
sum per iteration, each sum over a column or an iteration a
helpers.seg_sum of its own.  The batched kernel (SmoothedLoss.columns,
SmoothState.wave and steps, prox_steps) must reproduce it bit for bit,
sign of zero included: solver traces are pinned exactly.  The kernel
steps through a block of rounds drawn and gathered at once, as run does
an epoch: one wave of row-disjoint rounds at a time for the exponential
losses, swept in passes over all of its rounds, and for l1 level by
level, each level's steps in one prox, the steps still compared with
the loop's one iteration at a time;
_ref_columns is the one-selection gather that block replaces.
"""

import inspect
import math
import textwrap

import numpy as np
import pytest

from helpers import KERNEL_ERRSTATE, col, gradient, prox, row_lens, seg_sum, step
from spcdm import problem, solver
from spcdm.eso import dual_weights, primal_weights, select_eso
from spcdm.problem import ProblemData
from spcdm.sampling import SamplingSpec, draw
from spcdm.smoothing import (
    LSE_ACC_HI, LSE_ACC_LO, SmoothState, init_state, make_loss, prepare_problem,
)
from spcdm.solver import Regularizer, SolverConfig, prox_steps, run


def _ref_partial_gradient(st, i):
    rows, vals = col(st.loss.pd, i)
    if rows.size == 0:
        return 0.0
    loss = st.loss
    if loss.kind == "l1":
        return seg_sum(vals * np.clip(st.r[rows] / loss.huber_a[rows], -1.0, 1.0))
    # the sum of the exponentials' terms, then the normaliser
    s = seg_sum(vals * np.exp((st.r[rows] - st.fmu) / loss.mu))
    return s / (loss.denom * st.lse_acc)


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
    """x_i += h, with r and staleness; returns column i's terms of
    lse_acc: the exponentials of its rows' residuals, as earlier columns
    moved them, and expm1(vals / mu * h), its terms of r over mu (zero
    for a zero step, which changes nothing else)."""
    loss = st.loss
    rows, vals = col(loss.pd, i)
    with np.errstate(over="ignore"):
        terms = (np.exp((st.r[rows] - st.fmu) / loss.mu), np.expm1(vals / loss.mu * h))
    if h != 0.0:
        st.x[i] += h
        st.r[rows] = st.r[rows] + vals * h
        st.staleness += 1
    return terms


def _ref_steps(st, ids, hs):
    """The steps hs on the columns ids, one at a time, as one iteration:
    lse_acc takes the columns' terms in one sum."""
    terms = [_ref_apply_update(st, int(i), h) for i, h in zip(ids, hs)]
    if st.loss.kind != "l1" and terms:
        e, em = (np.concatenate(t) for t in zip(*terms))
        with np.errstate(over="ignore", invalid="ignore"):
            st.lse_acc += seg_sum(e * em) / st.loss.denom


def _ref_iteration(st, ids, beta, w, reg):
    """beta is one factor, or one per coordinate (the column-local ESO)."""
    hs = [_ref_prox_step(_ref_partial_gradient(st, int(i)), st.x[i],
                         beta[i] if np.ndim(beta) else beta, w[i], reg)
          for i in ids]
    _ref_steps(st, ids, hs)
    return hs


def _ref_columns(pd, ids):
    """One selection's columns, where each one's entries start among them,
    and shared-row pairs, each from its own sorts: what
    ProblemData.columns computed per iteration before it took a whole
    block of rounds."""
    lens = pd.col_nnz()[ids]
    rows = np.concatenate([col(pd, int(i))[0] for i in ids] + [np.zeros(0, dtype=np.int64)])
    vals = np.concatenate([col(pd, int(i))[1] for i in ids] + [np.zeros(0)])
    starts = [sum(lens[:c].tolist()) for c in range(lens.size)]
    order = rows.argsort(kind="stable")
    dup = np.flatnonzero(rows[order][1:] == rows[order][:-1])
    return lens, rows, vals, starts, np.stack((order[dup], order[dup + 1]))


def _ref_run(loss, reg, cfg):
    """run's loop before the batched kernel: (trace, final_x, updates).
    Each coordinate's beta is run's times its factor from select_eso,
    which run calls (1 but under the column-local ESO)."""
    pd = loss.pd
    report = run(pd, loss, reg, SolverConfig(tau=cfg.tau, seed=cfg.seed, max_epochs=0,
                                             beta_formula=cfg.beta_formula))
    beta = report.config["beta"]
    dw = dual_weights(pd, loss.kind)
    pw = primal_weights(pd, dw)
    w = pw.w
    beta = beta * select_eso(cfg.beta_formula, pd, pw, p=dw.p, tau=cfg.tau).factors
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
N_ACTIVE = 13


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


def _regular_instance(seed, m=24, n=N_ACTIVE, k=6):
    """Every column holds k entries (so every selection has a width),
    every row 3 or 4 (so selections share rows, some across 3 columns),
    and no b is zero (so adaboost's row scaling keeps every entry)."""
    rng = np.random.default_rng(seed)
    rows = rng.permutation(m)[(np.arange(n)[:, None] * k + np.arange(k)) % m].ravel()
    cols = np.arange(n).repeat(k)
    vals = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-1, 1, rows.size)
    b = rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 2.0, m)
    pd = ProblemData.from_coo(m, n, rows, cols, vals, b)
    assert np.all(pd.col_nnz() == k) and set(row_lens(pd).tolist()) == {3, 4}
    return pd


APPS = [("l1", 0.3), ("linf", 0.25), ("adaboost", 1.0)]
REGS = {
    "none": Regularizer.none(),
    "l1": Regularizer.l1(0.4),
    "box": Regularizer.box(-0.005, 0.01),
    "ridge": Regularizer.ridge(0.7),
}


def _setup(app, mu, raw=None):
    working = prepare_problem(_instance(0) if raw is None else raw, app)
    loss = make_loss(working, app, mu)
    w = primal_weights(working, dual_weights(working, app)).w
    active = np.flatnonzero(w > 0)
    # the active columns are the nonempty ones: not _instance's EMPTY_COL
    assert active.size == N_ACTIVE and np.array_equal(active, np.flatnonzero(working.col_nnz()))
    return loss, w, active


def _first_difference(a, b):
    for name in ("x", "r"):
        if not _same_bits(getattr(a, name), getattr(b, name)):
            return name
    for name in ("lse_acc", "fmu", "staleness"):
        if not _same_bits(getattr(a, name), getattr(b, name)):
            return name
    return None


def _waves(state, span, prox):
    """run's epoch over one span: its planned waves, each from a state
    refreshed first if it asks, cut where a step asks for a refresh;
    yields (a, b, whether the wave held several iterations) for each wave
    taken, once it landed."""
    for a, b in zip(span.waves, span.waves[1:]):
        while a < b:
            if state.needs_recompute():
                state.recompute()
            with np.errstate(**KERNEL_ERRSTATE):
                t, _ = state.steps(state.wave(span, a, b), prox)
            yield a, t, t - a > 1
            a = t


def _levels(state, span, prox):
    """run's epoch over one span gathered with levels: segments of
    iterations, each from a state refreshed first if it asks, cut where
    staleness could reach n, their levels taken in order; yields (a, b,
    whether a level held several iterations' steps) for each segment,
    once it landed."""
    tau, a, end = span.ids.shape[1], 0, len(span.ptr) - 1
    while a < end:
        if state.needs_recompute():
            state.recompute()
        b = min(end, a + (state.loss.pd.n - state.staleness + tau - 1) // tau)
        groups = list(span.levels.groups(a * tau, b * tau))
        for lo, hi in groups:
            with np.errstate(**KERNEL_ERRSTATE):
                state.steps(state.wave(span, lo, hi, leveled=True), prox)
        yield a, b, bool(len(groups) < b - a)
        a = b


def _compare_states(loss, w, active, reg, tau, iters=60, beta=0.8):
    """Step two copies of one state (from _setup), reference and batched,
    through one block of iters rounds drawn and gathered at once, the
    batched one as run steps it: l1 level by level (_levels), the others
    a wave at a time; (first difference or None, zero steps, box-clipped
    steps, iterations with a row shared by two selected columns,
    iterations with a row shared by three or more, waves or levels that
    held more than one iteration).  The states are compared after every
    wave or segment of levels, the steps of each iteration in order."""
    ref, new = init_state(loss), init_state(loss)
    spec = SamplingSpec(n=active.size, tau=tau, seed=11)
    zeros = clipped = shared = chained = long = 0
    nbw = -(beta + reg.sigma_psi) * w

    def prox(g, x, cols):
        ids = span.ids.ravel()[cols]
        taken[cols] = prox_steps(g, x, nbw[ids], w[ids], reg)
        return taken[cols]

    leveled = loss.kind == "l1"
    for span in loss.columns(active[draw(spec, 0, iters)], levels=leveled):
        taken = np.full(span.lens.size, np.nan)  # each column's step, once taken
        for a, b, several in (_levels if leveled else _waves)(new, span, prox):
            if ref.needs_recompute():
                ref.recompute()
            long += several
            for t, h in zip(range(a, b), taken[a * tau:b * tau].reshape(b - a, tau)):
                ids = span.ids[t]
                hs = _ref_iteration(ref, ids, beta, w, reg)
                if not _same_bits(hs, h):
                    return "h", zeros, clipped, shared, chained, long
                zeros += int(np.count_nonzero(h == 0.0))
                clipped += int(np.count_nonzero((ref.x[ids] == reg.lo) | (ref.x[ids] == reg.hi)))
                rows = np.concatenate([col(loss.pd, int(i))[0] for i in ids])
                shared += int(np.unique(rows).size < rows.size)
                chained += int(np.bincount(rows).max(initial=0) >= 3)
            diff = _first_difference(ref, new)
            if diff is not None:
                return diff, zeros, clipped, shared, chained, long
    return None, zeros, clipped, shared, chained, long


@pytest.mark.parametrize("tau", [1, 3, N_ACTIVE])
@pytest.mark.parametrize("reg_name", sorted(REGS))
@pytest.mark.parametrize("app,mu", APPS)
def test_batched_step_matches_per_coordinate_loop(app, mu, reg_name, tau):
    reg = REGS[reg_name]
    diff, zeros, clipped, shared, chained, long = _compare_states(*_setup(app, mu), reg, tau)
    assert diff is None, f"{diff} differs"
    if reg_name == "l1":
        assert zeros > 0  # the soft threshold produced zero steps
    if reg_name == "box":
        assert clipped > 0
    if tau == N_ACTIVE:
        assert shared > 0 and chained > 0
    if tau == 1:
        assert long > 0  # waves of several rounds


@pytest.mark.parametrize("tau", [1, 3, N_ACTIVE])
@pytest.mark.parametrize("reg_name", sorted(REGS))
@pytest.mark.parametrize("app,mu", APPS)
def test_column_regular_steps_match_the_loop(app, mu, reg_name, tau):
    setup = _setup(app, mu, _regular_instance(5))
    diff, zeros, clipped, shared, chained, long = _compare_states(*setup, REGS[reg_name], tau)
    assert diff is None, f"{diff} differs"
    if tau == N_ACTIVE:
        assert shared > 0 and chained > 0
    if tau == 1:
        assert long > 0


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


@pytest.mark.parametrize("tau", [2, 3])
@pytest.mark.parametrize("reg_name", sorted(REGS))
@pytest.mark.parametrize("app,mu", APPS[1:])
def test_run_matches_the_loop_under_the_local_eso(app, mu, reg_name, tau):
    # one beta per coordinate: _instance's largest factor equals beta3,
    # so auto keeps beta3 there; on this instance it picks the local
    # ESO at tau = 2 and 3 for both losses, and the factors differ
    working = prepare_problem(problem.synth_problem(200, 100, 3, seed=1), app)
    loss = make_loss(working, app, mu)
    cfg = SolverConfig(tau=tau, seed=4, max_epochs=3)
    report = run(working, loss, REGS[reg_name], cfg)
    assert report.config["beta_formula"] == "local"
    pw = primal_weights(working, dual_weights(working, app))
    assert np.unique(select_eso("auto", working, pw, p=1, tau=tau).factors).size > 5
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
    recompute = SmoothState.recompute

    def counted_prox_steps(*args):
        iterations[0] += 1
        return prox_steps(*args)

    def logged_recompute(self):
        if not LSE_ACC_LO <= self.lse_acc <= LSE_ACC_HI:
            refreshed_at.append(iterations[0])
        recompute(self)

    monkeypatch.setattr(solver, "prox_steps", counted_prox_steps)
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
        _ref_steps(ref, [i], [0.5])
        assert _first_difference(ref, new) is None
    assert _same_bits(new.full_gradient(),
                      [_ref_partial_gradient(ref, i) for i in range(loss.pd.n)])


def test_prox_steps_keeps_the_scalar_zero_signs():
    grad = np.array([0.0, -0.0, 1e-3, -1e-3, 0.5, 7.0, -7.0])
    for reg in list(REGS.values()) + [Regularizer.box(0.0, 1.0), Regularizer.box(-1.0, -0.0)]:
        for x in (0.0, -0.0, 0.02):
            nbw = np.full(grad.size, -(1.3 + reg.sigma_psi) * 2.0)
            h = prox_steps(grad, np.full(grad.size, x), nbw, np.full(grad.size, 2.0), reg)
            assert _same_bits(h, [_ref_prox_step(g, x, 1.3, 2.0, reg) for g in grad])


def _selections(span):
    """The span's selections one at a time: ids, column lengths, rows,
    vals, shared-row pairs and where each column's entries start
    (positions in the selection)."""
    tau = span.ids.shape[1]
    for t, ids in enumerate(span.ids):
        at = slice(span.ptr[t], span.ptr[t + 1])
        yield (ids, span.lens[t * tau:(t + 1) * tau], span.rows[at], span.vals[at],
               (span.pairs[span.pair_ptr[t]:span.pair_ptr[t + 1]] - span.ptr[t]).T,
               (span.eptr[t * tau:(t + 1) * tau] - span.ptr[t]).tolist())


@pytest.mark.parametrize("tau", [1, 4, N_ACTIVE + 1])
def test_block_gather_matches_one_gather_per_selection(tau):
    pd = _instance(1)  # column 3 is empty: it starts where the next one does
    block = draw(SamplingSpec(n=pd.n, tau=tau, seed=2), 0, 40)
    selections = [sel for span in pd.columns(block) for sel in _selections(span)]
    assert len(selections) == len(block)
    shared = 0
    for want, (ids, lens, rows, vals, pairs, starts) in zip(block, selections):
        ref_lens, ref_rows, ref_vals, ref_starts, ref_pairs = _ref_columns(pd, want)
        assert np.array_equal(ids, want) and np.array_equal(lens, ref_lens)
        assert np.array_equal(rows, ref_rows) and np.array_equal(vals, ref_vals)
        assert pairs.dtype == np.int64
        assert pairs.shape == ref_pairs.shape and np.array_equal(pairs, ref_pairs)
        assert starts == ref_starts
        shared += pairs.size > 0
    assert (shared > 0) == (tau > 1)  # one column shares no row with itself


def test_rows_shared_by_three_columns_chain_their_pairs():
    # rows of columns 0..4: {0, 2}, {0, 1}, {0, 2, 3}, {1}, {3}
    rows = [0, 2, 0, 1, 0, 2, 3, 1, 3]
    cols = [0, 0, 1, 1, 2, 2, 2, 3, 4]
    pd = ProblemData.from_coo(4, 5, rows, cols, np.arange(1.0, 10.0), np.zeros(4))
    span = next(pd.columns(np.array([[0, 1, 2, 3], [1, 2, 3, 4]])))
    first, second = _selections(span)
    # entries 0..7: column 0 at rows 0, 2; column 1 at 0, 1; column 2 at
    # 0, 2, 3; column 3 at 1.  Row 0's three entries chain: (0, 2), (2, 4)
    assert first[4].tolist() == [[0, 2, 3, 1], [2, 4, 7, 5]] and first[5] == [0, 2, 4, 7]
    # entries 0..6: column 1 at rows 0, 1; column 2 at 0, 2, 3; column 3 at 1; column 4 at 3
    assert second[4].tolist() == [[0, 1, 4], [2, 5, 6]]
    # the second selection shares rows with the first: two waves
    assert span.waves == [0, 1, 2]


@pytest.mark.parametrize("instance", [_instance, _regular_instance])
def test_shared_rows_fall_back_to_a_stable_argsort_past_int64(instance):
    # the planner's keys are (row << b) | position, b the bit width of the
    # span's entry count: int32 at pd.m, int64 with the rows spread by
    # stride, and past int64 at huge, where a stable argsort of the rows
    # gives the same order.  Pairs and waves must not change.
    pd = instance(1)
    span = next(pd.columns(draw(SamplingSpec(n=pd.n, tau=pd.n - 1, seed=2), 0, 40)))
    rows, ptr = span.rows, np.array(span.ptr)
    b = rows.size.bit_length()
    assert pd.m << b < 1 << 31
    stride = 1 << (32 - b)
    huge = (1 << (64 - b)) + 1
    assert 1 << 31 <= (pd.m * stride) << b <= 1 << 63 < huge << b
    want = problem._plan(rows, ptr, pd.m)
    assert want[0].shape[1] > 0 and len(want[2]) > 2
    for spread, m in ((stride, pd.m * stride), (1, huge)):
        pairs, pair_ptr, waves = problem._plan(rows * spread, ptr, m)
        assert pairs.dtype == want[0].dtype == np.int64
        assert np.array_equal(pairs, want[0]) and pair_ptr == want[1] and waves == want[2]


def test_columns_gathers_in_column_order():
    pd = _instance(1)
    ids = np.array([0, 1, 2, 3, 5, 9])
    span = next(pd.columns(ids[None]))
    assert np.array_equal(span.rows, np.concatenate([col(pd, int(i))[0] for i in ids]))
    assert np.array_equal(span.vals, np.concatenate([col(pd, int(i))[1] for i in ids]))
    assert np.array_equal(span.lens, pd.col_nnz()[ids])
    k5, k9 = pd.col_nnz()[[5, 9]].tolist()
    assert span.eptr.tolist() == [0, 1, 3, 48, 48, 48 + k5, 48 + k5 + k9]
    assert span.empty  # column 3 has no entries
    assert next(pd.columns(np.empty((1, 0), dtype=np.int64))).rows.size == 0


_wave = SmoothState.wave


def _wave_terms(state, span, a, b, leveled):
    """SmoothState.wave, the z its column sums take vals * z of, and the
    columns' lengths."""
    wave = _wave(state, span, a, b, leveled)
    ptr = span.levels.eptr if leveled else span.ptr
    at = slice(ptr[a], ptr[b])
    if state.loss.kind == "l1":
        z = np.clip(wave.r / span.row_data[at], -1.0, 1.0)
    else:
        z = wave.e
    return wave, z, span.lens[wave.cols]


def _bincount_wave(self, span, a, b, leveled=False):
    """The wave with each column's s summed by np.bincount, in entry order."""
    wave, z, lens = _wave_terms(self, span, a, b, leveled)
    seg = np.repeat(np.arange(lens.size), lens)
    wave.s = np.bincount(seg, weights=wave.vals * z, minlength=lens.size)
    return wave


def _dot_wave(self, span, a, b, leveled=False):
    """The wave with each column's s one ndarray.dot, the sum the kernel
    took before np.add.reduceat: from two entries on, its last bit can
    differ."""
    wave, z, lens = _wave_terms(self, span, a, b, leveled)
    at = np.append(0, lens.cumsum()).tolist()
    wave.s = np.array([wave.vals[p:q].dot(z[p:q]) for p, q in zip(at, at[1:])])
    return wave


def _mutant(func, name, *edits):
    """func, named name, with each (line, replacement) of edits made: the
    mutant follows the code as it changes, and fails to build once a
    line is gone from it."""
    src = textwrap.dedent(inspect.getsource(func))
    for line, replacement in edits:
        assert src.count(line) == 1, line
        src = src.replace(line, replacement)
    src = src.replace(f"def {func.__name__}(", f"def {name}(")
    namespace = dict(vars(inspect.getmodule(func)))
    exec(src, namespace)
    return namespace[name]


# the exponential variants' lse_acc without the replay of a row's
# earlier terms, then with it but with the gathered exponential at the
# replayed entries, then with a chain along a row replayed one link only
_no_fixup = _mutant(SmoothState.steps, "_no_fixup",
                    ("old = wave.r[at:][src] + dsrc", "old = wave.r[at:][dst]"))
_old_exp_reused = _mutant(
    SmoothState.steps, "_old_exp_reused", ("et[dst] = np.exp(old, out=old)", "pass"))
_one_link = _mutant(SmoothState.steps, "_one_link", ("run = run[1:] & run[:-1]", "run = run[:0]"))
# r written by assignment when rows are shared: l1 replays no terms, so a
# row keeps only its last column's term.  (linf and adaboost replay them
# for lse_acc, so old + d at a row's last entry is what np.add.at gives,
# and numpy assigns a repeated index in order: there the mutant is
# equivalent.)
_r_assigned = _mutant(
    SmoothState.land, "_r_assigned",
    ("np.add.at(self.r, wave.rows[:ec], d)", "self.r[wave.rows[:ec]] = wave.r[:ec] + d"))


def _no_shared_rows(rows, ptr, m, lens=None):
    """The planner with its shared-row marks lost."""
    _, pair_ptr, waves = _plan(rows, ptr, m, lens)
    return np.zeros((0, 2), dtype=np.int64), [0] * len(pair_ptr), waves


_plan = problem._plan
# the keys sorted by an unstable argsort of the rows alone: a row's
# entries may come out in any order, so a pair may run from a later
# column to an earlier one (l1 reads only whether there are pairs)
_unstable_shared_rows = _mutant(
    problem._plan, "_unstable_shared_rows",
    ("if m << b <= _INT64_MAX:", "if False:"),
    ('rows.argsort(kind="stable")', 'rows.argsort(kind="quicksort")'))


@pytest.mark.parametrize("app,mu", [("adaboost", 1.0), ("linf", 0.25)])
def test_comparison_catches_a_block_gather_without_shared_rows(monkeypatch, app, mu):
    monkeypatch.setattr(problem, "_plan", _no_shared_rows)
    diff, *_ = _compare_states(*_setup(app, mu), REGS["none"], N_ACTIVE)
    assert diff is not None


@pytest.mark.parametrize("app,mu", [("adaboost", 1.0), ("linf", 0.25)])
def test_comparison_catches_shared_rows_from_an_unstable_sort(monkeypatch, app, mu):
    monkeypatch.setattr(problem, "_plan", _unstable_shared_rows)
    diff, *_ = _compare_states(*_setup(app, mu), REGS["none"], N_ACTIVE)
    assert diff is not None


def _one_level(rows, ptr, m, lens):
    """The level planner with every step at level 0: a span is one level."""
    return *_plan(rows, ptr, m, lens)[:2], np.zeros(lens.size, dtype=np.int64)


@pytest.mark.parametrize("tau", [1, 3])
def test_comparison_catches_levels_that_ignore_conflicts(monkeypatch, tau):
    monkeypatch.setattr(problem, "_plan", _one_level)
    diff, *_ = _compare_states(*_setup("l1", 0.3), REGS["none"], tau)
    assert diff is not None


@pytest.mark.parametrize("attr,mutant,app,mu", [
    ("wave", _bincount_wave, "l1", 0.3),
    ("wave", _dot_wave, "l1", 0.3),
    ("wave", _dot_wave, "adaboost", 1.0),
    ("wave", _dot_wave, "linf", 0.25),
    ("steps", _no_fixup, "adaboost", 1.0),
    ("steps", _no_fixup, "linf", 0.25),
    ("steps", _old_exp_reused, "adaboost", 1.0),
    ("steps", _old_exp_reused, "linf", 0.25),
    ("steps", _one_link, "adaboost", 1.0),
    ("steps", _one_link, "linf", 0.25),
    ("land", _r_assigned, "l1", 0.3),
])
def test_comparison_catches_mutants(monkeypatch, attr, mutant, app, mu):
    monkeypatch.setattr(SmoothState, attr, mutant)
    diff, *_ = _compare_states(*_setup(app, mu), REGS["none"], N_ACTIVE)
    assert diff is not None
