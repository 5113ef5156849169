"""Waves and levels change no iterate, and the planner finds them.

run steps through each span of an epoch one group of steps at a time:
for linf and adaboost a wave, a maximal run of consecutive iterations
that share no row, and for l1 a level, the steps (from any iterations)
whose earlier conflicts are all in lower levels (problem._plan).  The
oracle runs the same solve twice, with the planned groups and with every
group forced to one iteration by replacing the planner, and compares
traces, final x, update counts and the final lse_acc bit for bit, on an
instance with ragged selections and rows shared inside them
(test_budget._raw), over the losses, tau in {1, 3, 8} and three
regularizers, and on runs where a staleness refresh, an accumulator-band
refresh or a target stop falls inside a planned wave or cuts a level.
It catches planners that ignore conflicts across iterations or merge the
steps of one iteration that share a row one hop only, and a wave sweep
that stops after its first pass.  The property tests check the
planner's output on random layouts: waves row-disjoint and maximal,
in-selection pairs those of the one-selection reference gather, and
levels that order every row's steps and are the lowest that do.  Counts
of two small solves are pinned: an l1 solve's level groups per epoch,
a linf solve's waves and sweep passes per epoch, and the coordinate
updates of both.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcdm import problem, solver
from spcdm.problem import ProblemData
from spcdm.sampling import SamplingSpec, draw
from spcdm.smoothing import SmoothState, make_loss, prepare_problem
from spcdm.solver import Regularizer, SolverConfig, prox_steps, run
from helpers import assert_same_array, col
from test_batched_step import _mutant, _ref_columns, _same_bits
from test_budget import _raw

_plan = problem._plan


def _single_waves(rows, ptr, m, lens=None):
    """The planner with every group one iteration: waves one iteration
    long, or each step's level its iteration."""
    pairs, pair_ptr, _ = _plan(rows, ptr, m, lens)
    if lens is None:
        return pairs, pair_ptr, list(range(ptr.size))
    return pairs, pair_ptr, np.arange(ptr.size - 1).repeat(lens.size // (ptr.size - 1))


def _conflicts_ignored(rows, ptr, m, lens=None):
    """A mutant planner that ignores rows shared across iterations: each
    span is one wave, or one level."""
    pairs, pair_ptr, _ = _plan(rows, ptr, m, lens)
    return pairs, pair_ptr, [0, ptr.size - 1] if lens is None else np.zeros(lens.size, int)


APPS = {"linf": 0.1, "l1": 0.3, "adaboost": 1.0}
REGS = {"none": Regularizer.none(), "l1": Regularizer.l1(0.02),
        "box": Regularizer.box(-0.05, 0.05)}
# trace_every = 3 leaves two epoch ends in three without a refresh, so
# staleness reaches n in mid-epoch
FREE = dict(max_epochs=7, trace_every=3)


def _solve(app, tau, reg, config, seed=6, planner=None, between=None):
    """run's report, its final lse_acc and the events that fell inside a
    wave, or inside a span's levels: "staleness" or "band" for a refresh
    that cut one, "target" for a stop in one.  between=k sets the target
    halfway between the traced values k and k + 1 of the same run with
    no target."""
    working = prepare_problem(_raw(), app)
    loss = make_loss(working, app, APPS[app])
    cfg = SolverConfig(tau=tau, seed=seed, **config)
    if between is not None:
        trace = run(working, loss, reg, cfg).objective_trace
        cfg = dataclasses.replace(cfg, target_value=(trace[between][1] + trace[between + 1][1]) / 2)
    states, events, log = [], [], []
    steps, groups, recompute = SmoothState.steps, problem.Levels.groups, SmoothState.recompute

    def watched(self, wave, prox, bound=-math.inf):
        states[:] = [self]
        t, hit = steps(self, wave, prox, bound)
        if wave.first is not None:
            if t < wave.end and not hit:
                events.append("staleness" if self.staleness >= working.n else "band")
            log.append(t not in wave.span.waves)  # whether it ended inside a planned wave
        return t, hit

    def watched_groups(self, c0, c1):
        # a segment of levels that starts, after a refresh, or ends where
        # a level holds steps on both sides
        if log[-1:] == ["refresh"] and _splits(self, c0):
            events.append("staleness")
        log.append(_splits(self, c1))
        return groups(self, c0, c1)

    def watched_recompute(self):
        log.append("refresh")
        recompute(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SmoothState, "steps", watched)
        mp.setattr(SmoothState, "recompute", watched_recompute)
        mp.setattr(problem.Levels, "groups", watched_groups)
        if planner is not None:
            mp.setattr(problem, "_plan", planner)
        report = run(working, loss, reg, cfg)
    if between is not None:
        assert report.target_reached
        if log[-1] is True:  # the run stopped inside a planned wave or a cut level
            events.append("target")
    return report, states[0].lse_acc, events


def _splits(levels, c):
    """Whether a level holds steps of columns both before c and from c on."""
    level, col = np.divmod(levels.key, levels.eptr.size - 1)
    return np.intersect1d(level[col < c], level[col >= c]).size > 0


def _differences(planned, single):
    (a, acc_a, _), (b, acc_b, _) = planned, single
    return [name for name, same in (
        ("trace", a.objective_trace == b.objective_trace),
        ("final_x", _same_bits(a.final_x, b.final_x)),
        ("updates", a.coordinate_updates == b.coordinate_updates),
        ("lse_acc", _same_bits(acc_a, acc_b)),
    ) if not same]


@pytest.mark.parametrize("between", [None, 1], ids=["free", "target"])
@pytest.mark.parametrize("reg", sorted(REGS))
@pytest.mark.parametrize("tau", [1, 3, 8])
@pytest.mark.parametrize("app", sorted(APPS))
def test_planned_waves_match_one_iteration_waves(app, tau, reg, between):
    planned = _solve(app, tau, REGS[reg], FREE, between=between)
    single = _solve(app, tau, REGS[reg], FREE, planner=_single_waves, between=between)
    assert _differences(planned, single) == []
    assert single[2] == []  # a one-iteration wave has no inside


# (event, app, tau, reg, seed, config, between): a run where the event
# falls inside a planned wave.  beta' = 0.02, far below the safe value,
# drives lse_acc out of its band.
EVENTS = [
    ("staleness", "linf", 1, "l1", 0, dict(max_epochs=12, trace_every=6), None),
    ("staleness", "l1", 1, "none", 2, dict(max_epochs=12, trace_every=6), None),
    ("staleness", "adaboost", 1, "l1", 0, dict(max_epochs=12, trace_every=6), None),
    ("band", "linf", 1, "none", 0, dict(max_epochs=6, beta_formula=0.02), None),
    ("band", "adaboost", 1, "none", 0, dict(max_epochs=6, beta_formula=0.02), None),
    ("target", "linf", 1, "none", 2, dict(max_epochs=8), 1),
    ("target", "l1", 1, "box", 2, dict(max_epochs=8), 3),
    ("target", "adaboost", 1, "box", 2, dict(max_epochs=8), 3),
]


@pytest.mark.parametrize("event,app,tau,reg,seed,config,between", EVENTS,
                         ids=[f"{e[0]}-{e[1]}" for e in EVENTS])
def test_a_refresh_or_stop_inside_a_wave_changes_nothing(event, app, tau, reg, seed, config,
                                                         between):
    planned = _solve(app, tau, REGS[reg], config, seed, between=between)
    assert event in planned[2]
    single = _solve(app, tau, REGS[reg], config, seed, _single_waves, between)
    assert _differences(planned, single) == []


@pytest.mark.parametrize("app", sorted(APPS))
def test_the_oracle_catches_a_planner_that_ignores_conflicts(app):
    planned = _solve(app, 1, REGS["none"], FREE, planner=_conflicts_ignored)
    single = _solve(app, 1, REGS["none"], FREE, planner=_single_waves)
    assert _differences(planned, single) != []


# the merge of the steps of one iteration that share a row, one pass only:
# a chain of three columns through two rows is left in two
_one_hop = _mutant(problem._merge, "_one_hop", (
    "while not np.array_equal(comp[a], comp[b]):", "if not np.array_equal(comp[a], comp[b]):"))


@pytest.mark.parametrize("reg", ["none", "l1"])
def test_the_oracle_catches_a_one_hop_merge(reg):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problem, "_merge", _one_hop)
        planned = _solve("l1", 8, REGS[reg], FREE)
    single = _solve("l1", 8, REGS[reg], FREE, planner=_single_waves)
    assert _differences(planned, single) != []


def test_l1_level_groups_per_epoch_and_updates_are_pinned(monkeypatch):
    # a 400 x 1000 instance with 5 entries a row at tau = 32: 32
    # iterations an epoch take 20 to 22 groups of steps
    working = prepare_problem(problem.synth_problem(400, 1000, 5, seed=3), "l1")
    loss = make_loss(working, "l1", 0.1)
    counts, groups = [], problem.Levels.groups
    begin = problem.ProblemData.columns

    def counted(self, c0, c1):
        found = list(groups(self, c0, c1))
        counts[-1] += len(found)
        return iter(found)

    def epoch(self, ids, row_data=None, levels=False):
        counts.append(0)
        return begin(self, ids, row_data, levels)

    monkeypatch.setattr(problem.Levels, "groups", counted)
    monkeypatch.setattr(problem.ProblemData, "columns", epoch)
    report = run(working, loss, Regularizer.l1(0.05), SolverConfig(tau=32, seed=1, max_epochs=4))
    assert counts == [20, 22, 20, 21]
    assert report.coordinate_updates == 3584


# the sweep with every guess of its first pass taken as exact
_one_pass = _mutant(SmoothState.steps, "_one_pass",
                    ("j = int(stop.argmax()) if stop.any() else j", "pass"))


@pytest.mark.parametrize("app", ["adaboost", "linf"])
def test_the_oracle_catches_a_sweep_of_one_pass(app):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SmoothState, "steps", _one_pass)
        planned = _solve(app, 1, REGS["none"], FREE)
        single = _solve(app, 1, REGS["none"], FREE, planner=_single_waves)
    assert _differences(planned, single) != []


def test_linf_sweep_passes_per_epoch_and_updates_are_pinned(monkeypatch):
    # a 200 x 500 instance with 4 entries a row at tau = 1: each pass of
    # a wave's sweep calls prox_steps once, and a wave of one iteration
    # takes one pass
    working = prepare_problem(problem.synth_problem(200, 500, 4, seed=3), "linf")
    loss = make_loss(working, "linf", 0.1)
    passes, waves = [], []
    begin, steps = problem.ProblemData.columns, SmoothState.steps

    def counted_prox(*args):
        passes[-1] += 1
        return prox_steps(*args)

    def counted_steps(self, *args):
        waves[-1] += 1
        return steps(self, *args)

    def epoch(self, ids, row_data=None, levels=False):
        passes.append(0)
        waves.append(0)
        return begin(self, ids, row_data, levels)

    monkeypatch.setattr(solver, "prox_steps", counted_prox)
    monkeypatch.setattr(SmoothState, "steps", counted_steps)
    monkeypatch.setattr(problem.ProblemData, "columns", epoch)
    report = run(working, loss, Regularizer.none(), SolverConfig(tau=1, seed=1, max_epochs=3))
    assert waves == [46, 38, 39] and passes == [193, 164, 174]
    assert report.coordinate_updates == 1191


@st.composite
def layouts(draw_from):
    """A random sparse matrix, every column nonempty, and a block of draws."""
    m = draw_from(st.integers(1, 40))
    n = draw_from(st.integers(1, 30))
    seed = draw_from(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    density = draw_from(st.floats(0.02, 0.6))
    support = rng.random((m, n)) < density
    support[rng.integers(0, m, n), np.arange(n)] = True
    r, c = np.nonzero(support)
    pd = ProblemData.from_coo(m, n, r, c, rng.uniform(0.5, 1.5, r.size), np.zeros(m))
    tau = draw_from(st.integers(1, n))
    count = draw_from(st.integers(1, 40))
    return pd, draw(SamplingSpec(n=n, tau=tau, seed=seed), 0, count)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(layouts(), st.sampled_from([1, 5, 1 << 15]))
def test_planner_waves_are_disjoint_and_maximal_and_pairs_match_the_reference(case, budget):
    pd, block = case
    saved, problem._BUDGET = problem._BUDGET, budget  # spans of differing sizes
    try:
        spans = list(pd.columns(block))
    finally:
        problem._BUDGET = saved
    done = 0
    for span in spans:
        count = len(span.ptr) - 1
        rows = [set(span.rows[span.ptr[t]:span.ptr[t + 1]].tolist()) for t in range(count)]
        waves = span.waves
        assert waves[0] == 0 and waves[-1] == count and all(np.diff(waves) > 0)
        for a, b in zip(waves, waves[1:]):
            touched = set()
            for t in range(a, b):
                assert not rows[t] & touched  # pairwise row-disjoint
                touched |= rows[t]
            if a:  # maximal: the wave's first iteration meets the wave before
                before = set().union(*rows[waves[waves.index(a) - 1]:a])
                assert rows[a] & before
        for t in range(count):
            pairs = (span.pairs[span.pair_ptr[t]:span.pair_ptr[t + 1]] - span.ptr[t]).T
            assert np.array_equal(pairs, _ref_columns(pd, block[done + t])[4])
        done += count
    assert done == len(block)


@st.composite
def level_layouts(draw_from):
    """layouts, or a column-regular one: k random rows in every column."""
    if not draw_from(st.booleans()):
        return draw_from(layouts())
    m = draw_from(st.integers(1, 40))
    n = draw_from(st.integers(1, 30))
    k = draw_from(st.integers(1, min(m, 4)))
    seed = draw_from(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    r = np.concatenate([rng.choice(m, k, replace=False) for _ in range(n)])
    pd = ProblemData.from_coo(m, n, r, np.arange(n).repeat(k), rng.uniform(0.5, 1.5, r.size),
                              np.zeros(m))
    tau = draw_from(st.integers(1, n))
    return pd, draw(SamplingSpec(n=n, tau=tau, seed=seed), 0, draw_from(st.integers(1, 40)))


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(level_layouts(), st.sampled_from([1, 5, 1 << 15]))
def test_planner_levels_order_every_row_and_are_the_lowest(case, budget):
    pd, block = case
    saved, problem._BUDGET = problem._BUDGET, budget  # spans of differing sizes
    try:
        spans = list(pd.columns(block, levels=True))
    finally:
        problem._BUDGET = saved
    for span in spans:
        count, tau = span.ids.shape
        size = count * tau
        level, at = np.empty(size, dtype=int), np.empty(size, dtype=int)
        level[span.levels.key % size] = span.levels.key // size
        at[span.levels.key % size] = np.arange(size)  # each step's position
        eptr = span.levels.eptr.tolist()
        steps_of = {}  # each row's steps, in column order
        for c in range(size):
            ents = slice(eptr[at[c]], eptr[at[c] + 1])  # the span holds them in level order
            rows, vals = col(pd, span.ids.flat[c])
            assert_same_array(span.rows[ents], rows)
            assert_same_array(span.vals[ents], vals)
            for j in rows.tolist():
                steps_of.setdefault(j, []).append(c)
        group = list(range(size))  # a step's merged group: steps of one iteration sharing a row

        def find(c):
            while group[c] != c:
                c = group[c]
            return c

        before = {c: set() for c in range(size)}  # earlier iterations' steps sharing a row
        for steps in steps_of.values():
            for i, c in enumerate(steps):
                for d in steps[:i]:
                    if d // tau == c // tau:
                        assert level[d] == level[c]
                        group[find(c)] = find(d)
                    else:
                        assert level[d] < level[c]
                        before[c].add(d)
        for c in range(size):
            # the lowest level: one above a step its merged group waits for
            merged = [d for d in range(size) if find(d) == find(c)]
            assert level[c] == max((level[e] + 1 for d in merged for e in before[d]), default=0)
