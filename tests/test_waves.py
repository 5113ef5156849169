"""Waves change no iterate, and the planner finds them.

run steps through each span of an epoch one wave at a time: a maximal
run of consecutive iterations that share no row (problem._plan).  The
oracle runs the same solve twice, with the planned waves and with every
wave forced to one iteration by replacing the planner, and compares
traces, final x, update counts and the final lse_acc bit for bit, on an
instance with ragged selections and rows shared inside them
(test_budget._raw), over the losses, tau in {1, 3, 8} and three
regularizers, and on runs where a staleness refresh, an accumulator-band
refresh or a target stop falls inside a planned wave.  The property test
checks the planner's output on random layouts: waves row-disjoint and
maximal, in-selection pairs those of the one-selection reference gather.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spcdm import problem
from spcdm.problem import ProblemData
from spcdm.sampling import SamplingSpec, draw
from spcdm.smoothing import SmoothState, make_loss, prepare_problem
from spcdm.solver import Regularizer, SolverConfig, run
from test_batched_step import _ref_columns, _same_bits
from test_budget import _raw

_plan = problem._plan


def _single_waves(rows, ptr, m):
    """The planner with every wave one iteration long."""
    pairs, pair_ptr, _ = _plan(rows, ptr, m)
    return pairs, pair_ptr, list(range(ptr.size))


def _conflicts_ignored(rows, ptr, m):
    """A mutant planner that ignores rows shared across iterations: each
    span is one wave."""
    pairs, pair_ptr, _ = _plan(rows, ptr, m)
    return pairs, pair_ptr, [0, ptr.size - 1]


APPS = {"linf": 0.1, "l1": 0.3, "adaboost": 1.0}
REGS = {"none": Regularizer.none(), "l1": Regularizer.l1(0.02),
        "box": Regularizer.box(-0.05, 0.05)}
# trace_every = 3 leaves two epoch ends in three without a refresh, so
# staleness reaches n in mid-epoch
FREE = dict(max_epochs=7, trace_every=3)


def _solve(app, tau, reg, config, seed=6, planner=None, between=None):
    """run's report, its final lse_acc and the events that fell inside a
    wave: "staleness" or "band" for a refresh that cut one, "target" for
    a stop in one.  between=k sets the target halfway between the traced
    values k and k + 1 of the same run with no target."""
    working = prepare_problem(_raw(), app)
    loss = make_loss(working, app, APPS[app])
    cfg = SolverConfig(tau=tau, seed=seed, **config)
    if between is not None:
        trace = run(working, loss, reg, cfg).objective_trace
        cfg = dataclasses.replace(cfg, target_value=(trace[between][1] + trace[between + 1][1]) / 2)
    states, events = [], []
    steps = SmoothState.steps

    def watched(self, wave, prox, check=None):
        states[:] = [self]
        end = wave.first + wave.x.size // tau
        t, hit = steps(self, wave, prox, check)
        if t < end:
            events.append("target" if hit else
                          "staleness" if self.staleness >= working.n else "band")
        return t, hit

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SmoothState, "steps", watched)
        if planner is not None:
            mp.setattr(problem, "_plan", planner)
        report = run(working, loss, reg, cfg)
    if between is not None:
        assert report.target_reached
    return report, states[0].lse_acc, events


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
            pairs = span.pairs[:, span.pair_ptr[t]:span.pair_ptr[t + 1]]
            assert np.array_equal(pairs, _ref_columns(pd, block[done + t])[4])
        done += count
    assert done == len(block)
