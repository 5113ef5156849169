"""The wave sweep against the loop over a wave's iterations it replaces.

SmoothState.steps takes an exponential loss's wave in passes over all of
its remaining iterations, from guessed normalisers, and keeps the
iterations up to the first guess a pass did not reproduce bit for bit.
helpers.steps_reference is the loop: one iteration at a time, lse_acc
as it goes.  Here both take the same runs of iterations from copies of
one state, and their cuts, their flags and the states after must agree
bit for bit, on ragged selections and on column-regular ones, at tau
in {1, 3, 8}, where an iteration holds rows several of its columns
share, and on runs cut by the accumulator
leaving its band, by staleness reaching n and by a bound on lse_acc (a
target check).  The runs are seven iterations of distinct columns, as
in any wave, whether or not they share rows: both sides read what the
wave gathered, so the algebra is the same either way, and the sweeps
get long.  The bound
itself (SmoothState.acc_bound) is checked on random fmu, mu and targets:
no lse_acc above it gives a value at most the target.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import KERNEL_ERRSTATE, steps_reference
from spcdm.eso import dual_weights, primal_weights
from spcdm.problem import ProblemData
from spcdm.smoothing import (
    LSE_ACC_HI, LSE_ACC_LO, init_state, make_loss, prepare_problem,
)
from spcdm.solver import Regularizer, prox_steps
from test_batched_step import _same_bits
from test_budget import _raw

APPS = {"linf": 0.1, "adaboost": 1.0}
REGS = {"none": Regularizer.none(), "l1": Regularizer.l1(0.02)}
# (beta, the bound's fraction of lse_acc as a run starts): steps this
# long drive lse_acc out of its band; with no refresh between runs,
# staleness reaches n inside them; the bound falls inside them
CUTS = {"band": (0.02, None), "staleness": (4.0, None), "target": (4.0, 1 - 1e-3)}
RUN = 7  # iterations a run


def _instance(kind, m=40, n=80, seed=3):
    """m rows, n columns: "ragged" of 1 to 8 entries, "regular" of 4 each."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(1, 9, n) if kind == "ragged" else np.full(n, 4)
    rows = np.concatenate([rng.choice(m, k, replace=False) for k in lens])
    vals = rng.choice([-1.0, 1.0], rows.size) * 10.0 ** rng.uniform(-1, 1, rows.size)
    b = rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 2.0, m)
    return ProblemData.from_coo(m, n, rows, np.arange(n).repeat(lens), vals, b)


def _block(n, tau, runs, seed=7):
    """runs runs of RUN selections, ascending each, no column twice in a run."""
    rng = np.random.default_rng(seed)
    ids = [np.sort(rng.permutation(n)[:RUN * tau].reshape(RUN, tau), axis=1)
           for _ in range(runs)]
    return np.concatenate(ids)


def _same_state(a, b):
    return all(_same_bits(getattr(a, k), getattr(b, k))
               for k in ("x", "r", "lse_acc", "fmu", "staleness"))


def _both(app, instance, tau, reg, cut):
    """Step two copies of one state through a block, sweep and loop, a run
    at a time (what is left of it after a cut), refreshing both where the
    state asks; returns the cuts seen ("band", "staleness", "target"),
    the steps calls and the sweep's passes, and fails at the first
    difference."""
    working = prepare_problem(_instance(instance), app)
    loss = make_loss(working, app, APPS[app])
    w = primal_weights(working, dual_weights(working, app)).w
    beta, fraction = CUTS[cut]
    nbw = -(beta + reg.sigma_psi) * w
    new, ref = init_state(loss), init_state(loss)
    cuts, calls, passes = set(), 0, [0]
    k0 = 0  # the block's iterations before the span
    # about three times n steps: staleness reaches n in a few runs
    for span in loss.columns(_block(working.n, tau, -(-3 * working.n // (RUN * tau)))):
        ids = span.ids.ravel()

        def prox(g, x, cols):
            return prox_steps(g, x, nbw[ids[cols]], w[ids[cols]], reg)

        def counted(g, x, cols):
            passes[0] += 1
            return prox(g, x, cols)

        a, end = 0, len(span.ptr) - 1
        while a < end:
            if new.needs_recompute():
                new.recompute()
                ref.recompute()
            b = min(end, (k0 + a) // RUN * RUN + RUN - k0)
            bound = -math.inf if fraction is None else new.lse_acc * fraction
            with np.errstate(**KERNEL_ERRSTATE):
                got = new.steps(new.wave(span, a, b), counted, bound)
                want = steps_reference(ref, ref.wave(span, a, b), prox, bound)
            assert got == want and _same_state(new, ref), (a, b, got, want)
            t, due = got
            if t < b:
                cuts.add("target" if due else
                         "staleness" if new.staleness >= working.n else "band")
            calls, a = calls + 1, t
        k0 += end
    return cuts, calls, passes[0]


@pytest.mark.parametrize("reg", sorted(REGS))
@pytest.mark.parametrize("cut", sorted(CUTS))
@pytest.mark.parametrize("tau", [1, 3, 8])
@pytest.mark.parametrize("instance", ["ragged", "regular"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_the_sweep_matches_the_loop_over_iterations(app, instance, tau, cut, reg):
    cuts, _, _ = _both(app, instance, tau, REGS[reg], cut)
    assert cut in cuts


@pytest.mark.parametrize("tau", [1, 3, 8])
@pytest.mark.parametrize("instance", ["ragged", "regular"])
@pytest.mark.parametrize("app", sorted(APPS))
def test_the_runs_take_several_passes_and_share_rows(app, instance, tau):
    cuts, calls, passes = _both(app, instance, tau, REGS["none"], "staleness")
    assert passes > calls
    if tau > 1:
        loss = make_loss(prepare_problem(_instance(instance), app), app, APPS[app])
        spans = list(loss.columns(_block(loss.pd.n, tau, 8)))
        assert sum(len(span.pairs) for span in spans) > 0
    if tau == 8:  # a row three columns of an iteration hold: a chain of two pairs
        assert any(np.any(span.pairs[1:, 0] == span.pairs[:-1, 1]) for span in spans)


def _linf_state(mu):
    working = prepare_problem(_raw(), "linf")
    return init_state(make_loss(working, "linf", mu))


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(st.floats(-12, 12), st.booleans(), st.floats(-6, 3), st.floats(-6, 6),
       st.integers(-3, 3))
def test_no_lse_acc_above_the_bound_has_a_value_at_most_the_target(fmu_exp, negative, mu_exp,
                                                                   acc_exp, ulps):
    # fmu up to 1e12 in size, mu down to 1e-6, and the target the value
    # of some lse_acc in the band, moved by a few ulps either way
    fmu = (-1.0 if negative else 1.0) * 10.0 ** fmu_exp
    mu, acc0 = 10.0 ** mu_exp, 10.0 ** acc_exp
    state = _linf_state(mu)
    state.fmu = np.array(fmu)
    target = fmu + mu * math.log(acc0)
    for _ in range(abs(ulps)):
        target = math.nextafter(target, math.copysign(math.inf, ulps))
    bound = state.acc_bound(target)
    above = [math.nextafter(bound, math.inf), bound * (1 + 2.0**-40), bound * 1.5]
    for acc in above:
        if LSE_ACC_LO <= acc <= LSE_ACC_HI:
            state.lse_acc = acc
            assert state.value() > target, (fmu, mu, target, bound, acc)
    if abs(fmu) + abs(target) <= 1e3 * mu:
        assert bound < acc0 * (1 + 1e-9)  # and it is tight


def test_the_bound_of_an_infinite_target():
    state = _linf_state(0.1)
    assert state.acc_bound(math.inf) > LSE_ACC_HI
    assert state.acc_bound(-math.inf) == 0.0
