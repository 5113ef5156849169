"""Property tests: block draws and the vectorised prox over generated inputs.

Every test runs a fixed, derandomized set of examples and keeps no
example database, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spcdm.sampling import SamplingSpec, draw
from spcdm.solver import Regularizer, prox_steps

FIXED = settings(derandomize=True, database=None, deadline=None)


@st.composite
def block_draws(draw_from):
    # n past 2**31 makes Lemire rejections likely; past 2**32 every round
    # takes the per-round path
    n = draw_from(st.one_of(st.integers(1, 300), st.integers(2**31, 2**32 + 8)))
    tau = draw_from(st.integers(1, min(n, 24)))
    seed = draw_from(st.integers(0, 2**128 - 1))
    count = draw_from(st.integers(0, 12))
    first = draw_from(st.one_of(st.integers(0, 2**20), st.integers(2**64 - 12, 2**64 + 12),
                                st.integers(0, 2**128 - count)))
    return SamplingSpec(n=n, tau=tau, seed=seed), first, count


@FIXED
@given(block_draws())
def test_block_draw_rows_are_sorted_distinct_in_range_and_replayable(case):
    spec, first, count = case
    block = draw(spec, first, count)
    assert block.shape == (count, spec.tau) and block.dtype == np.int64
    assert np.all(np.diff(block, axis=1) > 0)
    assert np.all((block >= 0) & (block < spec.n))
    for t in range(count):
        assert np.array_equal(block[t], draw(spec, first + t))


finite = st.floats(-1e3, 1e3, allow_nan=False)
positive = st.floats(1e-3, 1e3)
REGULARIZERS = st.one_of(
    st.just(Regularizer.none()),
    st.builds(Regularizer.l1, st.floats(0.0, 1e3)),
    st.tuples(finite, finite).map(lambda b: Regularizer.box(min(b), max(b))),
    st.builds(Regularizer.ridge, st.floats(0.0, 1e3)),
)


@FIXED
@given(st.lists(st.tuples(finite, finite, positive), min_size=1, max_size=8),
       positive, REGULARIZERS)
def test_prox_steps_meet_the_optimality_conditions(coords, beta, reg):
    # h minimises g*h + (beta*w/2)*h^2 + Psi_i(x + h): zero is in the
    # subdifferential, to rounding relative to the terms' size
    g, x, w = (np.array(c) for c in zip(*coords))
    h = prox_steps(g, x, beta, w, reg)
    u = x + h
    slope = g + beta * w * h  # derivative of the smooth part
    tol = 1e-9 * (np.abs(g) + beta * w * (np.abs(h) + np.abs(x)) + 1.0)
    if reg.kind == "none":
        assert np.all(np.abs(slope) <= tol)
    elif reg.kind == "l1":
        tol += 1e-9 * reg.lam
        moved = u != 0.0
        assert np.all(np.abs(slope + reg.lam * np.sign(u))[moved] <= tol[moved])
        assert np.all(np.abs(slope)[~moved] <= reg.lam + tol[~moved])
    elif reg.kind == "box":
        # h is the clipped point minus x, so x + h meets a bound only to rounding
        near = 1e-12 * (np.abs(x) + np.abs(u))
        at_lo, at_hi = u <= reg.lo + near, u >= reg.hi - near
        assert np.all((reg.lo - near <= u) & (u <= reg.hi + near))
        inside = ~at_lo & ~at_hi
        assert np.all(np.abs(slope)[inside] <= tol[inside])
        assert np.all(slope[at_lo & ~at_hi] >= -tol[at_lo & ~at_hi])
        assert np.all(slope[at_hi & ~at_lo] <= tol[at_hi & ~at_lo])
    else:
        tol += 1e-9 * reg.delta * w * np.abs(u)
        assert np.all(np.abs(slope + reg.delta * w * u) <= tol)
