"""Property tests: block draws, the vectorised prox and the svmlight round
trip (against the token-at-a-time reference loader) over generated inputs.

Every test runs a fixed, derandomized set of examples and keeps no
example database, so the suite stays deterministic.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import assert_identical, load_svmlight_reference
from spcdm.problem import ProblemData, load_svmlight, save_svmlight
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
    h = prox_steps(g, x, -(beta + reg.sigma_psi) * w, w, reg)
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


@st.composite
def sparse_problems(draw_from):
    # rows may be empty and trailing columns unused; values include
    # subnormals, labels -0.0
    m = draw_from(st.integers(1, 6))
    n = draw_from(st.integers(1, 7))
    cells = draw_from(st.sets(st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))))
    value = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                      st.sampled_from([5e-324, -2.5e-310, 2.2250738585072014e-308]))
    vals = [draw_from(value) for _ in cells]
    label = st.one_of(st.just(-0.0), st.floats(allow_nan=False, allow_infinity=False))
    b = [draw_from(label) for _ in range(m)]
    rows, cols = zip(*sorted(cells)) if cells else ((), ())
    return ProblemData.from_coo(m, n, rows, cols, vals, b)


@FIXED
@given(sparse_problems())
# empty rows 1 and 2, empty columns 2 to 4, a subnormal value, a -0.0 label
@example(pd=ProblemData.from_coo(3, 5, [0, 0], [0, 1], [5e-324, -1.5], [-0.0, 1.0, 0.0]))
def test_svmlight_round_trip_is_exact(tmp_path_factory, pd):
    path = tmp_path_factory.mktemp("svm") / "d.txt"
    save_svmlight(pd, path)
    back = load_svmlight(path, n_cols=pd.n)
    assert back.same_as(pd)
    assert np.array_equal(np.signbit(back.b), np.signbit(pd.b))  # same_as takes -0.0 == 0.0
    assert np.array_equal(back.col_ptr, pd.col_ptr)
    assert_identical(back, load_svmlight_reference(path, n_cols=pd.n))


def _spelled(sign: str, whole: str, dot: str, frac: str) -> str:
    """A decimal with at least one digit."""
    return f"{sign}{whole}{dot}{frac}" if whole or frac else f"{sign}0{dot}"


_DIGITS = st.text("0123456789", max_size=18)
_NUMBERS = st.builds(_spelled, st.sampled_from(["", "+", "-"]), _DIGITS,
                     st.sampled_from(["", "."]), _DIGITS)
_LINES = st.tuples(_NUMBERS, st.lists(st.tuples(st.integers(0, 10), _NUMBERS), max_size=6))


@FIXED
@given(st.lists(_LINES, min_size=1, max_size=6))
def test_number_spellings_load_as_the_reference_reads_them(tmp_path_factory, lines):
    # signs, integer and fraction digits on both sides of the fast path's
    # limits (8 and 8 digits, 15 in all), indices with leading zeros
    text = "".join(
        " ".join([label] + [f"{'0' * zeros}{i}:{v}" for i, (zeros, v) in enumerate(feats, 1)])
        + "\n" for label, feats in lines)
    path = tmp_path_factory.mktemp("svm") / "d.txt"
    path.write_text(text)
    assert_identical(load_svmlight(path), load_svmlight_reference(path))
