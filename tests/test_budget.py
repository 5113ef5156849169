"""Every O(nnz) pass over A takes at most problem._BUDGET entries at a time.

The passes (load_svmlight's column layout, ProblemData.columns, the
residual, the l1 row norms, the primal weights and the column-local
factors) split along whole columns, rows or selections (problem._spans),
so the split must not change a single bit (a run's waves end at its
spans' ends, so they follow the budget, and its iterates must not): under a budget of 1 or 7
entries, where every pass splits, the results are compared bit for bit,
sign of zero included, with the default budget's.  The memory the split
saves is pinned in bytes traced by tracemalloc, never in seconds.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from helpers import assert_identical, assert_same_array
from spcdm import problem
from spcdm.eso import dual_weights, local_factors, primal_weights
from spcdm.problem import ProblemData, load_svmlight, save_svmlight
from spcdm.sampling import SamplingSpec, draw
from spcdm.smoothing import _residual, loss_constants, make_loss, prepare_problem
from spcdm.solver import Regularizer, SolverConfig, run

DEFAULT_BUDGET = problem._BUDGET
APPS = {"linf": (0.1, Regularizer.none()), "l1": (0.3, Regularizer.l1(0.05)),
        "adaboost": (1.0, Regularizer.none())}
TAUS = (1, 3, 8)


def _raw() -> ProblemData:
    """30 rows and 24 columns of differing lengths, none empty, every row
    nonempty (l1 weighs rows by their norms), and column 0 dense: at 30
    entries (60 in linf's [A; -A]) it is longer than the budget of 7."""
    rng = np.random.default_rng(5)
    m, n = 30, 24
    support = rng.random((m, n)) < rng.uniform(0.05, 0.4, n)
    support[:, 0] = True
    support[rng.integers(0, m, n), np.arange(n)] = True
    r, c = np.nonzero(support)
    vals = rng.choice([-1.0, 1.0], r.size) * rng.uniform(0.1, 1.0, r.size)
    return ProblemData.from_coo(m, n, r, c, vals, rng.choice([-1.0, 1.0], m))


def _selections(span):
    """The span's selections one at a time: rows, vals, column lengths,
    shared-row pairs and where each column's entries start (positions in
    the selection), and row_data."""
    tau = span.ids.shape[1]
    for t in range(len(span.ptr) - 1):
        at = slice(span.ptr[t], span.ptr[t + 1])
        yield (span.rows[at], span.vals[at], span.lens[t * tau:(t + 1) * tau],
               (span.pairs[span.pair_ptr[t]:span.pair_ptr[t + 1]] - span.ptr[t]).T,
               (span.eptr[t * tau:(t + 1) * tau] - span.ptr[t]).tolist(),
               None if span.row_data is None else span.row_data[at])


def _outcome(app: str, tau: int) -> dict:
    """Everything the budget could touch: the gathered selections of one
    epoch's block, the run's trace, updates and final x, w, the local
    factors, the row norms and the residual at an x holding 0.0 and -0.0."""
    mu, reg = APPS[app]
    working = prepare_problem(_raw(), app)
    loss = make_loss(working, app, mu)
    n = working.n
    ids = draw(SamplingSpec(n=n, tau=tau, seed=4), 0, -(-n // tau))
    # per selection: the spans, and with them the waves, follow the budget
    batches = [sel for span in loss.columns(ids) for sel in _selections(span)]
    report = run(working, loss, reg, SolverConfig(tau=tau, seed=4, max_epochs=3))
    x = report.final_x.copy()
    x[::3], x[1::5] = 0.0, -0.0
    return {
        "batches": batches,
        "trace": report.objective_trace,
        "updates": report.coordinate_updates,
        "final_x": report.final_x,
        "w": primal_weights(working, dual_weights(working, app)).w,
        "factors": local_factors(working, tau, n),
        "row_sq_norms": working.row_sq_norms,
        "residual": _residual(working, x),
    }


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The outcomes under the default budget, computed before any test
    shrinks it, and _raw() written as svmlight and loaded back."""
    assert problem._BUDGET == DEFAULT_BUDGET
    path = tmp_path_factory.mktemp("budget") / "a.svm"
    save_svmlight(_raw(), path)
    out = {(app, tau): _outcome(app, tau) for app in APPS for tau in TAUS}
    out["raw"], out["svmlight"] = _raw(), (path, load_svmlight(path))
    return out


@pytest.fixture(params=[1, 7], ids=["budget1", "budget7"])
def budget(request, monkeypatch):
    """A budget of 1 entry puts every column, row and selection in a span
    of its own; 7 packs the short ones and leaves the long column alone."""
    monkeypatch.setattr(problem, "_BUDGET", request.param)
    return request.param


def test_spans_are_whole_segments_under_the_budget(budget):
    ptr = np.array([0, 3, 5, 5, 40, 41, 47, 47])
    spans = list(problem._spans(ptr))
    assert [a for a, _ in spans] == [0] + [b for _, b in spans[:-1]]
    assert spans[-1][1] == ptr.size - 1
    for a, b in spans:
        assert b > a and (ptr[b] - ptr[a] <= budget or b == a + 1)
    assert list(problem._spans(np.zeros(1, dtype=np.int64))) == []


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("app", APPS)
def test_every_pass_gives_the_same_bits_under_a_tiny_budget(reference, budget, app, tau):
    want = reference[app, tau]
    got = _outcome(app, tau)
    working = prepare_problem(_raw(), app)
    assert len(list(problem._spans(working.col_ptr))) > 1  # the passes over A split
    assert got["trace"] == want["trace"]
    assert got["updates"] == want["updates"]
    for name in ("final_x", "w", "factors", "row_sq_norms", "residual"):
        assert_same_array(got[name], want[name], name)
    assert len(got["batches"]) == len(want["batches"])
    for g, w in zip(got["batches"], want["batches"]):
        for a, b in zip(g[:4], w[:4]):
            assert_same_array(a, b)
        assert g[4] == w[4]
        assert (g[5] is None) == (w[5] is None)
        if w[5] is not None:
            assert_same_array(g[5], w[5])


def test_the_instance_has_ragged_selections_and_shared_rows(reference):
    # what the gather's split must keep: selections whose columns differ
    # in length and rows that several columns of a selection hold
    batches = reference["adaboost", 8]["batches"]
    assert any(np.unique(lens).size > 1 for _, _, lens, *_ in batches)
    assert any(shared.size for _, _, _, shared, *_ in batches)


def test_ingest_gives_the_same_layout_under_a_tiny_budget(reference, budget):
    path, want = reference["svmlight"]
    assert_identical(load_svmlight(path), want)
    assert_identical(_raw(), reference["raw"])


def _svmlight_file(path, m: int, k: int, n: int) -> None:
    """m rows of k distinct ascending features each, out of n."""
    rng = np.random.default_rng(0)
    cols = np.sort(rng.random((m, n)).argsort(axis=1)[:, :k], axis=1) + 1
    vals = rng.integers(1, 1000, (m, k)) / 1000 * rng.choice([-1, 1], (m, k))
    labels = rng.choice([-1, 1], m)
    path.write_text("".join(
        f"{labels[j]} " + " ".join(f"{c}:{v}" for c, v in zip(cols[j].tolist(), vals[j].tolist()))
        + "\n" for j in range(m)))


@pytest.mark.parametrize("k", [20, 40], ids=["100k-entries", "200k-entries"])
def test_traced_memory_is_the_matrix_plus_one_budget(tmp_path, monkeypatch, k):
    # With a block of 16 KiB and a budget of 4096 entries, both small
    # beside A: loading holds at most 32 bytes an entry (the stored 16,
    # the 8 of one array of the entries, and slack for b and the last
    # block), and a run holds, above the matrix, at most 8 doubles a row
    # and a column of state plus 96 bytes per budget entry, the same at
    # 100k and 200k entries.
    m, n = 5000, 2000
    path = tmp_path / "a.svm"
    _svmlight_file(path, m, k, n)
    monkeypatch.setattr(problem, "_CHUNK_BYTES", 1 << 14)
    monkeypatch.setattr(problem, "_BUDGET", 1 << 12)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        pd = load_svmlight(path)
        load_peak = tracemalloc.get_traced_memory()[1] - before
        working = prepare_problem(pd, "adaboost")
        loss = make_loss(working, "adaboost", 1.0)
        del pd
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run(working, loss, Regularizer.none(), SolverConfig(tau=8, seed=0, max_epochs=2))
        run_peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert working.nnz == m * k
    assert load_peak <= 32 * working.nnz, load_peak / working.nnz
    assert run_peak <= 8 * 8 * (m + n) + 96 * problem._BUDGET, run_peak


@pytest.mark.parametrize("k", [2, 20])
def test_a_gather_holds_16_bytes_an_entry(k):
    # ProblemData._entries puts the positions of the gathered entries in
    # one array, gathers the values through it and then the rows into it:
    # at the peak it holds the 16 bytes an entry it returns (a second
    # array of positions made it 24) and at most 20 bytes a column,
    # through a sum per offset where every column is k long, and a
    # running sum where the lengths differ (1 to k, the ragged layout).
    m, n = 8000, 40000 // k
    cols = np.arange(n).repeat(k)
    rows = (cols + np.tile(np.arange(k) * (m // k), n)) % m
    for keep in (np.ones(cols.size, dtype=bool), np.tile(np.arange(k), n) <= cols % k):
        pd = ProblemData.from_coo(m, n, rows[keep], cols[keep], np.ones(keep.sum()), np.zeros(m))
        ids = np.random.default_rng(0).integers(0, n, 20000)
        lens = pd.col_nnz()[ids]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            got = pd._entries(ids, lens)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        pos = np.concatenate([np.arange(pd.col_ptr[i], pd.col_ptr[i + 1]) for i in ids.tolist()])
        assert_same_array(got[0], pd.col_rows[pos])
        assert_same_array(got[1], pd.col_vals[pos])
        assert peak <= 16 * pos.size + 20 * ids.size, (peak - 16 * pos.size) / ids.size


def _rows_of_k(m: int, n: int, k: int) -> ProblemData:
    """m rows of k entries each, one in each of k equal bands of the n
    columns (so ascending and distinct), and random signs for b."""
    rng = np.random.default_rng(0)
    cols = np.arange(k) * (n // k) + rng.integers(0, n // k, (m, k))
    vals = rng.choice([-1.0, 1.0], (m, k)) * rng.uniform(0.1, 1.0, (m, k))
    return ProblemData.from_coo(m, n, np.arange(m).repeat(k), cols.ravel(), vals.ravel(),
                                rng.choice([-1.0, 1.0], m))


def _run_peak(working, loss, cfg):
    """The report of run and the bytes it traced above what was live."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = run(working, loss, Regularizer.none(), cfg)
        return report, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_a_mid_epoch_stop_stacks_no_evaluation_on_the_gather(monkeypatch):
    # A stop in mid-epoch is confirmed by a fresh evaluation, whose
    # residual pass holds about 33 bytes per budget entry.  Made once the
    # epoch's gather span is released, it stacks on nothing: the run
    # peaks where the same run with no target does, give or take 2 bytes
    # per budget entry of Python objects.
    monkeypatch.setattr(problem, "_BUDGET", 1 << 12)
    working = prepare_problem(_rows_of_k(5000, 2000, 20), "linf")
    loss = make_loss(working, "linf", 0.1)
    cfg = SolverConfig(tau=8, seed=0, max_epochs=3)
    run(working, loss, Regularizer.none(), cfg)  # fills the caches every run reads
    free, free_peak = _run_peak(working, loss, cfg)
    (_, v1), (_, v2) = free.objective_trace[1:3]
    stopped, peak = _run_peak(working, loss, dataclasses.replace(cfg, target_value=(v1 + v2) / 2))
    assert stopped.target_reached and stopped.epochs_run == 2
    assert free.coordinate_updates / 3 < stopped.coordinate_updates < free.coordinate_updates * 2 / 3
    assert peak <= free_peak + 2 * problem._BUDGET, (peak - free_peak) / problem._BUDGET


@pytest.mark.parametrize("m", [20_000, 40_000], ids=["100k-entries", "200k-entries"])
def test_l1_setup_holds_a_few_doubles_a_row_past_the_matrix(monkeypatch, m):
    # Past the matrix, the l1 loss's setup (v, its thresholds and D, and
    # the weights that read v) holds a few doubles a row and one budget's
    # squares: at most 8 bytes an entry with 5 entries a row (5 doubles a
    # row), the same at 100k and 200k entries.  A row layout, the entries
    # sorted by row with their columns and values, takes about 41 here.
    pd = _rows_of_k(m, 4000, 5)
    monkeypatch.setattr(problem, "_BUDGET", 1 << 12)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        working = prepare_problem(pd, "l1")
        make_loss(working, "l1", 0.1)
        loss_constants("l1", working)
        dual_weights(working, "l1")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert pd.nnz == m * 5
    assert peak <= 8 * pd.nnz, peak / pd.nnz
