import numpy as np
import pytest

from helpers import col, dense, row_lens, row_slices, triplets
from spcdm.problem import (
    ProblemData,
    load_svmlight,
    row_sparsity,
    save_svmlight,
    stack_linf,
    synth_problem,
)


def test_load_basic(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("+1 1:2.0 3:1.0\n-1 2:5.0\n")
    pd = load_svmlight(path)
    assert (pd.m, pd.n, pd.nnz) == (2, 3, 3)
    assert np.array_equal(pd.b, [1.0, -1.0])
    assert row_sparsity(pd) == 2
    rows, vals = col(pd, 0)
    assert np.array_equal(rows, [0]) and np.array_equal(vals, [2.0])
    cols, vals = row_slices(pd)[1]
    assert np.array_equal(cols, [1]) and np.array_equal(vals, [5.0])


def test_load_drops_explicit_zero_but_counts_column(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1 2:0.0\n")
    pd = load_svmlight(path)
    assert (pd.m, pd.n, pd.nnz) == (1, 2, 0)
    assert row_sparsity(pd) == 0


@pytest.mark.parametrize(
    "text,match",
    [
        ("1 1:2.0\n-1 nonsense\n", "line 2"),
        ("1 3:1.0 2:1.0\n", "ascending"),
        ("1 0:1.0\n", "line 1"),
        ("abc 1:1.0\n", "label"),
        ("1 1:about\n", "bad token"),
        ("1 1:1.0\nnan 1:1.0\n", "line 2: non-finite label"),
        ("1 1:1.0\n1 99999999999999999999:1.0\n", "line 2: index 99999999999999999999 does not fit"),
        (b"1 1:1.0\n-1 2:\xe9\n", "line 2: not UTF-8"),
    ],
)
def test_load_malformed(tmp_path, text, match):
    path = tmp_path / "d.txt"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValueError, match=match):
        load_svmlight(path)


def test_load_empty_file(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("")
    with pytest.raises(ValueError, match="no rows"):
        load_svmlight(path)


def test_load_n_cols_override(tmp_path):
    path = tmp_path / "d.txt"
    path.write_text("1 1:1.0\n")
    assert load_svmlight(path, n_cols=10).n == 10
    with pytest.raises(ValueError, match="n_cols"):
        load_svmlight(path, n_cols=0)


def test_roundtrip_save_load(tmp_path):
    for seed in range(5):
        pd = synth_problem(m=7, n=11, omega_target=4, seed=seed)
        path = tmp_path / f"rt{seed}.txt"
        save_svmlight(pd, path)
        back = load_svmlight(path, n_cols=pd.n)
        assert pd.same_as(back)


def test_layouts_agree():
    # the columns and the derived rows must describe the same dense matrix
    pd = synth_problem(m=9, n=6, omega_target=3, seed=42)
    from_rows = np.zeros((pd.m, pd.n))
    for j, (cols, vals) in enumerate(row_slices(pd)):
        from_rows[j, cols] = vals
    from_cols = np.zeros((pd.m, pd.n))
    for i in range(pd.n):
        rows, vals = col(pd, i)
        from_cols[rows, i] = vals
    assert np.array_equal(from_rows, from_cols)
    assert np.array_equal(dense(pd), from_rows)


def test_from_coo_validation():
    b = np.zeros(2)
    with pytest.raises(ValueError, match="duplicate"):
        ProblemData.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0], b)
    # a pair is a duplicate whatever its values, as load_svmlight rejects it
    for vals in ([0.0, 2.0], [2.0, 0.0]):
        with pytest.raises(ValueError, match="duplicate entry at row 0, column 1"):
            ProblemData.from_coo(2, 2, [0, 0], [1, 1], vals, b)
    with pytest.raises(ValueError, match="finite"):
        ProblemData.from_coo(2, 2, [0], [1], [np.inf], b)
    with pytest.raises(ValueError, match="row index"):
        ProblemData.from_coo(2, 2, [2], [0], [1.0], b)
    with pytest.raises(ValueError, match="column index"):
        ProblemData.from_coo(2, 2, [0], [5], [1.0], b)
    # an index is checked whatever its value, as load_svmlight checks it
    with pytest.raises(ValueError, match="row index"):
        ProblemData.from_coo(2, 2, [0, 7], [0, -3], [1.0, 0.0], b)
    with pytest.raises(ValueError, match="column index"):
        ProblemData.from_coo(2, 2, [0, 1], [0, -3], [1.0, 0.0], b)
    with pytest.raises(ValueError, match="length"):
        ProblemData.from_coo(2, 2, [0], [0], [1.0], np.zeros(3))
    # float indices are taken only when integral, never truncated
    with pytest.raises(ValueError, match="rows must be integral, got 1.7"):
        ProblemData.from_coo(2, 2, [0.0, 1.7], [0, 1], [1.0, 2.0], b)
    with pytest.raises(ValueError, match="cols must be integral"):
        ProblemData.from_coo(2, 2, np.array([0, 1]), np.array([0.5, 1.0]), [1.0, 2.0], b)
    with pytest.raises(ValueError, match="rows must be integral"):
        ProblemData.from_coo(2, 2, [np.nan], [0], [1.0], b)
    floats = ProblemData.from_coo(2, 2, [0.0, 1.0], [1.0, 0.0], [1.0, 2.0], b)
    assert floats.same_as(ProblemData.from_coo(2, 2, [0, 1], [1, 0], [1.0, 2.0], b))
    # explicit zeros vanish silently
    pd = ProblemData.from_coo(2, 2, [0, 1], [0, 1], [0.0, 3.0], b)
    assert pd.nnz == 1


def test_synth_shape_and_values():
    pd = synth_problem(m=50, n=30, omega_target=5, seed=0)
    assert np.array_equal(row_lens(pd), np.full(50, 5))
    assert np.all(np.abs(pd.col_vals) >= 0.1) and np.all(np.abs(pd.col_vals) <= 1.0)
    assert set(np.unique(pd.b)) <= {-1.0, 1.0}
    assert row_sparsity(pd) == 5


def test_synth_deterministic():
    a = synth_problem(m=12, n=20, omega_target=3, seed=7)
    b = synth_problem(m=12, n=20, omega_target=3, seed=7)
    c = synth_problem(m=12, n=20, omega_target=3, seed=8)
    assert a.same_as(b)
    assert not a.same_as(c)


def test_synth_degenerate_and_bad_args():
    pd = synth_problem(m=1, n=1, omega_target=1, seed=0)
    assert (pd.m, pd.n, pd.nnz) == (1, 1, 1)
    with pytest.raises(ValueError):
        synth_problem(m=0, n=1, omega_target=1, seed=0)
    with pytest.raises(ValueError):
        synth_problem(m=1, n=3, omega_target=4, seed=0)


def test_omega_monotone_under_column_removal():
    # dropping any column can only shrink row supports
    pd = synth_problem(m=10, n=8, omega_target=4, seed=5)
    base = row_sparsity(pd)
    rows, cols, vals = triplets(pd)
    for drop in range(pd.n):
        keep = cols != drop
        sub = ProblemData.from_coo(pd.m, pd.n, rows[keep], cols[keep], vals[keep], pd.b)
        assert row_sparsity(sub) <= base


def test_stack_linf():
    pd = synth_problem(m=6, n=5, omega_target=2, seed=3)
    st = stack_linf(pd)
    assert (st.m, st.n, st.nnz) == (2 * pd.m, pd.n, 2 * pd.nnz)
    assert np.array_equal(st.b, np.concatenate([pd.b, -pd.b]))
    d = dense(pd)
    assert np.array_equal(dense(st), np.vstack([d, -d]))
    assert row_sparsity(st) == row_sparsity(pd)


def test_empty_columns_allowed():
    pd = ProblemData.from_coo(2, 4, [0, 1], [1, 1], [1.0, -2.0], np.ones(2))
    assert np.array_equal(pd.col_nnz(), [0, 2, 0, 0])
    rows, vals = col(pd, 3)
    assert rows.size == 0 and vals.size == 0
