"""The array-at-once setup paths against their loop references.

load_svmlight parses blocks of lines into arrays; the reference parses
one token at a time (helpers.load_svmlight_reference).  from_coo sorts
one row-major key, and helpers.row_layout derives the row layout from
one sort of the column layout's rows (save_svmlight's); the reference
sorts both with np.lexsort.
Adaboost's prepare_problem scales the columns in place of a re-sort, and
linf's stacks [A; -A] column by column; the references rebuild the
matrix from its triplets.
"""

import numpy as np
import pytest

from helpers import (
    assert_identical, assert_same_array, load_svmlight_reference, row_layout, row_lens, triplets,
)
from spcdm import problem
from spcdm.problem import ProblemData, load_svmlight, stack_linf
from spcdm.smoothing import prepare_problem

VALID = {
    "crlf": b"+1 1:2.0 3:1.0\r\n-1 2:5.0\r\n1 4:1e-3\r\n",
    "lone cr": b"+1 1:2.0 3:1.0\r-1 2:5.0\r\r1 4:1e-3\r",
    "mixed endings": b"1 1:1\n\r\n-1 2:2\r3 3:3\r\n\n4 4:4",
    "tabs and blanks": b"\n  \n1\t1:2.5  \t3:-1\n\t\n   \n-1 2:1\x0b4:2\x0c\n \t \n",
    "zeros, signs, exponents": (
        b"+1 1:0.0 2:-0 3:1.5e+2\n-0.0 1:-2.5E-3 4:0e5\n+1.0e0 2:1e-320 3:+7\n"
    ),
    "empty rows": b"1\n-1 3:1.0\n2\n",
    "underscores, leading zeros": b"1_0 01:1_5.0 002:3\n",
    "no final newline": b"1 1:1.0\n-1 2:2.0",
    "crlf then lone cr at the end": b"1 1:1.0\r\n-1 2:2.0\r",
    # the edges of the fast path (load_svmlight): at most 8 digits to an
    # index, at most 8 integer and 8 fraction digits and 15 in all to a value
    "indices of 8 and 9 digits": b"1 00000001:1 000000002:2 00000000000003:3\n",
    "mantissas of 15 and 16 digits": (
        b"1 1:1234567.89012345 2:12345678.9012345 3:12345678.90123456 4:-9999999.99999999\n"
        b"-1 1:123456789012345 2:1234567890123456 3:99999999.99999999\n"
    ),
    "fractions of 8 and 9 digits": b"1 1:0.12345678 2:0.123456789 3:-.99999999 4:.999999999\n",
    "no digit on one side of the dot, signed zeros": (
        b".5 1:.5 2:5. 3:+1 4:-0 5:-.0 6:+0.0\n+1 1:-0. 2:+.25\n-0 1:-5.\n-.0\n+0.0 1:0\n"
    ),
    "leading zeros past 8 digits": b"0000000001 1:000000000.5 2:0000000000000000000001.25\n",
    "17 significant digits and past 2**53": (
        b"0.10000000000000001 1:0.10000000000000001 2:9007199254740993 3:-9007199254740993.5\n"
    ),
}

MALFORMED = {
    "no colon": b"1 1:2.0\n-1 nonsense\n",
    "not ascending": b"1 3:1.0 2:1.0\n",
    "repeated index": b"1 2:1.0 2:1.0\n",
    "index 0": b"1 0:1.0\n",
    "negative index": b"1 -3:1.0\n",
    "bad label": b"abc 1:1.0\n",
    "label with colon": b"1 1:1\n1:2 3:4\n",
    "bad value": b"1 1:about\n",
    "empty index": b"1 :1.0\n",
    "empty value": b"1 1:\n",
    "two colons": b"1 1:2:3\n",
    "colon only": b"1 :\n",
    "float index": b"1 1.0:1.0\n",
    "nan label": b"1 1:1.0\nnan 1:1.0\n",
    "inf value": b"1 1:1.0\n\n2 1:1e999\n",
    "nan value": b"-1 2:nan\n",
    "NUL in a value": b"1 1:1.0\x00\n",
    "first error wins": b"1 1:1\r\n2 2:1 1:1\r\nx 1:1\r\n",
    "label error before token error": b"1 1:1\r5x 1:y\n",
    "no rows": b"\n \r\n\t\n",
    "a lone dot": b"1 1:.\n",
    "a lone sign": b"1 1:-\n",
    "a sign and a dot": b"+. 1:1\n",
    "two dots": b"1 1:1.2.3\n",
    "two signs": b"1 1:+-1\n",
    "a sign inside the digits": b"1 1:1-2\n",
    "a dot in an index": b"1 1:1 2.5:1\n",
}


def _write(tmp_path, data: bytes):
    path = tmp_path / "d.svm"
    path.write_bytes(data)
    return path


def _message(fn, path, **kwargs) -> str:
    with pytest.raises(ValueError) as info:
        fn(path, **kwargs)
    return str(info.value)


@pytest.fixture(params=[1, 3, 16, None], ids=["chunk1", "chunk3", "chunk16", "chunk-default"])
def chunk(request, monkeypatch):
    """Blocks of 1, 3 or 16 bytes put block ends everywhere in a small file."""
    if request.param is not None:
        monkeypatch.setattr(problem, "_CHUNK_BYTES", request.param)
    return request.param


@pytest.mark.parametrize("name", VALID)
def test_load_matches_reference(tmp_path, chunk, name):
    path = _write(tmp_path, VALID[name])
    want = load_svmlight_reference(path)
    assert_identical(load_svmlight(path), want)
    assert_identical(load_svmlight(path, n_cols=want.n + 3), load_svmlight_reference(path, n_cols=want.n + 3))


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_gives_the_reference_message(tmp_path, chunk, name):
    path = _write(tmp_path, MALFORMED[name])
    assert _message(load_svmlight, path) == _message(load_svmlight_reference, path)


def test_n_cols_below_the_largest_index(tmp_path, chunk):
    path = _write(tmp_path, b"1 1:1.0\n2 7:0.0\n")
    assert _message(load_svmlight, path, n_cols=6) == _message(load_svmlight_reference, path, n_cols=6)
    assert load_svmlight(path, n_cols=7).n == 7


def _random_text(rng, rows: int) -> bytes:
    """svmlight lines with mixed endings, separators, zeros and signs."""
    ends = [b"\n", b"\r\n", b"\r"]
    seps = [b" ", b"\t", b"  "]
    lines = []
    for _ in range(rows):
        k = int(rng.integers(0, 12))
        idx = np.sort(rng.choice(5000, size=k, replace=False)) + 1
        vals = rng.standard_normal(k) * 10.0 ** rng.integers(-5, 6, size=k)
        vals[rng.random(k) < 0.1] = 0.0
        toks = [repr(float(rng.choice([-1.0, 1.0, -0.0, 0.5])))]
        toks += [f"{i}:{v!r}" for i, v in zip(idx.tolist(), vals.tolist())]
        sep = seps[int(rng.integers(3))]
        lines.append(sep.join(t.encode() for t in toks) + ends[int(rng.integers(3))])
        if rng.random() < 0.05:
            lines.append(b" \t" + ends[int(rng.integers(3))])
    return b"".join(lines)


def test_load_matches_reference_over_several_chunks(tmp_path):
    data = _random_text(np.random.default_rng(8), 12000)
    assert len(data) > 4 * problem._CHUNK_BYTES
    path = _write(tmp_path, data)
    assert_identical(load_svmlight(path), load_svmlight_reference(path))


def _filled(size: int, end: bytes) -> bytes:
    """Valid lines ending with end, exactly size bytes in all."""
    body = b"1 1:1.0" + end
    text = body * (size // len(body))
    pad = size - len(text)
    if pad:  # widen the first value so the lines fill size exactly
        text = b"1 1:1." + b"0" * (pad + 1) + end + text[len(body):]
    assert len(text) == size
    return text


@pytest.mark.parametrize("offset", [0, 1, 2])
@pytest.mark.parametrize("end", [b"\n", b"\r", b"\r\n"], ids=["lf", "cr", "crlf"])
@pytest.mark.parametrize("bad", [b"1 2:1.0 1:1.0", b"\xff 1:1", b"1 1:1\xc3"],
                         ids=["ascending", "utf8-label", "utf8-value"])
def test_bad_line_just_past_a_block_end(tmp_path, end, bad, offset):
    # the first read ends right after the good lines, inside the last one,
    # or between the CR and the LF of a CRLF: the bad line keeps its number
    good = _filled(problem._CHUNK_BYTES + offset, end)
    path = _write(tmp_path, good + bad + end)
    msg = _message(load_svmlight, path)
    assert msg.startswith(f"line {len(good.splitlines()) + 1}: ")
    if bad.isascii():  # the reference raises a bare UnicodeDecodeError
        assert msg == _message(load_svmlight_reference, path)


def test_large_indices_read_as_int_does():
    # an index of up to 8 digits is one word's value, a longer one int()'s;
    # the columns of indices this large are too many to load, so the
    # block's parse is checked alone
    toks = ["1", "12345678", "23456789", "98765432", "99999999", "100000000",
            "123456789012", "+123456790000", "9223372036854775807"]
    line = "1 " + " ".join(f"{t}:1" for t in toks) + "\n"
    b, row_lens, idx, val, lines = problem._parse_block(line.encode())
    assert idx.tolist() == [int(t) for t in toks]
    assert row_lens.tolist() == [len(toks)] and lines == 1


@pytest.mark.parametrize("name", VALID)
def test_a_block_counts_its_lines_as_splitlines_does(name):
    # from the separators: a CRLF is one line end, and a last line with
    # none still counts
    block = VALID[name]
    assert problem._parse_block(block)[4] == len(block.splitlines())


def _no_bytes(convert):
    """convert, but raising where it is handed a token's bytes."""
    def stub(x, *args):
        if isinstance(x, bytes):
            raise AssertionError(f"{convert.__name__}({x!r}) left the fast path")
        return convert(x, *args)
    return stub


def test_workload_numbers_take_the_fast_path(tmp_path, monkeypatch):
    # +-1 labels, indices of at most 5 digits, and values on a 1e-6 grid
    # written by repr, as the adaboost workload's text: no token reaches
    # float() or int()
    rng = np.random.default_rng(0)
    lines = []
    for label in rng.choice([-1, 1], 1500).tolist():
        idx = np.sort(rng.choice(99999, size=20, replace=False)) + 1
        vals = rng.integers(100_000, 1_000_001, size=20) / 1e6 * rng.choice([-1, 1], size=20)
        toks = [f"{i}:{v!r}" for i, v in zip(idx.tolist(), vals.tolist())]
        lines.append(" ".join([str(label)] + toks))
    path = _write(tmp_path, "\n".join(lines).encode() + b"\n")
    assert path.stat().st_size > problem._CHUNK_BYTES
    want = load_svmlight_reference(path)
    monkeypatch.setattr(problem, "float", _no_bytes(float), raising=False)
    monkeypatch.setattr(problem, "int", _no_bytes(int), raising=False)
    assert_identical(load_svmlight(path), want)


@pytest.mark.parametrize("text,match", [
    (b"1 99999999999999999999:1.0\n", "line 1: index 99999999999999999999 does not fit in int64"),
    (b"1 1:1.0\n1 9223372036854775808:1.0\n", "line 2: index 9223372036854775808 does not fit"),
    (b"1 1:1.0\n-1 2:\xff\n", "line 2: not UTF-8"),
    (b"\xfe\xff1 1:1.0\n", "line 1: not UTF-8"),
])
def test_overflow_and_non_utf8_name_the_line(tmp_path, chunk, text, match):
    with pytest.raises(ValueError, match=match):
        load_svmlight(_write(tmp_path, text))


@pytest.mark.parametrize("text,message", [
    ("\uff11 1:1.0\n", "line 1: bad label '\uff11'"),  # full-width digit one
    ("1 1:\uff12.5\n", "line 1: bad token '1:\uff12.5'"),
    ("1\u00a01:1.0\n", "line 1: bad label '1\\xa01:1.0'"),  # no-break space
    ("1 1:1.0\x1c2:1.0\n", "line 1: bad token '1:1.0\\x1c2:1.0'"),  # ASCII file separator
])
def test_only_ascii_digits_and_whitespace(tmp_path, text, message):
    # str.split and str-to-number took these; the bytes parse does not
    path = _write(tmp_path, text.encode())
    load_svmlight_reference(path)
    assert _message(load_svmlight, path) == message


# from_coo: one stable sort of the row-major key; the derived row layout

def _lexsort_layouts(m, n, rows, cols, vals, b):
    """The column layout as a ProblemData, the reference for from_coo, and
    the row layout (ptr, cols, vals), the reference for row_layout,
    both by np.lexsort."""
    rows, cols, vals = (np.asarray(a) for a in (rows, cols, vals))
    keep = vals != 0.0
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    r = np.lexsort((cols, rows))
    c = np.lexsort((rows, cols))
    by_cols = ProblemData(
        m, n, np.searchsorted(cols[c], np.arange(n + 1)), rows[c], vals[c],
        np.asarray(b, dtype=np.float64),
    )
    return by_cols, (np.searchsorted(rows[r], np.arange(m + 1)), cols[r], vals[r])


def _assert_same_arrays(got, want):
    for g, w in zip(got, want, strict=True):
        assert_same_array(g, w)


def _triplets(seed, m=40, n=30, nnz=500):
    """Row-major triplets on the first and last 12 columns (all of them
    when n <= 24), about 20 to a column, some values zero."""
    rng = np.random.default_rng(seed)
    pool = np.unique(np.r_[0:min(12, n), max(n - 12, 0):n])
    cells = rng.choice(m * pool.size, size=nnz, replace=False)
    rows, slot = np.divmod(np.sort(cells), pool.size)
    vals = rng.standard_normal(nnz)
    vals[::17] = 0.0
    return rows, pool[slot], vals, rng.standard_normal(m)


@pytest.mark.parametrize("seed", range(3))
# uint16 radix sorts up to 2**16 columns (from_coo) and rows (row_layout)
@pytest.mark.parametrize("m, n", [(40, 30), (40, 2**16), (40, 2**16 + 1), (2**16, 30), (2**16 + 1, 30)])
@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
def test_from_coo_layouts_do_not_depend_on_triplet_order(seed, m, n, order):
    rows, cols, vals, b = _triplets(seed, m, n)
    perm = {
        "sorted": np.arange(rows.size),
        "reversed": np.arange(rows.size)[::-1],
        "shuffled": np.random.default_rng(seed + 100).permutation(rows.size),
    }[order]
    got = ProblemData.from_coo(m, n, rows[perm], cols[perm], vals[perm], b)
    by_cols, by_rows = _lexsort_layouts(m, n, rows, cols, vals, b)
    assert_identical(got, by_cols)
    _assert_same_arrays(row_layout(got), by_rows)
    ptr, want_cols, want_vals = by_rows
    _assert_same_arrays(triplets(got), (np.arange(m).repeat(np.diff(ptr)), want_cols, want_vals))


def test_from_coo_names_the_first_duplicate_in_row_major_order():
    rows = [3, 5, 1, 0, 3, 1, 0]
    cols = [2, 0, 4, 9, 2, 4, 1]
    with pytest.raises(ValueError, match=r"^duplicate entry at row 1, column 4$"):
        ProblemData.from_coo(6, 10, rows, cols, np.ones(7), np.zeros(6))
    # a duplicate whose copy is zero is still a duplicate: zeros go after the scan
    with pytest.raises(ValueError, match=r"^duplicate entry at row 1, column 0$"):
        ProblemData.from_coo(2, 2, [1, 1, 0], [0, 0, 1], [0.0, 2.0, 3.0], np.zeros(2))
    pd = ProblemData.from_coo(2, 2, [1, 0, 0], [0, 0, 1], [2.0, 0.0, 3.0], np.zeros(2))
    assert np.array_equal(triplets(pd)[2], [3.0, 2.0])


def test_row_major_order_falls_back_to_lexsort_past_int64():
    rows, cols, _, _ = _triplets(5)
    perm = np.random.default_rng(0).permutation(rows.size)
    rows, cols = rows[perm], cols[perm]
    big = 2**36  # m*n = 2**72 does not fit in int64
    want = np.lexsort((cols, rows))
    assert np.array_equal(problem._row_major_order(big, big, rows * 2**28, cols), want)
    assert np.array_equal(problem._row_major_order(40, 30, rows, cols), want)


# prepare_problem("adaboost"): the columns scaled by the labels

def _rebuilt(pd: ProblemData) -> ProblemData:
    """The labels scaled into A through triplets and from_coo."""
    rows, cols, vals = triplets(pd)
    return ProblemData.from_coo(pd.m, pd.n, rows, cols, vals * pd.b[rows], np.zeros(pd.m))


@pytest.mark.parametrize("seed", range(3))
def test_adaboost_scaling_matches_a_rebuild(seed):
    rows, cols, vals, _ = _triplets(seed)
    b = np.where(np.random.default_rng(seed).random(40) < 0.5, -1.0, 2.0)
    b[7] = 0.0  # row 7 comes out empty
    b[11] = -0.0
    vals[(rows == 3) & (cols % 2 == 0)] = 5e-324
    b[3] = 0.5  # 5e-324 * 0.5 underflows to 0
    pd = ProblemData.from_coo(40, 30, rows, cols, vals, b)
    got = prepare_problem(pd, "adaboost")
    want = _rebuilt(pd)
    assert_identical(got, want)
    assert row_lens(got)[7] == 0 and row_lens(got)[11] == 0
    assert row_lens(got)[3] < row_lens(pd)[3]
    assert got.nnz < pd.nnz


def test_adaboost_scaling_without_zeros_and_overflow():
    pd = ProblemData.from_coo(2, 3, [0, 0, 1], [0, 2, 1], [1.5, -2.0, 3.0], [1.0, -1.0])
    assert_identical(prepare_problem(pd, "adaboost"), _rebuilt(pd))
    huge = ProblemData.from_coo(1, 1, [0], [0], [1e300], [1e10])
    with np.errstate(over="ignore"):
        for build in (_rebuilt, lambda pd: prepare_problem(pd, "adaboost")):
            with pytest.raises(ValueError, match="matrix values must be finite"):
                build(huge)


def test_scale_rows_needs_a_factor_and_a_label_per_row():
    pd = ProblemData.from_coo(3, 2, [0, 1, 2], [0, 1, 0], [1.0, 2.0, 3.0], np.zeros(3))
    for s, b, name, size in ((np.ones(3), np.zeros(5), "b", 5),
                             (np.ones(2), np.zeros(3), "s", 2),
                             (np.ones(4), np.zeros(3), "s", 4)):
        with pytest.raises(ValueError, match=rf"^{name} has length {size}, expected 3$"):
            pd.scale_rows(s, b)


# prepare_problem("linf"): [A; -A] built column by column

def _stacked(pd: ProblemData) -> ProblemData:
    """[A; -A] and (b; -b) through triplets and from_coo."""
    rows, cols, vals = triplets(pd)
    return ProblemData.from_coo(
        2 * pd.m, pd.n, np.r_[rows, rows + pd.m], np.r_[cols, cols], np.r_[vals, -vals],
        np.r_[pd.b, -pd.b],
    )


@pytest.mark.parametrize("seed", range(3))
def test_stack_linf_matches_a_rebuild(seed):
    rows, cols, vals, b = _triplets(seed)  # columns 12 to 17 are empty
    b[5] = -0.0
    keep = rows != 9  # row 9 comes out empty
    pd = ProblemData.from_coo(40, 30, rows[keep], cols[keep], vals[keep], b)
    assert pd.col_nnz()[15] == 0 and row_lens(pd)[9] == 0
    got = stack_linf(pd)
    assert_identical(got, _stacked(pd))
    assert_identical(prepare_problem(pd, "linf"), got)
