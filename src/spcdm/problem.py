"""Sparse problem storage with dual row/column layouts, plus loaders and generators."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class ProblemData:
    """An m-by-n sparse matrix A and right-hand side b, stored twice.

    Column-compressed arrays drive coordinate updates (residual
    maintenance touches one column at a time); row-compressed arrays
    drive structural statistics such as row overlap counts.  Both
    layouts hold the same entries: finite, nonzero, no duplicates,
    indices ascending within each column / row.
    """

    m: int
    n: int
    col_ptr: np.ndarray
    col_rows: np.ndarray
    col_vals: np.ndarray
    row_ptr: np.ndarray
    row_cols: np.ndarray
    row_vals: np.ndarray
    b: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.col_vals.size)

    def col(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row indices and values of column i (views, ascending rows)."""
        lo, hi = self.col_ptr[i], self.col_ptr[i + 1]
        return self.col_rows[lo:hi], self.col_vals[lo:hi]

    def row(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row j (views, ascending columns)."""
        lo, hi = self.row_ptr[j], self.row_ptr[j + 1]
        return self.row_cols[lo:hi], self.row_vals[lo:hi]

    def columns(
        self, ids: np.ndarray, row_data: np.ndarray | None = None
    ) -> "Iterator[ColumnBatch]":
        """The columns of the (count, tau) block ids, one selection per row,
        gathered in one pass: an iterator over the selections' ColumnBatches.

        All are sliced out of one gather: their length groups come from
        one stable sort keyed on (selection, column length), their shared
        rows from one keyed on (selection, matrix row).  A per-row array
        row_data is gathered along: each batch's row_data is
        row_data[rows] (None without it).
        """
        count, tau = ids.shape
        lens = self._col_lens[ids]
        flat = lens.ravel()
        ends = flat.cumsum()
        offsets = ends - flat  # where each column starts in the concatenation
        rows, vals = self._entries(ids.ravel(), flat, offsets)
        at_rows = None if row_data is None else row_data[rows]
        ptr = np.zeros(count + 1, dtype=np.int64)  # where each selection's entries start
        np.cumsum(lens.sum(axis=1), out=ptr[1:])
        it = np.arange(count).repeat(tau)
        groups = _length_groups(offsets - ptr[it], flat, it, count)
        shared = _shared_rows(rows, ptr, self.m)
        width = (lens.max(axis=1, initial=0) * (lens == lens[:, :1]).all(axis=1)).tolist()
        ptr = ptr.tolist()
        return (ColumnBatch(sel, n, rows[a:b], vals[a:b], grp, pairs, k,
                            None if at_rows is None else at_rows[a:b])
                for sel, n, a, b, grp, pairs, k
                in zip(ids, lens, ptr, ptr[1:], groups, shared, width))

    def _entries(
        self, ids: np.ndarray, lens: np.ndarray, offsets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows and values of the columns ids concatenated, column ids[j]'s
        lens[j] entries starting at offsets[j]."""
        pos = (self.col_ptr[ids] - offsets).repeat(lens)
        pos += np.arange(pos.size)
        return self.col_rows[pos], self.col_vals[pos]

    @functools.cached_property
    def _col_lens(self) -> np.ndarray:
        """col_nnz, computed once: columns reads it on every solver iteration."""
        return self.col_nnz()

    def col_nnz(self) -> np.ndarray:
        return np.diff(self.col_ptr)

    def row_nnz(self) -> np.ndarray:
        return np.diff(self.row_ptr)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All stored entries as (rows, cols, vals) in row-major order."""
        rows = np.repeat(np.arange(self.m, dtype=np.int64), self.row_nnz())
        return rows, self.row_cols.copy(), self.row_vals.copy()

    def dense(self) -> np.ndarray:
        """Dense copy of A; small instances only."""
        a = np.zeros((self.m, self.n))
        rows, cols, vals = self.triplets()
        a[rows, cols] = vals
        return a

    @classmethod
    def from_coo(
        cls,
        m: int,
        n: int,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        b: np.ndarray,
    ) -> "ProblemData":
        """Build both layouts from triplets.

        Explicit zeros are dropped.  Non-finite values, non-integral or
        out-of-range indices, duplicate (row, col) pairs and a bad-length
        b raise ValueError.

        The row layout comes from one stable argsort of the int64 key
        rows*n + cols (np.lexsort on (rows, cols) where m*n overflows
        int64), which is linear on triplets already in row-major order;
        the column layout from a stable argsort of the sorted columns,
        a linear radix sort when n <= 2**16.
        """
        if m < 0 or n < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        rows = _indices(rows, "rows")
        cols = _indices(cols, "cols")
        vals = np.asarray(vals, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        if not (rows.size == cols.size == vals.size):
            raise ValueError("triplet arrays must have equal length")
        if b.size != m:
            raise ValueError(f"b has length {b.size}, expected {m}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("matrix values must be finite")
        if not np.all(np.isfinite(b)):
            raise ValueError("b values must be finite")
        keep = vals != 0.0
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n:
                raise ValueError("column index out of range")

        # row-major order; duplicate (row, col) pairs are adjacent after sorting
        order = _row_major_order(m, n, rows, cols)
        r_sorted, c_sorted, v_sorted = rows[order], cols[order], vals[order]
        del rows, cols, vals, order
        if r_sorted.size > 1:
            dup = (r_sorted[1:] == r_sorted[:-1]) & (c_sorted[1:] == c_sorted[:-1])
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                raise ValueError(
                    f"duplicate entry at row {r_sorted[k]}, column {c_sorted[k]}"
                )
        row_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(r_sorted, minlength=m), out=row_ptr[1:])

        # numpy radix-sorts 16-bit keys, in linear time
        order = (c_sorted.astype(np.uint16) if n <= 1 << 16 else c_sorted).argsort(kind="stable")
        col_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(c_sorted, minlength=n), out=col_ptr[1:])

        return cls(
            m=int(m),
            n=int(n),
            col_ptr=col_ptr,
            col_rows=r_sorted[order],
            col_vals=v_sorted[order],
            row_ptr=row_ptr,
            row_cols=c_sorted,
            row_vals=v_sorted,
            b=b.copy(),
        )

    def scale_rows(self, s: np.ndarray, b: np.ndarray) -> "ProblemData":
        """diag(s) A with right-hand side b, scaled in both layouts with no
        re-sort.  Products that round to zero are dropped, as from_coo
        drops zeros; a non-finite one raises ValueError.  The result
        shares index arrays with self where no product is dropped.
        """
        s = np.asarray(s, dtype=np.float64)
        row_vals = self.row_vals * s.repeat(self.row_nnz())
        if not np.all(np.isfinite(row_vals)):
            raise ValueError("matrix values must be finite")
        row_ptr, row_cols, row_vals = _drop_zeros(self.row_ptr, self.row_cols, row_vals)
        col_vals = self.col_vals * s[self.col_rows]
        col_ptr, col_rows, col_vals = _drop_zeros(self.col_ptr, self.col_rows, col_vals)
        return ProblemData(self.m, self.n, col_ptr, col_rows, col_vals,
                           row_ptr, row_cols, row_vals, np.asarray(b, dtype=np.float64).copy())

    def same_as(self, other: "ProblemData") -> bool:
        """Exact structural and numerical equality."""
        return (
            self.m == other.m
            and self.n == other.n
            and np.array_equal(self.row_ptr, other.row_ptr)
            and np.array_equal(self.row_cols, other.row_cols)
            and np.array_equal(self.row_vals, other.row_vals)
            and np.array_equal(self.b, other.b)
        )


def _indices(a, name: str) -> np.ndarray:
    """a flattened to int64; float indices must be integral, not truncated."""
    a = np.asarray(a).ravel()
    if a.dtype.kind == "f":
        frac = np.trunc(a) != a
        if frac.any():
            raise ValueError(f"{name} must be integral, got {float(a[frac][0])!r}")
    return a.astype(np.int64, copy=False)


_INT64_MAX = int(np.iinfo(np.int64).max)


def _row_major_order(m: int, n: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The stable permutation sorting (rows, cols) in row-major order."""
    if m * n <= _INT64_MAX:
        return (rows * n + cols).argsort(kind="stable")
    return np.lexsort((cols, rows))  # rows*n + cols would overflow int64


def _drop_zeros(ptr: np.ndarray, idx: np.ndarray, vals: np.ndarray):
    """A compressed layout (ptr, idx, vals) without its zero values."""
    keep = vals != 0.0
    if keep.all():
        return ptr, idx, vals
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[ptr], idx[keep], vals[keep]


@dataclass(frozen=True)
class RowSparsityProfile:
    """Max row support size and the histogram of row support sizes.

    per_row_nnz[k] counts rows holding exactly k nonzeros.
    """

    omega: int
    per_row_nnz: np.ndarray


def row_sparsity(pd: ProblemData) -> RowSparsityProfile:
    """Profile row supports; omega is the largest row nonzero count."""
    counts = pd.row_nnz()
    omega = int(counts.max()) if counts.size else 0
    hist = np.bincount(counts, minlength=omega + 1)
    return RowSparsityProfile(omega=omega, per_row_nnz=hist)


def _segments(ptr: np.ndarray) -> list:
    """Group the nonempty segments ptr[s]:ptr[s+1] by their length k.

    Returns (ids, idx) per k: the ascending segment ids and the (ids.size, k)
    index of their entries in storage order.  A gather through idx is
    C-contiguous, so a reduction along axis 1 runs in each segment's order.
    """
    lens = ptr[1:] - ptr[:-1]
    return next(_length_groups(ptr[:-1], lens, np.zeros(lens.size, dtype=np.int64), 1))


def _length_groups(starts: np.ndarray, lens: np.ndarray, it: np.ndarray, count: int):
    """_segments for segments given by their starts and lengths, split by
    the nondecreasing labels it: an iterator over labels 0, ..., count - 1
    giving each one's (positions within the label, index) groups.

    One stable sort keyed on (label, length) orders all segments at once;
    each group's index is a slice of one (segments of length k, k) array.
    """
    width = int(lens.max(initial=0)) + 1
    key = it * width + lens
    order = key.argsort(kind="stable")
    key = key[order]
    # runs of one (label, length) in the sorted order: start, size, and
    # where the run starts among the segments of its length
    new_run = np.ones(key.size, dtype=bool)
    new_run[1:] = key[1:] != key[:-1]
    first = np.flatnonzero(new_run)
    size = np.diff(np.append(first, key.size))
    run_it, run_k = np.divmod(key[first], width)
    sel = order - np.searchsorted(it, np.arange(count))[it[order]]  # position within the label
    slens = lens[order]
    idx, at = {}, np.zeros(first.size, dtype=np.int64)
    for k in sorted(set(run_k.tolist())):
        of_k = run_k == k
        at[of_k] = size[of_k].cumsum() - size[of_k]
        idx[k] = starts[order[slens == k]][:, None] + np.arange(k)
    runs = list(zip(run_k.tolist(), first.tolist(), (first + size).tolist(), at.tolist()))
    bounds = np.searchsorted(run_it, np.arange(count + 1)).tolist()
    return ([(sel[a:b], idx[k][c : c + b - a]) for k, a, b, c in runs[p:q] if k]
            for p, q in zip(bounds, bounds[1:]))


def _shared_rows(rows: np.ndarray, ptr: np.ndarray, m: int):
    """An iterator over the selections t (entries ptr[t]:ptr[t+1] of rows,
    row indices below m) giving the entries of rows that several of its
    columns hold: a (2, pairs) array of (earlier, next) positions within
    the selection, in row then position order.

    One stable sort keyed on (selection, row) finds them for every one.
    """
    key = (np.arange(ptr.size - 1) * m).repeat(np.diff(ptr))
    key += rows
    order = key.argsort(kind="stable")
    key = key[order]
    dup = np.flatnonzero(key[1:] == key[:-1])
    label = key[dup] // m
    pairs = np.stack((order[dup], order[dup + 1])) - ptr[label]
    bounds = np.searchsorted(label, np.arange(ptr.size)).tolist()
    none = pairs[:, :0]
    return (pairs[:, a:b] if b > a else none for a, b in zip(bounds, bounds[1:]))


class ColumnBatch(NamedTuple):
    """Columns ids of a ProblemData, gathered once (ProblemData.columns).

    rows and vals hold the columns' entries concatenated in the order of
    ids, each column's in storage order; lens holds the column lengths.
    groups is _segments over that concatenation: (positions in ids,
    index into rows/vals) per column length.  shared holds the entries
    of rows that several of the columns hold: a (2, pairs) array of
    (earlier, next) positions in rows, in row order and then column
    order, with no pairs when no two of the columns share a row.  width
    is k when every one of the columns has the same k > 0 entries, else
    0: then rows and vals reshape to (columns, k) views, one row per
    column.  row_data holds a per-row array gathered along with rows, if
    any.
    """

    ids: np.ndarray
    lens: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    groups: list
    shared: np.ndarray
    width: int
    row_data: np.ndarray | None = None


def row_sq_norms(pd: ProblemData) -> np.ndarray:
    """v_j = squared Euclidean norm of row j, the l1 row weights; each
    must be positive, so an empty row raises ValueError naming it."""
    v = np.zeros(pd.m)
    for ids, idx in _segments(pd.row_ptr):
        seg = pd.row_vals[idx]
        # batched 1-by-k @ k-by-1 products: one dot per row, as np.dot(row, row)
        v[ids] = (seg[:, None, :] @ seg[:, :, None]).ravel()
    if np.any(v == 0.0):
        j = int(np.flatnonzero(v == 0.0)[0])
        raise ValueError(f"l1 weights undefined: row {j} has no nonzeros")
    return v


# Bytes read per block of whole lines: a block's temporaries (masks over
# its bytes, one Python object per token) are dropped before the next.
_CHUNK_BYTES = 1 << 18
_SPACE = np.zeros(256, dtype=bool)  # what bytes.split() splits on
_SPACE[list(b" \t\n\r\x0b\x0c")] = True


def load_svmlight(path, n_cols: int | None = None) -> ProblemData:
    """Read a sparse dataset in svmlight/libsvm text format.

    Each nonempty line is ``label idx:val idx:val ...`` with 1-based,
    strictly ascending feature indices.  Zero-valued entries are
    dropped after parsing (the index still counts toward the column
    count).  The column count is the largest index seen unless
    ``n_cols`` overrides it; the override must not undercut the data.

    The file is read as bytes: lines end at LF, CR or CRLF, ASCII
    whitespace (space, tab, VT, FF) separates tokens, and labels and
    values go through float(), indices through int(), on the bytes, so
    any non-ASCII byte is an error.  It is parsed in blocks of whole
    lines of about _CHUNK_BYTES bytes, each turned into arrays at once
    and its Python objects dropped before the next, so the parse holds
    one block's temporaries besides the arrays it returns.

    Raises ValueError with the offending line number on malformed or
    non-UTF-8 tokens, non-finite labels or values, indices below 1 or
    past int64, or non-ascending indices, and on an empty dataset.
    """
    labels, rows, cols, vals = [], [], [], []
    m = max_idx = line0 = 0
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            try:
                parsed = _parse_block(block)
            except (ValueError, OverflowError):  # from int() or float()
                parsed = None
            if parsed is None:
                _raise_first_error(block, line0)
            b, row, idx, val = parsed
            max_idx = max(max_idx, int(idx.max(initial=0)))
            labels.append(b)
            rows.append(row + m)
            cols.append(idx - 1)
            vals.append(val)  # from_coo drops the zeros
            m += b.size
            line0 += len(block.splitlines())
    if not m:
        raise ValueError(f"{path}: no rows")
    n = max_idx
    if n_cols is not None:
        if n_cols < max_idx:
            raise ValueError(f"n_cols={n_cols} smaller than max index {max_idx}")
        n = n_cols
    return ProblemData.from_coo(
        m, n, np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
        np.concatenate(labels),
    )


def _line_blocks(fh) -> Iterator[bytes]:
    """fh's bytes in blocks that each end at a line end (or the file's)."""
    tail = b""
    while data := fh.read(_CHUNK_BYTES):
        data = tail + data
        # a CR at the very end may be the first half of a CRLF
        cut = max(data.rfind(b"\n"), data.rfind(b"\r", 0, len(data) - 1)) + 1
        if cut:
            yield data[:cut]
        tail = data[cut:]
    if tail:
        yield tail


def _parse_block(block: bytes):
    """Labels, and row within the block, index and value per feature, of
    the block's lines, each array filled at once.  None where a check
    fails; ValueError or OverflowError where int() or float() does.
    """
    a = np.frombuffer(block, dtype=np.uint8)
    # tokens are the runs of non-space bytes, each from its start to its end
    edges = np.flatnonzero(np.diff(~_SPACE[a], prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    # a token is its line's label when a CR or LF stands between it and
    # the token before (the CR of a CRLF stands before no token)
    line = np.searchsorted(np.flatnonzero((a == 10) | (a == 13)), starts)
    first = np.ones(starts.size, dtype=bool)
    first[1:] = line[1:] != line[:-1]
    # a label holds no colon, every other token one with bytes on both sides
    colon = a == 58
    at = np.flatnonzero(colon)
    owner = np.searchsorted(starts, at, "right") - 1
    if not (np.array_equal(np.bincount(owner, minlength=starts.size), ~first)
            and np.all(at > starts[owner]) and np.all(at + 1 < ends[owner])):
        return None
    # blanking all but the labels and splitting gives the labels; blanking
    # the labels and colons gives each feature's index and value in turn
    edge = np.zeros(a.size + 1, dtype=np.int8)
    edge[starts[first]] = 1
    edge[ends[first]] = -1
    in_label = np.cumsum(edge[:-1], dtype=np.int8).view(bool)
    space = np.uint8(32)
    b = np.fromiter(map(float, np.where(in_label, a, space).tobytes().split()), np.float64)
    halves = np.where(in_label | colon, space, a).tobytes().split()
    idx = np.fromiter(map(int, halves[0::2]), np.int64, len(halves) // 2)
    val = np.fromiter(map(float, halves[1::2]), np.float64, len(halves) // 2)
    del halves
    row = np.cumsum(first)[~first] - 1
    same = row[1:] == row[:-1]
    if not (np.isfinite(b).all() and np.isfinite(val).all() and np.all(idx >= 1)
            and np.all(idx[1:][same] > idx[:-1][same])):
        return None
    return b, row, idx, val


def _raise_first_error(block: bytes, line0: int):
    """Raise the ValueError for the first bad line of block, whose first
    line is line line0 + 1: the checks of load_svmlight one token at a time."""
    for lineno, raw in enumerate(block.splitlines(), start=line0 + 1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError as err:
            raise ValueError(f"line {lineno}: not UTF-8 ({err.reason} at byte {err.start})") from None
        parts = raw.split()
        if not parts:
            continue
        try:
            label = float(parts[0])
        except ValueError:
            raise ValueError(f"line {lineno}: bad label {parts[0].decode()!r}") from None
        if not math.isfinite(label):
            raise ValueError(f"line {lineno}: non-finite label {parts[0].decode()!r}")
        prev = 0
        for tok in parts[1:]:
            tok_s = tok.decode()
            idx_s, _, val_s = tok.partition(b":")
            try:
                idx, val = int(idx_s), float(val_s)  # float(b"") fails when there is no ":"
            except ValueError:
                raise ValueError(f"line {lineno}: bad token {tok_s!r}") from None
            if idx < 1:
                raise ValueError(f"line {lineno}: index {idx} must be >= 1")
            if idx > _INT64_MAX:
                raise ValueError(f"line {lineno}: index {idx} does not fit in int64")
            if idx <= prev:
                raise ValueError(f"line {lineno}: indices not strictly ascending at {tok_s!r}")
            if not math.isfinite(val):
                raise ValueError(f"line {lineno}: non-finite value in {tok_s!r}")
            prev = idx
    raise AssertionError("block failed a check that no line fails")


def save_svmlight(pd: ProblemData, path) -> None:
    """Write svmlight/libsvm text that load_svmlight reads back exactly."""
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(pd.m):
            cols, vals = pd.row(j)
            toks = [f"{pd.b[j]:.17g}"]
            toks.extend(f"{c + 1}:{v:.17g}" for c, v in zip(cols, vals))
            fh.write(" ".join(toks) + "\n")


def synth_problem(m: int, n: int, omega_target: int, seed: int) -> ProblemData:
    """Random instance with exactly omega_target nonzeros per row.

    Column positions are drawn without replacement per row; values are
    uniform on [-1, -0.1] U [0.1, 1] so no entry sits near zero; b is
    a random sign vector.  Same seed, same instance.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 1 <= omega_target <= n:
        raise ValueError("omega_target must satisfy 1 <= omega_target <= n")
    rng = np.random.default_rng(seed)
    cols = np.concatenate(
        [np.sort(rng.choice(n, size=omega_target, replace=False)) for _ in range(m)]
    )
    rows = np.repeat(np.arange(m, dtype=np.int64), omega_target)
    nnz = m * omega_target
    vals = rng.uniform(0.1, 1.0, size=nnz) * rng.choice([-1.0, 1.0], size=nnz)
    b = rng.choice([-1.0, 1.0], size=m)
    return ProblemData.from_coo(m, n, rows, cols, vals, b)


def stack_linf(pd: ProblemData) -> ProblemData:
    """Stack [A; -A] with right-hand side (b; -b).

    Max-of-rows smoothing of the L-infinity residual norm operates on
    this doubled system; row supports (and hence omega) are unchanged.
    """
    rows, cols, vals = pd.triplets()
    return ProblemData.from_coo(
        m=2 * pd.m,
        n=pd.n,
        rows=np.concatenate([rows, rows + pd.m]),
        cols=np.concatenate([cols, cols]),
        vals=np.concatenate([vals, -vals]),
        b=np.concatenate([pd.b, -pd.b]),
    )
