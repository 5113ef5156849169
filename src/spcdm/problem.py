"""Sparse problem storage with dual row/column layouts, plus loaders and generators."""

from __future__ import annotations

import functools
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

    def columns(self, ids: np.ndarray) -> "Iterator[ColumnBatch]":
        """The columns of the (count, tau) block ids, one selection per row,
        gathered in one pass: an iterator over the selections' ColumnBatches.

        All are sliced out of one gather: their length groups come from
        one stable sort keyed on (selection, column length), their shared
        rows from one keyed on (selection, matrix row).
        """
        count, tau = ids.shape
        lens = self._col_lens[ids]
        flat = lens.ravel()
        ends = flat.cumsum()
        offsets = ends - flat  # where each column starts in the concatenation
        rows, vals = self._entries(ids.ravel(), flat, offsets)
        ptr = np.zeros(count + 1, dtype=np.int64)  # where each selection's entries start
        np.cumsum(lens.sum(axis=1), out=ptr[1:])
        it = np.arange(count).repeat(tau)
        groups = _length_groups(offsets - ptr[it], flat, it, count)
        shared = _shared_rows(rows, ptr, self.m)
        ptr = ptr.tolist()
        return (ColumnBatch(sel, n, rows[a:b], vals[a:b], grp, pairs)
                for sel, n, a, b, grp, pairs in zip(ids, lens, ptr, ptr[1:], groups, shared))

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
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if rows.size:
            if rows.min() < 0 or rows.max() >= m:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n:
                raise ValueError("column index out of range")

        # row-major order; duplicate (row, col) pairs are adjacent after sorting
        order = np.lexsort((cols, rows))
        r_sorted, c_sorted, v_sorted = rows[order], cols[order], vals[order]
        if r_sorted.size > 1:
            dup = (r_sorted[1:] == r_sorted[:-1]) & (c_sorted[1:] == c_sorted[:-1])
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                raise ValueError(
                    f"duplicate entry at row {r_sorted[k]}, column {c_sorted[k]}"
                )
        row_ptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(r_sorted, minlength=m), out=row_ptr[1:])

        order = np.lexsort((rows, cols))
        col_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols[order], minlength=n), out=col_ptr[1:])

        return cls(
            m=int(m),
            n=int(n),
            col_ptr=col_ptr,
            col_rows=rows[order],
            col_vals=vals[order],
            row_ptr=row_ptr,
            row_cols=c_sorted,
            row_vals=v_sorted,
            b=b.copy(),
        )

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
    order, with no pairs when no two of the columns share a row.
    """

    ids: np.ndarray
    lens: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    groups: list
    shared: np.ndarray


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


def load_svmlight(path, n_cols: int | None = None) -> ProblemData:
    """Read a sparse dataset in svmlight/libsvm text format.

    Each nonempty line is ``label idx:val idx:val ...`` with 1-based,
    strictly ascending feature indices.  Zero-valued entries are
    dropped after parsing (the index still counts toward the column
    count).  The column count is the largest index seen unless
    ``n_cols`` overrides it; the override must not undercut the data.

    Raises ValueError with the offending line number on malformed
    tokens, non-finite labels or values, or non-ascending indices, and
    on an empty dataset.
    """
    labels: list[float] = []
    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []
    max_idx = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            try:
                label = float(parts[0])
            except ValueError:
                raise ValueError(f"line {lineno}: bad label {parts[0]!r}") from None
            if not np.isfinite(label):
                raise ValueError(f"line {lineno}: non-finite label {parts[0]!r}")
            prev = 0
            for tok in parts[1:]:
                idx_s, sep, val_s = tok.partition(":")
                if not sep:
                    raise ValueError(f"line {lineno}: bad token {tok!r}")
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError:
                    raise ValueError(f"line {lineno}: bad token {tok!r}") from None
                if idx < 1:
                    raise ValueError(f"line {lineno}: index {idx} must be >= 1")
                if idx <= prev:
                    raise ValueError(
                        f"line {lineno}: indices not strictly ascending at {tok!r}"
                    )
                if not np.isfinite(val):
                    raise ValueError(f"line {lineno}: non-finite value in {tok!r}")
                prev = idx
                max_idx = max(max_idx, idx)
                if val != 0.0:
                    rows.append(len(labels))
                    cols.append(idx - 1)
                    vals.append(val)
            labels.append(label)
    if not labels:
        raise ValueError(f"{path}: no rows")
    n = max_idx
    if n_cols is not None:
        if n_cols < max_idx:
            raise ValueError(f"n_cols={n_cols} smaller than max index {max_idx}")
        n = n_cols
    return ProblemData.from_coo(
        m=len(labels),
        n=n,
        rows=np.array(rows, dtype=np.int64),
        cols=np.array(cols, dtype=np.int64),
        vals=np.array(vals, dtype=np.float64),
        b=np.array(labels, dtype=np.float64),
    )


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
