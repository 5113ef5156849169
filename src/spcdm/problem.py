"""Sparse problem storage, column-major, plus loaders and generators."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np


@dataclass(frozen=True, eq=False)
class ProblemData:
    """An m-by-n sparse matrix A, column-compressed, and right-hand side b.

    The methods read A one column at a time, so A is stored once, by
    columns: finite, nonzero entries, no duplicates, rows ascending
    within each column.  Per-row statistics are reductions over the
    columns, in CSC order; nothing in the library sorts A by rows but
    save_svmlight, which writes them.
    """

    m: int
    n: int
    col_ptr: np.ndarray
    col_rows: np.ndarray
    col_vals: np.ndarray
    b: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.col_vals.size)

    def columns(
        self, ids: np.ndarray, row_data: np.ndarray | None = None, levels: bool = False
    ) -> "Iterator[ColumnSpan]":
        """The columns of the (count, tau) block ids, one selection per row:
        an iterator over ColumnSpans of consecutive whole selections,
        gathered lazily, one pass per span (_spans).

        Each span builds only what the step kernel reads.  The shared rows
        and the waves, or with levels the level schedule (Levels), come
        from one sort per span (_plan).  A per-row array row_data is
        gathered along: the span's row_data is row_data[rows].
        """
        lens = self._col_lens[ids]
        ptr = np.zeros(ids.shape[0] + 1, dtype=np.int64)  # where each selection's entries start
        np.cumsum(lens.sum(axis=1), out=ptr[1:])
        return (self._gather(ids[a:b], lens[a:b], ptr[a:b + 1] - ptr[a], row_data, levels)
                for a, b in _spans(ptr))

    def _gather(self, ids, lens, ptr, row_data, levels) -> "ColumnSpan":
        """The ColumnSpan of the (count, tau) block ids, whose columns have
        lengths lens and whose selections start at ptr, from one gather."""
        flat = lens.ravel()
        rows, vals = self._entries(ids.ravel(), flat)
        pairs, pair_ptr, plan = _plan(rows, ptr, self.m, flat if levels else None)
        if levels:  # the entries in the order the levels step them
            plan, order = Levels.of(plan, flat)
            vals, rows = vals[order], rows.take(order, out=order, mode="clip")
        eptr = plan.eptr if levels else np.append(0, flat.cumsum())
        return ColumnSpan(ids, flat, ptr.tolist(), rows, vals, eptr, not flat.all(), pairs,
                          pair_ptr, None if levels else plan,
                          None if row_data is None else row_data[rows], plan if levels else None)

    def _entries(self, ids, lens) -> tuple[np.ndarray, np.ndarray]:
        """Rows and values of the columns ids, of lengths lens,
        concatenated: 16 bytes an entry at the peak (_ranges)."""
        pos = _ranges(self.col_ptr[ids], lens)
        vals = self.col_vals[pos]
        # clip only spares take the copy of out that its default mode makes
        return self.col_rows.take(pos, out=pos, mode="clip"), vals

    @functools.cached_property
    def _col_lens(self) -> np.ndarray:
        """col_nnz, computed once: columns reads it on every solver iteration."""
        return self.col_nnz()

    @functools.cached_property
    def _row_lens(self) -> np.ndarray:
        """The row lengths, from one bincount of col_rows, computed once:
        omega and the column-local ESO read them."""
        return np.bincount(self.col_rows, minlength=self.m)

    @functools.cached_property
    def row_sq_norms(self) -> np.ndarray:
        """v_j = squared Euclidean norm of row j, the l1 row weights:
        read-only, computed once, as the l1 loss, its constants and its
        weights all read it.  Each must be positive, so an empty row
        raises ValueError naming it.

        One pass over spans of whole columns (_spans): np.add.at adds in
        CSC order, so each row sums its squares one at a time by
        ascending column, whatever the budget.
        """
        v = np.zeros(self.m)
        ptr = self.col_ptr
        for a, b in _spans(ptr):
            vals = self.col_vals[ptr[a]:ptr[b]]
            np.add.at(v, self.col_rows[ptr[a]:ptr[b]], vals * vals)
        if np.any(v == 0.0):
            j = int(np.flatnonzero(v == 0.0)[0])
            raise ValueError(f"l1 weights undefined: row {j} has no nonzeros")
        v.flags.writeable = False
        return v

    def col_nnz(self) -> np.ndarray:
        return np.diff(self.col_ptr)

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
        """Build the column layout from triplets.

        Explicit zeros are dropped, after the checks.  Non-finite values,
        non-integral or out-of-range indices, duplicate (row, col) pairs
        (a zero among them too) and a bad-length b raise ValueError.

        The triplets are first put in row-major order, where duplicates
        are neighbours and the first one named is the first in that
        order: one stable argsort of the int64 key rows*n + cols
        (np.lexsort on (rows, cols) where m*n overflows int64), skipped
        with the duplicate scan where the key already ascends strictly.
        _column_layout then takes them to the columns.
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
        if rows.size:  # whatever the value: a zero at a bad index is still bad input
            if rows.min() < 0 or rows.max() >= m:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n:
                raise ValueError("column index out of range")
        # row-major order; duplicate (row, col) pairs are adjacent after
        # sorting, and are duplicates whatever their values
        order = _row_major_order(m, n, rows, cols)
        if order is not None:
            rows, cols, vals = rows[order], cols[order], vals[order]
            del order
            dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if dup.any():
                k = int(np.flatnonzero(dup)[0])
                raise ValueError(f"duplicate entry at row {rows[k]}, column {cols[k]}")
        keep = vals != 0.0
        if not keep.all():
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
        row_lens = np.bincount(rows, minlength=m)
        del rows
        cols, vals = [cols], [vals]  # _column_layout empties the lists
        return cls(int(m), int(n), *_column_layout(m, n, row_lens, cols, vals), b.copy())

    def scale_rows(self, s: np.ndarray, b: np.ndarray) -> "ProblemData":
        """diag(s) A with right-hand side b, scaled with no re-sort; s and b
        must have length m.  Products that round to zero are dropped, as
        from_coo drops zeros; a non-finite one raises ValueError.  The
        result shares index arrays with self where no product is dropped.
        """
        s = np.asarray(s, dtype=np.float64).ravel()
        b = np.asarray(b, dtype=np.float64).ravel()
        for name, a in (("s", s), ("b", b)):
            if a.size != self.m:
                raise ValueError(f"{name} has length {a.size}, expected {self.m}")
        col_vals = self.col_vals * s[self.col_rows]
        if not np.all(np.isfinite(col_vals)):
            raise ValueError("matrix values must be finite")
        col_ptr, col_rows, col_vals = _drop_zeros(self.col_ptr, self.col_rows, col_vals)
        return ProblemData(self.m, self.n, col_ptr, col_rows, col_vals, b.copy())

    def same_as(self, other: "ProblemData") -> bool:
        """Exact structural and numerical equality."""
        return (
            self.m == other.m
            and self.n == other.n
            and np.array_equal(self.col_ptr, other.col_ptr)
            and np.array_equal(self.col_rows, other.col_rows)
            and np.array_equal(self.col_vals, other.col_vals)
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


def _row_major_order(m: int, n: int, rows: np.ndarray, cols: np.ndarray):
    """The stable permutation sorting (rows, cols) in row-major order, or
    None where they ascend strictly in it already, with no duplicates."""
    if m * n > _INT64_MAX:
        return np.lexsort((cols, rows))  # rows*n + cols would overflow int64
    key = rows * n + cols
    return None if np.all(key[1:] > key[:-1]) else key.argsort(kind="stable")


def _stable_order(idx: np.ndarray, size: int) -> np.ndarray:
    """The stable permutation sorting idx, whose entries are below size;
    numpy radix-sorts 16-bit keys, in linear time."""
    return (idx.astype(np.uint16) if size <= 1 << 16 else idx).argsort(kind="stable")


# Entries that a pass over A or over an epoch's columns takes at a time
_BUDGET = 1 << 15


def _spans(ptr: np.ndarray) -> Iterator[tuple[int, int]]:
    """Ranges [a, b) of whole segments ptr[s]:ptr[s + 1] (columns or
    selections), in order, each holding at most _BUDGET entries; a longer
    segment is a range of its own."""
    a, last = 0, ptr.size - 1
    while a < last:
        b = min(max(int(np.searchsorted(ptr, ptr[a] + _BUDGET, "right")) - 1, a + 1), last)
        yield a, b
        a = b


def _column_layout(m: int, n: int, row_lens: np.ndarray, cols: list, vals: list):
    """(col_ptr, col_rows, col_vals) of entries given in row order, each
    row's columns distinct: row j holds row_lens[j] entries, and the
    arrays in cols and vals, concatenated, are their column indices
    (below n) and values.  Zero values are dropped.

    The lists are emptied as they are consumed, so besides the stored
    matrix it holds one array of the entries at a time, and _BUDGET
    entries' temporaries: a stable sort of the columns (radix when
    n <= 2**16) gathers the values, then the rows in place of itself.
    """
    row_ptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(row_lens, out=row_ptr[1:])
    row_ptr, cols, vals = _drop_zeros(row_ptr, _drain(cols), _drain(vals))
    col_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n), out=col_ptr[1:])
    order = _stable_order(cols, n)
    del cols
    col_vals = vals[order]
    del vals
    rows = np.arange(m).repeat(np.diff(row_ptr))  # each entry's row, in row order
    for a, b in _spans(col_ptr):
        at = slice(col_ptr[a], col_ptr[b])
        order[at] = rows[order[at]]  # the permutation becomes the rows
    return col_ptr, order, col_vals


def _drain(parts: list) -> np.ndarray:
    """The concatenation of the arrays in parts, which is emptied."""
    out, parts[:] = parts[0] if len(parts) == 1 else np.concatenate(parts), []
    return out


def _drop_zeros(ptr: np.ndarray, idx: np.ndarray, vals: np.ndarray):
    """A compressed layout (ptr, idx, vals) without its zero values."""
    keep = vals != 0.0
    if keep.all():
        return ptr, idx, vals
    kept = np.zeros(keep.size + 1, dtype=np.int64)
    np.cumsum(keep, out=kept[1:])
    return kept[ptr], idx[keep], vals[keep]


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The ranges [starts[j], starts[j] + lens[j]) concatenated (int64): at
    least k ranges all k long by one add per offset, else ones with jumps, summed."""
    if lens.size and 0 < lens[0] <= lens.size and (lens == lens[0]).all():
        out = np.empty((lens.size, lens[0]), dtype=np.int64)
        for j in range(lens[0]):
            np.add(starts, j, out=out[:, j])
        return out.ravel()
    # an empty range would start the next: dropped (starts is overwritten)
    starts, lens = (starts, lens) if lens.all() else (starts[lens > 0], lens[lens > 0])
    starts[1:] -= starts[:-1] + lens[:-1] - 1  # from the last of the range before
    out = np.ones(int(lens.sum()), dtype=np.int64)
    out[lens.cumsum() - lens] = starts
    return np.cumsum(out, out=out)


def row_sparsity(pd: ProblemData) -> int:
    """omega, the largest number of nonzeros in a row."""
    return int(pd._row_lens.max(initial=0))


def _plan(rows: np.ndarray, ptr: np.ndarray, m: int, lens: np.ndarray | None = None):
    """(pairs, pair_ptr, waves) of a span whose selections t hold the
    entries ptr[t]:ptr[t+1] of rows, row indices below m (ColumnSpan).
    A wave is a maximal run of consecutive selections no two of which
    share a row: each starts at the first selection that shares a row
    with one of the current wave's.  Given lens, the span's column
    lengths, each step's level (_levels) replaces the waves, and pairs and
    pair_ptr, which l1 never reads, are None.

    One sort of unique keys, row then position in the span, finds both:
    unique, so any sort gives the stable order, and neighbours in it
    that hold one row are an earlier and the next entry of that row.
    The keys are (row << b) | position, b the bit width of the entry
    count, in int32 where they fit and int64 otherwise; past int64, a
    stable argsort of the rows gives the same order.
    """
    count = ptr.size - 1
    b = rows.size.bit_length()
    if m << b <= _INT64_MAX:
        dtype = np.int32 if m << b < 1 << 31 else np.int64
        key = rows.astype(dtype)
        key <<= b
        key |= np.arange(rows.size, dtype=dtype)
        key.sort()
        pos = key & ((1 << b) - 1)
        key >>= b
    else:
        pos = rows.argsort(kind="stable")
        key = rows[pos]
    dup = key[1:] == key[:-1]
    del key
    earlier, later = np.compress(dup, pos[:-1]), np.compress(dup, pos[1:])
    del pos, dup
    sel = np.arange(count, dtype=np.int32).repeat(np.diff(ptr))  # each entry's selection
    t0, t1 = sel.take(earlier), sel.take(later)
    del sel
    inside = t0 == t1
    if lens is not None:
        del t0, t1
        return None, None, _levels(earlier, later, inside, lens)
    label = t1[inside]
    order = label.argsort(kind="stable")
    label = label[order]
    pairs = np.stack((earlier[inside][order], later[inside][order]), axis=1, dtype=np.int64)
    pair_ptr = np.searchsorted(label, np.arange(count + 1)).tolist()
    # the latest earlier selection that shares a row with each selection
    # (ufunc.at is fast only where its array and operands share a dtype)
    latest = np.full(count, -1, dtype=np.int32)
    np.maximum.at(latest, t1[~inside], t0[~inside])
    waves, start = [0], 0
    for t, p in enumerate(latest.tolist()):
        if p >= start:
            waves.append(t)
            start = t
    waves.append(count)
    return pairs, pair_ptr, waves


def _levels(earlier: np.ndarray, later: np.ndarray, inside: np.ndarray,
            lens: np.ndarray) -> np.ndarray:
    """Each column step's level (lens: the span's column lengths), one
    above those of earlier selections' steps sharing a row with it, by
    Kahn's algorithm, a frontier a level, over each entry's next entry on
    its row ((earlier, later), inside where one selection holds both).
    Steps of one selection that share a row are merged (_merge) into one."""
    size = lens.size
    col = np.arange(size, dtype=np.int32).repeat(lens)  # each entry's column (as sel in _plan)
    comp = _merge(col[earlier[inside]], col[later[inside]], size)
    col = col[later]
    # each entry's next reader on its row, or size, a step never ready
    nxt = np.full(int(lens.sum()), size, dtype=np.int32)
    nxt[earlier[~inside]] = comp[col[~inside]]
    waiting = np.bincount(nxt, minlength=size + 1)  # entries to step before each
    waiting[size] = nxt.size + 1
    merged = np.flatnonzero(comp != np.arange(size))  # stepped with comp[merged]
    waiting[merged] = -1
    start, level = lens.cumsum() - lens, np.zeros(size, dtype=np.int64)
    for depth in range(size):
        frontier = np.flatnonzero(waiting == 0)
        if not frontier.size:
            break
        frontier = np.append(frontier, merged[waiting[comp[merged]] == 0])
        waiting[frontier] = -1
        level[frontier] = depth
        np.subtract.at(waiting, nxt[_ranges(start[frontier], lens[frontier])], 1)
    return level


def _merge(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """Each of size columns' smallest in its component, pairs (a[i], b[i])
    joining them: minima spread until every pair agrees (a few passes)."""
    comp = np.arange(size, dtype=a.dtype)
    while not np.array_equal(comp[a], comp[b]):
        low = np.minimum(comp[a], comp[b])
        np.minimum.at(comp, a, low)
        np.minimum.at(comp, b, low)
    return comp


class Levels(NamedTuple):
    """A span's level schedule (_levels): key, each column step's level
    times the column count plus its column, ascending; eptr[p], where
    position p's entries start in the span, which takes them in key's
    order (of's second value), then the entry count."""

    key: np.ndarray
    eptr: np.ndarray

    @classmethod
    def of(cls, level: np.ndarray, lens: np.ndarray):
        order = _stable_order(level, int(level.max(initial=0)) + 1)
        eptr = np.append(0, lens[order].cumsum())
        eorder = _ranges((lens.cumsum() - lens)[order], lens[order])
        return cls(level[order] * lens.size + order, eptr), eorder

    def groups(self, c0: int, c1: int):
        """(lo, hi): each level's steps of columns c0, ..., c1 - 1, if any."""
        base = np.arange(0, self.key[-1] + 1, self.eptr.size - 1) if self.key.size else self.key
        lo, hi = self.key.searchsorted(base + c0), self.key.searchsorted(base + c1)
        return zip(lo[hi > lo].tolist(), hi[hi > lo].tolist())


class ColumnSpan(NamedTuple):
    """The columns of consecutive selections, gathered at once.

    ids is the (count, tau) block of column ids, lens their lengths, flat,
    ptr (a list) the entries before each selection, and rows and vals the
    columns' entries in the order of ids (with levels, of levels.key), each
    column's in storage order.  eptr[p] is where the column at position p
    of that order starts in rows, then the entry count (levels.eptr with
    levels): every column sum of the span reads its offsets from it.  empty
    is whether some column has no entries.  The rows pair_ptr[t]:pair_ptr[t
    + 1] of pairs are the (earlier, next) positions in the span of selection
    t's entries whose row several of its columns hold, by row, then column.
    waves are the starts of the span's waves, then count, or levels its
    Levels (_plan).  row_data holds a per-row array gathered along with
    rows, if any.
    """

    ids: np.ndarray
    lens: np.ndarray
    ptr: list
    rows: np.ndarray
    vals: np.ndarray
    eptr: np.ndarray
    empty: bool
    pairs: np.ndarray | None
    pair_ptr: list | None
    waves: list | None
    row_data: np.ndarray | None = None
    levels: Levels | None = None


# Bytes read per block of whole lines: a block's temporaries (arrays over
# its bytes and its fields) are dropped before the next.
_CHUNK_BYTES = 1 << 18
# 1 at the bytes that end a field: what bytes.split() splits on (ASCII
# whitespace, CR and LF among it) and the colon
_SEPARATOR = bytes(c in b" \t\n\r\x0b\x0c:" for c in range(256))
# Eight-digit words (_digits): k digits read from a word's low bytes go to
# its top by a left shift of _SHIFT[k] and ASCII zeros _FILL[k] fill the
# bytes below; _POW10[k] is 10**k, exact as an integer and as a double
_SHIFT = np.array([8 * (8 - k) for k in range(9)], dtype=np.uint64)
_FILL = np.array([0x3030303030303030 >> 8 * k for k in range(9)], dtype=np.uint64)
_POW10 = 10 ** np.arange(9, dtype=np.uint64)
_POW10F = _POW10.astype(np.float64)


def load_svmlight(path, n_cols: int | None = None) -> ProblemData:
    """Read a sparse dataset in svmlight/libsvm text format.

    Each nonempty line is ``label idx:val idx:val ...`` with 1-based,
    strictly ascending feature indices.  Zero-valued entries are
    dropped after parsing (the index still counts toward the column
    count).  The column count is the largest index seen unless
    ``n_cols`` overrides it; the override must not undercut the data.

    The file is read as bytes: lines end at LF, CR or CRLF, ASCII
    whitespace (space, tab, VT, FF) separates tokens, and every number
    reads as float() (labels and values) or int() (indices) reads its
    bytes, so any non-ASCII byte is an error.  The numbers are parsed
    in numpy, eight digits to a 64-bit word, with no Python object per
    token.  An index of at most 8 digits is that word's value.  A label
    or value with an optional sign, at most 8 integer and at most 8
    fraction digits, and 1 to 15 digits in all, is mantissa / 10.0**k
    (Clinger's fast path): the mantissa is below 2**53 and 10**k exact,
    so the one correctly rounded division is float()'s result, and the
    sign, applied by negation, keeps -0.0.  Every other field (an
    exponent, an underscore, inf or nan, 17 significant digits, a long
    or signed index, a bad byte) goes through float() or int() alone.

    The file is parsed in blocks of whole lines of about _CHUNK_BYTES
    bytes, each turned into arrays at once.  A block keeps only its row
    lengths, int32 columns and values, from which _column_layout builds
    the columns with no sort by rows: the lines are rows in order, their
    indices strictly ascending.  So loading holds the stored matrix, one
    more array of its entries, and one block's and one budget's
    temporaries.

    Raises ValueError with the offending line number on malformed or
    non-UTF-8 tokens, non-finite labels or values, indices below 1 or
    past int64, or non-ascending indices, and on an empty dataset.
    """
    labels, lens, cols, vals = [], [], [], []
    m = max_idx = line0 = 0
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            try:
                parsed = _parse_block(block)
            except (ValueError, OverflowError):  # from int() or float()
                parsed = None
            if parsed is None:
                _raise_first_error(block, line0)
            b, row_lens, idx, val, lines = parsed
            max_idx = max(max_idx, int(idx.max(initial=0)))
            labels.append(b)
            lens.append(row_lens)
            cols.append((idx - 1).astype(np.int32 if max_idx <= 1 << 31 else np.int64))
            vals.append(val)  # _column_layout drops the zeros
            m += b.size
            line0 += lines
    if not m:
        raise ValueError(f"{path}: no rows")
    n = max_idx
    if n_cols is not None:
        if n_cols < max_idx:
            raise ValueError(f"n_cols={n_cols} smaller than max index {max_idx}")
        n = n_cols
    return ProblemData(m, n, *_column_layout(m, n, np.concatenate(lens), cols, vals),
                       np.concatenate(labels))


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
    """Labels and row lengths of the block's lines, index and value per
    feature, and the block's line count (splitlines' count), each array
    filled at once.  None where a check fails; ValueError or
    OverflowError where int() or float() does.
    """
    size = len(block)
    data = block + bytes(8)
    a = np.frombuffer(data, dtype=np.uint8)
    sep = np.flatnonzero(np.frombuffer(block.translate(_SEPARATOR), dtype=bool))
    # field k runs from sep[k - 1] + 1 to sep[k], with -1 and size past the ends
    fields = _fields(a, sep, size)
    if fields is None:
        return None
    labels, keys, lines = fields
    start, end = np.append(0, sep + 1), np.append(sep, size)
    # words[i]: the 8 bytes from i on as one little-endian word; data pads
    # the block with 8 zero bytes, so every field's words are in range
    words = np.ndarray((size + 1,), dtype="<u8", buffer=data, strides=(1,))
    # a dot of each field, or its end where it has none (where a field
    # holds two, the other one fails the digit check)
    dot = end.copy()
    dots = np.flatnonzero(a[:size] == 46)
    dot[np.searchsorted(sep, dots)] = dots
    b, val = (_decimals(block, a, words, start[f], end[f], dot[f]) for f in (labels, keys + 1))
    idx = _integers(block, words, start[keys], sep[keys])
    row_start = np.searchsorted(keys, labels)  # each row's first feature
    new_row = np.zeros(keys.size + 1, dtype=bool)
    new_row[row_start] = True
    if not (np.isfinite(b).all() and np.isfinite(val).all() and np.all(idx >= 1)
            and np.all((idx[1:] > idx[:-1]) | new_row[1:-1])):
        return None
    return b, np.diff(row_start, append=keys.size), idx, val, lines


def _fields(a: np.ndarray, sep: np.ndarray, size: int):
    """The label fields, the index fields (each value field follows its
    index) and the line count of the size bytes a, whose separators are
    at sep; None where the fields break a rule."""
    at = a[sep]
    colon = at == 58
    filled = np.diff(sep, prepend=-1, append=size) > 1
    # a colon ends an index and starts its value, each nonempty; the label,
    # first on its line, is the only field with no colon beside it
    is_idx, is_val = np.append(colon, False), np.append(False, colon)
    beside = is_idx | is_val
    if np.any(beside & ~filled) or np.any(is_idx & is_val):
        return None
    line = np.zeros(sep.size + 1, dtype=np.int64)  # line ends before each field
    np.cumsum((at == 10) | (at == 13), out=line[1:])
    fields = np.flatnonzero(filled)
    first = np.ones(fields.size, dtype=bool)
    on = line[fields]
    first[1:] = on[1:] != on[:-1]
    if not np.array_equal(first, ~beside[fields]):
        return None
    crlf = np.count_nonzero(a[sep[at == 13] + 1] == 10)
    lines = int(line[-1]) - crlf + (a[size - 1] not in (10, 13))
    return fields[first], np.flatnonzero(colon), lines


def _digits(words: np.ndarray, at: np.ndarray, count: np.ndarray):
    """The count[i] <= 8 bytes from at[i] on read as a decimal number,
    eight digits to a word (Lemire's SWAR), and whether each is all
    ASCII digits."""
    w = words[at] << _SHIFT[count]
    w |= _FILL[count]
    # a byte is a digit, 0x30 to 0x39, when its high nibble is 3 and stays 3 after adding 6
    ok = ((w & 0xF0F0F0F0F0F0F0F0) | ((w + 0x0606060606060606) & 0xF0F0F0F0F0F0F0F0) >> 4
          ) == 0x3333333333333333
    w -= 0x3030303030303030
    w = w * 10 + (w >> 8)  # byte 2i holds digits 2i and 2i + 1
    # the top half sums bytes 0, 2, 4 and 6 times 10**6, 10**4, 100 and 1
    w = ((w & 0xFF000000FF) * (100 + (10**6 << 32))
         + ((w >> 16) & 0xFF000000FF) * (1 + (10**4 << 32))) >> 32
    return w, ok


def _tokens(block: bytes, start: np.ndarray, end: np.ndarray, which: np.ndarray):
    """The fields block[start[i]:end[i]] for i in which, as bytes."""
    return (block[s:e] for s, e in zip(start[which].tolist(), end[which].tolist()))


def _integers(block: bytes, words: np.ndarray, start: np.ndarray, end: np.ndarray):
    """int() of each field block[start[i]:end[i]], as int64."""
    size = end - start
    out, ok = _digits(words, start, np.minimum(size, 8))
    out = out.astype(np.int64)
    slow = np.flatnonzero(~ok | (size > 8))
    if slow.size:
        out[slow] = np.fromiter(map(int, _tokens(block, start, end, slow)), np.int64, slow.size)
    return out


def _decimals(block: bytes, a: np.ndarray, words: np.ndarray, start: np.ndarray,
              end: np.ndarray, dot: np.ndarray):
    """float() of each field block[start[i]:end[i]] of the bytes a, with
    a dot at dot[i] (end[i] where it has none)."""
    sign = a[start]
    neg = sign == 45
    head = start + (neg | (sign == 43))
    whole = dot - head
    frac_at = np.minimum(dot + 1, end)  # end where there is no fraction
    frac = end - frac_at
    w, ok = _digits(words, head, np.minimum(whole, 8))
    k = np.minimum(frac, 8)
    f, frac_ok = _digits(words, frac_at, k)
    digits = whole + frac
    # Clinger's fast path: the mantissa w * 10**k + f is below 10**15 < 2**53
    # and 10**k is exact, so one correctly rounded division gives float()'s
    ok &= frac_ok & (whole <= 8) & (frac <= 8) & (digits >= 1) & (digits <= 15)
    out = (w * _POW10[k] + f).astype(np.float64)
    out /= _POW10F[k]
    np.negative(out, out=out, where=neg)
    slow = np.flatnonzero(~ok)
    if slow.size:
        out[slow] = np.fromiter(map(float, _tokens(block, start, end, slow)), np.float64,
                                slow.size)
    return out


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
    """Write svmlight/libsvm text that load_svmlight reads back exactly.

    Rows come from one stable sort of col_rows, which keeps each row's
    columns ascending.  Labels and values are written as repr(float),
    the shortest spelling that reads back to the same double, so short
    decimals load on load_svmlight's fast path."""
    order = _stable_order(pd.col_rows, pd.m)
    cols = (np.arange(pd.n).repeat(pd._col_lens)[order] + 1).tolist()
    vals = pd.col_vals[order].tolist()
    labels = pd.b.tolist()
    ends = pd._row_lens.cumsum().tolist()
    with open(path, "w", encoding="utf-8") as fh:
        for label, lo, hi in zip(labels, [0] + ends, ends):
            toks = [repr(label)]
            toks.extend(f"{c}:{v!r}" for c, v in zip(cols[lo:hi], vals[lo:hi]))
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
    It is built column by column with no sort: each column holds its
    entries, then the same rows + m with negated values.
    """
    k = pd._col_lens
    # entry p of column i moves to p + col_ptr[i], its negation k[i] further
    top = np.arange(pd.nnz) + pd.col_ptr[:-1].repeat(k)
    bottom = top + k.repeat(k)
    rows = np.empty(2 * pd.nnz, dtype=np.int64)
    vals = np.empty(2 * pd.nnz)
    rows[top], rows[bottom] = pd.col_rows, pd.col_rows + pd.m
    vals[top], vals[bottom] = pd.col_vals, -pd.col_vals
    return ProblemData(2 * pd.m, pd.n, 2 * pd.col_ptr, rows, vals, np.concatenate([pd.b, -pd.b]))
