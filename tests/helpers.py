"""Test-only oracles, references and one-coordinate helpers.

The oracles check the solver's stepsize factors from outside their
derivation: an exact intersection moment of tau-nice sampling, the
largest row overlap of a column set, and a power-iteration operator
norm.  The helpers drive the batched kernel (SmoothedLoss.columns,
SmoothState.gradients and apply_steps, prox_steps) one coordinate at
a time, through a one-column batch, as run's epoch does: inside its
errstate, with apply_steps taking the Snapshot that gradients took of
the same state.  load_svmlight_reference is the svmlight loader as a
loop over lines and tokens of decoded text, the reference for the
array-at-once load_svmlight.
"""

import numpy as np

from spcdm.problem import ProblemData
from spcdm.solver import prox_steps


# what run's epoch holds: overflow to inf and inf - inf signal a refresh
KERNEL_ERRSTATE = dict(over="ignore", invalid="ignore")


def column(loss, i):
    """Column i alone, as a one-selection ColumnBatch."""
    return next(loss.columns(np.array([[i]])))


def gradient(st, i):
    """Derivative of f_mu along coordinate i, from the maintained state."""
    with np.errstate(**KERNEL_ERRSTATE):
        return float(st.gradients(column(st.loss, i))[0][0])


def prox(grad, x, beta, w, reg):
    """prox_steps for one coordinate."""
    return float(prox_steps(np.array([grad]), np.array([x]), beta, np.array([w]), reg)[0])


def step(st, i, h):
    """x_i += h through apply_steps, keeping r and lse_acc in sync."""
    cols = column(st.loss, i)
    with np.errstate(**KERNEL_ERRSTATE):
        st.apply_steps(cols, np.array([h], dtype=np.float64), st.gradients(cols)[1])


def load_svmlight_reference(path, n_cols=None) -> ProblemData:
    """load_svmlight one token at a time, on the file read as UTF-8 text."""
    labels, rows, cols, vals = [], [], [], []
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


LAYOUT = ("col_ptr", "col_rows", "col_vals", "row_ptr", "row_cols", "row_vals", "b")


def assert_identical(got: ProblemData, want: ProblemData) -> None:
    """m, n, the seven arrays (dtype, shape, values) and the sign of every
    zero in b, bit for bit."""
    assert (got.m, got.n) == (want.m, want.n)
    for name in LAYOUT:
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.shape == w.shape, name
        assert g.tobytes() == w.tobytes(), name


def expected_intersection_sq(j_size: int, n: int, tau: int) -> float:
    """E[|J ∩ S|^2] under tau-nice sampling, |J| = j_size.

    Closed form (|J| tau / n) (1 + (|J|-1)(tau-1) / max(1, n-1)).
    """
    if not 0 <= j_size <= n:
        raise ValueError("j_size must satisfy 0 <= j_size <= n")
    if not 1 <= tau <= n:
        raise ValueError("tau must satisfy 1 <= tau <= n")
    return (j_size * tau / n) * (1.0 + (j_size - 1) * (tau - 1) / max(1, n - 1))


def subspace_lipschitz(pd: ProblemData, S) -> int:
    """Largest number of entries any row has inside the column set S.

    This integer bounds the squared weighted operator norm of the
    submatrix A^(S) from above (rows can overlap S at most this much),
    and equals 0 for empty S.
    """
    S = np.asarray(S, dtype=np.int64).ravel()
    if S.size == 0:
        return 0
    if S.min() < 0 or S.max() >= pd.n:
        raise ValueError("column index out of range")
    mask = np.zeros(pd.n, dtype=bool)
    mask[S] = True
    hits = mask[pd.row_cols].astype(np.int64)
    csum = np.concatenate([[0], np.cumsum(hits)])
    per_row = csum[pd.row_ptr[1:]] - csum[pd.row_ptr[:-1]]
    return int(per_row.max()) if per_row.size else 0


def operator_norm_oracle(
    pd: ProblemData,
    S,
    w: np.ndarray,
    v: np.ndarray,
    tol: float = 1e-9,
    max_iter: int = 10000,
    restarts: int = 3,
) -> float:
    """Squared weighted operator norm of the column submatrix A^(S), p=2.

    Equals the largest squared singular value of diag(1/v) A^(S)
    diag(1/sqrt(w_S)), found by power iteration on the Gram matrix to
    relative tolerance tol.  Test-scale sizes only (the submatrix is
    densified).  Raises RuntimeError if no restart converges within
    max_iter iterations.
    """
    S = np.asarray(S, dtype=np.int64).ravel()
    if S.size == 0:
        return 0.0
    w = np.asarray(w, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if np.any(w[S] <= 0.0):
        raise ValueError("w must be positive on S")
    m = pd.m
    M = np.zeros((m, S.size))
    for k, i in enumerate(S):
        rows, vals = pd.col(int(i))
        M[rows, k] = vals
    M /= v[:, None]
    M /= np.sqrt(w[S])[None, :]
    B = M.T @ M if S.size <= m else M @ M.T
    if not B.any():
        return 0.0

    rng = np.random.default_rng(0)
    best = None
    for _ in range(restarts):
        q = rng.standard_normal(B.shape[0])
        q /= np.linalg.norm(q)
        lam_old = 0.0
        for _ in range(max_iter):
            z = B @ q
            nz = np.linalg.norm(z)
            if nz == 0.0:
                lam_old = 0.0
                break
            q = z / nz
            lam = float(q @ (B @ q))
            if abs(lam - lam_old) <= tol * max(abs(lam), 1e-300):
                lam_old = lam
                break
            lam_old = lam
        else:
            continue
        if best is None or lam_old > best:
            best = lam_old
    if best is None:
        raise RuntimeError(f"power iteration did not converge in {max_iter} iterations")
    return best
