"""Test-only oracles and one-coordinate helpers.

The oracles check the solver's stepsize factors from outside their
derivation: an exact intersection moment of tau-nice sampling, the
largest row overlap of a column set, and a power-iteration operator
norm.  The helpers drive the batched kernel (ProblemData.columns,
SmoothState.gradients and apply_steps, prox_steps) one coordinate at
a time, through a one-column batch.
"""

import numpy as np

from spcdm.problem import ProblemData
from spcdm.solver import prox_steps


def column(pd, i):
    """Column i alone, as a one-selection ColumnBatch."""
    return next(pd.columns(np.array([[i]])))


def gradient(st, i):
    """Derivative of f_mu along coordinate i, from the maintained state."""
    return float(st.gradients(column(st.loss.pd, i))[0])


def prox(grad, x, beta, w, reg):
    """prox_steps for one coordinate."""
    return float(prox_steps(np.array([grad]), np.array([x]), beta, np.array([w]), reg)[0])


def step(st, i, h):
    """x_i += h through apply_steps, keeping r and lse_acc in sync."""
    st.apply_steps(column(st.loss.pd, i), np.array([h], dtype=np.float64))


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
