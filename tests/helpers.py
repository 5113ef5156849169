"""Test-only oracles, references and one-coordinate helpers.

The oracles check the solver's stepsize factors from outside their
derivation: an exact intersection moment of tau-nice sampling, the
largest row overlap of a column set, a power-iteration operator norm,
and a brute-force search for the worst direction of a p = 1 ESO.  The helpers drive the batched kernel (SmoothedLoss.columns,
SmoothState.wave and steps, prox_steps) one coordinate at a time,
through a one-iteration wave over a one-column span, as run's epoch
does: inside its errstate; replay drives it through run's epochs with
no target check, for a given number of iterations, one iteration per
wave.  steps_reference is SmoothState.steps for the exponential losses
as a loop over the wave's iterations, the reference for its sweeps.
load_svmlight_reference is
the svmlight loader as a loop over lines and tokens of decoded text,
the reference for the array-at-once load_svmlight.  row_layout derives
A by rows from the stored columns, with one stable sort of col_rows;
triplets, row_slices and row_lens read A through it.
"""

import dataclasses
import itertools
import math

import numpy as np

from spcdm.eso import dual_weights, primal_weights, select_eso
from spcdm.problem import ProblemData, _stable_order
from spcdm.sampling import SamplingSpec, draw
from spcdm.smoothing import init_state, loss_constants
from spcdm.solver import prox_steps


# what run's epoch holds: overflow to inf and inf - inf signal a refresh
KERNEL_ERRSTATE = dict(over="ignore", invalid="ignore")


def column(loss, i):
    """Column i alone, as a one-selection ColumnSpan."""
    return next(loss.columns(np.array([[i]])))


def _one_step(st, i, prox):
    """Iteration [i] as a one-iteration wave, with steps prox(g, x, t)."""
    with np.errstate(**KERNEL_ERRSTATE):
        st.steps(st.wave(column(st.loss, i), 0, 1), prox)


def gradient(st, i):
    """Derivative of f_mu along coordinate i, from the maintained state:
    the gradient a zero step, which changes nothing, is taken from."""
    seen = []
    _one_step(st, i, lambda g, x, t: seen.append(float(g[0])) or np.zeros(1))
    return seen[0]


def prox(grad, x, beta, w, reg):
    """prox_steps for one coordinate, with run's curvature (beta + reg.sigma_psi) * w."""
    nbw = np.array([-(beta + reg.sigma_psi) * w])
    return float(prox_steps(np.array([grad]), np.array([x]), nbw, np.array([w]), reg)[0])


def step(st, i, h):
    """x_i += h through the kernel, keeping r and lse_acc in sync."""
    _one_step(st, i, lambda g, x, t: np.array([h], dtype=np.float64))


def steps_reference(st, wave, prox, bound=-math.inf):
    """SmoothState.steps on the Wave of an exponential loss, one iteration
    at a time: iteration t's gradients s / (denom * lse_acc), its steps
    prox(g, x, cols), the exponentials of its rows as the earlier columns
    moved them (a row several columns share replayed one pair at a time,
    as the chain runs), then lse_acc += its dot / denom.  The wave ends
    after an iteration that leaves lse_acc at most bound (then the second
    value is True), or, unless it is the last, out of [LSE_ACC_LO,
    LSE_ACC_HI] or staleness at n.  Then the steps taken land one column
    at a time, each nonzero one in x and in r at its rows."""
    span, first = wave.span, wave.first
    ptr, tau, pairs, pair_ptr = span.ptr, span.ids.shape[1], span.pairs, span.pair_ptr
    denom, p0, taken, due = st.loss.denom, ptr[first], [], False
    for t in range(first, wave.end):
        c, at = (t - first) * tau, slice(ptr[t] - p0, ptr[t + 1] - p0)
        h = prox(wave.s[c:c + tau] / (denom * st.lse_acc), wave.x[c:c + tau],
                 slice(t * tau, (t + 1) * tau))
        taken.append(h)
        st.staleness += int(np.count_nonzero(h))
        hr = h.repeat(span.lens[t * tau:(t + 1) * tau])
        e, old, d = wave.e[at].copy(), wave.r[at].copy(), wave.vals[at] * hr
        shared = pairs[pair_ptr[t]:pair_ptr[t + 1]] - ptr[t]
        for src, dst in shared.tolist():
            old[dst] = old[src] + d[src]
        e[shared[:, 1]] = np.exp((old[shared[:, 1]] - st.fmu) / st.mu)
        st.lse_acc += float(e.dot(np.expm1(wave.am[at] * hr))) / denom
        due = st.lse_acc <= bound
        if due or t + 1 < wave.end and st.needs_recompute():
            break
    h = np.concatenate(taken)
    for i, col, hi in zip(itertools.count(), wave.ids, h):
        if hi != 0.0:
            rows, vals = st.loss.pd.col(int(col))
            st.x[col] = wave.x[i] + hi
            st.r[rows] = st.r[rows] + vals * hi
    return first + len(taken), due


def replay(loss, reg, cfg, iterations):
    """The state after the first iterations of run(loss.pd, loss, reg,
    cfg), taken with no target check and one iteration per wave: run's
    betas, draws and gathers, its refresh before any step that asks, and
    its recompute at each traced epoch end."""
    pd = loss.pd
    dw = dual_weights(pd, loss.kind)
    pw = primal_weights(pd, dw)
    eso = select_eso(cfg.beta_formula, pd, pw, p=dw.p, tau=cfg.tau)
    betas = eso.beta_prime / (loss_constants(loss.kind, pd)[0] * loss.mu) * eso.factors
    nbw = -(betas + reg.sigma_psi) * pw.w
    active = np.flatnonzero(pw.active)
    spec = SamplingSpec(n=active.size, tau=cfg.tau, seed=cfg.seed)
    per_epoch = -(-active.size // cfg.tau)
    st = init_state(loss)
    epoch = 0
    while iterations > 0:
        block = active[draw(spec, epoch * per_epoch, per_epoch)][:iterations]
        with np.errstate(**KERNEL_ERRSTATE):
            for span in loss.columns(block):
                for t, ids in enumerate(span.ids):
                    if st.needs_recompute():
                        st.recompute()
                    st.steps(st.wave(span, t, t + 1),
                             lambda g, x, _, i=ids: prox_steps(g, x, nbw[i], pw.w[i], reg))
        iterations -= len(block)
        epoch += 1
        if iterations > 0 and (epoch % cfg.trace_every == 0 or epoch == cfg.max_epochs):
            st.recompute()
    return st


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


LAYOUT = tuple(f.name for f in dataclasses.fields(ProblemData))


def assert_identical(got: ProblemData, want: ProblemData) -> None:
    """Every field of ProblemData bit for bit: m and n, and each array's
    dtype, shape and bytes, so also the sign of every zero in b."""
    for name in LAYOUT:
        g, w = getattr(got, name), getattr(want, name)
        if isinstance(w, np.ndarray):
            assert_same_array(g, w, name)
        else:
            assert type(g) is type(w) and g == w, name


def assert_same_array(got: np.ndarray, want: np.ndarray, name: str = "") -> None:
    """The same dtype, shape and bytes."""
    assert got.dtype == want.dtype and got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


def row_layout(pd: ProblemData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A row-compressed copy of A: (ptr, cols, vals), row j's columns
    ascending in cols[ptr[j]:ptr[j + 1]], from one stable sort of col_rows
    (save_svmlight's)."""
    order = _stable_order(pd.col_rows, pd.m)
    ptr = np.zeros(pd.m + 1, dtype=np.int64)
    np.cumsum(np.bincount(pd.col_rows, minlength=pd.m), out=ptr[1:])
    cols = np.arange(pd.n, dtype=np.int64).repeat(pd.col_nnz())
    return ptr, cols[order], pd.col_vals[order]


def triplets(pd: ProblemData) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All stored entries as (rows, cols, vals) in row-major order."""
    ptr, cols, vals = row_layout(pd)
    return np.arange(pd.m, dtype=np.int64).repeat(np.diff(ptr)), cols, vals


def row_slices(pd: ProblemData) -> list:
    """Each row's (column indices, values), columns ascending."""
    ptr, cols, vals = row_layout(pd)
    return [(cols[a:b], vals[a:b]) for a, b in zip(ptr[:-1].tolist(), ptr[1:].tolist())]


def row_lens(pd: ProblemData) -> np.ndarray:
    """Each row's number of nonzeros."""
    return np.diff(row_layout(pd)[0])


def expected_intersection_sq(j_size: int, n: int, tau: int) -> float:
    """E[|J ∩ S|^2] under tau-nice sampling, |J| = j_size.

    Closed form (|J| tau / n) (1 + (|J|-1)(tau-1) / max(1, n-1)).
    """
    if not 0 <= j_size <= n:
        raise ValueError("j_size must satisfy 0 <= j_size <= n")
    if not 1 <= tau <= n:
        raise ValueError("tau must satisfy 1 <= tau <= n")
    return (j_size * tau / n) * (1.0 + (j_size - 1) * (tau - 1) / max(1, n - 1))


def eso_ratio_max(A: np.ndarray, tau: int, d: np.ndarray, rng, starts: int = 12,
                  max_iter: int = 100) -> float:
    """The largest E_S ||A h_S||_inf^2 / ((tau/n) sum_i d_i h_i^2) found
    over h, for S tau-nice on the n columns of the dense A.

    The expectation enumerates every tau-subset.  The numerator is
    convex and the denominator a positive definite quadratic, so the
    ascent h <- (its gradient / d), rescaled to unit denominator,
    maximizes the numerator's linearization over the ellipsoid and
    never lowers the ratio.  It runs from every unit vector, from
    random normal starts and from random signs scaled by d^-1/2, until
    no start improves.  Test-scale sizes only (n <= 8 or so).
    """
    m, n = A.shape
    subsets = np.array(list(itertools.combinations(range(n), tau)))
    mask = np.zeros((len(subsets), n))
    mask[np.arange(len(subsets))[:, None], subsets] = 1.0
    q = (tau / n) * np.asarray(d, dtype=np.float64)
    h = np.vstack([np.eye(n), rng.standard_normal((starts, n)),
                   rng.choice([-1.0, 1.0], (starts, n)) / np.sqrt(q)])
    best = np.zeros(len(h))
    for _ in range(max_iter):
        h /= np.sqrt((h * h * q).sum(axis=1, keepdims=True))
        res = (h[:, None, :] * mask) @ A.T  # A h_S for every start and subset
        j = np.abs(res).argmax(axis=2)
        top = np.take_along_axis(res, j[..., None], axis=2)[..., 0]
        val = (top * top).mean(axis=1)
        if not np.any(val > best * (1 + 1e-14)):
            break
        best = np.maximum(best, val)
        live = val > 0.0  # a start with A h_S = 0 for every S has no gradient
        h = np.einsum("ks,ksn->kn", top[live], A[j[live]] * mask) / q
        best = best[live]
    return float(best.max())


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
    ptr, cols, _ = row_layout(pd)
    hits = mask[cols].astype(np.int64)
    csum = np.concatenate([[0], np.cumsum(hits)])
    per_row = csum[ptr[1:]] - csum[ptr[:-1]]
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
