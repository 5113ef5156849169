"""Smooth approximations of the three supported losses, with incremental state.

Variants
--------
linf      max-residual smoothing: mu * log of the mean exponential of the
          residuals of the doubled system [A; -A], b -> (b; -b).
l1        per-row Huber smoothing of |r_j| with threshold mu * v_j**2,
          where v_j is the squared Euclidean norm of row j.
adaboost  log of the mean exponential of label-scaled rows; this loss is
          already the mu = 1 smoothing of max_j b_j (Ax)_j, so mu is fixed.

A SmoothState carries x, the residual r = Ax - b of the working system,
and for the exponential variants a normalization accumulator that lets
a batch of coordinate updates run in O(nnz of their columns) without
touching the other rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .problem import ColumnBatch, ProblemData, row_sq_norms, stack_linf

KINDS = ("linf", "l1", "adaboost")

# accumulator band outside which incremental exponentials lose accuracy
LSE_ACC_LO = 1e-6
LSE_ACC_HI = 1e6


@dataclass(frozen=True)
class SmoothedLoss:
    """A smoothing variant bound to its working matrix.

    pd is the prepared system (doubled rows for linf, label-folded rows
    for adaboost), not the raw dataset; build it with prepare_problem.
    huber_a holds the per-row thresholds and is set for l1 only.
    """

    kind: str
    pd: ProblemData
    mu: float
    huber_a: np.ndarray | None = None

    @property
    def denom(self) -> int:
        """Row count normalizing the mean exponential."""
        return self.pd.m

    def columns(self, ids: np.ndarray) -> Iterator[ColumnBatch]:
        """pd.columns on the (count, tau) block ids, each batch carrying
        the per-row data gradients reads: huber_a[rows] for l1."""
        return self.pd.columns(ids, self.huber_a)


def prepare_problem(pd: ProblemData, app: str) -> ProblemData:
    """Map the raw dataset onto the system the loss actually evaluates.

    linf doubles the rows to [A; -A]; adaboost scales each row by its
    label and zeroes the right-hand side; l1 passes through.
    """
    if app == "linf":
        return stack_linf(pd)
    if app == "l1":
        return pd
    if app == "adaboost":
        return pd.scale_rows(pd.b, np.zeros(pd.m))
    raise ValueError(f"unknown app {app!r}")


def make_loss(working: ProblemData, app: str, mu: float) -> SmoothedLoss:
    """Bind a smoothing variant to an already prepared matrix.

    mu must be positive and finite; adaboost only accepts mu = 1 (its
    objective is by definition the unit smoothing).  For l1 every row
    must be nonempty, since the thresholds scale with the squared row
    norms.
    """
    if app not in KINDS:
        raise ValueError(f"unknown app {app!r}")
    if not (mu > 0 and math.isfinite(mu)):
        raise ValueError(f"mu must be positive and finite, got {mu!r}")
    if app == "adaboost" and mu != 1.0:
        raise ValueError("adaboost fixes mu = 1")
    huber_a = None
    if app == "l1":
        v = row_sq_norms(working)
        huber_a = mu * v * v
    return SmoothedLoss(kind=app, pd=working, mu=mu, huber_a=huber_a)


def loss_constants(app: str, working: ProblemData) -> tuple[float, float]:
    """(sigma, D): strong-convexity modulus of the prox center and the
    diameter-type constant bounding f - f_mu <= mu * D.

    Computed on the working matrix: linf/adaboost give (1, log of row
    count); l1 gives (1, half the sum of squared row weights v_j**2).
    """
    if app in ("linf", "adaboost"):
        if working.m < 1:
            raise ValueError("need at least one row")
        return 1.0, float(np.log(working.m))
    if app == "l1":
        v = row_sq_norms(working)
        # a running sum in row order: cumsum never sums pairwise
        return 1.0, 0.5 * float(np.cumsum(np.append(0.0, v * v))[-1])
    raise ValueError(f"unknown app {app!r}")


def _residual(pd: ProblemData, x: np.ndarray) -> np.ndarray:
    # np.add.at adds in CSC order: each row takes its terms by ascending column
    r = -pd.b
    xe = np.repeat(x, pd.col_nnz())
    hit = xe != 0.0
    np.add.at(r, pd.col_rows[hit], pd.col_vals[hit] * xe[hit])
    return r


def value_from_residual(loss: SmoothedLoss, r: np.ndarray) -> float:
    """f_mu evaluated directly from a residual vector (max-shifted)."""
    # overflow to inf is the caller's divergence signal, not an error here
    with np.errstate(over="ignore"):
        if loss.kind == "l1":
            a = loss.huber_a
            ar = np.abs(r)
            # q = min(|r|, a) gives q^2/(2a) + (|r| - q) in both regimes
            # without squaring huge residuals
            q = np.minimum(ar, a)
            return float((q * q / (2 * a) + (ar - q)).sum())
        rbar = float(r.max())
        s = float(np.exp((r - rbar) / loss.mu).sum()) / loss.denom
        return rbar + loss.mu * float(np.log(s))


def evaluate(loss: SmoothedLoss, x: np.ndarray) -> float:
    """f_mu(x) from scratch; the reference the incremental state drifts from."""
    return value_from_residual(loss, _residual(loss.pd, np.asarray(x, dtype=np.float64)))


def nonsmooth_value(loss: SmoothedLoss, x: np.ndarray) -> float:
    """The unsmoothed objective f(x) the variant approximates."""
    r = _residual(loss.pd, np.asarray(x, dtype=np.float64))
    if loss.kind == "l1":
        return float(np.abs(r).sum())
    return float(r.max())


class Snapshot(NamedTuple):
    """What one step reads of the state, gathered once by
    SmoothState.gradients and handed to apply_steps: x[cols.ids],
    r[cols.rows] and, for the exponential variants, e = exp((r[cols.rows]
    - fmu) / mu) (None for l1)."""

    x: np.ndarray
    r: np.ndarray
    e: np.ndarray | None


@dataclass
class SmoothState:
    """Mutable iterate state: x, residual, and normalization bookkeeping.

    fmu caches f_mu(x) as of the last recompute, and mu the loss's mu,
    both as 0-d arrays, which ufuncs take faster than Python floats.  For
    the exponential variants, lse_acc tracks the mean of exp((r_j -
    fmu)/mu), which is exactly 1 right after a recompute and drifts
    multiplicatively as updates land; the current value is
    fmu + mu*log(lse_acc).
    """

    loss: SmoothedLoss
    x: np.ndarray
    r: np.ndarray
    fmu: np.ndarray
    lse_acc: float
    staleness: int
    mu: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mu = np.array(self.loss.mu)

    def value(self) -> float:
        if self.loss.kind == "l1":
            return value_from_residual(self.loss, self.r)
        return float(self.fmu + self.loss.mu * float(np.log(self.lse_acc)))

    def gradients(self, cols: ColumnBatch) -> tuple[np.ndarray, Snapshot]:
        """Derivatives of f_mu along the columns cols.ids, from maintained
        state, and the Snapshot of that state apply_steps takes.

        cols comes from loss.columns.  An exponential that overflows is
        inf, which trips needs_recompute; run's epoch holds the errstate
        that keeps it quiet.
        """
        loss = self.loss
        r = self.r[cols.rows]
        if loss.kind == "l1":
            e = None
            # np.clip(q, -1, 1), without np.clip's Python-level wrapper
            z = np.minimum(np.maximum(r / cols.row_data, -1.0), 1.0)
        else:
            e = r - self.fmu
            e /= self.mu
            np.exp(e, out=e)
            z = e / (loss.denom * self.lse_acc)
        # batched 1-by-k @ k-by-1 products: one dot per column, as np.dot(vals, z)
        k = cols.width
        if k:
            g = (cols.vals.reshape(-1, 1, k) @ z.reshape(-1, k, 1)).ravel()
        else:
            g = np.zeros(cols.ids.size)
            for sel, idx in cols.groups:
                g[sel] = (cols.vals[idx][:, None, :] @ z[idx][:, :, None]).ravel()
        return g, Snapshot(self.x[cols.ids], r, e)

    def full_gradient(self) -> np.ndarray:
        """All partial derivatives: gradients over every column at once."""
        return self.gradients(next(self.loss.columns(np.arange(self.loss.pd.n)[None])))[0]

    def apply_steps(self, cols: ColumnBatch, h: np.ndarray, seen: Snapshot) -> None:
        """x[cols.ids] += h in O(nnz of those columns), keeping r and lse_acc
        in sync; seen is the Snapshot gradients took of this state, which
        the call consumes.

        cols.ids must be distinct and ascending.  The result is bit for bit
        that of applying the steps one column at a time in that order: zero
        steps change nothing and do not count toward staleness, each row
        takes its terms in ascending column order, and lse_acc takes the
        columns' changes in turn, each column seeing the rows earlier ones
        moved.  Only the new residuals are exponentiated, and the old ones
        at the entries whose row an earlier column moved.
        """
        kept = int(np.count_nonzero(h))
        keep = None
        d = cols.vals * h.repeat(cols.lens)
        if kept < h.size:
            # a zero step adds -0.0 everywhere: v + -0.0 is v for every v
            keep = h != 0.0
            h = np.where(keep, h, -0.0)
            d = np.where(keep.repeat(cols.lens), d, -0.0)
        old, e_old = seen.r, seen.e
        shared = cols.shared.size > 0
        if e_old is not None:
            if shared:
                # a row several columns share: each sees the terms of the earlier ones
                for src, dst in zip(*cols.shared.tolist()):
                    old[dst] = old[src] + d[src]
                dst = cols.shared[1]
                e_old[dst] = np.exp((old[dst] - self.fmu) / self.mu)
            new = old + d
            # the new exponentials beside the old, each column's two sums in one call
            e = np.empty((2, new.size))
            e_new = e[0]
            np.subtract(new, self.fmu, out=e_new)
            e_new /= self.mu
            np.exp(e_new, out=e_new)
            e[1] = e_old
            k = cols.width
            if k:
                sums = np.add.reduce(e.reshape(2, -1, k), axis=2)
                change = sums[0] - sums[1]
            else:
                change = np.zeros(h.size)
                for sel, idx in cols.groups:
                    sums = np.add.reduce(e.take(idx, axis=1), axis=2)
                    change[sel] = sums[0] - sums[1]
            if keep is not None:
                change = change[keep]
            acc, denom = self.lse_acc, self.loss.denom
            for c in change.tolist():  # in column order, as the columns land
                acc += c / denom
            self.lse_acc = acc
        elif not shared:
            new = old + d
        if shared:
            # np.add.at adds in CSC order: each row takes its terms by ascending column
            np.add.at(self.r, cols.rows, d)
        else:
            self.r[cols.rows] = new
        self.x[cols.ids] = seen.x + h
        self.staleness += kept

    def needs_recompute(self) -> bool:
        """Staleness policy: refresh every n updates, or as soon as the
        accumulator leaves [1e-6, 1e6] (or stops being finite)."""
        if self.staleness >= self.loss.pd.n:
            return True
        if self.loss.kind == "l1":
            return False
        return not (LSE_ACC_LO <= self.lse_acc <= LSE_ACC_HI)

    def recompute(self) -> None:
        """Rebuild r from x and reset the normalization; idempotent."""
        self.r = _residual(self.loss.pd, self.x)
        self.fmu = np.array(value_from_residual(self.loss, self.r))
        self.lse_acc = 1.0
        self.staleness = 0


def init_state(loss: SmoothedLoss, x0: np.ndarray | None = None) -> SmoothState:
    """Fresh state at x0 (default 0, where r = -b)."""
    x = np.zeros(loss.pd.n) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (loss.pd.n,):
        raise ValueError(f"x0 must have shape ({loss.pd.n},)")
    st = SmoothState(loss=loss, x=x, r=np.empty(0), fmu=np.array(0.0), lse_acc=1.0, staleness=0)
    st.recompute()
    return st
