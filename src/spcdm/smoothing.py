"""Smooth approximations of the three supported losses, with incremental state.

Variants
--------
linf      max-residual smoothing: mu * log of the mean exponential of the
          residuals of the doubled system [A; -A], b -> (b; -b).
l1        per-row Huber smoothing of |r_j| with threshold mu * v_j**2,
          where v_j is the squared Euclidean norm of row j.
adaboost  log of the mean exponential of label-scaled rows; this loss is
          already the mu = 1 smoothing of max_j b_j (Ax)_j, so mu is fixed.

A SmoothState carries x, the residual r = Ax - b, and for the exponential
variants a normalization accumulator, so a step costs O(nnz of its
column).  It takes a group of steps none of which reads what another
writes at once: a wave of iterations, or one of l1's levels (Wave).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .problem import ColumnSpan, ProblemData, _segments, _spans, stack_linf

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

    def columns(self, ids: np.ndarray, levels: bool = False) -> Iterator[ColumnSpan]:
        """pd.columns on the (count, tau) block ids, each span carrying
        the per-row data SmoothState.wave reads: huber_a[rows] for l1."""
        return self.pd.columns(ids, self.huber_a, levels)


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
        v = working.row_sq_norms
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
        v = working.row_sq_norms
        # a running sum in row order: cumsum never sums pairwise
        return 1.0, 0.5 * float(np.cumsum(np.append(0.0, v * v))[-1])
    raise ValueError(f"unknown app {app!r}")


def _residual(pd: ProblemData, x: np.ndarray) -> np.ndarray:
    # one span of whole columns at a time; np.add.at adds in CSC order:
    # each row takes its terms by ascending column
    r = -pd.b
    ptr = pd.col_ptr
    for a, b in _spans(ptr):
        xe = np.repeat(x[a:b], pd._col_lens[a:b])
        hit = xe != 0.0
        at = slice(ptr[a], ptr[b])
        np.add.at(r, pd.col_rows[at][hit], pd.col_vals[at][hit] * xe[hit])
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


@dataclass(eq=False, slots=True)
class Wave:
    """Column steps of a ColumnSpan none of which reads what another
    writes (iterations first, ..., end - 1, or with both None a level's),
    and what they read (SmoothState.wave): cols selects their columns, ids,
    rows and vals are theirs; x, r, e = exp((r - fmu) / mu) and vals / mu
    (None for l1), and each column's s = vals @ e (for l1 its gradient).
    Of the steps taken, the first a columns' and ea entries' have landed,
    the rest are in hs, and repeated along their entries in hrs; kept of
    them are not zero."""

    span: ColumnSpan
    first: int | None
    end: int | None
    cols: slice | np.ndarray
    ids: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    x: np.ndarray
    r: np.ndarray
    e: np.ndarray | None
    am: np.ndarray | None
    s: np.ndarray
    a: int = 0
    ea: int = 0
    kept: int = 0
    hs: list = field(default_factory=list)
    hrs: list = field(default_factory=list)


@dataclass
class SmoothState:
    """Mutable iterate state: x, residual, and normalization bookkeeping.

    fmu caches f_mu(x) as of the last recompute, and mu the loss's mu,
    both as 0-d arrays, which ufuncs take faster than Python floats.  For
    the exponential variants, lse_acc tracks the mean of exp((r_j -
    fmu)/mu), which is exactly 1 right after a recompute and takes each
    iteration's change as sum e_j * expm1(d_j/mu), which does not cancel
    (steps); the current value is fmu + mu*log(lse_acc).
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
        """f_mu at x from the maintained state: O(m) for l1, O(1) in
        Python floats for the exponential variants.  NaN while lse_acc is
        outside [LSE_ACC_LO, LSE_ACC_HI] or not finite, where it no longer
        tracks f_mu.  lse_acc is 1 right after a recompute, where this is
        fmu."""
        if self.loss.kind == "l1":
            return value_from_residual(self.loss, self.r)
        acc = self.lse_acc
        if not LSE_ACC_LO <= acc <= LSE_ACC_HI:
            return math.nan
        return float(self.fmu) + self.loss.mu * math.log(acc)

    def wave(self, span: ColumnSpan, a: int, b: int, leveled: bool = False) -> Wave:
        """The Wave of iterations a, ..., b - 1 of span, which must share no
        row, or with leveled, of the steps at positions a, ..., b - 1 of
        span.levels, which must be one level's.  Each s is one dot,
        batched as 1-by-k @ k-by-1 products over the columns of each
        length k (_segments), at once where they share one.  An
        exponential that overflows is inf, which trips needs_recompute."""
        if leveled:
            lv, first, end, k = span.levels, None, None, span.levels.width
            cols, ents = lv.key[a:b] % span.lens.size, slice(lv.eptr[a], lv.eptr[b])
        else:
            tau, first, end = span.ids.shape[1], a, b
            cols, ents = slice(a * tau, b * tau), slice(span.ptr[a], span.ptr[b])
            k = span.width[a] if span.width[a:b].count(span.width[a]) == b - a else 0
        rows, vals = span.rows[ents], span.vals[ents]
        r = self.r[rows]
        if self.loss.kind == "l1":
            e = am = None
            # np.clip(q, -1, 1), without np.clip's Python-level wrapper
            z = np.minimum(np.maximum(r / span.row_data[ents], -1.0), 1.0)
        else:
            e = r - self.fmu
            e /= self.mu
            np.exp(e, out=e)
            z = e
            am = vals / self.mu
        if k:
            s = (vals.reshape(-1, 1, k) @ z.reshape(-1, k, 1)).ravel()
        else:
            lens = span.lens[cols]
            s = np.zeros(lens.size)
            for sel, idx in _segments(np.append(0, lens.cumsum())):
                s[sel] = (vals[idx][:, None, :] @ z[idx][:, :, None]).ravel()
        ids = span.ids.reshape(-1)[cols]
        return Wave(span, first, end, cols, ids, rows, vals, self.x[ids], r, e, am, s)

    def full_gradient(self) -> np.ndarray:
        """All partial derivatives: every column as one selection."""
        s = self.wave(next(self.loss.columns(np.arange(self.loss.pd.n)[None])), 0, 1).s
        return s if self.loss.kind == "l1" else s / (self.loss.denom * self.lse_acc)

    def steps(self, wave: Wave, prox, check=None) -> tuple[int | None, bool]:
        """Take the steps of wave and land them; returns the iteration after
        the last one taken (end, None for a level's), and whether check
        ended the wave, which also ends where a step asks for a refresh.

        l1 has no normaliser: its steps are one h = prox(s, x, cols), and
        its caller cuts waves where a refresh or a check can fall.
        Otherwise iteration t's gradients are s / (denom * lse_acc) and its
        steps h = prox(g, x, cols), cols its columns (distinct, ascending).
        As if the steps landed one column at a time: zero steps change
        nothing, nor count toward staleness, and lse_acc takes the sum of
        e'_j * expm1(h a_j / mu) over the iteration's entries in one dot,
        e'_j the exponential of the residual as earlier columns moved it.
        lse_acc and staleness are current when check(wave, t) runs.
        """
        span, first, s, x, e = wave.span, wave.first, wave.s, wave.x, wave.e
        if e is None:
            self._take(wave, prox(s, x, wave.cols), span.lens[wave.cols])
            self.land(wave)
            return wave.end, False
        ptr, tau, width, lens = span.ptr, span.ids.shape[1], span.width, span.lens
        pairs, pair_ptr = span.pairs, span.pair_ptr
        am, fmu, mu, denom, p0 = wave.am, self.fmu, self.mu, self.loss.denom, ptr[first]
        # denom * lse_acc, 0-d: ufuncs take it faster than a float
        norm = np.array(1.0)
        for t in range(first, wave.end):
            c, at = (t - first) * tau, slice(ptr[t] - p0, ptr[t + 1] - p0)
            norm[()] = denom * self.lse_acc
            h = prox(s[c:c + tau] / norm, x[c:c + tau], slice(t * tau, (t + 1) * tau))
            hr = self._take(wave, h, width[t] or lens[t * tau:(t + 1) * tau])
            et = e[at]
            if pair_ptr[t + 1] > pair_ptr[t]:
                # a row several columns share: each sees the terms of the earlier ones
                old, d = wave.r[at], wave.vals[at] * hr
                shared = pairs[:, pair_ptr[t]:pair_ptr[t + 1]]
                for src, dst in zip(*shared.tolist()):
                    old[dst] = old[src] + d[src]
                dst = shared[1]
                et[dst] = np.exp((old[dst] - fmu) / mu)
            em = am[at] * hr
            np.expm1(em, out=em)
            self.lse_acc += float(et.dot(em)) / denom
            if check is not None and check(wave, t):
                self.land(wave)
                return t + 1, True
            if t + 1 < wave.end and self.needs_recompute():
                break
        self.land(wave)
        return t + 1, False

    def _take(self, wave: Wave, h: np.ndarray, counts) -> np.ndarray:
        """Record the steps h of columns of counts entries; h repeated along them."""
        kept = np.count_nonzero(h)
        wave.kept += kept
        self.staleness += kept
        wave.hs.append(h if kept == h.size else np.where(h != 0.0, h, -0.0))
        wave.hrs.append(h.repeat(counts))
        return wave.hrs[-1]

    def land(self, wave: Wave) -> None:
        """Write r and x for the steps of wave not yet landed: np.add.at adds
        in order, so a repeated row takes its terms by ascending column."""
        if not wave.hs:
            return
        h, hr = ((wave.hs[0], wave.hrs[0]) if len(wave.hs) == 1 else
                 (np.concatenate(wave.hs), np.concatenate(wave.hrs)))
        c, at = wave.a, slice(wave.ea, wave.ea + hr.size)
        d = wave.vals[at] * hr
        if wave.kept < h.size:
            # a zero step adds -0.0 everywhere: v + -0.0 is v for every v
            d = np.where(hr != 0.0, d, -0.0)
        np.add.at(self.r, wave.rows[at], d)
        self.x[wave.ids[c:c + h.size]] = wave.x[c:c + h.size] + h
        wave.a, wave.ea, wave.kept = c + h.size, at.stop, 0
        wave.hs.clear()
        wave.hrs.clear()

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
