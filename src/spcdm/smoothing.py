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
writes at once: a wave of iterations, or one of l1's levels (Wave).  In
a wave only the accumulator chains the iterations, and SmoothState.steps
solves for it in vectorised passes over the whole wave, exact bit for
bit.  Every sum over the entries of a column or of an iteration is a
segment of one np.add.reduceat (_sums), which sums it the same whatever
wave, pass or span holds it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .problem import ColumnSpan, ProblemData, _spans, stack_linf

KINDS = ("linf", "l1", "adaboost")

# accumulator band outside which incremental exponentials lose accuracy
LSE_ACC_LO = 1e-6
LSE_ACC_HI = 1e6
_BELOW_LO = math.nextafter(LSE_ACC_LO, 0.0)
_FIRST = np.zeros(1, dtype=np.intp)  # one segment's offset: the whole array


def _sums(x: np.ndarray, at: np.ndarray, empty: bool) -> np.ndarray:
    """Each segment x[at[i]:at[i + 1]] (the last to x's end) summed by one
    np.add.reduceat, as seg[0] + np.add.reduce(seg[1:]), bit for bit,
    whatever the segment's offset and neighbours.  With empty, where a
    segment may hold no entries, such a segment sums to 0 (reduceat would
    give the next one's first entry, or raise past x's end)."""
    if not empty:
        return np.add.reduceat(x, at)
    keep = np.diff(at, append=x.size) > 0
    s = np.zeros(at.size)
    s[keep] = np.add.reduceat(x, at[keep])
    return s


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
    rows and vals are theirs, and counts their lengths; x, r, e =
    exp((r - fmu) / mu) and vals / mu (None for l1), and each column's s,
    the sum of vals * e over its entries (for l1 its gradient).
    steps fills h with the steps and d with the change each brings to r
    along its entries, which come first to last in the order of cols."""

    span: ColumnSpan
    first: int | None
    end: int | None
    cols: slice | np.ndarray
    ids: np.ndarray
    rows: np.ndarray
    vals: np.ndarray
    counts: np.ndarray
    x: np.ndarray
    r: np.ndarray
    e: np.ndarray | None
    am: np.ndarray | None
    s: np.ndarray
    h: np.ndarray | None = None
    d: np.ndarray | None = None


@dataclass
class SmoothState:
    """Mutable iterate state: x, residual, and normalization bookkeeping.

    fmu caches f_mu(x) as of the last recompute, mu the loss's mu and
    denom its denom, as 0-d arrays, which ufuncs take faster than Python
    numbers.  For the exponential variants, lse_acc tracks the mean of
    exp((r_j - fmu)/mu), which is exactly 1 right after a recompute and
    takes each iteration's change as sum e_j * expm1(d_j/mu), which does
    not cancel (steps); the current value is fmu + mu*log(lse_acc).
    """

    loss: SmoothedLoss
    x: np.ndarray
    r: np.ndarray
    fmu: np.ndarray
    lse_acc: float
    staleness: int
    mu: np.ndarray = field(init=False, repr=False)
    denom: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.mu = np.array(self.loss.mu)
        self.denom = np.array(float(self.loss.denom))

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

    def acc_bound(self, target: float) -> float:
        """A bound on lse_acc above which value() exceeds target, for the
        exponential variants: exp((target - fmu)/mu + margin).  The margin,
        2**-48 * ((|fmu| + |target|)/mu + 32), covers the rounding of
        fmu + mu*log(lse_acc) in the band (|log| < 14), of the bound's own
        arithmetic and of exp with room to spare, so a value at most target
        always has lse_acc at most the bound."""
        fmu, mu = float(self.fmu), self.loss.mu
        z = (target - fmu) / mu + 2.0**-48 * ((abs(fmu) + abs(target)) / mu + 32)
        # NaN only for target -inf, which no value reaches; past the band
        # (z > 14) every lse_acc the state tracks is below the bound
        return 0.0 if math.isnan(z) else math.exp(min(z, 709.0))

    def wave(self, span: ColumnSpan, a: int, b: int, leveled: bool = False) -> Wave:
        """The Wave of iterations a, ..., b - 1 of span, which must share no
        row, or with leveled, of the steps at positions a, ..., b - 1 of
        span.levels, which must be one level's.  The column sums s are one
        np.add.reduceat over the offsets span.eptr holds (_sums).  An
        exponential that overflows is inf, which trips needs_recompute."""
        if leveled:
            first = end = None
            cols = span.levels.key[a:b] % span.lens.size
        else:
            tau, first, end = span.ids.shape[1], a, b
            a, b = a * tau, b * tau
            cols = slice(a, b)
        eptr = span.eptr
        e0 = eptr[a]
        ents = slice(e0, eptr[b])
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
        s = _sums(vals * z, eptr[a:b] - e0, span.empty)
        ids = span.ids.reshape(-1)[cols]
        return Wave(span, first, end, cols, ids, rows, vals, span.lens[cols], self.x[ids], r,
                    e, am, s)

    def full_gradient(self) -> np.ndarray:
        """All partial derivatives: every column as one selection."""
        s = self.wave(next(self.loss.columns(np.arange(self.loss.pd.n)[None])), 0, 1).s
        return s if self.loss.kind == "l1" else s / (self.loss.denom * self.lse_acc)

    def steps(self, wave: Wave, prox, bound: float = -math.inf) -> tuple[int | None, bool]:
        """Take the steps of wave and land them; returns the iteration after
        the last one taken (end, None for a level's), and whether lse_acc
        there is at most bound (see acc_bound), which also ends the wave,
        as does a step that asks for a refresh.

        l1 has no normaliser: its steps are one h = prox(s, x, cols), and
        its caller cuts waves where a refresh or a check can fall.
        Otherwise iteration t's gradients are s / (denom * A_t) and its
        steps h = prox(g, x, cols), cols its columns (distinct, ascending),
        where A_t is lse_acc as t starts, and A_t+1 = A_t + dot / denom,
        with dot the sum of e'_j * expm1(h a_j / mu) over t's entries, e'_j
        the exponential of the residual as earlier columns moved it: as if
        the steps landed one column at a time.  Zero steps change nothing,
        nor count toward staleness.

        Only A chains the iterations, so the wave takes them in sweeps: a
        pass takes every iteration from c on at once from guesses of A_t
        (lse_acc, then the last pass's), the dots as one np.add.reduceat
        (_sums, each iteration's sum what it gives alone) and the A_t as one
        cumsum (np.add.accumulate), which adds in turn as += does.  A pass reads
        the exact A_c, so its iterations are exact up to the first whose
        guess it does not reproduce bit for bit, where the next pass
        starts: at most one pass an iteration, and one for a wave of one
        iteration.  The wave ends after the first iteration whose A_t+1
        leaves [LSE_ACC_LO, LSE_ACC_HI], is at most bound or brings
        staleness to n (counted once, over the steps taken).  The passes
        go on past such an A_t only from guesses inside that range (none
        divides by zero), so a guess reproduced needs no other check.
        """
        span, first, end, s, x, e = wave.span, wave.first, wave.end, wave.s, wave.x, wave.e
        if e is None:
            wave.h = prox(s, x, wave.cols)
            wave.d = wave.vals * wave.h.repeat(wave.counts)
            self.land(wave, wave.h.size, wave.d.size)
            return end, False
        ptr, tau, pairs, pair_ptr = span.ptr, span.ids.shape[1], span.pairs, span.pair_ptr
        am, counts, fmu, mu, denom = wave.am, wave.counts, self.fmu, self.mu, self.denom
        n, p0, count = self.loss.pd.n, ptr[first], end - first
        # the range: lo < A_t <= LSE_ACC_HI, in the band (LSE_ACC_LO <= a is
        # a > _BELOW_LO) and above bound.  The first pass reads lse_acc for
        # every A_t, which it checks against lse_acc if that is in range
        lo = max(bound, _BELOW_LO)
        acc = np.empty(count + 1)  # A_t as iteration t starts, then the last's end
        acc[0] = ac = self.lse_acc  # ac: A_c, a float
        # denom * A_t for each column's iteration: one float in the first pass
        norm, guess = self.loss.denom * ac, ac if lo < ac <= LSE_ACC_HI else math.nan
        vals, h, d, c = wave.vals, None, None, 0
        while True:
            c0, pc = c * tau, ptr[first + c]
            at = pc - p0
            hc = prox(s[c0:] / norm, x[c0:], slice((first + c) * tau, end * tau))
            hr = hc.repeat(counts[c0:])
            dc = vals[at:] * hr
            if c:
                h[c0:], d[at:] = hc, dc
            else:
                h, d = hc, dc
            em = am[at:] * hr
            np.expm1(em, out=em)
            et = e[at:]
            a, b = pair_ptr[first + c], pair_ptr[end]
            if b > a:
                # a row several columns share: each sees the terms of the
                # earlier ones, from the gathered r, along the row's chain
                # of pairs (a Jacobi sweep for each link of the longest)
                src_dst = pairs[a:b] - pc
                src, dst = src_dst[:, 0], src_dst[:, 1]
                dsrc = dc[src]
                old = wave.r[at:][src] + dsrc
                if b - a > 1:  # a chain takes two pairs or more
                    link = run = src[1:] == dst[:-1]
                    while np.count_nonzero(run):
                        old[1:] = np.where(link, old[:-1] + dsrc[1:], old[1:])
                        run = run[1:] & run[:-1]
                old -= fmu
                old /= mu
                et[dst] = np.exp(old, out=old)
            em *= et
            j = count - c - 1
            if not j:  # one iteration: the same sum and add, as floats (waves of
                # one iteration are most of adaboost's, where the batch's calls cost more)
                acc[count] = v = ac + float(_sums(em, _FIRST, span.empty)[0]) / self.loss.denom
            else:
                q = _sums(em, span.eptr[(first + c) * tau:end * tau:tau] - pc, span.empty)
                tail = acc[c:]  # A_c, then A_c+1, ..., A_count
                np.divide(q, denom, out=tail[1:])
                np.add.accumulate(tail, out=tail)
                # the first A_t its guess did not reproduce, or A_count: exact
                stop = tail[1:-1] != guess
                j = int(stop.argmax()) if stop.any() else j
                v = float(acc[c + j + 1])
            if not lo < v <= LSE_ACC_HI:  # the wave ends after iteration c + j
                t, due = c + j + 1, v <= bound
                break
            c, ac = c + j + 1, v
            if c == count:
                t, due = count, False
                break
            # the next pass reads this one's A_t, kept in range
            guess = np.minimum(acc[c:count], LSE_ACC_HI)
            np.maximum(guess, math.nextafter(lo, math.inf), out=guess)
            norm, guess = (denom * guess).repeat(tau), guess[1:]
        if self.staleness + t * tau >= n:
            # the first iteration after which staleness reaches n
            kept = np.count_nonzero(h[:t * tau].reshape(t, tau), axis=1).cumsum()
            stale = int(kept.searchsorted(n - self.staleness)) + 1
            if stale < t:
                t, due = stale, False
        wave.h, wave.d = h, d
        self.land(wave, t * tau, ptr[first + t] - p0)
        self.lse_acc = float(acc[t])
        return first + t, due

    def land(self, wave: Wave, c: int, ec: int) -> None:
        """Write r and x for the first c steps of wave, of ec entries: np.add.at
        adds in order, so a repeated row takes its terms by ascending column."""
        h, d = wave.h[:c], wave.d[:ec]
        kept = np.count_nonzero(h)
        if kept < c:
            # a zero step adds -0.0 everywhere: v + -0.0 is v for every v
            nonzero = h != 0.0
            h = np.where(nonzero, h, -0.0)
            d = np.where(nonzero.repeat(wave.counts[:c]), d, -0.0)
        np.add.at(self.r, wave.rows[:ec], d)
        self.x[wave.ids[:c]] = wave.x[:c] + h
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
