"""Separable overapproximation parameters: dual/primal weights and beta formulas.

The solver needs, per coordinate i, a curvature weight w_i and a global
factor beta such that updating a random tau-subset of coordinates in
parallel is safe in expectation.  beta_prime depends only on the
structure counts (omega, tau, n, and for the max-row case also m);
beta = beta_prime / (sigma * mu) folds in the smoothing parameters.
The column-local ESO of the max-type pairing (p = 1) puts a factor
beta_i on each coordinate instead, with beta_prime = 1 (local_factors);
select_eso resolves a formula name to either kind.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .problem import ProblemData, _segments, _spans, row_sparsity
from .sampling import hypergeom_pmf
from .smoothing import KINDS


@dataclass(frozen=True)
class DualWeights:
    """Row weights v defining the residual-space norm, with p in {1, 2}."""

    v: np.ndarray
    p: int


@dataclass(frozen=True)
class PrimalWeights:
    """Coordinate weights w*; a zero weight marks an empty (inactive) column."""

    w: np.ndarray

    @property
    def active(self) -> np.ndarray:
        return self.w > 0.0


def dual_weights(pd: ProblemData, app: str) -> DualWeights:
    """Row weights for the given application, computed on the working matrix.

    linf and adaboost use unit weights with the max-type (p=1) pairing;
    l1 uses p=2 with v_j = squared Euclidean norm of row j, which must
    be positive (an all-zero row has no finite weight).
    """
    if app not in KINDS:
        raise ValueError(f"unknown app {app!r}")
    if app in ("linf", "adaboost"):
        return DualWeights(v=np.ones(pd.m), p=1)
    return DualWeights(v=pd.row_sq_norms, p=2)


def primal_weights(pd: ProblemData, dw: DualWeights) -> PrimalWeights:
    """Per-coordinate curvature weights w*.

    p=1: w_i = max_j v_j^-2 A_ji^2; p=2: w_i = sum_j v_j^-2 A_ji^2.
    With these weights each nonzero column has unit operator norm in
    the induced primal/dual pairing.  Empty columns get w_i = 0.  A is
    read one span of whole columns (_spans) at a time.
    """
    if dw.p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {dw.p}")
    w = np.zeros(pd.n)
    vinv2 = 1.0 / (dw.v * dw.v)
    ptr = pd.col_ptr
    for a, b in _spans(ptr):
        vals = pd.col_vals[ptr[a]:ptr[b]]
        contrib = vinv2[pd.col_rows[ptr[a]:ptr[b]]] * vals * vals
        for ids, idx in _segments(ptr[a:b + 1] - ptr[a]):
            block = contrib[idx]
            w[a + ids] = block.max(axis=1) if dw.p == 1 else block.sum(axis=1)
    return PrimalWeights(w=w)


def beta1(omega: int, tau: int) -> float:
    """min(omega, tau); valid for any uniform sampling, both p."""
    _check_counts(omega=omega, tau=tau)
    return float(min(omega, tau))


def beta2(omega: int, tau: int, n: int) -> float:
    """1 + (omega-1)(tau-1)/max(1, n-1); tau-nice sampling, p=2."""
    _check_counts(omega=omega, tau=tau, n=n)
    return 1.0 + (omega - 1) * (tau - 1) / max(1, n - 1)


def beta3(omega: int, tau: int, n: int, m: int) -> float:
    """tau-nice sampling, p=1 (max-type residual norm), m rows.

    sum_{k=1}^{k_max} min(1, (m n / tau) sum_{l=max(k,k_min)}^{k_max} c_l pi_l)

    with k_min = max(1, tau-(n-omega)), k_max = min(tau, omega),
    c_l = max(l/omega, (tau-l)/(n-omega)) (just l/omega when omega = n)
    and pi_l the tau-nice intersection pmf.  Inner sums are suffix
    accumulations, one pass from k_max down.
    """
    _check_counts(omega=omega, tau=tau, n=n)
    if m < 1:
        raise ValueError("m must be >= 1")
    if omega == 0:
        return 0.0
    k_min = max(1, tau - (n - omega))
    k_max = min(tau, omega)
    # suffix[k - k_min] = sum_{l >= k} c_l pi_l over the support
    suffix = np.zeros(k_max - k_min + 2)
    for l in range(k_max, k_min - 1, -1):
        if omega < n:
            c_l = max(l / omega, (tau - l) / (n - omega))
        else:
            c_l = l / omega
        c_l = min(c_l, 1.0)
        suffix[l - k_min] = suffix[l - k_min + 1] + c_l * hypergeom_pmf(
            omega, n, tau, l
        )
    scale = m * n / tau
    total = 0.0
    for k in range(1, k_max + 1):
        total += min(1.0, scale * float(suffix[max(k, k_min) - k_min]))
    return total


def local_factors(pd: ProblemData, tau: int, n: int) -> np.ndarray:
    """The column-local ESO factors beta_i of the p = 1 pairing.

    For w_i = max_j A_ji^2 (primal_weights with unit v) and S the
    tau-nice sampling of the n active coordinates,

        E ||A h_S||_inf^2 <= (tau/n) sum_i beta_i w_i h_i^2,  where

        beta_i = min(tau, max_{j ∋ i} |J_j|,
                     1 + (tau-1)/(n-1) sum_{j ∋ i} (|J_j| - 1)),

    J_j is the support of row j and j ∋ i runs over the rows of column
    i.  Unlike beta3, beta_i looks only at the rows through i, so it
    does not grow with m.  Derivation:

    - Cauchy-Schwarz per row: (A_j h_S)^2 <= |J_j ∩ S| sum_{i ∈ J_j ∩ S}
      w_i h_i^2.  With N_i(S) = max_{j ∋ i} |J_j ∩ S|, every row is at
      most sum_{i ∈ S} N_i(S) w_i h_i^2, and so is ||A h_S||_inf^2.
    - P(i ∈ S) = tau/n, so the expectation is at most (tau/n) sum_i
      E[N_i(S) | i ∈ S] w_i h_i^2.
    - Given i ∈ S, S = {i} ∪ S' with S' (tau-1)-nice on the other n-1
      coordinates, and N_i = 1 + max_{j ∋ i} |(J_j - {i}) ∩ S'|.  The
      max is at most the sum, whose mean is (tau-1)/(n-1) sum_{j ∋ i}
      (|J_j| - 1).  N_i never exceeds tau or the longest row through i.

    The counts come from the working matrix's row lengths (the bincount
    omega reads), one span of whole columns (_spans) at a time.  Rows j
    and j + m/2 of linf's [A; -A] share a support, so linf counts each
    support twice: safe, but looser than the raw rows.  An empty column
    gets 1.
    """
    _check_counts(tau=tau, n=n)
    beta = np.ones(pd.n)
    if tau == 1:
        return beta
    ptr = pd.col_ptr
    for a, b in _spans(ptr):
        nonempty = pd._col_lens[a:b] > 0
        starts = (ptr[a:b] - ptr[a])[nonempty]
        through = pd._row_lens[pd.col_rows[ptr[a]:ptr[b]]]  # |J_j| at each entry
        longest = np.maximum.reduceat(through, starts)
        spread = np.add.reduceat(through - 1, starts)
        beta[a:b][nonempty] = np.minimum(np.minimum(longest, tau),
                                         1.0 + (tau - 1) / (n - 1) * spread)
    return beta


def _check_counts(omega=None, tau=None, n=None):
    if omega is not None and omega < 0:
        raise ValueError("omega must be >= 0")
    if tau is not None and tau < 1:
        raise ValueError("tau must be >= 1")
    if n is not None:
        if tau is not None and tau > n:
            raise ValueError("tau must be <= n")
        if omega is not None and omega > n:
            raise ValueError("omega must be <= n")


class Eso(NamedTuple):
    """A resolved ESO: the step of coordinate i is weighted by
    beta_prime * factors[i] * w_i (every factor is 1 but the local ones).

    local_max is the largest column-local factor over the active
    coordinates whenever select_eso computed them (p = 1 under "auto"),
    else None.
    """

    beta_prime: float
    factors: np.ndarray
    formula: str
    local_max: float | None


def select_eso(
    formula: str | float, pd: ProblemData, pw: PrimalWeights, *, p: int, tau: int
) -> Eso:
    """Resolve a formula name (or numeric override) to an ESO for the
    tau-nice sampling of pw's active coordinates: the one place a
    formula is chosen.

    "beta1", "beta2" and "beta3" name the closed forms with one factor,
    and a positive finite number overrides beta_prime.  "auto" is beta2
    for p = 2.  For p = 1 it computes the column-local factors
    (local_factors, beta_prime = 1) and takes them when their largest
    active value is below beta3, so that no step is shorter than under
    beta3, and keeps beta3 otherwise; the result is named "local" or
    "beta3".
    """
    ones = np.ones(pd.n)
    if isinstance(formula, (int, float)) and not isinstance(formula, bool):
        val = float(formula)
        if not (val > 0 and math.isfinite(val)):
            raise ValueError(f"beta_prime override must be positive and finite, got {val!r}")
        return Eso(val, ones, "override", None)
    if formula not in ("auto", "beta1", "beta2", "beta3"):
        raise ValueError(f"unknown beta formula {formula!r}")
    n = int(np.count_nonzero(pw.active))
    omega = row_sparsity(pd)
    if formula == "auto" and p == 1:
        factors = local_factors(pd, tau, n)
        local_max = float(factors[pw.active].max())
        b3 = beta3(omega, tau, n, pd.m)
        if local_max < b3:
            return Eso(1.0, factors, "local", local_max)
        return Eso(b3, ones, "beta3", local_max)
    if formula == "auto":
        formula = "beta2"
    if formula == "beta1":
        return Eso(beta1(omega, tau), ones, "beta1", None)
    if formula == "beta2":
        return Eso(beta2(omega, tau, n), ones, "beta2", None)
    return Eso(beta3(omega, tau, n, pd.m), ones, "beta3", None)
