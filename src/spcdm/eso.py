"""Separable overapproximation parameters: dual/primal weights and beta formulas.

The solver needs, per coordinate i, a curvature weight w_i and a global
factor beta such that updating a random tau-subset of coordinates in
parallel is safe in expectation.  beta_prime depends only on the
structure counts (omega, tau, n, and for the max-row case also m);
beta = beta_prime / (sigma * mu) folds in the smoothing parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ProblemData, _segments
from .sampling import hypergeom_pmf

APPS = ("linf", "l1", "adaboost")


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


@dataclass(frozen=True)
class EsoParams:
    beta_prime: float
    formula: str
    sigma: float
    mu: float

    @property
    def beta(self) -> float:
        return self.beta_prime / (self.sigma * self.mu)


def dual_weights(pd: ProblemData, app: str) -> DualWeights:
    """Row weights for the given application, computed on the working matrix.

    linf and adaboost use unit weights with the max-type (p=1) pairing;
    l1 uses p=2 with v_j = squared Euclidean norm of row j, which must
    be positive (an all-zero row has no finite weight).
    """
    if app not in APPS:
        raise ValueError(f"unknown app {app!r}")
    if app in ("linf", "adaboost"):
        return DualWeights(v=np.ones(pd.m), p=1)
    return DualWeights(v=pd.row_sq_norms, p=2)


def primal_weights(pd: ProblemData, dw: DualWeights) -> PrimalWeights:
    """Per-coordinate curvature weights w*.

    p=1: w_i = max_j v_j^-2 A_ji^2; p=2: w_i = sum_j v_j^-2 A_ji^2.
    With these weights each nonzero column has unit operator norm in
    the induced primal/dual pairing.  Empty columns get w_i = 0.
    """
    if dw.p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, got {dw.p}")
    w = np.zeros(pd.n)
    vinv2 = 1.0 / (dw.v * dw.v)
    contrib = vinv2[pd.col_rows] * pd.col_vals * pd.col_vals
    for ids, idx in _segments(pd.col_ptr):
        block = contrib[idx]
        w[ids] = block.max(axis=1) if dw.p == 1 else block.sum(axis=1)
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


def select_beta_prime(
    formula: str | float,
    *,
    omega: int,
    tau: int,
    n: int,
    m: int,
    p: int,
) -> tuple[float, str]:
    """Resolve a formula name (or numeric override) to a beta_prime value.

    "auto" picks beta3 for p=1 and beta2 for p=2, the tightest exact
    formula for tau-nice sampling in each pairing.
    """
    if isinstance(formula, (int, float)) and not isinstance(formula, bool):
        val = float(formula)
        if not (val > 0 and math.isfinite(val)):
            raise ValueError(f"beta_prime override must be positive and finite, got {val!r}")
        return val, "override"
    if formula == "auto":
        formula = "beta3" if p == 1 else "beta2"
    if formula == "beta1":
        return beta1(omega, tau), "beta1"
    if formula == "beta2":
        return beta2(omega, tau, n), "beta2"
    if formula == "beta3":
        return beta3(omega, tau, n, m), "beta3"
    raise ValueError(f"unknown beta formula {formula!r}")
