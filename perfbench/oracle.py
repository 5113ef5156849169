"""Independent objective oracle and the benchmark's correctness checks.

Nothing here imports spcdm.  The smoothed objectives are written from
their definitions with scipy.sparse and scipy.special.logsumexp, on the
raw generated instance (not on the program's prepared matrix), so an
error in the program's residual, doubling, label folding, Huber widths
or log-sum-exp bookkeeping shows as a disagreement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.special import logsumexp

# the last traced value must equal the oracle's F_mu(final_x) to this
VALUE_RTOL = 1e-9
# rounding slack on the sandwich f_mu <= f <= f_mu + mu D
SANDWICH_RTOL = 1e-12


@dataclass(frozen=True)
class OracleValues:
    f_mu: float  # smoothed loss
    f: float  # the nonsmooth loss it approximates
    D: float  # f - f_mu <= mu * D
    psi: float  # regularizer lam * ||x||_1 (0 without one)

    @property
    def F_mu(self) -> float:
        return self.f_mu + self.psi

    @property
    def F(self) -> float:
        return self.f + self.psi


def matrix(m: int, n: int, rows, cols, vals) -> sp.csr_matrix:
    return sp.csr_matrix((vals, (rows, cols)), shape=(m, n))


def evaluate(app: str, A: sp.csr_matrix, b: np.ndarray, x: np.ndarray, mu: float,
             lam: float | None = None) -> OracleValues:
    """Smoothed and unsmoothed objectives of the raw instance (A, b) at x.

    l1: sum of Huber(r_j) with width a_j = mu * v_j**2, v_j = ||A_j||^2,
        r = Ax - b; f = ||r||_1; D = sum v_j**2 / 2.
    linf: mu * log(mean over [r; -r] of exp(./mu)); f = ||r||_inf;
        D = log(2m).
    adaboost: log(mean_j exp(b_j (Ax)_j)), mu = 1; f = max_j b_j (Ax)_j;
        D = log(m).
    """
    m = A.shape[0]
    Ax = A @ x
    psi = lam * float(np.abs(x).sum()) if lam is not None else 0.0
    if app == "l1":
        r = Ax - b
        v = np.asarray(A.multiply(A).sum(axis=1)).ravel()
        a = mu * v * v
        ar = np.abs(r)
        huber = np.where(ar <= a, r * r / (2.0 * a), ar - a / 2.0)
        return OracleValues(float(huber.sum()), float(ar.sum()), 0.5 * float((v * v).sum()), psi)
    if app == "linf":
        r = Ax - b
        z = np.concatenate([r, -r])
        f_mu = mu * (float(logsumexp(z / mu)) - math.log(2 * m))
        return OracleValues(f_mu, float(np.abs(r).max()), math.log(2 * m), psi)
    if app == "adaboost":
        if mu != 1.0:
            raise ValueError("adaboost is the mu = 1 smoothing")
        z = b * Ax
        return OracleValues(float(logsumexp(z)) - math.log(m), float(z.max()), math.log(m), psi)
    raise ValueError(f"unknown app {app!r}")


def l1_lp_optimum(A: sp.csr_matrix, b: np.ndarray, lam: float) -> float:
    """min_x ||Ax - b||_1 + lam ||x||_1 as an LP, solved by HiGHS.

    Variables x = p - q with p, q >= 0 and t >= |Ax - b|.
    """
    m, n = A.shape
    eye = sp.identity(m, format="csr")
    A_ub = sp.bmat([[A, -A, -eye], [-A, A, -eye]], format="csc")
    b_ub = np.concatenate([b, -b])
    c = np.concatenate([np.full(2 * n, lam), np.ones(m)])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP failed: {res.message}")
    return float(res.fun)


def check_solution(
    *,
    app: str,
    A: sp.csr_matrix,
    b: np.ndarray,
    mu: float,
    lam: float | None,
    target: float,
    final_x: np.ndarray,
    last_value: float,
    target_reached: bool,
    lp_optimum: float | None = None,
) -> list[str]:
    """The reasons a solver result is wrong; empty when it passes.

    The last traced value must be the oracle's F_mu at final_x and at most
    the target; the sandwich f_mu <= f <= f_mu + mu D must hold there;
    with an LP optimum, the unsmoothed F at final_x must not undercut it.
    """
    bad = []
    if not target_reached:
        bad.append("target_reached is false")
    o = evaluate(app, A, b, final_x, mu, lam)
    if not abs(last_value - o.F_mu) <= VALUE_RTOL * abs(o.F_mu):
        bad.append(f"last traced value {last_value!r} != oracle F_mu {o.F_mu!r}")
    if not last_value <= target:
        bad.append(f"last traced value {last_value!r} above target {target!r}")
    slack = SANDWICH_RTOL * max(abs(o.f), abs(o.f_mu), 1.0)
    if not (o.f_mu <= o.f + slack and o.f <= o.f_mu + mu * o.D + slack):
        bad.append(f"sandwich fails: f_mu={o.f_mu!r} f={o.f!r} mu*D={mu * o.D!r}")
    if lp_optimum is not None and not o.F >= lp_optimum - 1e-7 * abs(lp_optimum):
        bad.append(f"unsmoothed F {o.F!r} below the LP optimum {lp_optimum!r}")
    return bad
