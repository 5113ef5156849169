"""Parallel coordinate descent on a smoothed loss plus a separable regularizer.

Each iteration draws a uniform tau-subset of active coordinates and takes
one batched step over it: all tau gradients from a frozen snapshot of the
state (SmoothState.gradients), one vectorised prox (prox_steps), then one
application of the nonzero steps (SmoothState.apply_steps).  The batch
reproduces, bit for bit, computing every step from the snapshot and then
applying the steps one coordinate at a time in ascending order, so reruns
with the same seed give identical traces.

Which coordinates an iteration visits depends on the seed and the round
alone, so run draws an epoch's subsets in one call (draw with count) and
gathers their columns in one pass (SmoothedLoss.columns on the block);
only the gradient, prox and update steps run per iteration.  A refresh
in mid-epoch changes the state, never the subsets or the columns.

A step gathers what it reads of the state once, and exponentiates each
residual once.  SmoothState.gradients gathers x and r at the selected
columns, and for the exponential losses exp((r - fmu)/mu), and returns
them as a Snapshot beside the gradients.  apply_steps takes that
Snapshot: it exponentiates only the new residuals, plus the old ones at
entries whose row an earlier selected column moved, and writes r and x
by assignment; only when two selected columns share a row does it add
into r with np.add.at.  What depends on no state is done once per
epoch: the np.errstate that lets an overflow to inf (needs_recompute's
signal) pass quietly, the weights of the block, l1's Huber thresholds
at the block's rows, and each selection's common column length, which
lets a step reshape its entries in place of gathering them.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .eso import EsoParams, dual_weights, primal_weights, select_beta_prime
from .problem import ProblemData, row_sparsity
from .sampling import SamplingSpec, draw
from .smoothing import SmoothedLoss, init_state, loss_constants

REPORT_SCHEMA = 1


class SolverDiverged(RuntimeError):
    """Objective became non-finite; beta (or mu) is likely too small."""


@dataclass(frozen=True)
class Regularizer:
    """Separable regularizer Psi.  kinds: none, l1, box, ridge.

    l1 is lam * sum|x_i|; box is the indicator of [lo, hi]; ridge is
    (delta/2) * ||x||_w^2 in the solver's coordinate weights, so its
    strong-convexity modulus in that norm is exactly delta.
    """

    kind: str = "none"
    lam: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf
    delta: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "l1", "box", "ridge"):
            raise ValueError(f"unknown regularizer {self.kind!r}")
        if self.kind == "l1" and not (self.lam >= 0 and math.isfinite(self.lam)):
            raise ValueError(f"lam must be nonnegative and finite, got {self.lam!r}")
        if self.kind == "box" and not self.lo <= self.hi:
            raise ValueError("box needs lo <= hi")
        if self.kind == "ridge" and not (self.delta >= 0 and math.isfinite(self.delta)):
            raise ValueError(f"delta must be nonnegative and finite, got {self.delta!r}")

    @classmethod
    def none(cls) -> "Regularizer":
        return cls()

    @classmethod
    def l1(cls, lam: float) -> "Regularizer":
        return cls(kind="l1", lam=lam)

    @classmethod
    def box(cls, lo: float, hi: float) -> "Regularizer":
        return cls(kind="box", lo=lo, hi=hi)

    @classmethod
    def ridge(cls, delta: float) -> "Regularizer":
        return cls(kind="ridge", delta=delta)

    def value(self, x: np.ndarray, w: np.ndarray) -> float:
        if self.kind == "none":
            return 0.0
        if self.kind == "l1":
            return self.lam * float(np.abs(x).sum())
        if self.kind == "box":
            if np.all((x >= self.lo) & (x <= self.hi)):
                return 0.0
            return math.inf
        return 0.5 * self.delta * float(np.dot(w * x, x))

    @property
    def sigma_psi(self) -> float:
        return self.delta if self.kind == "ridge" else 0.0


def prox_steps(
    grad: np.ndarray, x: np.ndarray, beta: float, w: np.ndarray, reg: Regularizer
) -> np.ndarray:
    """Exact minimizers h of grad*h + (beta*w/2)*h^2 + Psi_i(x + h), elementwise.

    Every beta*w must be positive and finite, as run's active weights
    make them: the quadratic term is what makes the parallel update safe.
    max and min keep Python's choice on ties, so a zero step has the sign
    the scalar formula gives it.
    """
    bw = beta * w
    if reg.kind == "none":
        return -grad / bw
    if reg.kind == "l1":
        u = x - grad / bw
        shrunk = np.abs(u) - reg.lam / bw
        return np.copysign(np.where(0.0 > shrunk, 0.0, shrunk), u) - x
    if reg.kind == "box":
        u = x - grad / bw
        u = np.where(reg.lo > u, reg.lo, u)
        return np.where(reg.hi < u, reg.hi, u) - x
    # ridge: gradient of the quadratic model plus delta*w*(x+h) vanishes
    return -(grad + reg.delta * w * x) / ((beta + reg.delta) * w)


@dataclass(frozen=True)
class SolverConfig:
    """Run settings.  workers is validated and echoed in the report but no
    longer changes execution: every run takes the same batched step."""

    tau: int
    seed: int = 0
    beta_formula: str | float = "auto"
    max_epochs: int = 100
    target_value: float | None = None
    trace_every: int = 1
    workers: int = 1

    def __post_init__(self):
        for name in ("tau", "seed", "max_epochs", "trace_every", "workers"):
            v = getattr(self, name)
            # numpy integers are Integral; bool is an int but not a count
            if isinstance(v, bool) or not isinstance(v, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {v!r}")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.trace_every < 1:
            raise ValueError("trace_every must be >= 1")
        if self.target_value is not None and math.isnan(self.target_value):
            raise ValueError("target_value must not be NaN")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")


@dataclass
class RunReport:
    """Outcome of a run; to_dict round-trips losslessly through JSON."""

    epochs_run: int
    coordinate_updates: int
    objective_trace: list[tuple[int, float]]
    wall_time: float
    target_reached: bool
    final_x_norm: float
    final_x_nnz: int
    config: dict = field(default_factory=dict)
    final_x: np.ndarray | None = None

    def to_dict(self) -> dict:
        return {
            "schema": REPORT_SCHEMA,
            "epochs_run": self.epochs_run,
            "coordinate_updates": self.coordinate_updates,
            "objective_trace": [[int(e), float(v)] for e, v in self.objective_trace],
            "wall_time": self.wall_time,
            "target_reached": self.target_reached,
            "final_x_norm": self.final_x_norm,
            "final_x_nnz": self.final_x_nnz,
            "config": self.config,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunReport":
        if d.get("schema") != REPORT_SCHEMA:
            raise ValueError(f"unsupported report schema {d.get('schema')!r}")
        return cls(
            epochs_run=d["epochs_run"],
            coordinate_updates=d["coordinate_updates"],
            objective_trace=[(int(e), float(v)) for e, v in d["objective_trace"]],
            wall_time=d["wall_time"],
            target_reached=d["target_reached"],
            final_x_norm=d["final_x_norm"],
            final_x_nnz=d["final_x_nnz"],
            config=d["config"],
        )


def choose_mu(eps_prime: float, D: float) -> float:
    """Smoothing level eps' / (2 D) matching a desired accuracy on f."""
    if not (eps_prime > 0 and math.isfinite(eps_prime)):
        raise ValueError(f"eps_prime must be positive and finite, got {eps_prime!r}")
    if D <= 0:
        raise ValueError("D must be positive")
    return eps_prime / (2.0 * D)


def run(
    pd: ProblemData,
    loss: SmoothedLoss,
    reg: Regularizer,
    cfg: SolverConfig,
) -> RunReport:
    """Minimize f_mu + Psi over cfg.max_epochs epochs of parallel updates.

    pd must be the working matrix the loss was built on.  An epoch is
    ceil(n_active / tau) iterations, roughly one expected visit per
    coordinate.  The objective (f_mu plus the regularizer) is traced
    after a fresh recompute every trace_every epochs; the run stops
    early once the traced value reaches cfg.target_value.

    Raises SolverDiverged if a traced value is not finite.
    """
    if pd is not loss.pd and not pd.same_as(loss.pd):
        raise ValueError("loss is not bound to the given problem data")
    if reg.kind == "box" and not reg.lo <= 0.0 <= reg.hi:
        raise ValueError("box regularizer must contain the starting point 0")

    dw = dual_weights(pd, loss.kind)
    pw = primal_weights(pd, dw)
    active = np.flatnonzero(pw.active)
    if active.size == 0:
        raise ValueError("no active columns")
    if cfg.tau > active.size:
        raise ValueError(f"tau={cfg.tau} exceeds {active.size} active columns")
    all_active = active.size == pd.n

    omega = row_sparsity(pd).omega
    sigma, _ = loss_constants(loss.kind, pd)
    beta_prime, formula = select_beta_prime(
        cfg.beta_formula,
        omega=omega,
        tau=cfg.tau,
        n=int(active.size),
        m=pd.m,
        p=dw.p,
    )
    params = EsoParams(beta_prime=beta_prime, formula=formula, sigma=sigma, mu=loss.mu)
    beta = params.beta
    w = pw.w

    spec = SamplingSpec(n=int(active.size), tau=cfg.tau, seed=cfg.seed)
    iters_per_epoch = -(-active.size // cfg.tau)

    state = init_state(loss)
    config_echo = {
        "app": loss.kind,
        "m": pd.m,
        "n": pd.n,
        "omega": omega,
        "tau": cfg.tau,
        "seed": cfg.seed,
        "mu": loss.mu,
        "beta_formula": formula,
        "beta_prime": beta_prime,
        "beta": beta,
        "sigma": sigma,
        "reg": reg.kind,
        "max_epochs": cfg.max_epochs,
        "trace_every": cfg.trace_every,
        "workers": cfg.workers,
        "target_value": cfg.target_value,
    }

    def traced_value() -> float:
        val = state.value() + reg.value(state.x, w)
        if not math.isfinite(val):
            raise SolverDiverged(
                "objective is not finite; beta or mu may be too small"
            )
        return val

    t0 = time.perf_counter()
    trace: list[tuple[int, float]] = [(0, traced_value())]
    target = cfg.target_value
    updates = 0
    epochs_run = 0
    reached = target is not None and trace[0][1] <= target

    while not reached and epochs_run < cfg.max_epochs:
        # an epoch's subsets and columns depend on no state: draw and
        # gather them all at once, then step through them
        sel = draw(spec, epochs_run * iters_per_epoch, iters_per_epoch)
        block = sel if all_active else active[sel]
        updates += _run_epoch(state, loss.columns(block), beta, w[block], reg)
        epochs_run += 1
        if epochs_run % cfg.trace_every == 0 or epochs_run == cfg.max_epochs:
            state.recompute()
            val = traced_value()
            trace.append((epochs_run, val))
            if target is not None and val <= target:
                reached = True
    wall = time.perf_counter() - t0

    return RunReport(
        epochs_run=epochs_run,
        coordinate_updates=updates,
        objective_trace=trace,
        wall_time=wall,
        target_reached=reached,
        final_x_norm=float(np.linalg.norm(state.x)),
        final_x_nnz=int(np.count_nonzero(state.x)),
        config=config_echo,
        final_x=state.x.copy(),
    )


def _run_epoch(state, batches, beta: float, wb: np.ndarray, reg: Regularizer) -> int:
    """One batched step per ColumnBatch of batches, each from a state
    refreshed first if it asks; returns the coordinate updates taken.

    wb holds the weights of the epoch's block, one row per batch.  The
    epoch's last step is not followed by a check: the trace refresh or
    the next epoch's first check sees the same x.
    """
    updates = 0
    beta = np.array(beta)  # ufuncs take a 0-d array faster than a float
    # an exponential that overflows to inf, and the NaN of inf - inf,
    # are needs_recompute's signal, not errors
    with np.errstate(over="ignore", invalid="ignore"):
        for cols, w in zip(batches, wb):
            if state.needs_recompute():
                state.recompute()
            g, seen = state.gradients(cols)
            h = prox_steps(g, seen.x, beta, w, reg)
            state.apply_steps(cols, h, seen)
            updates += h.size
    return updates


def _check_convex_case_formula(formula):
    if isinstance(formula, str) and formula in ("beta2", "beta3"):
        warnings.warn(
            "the non-strongly-convex bound is proved for beta_prime = "
            "min(omega, tau); pairing it with beta2/beta3 is heuristic",
            stacklevel=3,
        )


def iter_bound_smoothed(
    case: str,
    *,
    n: int,
    tau: int,
    beta_prime: float,
    mu: float,
    sigma: float,
    eps: float,
    rho: float,
    initial_gap: float,
    sigma_fmu: float = 0.0,
    sigma_psi: float = 0.0,
    level_diameter: float | None = None,
    formula: str | None = None,
) -> int:
    """Iterations sufficient to reach F_mu accuracy eps with confidence 1-rho.

    case "strongly_convex" needs sigma_fmu + sigma_psi > 0; case
    "convex" needs the squared w*-diameter of the initial level set and
    requires eps < 2 n beta / tau (beta = beta_prime/(sigma*mu)).  The
    convex case is proved for beta_prime = min(omega, tau); passing a
    beta2/beta3 value only triggers a warning since in practice those
    work as well.
    """
    _check_bound_args(n=n, tau=tau, beta_prime=beta_prime, eps=eps, rho=rho,
                      initial_gap=initial_gap, mu=mu, sigma=sigma)
    log_term = math.log(initial_gap / (eps * rho))
    if case == "strongly_convex":
        if sigma_fmu + sigma_psi <= 0:
            raise ValueError("strongly_convex case needs sigma_fmu + sigma_psi > 0")
        ratio = (beta_prime / (mu * sigma) + sigma_psi) / (sigma_fmu + sigma_psi)
        return math.ceil((n / tau) * ratio * log_term)
    if case == "convex":
        beta = beta_prime / (sigma * mu)
        if eps >= 2 * n * beta / tau:
            raise ValueError("convex case requires eps < 2 n beta / tau")
        if level_diameter is None:
            raise ValueError("convex case needs level_diameter")
        _check_convex_case_formula(formula)
        factor = 2.0 * level_diameter**2 / (mu * sigma * eps)
        return math.ceil((n * beta_prime / tau) * factor * log_term)
    raise ValueError(f"unknown case {case!r}")


def iter_bound_nonsmooth(
    case: str,
    *,
    n: int,
    tau: int,
    beta_prime: float,
    D: float,
    sigma: float,
    eps_prime: float,
    rho: float,
    initial_gap: float,
    sigma_fmu: float = 0.0,
    sigma_psi: float = 0.0,
    level_diameter: float | None = None,
    formula: str | None = None,
) -> int:
    """Iterations sufficient for F accuracy eps_prime at mu = eps_prime/(2D).

    Same two cases as iter_bound_smoothed.  The convex case requires
    eps_prime**2 < 8 n D beta_prime / (sigma tau) and a bound on the
    w*-diameter of the eps_prime/2-enlarged initial level set of F.
    """
    _check_bound_args(n=n, tau=tau, beta_prime=beta_prime, eps=eps_prime, rho=rho,
                      initial_gap=initial_gap, mu=1.0, sigma=sigma)
    if D <= 0:
        raise ValueError("D must be positive")
    log_term = math.log((2.0 * initial_gap + eps_prime) / (eps_prime * rho))
    if case == "strongly_convex":
        if sigma_fmu + sigma_psi <= 0:
            raise ValueError("strongly_convex case needs sigma_fmu + sigma_psi > 0")
        ratio = (2.0 * beta_prime * D / (sigma * eps_prime) + sigma_psi) / (
            sigma_fmu + sigma_psi
        )
        return math.ceil((n / tau) * ratio * log_term)
    if case == "convex":
        if eps_prime**2 >= 8.0 * n * D * beta_prime / (sigma * tau):
            raise ValueError(
                "convex case requires eps_prime^2 < 8 n D beta_prime / (sigma tau)"
            )
        if level_diameter is None:
            raise ValueError("convex case needs level_diameter")
        _check_convex_case_formula(formula)
        factor = 8.0 * D * level_diameter**2 / (sigma * eps_prime**2)
        return math.ceil((n * beta_prime / tau) * factor * log_term)
    raise ValueError(f"unknown case {case!r}")


def _check_bound_args(*, n, tau, beta_prime, eps, rho, initial_gap, mu, sigma):
    if n < 1 or tau < 1 or tau > n:
        raise ValueError("need 1 <= tau <= n")
    if beta_prime <= 0 or mu <= 0 or sigma <= 0:
        raise ValueError("beta_prime, mu and sigma must be positive")
    if eps <= 0:
        raise ValueError("tolerance must be positive")
    if not 0 < rho < 1:
        raise ValueError("rho must be in (0, 1)")
    if initial_gap <= 0:
        raise ValueError("initial_gap must be positive")
