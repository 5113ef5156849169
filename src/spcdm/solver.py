"""Parallel coordinate descent on a smoothed loss plus a separable regularizer.

Each iteration draws a uniform tau-subset of active coordinates and takes
one batched step over it: all tau gradients from the state as the
iteration starts, one vectorised prox (prox_steps), then the nonzero
steps applied.  The batch reproduces, bit for bit, computing every step
from that state and then applying the steps one coordinate at a time in
ascending order, so reruns with the same seed give identical traces.

Which coordinates an iteration visits depends on the seed and the round
alone, so run draws an epoch's subsets at once and gathers their columns
in spans (SmoothedLoss.columns), with no state read.  A span's steps run
in groups none of whose steps reads what another writes, each gathered,
stepped and landed at once (SmoothState.wave, steps and land): waves of
iterations that share no row for the exponential losses, whose
normaliser lse_acc, the one thing that chains them, steps solves for in
a few vectorised passes over the wave, and for l1, which has none,
levels (problem.Levels): a step waits only for the earlier steps that
share a row with it, so one prox takes a level's steps from many
iterations.  A refresh or a target check in mid-epoch cuts a group; a
check that reads lse_acc alone falls only where the state says the
target may have been reached (SmoothState.acc_bound).
"""

from __future__ import annotations

import bisect
import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .eso import dual_weights, primal_weights, select_eso
from .problem import ProblemData, row_sparsity
from .sampling import SamplingSpec, draw
from .smoothing import SmoothedLoss, evaluate, init_state, loss_constants

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
        # a ufunc reduction: a BLAS dot may split over threads
        return 0.5 * self.delta * float((w * x * x).sum())

    @property
    def sigma_psi(self) -> float:
        return self.delta if self.kind == "ridge" else 0.0


def prox_steps(
    grad: np.ndarray, x: np.ndarray, nbw: np.ndarray, w: np.ndarray, reg: Regularizer
) -> np.ndarray:
    """Exact minimizers h of grad*h + (beta*w/2)*h^2 + Psi_i(x + h), elementwise.

    nbw is the curvature negated, -(beta + reg.sigma_psi) * w, as run
    computes it once (IEEE division is exact up to sign); w is read by
    ridge only.  Every curvature must be positive and finite, as run's
    active weights make them: the quadratic term is what makes the
    parallel update safe.  max and min keep Python's choice on ties, so a
    zero step has the sign the scalar formula gives it.
    """
    if reg.kind == "none":
        return grad / nbw
    if reg.kind == "ridge":  # gradient of the quadratic model plus delta*w*(x+h) vanishes
        return (grad + reg.delta * w * x) / nbw
    u = x + grad / nbw
    if reg.kind == "l1":
        shrunk = np.abs(u) + reg.lam / nbw
        return np.copysign(np.where(0.0 > shrunk, 0.0, shrunk), u) - x
    u = np.where(reg.lo > u, reg.lo, u)  # box
    return np.where(reg.hi < u, reg.hi, u) - x


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
    after a fresh recompute every trace_every epochs.

    With a cfg.target_value the run stops as soon as the objective
    reaches it, in mid-epoch too (see _run_epoch): a step is checked
    from the running value of the state, and the stop is confirmed by a
    fresh evaluation, which never touches the state.  That value is the
    last trace point, labelled with the epoch in progress, which counts
    in epochs_run; coordinate_updates counts the steps taken.  Every
    trace point before it is the one a run with no target traces.

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

    omega = row_sparsity(pd)
    sigma, _ = loss_constants(loss.kind, pd)
    eso = select_eso(cfg.beta_formula, pd, pw, p=dw.p, tau=cfg.tau)
    beta = eso.beta_prime / (sigma * loss.mu)
    # the column-local ESO scales each coordinate's step, not its w:
    # ridge's Psi stays (delta/2) ||x||_w^2 whichever ESO runs
    betas = beta * eso.factors
    w = pw.w
    # the curvature of each coordinate's step model, negated (prox_steps)
    nbw = -(betas + reg.sigma_psi) * w

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
        "beta_formula": eso.formula,
        "beta_prime": eso.beta_prime,
        "beta": beta,
        "local_beta_max": eso.local_max,
        "sigma": sigma,
        "reg": reg.kind,
        "max_epochs": cfg.max_epochs,
        "trace_every": cfg.trace_every,
        "workers": cfg.workers,
        "target_value": cfg.target_value,
    }

    def objective() -> float:
        return state.value() + reg.value(state.x, w)

    def finite(val: float) -> float:
        if not math.isfinite(val):
            raise SolverDiverged(
                "objective is not finite; beta or mu may be too small"
            )
        return val

    t0 = time.perf_counter()
    trace: list[tuple[int, float]] = [(0, finite(objective()))]
    target = cfg.target_value
    stop = None
    if target is not None:
        # a check reads f_mu from the state (O(m) for l1, O(1) for the
        # exponential losses) and Psi (O(n) unless there is none)
        stop = _Stop(
            target,
            (pd.m if loss.kind == "l1" else 0) + (pd.n if reg.kind != "none" else 0),
            objective,
            lambda: evaluate(loss, state.x) + reg.value(state.x, w),
        )
    updates = 0
    epochs_run = 0
    reached = target is not None and trace[0][1] <= target

    while not reached and epochs_run < cfg.max_epochs:
        # an epoch's subsets and columns depend on no state: draw and
        # gather them all at once, then step through them
        sel = draw(spec, epochs_run * iters_per_epoch, iters_per_epoch)
        block = sel if all_active else active[sel]
        epochs_run += 1
        traces = epochs_run % cfg.trace_every == 0 or epochs_run == cfg.max_epochs
        steps, k = _run_epoch(state, block, nbw, w, reg, stop, traces)
        updates += steps
        # a stop is confirmed once the epoch's gather is released; a
        # refuted check disarms the rest of the epoch, gathered anew
        val = None if k is None else stop.fresh()
        if val is not None and not val <= target:
            updates += _run_epoch(state, block[k + 1:], nbw, w, reg, None, traces)[0]
            val = None
        if val is None and traces:
            state.recompute()
            val = objective()
        if val is not None:
            trace.append((epochs_run, finite(val)))
            reached = target is not None and val <= target
    wall = time.perf_counter() - t0

    return RunReport(
        epochs_run=epochs_run,
        coordinate_updates=updates,
        objective_trace=trace,
        wall_time=wall,
        target_reached=reached,
        # a ufunc reduction: np.linalg.norm's BLAS dot may split over threads
        final_x_norm=math.sqrt(float((state.x * state.x).sum())),
        final_x_nnz=int(np.count_nonzero(state.x)),
        config=config_echo,
        final_x=state.x.copy(),
    )


class _Stop(NamedTuple):
    """run's target check: the target, the entries one check reads, and
    the objective from the running state and from a fresh evaluation."""

    target: float
    cost: int
    running: Callable[[], float]
    fresh: Callable[[], float]


def _run_epoch(
    state, block: np.ndarray, nbw: np.ndarray, w: np.ndarray, reg: Regularizer,
    stop: _Stop | None, traced: bool,
) -> tuple[int, int | None]:
    """Step through the (count, tau) block of column ids, gathered in
    spans, from a state refreshed first where it asks; returns the
    coordinate updates taken, and the index of the iteration after which
    the running value reached the target, or None if the block ran out.

    nbw and w hold every coordinate's negated curvature and weight.  The
    exponential losses step a wave at a time, which ends where a step
    asks for a refresh; l1 steps level by level (Levels) through segments
    of iterations that end where staleness could reach n at tau steps an
    iteration.  With stop, the running value is read, which writes
    nothing to the state, after the steps land, and at most stop.target
    it ends the epoch, for run to confirm.  A check that reads x or r
    (stop.cost > 0) falls once the steps since the last one touched
    stop.cost entries, a known count, so a wave or a segment ends there.
    One that reads lse_acc alone would fall after every iteration; it is
    made where SmoothState.steps ends a wave because the value may have
    reached the target (acc_bound): nowhere else can it.  A traced
    epoch's last step is neither checked nor followed by a refresh
    check: its trace point sees the same x.
    """
    count, tau = block.shape
    n = state.loss.pd.n
    cost = -1 if stop is None else stop.cost  # -1: no check
    touched = k0 = 0  # k0: the epoch's iterations before the span
    last = count - 1 if traced else count
    bound, fmu = -math.inf, None  # state.acc_bound(stop.target) at fmu, for cost 0
    # an exponential that overflows to inf, and the NaN of inf - inf,
    # are needs_recompute's signal, not errors
    with np.errstate(over="ignore", invalid="ignore"):
        for span in state.loss.columns(block, levels=state.loss.kind == "l1"):
            ptr, ids, waves = span.ptr, span.ids.ravel(), span.waves
            nbws, ws = nbw[ids], w[ids]

            def prox(g, x, cols):
                return prox_steps(g, x, nbws[cols], ws[cols], reg)

            a, end = 0, len(ptr) - 1
            while a < end:
                if state.needs_recompute():
                    state.recompute()
                if waves is None:
                    b = min(end, a + (n - state.staleness + tau - 1) // tau)
                else:
                    b = waves[bisect.bisect_right(waves, a)]
                due = False
                if cost > 0:
                    # the first iteration after which a check falls
                    t = bisect.bisect_left(ptr, ptr[a] + cost - touched, a + 1) - 1
                    due = t < b and k0 + t < last
                    b = t + 1 if due else b
                if waves is None:
                    for lo, hi in span.levels.groups(a * tau, b * tau):
                        state.steps(state.wave(span, lo, hi, leveled=True), prox)
                    t = b
                else:
                    if not cost and state.fmu is not fmu:
                        bound, fmu = state.acc_bound(stop.target), state.fmu
                    t, hit = state.steps(state.wave(span, a, b), prox, bound)
                    due = hit or due and t == b
                if cost > 0:
                    touched = 0 if due else touched + ptr[t] - ptr[a]
                a = t
                # NaN, while the state cannot say, is never at most the target
                if due and k0 + t <= last and stop.running() <= stop.target:
                    return (k0 + t) * tau, k0 + t - 1
            k0 += end
            span = None  # released before the next span is gathered
    return block.size, None


def _check_convex_case_formula(formula):
    if isinstance(formula, str) and formula in ("beta2", "beta3", "local"):
        warnings.warn(
            "the non-strongly-convex bound is proved for beta_prime = "
            "min(omega, tau); pairing it with beta2/beta3/local is heuristic",
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
    beta2/beta3/local value only triggers a warning since in practice
    those work as well.

    Under the column-local ESO (formula "local") the step weights are
    beta_i * w_i: pass beta_prime = 1, and measure level_diameter (and
    sigma_fmu, sigma_psi) in the norm with weights beta_i * w_i, not w.
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
    Under the column-local ESO pass beta_prime = 1 and measure that
    diameter (and sigma_fmu, sigma_psi) in the beta_i * w_i norm.

    It is the smoothed bound at mu = eps_prime/(2D): f_mu <= f <= f_mu +
    mu D, so F_mu accuracy eps_prime/2 from an F_mu gap of at most
    initial_gap + eps_prime/2 gives F accuracy eps_prime.
    """
    # eps_prime's own checks, before mu = eps_prime/(2D) hides their names
    _check_bound_args(n=n, tau=tau, beta_prime=beta_prime, eps=eps_prime, rho=rho,
                      initial_gap=initial_gap, mu=1.0, sigma=sigma)
    if D <= 0:
        raise ValueError("D must be positive")
    if case == "convex" and eps_prime**2 >= 8.0 * n * D * beta_prime / (sigma * tau):
        raise ValueError(
            "convex case requires eps_prime^2 < 8 n D beta_prime / (sigma tau)"
        )
    return iter_bound_smoothed(
        case, n=n, tau=tau, beta_prime=beta_prime, mu=eps_prime / (2.0 * D), sigma=sigma,
        eps=eps_prime / 2.0, rho=rho, initial_gap=initial_gap + eps_prime / 2.0,
        sigma_fmu=sigma_fmu, sigma_psi=sigma_psi, level_diameter=level_diameter,
        formula=formula,
    )


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
