"""Parallel coordinate descent on smoothed max-structured losses.

Minimizes F = f_mu + Psi where f is an L-infinity or L1 residual norm,
or the log-exponential boosting loss, by updating random tau-subsets of
coordinates in parallel with steps sized by exact separable
overapproximation parameters (w*, beta).
"""

from .eso import beta1, beta2, beta3
from .problem import ProblemData, load_svmlight, save_svmlight, synth_problem
from .smoothing import (
    evaluate,
    init_state,
    loss_constants,
    make_loss,
    nonsmooth_value,
    prepare_problem,
)
from .solver import (
    Regularizer,
    RunReport,
    SolverConfig,
    SolverDiverged,
    choose_mu,
    iter_bound_nonsmooth,
    iter_bound_smoothed,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "ProblemData",
    "Regularizer",
    "RunReport",
    "SolverConfig",
    "SolverDiverged",
    "beta1",
    "beta2",
    "beta3",
    "choose_mu",
    "evaluate",
    "init_state",
    "iter_bound_nonsmooth",
    "iter_bound_smoothed",
    "load_svmlight",
    "loss_constants",
    "make_loss",
    "nonsmooth_value",
    "prepare_problem",
    "run",
    "save_svmlight",
    "synth_problem",
]
