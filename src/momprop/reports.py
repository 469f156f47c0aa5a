"""Fit reports, posterior moment summaries, and the fixed-point driver
shared by the mean-field and moment-propagation fitters."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .exceptions import DomainError

TERMINATED_CONVERGED = "converged"
TERMINATED_MAX_ITER = "max_iter"


@dataclass
class FitReport:
    """Outcome of one fit.

    params maps q-density names (e.g. "beta", "sigma2") to the fitted
    approximation objects. trace holds the flattened monitored parameter
    vector after each sweep, and is None for a closed form or a sampler;
    convergence is declared at the first sweep whose vector differs from
    the previous one by less than eps in the max norm. wrong_basin stays
    None unless the model's moment equations have a second, inexact
    solution; it then tells whether the fit converged to that one.
    """

    method: str
    params: dict[str, Any]
    iterations: int
    converged: bool
    termination: str
    trace: list[np.ndarray] | None = field(default_factory=list)
    wrong_basin: bool | None = None


@dataclass
class MomentSummary:
    """First two posterior moments of the coefficient-like block, plus an
    optional scalar block (e.g. a variance parameter), tagged by method."""

    method: str
    mean: np.ndarray
    cov: np.ndarray
    scalar_mean: float | None = None
    scalar_var: float | None = None
    mc_se: np.ndarray | None = None

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))


def check_iteration_args(eps: float, max_iter: int) -> None:
    """Reject a non-positive tolerance or an iteration cap below one."""
    if not eps > 0:
        raise DomainError("eps must be positive")
    if not max_iter >= 1:
        raise DomainError(f"max_iter must be at least 1; got {max_iter}")


def fixed_point(method: str, step: Callable[[Any], tuple[Any, np.ndarray]],
                state: Any, params: Callable[[Any], dict[str, Any]],
                eps: float, max_iter: int) -> FitReport:
    """Iterate state, vector = step(state) until the monitored vector is
    within eps of the previous sweep's in the max norm, or max_iter sweeps.

    params(state) builds the q-densities of the report from the last state.
    """
    check_iteration_args(eps, max_iter)
    trace: list[np.ndarray] = []
    prev = None
    converged = False
    for it in range(1, max_iter + 1):
        state, vec = step(state)
        trace.append(vec)
        if prev is not None and np.max(np.abs(vec - prev)) < eps:
            converged = True
            break
        prev = vec
    return FitReport(method=method, params=params(state), iterations=it,
                     converged=converged, trace=trace,
                     termination=(TERMINATED_CONVERGED if converged
                                  else TERMINATED_MAX_ITER))
