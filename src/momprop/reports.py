"""Fit reports, posterior moment summaries, and the fixed-point driver
shared by every iterative fitter (sweeps, Newton steps and probit MP's
outer iterations)."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .exceptions import DomainError, NumericError, UndefinedMomentError
from .moments import (GaussianApprox, InverseGammaApprox, StudentTApprox,
                      ig_mean_var)

@dataclass
class FitReport:
    """Outcome of one fit.

    params maps q-density names (e.g. "beta", "sigma2") to the fitted
    approximation objects. trace holds the flattened monitored parameter
    vector after each map evaluation (a sweep, a Newton step, or a probit
    MP outer iteration), and is None for a closed form or a sampler, and
    in a CLI fit whose trace is not written (see cli._fit); iterations
    counts those evaluations, so an iterative fit with a trace has
    len(trace) == iterations. Convergence is declared at the first map
    output that differs from the previous one, the map's input, by less
    than eps in the max norm (see fixed_point). wrong_basin stays None unless
    the model's moment equations have a second, inexact solution; it then
    tells whether the fit converged to that one.
    """

    params: dict[str, Any]
    iterations: int
    converged: bool
    termination: str
    trace: list[np.ndarray] | None = field(default_factory=list)
    wrong_basin: bool | None = None


@dataclass
class MomentSummary:
    """First two posterior moments of the coefficient-like block, plus an
    optional scalar block (e.g. a variance parameter)."""

    mean: np.ndarray
    cov: np.ndarray
    scalar_mean: float | None = None
    scalar_var: float | None = None
    mc_se: np.ndarray | None = None

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = np.atleast_2d(np.asarray(self.cov, dtype=float))


def _or_inf(approx, moment: str) -> np.ndarray:
    """approx's mean or cov, all inf where a t has too few dof for it."""
    try:
        return getattr(approx, moment)
    except UndefinedMomentError:
        return np.full(approx.scale.shape[:1 + (moment == "cov")], np.inf)


def moment_summary(q: dict[str, Any]) -> MomentSummary:
    """The reported moments of a fitted q, each inf where it does not exist:
    the means of its vector blocks (Gaussian, t or empirical) stacked and
    their covariances block-diagonal, the mean and variance of its
    inverse-gamma block, and an empirical block's Monte Carlo errors. Other
    blocks (inverse-Wishart, auxiliary) are left out."""
    vectors = [a for a in q.values() if isinstance(
        a, (GaussianApprox, StudentTApprox, MomentSummary))]
    covs = [_or_inf(a, "cov") for a in vectors]
    ends = np.cumsum([len(c) for c in covs])
    cov = np.zeros((ends[-1], ends[-1]))
    for c, e in zip(covs, ends):
        cov[e - len(c):e, e - len(c):e] = c
    summary = MomentSummary(
        np.concatenate([_or_inf(a, "mean") for a in vectors]), cov)
    for approx in q.values():
        if isinstance(approx, InverseGammaApprox):
            summary.scalar_mean, summary.scalar_var = ig_mean_var(
                approx, undefined=np.inf)
        elif isinstance(approx, MomentSummary):
            summary.mc_se = approx.mc_se
    return summary


def fixed_point(step: Callable[[Any], tuple[Any, np.ndarray]], state: Any,
                params: Callable[[Any], dict[str, Any]], eps: float,
                max_iter: int) -> FitReport:
    """Iterate state, vector = step(state) until the monitored vector is
    within eps of the previous one in the max norm, or max_iter map
    evaluations. Every vector is a trace entry; the first is never tested,
    so a map started at its own fixed point stops at the second.

    params(state) builds the q-densities of the report from the last state;
    a DomainError there is a NumericError, as the fit made the invalid value.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    if not max_iter >= 1:
        raise DomainError(f"max_iter must be at least 1; got {max_iter}")
    trace: list[np.ndarray] = []
    converged = False
    while not converged and len(trace) < max_iter:
        state, vec = step(state)
        converged = bool(trace) and bool(np.abs(vec - trace[-1]).max() < eps)
        trace.append(vec)
    try:
        q = params(state)
    except DomainError as exc:
        raise NumericError(f"the fitted q-density is invalid: {exc}") from exc
    return FitReport(params=q, iterations=len(trace),
                     converged=converged, trace=trace,
                     termination="converged" if converged else "max_iter")
