"""Fit reports, posterior moment summaries, and the fixed-point driver
shared by every iterative fitter (sweeps and damped Newton steps)."""

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
    vector after each map evaluation (a sweep), and is None for a closed
    form or a sampler; iterations counts those evaluations, so an iterative
    fit has len(trace) == iterations. Convergence is declared at the first
    map output that differs from the previous one, the map's input, by less
    than eps in the max norm; the output of an extrapolated map (see
    fixed_point) is never tested. wrong_basin stays None unless the model's
    moment equations have a second, inexact solution; it then tells whether
    the fit converged to that one.
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


def _squarem_point(x0: np.ndarray, x1: np.ndarray,
                   x2: np.ndarray) -> np.ndarray | None:
    """The SQUAREM point x0 - 2 a r + a^2 v from x0 and its two maps
    x1 = F(x0), x2 = F(x1), where r = x1 - x0, v = x2 - 2 x1 + x0 and
    a = min(-|r|/|v|, -1); None where a = -1, which would give x2 itself.
    (Varadhan and Roland, Scand. J. Statist. 35, 2008, scheme S3.)"""
    r = x1 - x0
    v = x2 - 2.0 * x1 + x0
    v_norm = np.linalg.norm(v)
    if not v_norm > 0.0:
        return None
    alpha = -np.linalg.norm(r) / v_norm
    if not alpha < -1.0:
        return None
    return x0 - 2.0 * alpha * r + alpha**2 * v


def fixed_point(step: Callable[[Any], tuple[Any, np.ndarray]], state: Any,
                params: Callable[[Any], dict[str, Any]], eps: float,
                max_iter: int,
                extrapolate: tuple[Callable[[Any], np.ndarray],
                                   Callable[[np.ndarray], Any]] | None = None
                ) -> FitReport:
    """Iterate state, vector = step(state) until the monitored vector is
    within eps of the previous map output's in the max norm, or max_iter
    map evaluations.

    params(state) builds the q-densities of the report from the last state.
    extrapolate = (pack, unpack) turns on SQUAREM: pack(state) is the
    vector x that the map F moves, and unpack(x) the state to map from x,
    or None if x is not a valid point. Each cycle maps x0 twice, then maps
    the SQUAREM point once; it goes on from x2 = F(F(x0)) instead when the
    step length is 1, when unpack rejects the point or when stepping from
    it raises NumericError. Every map output is a trace entry and counts
    as an iteration. The stopping test compares a plain map's output with
    the previous one, which is that map's input; the output of a map from
    a SQUAREM point is not tested, as its input is not in the trace.
    """
    if not eps > 0:
        raise DomainError("eps must be positive")
    if not max_iter >= 1:
        raise DomainError(f"max_iter must be at least 1; got {max_iter}")
    pack, unpack = extrapolate or (None, None)
    trace: list[np.ndarray] = []
    converged, cycle = False, []  # cycle: packed x0 and x1 of the cycle
    while not converged and len(trace) < max_iter:
        if len(cycle) == 2:
            leap = _squarem_point(*cycle, pack(state))
            cycle = []
            leap_state = None if leap is None else unpack(leap)
            if leap_state is not None:
                try:
                    state, vec = step(leap_state)
                except NumericError:
                    pass
                else:
                    trace.append(vec)
                    continue
        if pack is not None:
            cycle.append(pack(state))
        state, vec = step(state)
        converged = bool(trace) and bool(np.max(np.abs(vec - trace[-1])) < eps)
        trace.append(vec)
    return FitReport(params=params(state), iterations=len(trace),
                     converged=converged, trace=trace,
                     termination="converged" if converged else "max_iter")
