"""Approximating-density types, their moments, and moment-matching solvers.

Conventions:

* Inverse-gamma IG(shape, scale) has density proportional to
  x^-(shape+1) exp(-scale/x); mean scale/(shape-1), needs shape > 1.
* Inverse-Wishart IW(scale_matrix, dof) has mean scale_matrix/(dof - p - 1),
  needs dof > p + 1.
* Multivariate t(loc, scale, dof) has covariance dof/(dof-2) * scale.

SPD checks use Cholesky success and a finite factor; symmetry drift is
removed with (M + M^T)/2 before checking.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np

from .exceptions import DomainError, UndefinedMomentError


def symmetrize(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    return 0.5 * (m + m.T)


def require_finite(a, name: str) -> np.ndarray:
    """a as a float array, with nan and inf rejected."""
    arr = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} must be finite")
    return arr


def require_whole(x, name: str) -> int:
    """x as an int, with a fractional or non-finite value rejected."""
    if not float(x).is_integer():
        raise DomainError(f"{name} must be a whole number")
    return int(x)


def require_spd(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Symmetrize and verify positive definiteness via Cholesky. The
    factorization either rejects a non-finite entry or leaves the factor's
    diagonal sum non-finite, so one scalar test catches it."""
    m = symmetrize(m)
    try:
        finite = isfinite(np.linalg.cholesky(m).trace())
    except np.linalg.LinAlgError as exc:
        if np.all(np.isfinite(m)):
            raise DomainError(f"{name} is not positive definite") from exc
        finite = False
    if not finite:
        raise DomainError(f"{name} must be finite")
    return m


def require_shape(a: np.ndarray, shape: tuple, name: str) -> np.ndarray:
    """a, whose shape must be the data's."""
    if a.shape != shape:
        raise DomainError(f"{name} has shape {a.shape}; the data needs "
                          f"{shape}")
    return a


@dataclass
class RegressionData:
    """A response vector y and design matrix X with matching, non-zero row
    counts and finite entries."""

    y: np.ndarray
    X: np.ndarray

    def __post_init__(self):
        self.y = np.atleast_1d(require_finite(self.y, "y"))
        self.X = np.atleast_2d(require_finite(self.X, "X"))
        if self.X.shape[0] != self.y.shape[0]:
            raise DomainError("y and X row counts differ")
        if self.X.shape[0] < 1:
            raise DomainError("need at least one observation")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]


@dataclass
class GaussianApprox:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        self.cov = require_spd(np.atleast_2d(self.cov), "cov")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]


@dataclass
class StudentTApprox:
    loc: np.ndarray
    scale: np.ndarray
    dof: float

    def __post_init__(self):
        self.loc = np.atleast_1d(np.asarray(self.loc, dtype=float))
        self.scale = require_spd(np.atleast_2d(self.scale), "scale")
        self.dof = float(self.dof)
        if not isfinite(self.dof):
            raise DomainError("t dof must be finite")
        if not self.dof > 0:
            raise DomainError("dof must be positive")

    @property
    def dim(self) -> int:
        return self.loc.shape[0]

    @property
    def mean(self) -> np.ndarray:
        if self.dof <= 1:
            raise UndefinedMomentError("t mean needs dof > 1")
        return self.loc

    @property
    def cov(self) -> np.ndarray:
        if self.dof <= 2:
            raise UndefinedMomentError("t covariance needs dof > 2")
        return self.dof / (self.dof - 2.0) * self.scale


@dataclass
class InverseGammaApprox:
    shape: float
    scale: float

    def __post_init__(self):
        self.shape = float(self.shape)
        self.scale = float(self.scale)
        if not (isfinite(self.shape) and isfinite(self.scale)):
            raise DomainError("inverse-gamma shape and scale must be finite")
        if not (self.shape > 0 and self.scale > 0):
            raise DomainError("inverse-gamma shape and scale must be positive")


@dataclass
class InverseWishartApprox:
    scale_matrix: np.ndarray
    dof: float

    def __post_init__(self):
        self.scale_matrix = require_spd(np.atleast_2d(self.scale_matrix),
                                        "scale_matrix")
        self.dof = float(self.dof)
        if not (isfinite(self.dof) and self.dof > self.dim - 1):
            raise DomainError("inverse-Wishart dof must be finite and "
                              "exceed p - 1")

    @property
    def dim(self) -> int:
        return self.scale_matrix.shape[0]


def ig_mean_var(a: InverseGammaApprox, undefined=None) -> tuple[float, float]:
    """Mean and variance of IG(shape, scale). One that does not exist is
    undefined, or an UndefinedMomentError where undefined is None."""
    if undefined is None and a.shape <= 2:
        raise UndefinedMomentError("inverse-gamma mean needs shape > 1"
                                   if a.shape <= 1 else
                                   "inverse-gamma variance needs shape > 2")
    return (a.scale / (a.shape - 1.0) if a.shape > 1 else undefined,
            a.scale**2 / ((a.shape - 1.0) ** 2 * (a.shape - 2.0))
            if a.shape > 2 else undefined)


def ig_moment_match(mean: float, variance: float) -> InverseGammaApprox:
    """Inverse-gamma with the given mean and variance (exact inverse of ig_mean_var)."""
    if not (mean > 0 and variance > 0):
        raise DomainError("mean and variance must be positive")
    shape = mean**2 / variance + 2.0
    scale = mean * (shape - 1.0)
    return InverseGammaApprox(shape=shape, scale=scale)


def iw_mean(w: InverseWishartApprox) -> np.ndarray:
    p = w.dim
    if w.dof <= p + 1:
        raise UndefinedMomentError("inverse-Wishart mean needs dof > p + 1")
    return w.scale_matrix / (w.dof - p - 1.0)


def iw_elementwise_var_diag(w: InverseWishartApprox) -> np.ndarray:
    """Variances of the diagonal entries: 2 dg(Psi)^2 / ((d-p-1)^2 (d-p-3))."""
    p = w.dim
    if w.dof <= p + 3:
        raise UndefinedMomentError(
            "inverse-Wishart element variances need dof > p + 3")
    dg = np.diag(w.scale_matrix)
    return 2.0 * dg**2 / ((w.dof - p - 1.0) ** 2 * (w.dof - p - 3.0))


def iw_moment_match(mean_matrix: np.ndarray,
                    trace_elementwise_var: float) -> InverseWishartApprox:
    """Inverse-Wishart matching a mean matrix and the summed diagonal variance.

    Inverse pair with (iw_mean, sum of iw_elementwise_var_diag).
    """
    mean_matrix = require_spd(mean_matrix, "mean_matrix")
    if not trace_elementwise_var > 0:
        raise DomainError("trace_elementwise_var must be positive")
    dof, scale_matrix = _iw_match(mean_matrix, trace_elementwise_var)
    return InverseWishartApprox(scale_matrix=scale_matrix, dof=dof)


def _iw_match(mean_matrix: np.ndarray, trace_elementwise_var: float
              ) -> tuple[float, np.ndarray]:
    """(dof, scale matrix) of iw_moment_match, without its input checks."""
    p = mean_matrix.shape[0]
    dof = (2.0 * np.sum(np.diag(mean_matrix) ** 2) / trace_elementwise_var
           + p + 3.0)
    return dof, (dof - p - 1.0) * mean_matrix


def _gauss_quadform(tr_AS, tr_ASAS):
    """Mean and variance of the centred form (x-mu)^T A (x-mu) for
    x ~ N(mu, Sigma), from tr(A Sigma) and tr((A Sigma)^2)."""
    return tr_AS, 2.0 * tr_ASAS


def _t_quadform(tr_AS, tr_ASAS, a, b):
    """Mean and variance of the centred form (x-mu)^T A (x-mu) for
    x ~ t(mu, a Sigma, b), from tr(A Sigma) and tr((A Sigma)^2)."""
    if b <= 2:
        raise UndefinedMomentError("t quadratic-form mean needs dof > 2")
    if b <= 4:
        raise UndefinedMomentError("t quadratic-form variance needs dof > 4")
    mean = a * b / (b - 2.0) * tr_AS
    var = (2.0 * a**2 * b**2 * tr_ASAS / ((b - 2.0) * (b - 4.0))
           + 2.0 * a**2 * b**2 * tr_AS**2 / ((b - 2.0) ** 2 * (b - 4.0)))
    return mean, var
