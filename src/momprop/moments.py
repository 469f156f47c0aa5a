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

from .exceptions import DomainError, NumericError, UndefinedMomentError


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


def require_regression(y, X) -> tuple[np.ndarray, np.ndarray]:
    """y as a vector and X as a matrix of finite floats, with matching,
    non-zero row counts; neither is copied where it is already float."""
    y = np.atleast_1d(require_finite(y, "y"))
    X = np.atleast_2d(require_finite(X, "X"))
    if X.shape[0] != y.shape[0]:
        raise DomainError("y and X row counts differ")
    if X.shape[0] < 1:
        raise DomainError("need at least one observation")
    return y, X


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
        return _t_cov(self.scale, self.dof)


def _t_cov(scale, dof):
    """Covariance of a t with this scale and dof, which must exceed 2."""
    if dof <= 2:
        raise UndefinedMomentError("t covariance needs dof > 2")
    return dof / (dof - 2.0) * scale


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


def _iw_diag_ig(dof, p, psi):
    """IG((dof - p + 1)/2, psi/2), the marginal of entry psi of IW's diag."""
    return (dof - p + 1.0) / 2.0, psi / 2.0


def iw_diag_marginal(w: InverseWishartApprox, j: int) -> InverseGammaApprox:
    """Marginal of the (j, j) entry of an IW matrix: IG((d-p+1)/2, psi_jj/2)."""
    if not 0 <= j < w.dim:
        raise DomainError("diagonal index out of range")
    return InverseGammaApprox(*_iw_diag_ig(w.dof, w.dim, w.scale_matrix[j, j]))


def _ig_mean(shape, scale):
    """Mean of IG(shape, b), b fixed or random with mean scale."""
    return scale / (shape - 1.0)


def _ig_var(shape, scale, scale_var):
    """Variance of IG(shape, b), b of mean scale and variance scale_var."""
    return (scale**2 / ((shape - 1.0) ** 2 * (shape - 2.0))
            + scale_var / ((shape - 1.0) * (shape - 2.0)))


def ig_mean_var(a: InverseGammaApprox, undefined=None) -> tuple[float, float]:
    """Mean and variance of IG(shape, scale). One that does not exist is
    undefined, or an UndefinedMomentError where undefined is None."""
    if undefined is None and a.shape <= 2:
        raise UndefinedMomentError("inverse-gamma mean needs shape > 1"
                                   if a.shape <= 1 else
                                   "inverse-gamma variance needs shape > 2")
    mean = _ig_mean(a.shape, a.scale) if a.shape > 1 else undefined
    if not a.shape > 2:
        return mean, undefined
    shape, scale = np.float64(a.shape), np.float64(a.scale)
    # in float64 scale**2 and (shape - 1)**2 (shape - 2) may overflow where
    # the variance does not; mean**2 / (shape - 2) is its other form
    with np.errstate(over="ignore", invalid="ignore"):
        var = _ig_var(shape, scale, 0.0)
        return mean, (var if isfinite(var)
                      else _ig_mean(shape, scale) ** 2 / (shape - 2.0))


def require_matchable(x: float, name: str) -> None:
    """NumericError unless (x - 1)^2 (x - 2) is a finite double, as moment
    matching needs of an IG shape x (_ig_var's denominator) and of a t dof
    x (_t_quadform's (x - 2)^2 (x - 4), finite alike): below x ~ 5.6e102.
    Beyond, the IG variance loses its leading term, and a t dof's square
    overflows from x ~ 1.3e154 on."""
    x = float(x)
    if not isfinite((x - 1.0) * (x - 1.0) * (x - 2.0)):
        raise NumericError(f"{name} {x:g} is too large for moment matching")


def ig_moment_match(mean: float, variance: float) -> InverseGammaApprox:
    """Inverse-gamma with the given mean and variance (exact inverse of ig_mean_var)."""
    if not (mean > 0 and variance > 0):
        raise DomainError("mean and variance must be positive")
    shape = mean**2 / variance + 2.0
    scale = mean * (shape - 1.0)
    return InverseGammaApprox(shape=shape, scale=scale)


def iw_mean(w: InverseWishartApprox) -> np.ndarray:
    """Psi / (dof - p - 1), entry by entry the mean of the IG marginals."""
    if w.dof <= w.dim + 1:
        raise UndefinedMomentError("inverse-Wishart mean needs dof > p + 1")
    return _ig_mean(*_iw_diag_ig(w.dof, w.dim, w.scale_matrix))


def iw_elementwise_var_diag(w: InverseWishartApprox) -> np.ndarray:
    """Variances of the diagonal entries, those of their IG marginals."""
    if w.dof <= w.dim + 3:
        raise UndefinedMomentError(
            "inverse-Wishart element variances need dof > p + 3")
    return _ig_var(*_iw_diag_ig(w.dof, w.dim, np.diag(w.scale_matrix)), 0.0)


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


def _t_quadform(tr_AS, tr_ASAS, b):
    """Mean and variance of the centred form (x-mu)^T A (x-mu) for
    x ~ t(mu, Sigma, b), from tr(A Sigma) and tr((A Sigma)^2)."""
    mean = _t_cov(tr_AS, b)
    if b <= 4:
        raise UndefinedMomentError("t quadratic-form variance needs dof > 4")
    var = (2.0 * b**2 * tr_ASAS / ((b - 2.0) * (b - 4.0))
           + 2.0 * b**2 * tr_AS**2 / ((b - 2.0) ** 2 * (b - 4.0)))
    return mean, var
