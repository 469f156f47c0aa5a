"""Accuracy metric, moment-error metrics, density grids and a fitted q's
marginal grids, and the toy conditioned-Gaussian comparison of mean-field
vs moment-propagation fits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainccinv, gammaln, poch

from .exceptions import DomainError, NumericError
from .moments import (GaussianApprox, InverseGammaApprox,
                      InverseWishartApprox, StudentTApprox, _iw_diag_ig,
                      _t_cov, require_finite, require_spd, require_whole,
                      symmetrize)
from .reports import MomentSummary, fixed_point

GRID_POINTS = 4001
GRID_SD_SPAN = 10.0
IG_TAIL_QUANTILE = 1e-6
# the largest inverse-gamma shape a grid holds: ig_density's log terms
# cancel as the shape grows, and at 1e8 a grid's mass is still within
# 2.7e-6 of 1, as on ordinary designs (3.5e-3 at 1e12)
IG_SHAPE_CUT = 1e8


@dataclass
class DensityGrid:
    """A 1-D marginal density tabulated on an ascending grid."""

    points: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_1d(np.asarray(self.points, dtype=float))
        self.values = np.atleast_1d(np.asarray(self.values, dtype=float))
        if self.points.shape != self.values.shape:
            raise DomainError("points and values length mismatch")
        if not _ascending(self.points):
            raise DomainError("grid points must be strictly ascending")
        if np.any(self.values < 0):
            raise DomainError("density values must be nonnegative")

    def mass(self) -> float:
        return float(np.trapezoid(self.values, self.points))


def _ascending(points: np.ndarray) -> bool:
    return not np.any(np.diff(points) <= 0)


def accuracy(p_grid: DensityGrid, q_grid: DensityGrid) -> float:
    """L1 overlap score 1 - 0.5 * int |p - q|, in [0, 1] up to grid error."""
    if not np.array_equal(p_grid.points, q_grid.points):
        raise DomainError("accuracy needs both densities on the same grid")
    l1 = np.trapezoid(np.abs(p_grid.values - q_grid.values), p_grid.points)
    return float(1.0 - 0.5 * l1)


def moment_errors(approx: MomentSummary, reference: MomentSummary
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Componentwise mean error and sd error (sd from covariance diagonals)."""
    if approx.mean.shape != reference.mean.shape:
        raise DomainError("moment summaries have different dimensions")
    mean_err = approx.mean - reference.mean
    # inf - inf, where neither SD is defined, is a NaN that the report nulls
    with np.errstate(invalid="ignore"):
        sd_err = np.sqrt(np.diag(approx.cov)) - np.sqrt(np.diag(reference.cov))
    return mean_err, sd_err


# The densities and ig_grid_range evaluate scipy.stats' norm, t and invgamma
# expressions in its order, which gives its values bit for bit.
def gaussian_density(points: np.ndarray, mean: float, var: float) -> DensityGrid:
    sd = np.sqrt(var)
    x = (np.asarray(points, dtype=float) - mean) / sd
    return DensityGrid(points, np.exp(-x**2 / 2.0) / np.sqrt(2 * np.pi) / sd)


def t_density(points: np.ndarray, loc: float, scale: float,
              dof: float) -> DensityGrid:
    sd = np.sqrt(scale)
    x = (np.asarray(points, dtype=float) - loc) / sd
    logpdf = (np.log(poch(0.5 * dof, 0.5)) - 0.5 * (np.log(dof) + np.log(np.pi))
              - (dof + 1) / 2 * np.log1p(x * x / dof))
    return DensityGrid(points, np.exp(logpdf) / sd)


def ig_density(points: np.ndarray, shape: float, scale: float) -> DensityGrid:
    """The inverse-gamma density, 0 at points <= 0."""
    x = np.asarray(points, dtype=float) / scale
    values, pos = np.zeros_like(x), x > 0
    values[pos] = np.exp(-(shape + 1) * np.log(x[pos]) - gammaln(shape)
                         - 1.0 / x[pos]) / scale
    return DensityGrid(points, values)


def gaussian_grid_range(mean: float, var: float) -> tuple[float, float]:
    sd = np.sqrt(var)
    return mean - GRID_SD_SPAN * sd, mean + GRID_SD_SPAN * sd


def t_grid_range(loc: float, scale: float, dof: float) -> tuple[float, float]:
    var = _t_cov(scale, dof) if dof > 2 else 4.0 * scale
    return gaussian_grid_range(loc, var)


def ig_grid_range(shape: float, scale: float) -> tuple[float, float]:
    # in scipy's order: scale / gammainccinv(...) differs in the last bit
    lo, hi = 1.0 / gammainccinv(
        shape, [IG_TAIL_QUANTILE, 1 - IG_TAIL_QUANTILE]) * scale
    return float(lo), float(hi)


def make_points(lo: float, hi: float, n: int = GRID_POINTS) -> np.ndarray:
    if not hi > lo:
        raise DomainError("empty grid range")
    return np.linspace(lo, hi, n)


def marginal_grids(q: dict, points: dict | None = None
                   ) -> dict[str, DensityGrid | None]:
    """The scalar marginal densities of a fitted q by name, in q's order:
    entry j of a vector block "beta" is "beta<j>", diagonal entry j of an
    inverse-Wishart block "Sigma" is "Sigma<j><j>", an inverse-gamma block
    keeps its name, and other blocks have none. Each is on its own default
    grid, or on points[name] if points is given, lacking names left out.
    A marginal that a grid cannot hold is None: an inverse-gamma one whose
    shape is above IG_SHAPE_CUT, or one whose default grid's points are not
    strictly ascending in double precision."""
    return dict(_grids(q, points))


def accuracies(q: dict, reference_grids: dict[str, DensityGrid | None]
               ) -> dict[str, float | None]:
    """The accuracy of each of q's marginals that reference_grids holds, on
    the reference's points, in q's order, None where q's marginal cannot be
    held (see marginal_grids); one grid is held at a time."""
    points = {name: grid.points for name, grid in reference_grids.items()
              if grid is not None}
    # looked up at each call, so that a wrapper of accuracy sees every one
    return {name: None if grid is None else
            accuracy(reference_grids[name], grid)
            for name, grid in _grids(q, points)}


def _grids(q: dict, points: dict | None):
    """marginal_grids(q, points)'s (name, grid) pairs, each made in turn."""
    for key, a in q.items():
        if isinstance(a, StudentTApprox):
            marginals = [(f"{key}{j}", t_density, t_grid_range, a.loc[j],
                          a.scale[j, j], a.dof) for j in range(a.dim)]
        elif isinstance(a, (GaussianApprox, MomentSummary)):
            marginals = [(f"{key}{j}", gaussian_density, gaussian_grid_range,
                          a.mean[j], a.cov[j, j]) for j in range(len(a.mean))]
        elif isinstance(a, InverseGammaApprox):
            marginals = [(key, ig_density, ig_grid_range, a.shape, a.scale)]
        elif isinstance(a, InverseWishartApprox):
            marginals = [(f"{key}{j}{j}", ig_density, ig_grid_range,
                          *_iw_diag_ig(a.dof, a.dim, a.scale_matrix[j, j]))
                         for j in range(a.dim)]
        else:
            continue
        for name, density, grid_range, *params in marginals:
            if points is not None and name not in points:
                continue
            pts = (None if density is ig_density and params[0] > IG_SHAPE_CUT
                   else _held_points(*grid_range(*params)) if points is None
                   else points[name])
            yield name, None if pts is None else density(pts, *params)


def _held_points(lo: float, hi: float) -> np.ndarray | None:
    """make_points(lo, hi), or None where its range is empty or its points
    are not strictly ascending in double precision."""
    if not hi > lo:
        return None
    points = make_points(lo, hi)
    return points if _ascending(points) else None


@dataclass
class ToyGaussianSpec:
    """A d-dimensional Gaussian posterior split into two blocks at index split."""

    mu: np.ndarray
    Sigma: np.ndarray
    split: int

    def __post_init__(self):
        self.mu = np.atleast_1d(require_finite(self.mu, "mu"))
        self.Sigma = require_spd(require_finite(self.Sigma, "Sigma"), "Sigma")
        self.split = require_whole(self.split, "split")
        d = self.mu.shape[0]
        if not 1 <= self.split < d:
            raise DomainError("split must satisfy 1 <= split < dim")


def _toy_blocks(spec: ToyGaussianSpec):
    """S11, S22, the gains K1 = S12 S22^-1 and K2 = S12' S11^-1, and the
    conditional (Schur-complement) covariances S11 - K1 S12' and
    S22 - K2 S12 of spec's two blocks."""
    d1 = spec.split
    S11 = spec.Sigma[:d1, :d1]
    S22 = spec.Sigma[d1:, d1:]
    S12 = spec.Sigma[:d1, d1:]
    K1 = S12 @ np.linalg.inv(S22)
    K2 = S12.T @ np.linalg.inv(S11)
    return (S11, S22, K1, K2, symmetrize(S11 - K1 @ S12.T),
            symmetrize(S22 - K2 @ S12))


def toy_gaussian_mfvb(spec: ToyGaussianSpec
                      ) -> tuple[GaussianApprox, GaussianApprox]:
    """Mean-field block fits for a known joint Gaussian: each block keeps
    its mean and takes its conditional (Schur-complement) covariance.
    Returns (mfvb_1, mfvb_2)."""
    schur1, schur2 = _toy_blocks(spec)[4:]
    d1 = spec.split
    return (GaussianApprox(spec.mu[:d1], schur1),
            GaussianApprox(spec.mu[d1:], schur2))


def toy_gaussian_mp(spec: ToyGaussianSpec, eps: float = 1e-10,
                    max_iter: int = 10_000
                    ) -> tuple[GaussianApprox, GaussianApprox,
                               GaussianApprox, GaussianApprox]:
    """Block-marginal fits for a known joint Gaussian.

    Starting from the mean-field covariances of toy_gaussian_mfvb, the
    moment-propagation covariance iteration

        C_i <- S_ii + S_i,-i S_-i,-i^-1 (C_-i - S_-i,-i) S_-i,-i^-1 S_-i,i

    converges back to the true marginal blocks. Returns (mp_1, mp_2,
    mfvb_1, mfvb_2).
    """
    S11, S22, K1, K2, schur1, schur2 = _toy_blocks(spec)

    def step(state):
        _, C2 = state
        C1 = symmetrize(S11 + K1 @ (C2 - S22) @ K1.T)
        C2 = symmetrize(S22 + K2 @ (C1 - S11) @ K2.T)
        return (C1, C2), np.concatenate([C1.ravel(), C2.ravel()])

    report = fixed_point(step, (schur1, schur2), lambda s: {"C": s},
                         eps, max_iter)
    if not report.converged:
        raise NumericError("toy MP iteration did not converge")
    C1, C2 = report.params["C"]
    d1 = spec.split
    mu1, mu2 = spec.mu[:d1], spec.mu[d1:]
    return (GaussianApprox(mu1, C1), GaussianApprox(mu2, C2),
            GaussianApprox(mu1, schur1), GaussianApprox(mu2, schur2))
