"""Deterministic synthetic datasets for the three models.

Every generator is a pure function of its seed. A fixed five-point
intercept-only dataset is included for regression-testing the linear
fitters against known values.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr

from .exceptions import DomainError
from .moments import require_finite

# Fixed reference sample (n=5 draws from N(0.5, 10), rounded to 2 dp),
# fit with an intercept-only design.
FIXED_LINEAR_Y = np.array([-1.48, 1.08, -2.14, 5.54, 1.54])

# label draws generate_probit makes before giving up on getting both classes
_LABEL_DRAWS = 100


def seed_sequence(seed: int) -> np.random.SeedSequence:
    """SeedSequence(seed); a negative seed is a DomainError."""
    if seed < 0:
        raise DomainError(f"seed must be non-negative; got {seed}")
    return np.random.SeedSequence(seed)


def _coefficients(beta: np.ndarray | None, p: int) -> np.ndarray:
    """beta as p finite floats; 1/sqrt(p) each by default."""
    if beta is None:
        return np.ones(p) / np.sqrt(p)
    beta = require_finite(beta, "beta")
    if beta.shape != (p,):
        raise DomainError(f"beta has shape {beta.shape}; p = {p} needs "
                          f"({p},)")
    return beta


def fixed_linear_dataset() -> tuple[np.ndarray, np.ndarray]:
    return FIXED_LINEAR_Y.copy(), np.ones((5, 1))


def generate_linear(n: int, p: int, seed: int, beta: np.ndarray | None = None,
                    sigma: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian design, y = X beta + sigma * noise, which must be finite."""
    if n < 1 or p < 1:
        raise DomainError("n and p must be >= 1")
    if sigma < 0:
        raise DomainError("sigma must be non-negative")
    beta = _coefficients(beta, p)
    rng = np.random.default_rng(seed_sequence(seed))
    X = rng.standard_normal((n, p))
    with np.errstate(over="ignore", invalid="ignore"):
        y = X @ beta + sigma * rng.standard_normal(n)
    return require_finite(y, "generated y"), X


def generate_probit(n: int, p: int, seed: int, beta: np.ndarray | None = None,
                    intercept: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """iid rows with finite mean/covariance; labels drawn through the
    probit link. Redraws labels (deterministically) until both classes
    appear."""
    if n < 2 or p < 1:
        raise DomainError("need n >= 2 and p >= 1")
    beta = _coefficients(beta, p)
    rng = np.random.default_rng(seed_sequence(seed))
    X = rng.standard_normal((n, p))
    if intercept:
        X[:, 0] = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        probs = ndtr(require_finite(X @ beta, "generated X beta"))
    for _ in range(_LABEL_DRAWS):
        y = (rng.random(n) < probs).astype(float)
        if 0.0 < y.mean() < 1.0:
            return y, X
    raise DomainError("could not generate both classes; check beta scale")


def generate_mvn(n: int, p: int, seed: int) -> np.ndarray:
    """iid rows from N(0, Sigma) with Sigma = I + 0.5 off-diagonal."""
    if n < 1 or p < 1:
        raise DomainError("n and p must be >= 1")
    rng = np.random.default_rng(seed_sequence(seed))
    L = np.linalg.cholesky(0.5 * np.ones((p, p)) + 0.5 * np.eye(p))
    return rng.standard_normal((n, p)) @ L.T
