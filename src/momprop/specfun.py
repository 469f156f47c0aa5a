"""Stable evaluation of log Phi, its derivatives zeta_k, and Gaussian-smoothed xi_d.

zeta_k(t) = d^k log Phi(t) / dt^k, where Phi is the standard normal CDF.
zeta_1 is the inverse Mills ratio phi(t)/Phi(t), which needs care for large
negative t: the direct ratio underflows, so a continued-fraction branch is
used in the far left tail.

xi_d(mu, sigma2) = int zeta_d(x) phi(x; mu, sigma2) dx is the Gaussian
smoothing of zeta_d. Two evaluation strategies are provided:

* a truncated series in powers of sigma2 (accurate for small sigma2), and
* mode-finding plus composite trapezoidal quadrature over the effective
  domain of the integrand (used for larger sigma2, where the series may
  diverge).

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

from functools import wraps
from math import comb

import numpy as np
from scipy.special import log_ndtr

from .exceptions import DomainError, NumericError
from .moments import require_finite

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Below this t the direct ratio phi/Phi is replaced by the Laplace continued
# fraction for the reciprocal Mills ratio. The two branches agree to ~1e-15
# well past the seam in both directions.
_CF_CROSSOVER = -25.0
_CF_DEPTH = 64

# xi evaluation: the series branch is used below _TAYLOR_THRESHOLD and keeps
# _TAYLOR_TERMS terms (zeta up to order d + 2 (_TAYLOR_TERMS - 1)); the
# quadrature branch stops Newton's mode search once a step is below
# _MODE_TOL (failing after _NEWTON_MAX_STEPS steps), bounds the effective
# domain where the integrand falls below _ED_TOL of its peak, and applies
# the trapezoid rule with _QUAD_POINTS panels.
_TAYLOR_THRESHOLD = 0.5
_TAYLOR_TERMS = 5
_MODE_TOL = 1e-3
_ED_TOL = 1e-3
_QUAD_POINTS = 50
_NEWTON_MAX_STEPS = 100


def log_Phi(t):
    """log Phi(t) without underflow (finite down to t ~ -1e9 and beyond)."""
    arr = require_finite(t, "t")
    out = log_ndtr(arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _recip_mills_cf(x: np.ndarray) -> np.ndarray:
    """1/R(x) for x > 0 via the Laplace continued fraction.

    R(x) = (1 - Phi(x))/phi(x) is the Mills ratio;
    1/R(x) = x + 1/(x + 2/(x + 3/(x + ...))).
    """
    d = np.array(x, dtype=float, copy=True)
    for j in range(_CF_DEPTH, 1, -1):
        d = x + j / d
    return x + 1.0 / d


def _zeta1(t: np.ndarray) -> np.ndarray:
    """Inverse Mills ratio phi(t)/Phi(t), stable over the whole real line."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty_like(t)
    lo = t < _CF_CROSSOVER
    if np.any(lo):
        out[lo] = _recip_mills_cf(-t[lo])
    hi = ~lo
    if np.any(hi):
        th = t[hi]
        out[hi] = np.exp(-0.5 * th * th - _LOG_SQRT_2PI - log_ndtr(th))
    return out


def _zeta_orders(kmax: int, t) -> list[np.ndarray]:
    """Orders 0..kmax of zeta at t; order 0 is log Phi itself.

    Orders k >= 2 use the recursion

        zeta_k = -(t zeta_{k-1} + (k-2) zeta_{k-2})
                 - sum_{j=0}^{k-2} C(k-2, j) zeta_{1+j} zeta_{k-1-j},

    which only ever combines orders >= 1 on the product side.
    """
    arr = np.atleast_1d(require_finite(t, "t"))
    z: list[np.ndarray] = [log_ndtr(arr)]
    if kmax >= 1:
        z.append(_zeta1(arr))
    for k in range(2, kmax + 1):
        acc = -(arr * z[k - 1] + (k - 2) * z[k - 2])
        for j in range(0, k - 1):
            acc = acc - comb(k - 2, j) * z[1 + j] * z[k - 1 - j]
        z.append(acc)
    return z


def zeta(k: int, t):
    """zeta_k(t) = d^k log Phi(t)/dt^k for integer k >= 1."""
    if int(k) != k or k < 1:
        raise DomainError(f"zeta order must be an integer >= 1, got {k!r}")
    arr = require_finite(t, "t")
    out = _zeta_orders(int(k), arr)[int(k)]
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _xi_checked(positive_sigma2: bool = False):
    """Wrap an xi evaluator kernel(d, mu, sigma2) on broadcast float arrays.

    The wrapper checks d in {0, 1, 2}, finite mu and sigma2, and sigma2 >= 0
    (> 0 when positive_sigma2), and returns a float for 0-d input.
    """
    def wrap(kernel):
        @wraps(kernel)
        def checked(d: int, mu, sigma2):
            if d not in (0, 1, 2):
                raise DomainError("xi order d must be in {0, 1, 2}")
            mu_a, s2_a = np.broadcast_arrays(require_finite(mu, "mu"),
                                             require_finite(sigma2, "sigma2"))
            if positive_sigma2 and np.any(s2_a <= 0):
                raise DomainError("xi_quad requires sigma2 > 0")
            if np.any(s2_a < 0):
                raise DomainError("sigma2 must be >= 0")
            out = kernel(d, mu_a, s2_a)
            return float(out) if out.ndim == 0 else out
        return checked
    return wrap


@_xi_checked()
def xi_taylor(d: int, mu, sigma2):
    """Series evaluation of xi_d: sum_k zeta_{d+2k}(mu) sigma2^k / (2^k k!).

    Keeps _TAYLOR_TERMS terms. Intended for sigma2 below _TAYLOR_THRESHOLD;
    the series need not converge for large sigma2.
    """
    z = _zeta_orders(d + 2 * (_TAYLOR_TERMS - 1), mu.ravel())
    s2 = sigma2.ravel()
    acc = np.zeros_like(s2)
    coef = np.ones_like(s2)
    for k in range(_TAYLOR_TERMS):
        if k > 0:
            coef = coef * s2 / (2.0 * k)
        acc = acc + z[d + 2 * k] * coef
    return acc.reshape(mu.shape)


def _log_integrand(x: np.ndarray, mu: float, sigma2: float) -> np.ndarray:
    """Log integrand of xi_1 up to additive constants."""
    return -0.5 * x * x - log_ndtr(x) - 0.5 * (x - mu) ** 2 / sigma2


def _find_mode(mu: float, sigma2: float) -> tuple[float, float]:
    """Mode x* of the xi_1 log-integrand and f''(x*) via Newton's method."""
    cands = [mu / (1.0 + sigma2),
             (mu - sigma2 * np.sqrt(2.0 / np.pi))
             / (sigma2 * (1.0 - np.pi / 2.0) + 1.0)]
    if mu + sigma2 > 0:
        cands.append(-np.sqrt(mu + sigma2))
    vals = _log_integrand(np.array(cands), mu, sigma2)
    x = float(cands[int(np.argmax(vals))])
    for _ in range(_NEWTON_MAX_STEPS):
        z1 = float(_zeta1(x)[0])
        z2 = -x * z1 - z1 * z1
        fp = -x - z1 - (x - mu) / sigma2
        fpp = -1.0 - z2 - 1.0 / sigma2
        step = fp / fpp
        x -= step
        if abs(step) < _MODE_TOL:
            z1 = float(_zeta1(x)[0])
            z2 = -x * z1 - z1 * z1
            return x, -1.0 - z2 - 1.0 / sigma2
    raise NumericError(
        f"mode search did not converge for xi(mu={mu}, sigma2={sigma2})",
        last_iterate=x)


def _xi_quad_scalar(d: int, mu: float, sigma2: float) -> float:
    x_star, fpp = _find_mode(mu, sigma2)
    s = 1.0 / np.sqrt(-fpp)
    f_star = float(_log_integrand(np.array([x_star]), mu, sigma2)[0])

    def widen(sign: int) -> int:
        k = 1
        while True:
            f = float(_log_integrand(np.array([x_star + sign * s * k]),
                                     mu, sigma2)[0])
            if np.exp(f - f_star) < _ED_TOL:
                # one guard step past the threshold: the mass between the
                # _ED_TOL crossing and one extra step is what limits overall
                # accuracy, and it is cheap to keep.
                return k + 1
            k += 1
            if k > 10_000:
                raise NumericError("effective-domain search ran away",
                                   last_iterate=x_star + sign * s * k)

    a = x_star - s * widen(-1)
    b = x_star + s * widen(+1)
    nodes = np.linspace(a, b, _QUAD_POINTS + 1)
    zd = _zeta_orders(d, nodes)[d]
    dens = np.exp(-0.5 * (nodes - mu) ** 2 / sigma2) / np.sqrt(
        2.0 * np.pi * sigma2)
    fx = zd * dens
    h = (b - a) / _QUAD_POINTS
    return float(h * (0.5 * fx[0] + fx[1:-1].sum() + 0.5 * fx[-1]))


@_xi_checked(positive_sigma2=True)
def xi_quad(d: int, mu, sigma2):
    """Quadrature evaluation of xi_d for sigma2 > 0.

    Locates the integrand mode (Newton, started from the best of three
    closed-form candidates), expands left/right in steps of
    1/sqrt(-f''(x*)) until the integrand falls below _ED_TOL relative to its
    peak, then applies the composite trapezoid rule on that interval.
    """
    flat = [_xi_quad_scalar(d, float(m), float(v))
            for m, v in zip(mu.ravel(), sigma2.ravel())]
    return np.array(flat).reshape(mu.shape)


@_xi_checked()
def xi(d: int, mu, sigma2):
    """xi_d(mu, sigma2): series branch below sigma2 = 0.5, else quadrature."""
    out = np.empty(mu.shape, dtype=float)
    small = sigma2 < _TAYLOR_THRESHOLD
    # the branches are called by their module names, so that a wrapper
    # installed under either name sees every evaluation
    if np.any(small):
        out[small] = np.atleast_1d(xi_taylor(d, mu[small], sigma2[small]))
    if np.any(~small):
        out[~small] = np.atleast_1d(xi_quad(d, mu[~small], sigma2[~small]))
    return out
