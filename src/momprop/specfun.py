"""Stable evaluation of log Phi, its derivatives zeta_k, and Gaussian-smoothed xi_d.

zeta_k(t) = d^k log Phi(t) / dt^k, where Phi is the standard normal CDF.
zeta_1 is the inverse Mills ratio phi(t)/Phi(t), which needs care for large
negative t: the direct ratio underflows, so _zeta_orders, the one place that
decides zeta_1's tail, takes a continued fraction below _CF_CROSSOVER.

xi_d(mu, sigma2) = int zeta_d(x) phi(x; mu, sigma2) dx is the Gaussian
smoothing of zeta_d. xi picks one of three strategies per element:

* below sigma2 = 0.01 where mu >= -12, a truncated series in powers of
  sigma2 (within 1e-11 on a grid there at sigma2 = 0.0099; asymptotic,
  1.2e-3 off at 0.49). It reads zeta up to order 10, which the recursion
  loses further left: at sigma2 = 0.0099 series xi_2 is 4.6e-8 off
  (relative) at mu = -80 and 1.2e3 at -995;
* elsewhere below sigma2 = 2, a fixed 24-node Gauss-Hermite rule, within
  2.3e-13 of a Simpson oracle on [0.01, 0.5) and 2.5e-7 near 2. It reads
  zeta up to order 2 only, which stays accurate far left (xi_2 within
  7e-11 down to mu = -995). Per element it costs about six times the
  series in large calls and less in small ones;
* from sigma2 = 2 up, one fixed 240-node Gauss-Legendre rule, its nodes
  in closed form from (mu, sigma2) and clustered at zeta's bend at 0;
  against 55-digit mpmath up to sigma2 = 1e8, within 2e-12 in xi_2 and
  7e-12 relative in xi_0 and xi_1. It has no search, so it cannot fail.

The xi evaluators take d as one order or as a tuple of orders; a tuple
returns one stacked array and lets the orders share the zeta recursion
and the nodes. Every element goes through the same
arithmetic as in a one-element call, so results do not depend on the
batch. So xi walks its elements in fixed blocks of _XI_BLOCK, each block
split among the branches, and gives bit for bit what one pass over the
whole call would; its scratch, the series' zeta orders or the nodes of
the other two branches, is that of one block, not of the call.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

from functools import wraps
from math import comb

import numpy as np
from scipy.special import log_ndtr

from .exceptions import DomainError
from .moments import require_finite

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Below this t the direct ratio phi/Phi is replaced by the Laplace continued
# fraction for the reciprocal Mills ratio. The two branches agree to ~1e-15
# well past the seam in both directions. From x = -t = 25 on, _CF_DEPTH
# terms give 1/R and d bit for bit as 64 terms do.
_CF_CROSSOVER = -25.0
_CF_DEPTH = 12
# From t ~ 38.6 on, phi(t) underflows and the direct ratio is 0. Squaring
# t = min(t, _DIRECT_MAX) gives the same 0 there without overflowing t * t,
# which it would from t ~ 1.3e154 on.
_DIRECT_MAX = 40.0

# xi evaluation: xi uses the series below _SERIES_MAX where mu >=
# _SERIES_MIN_MU (further left the recursion loses the zeta orders above 2
# that the series reads), Gauss-Hermite elsewhere below _GH_MAX and the
# quadrature from _GH_MAX up. The series
# keeps _TAYLOR_TERMS terms (zeta up to order d + 2 (_TAYLOR_TERMS - 1));
# the Gauss-Hermite weights carry the 1/sqrt(pi) of the rule; the
# quadrature's fixed rule (_xi_rule) puts _BEND_PANELS Gauss-Legendre
# panels of _GL_NODES nodes on |x| <= _BEND_SIGMAS sigma and _TAIL_PANELS
# on each side of it, reaching _TAIL_SDS standard deviations out, and runs
# _QUAD_BLOCK elements at a time.
_SERIES_MAX = 0.01
_SERIES_MIN_MU = -12.0
_GH_MAX = 2.0
_TAYLOR_TERMS = 5
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(24)
_GH_WEIGHTS /= np.sqrt(np.pi)
_GL_NODES = 12
_BEND_SIGMAS = 2.0
_BEND_PANELS = 10
_TAIL_SDS = 8.5
_TAIL_PANELS = 5
_QUAD_BLOCK = 512
# xi evaluates its elements this many at a time, so that its scratch (the
# series' zeta orders, the Gauss-Hermite and quadrature node arrays) does
# not grow with the call
_XI_BLOCK = 4096


def log_Phi(t):
    """log Phi(t) without underflow (finite down to t ~ -1e9 and beyond)."""
    arr = require_finite(t, "t")
    out = log_ndtr(arr)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _recip_mills_cf(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1/R(x), d) for x > 0 via the Laplace continued fraction.

    R(x) = (1 - Phi(x))/phi(x) is the Mills ratio;
    1/R(x) = x + 1/d with d = x + 2/(x + 3/(x + ...)).
    """
    d = np.array(x, dtype=float, copy=True)
    for j in range(_CF_DEPTH, 1, -1):
        d = x + j / d
    return x + 1.0 / d, d


def _direct_ratio(t: np.ndarray, log_phi: np.ndarray) -> np.ndarray:
    """phi(t)/Phi(t) as exp(log phi(t) - log Phi(t)), log_phi = log Phi(t),
    for t >= _CF_CROSSOVER."""
    t = np.minimum(t, _DIRECT_MAX)
    return np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_phi)


def _zeta_orders(kmax: int, t) -> list[np.ndarray]:
    """Orders 0..kmax of zeta at t; order 0 is log Phi itself.

    Orders k >= 2 use the recursion

        zeta_k = -(t zeta_{k-1} + (k-2) zeta_{k-2})
                 - sum_{j=0}^{k-2} C(k-2, j) zeta_{1+j} zeta_{k-1-j},

    which only ever combines orders >= 1 on the product side. zeta_1's
    tail is decided here alone: below _CF_CROSSOVER, zeta_1 is the
    continued fraction's 1/R(-t) and zeta_2 is -zeta_1 / d (t + zeta_1 =
    1/d), not the recursion's -zeta_1 (t + zeta_1), which cancels there and
    overflows below t ~ -1.3e154.
    """
    arr = np.atleast_1d(require_finite(t, "t"))
    z = [log_ndtr(arr)]
    if kmax == 0:
        return z
    lo = arr < _CF_CROSSOVER
    if lo.any():
        z1 = np.empty_like(arr)
        z1[lo], d = _recip_mills_cf(-arr[lo])
        hi = ~lo
        z1[hi] = _direct_ratio(arr[hi], z[0][hi])
    else:
        lo, z1 = None, _direct_ratio(arr, z[0])
    z.append(z1)
    if kmax >= 2:
        # the recursion's zeta_2; its 0 zeta_0 adds nothing
        with np.errstate(over="ignore", invalid="ignore"):
            z2 = -(arr * z[1]) - z[1] * z[1]
        if lo is not None:
            z2[lo] = -z[1][lo] / d
        z.append(z2)
    for k in range(3, kmax + 1):
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


def _xi_checked(kernel):
    """Wrap an xi evaluator kernel(orders, mu, sigma2) on broadcast arrays.

    d is one order or a tuple of orders, each in {0, 1, 2}; the kernel gets
    them as a tuple and returns one row per order. The wrapper checks the
    orders, finite mu and sigma2, and sigma2 >= 0. A tuple d returns the
    stacked rows, with a leading axis per order; an int d returns its row,
    a float for 0-d input.
    """
    @wraps(kernel)
    def checked(d, mu, sigma2):
        orders = d if isinstance(d, tuple) else (d,)
        if not orders or any(k not in (0, 1, 2) for k in orders):
            raise DomainError("xi order d must be in {0, 1, 2}")
        mu_a, s2_a = np.broadcast_arrays(require_finite(mu, "mu"),
                                         require_finite(sigma2, "sigma2"))
        if (s2_a < 0).any():
            raise DomainError("sigma2 must be >= 0")
        out = kernel(tuple(int(k) for k in orders), mu_a, s2_a)
        if isinstance(d, tuple):
            return out
        return float(out[0]) if mu_a.ndim == 0 else out[0]
    return checked


@_xi_checked
def xi_taylor(d: int | tuple[int, ...], mu, sigma2):
    """Series evaluation of xi_d: sum_k zeta_{d+2k}(mu) sigma2^k / (2^k k!).

    Keeps _TAYLOR_TERMS terms. The series is asymptotic: xi uses it below
    sigma2 = _SERIES_MAX at mu >= _SERIES_MIN_MU only, and at sigma2 = 0.49
    it is off by up to 1.2e-3 for mu in [-6, 6]. One zeta recursion serves
    every requested order.
    """
    z = _zeta_orders(max(d) + 2 * (_TAYLOR_TERMS - 1), mu.ravel())
    out = _xi_series(z, d, sigma2.ravel(), _TAYLOR_TERMS)
    return out.reshape((len(d),) + mu.shape)


def _xi_series(z: list[np.ndarray], d: tuple[int, ...], sigma2: np.ndarray,
               terms: int) -> np.ndarray:
    """The first terms of sum_k zeta_{d+2k}(mu) sigma2^k / (2^k k!), one
    row per order in d, from the zeta orders z at 1-d mu (up to order
    max(d) + 2 (terms - 1)) and 1-d sigma2."""
    acc = np.zeros((len(d), sigma2.size))
    coef = np.ones_like(sigma2)
    for k in range(terms):
        if k > 0:
            coef = coef * sigma2 / (2.0 * k)
        for row, dk in zip(acc, d):
            row += z[dk + 2 * k] * coef
    return acc


def _panels(count: int, lo: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of count equal Gauss-Legendre panels on [lo, 1]."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    start = np.arange(count)[:, None] + 0.5 * (x + 1.0)
    return (lo + (1.0 - lo) * start.ravel() / count,
            np.tile((1.0 - lo) * 0.5 * w / count, count))


_BEND_R, _BEND_W = _panels(_BEND_PANELS, -1.0)
_TAIL_R, _TAIL_W = _panels(_TAIL_PANELS, 0.0)


def _in_blocks(kernel, size: int, d: tuple[int, ...], mu: np.ndarray,
               sigma2: np.ndarray) -> np.ndarray:
    """kernel(d, mu, sigma2) on at most size elements at a time."""
    m, s2 = mu.ravel(), sigma2.ravel()
    out = np.empty((len(d), m.size))
    for i in range(0, m.size, size):
        out[:, i:i + size] = kernel(d, m[i:i + size], s2[i:i + size])
    return out.reshape((len(d),) + mu.shape)


def _xi_rule(d: tuple[int, ...], mu: np.ndarray, sigma2: np.ndarray
             ) -> np.ndarray:
    """xi_quad's rule on 1-d mu and sigma2: with s = sqrt(sigma2),
    u = (x - mu)/s, c = _BEND_SIGMAS and K = _TAIL_SDS, the integral of
    zeta_d(x) phi(u) du in three pieces, each forming u from its own
    variable (not from x - mu):
    * |x| <= c s in t = asinh(x), whose nodes cluster at zeta's bend, and
      where the Gaussian stays about 1/c wide or more;
    * x < -c s in u, over [min(-K, hi - K), hi], hi = min(-mu/s - c, K);
    * x > c s in v = (x - x*)/s* over |v| <= K: there zeta_d is phi(x)
      times a slowly varying factor, so the integrand is nearly Gaussian,
      with mean x* = mu/(1 + sigma2) and s.d. s* = s/sqrt(1 + sigma2).
    """
    m, q = mu[:, None], 1.0 + sigma2[:, None]
    s, r = np.sqrt(sigma2)[:, None], np.sqrt(q)
    edge = _BEND_SIGMAS * s
    t_end = np.arcsinh(edge)
    t = t_end * _BEND_R
    x_bend = np.sinh(t)
    hi = np.minimum(-m / s - _BEND_SIGMAS, _TAIL_SDS)
    lo = np.minimum(hi - _TAIL_SDS, -_TAIL_SDS)
    u_left = lo + (hi - lo) * _TAIL_R
    x_star, s_star = m / q, s / r
    a = np.maximum(edge, x_star - _TAIL_SDS * s_star)
    b = np.maximum(edge, x_star + _TAIL_SDS * s_star)
    v = (a - x_star) / s_star + (b - a) / s_star * _TAIL_R
    x = np.concatenate([m + s * u_left, x_bend, x_star + s_star * v], axis=1)
    u = np.concatenate([u_left, (x_bend - m) / s, v / r - m * s / q], axis=1)
    w = np.concatenate([(hi - lo) * _TAIL_W,
                        t_end / s * _BEND_W * np.cosh(t),
                        (b - a) / s * _TAIL_W], axis=1)
    # u * u overflows from |u| ~ 1.3e154 on, where the weight is 0 anyway
    with np.errstate(over="ignore"):
        w *= np.exp(-0.5 * u * u - _LOG_SQRT_2PI)
    z = _zeta_orders(max(d), x)
    return np.stack([(z[k] * w).sum(axis=-1) for k in d])


@_xi_checked
def xi_quad(d: int | tuple[int, ...], mu, sigma2):
    """xi_d for sigma2 > 0 by one fixed rule of 240 Gauss-Legendre nodes,
    placed in closed form from each element's (mu, sigma2) (_xi_rule), so
    there is no search to fail. It runs _QUAD_BLOCK elements at a time, and
    one zeta recursion on the nodes serves every requested order."""
    if (sigma2 <= 0).any():
        raise DomainError("xi_quad requires sigma2 > 0")
    return _in_blocks(_xi_rule, _QUAD_BLOCK, d, mu, sigma2)


def _xi_hermite(d: tuple[int, ...], mu: np.ndarray, sigma2: np.ndarray
                ) -> np.ndarray:
    """Gauss-Hermite xi_d = sum_k w_k zeta_d(mu + sqrt(2 sigma2) x_k) on 1-d
    mu and sigma2, one row per order; summed row by row, not by a matrix
    product, so an element does not depend on the batch."""
    z = _zeta_orders(max(d), mu[:, None]
                     + np.sqrt(2.0 * sigma2)[:, None] * _GH_NODES)
    return np.stack([(z[k] * _GH_WEIGHTS).sum(axis=-1) for k in d])


@_xi_checked
def xi(d: int | tuple[int, ...], mu, sigma2):
    """xi_d(mu, sigma2): the series below sigma2 = _SERIES_MAX where mu >=
    _SERIES_MIN_MU, Gauss-Hermite elsewhere below _GH_MAX, xi_quad's fixed
    rule from _GH_MAX up. A call of more than _XI_BLOCK elements is
    evaluated _XI_BLOCK elements at a time."""
    if mu.size > _XI_BLOCK:
        return _in_blocks(xi, _XI_BLOCK, d, mu, sigma2)
    # the branches are looked up by their module names at each call, so
    # that a wrapper installed as xi_taylor or xi_quad sees every evaluation
    series = (sigma2 < _SERIES_MAX) & (mu >= _SERIES_MIN_MU)
    n_series = np.count_nonzero(series)
    if n_series == mu.size:  # the common case, without the masks' copies
        return xi_taylor(d, mu, sigma2)
    out = np.empty((len(d),) + mu.shape)
    if n_series:
        out[:, series] = xi_taylor(d, mu[series], sigma2[series])
    quad = sigma2 >= _GH_MAX
    for branch, take in ((_xi_hermite, ~(series | quad)), (xi_quad, quad)):
        if take.any():
            out[:, take] = branch(d, mu[take], sigma2[take])
    return out
