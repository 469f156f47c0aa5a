"""Probit regression: Laplace, mean-field VB, moment propagation, delta-method
VB, and a data-augmentation Gibbs oracle.

The likelihood is prod_i Phi(z_i^T beta) with z_i = (2 y_i - 1) x_i and
prior beta ~ N(0, D^-1). With auxiliary variables a_i | beta ~ N(z_i^T
beta, 1) truncated to a_i > 0, the full conditionals are Gaussian, which
drives both the Gibbs sampler and the MFVB/MP updates. These start from
S = (Z^T Z + D)^-1, which, like the Newton fits' M^-1 below, is L^-T L^-1
from the Cholesky factor L (_cholesky_inverse); a factor that fails or is
not finite, as when Z^T Z overflows, is a NumericError, and so is a linear
predictor Z beta or a gradient that overflows.

Moment propagation keeps q(beta) Gaussian but never commits q(a) to a
parametric family: only E_q(a) and (implicitly) V_q(a) enter, and the
n x n V_q(a) is never materialized. Its fixed point is solved, not swept.
With m = Z mu and v_i = z_i^T Sigma z_i, the covariance equation (the law
of total variance) Sigma = S + S A S + G^T Sigma G, with A = Z^T diag(1 +
xi_2(m, v)) Z and G = Z^T diag(1 + zeta_2(m)) Z S, is a Stein equation
in Sigma, solved by doubling (_stein). The mean equation D mu = Z^T
xi_1(Z mu, v) is, at fixed v, the stationarity condition of sum_i
xi_0(z_i^T mu, v_i) - 1/2 mu^T D mu, whose Hessian is A - S^-1. So an
outer iteration solves for Sigma at (m, v), takes the new Sigma's v, and
then one Newton step mu + (S^-1 - A)^-1 (Z^T xi_1 - D mu) with xi_1 and
A at that v, or the plain map mu + S (Z^T xi_1 - D mu) where S^-1 - A is
not positive definite, as the delta-method xi_2 allows. It walks the
rows of Z twice, _WALK_BLOCK rows at a time: walk 1 takes the zeta orders
at m and xi_2 at the old v and sums A and G; after the Stein solve, walk
2 takes the new v, xi_1 and xi_2 at it and sums the Newton step's A. Each
Gram sum adds its _ROW_BLOCK-row products in order, as _gram does for the
Laplace Hessian and the delta-method ELBO. So beside a block's scratch,
O(block p), an iteration holds three n-vectors: m, v and xi_1, written
into its trace entry, where it becomes mu_a = m + xi_1. dm recomputes
the zeta orders in walk 2 rather than hold four n-vectors of them.
ProbitData holds Z and y, not X, so the data's one n x p array is Z,
column-major (Fortran order) whichever constructor built it.

Mean-field VB's fixed point D mu = Z^T zeta_1(Z mu) is the stationarity
condition of log p(y, beta): its mean is the mode, found by Laplace's
Newton steps, and its covariance is S.

Laplace and delta-method VB (dmvb) take damped Newton steps on the same
driver along M^-1 g, M = Z^T diag(-zeta_2(Z x)) Z + D: one evaluation of
a point gives its objective, its zeta orders and M^-1, and the state
carries M^-1 to the next step and to the reported covariance. A step is
halved until the objective rises enough (Armijo's rule). A fit stops once
a step moves its mean by less than eps in the max norm; the first step is
never tested, so a fit started at its own optimum takes two.

The Gibbs sampler has two regimes, chosen by n alone. Below _GIBBS_SPLIT
rows it holds S Z^T, so a draw's beta is one product S Z^T a plus the
normal part, and it reads two streams spawned from SeedSequence(seed): one
of uniforms for the a_i draws, by the inverse CDF, taken a block of draws
at a time (about _GIBBS_CELLS uniforms), and one of standard normals for
the beta draws, taken at once into the chain that the draws then
overwrite with in-place ufuncs, so no draw makes its own RNG call. From
_GIBBS_SPLIT rows on it holds no n x p array beside Z: it splits Z's rows
in two halves, the second on a worker thread; each half draws its a_i by
accept-reject (_truncnorm_ar) from its own stream, beta reads a third, and
no BLAS call runs inside a half. Either way the chain depends on the seed
and on n's regime, not on the block size. Gibbs output for a given seed
differs from versions that drew from one generator one draw at a time,
and at large n from versions before the split; its distribution does
not.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite

import numpy as np
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp

from .datagen import seed_sequence
from .exceptions import DomainError, NumericError
from .moments import (GaussianApprox, require_regression, require_shape,
                      require_spd, symmetrize)
from .reports import FitReport, MomentSummary, fixed_point
from .specfun import _xi_series, _zeta_orders, xi


# rows per block in the O(n p^2) passes; a block's temporaries stay in cache
_ROW_BLOCK = 1024
# rows per block of an MP walk (probit_mp_fit), xi's own block: its zeta
# orders and xi are evaluated on this many rows at a time, its products in
# _ROW_BLOCK blocks
_WALK_BLOCK = 4 * _ROW_BLOCK


def _row_quadform(Z: np.ndarray, Sig: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """z_i^T Sig z_i for every row z_i of Z, one block of rows at a time,
    into out if given."""
    out = np.empty(Z.shape[0]) if out is None else out
    for s in range(0, Z.shape[0], _ROW_BLOCK):
        Zb = Z[s:s + _ROW_BLOCK]
        out[s:s + _ROW_BLOCK] = np.einsum("ij,ij->i", Zb @ Sig, Zb)
    return out


def _gram(Z: np.ndarray, w: np.ndarray,
          out: np.ndarray | None = None) -> np.ndarray:
    """Z^T diag(w) Z, summed over blocks of rows, added to out if given."""
    out = np.zeros((Z.shape[1], Z.shape[1])) if out is None else out
    for s in range(0, Z.shape[0], _ROW_BLOCK):
        Zb = Z[s:s + _ROW_BLOCK]
        out += Zb.T @ (w[s:s + _ROW_BLOCK, None] * Zb)
    return out


class ProbitData:
    """Binary response y and design X, held as Z alone: the column-major
    (Fortran-order) n x p array with rows z_i = (2 y_i - 1) x_i. The arrays
    passed in are never written, and y is a copy, so that a table that y is
    a column of can be freed."""

    def __init__(self, y, X):
        y, X = require_regression(y, X)
        self._sign(y.copy(), np.array(X, dtype=float, order="F"))

    @classmethod
    def _taking(cls, y: np.ndarray, X: np.ndarray) -> "ProbitData":
        """ProbitData that takes over y and the float array X, Fortran-order
        for Z to be: X's rows are signed in place, so no second n x p array
        is made."""
        data = cls.__new__(cls)
        data._sign(*require_regression(y, X))
        return data

    def _sign(self, y: np.ndarray, Z: np.ndarray) -> None:
        """Hold y and Z <- (2 y - 1) Z, signed in place: exact, as each
        factor is +-1."""
        if not np.all(np.isin(y, (0.0, 1.0))):
            raise DomainError("y must be binary 0/1")
        Z *= (2.0 * y - 1.0)[:, None]
        self.y, self.Z = y, Z

    @property
    def X(self) -> np.ndarray:
        """(2 y - 1) Z, a new array each time: bit for bit the X given,
        signed zeros included, as each factor is +-1."""
        return (2.0 * self.y - 1.0)[:, None] * self.Z

    @property
    def n(self) -> int:
        return self.Z.shape[0]

    @property
    def p(self) -> int:
        return self.Z.shape[1]


@dataclass
class ProbitPrior:
    D: np.ndarray

    def __post_init__(self):
        self.D = require_spd(np.atleast_2d(self.D), "D")

    @classmethod
    def ridge(cls, lam: float, p: int) -> "ProbitPrior":
        if not isfinite(lam):
            raise DomainError("lambda must be finite")
        if not lam > 0:
            raise DomainError("lambda must be positive")
        return cls(D=lam * np.eye(p))


@dataclass
class AuxiliaryMoments:
    mean_a: np.ndarray


def _cholesky_inverse(M: np.ndarray,
                      message: str) -> tuple[np.ndarray, np.ndarray]:
    """(L, symmetrize(L^-T L^-1)), L the lower Cholesky factor of
    symmetrize(M); NumericError(message) where it fails or is not finite
    (a non-finite entry that numpy lets through reaches L's diagonal)."""
    try:
        L = np.linalg.cholesky(symmetrize(M))
    except np.linalg.LinAlgError as exc:
        raise NumericError(message) from exc
    if not isfinite(L.trace()):
        raise NumericError(message)
    Li = np.linalg.inv(L)
    return L, symmetrize(Li.T @ Li)


def _workspace(data: ProbitData, prior: ProbitPrior
               ) -> tuple[np.ndarray, np.ndarray]:
    """(S^-1, S): the precision Z^T Z + D of beta given a and its inverse
    S, the covariance, from the shared Cholesky inverse."""
    with np.errstate(over="ignore", invalid="ignore"):
        precision = data.Z.T @ data.Z + prior.D
    _, S = _cholesky_inverse(precision,
                             "Z^T Z + D is not finite and positive definite")
    return precision, S


def _predictor(Z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The linear predictor Z x; NumericError where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = Z @ x
    if not np.isfinite(t).all():
        raise NumericError("linear predictor Z beta is not finite")
    return t


def _newton_point(Z: np.ndarray, D: np.ndarray, x: np.ndarray,
                  profiled: bool) -> tuple:
    """(x, f, zeta orders at Z x, M^-1) at a point x of a Newton fit,
    M = Z^T diag(-zeta_2(Z x)) Z + D. f is log p(y, x), less 1/2 log det M
    for the profiled delta-method ELBO, whose gradient also needs zeta_3.
    M^-1 = L^-T L^-1 and log det M come from the lower Cholesky factor L."""
    z = _zeta_orders(3 if profiled else 2, _predictor(Z, x))
    with np.errstate(over="ignore", invalid="ignore"):
        M = _gram(Z, -z[2]) + D
    L, Minv = _cholesky_inverse(M, "Newton matrix M lost positive "
                                "definiteness")
    with np.errstate(over="ignore"):  # -inf where x' D x overflows
        f = np.sum(z[0]) - 0.5 * x @ D @ x
    if profiled:
        f -= np.sum(np.log(np.diag(L)))
    return x, float(f), z, Minv


def _newton_gradient(Z: np.ndarray, D: np.ndarray, point: tuple) -> np.ndarray:
    """Gradient of f at a _newton_point; the profiled term is
    1/2 Z^T (h * zeta_3) with h_i = z_i^T M^-1 z_i."""
    x, _, z, Minv = point
    grad = Z.T @ z[1] - D @ x
    if len(z) > 3:
        with np.errstate(over="ignore", invalid="ignore"):
            h = _row_quadform(Z, Minv)
            grad = grad + 0.5 * Z.T @ (h * z[3])
        if not np.isfinite(grad).all():
            raise NumericError("gradient of the dmvb objective in beta is "
                               "not finite")
    return grad


def _start_mean(init: GaussianApprox | MomentSummary, p: int) -> np.ndarray:
    """A copy of the mean of a starting q(beta), which must be p long."""
    return require_shape(init.mean, (p,), "init mean").copy()


def _finite_start(start: tuple) -> tuple:
    """A Newton fit's starting point, once its f is known to be finite (a
    candidate whose f is not fails the Armijo test instead). A call, not a
    local of _damped_newton, so that no frame holds the point's zeta
    orders through the fit."""
    if not isfinite(start[1]):
        raise NumericError("log p(y, beta) is not finite at the starting "
                           "mean")
    return start


def _damped_newton(data: ProbitData, prior: ProbitPrior, profiled: bool,
                   init: GaussianApprox | MomentSummary | None, eps: float,
                   max_iter: int, params=None) -> FitReport:
    """Damped Newton ascent of f from init's mean (zero by default) along
    d = M^-1 g, with M^-1 from the state: s d, from s = 1, is halved up to
    30 times until f rises by 1e-4 s g^T d less 8 machine epsilons of |f|
    (Armijo). params(point) gives the report's q-densities at the last
    point; by default q(beta) is N(x, M^-1)."""
    Z, D = data.Z, prior.D

    def step(point):
        x, f, _, Minv = point
        g = _newton_gradient(Z, D, point)
        d = Minv @ g
        rise, slack = 1e-4 * (g @ d), 8.0 * np.finfo(float).eps * abs(f)
        scale = 1.0
        for _ in range(30):
            cand = _newton_point(Z, D, x + scale * d, profiled)
            if cand[1] - f >= scale * rise - slack:
                break
            scale *= 0.5
        return cand, cand[0]

    def newton_params(point):
        return {"beta": GaussianApprox(point[0], point[3])}

    x = np.zeros(data.p) if init is None else _start_mean(init, data.p)
    return fixed_point(step, _finite_start(_newton_point(Z, D, x, profiled)),
                       params or newton_params, eps, max_iter)


def probit_laplace_fit(data: ProbitData, prior: ProbitPrior, eps: float = 1e-6,
                       max_iter: int = 500,
                       init: GaussianApprox | MomentSummary | None = None
                       ) -> FitReport:
    """Damped Newton ascent of log p(y, beta) from init's mean; returns the
    mode and inverse negative Hessian [Z^T diag(-zeta_2(Z beta)) Z + D]^-1."""
    return _damped_newton(data, prior, False, init, eps, max_iter)


def probit_mfvb_fit(data: ProbitData, prior: ProbitPrior, eps: float = 1e-6,
                    max_iter: int = 500,
                    init: GaussianApprox | MomentSummary | None = None
                    ) -> FitReport:
    """Mean-field fit: q(beta) = N(mode, S), the mode from Laplace's damped
    Newton steps (the mean-field fixed point D mu = Z^T zeta_1(Z mu) is its
    stationarity condition), and q(a_i) N(m_i, 1) truncated to a_i > 0,
    m = Z mu, whose mean E_q[a_i] = m_i + zeta_1(m_i) is aux.mean_a."""
    _, S = _workspace(data, prior)

    def params(point):
        x, _, z, _ = point
        return {"beta": GaussianApprox(x, S),
                "aux": AuxiliaryMoments(mean_a=data.Z @ x + z[1])}

    return _damped_newton(data, prior, False, init, eps, max_iter, params)


# cap on the doublings of _stein: G^(2^60) vanishes unless G's spectral
# radius is within about 1e-15 of 1
_STEIN_DOUBLINGS = 60


def _stein(Q: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Sigma = sum_k (G^k)^T Q G^k, the solution of the Stein equation
    Sigma = Q + G^T Sigma G, by Smith's doubling (SIAM J. Appl. Math. 16,
    1968): Sigma <- Sigma + G^T Sigma G and G <- G^2 double the terms
    summed, until a doubling leaves Sigma unchanged, as G has underflowed
    against it; NumericError if _STEIN_DOUBLINGS do not get there."""
    Sig = Q
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_STEIN_DOUBLINGS):
            new = Sig + G.T @ Sig @ G
            if np.array_equal(new, Sig):
                return symmetrize(Sig)
            Sig, G = new, G @ G
    raise NumericError("covariance equation has no solution: G^k does not "
                       "vanish")


def _smoothed(variant: str, d: tuple[int, ...], z: list[np.ndarray],
              m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """zeta_d smoothed at (m_i, v_i), one row per order in d: by the
    second-order delta method, xi's series to two terms from the zeta
    orders z at m (up to max(d) + 2), for "dm"; by xi itself for "quad"."""
    return _xi_series(z, d, v, 2) if variant == "dm" else xi(d, m, v)


def probit_mp_fit(data: ProbitData, prior: ProbitPrior, variant: str = "dm",
                  eps: float = 1e-6, max_iter: int = 500,
                  init: GaussianApprox | MomentSummary | None = None
                  ) -> FitReport:
    """Moment-propagation fit with q(beta) Gaussian and nonparametric q(a),
    started from init's mean and covariance; each iteration solves the
    covariance equation, then takes a Newton step in the mean (see the
    module docstring).

    variant selects how the Gaussian-smoothed xi_1, xi_2 are evaluated:
    "dm" (second-order delta method, needs zeta up to order 4) or "quad"
    (xi itself).
    """
    if variant not in ("dm", "quad"):
        raise DomainError(f"unknown MP variant {variant!r}; use 'dm' or 'quad'")
    Z, D, (n, p) = data.Z, prior.D, data.Z.shape
    kmax = 4 if variant == "dm" else 2
    # dm's walk 2 reads the zeta orders at m again: a lone block's from
    # walk 1, others' from a new call on the block
    redo = variant == "dm" and n > _WALK_BLOCK
    precision, S = _workspace(data, prior)
    if init is None:
        mu, Sig = S @ Z.sum(axis=0), S.copy()
    else:
        mu = _start_mean(init, p)
        Sig = require_spd(require_shape(init.cov, (p, p), "init cov"),
                          "init cov")

    def step(state):
        mu, _, v, _ = state
        m = _predictor(Z, mu)
        # Gram matrices Z^T diag(w) Z, each summed in _gram's blocks: A at
        # the old v and G (walk 1), and A at the new v (walk 2). Where a sum
        # overflows, as where v is vast, that is one NumericError, with no
        # RuntimeWarning
        grams = np.zeros((3, p, p))
        A, G, A_new = grams
        vec = np.empty(p + p * p + n)  # the trace entry: mu, Sigma, mu_a
        x1 = vec[p + p * p:]  # xi_1, then mu_a
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, n, _WALK_BLOCK):
                rows = slice(s, s + _WALK_BLOCK)
                Zb, mb = Z[rows], m[rows]
                z = _zeta_orders(kmax, mb)
                # zeta_2 lies in (-1, 0); equality with 0 only through
                # underflow at huge positive predictors, which is harmless
                if not ((z[2] > -1.0) & (z[2] <= 0.0)).all():
                    raise NumericError("zeta_2 left (-1, 0); iteration is "
                                       "invalid")
                _gram(Zb, 1.0 + z[2], G)
                if variant == "quad":
                    z = None  # xi reads none, and xi's scratch is large
                _gram(Zb, 1.0 + _smoothed(variant, (2,), z, mb, v[rows])[0],
                      A)
            if not np.isfinite(grams[:2]).all():
                raise NumericError("a Gram matrix of the covariance equation "
                                   "is not finite")
            Sig = _stein(symmetrize(S + S @ A @ S), G @ S)
            # walk 2, at the new v, written over the old
            for s in range(0, n, _WALK_BLOCK):
                rows = slice(s, s + _WALK_BLOCK)
                Zb, mb = Z[rows], m[rows]
                vb = _row_quadform(Zb, Sig, v[rows])
                if redo:
                    z = _zeta_orders(kmax, mb)
                x1[rows], x2 = _smoothed(variant, (1, 2), z, mb, vb)
                _gram(Zb, 1.0 + x2, A_new)
        try:  # Newton in mu at the new v; the plain map where it has no ascent
            _, step_matrix = _cholesky_inverse(
                precision - A_new, "S^-1 - A is not positive definite")
        except NumericError:
            step_matrix = S
        mu = mu + step_matrix @ (Z.T @ x1 - D @ mu)
        vec[:p], vec[p:p + p * p] = mu, Sig.ravel()
        x1 += m  # E_q(a) = m + xi_1
        return (mu, Sig, v, x1), vec

    return fixed_point(
        step, (mu, Sig, _row_quadform(Z, Sig), None),
        lambda s: {"beta": GaussianApprox(s[0], s[1]),
                   "aux": AuxiliaryMoments(mean_a=s[3])},
        eps, max_iter)


def probit_dmvb_fit(data: ProbitData, prior: ProbitPrior, eps: float = 1e-6,
                    max_iter: int = 500,
                    init: GaussianApprox | MomentSummary | None = None
                    ) -> FitReport:
    """Damped Newton ascent of the profiled delta-method ELBO along M^-1 g
    (g the gradient, M = Z^T diag(-zeta_2(Z mu)) Z + D); stops on a step
    below eps in the max norm, so a restart from the optimum takes two."""
    return _damped_newton(data, prior, True, init, eps, max_iter)


# largest double below 1: scaling 1 - u by it keeps V Phi(m) below 1, so
# ndtri never sees 1 and a draw stays finite for predictors far above 0
_BELOW_ONE = 1.0 - 2.0 ** -53
# below this predictor Phi(m) V, with V as small as 2^-53, can leave the
# normal doubles; those rows are drawn in log space
_LOG_TAIL = -36.0


def _tail_mass(rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill out with V = (1 - u)(1 - 2^-53), u uniform on [0, 1), so V lies
    in (0, 1): the share of the positive mass that a draw leaves above it."""
    rng.random(out=out)
    np.subtract(1.0, out, out=out)
    out *= _BELOW_ONE
    return out


def _truncnorm_into(m: np.ndarray, v: np.ndarray, out: np.ndarray
                    ) -> np.ndarray:
    """out <- m - Phi^-1(V Phi(m)): draws from N(m, 1) conditioned on being
    positive (inverse-CDF form), with V from _tail_mass. Rows with m below
    _LOG_TAIL use m - ndtri_exp(log V + log Phi(m))."""
    ndtr(m, out=out)
    np.multiply(out, v, out=out)
    ndtri(out, out=out)
    if m[m.argmin()] < _LOG_TAIL:
        tail = m < _LOG_TAIL
        out[tail] = ndtri_exp(np.log(v[tail]) + log_ndtr(m[tail]))
    return np.subtract(m, out, out=out)


def _truncnorm_ar(rng: np.random.Generator, m: np.ndarray, out: np.ndarray
                  ) -> np.ndarray:
    """out <- draws from N(m, 1) conditioned on being positive, by accept-
    reject with an exact fallback: the proposal m + e, e ~ N(0, 1), is kept
    where it is positive, and only the k other rows are redrawn, by
    _truncnorm_into from the next k uniforms in row order, so every row is
    an exact draw (Robert, Statistics and Computing 5, 1995). m is
    overwritten: those uniforms go to its first k rows once the rejected
    rows' m is gathered."""
    rng.standard_normal(out=out)
    out += m
    rows = np.flatnonzero(out <= 0.0)
    if len(rows):
        mk = m[rows]
        out[rows] = _truncnorm_into(mk, _tail_mass(rng, m[:len(rows)]),
                                    np.empty_like(mk))
    return out


# batches of the Gibbs draws behind the batch-means Monte Carlo error
_MC_BATCHES = 50
# below _GIBBS_SPLIT rows the Gibbs uniforms are drawn for blocks of
# max(1, _GIBBS_CELLS // n) draws, about _GIBBS_CELLS doubles a block
_GIBBS_CELLS = 1 << 15
# from this many rows on a Gibbs draw splits Z's rows in two halves, one on
# a worker thread (_gibbs_halves); at p = 20 that pays from between 1e4 and
# 2e4 rows. The 20,000-row memory test runs the split path.
_GIBBS_SPLIT = 1 << 14


def _gibbs_halves(Z: np.ndarray, S: np.ndarray, total: int, seed: int
                  ) -> np.ndarray:
    """_gibbs_chain from _GIBBS_SPLIT rows on. The rows are split into two
    fixed halves, views of Z. Per draw each half computes m_k = Z_k beta,
    draws a_k by _truncnorm_ar and forms c_k = Z_k^T a_k; the second half
    runs on one worker thread. Then beta = S (c_0 + c_1) + L e. The halves'
    products are einsum's, not BLAS', whose own threads spin on the second
    CPU and slow both halves. Each numpy call in a half can wait for the
    interpreter lock while the other half holds it, so a half makes few.

    Each half reads its own generator and beta's normals a third, all
    spawned from SeedSequence(seed), so the chain depends on the seed alone,
    not on thread timing. m and a are made once.
    """
    # imported here, not at the top: loading the executor's module raised
    # the peak RSS of a run that never splits (probit-small-study) by 0.2 MB
    from concurrent.futures import ThreadPoolExecutor

    n, p = Z.shape
    rngs = [np.random.default_rng(s) for s in seed_sequence(seed).spawn(3)]
    chain = rngs[2].standard_normal((total, p))  # overwritten by the draws
    L = np.linalg.cholesky(S)
    h = (n + 1) // 2
    halves = (slice(0, h), slice(h, n))
    m, a = np.empty(n), np.empty(n)
    c, e = np.empty((2, p)), np.empty(p)

    def half(k: int, beta: np.ndarray) -> None:
        rows = halves[k]
        Zk, mk = Z[rows], m[rows]
        np.einsum("ij,j->i", Zk, beta, out=mk)
        ak = _truncnorm_ar(rngs[k], mk, a[rows])
        np.einsum("ij,i->j", Zk, ak, out=c[k])

    beta = np.zeros(p)
    with ThreadPoolExecutor(1) as pool:
        for draw in chain:
            job = pool.submit(half, 1, beta)
            half(0, beta)
            job.result()
            np.dot(L, draw, out=e)
            np.dot(S, np.add(c[0], c[1], out=c[0]), out=draw)
            beta = np.add(draw, e, out=draw)
    return chain


def _gibbs_chain(Z: np.ndarray, S: np.ndarray, total: int, seed: int
                 ) -> np.ndarray:
    """total Albert-Chib draws of beta, from beta = 0, as a (total, p)
    array; its n-vector buffers are freed on return. A draw's beta is
    S Z^T a + e, with S Z^T held below _GIBBS_SPLIT rows."""
    n, p = Z.shape
    if n >= _GIBBS_SPLIT:
        return _gibbs_halves(Z, S, total, seed)
    SZt, Lt = S @ Z.T, np.linalg.cholesky(S).T
    rng_u, rng_e = (np.random.default_rng(s)
                    for s in seed_sequence(seed).spawn(2))
    chain = rng_e.standard_normal((total, p))  # overwritten by the draws
    block = max(1, _GIBBS_CELLS // n)
    V, E = np.empty((block, n)), np.empty((block, p))
    m, a = np.zeros(n), np.empty(n)  # m = Z beta, starting from beta = 0
    for s in range(0, total, block):
        b = min(block, total - s)
        Vb, Nb, Eb = _tail_mass(rng_u, V[:b]), chain[s:s + b], E[:b]
        # E = N L^T column by column, so a row's sums do not depend on b
        np.multiply(Nb[:, :1], Lt[0], out=Eb)
        for k in range(1, p):
            Eb += Nb[:, k:k + 1] * Lt[k]
        for v, e, beta in zip(Vb, Eb, Nb):
            _truncnorm_into(m, v, a)
            np.dot(SZt, a, out=beta)
            np.add(beta, e, out=beta)
            np.dot(Z, beta, out=m)
    return chain


def probit_gibbs_oracle(data: ProbitData, prior: ProbitPrior,
                        n_samples: int = 50_000, n_warmup: int = 5_000,
                        seed: int = 0) -> MomentSummary:
    """Albert-Chib data-augmentation Gibbs sampler.

    a_i | beta ~ N(z_i^T beta, 1) truncated to (0, inf); beta | a ~
    N(S Z^T a, S). Returns the empirical posterior mean and covariance of
    beta with batch-means Monte Carlo standard errors for the mean. The
    draws depend on the seed and on n's regime (see the module docstring).
    """
    if n_samples < 1000:
        raise DomainError("need at least 1000 samples")
    if n_warmup < 0:
        raise DomainError("n_warmup must be non-negative")
    p = data.p
    _, S = _workspace(data, prior)
    draws = _gibbs_chain(data.Z, S, n_warmup + n_samples, seed)[n_warmup:]
    mean = draws.mean(axis=0)
    cov = np.cov(draws.T, ddof=1).reshape(p, p)
    batch_means = draws[: n_samples - n_samples % _MC_BATCHES].reshape(
        _MC_BATCHES, -1, p).mean(axis=1)
    mc_se = batch_means.std(axis=0, ddof=1) / np.sqrt(_MC_BATCHES)
    return MomentSummary(mean=mean, cov=cov, mc_se=mc_se)
