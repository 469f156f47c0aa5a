"""Reference computations for the output checks, written apart from momprop.

Nothing here imports momprop: every quantity a check compares against is
computed from the model definitions with numpy and scipy alone.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import log_ndtr

_LOG_SQRT_2PI = 0.5 * np.log(2.0 * np.pi)

# Worst absolute error of momprop's series branch of xi_d against
# Gauss-Hermite over mu in [-8, 8] and sigma2 < 0.5 (3.6e-4 for d=1 and
# 1.45e-3 for d=2, both at the branch edge sigma2 -> 0.5), rounded up. The
# quadrature branch is within 5e-6 of Gauss-Hermite on sigma2 in [0.5, 3],
# below both budgets. README.md derives the check tolerances from these.
XI_BUDGET = {1: 5e-4, 2: 2e-3}


def _spd_inverse(M: np.ndarray) -> np.ndarray:
    c = cho_factor(M)
    inv = cho_solve(c, np.eye(M.shape[0]))
    return 0.5 * (inv + inv.T)


# ---------------------------------------------------------------------------
# zeta_1..zeta_4 in closed form from log_ndtr


def zetas(t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """zeta_1..zeta_4 of log Phi at t.

    zeta_1 = r = phi/Phi is taken from log_ndtr, then r' = -r (t + r) and
    its derivatives: zeta_3 = -r - (t + 2r) zeta_2 and
    zeta_4 = -2 zeta_2 (1 + zeta_2) - (t + 2r) zeta_3.
    """
    t = np.asarray(t, dtype=float)
    r = np.exp(-0.5 * t * t - _LOG_SQRT_2PI - log_ndtr(t))
    z2 = -r * (t + r)
    z3 = -r - (t + 2.0 * r) * z2
    z4 = -2.0 * z2 * (1.0 + z2) - (t + 2.0 * r) * z3
    return r, z2, z3, z4


def xi_gauss_hermite(d: int, m, v, nodes: int = 120) -> np.ndarray:
    """xi_d(m, v) = E zeta_d(m + sqrt(v) X), X ~ N(0, 1), by Gauss-Hermite."""
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / np.sqrt(2.0 * np.pi)
    m = np.asarray(m, dtype=float)
    v = np.asarray(v, dtype=float)
    t = m[:, None] + np.sqrt(v)[:, None] * x[None, :]
    return zetas(t)[d - 1] @ w


# ---------------------------------------------------------------------------
# probit


def probit_design(y: np.ndarray, X: np.ndarray) -> np.ndarray:
    return np.where(y > 0.5, 1.0, -1.0)[:, None] * X


def probit_S(Z: np.ndarray, D: np.ndarray) -> np.ndarray:
    """Mean-field coefficient covariance (Z'Z + D)^-1."""
    return _spd_inverse(Z.T @ Z + D)


def newton_step(Z: np.ndarray, D: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """H^-1 grad of log p(y, beta) at beta: zero at the posterior mode."""
    z1, z2, _, _ = zetas(Z @ beta)
    grad = Z.T @ z1 - D @ beta
    H = Z.T @ (-z2[:, None] * Z) + D
    return cho_solve(cho_factor(H), grad)


def mfvb_contraction(Z: np.ndarray, D: np.ndarray, beta: np.ndarray) -> float:
    """Spectral radius of the mean-field mean update's Jacobian at beta,
    S Z' diag(1 + zeta_2) Z."""
    S = probit_S(Z, D)
    z2 = zetas(Z @ beta)[1]
    J = S @ (Z.T @ ((1.0 + z2)[:, None] * Z))
    return float(np.max(np.abs(np.linalg.eigvals(J))))


def mp_sweep(Z: np.ndarray, D: np.ndarray, mu: np.ndarray, Sig: np.ndarray,
             variant: str) -> tuple[np.ndarray, np.ndarray]:
    """One moment-propagation sweep from (mu, Sig).

    beta | a ~ N(S Z'a, S), so E beta = S Z' E a and
    Var beta = S + S Z' Var(a) Z S, where a_i has mean m_i + xi_1 and the
    variance 1 + xi_2 on the diagonal, and the shared beta adds
    W Z Sig Z' W with W = diag(1 + zeta_2(m)). xi_1, xi_2 come from the
    delta method ("dm") or from Gauss-Hermite ("quad").
    """
    S = probit_S(Z, D)
    SZt = S @ Z.T
    m = Z @ mu
    v = np.sum((Z @ Sig) * Z, axis=1)
    z1, z2, z3, z4 = zetas(m)
    if variant == "dm":
        x1 = z1 + 0.5 * z3 * v
        x2 = z2 + 0.5 * z4 * v
    else:
        x1 = xi_gauss_hermite(1, m, v)
        x2 = xi_gauss_hermite(2, m, v)
    new_mu = SZt @ (m + x1)
    K = (SZt * (1.0 + z2)) @ Z
    new_Sig = S + (SZt * (1.0 + x2)) @ SZt.T + K @ Sig @ K.T
    return new_mu, 0.5 * (new_Sig + new_Sig.T)


def mp_residual_tolerance(Z: np.ndarray, D: np.ndarray, eps: float,
                          variant: str) -> tuple[float, float]:
    """Bounds on one sweep's change at a point the fitter called converged.

    The fitter stopped once a sweep moved (mu, Sigma, E a) by less than eps,
    so the next sweep moves them by less than eps while the sweep
    contracts; allow 2 eps. For "quad" the fitter's xi can differ from the
    reference by XI_BUDGET[d] per element, which moves mu by at most
    |S Z'|_inf * XI_BUDGET[1] and Sigma by at most
    max_jk sum_i |S Z'|_ji |S Z'|_ki * XI_BUDGET[2].
    """
    tol_mu = tol_sig = 2.0 * eps
    if variant == "quad":
        A = np.abs(probit_S(Z, D) @ Z.T)
        tol_mu += np.max(A.sum(axis=1)) * XI_BUDGET[1]
        tol_sig += np.max(A @ A.T) * XI_BUDGET[2]
    return tol_mu, tol_sig


def dmvb_objective(Z: np.ndarray, D: np.ndarray, mu: np.ndarray) -> float:
    """Profiled delta-method ELBO:
    sum log Phi(z'mu) - mu'D mu / 2 - log det(Z' diag(-zeta_2) Z + D) / 2."""
    t = Z @ mu
    M = Z.T @ (-zetas(t)[1][:, None] * Z) + D
    logdet = 2.0 * np.sum(np.log(np.diag(np.linalg.cholesky(M))))
    return float(np.sum(log_ndtr(t)) - 0.5 * mu @ D @ mu - 0.5 * logdet)


def dmvb_is_local_max(Z: np.ndarray, D: np.ndarray, mu: np.ndarray,
                      rel_step: float = 1e-2) -> bool:
    """dmvb_objective falls when any coordinate of mu moves by rel_step
    posterior sds either way. At a maximum the fall is about
    rel_step^2 / 2 per coordinate, far above rounding in the objective."""
    t = Z @ mu
    M = Z.T @ (-zetas(t)[1][:, None] * Z) + D
    steps = rel_step * np.sqrt(np.diag(_spd_inverse(M)))
    f0 = dmvb_objective(Z, D, mu)
    for j, h in enumerate(steps):
        for sign in (1.0, -1.0):
            moved = mu.copy()
            moved[j] += sign * h
            if not dmvb_objective(Z, D, moved) < f0:
                return False
    return True


def dmvb_gradient(Z: np.ndarray, D: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """Gradient of dmvb_objective.

    d/dmu_k of -logdet(M)/2 is -tr(M^-1 dM/dmu_k)/2 with
    dM/dmu_k = Z' diag(-zeta_3 z_k) Z, which sums to
    sum_i h_i zeta_3,i z_i / 2 with h_i = z_i' M^-1 z_i.
    """
    t = Z @ mu
    z1, z2, z3, _ = zetas(t)
    M = Z.T @ (-z2[:, None] * Z) + D
    h = np.sum(Z * cho_solve(cho_factor(M), Z.T).T, axis=1)
    return Z.T @ z1 - D @ mu + 0.5 * Z.T @ (h * z3)


# ---------------------------------------------------------------------------
# conjugate models


def linear_posterior(y: np.ndarray, X: np.ndarray, g: float, A: float,
                     B: float) -> dict:
    """g-prior posterior: beta | y ~ t(loc, scale, dof), sigma2 | y ~ IG.

    With u = g/(1+g) and b = X'y, the posterior mean of beta is
    u (X'X)^-1 b and the inverse-gamma scale is
    B + (y'y - u b'(X'X)^-1 b) / 2.
    """
    n = X.shape[0]
    XtX = X.T @ X
    b = X.T @ y
    sol = np.linalg.solve(XtX, b)
    u = g / (1.0 + g)
    shape = A + n / 2.0
    scale = B + 0.5 * max(y @ y - u * b @ sol, 0.0)
    t_scale = (scale / shape) * u * np.linalg.inv(XtX)
    dof = 2.0 * A + n
    return {"loc": u * sol, "scale": 0.5 * (t_scale + t_scale.T), "dof": dof,
            "cov": dof / (dof - 2.0) * 0.5 * (t_scale + t_scale.T),
            "ig_shape": shape, "ig_scale": scale}


def mvn_posterior(n: int, xbar: np.ndarray, S: np.ndarray, lambda0: float,
                  nu0: float, Psi0: np.ndarray) -> dict:
    """Normal/inverse-Wishart posterior: Sigma | X ~ IW(Psi_n, nu_n) and
    mu | X ~ t(mu_n, Psi_n / (lambda_n (nu_n - p + 1)), nu_n - p + 1)."""
    p = xbar.shape[0]
    lam_n = lambda0 + n
    nu_n = nu0 + n
    Psi_n = Psi0 + S + (n * lambda0 / lam_n) * np.outer(xbar, xbar)
    Psi_n = 0.5 * (Psi_n + Psi_n.T)
    dof = nu_n - p + 1.0
    scale = Psi_n / (lam_n * dof)
    return {"loc": n * xbar / lam_n, "scale": scale, "dof": dof,
            "cov": dof / (dof - 2.0) * scale, "iw_scale": Psi_n,
            "iw_dof": nu_n}


def gaussian_blocks(Sigma: np.ndarray, split: int) -> dict:
    """Marginal blocks of Sigma and the conditional covariances, the latter
    as inverses of the diagonal blocks of the precision matrix."""
    P = np.linalg.inv(Sigma)
    return {"marg1": Sigma[:split, :split], "marg2": Sigma[split:, split:],
            "cond1": np.linalg.inv(P[:split, :split]),
            "cond2": np.linalg.inv(P[split:, split:])}
