"""Moment propagation and mean-field variational Bayes for conjugate models.

Fitters for three models (linear regression with a g-prior, multivariate
normal with a normal / inverse-Wishart prior, probit regression), each with
exact or sampling oracles, plus the stable special-function kernel the
probit methods rely on.
"""

from .diagnostics import (DensityGrid, ToyGaussianSpec, accuracy,
                          moment_errors, toy_gaussian_mfvb, toy_gaussian_mp)
from .exceptions import DomainError, NumericError, UndefinedMomentError
from .linear import (LinearConstants, LinearData, LinearPrior,
                     linear_constants, linear_exact_posterior,
                     linear_mfvb_fit, linear_mp1_fit, linear_mp2_fit)
from .moments import (GaussianApprox, InverseGammaApprox,
                      InverseWishartApprox, StudentTApprox, ig_mean_var,
                      ig_moment_match, iw_elementwise_var_diag, iw_mean,
                      iw_moment_match)
from .mvn import (MVNConstants, MVNData, MVNPrior, iw_diag_marginal,
                  mvn_constants, mvn_exact_posterior, mvn_mfvb_fit,
                  mvn_mp_fit)
from .probit import (AuxiliaryMoments, ProbitData, ProbitPrior,
                     probit_dmvb_fit, probit_gibbs_oracle, probit_laplace_fit,
                     probit_mfvb_fit, probit_mp_fit)
from .reports import FitReport, MomentSummary, moment_summary
from .specfun import log_Phi, xi, xi_quad, xi_taylor, zeta

__all__ = [
    "AuxiliaryMoments", "DensityGrid", "DomainError", "FitReport",
    "GaussianApprox", "InverseGammaApprox", "InverseWishartApprox",
    "LinearConstants", "LinearData", "LinearPrior", "MVNConstants", "MVNData",
    "MVNPrior", "MomentSummary", "NumericError", "ProbitData", "ProbitPrior",
    "StudentTApprox", "ToyGaussianSpec", "UndefinedMomentError", "accuracy",
    "ig_mean_var", "ig_moment_match", "iw_diag_marginal",
    "iw_elementwise_var_diag", "iw_mean", "iw_moment_match",
    "linear_constants", "linear_exact_posterior", "linear_mfvb_fit",
    "linear_mp1_fit", "linear_mp2_fit", "log_Phi", "moment_errors",
    "moment_summary", "mvn_constants", "mvn_exact_posterior", "mvn_mfvb_fit",
    "mvn_mp_fit", "probit_dmvb_fit", "probit_gibbs_oracle",
    "probit_laplace_fit", "probit_mfvb_fit", "probit_mp_fit",
    "toy_gaussian_mfvb", "toy_gaussian_mp", "xi", "xi_quad", "xi_taylor",
    "zeta",
]

__version__ = "0.1.0"
