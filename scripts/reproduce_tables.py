"""Reproduce the two worked-example tables: the five-point linear fit and
the four-observation bivariate normal fit.

Usage: python scripts/reproduce_tables.py
"""

from __future__ import annotations

import numpy as np

import momprop as mp
from momprop.datagen import fixed_linear_dataset


def linear_table() -> None:
    y, X = fixed_linear_dataset()
    data = mp.LinearData(y, X)
    prior = mp.LinearPrior(g=1e4, A=0.01, B=0.01)

    print("linear model, intercept-only five-point sample "
          "(g=1e4, A=B=0.01, eps=1e-6)")
    print(f"{'method':8s} {'E(b)':>8s} {'V(b)':>8s} {'E(s2)':>8s} "
          f"{'V(s2)':>8s} {'iters':>6s}")
    fits = [("mfvb", mp.linear_mfvb_fit), ("mp1", mp.linear_mp1_fit),
            ("mp2", mp.linear_mp2_fit)]
    for name, fit in fits:
        rep = fit(data, prior)
        b = rep.params["beta"]
        em, ev = mp.ig_mean_var(rep.params["sigma2"])
        print(f"{name:8s} {b.mean[0]:8.3f} {b.cov[0, 0]:8.3f} {em:8.2f} "
              f"{ev:8.1f} {rep.iterations:6d}")
    beta_t, s2 = mp.linear_exact_posterior(data, prior)
    em, ev = mp.ig_mean_var(s2)
    print(f"{'exact':8s} {beta_t.loc[0]:8.3f} {beta_t.cov[0, 0]:8.3f} "
          f"{em:8.2f} {ev:8.1f} {'-':>6s}")


def mvn_table() -> None:
    data = mp.MVNData(n=4, xbar=[-0.9724726, 1.3202681],
                      S=[[0.8144316, 0.5688416], [0.5688416, 1.9682059]])
    prior = mp.MVNPrior(lambda0=0.01, nu0=3.0, Psi0=np.eye(2))

    print()
    print("bivariate normal, four-observation summary "
          "(lambda0=0.01, nu0=3, Psi0=I, eps=1e-6)")
    print(f"{'method':8s} {'dof':>5s} {'V11':>8s} {'V12':>8s} {'V22':>8s} "
          f"{'Psi11':>7s} {'Psi12':>7s} {'Psi22':>7s} {'iters':>6s}")

    vb = mp.mvn_mfvb_fit(data, prior)
    Sig, Psi = vb.params["mu"].cov, vb.params["Sigma"].scale_matrix
    print(f"{'mfvb':8s} {vb.params['Sigma'].dof:5.1f} {Sig[0, 0]:8.4f} "
          f"{Sig[0, 1]:8.4f} {Sig[1, 1]:8.4f} {Psi[0, 0]:7.3f} "
          f"{Psi[0, 1]:7.3f} {Psi[1, 1]:7.3f} {vb.iterations:6d}")

    mpr = mp.mvn_mp_fit(data, prior)
    cov, Psi = mpr.params["mu"].cov, mpr.params["Sigma"].scale_matrix
    print(f"{'mp':8s} {mpr.params['Sigma'].dof:5.1f} {cov[0, 0]:8.4f} "
          f"{cov[0, 1]:8.4f} {cov[1, 1]:8.4f} {Psi[0, 0]:7.3f} "
          f"{Psi[0, 1]:7.3f} {Psi[1, 1]:7.3f} {mpr.iterations:6d}")

    mu_t, Sig_iw = mp.mvn_exact_posterior(data, prior)
    cov, Psi = mu_t.cov, Sig_iw.scale_matrix
    print(f"{'exact':8s} {Sig_iw.dof:5.1f} {cov[0, 0]:8.4f} "
          f"{cov[0, 1]:8.4f} {cov[1, 1]:8.4f} {Psi[0, 0]:7.3f} "
          f"{Psi[0, 1]:7.3f} {Psi[1, 1]:7.3f} {'-':>6s}")
    ratio = mu_t.cov / vb.params["mu"].cov
    print(f"exact / mfvb variance ratio for the mean: "
          f"{ratio[0, 0]:.3f} (expected 1.75)")


if __name__ == "__main__":
    linear_table()
    mvn_table()
