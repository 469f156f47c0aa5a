"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines; criteria 1 and 4 also print the two worked-example tables, and 6
and 7 the probit study's figures. Every tolerance is fixed here; nothing
is calibrated at runtime.

Three reference iteration counts encoded in criteria 1 and 4, and the
series-branch tolerance in criterion 8, are not reproducible from the
update equations and defaults this package implements; the inline notes
at each assertion explain why. Those sub-checks are asserted as given and
fail honestly rather than being weakened.
"""

import time

import numpy as np
from scipy import integrate, stats

import momprop as mp
from momprop.datagen import (fixed_linear_dataset, generate_linear,
                             generate_mvn, generate_probit)
from momprop.specfun import _zeta_orders

EPS = 1e-6


def sig3(x: float) -> float:
    return float(f"{x:.3g}")


def relerr(a, b) -> float:
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def finish(num: int, desc: str, failures: list[str]):
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} - {desc}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def linear_reference():
    y, X = fixed_linear_dataset()
    return mp.LinearData(y, X), mp.LinearPrior(g=1e4, A=0.01, B=0.01)


def mvn_reference():
    data = mp.MVNData(n=4, xbar=[-0.9724726, 1.3202681],
                      S=[[0.8144316, 0.5688416], [0.5688416, 1.9682059]])
    return data, mp.MVNPrior(lambda0=0.01, nu0=3.0, Psi0=np.eye(2))


def beta_moments(approx):
    if hasattr(approx, "loc"):
        return approx.loc, approx.cov
    return approx.mean, approx.cov


def test_criterion_01_linear_reference_table():
    """Five-point linear example: full method table at eps = 1e-6."""
    t0 = time.perf_counter()
    data, prior = linear_reference()
    failures: list[str] = []

    table = {
        "mfvb": (mp.linear_mfvb_fit, (0.908, 1.47, 11.0, 120.0), 12),
        "mp1": (mp.linear_mp1_fit, (0.908, 2.44, 12.2, 185.0), 12),
        "mp2": (mp.linear_mp2_fit, (0.908, 2.44, 12.2, 293.0), 17),
    }
    print("\nlinear model, intercept-only five-point sample "
          "(g=1e4, A=B=0.01, eps=1e-6)")
    print(f"{'method':8s} {'E(b)':>8s} {'V(b)':>8s} {'E(s2)':>8s} "
          f"{'V(s2)':>8s} {'iters':>6s}")
    for name, (fit, row, iters) in table.items():
        rep = fit(data, prior, eps=EPS, max_iter=500)
        mean, cov = beta_moments(rep.params["beta"])
        em, ev = mp.ig_mean_var(rep.params["sigma2"])
        print(f"{name:8s} {mean[0]:8.3f} {cov[0, 0]:8.3f} {em:8.2f} "
              f"{ev:8.1f} {rep.iterations:6d}")
        got = (sig3(mean[0]), sig3(cov[0, 0]), sig3(em), sig3(ev))
        if got != tuple(map(sig3, row)):
            failures.append(f"{name} moments {got} != {row}")
        if rep.iterations != iters:
            # Published count; not reproducible for mfvb from these update
            # equations at eps=1e-6 (the B-parameter recursion contracts at
            # rate p/(2A+n+p), which meets eps three sweeps earlier).
            failures.append(f"{name} iterations {rep.iterations} != {iters}")
    beta_t, s2 = mp.linear_exact_posterior(data, prior)
    em, ev = mp.ig_mean_var(s2)
    print(f"{'exact':8s} {beta_t.loc[0]:8.3f} {beta_t.cov[0, 0]:8.3f} "
          f"{em:8.2f} {ev:8.1f} {'-':>6s}")
    got = (sig3(beta_t.loc[0]), sig3(beta_t.cov[0, 0]), sig3(em), sig3(ev))
    if got != (0.908, 2.44, 12.2, 293.0):
        failures.append(f"exact moments {got}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    finish(1, "linear reference table (moments 3 s.f., counts, <1s)",
           failures)


def _linear_instances(count: int = 50):
    rng = np.random.default_rng(2024)
    for i in range(count):
        n = int(rng.integers(10, 201))
        p = int(rng.integers(1, 9))
        y, X = generate_linear(n, p, seed=1000 + i, sigma=1.5)
        yield mp.LinearData(y, X), mp.LinearPrior(g=30.0, A=0.6, B=0.8)


def test_criterion_02_mp2_exactness():
    """Converged t-family MP equals the closed-form posterior, 1e-8 rel."""
    t0 = time.perf_counter()
    failures = []
    for i, (data, prior) in enumerate(_linear_instances()):
        rep = mp.linear_mp2_fit(data, prior, eps=1e-12, max_iter=5000)
        beta_ex, s2_ex = mp.linear_exact_posterior(data, prior)
        beta, s2 = rep.params["beta"], rep.params["sigma2"]
        checks = [relerr(beta.loc, beta_ex.loc),
                  relerr(beta.scale, beta_ex.scale),
                  relerr(beta.dof, beta_ex.dof),
                  relerr(s2.shape, s2_ex.shape),
                  relerr(s2.scale, s2_ex.scale)]
        if max(checks) > 1e-8:
            failures.append(f"instance {i}: rel err {max(checks):.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    finish(2, "t-family MP recovers exact posterior on 50 instances",
           failures)


def test_criterion_03_fixed_point_identities_and_ordering():
    """Mean-field and Gaussian-MP fixed points match closed forms; strict
    variance ordering for sigma2."""
    t0 = time.perf_counter()
    failures = []
    for i, (data, prior) in enumerate(_linear_instances()):
        c = mp.linear_constants(data, prior)
        n, p = data.n, data.p
        scale_star = prior.B + n * c.sigma_hat_u2 / 2

        vb = mp.linear_mfvb_fit(data, prior, eps=1e-12, max_iter=5000)
        B_star = ((prior.A + (n + p) / 2) / (prior.A + n / 2)) * scale_star
        Sig_star = (scale_star / (prior.A + n / 2)) * c.u * c.XtX_inv
        if relerr(vb.params["sigma2"].scale, B_star) > 1e-8 or \
                relerr(vb.params["beta"].cov, Sig_star) > 1e-8:
            failures.append(f"instance {i}: mean-field fixed point off")

        mp1 = mp.linear_mp1_fit(data, prior, eps=1e-12, max_iter=5000)
        e_star = scale_star / (prior.A + n / 2 - 1)
        v_star = (1 / (prior.A + (n + p) / 2 - 2)
                  * (1 + (p / 2) / (prior.A + (n + p) / 2 - 1)) * e_star**2)
        em, ev = mp.ig_mean_var(mp1.params["sigma2"])
        if relerr(em, e_star) > 1e-8 or relerr(ev, v_star) > 1e-8:
            failures.append(f"instance {i}: gaussian-MP fixed point off")

        v_vb = mp.ig_mean_var(vb.params["sigma2"])[1]
        v_exact = mp.ig_mean_var(mp.linear_exact_posterior(data, prior)[1])[1]
        if not (v_vb < ev < v_exact):
            failures.append(f"instance {i}: ordering violated")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    finish(3, "fixed-point identities and strict sigma2 variance ordering",
           failures)


def test_criterion_04_mvn_reference_table():
    """Four-observation bivariate example at the printed summary stats."""
    t0 = time.perf_counter()
    data, prior = mvn_reference()
    failures = []

    print("\nbivariate normal, four-observation summary "
          "(lambda0=0.01, nu0=3, Psi0=I, eps=1e-6)")
    print(f"{'method':8s} {'dof':>5s} {'V11':>8s} {'V12':>8s} {'V22':>8s} "
          f"{'Psi11':>7s} {'Psi12':>7s} {'Psi22':>7s} {'iters':>6s}")

    def row(name, dof, cov, Psi, iters):
        print(f"{name:8s} {dof:5.1f} {cov[0, 0]:8.4f} {cov[0, 1]:8.4f} "
              f"{cov[1, 1]:8.4f} {Psi[0, 0]:7.3f} {Psi[0, 1]:7.3f} "
              f"{Psi[1, 1]:7.3f} {iters:>6}")

    vb = mp.mvn_mfvb_fit(data, prior, eps=EPS, max_iter=500)
    Sig = vb.params["mu"].cov
    Psi = vb.params["Sigma"].scale_matrix
    row("mfvb", vb.params["Sigma"].dof, Sig, Psi, vb.iterations)
    got = (sig3(vb.params["Sigma"].dof), sig3(Sig[0, 0]), sig3(Sig[0, 1]),
           sig3(Sig[1, 1]), sig3(Psi[0, 0]), sig3(Psi[0, 1]),
           sig3(Psi[1, 1]))
    want = (8.0, 0.065, 0.0198, 0.106, 2.08, 0.635, 3.41)
    if got != want:
        failures.append(f"mean-field row {got} != {want}")
    if vb.iterations != 9:
        # Published count; the scale-matrix recursion contracts at rate
        # 1/(nu_n+1) and meets eps = 1e-6 one sweep earlier.
        failures.append(f"mean-field iterations {vb.iterations} != 9")

    mpr = mp.mvn_mp_fit(data, prior, eps=EPS, max_iter=500)
    Psi = mpr.params["Sigma"].scale_matrix
    cov = mpr.params["mu"].cov
    row("mp", mpr.params["Sigma"].dof, cov, Psi, mpr.iterations)
    got = (sig3(mpr.params["Sigma"].dof), sig3(Psi[0, 0]), sig3(Psi[0, 1]),
           sig3(Psi[1, 1]), sig3(cov[0, 0]), sig3(cov[0, 1]),
           sig3(cov[1, 1]))
    want = (7.0, 1.82, 0.556, 2.99, 0.114, 0.0347, 0.186)
    if got != want:
        failures.append(f"MP row {got} != {want}")
    if mpr.iterations != 22:
        # Published count; unreachable from the prescribed initialization,
        # which is algebraically a fixed point of the sweep (one sweep
        # reproduces (Psi_n, nu_n) exactly, so the parameter delta is
        # already below any eps at the second sweep).
        failures.append(f"MP iterations {mpr.iterations} != 22")

    mu_t, Sig_iw = mp.mvn_exact_posterior(data, prior)
    row("exact", Sig_iw.dof, mu_t.cov, Sig_iw.scale_matrix, "-")
    ratio = mu_t.cov / vb.params["mu"].cov
    print(f"exact / mfvb variance ratio for the mean: {ratio[0, 0]:.3f} "
          "(expected 1.75)")
    if not np.all(np.abs(ratio - 1.75) <= 0.01):
        failures.append(f"variance ratio {ratio.ravel()} != 1.75 +- 0.01")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    finish(4, "MVN reference table (3 s.f., counts, ratio 1.75, <1s)",
           failures)


def test_criterion_05_mvn_mp_exactness_and_spurious_point():
    """Prescribed init lands on the exact posterior; the degenerate second
    solution of the moment equations reproduces itself under one sweep."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(77)
    for i in range(50):
        n = int(rng.integers(10, 61))
        p = int(rng.integers(1, 5))
        X = generate_mvn(n, p, seed=3000 + i)
        data = mp.MVNData.from_raw(X)
        prior = mp.MVNPrior(lambda0=0.01, nu0=p + 1.0, Psi0=np.eye(p))
        rep = mp.mvn_mp_fit(data, prior, eps=1e-12, max_iter=5000)
        mu_ex, Sig_ex = mp.mvn_exact_posterior(data, prior)
        checks = [relerr(rep.params["mu"].loc, mu_ex.loc),
                  relerr(rep.params["mu"].scale, mu_ex.scale),
                  relerr(rep.params["mu"].dof, mu_ex.dof),
                  relerr(rep.params["Sigma"].scale_matrix,
                         Sig_ex.scale_matrix),
                  relerr(rep.params["Sigma"].dof, Sig_ex.dof)]
        if max(checks) > 1e-8:
            failures.append(f"instance {i}: rel err {max(checks):.2e}")

        c = mp.mvn_constants(data, prior)
        d_sp = p + 3.0
        Psi_sp = 2.0 * c.Psi_n / (c.nu_n - p - 1.0)
        one = mp.mvn_mp_fit(data, prior,
                            init=mp.InverseWishartApprox(Psi_sp, d_sp),
                            max_iter=1)
        if abs(one.params["Sigma"].dof - d_sp) > 1e-10 or \
                np.max(np.abs(one.params["Sigma"].scale_matrix - Psi_sp)) \
                > 1e-10 * max(1.0, np.max(np.abs(Psi_sp))):
            failures.append(f"instance {i}: spurious point not reproduced")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    finish(5, "MVN MP exactness (50 instances) and spurious fixed point",
           failures)


def test_criterion_06_probit_asymptotic_agreement():
    """MP coefficient mean approaches the posterior mode at rate ~1/n and
    the covariance approaches the curvature matrix, in median over seeds."""
    t0 = time.perf_counter()
    failures = []
    ns = [100, 400, 1600]
    beta_true = np.array([0.5, 1.0])
    mean_err = {n: [] for n in ns}
    cov_err = {n: [] for n in ns}
    for seed in range(20):
        for n in ns:
            y, X = generate_probit(n, 2, seed=seed, beta=beta_true)
            data = mp.ProbitData(y, X)
            prior = mp.ProbitPrior.ridge(0.01, 2)
            lap = mp.probit_laplace_fit(data, prior, eps=1e-10)
            dm = mp.probit_mp_fit(data, prior, variant="dm", eps=1e-8,
                                  max_iter=2000)
            mode = lap.params["beta"].mean
            V = lap.params["beta"].cov
            mean_err[n].append(
                np.linalg.norm(dm.params["beta"].mean - mode))
            cov_err[n].append(
                np.linalg.norm(dm.params["beta"].cov - V, "fro")
                / np.linalg.norm(V, "fro"))
    med = [float(np.median(mean_err[n])) for n in ns]
    medc = [float(np.median(cov_err[n])) for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(med), 1)[0])
    if not -1.4 <= slope <= -0.6:
        failures.append(f"mean-error slope {slope:.3f} outside [-1.4,-0.6]")
    if not medc[0] > medc[1] > medc[2]:
        failures.append(f"cov rel err not decreasing: {medc}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s >= 60s")
    finish(6, "probit asymptotics, medians over 20 seeds of |mean diff| and "
           "rel cov diff: " + ", ".join(
               f"n={n} {m:.5f} {c:.5f}" for n, m, c in zip(ns, med, medc))
           + f"; log-log slope {slope:.3f} (about -1 expected)", failures)


def test_criterion_07_probit_gibbs_agreement():
    """Both MP variants sit within 3 Monte Carlo SEs of the Gibbs mean."""
    t0 = time.perf_counter()
    failures = []
    y, X = generate_probit(200, 3, seed=7)
    data = mp.ProbitData(y, X)
    prior = mp.ProbitPrior.ridge(0.01, 3)
    oracle = mp.probit_gibbs_oracle(data, prior, n_samples=50_000,
                                    n_warmup=5_000, seed=1)
    worst = {}
    for variant in ("dm", "quad"):
        rep = mp.probit_mp_fit(data, prior, variant=variant, eps=1e-8,
                               max_iter=2000)
        gap = np.abs(rep.params["beta"].mean - oracle.mean)
        worst[variant] = float(np.max(gap / oracle.mc_se))
        if not np.all(gap <= 3.0 * oracle.mc_se):
            failures.append(
                f"{variant}: |diff| {gap} vs 3*SE {3 * oracle.mc_se}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s >= 30s")
    finish(7, "probit MP within 3 MC-SE of the Gibbs oracle (largest "
           "|MP - Gibbs| mean gap: " + ", ".join(
               f"mp-{v} {g:.2f}" for v, g in worst.items()) + " MC-SE)",
           failures)


# FD-consistency constants: truncation term |zeta_{k+3}| h^2/6 plus the
# recursion's cancellation noise at |t| ~ 30 divided by h. Frozen from a
# measured sweep with a 4-5x margin.
FD_CONSTANTS = {1: 8.0, 2: 2e2, 3: 5e3, 4: 1.2e5, 5: 3e6, 6: 8e7, 7: 2e9,
                8: 5e10, 9: 1.5e12}


def _xi_oracle(d, mu, s2):
    # dense Simpson rule over a generously wide domain; agrees with
    # adaptive quadrature to ~1e-10 and is independent of the series /
    # mode-finding path under test
    sd = np.sqrt(s2)
    x = np.linspace(mu - 12 * sd - 12, mu + 12 * sd + 12, 8001)
    fx = _zeta_orders(d, x)[d] * stats.norm.pdf(x, mu, sd)
    return float(integrate.simpson(fx, x=x))


def test_criterion_08_special_function_suite():
    """zeta-recursion/derivative consistency plus xi branch accuracy on a
    21x21 grid per branch."""
    t0 = time.perf_counter()
    failures = []

    h = 1e-4
    t = np.linspace(-30, 30, 121)
    zp = _zeta_orders(10, t + h)
    zm = _zeta_orders(10, t - h)
    z0 = _zeta_orders(10, t)
    for k in range(1, 10):
        err = float(np.max(np.abs(z0[k + 1] - (zp[k] - zm[k]) / (2 * h))))
        if err > FD_CONSTANTS[k] * h**2:
            failures.append(f"zeta FD consistency k={k}: {err:.2e}")

    mus = np.linspace(-6, 6, 21)
    # series branch, sigma2 < 0.5. The 1e-6 bound cannot hold on the upper
    # end of this range: the series is asymptotic, and near mu ~ 2 with
    # sigma2 ~ 0.5 its error bottoms out around 1e-3 no matter how many
    # terms are kept (measured over K = 5..20). Asserted as given.
    worst_taylor = 0.0
    for d in (1, 2):
        for mu_v in mus:
            for s2 in np.geomspace(0.005, 0.49, 21):
                err = abs(mp.xi_taylor(d, float(mu_v), float(s2))
                          - _xi_oracle(d, float(mu_v), float(s2)))
                worst_taylor = max(worst_taylor, err)
    if worst_taylor > 1e-6:
        failures.append(f"series branch worst err {worst_taylor:.2e} > 1e-6")

    worst_quad = 0.0
    for d in (1, 2):
        for mu_v in mus:
            for s2 in np.linspace(0.5, 10.0, 21):
                err = abs(mp.xi_quad(d, float(mu_v), float(s2))
                          - _xi_oracle(d, float(mu_v), float(s2)))
                worst_quad = max(worst_quad, err)
    if worst_quad > 1e-4:
        failures.append(f"quadrature branch worst err {worst_quad:.2e}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.2f}s >= 10s")
    finish(8, f"special functions (taylor {worst_taylor:.1e}, "
              f"quad {worst_quad:.1e})", failures)


def test_criterion_09_toy_conditioned_gaussian():
    """Block-Gaussian toy: MP recovers the true marginal blocks to 1e-10;
    mean-field equals the Schur complement."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(55)
    for i in range(20):
        d = int(rng.integers(2, 7))
        split = int(rng.integers(1, d))
        a = rng.standard_normal((d, d))
        Sigma = a @ a.T + d * np.eye(d)
        spec = mp.ToyGaussianSpec(mu=rng.standard_normal(d), Sigma=Sigma,
                                  split=split)
        q1, q2, m1, m2 = mp.toy_gaussian_mp(spec, eps=1e-14,
                                            max_iter=200_000)
        if np.max(np.abs(q1.cov - Sigma[:split, :split])) > 1e-10 or \
                np.max(np.abs(q2.cov - Sigma[split:, split:])) > 1e-10:
            failures.append(f"instance {i}: MP blocks off")
        S11 = Sigma[:split, :split]
        S22 = Sigma[split:, split:]
        S12 = Sigma[:split, split:]
        schur1 = S11 - S12 @ np.linalg.inv(S22) @ S12.T
        schur2 = S22 - S12.T @ np.linalg.inv(S11) @ S12
        if np.max(np.abs(m1.cov - schur1)) > 1e-10 or \
                np.max(np.abs(m2.cov - schur2)) > 1e-10:
            failures.append(f"instance {i}: mean-field blocks off")
    elapsed = time.perf_counter() - t0
    finish(9, "toy conditioned Gaussian (20 random SPD matrices)", failures)


def test_criterion_10_probit_mfvb_laplace_equivalence():
    """Converged mean-field coefficient mean equals the Newton mode to 1e-6
    on every probit test instance."""
    failures = []
    instances = [(mp.ProbitData(y=[1.0], X=[[1.0]]),
                  mp.ProbitPrior(D=[[1.0]]))]
    for seed in range(6):
        n = (40, 100, 250)[seed % 3]
        p = (2, 3)[seed % 2]
        y, X = generate_probit(n, p, seed=seed)
        instances.append((mp.ProbitData(y, X), mp.ProbitPrior.ridge(0.01, p)))
    rng = np.random.default_rng(5)
    x = rng.uniform(0.2, 2.0, size=20)
    instances.append((mp.ProbitData(y=np.ones(20), X=x[:, None]),
                      mp.ProbitPrior(D=[[1.0]])))
    for i, (data, prior) in enumerate(instances):
        lap = mp.probit_laplace_fit(data, prior, eps=1e-12)
        vb = mp.probit_mfvb_fit(data, prior, eps=1e-11, max_iter=100_000)
        gap = np.max(np.abs(vb.params["beta"].mean
                            - lap.params["beta"].mean))
        if gap > 1e-6:
            failures.append(f"instance {i}: |mfvb - mode| = {gap:.2e}")
    finish(10, "probit mean-field mean equals the Newton mode (1e-6)",
           failures)
