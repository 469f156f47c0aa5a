"""Accuracy metric, moment errors, density grids, toy block-Gaussian fits."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from momprop.diagnostics import (DensityGrid, ToyGaussianSpec, accuracies,
                                 accuracy, gaussian_density,
                                 gaussian_grid_range, ig_density,
                                 ig_grid_range, make_points, marginal_grids,
                                 moment_errors, t_density, t_grid_range,
                                 toy_gaussian_mp)
from momprop.exceptions import DomainError
from momprop.moments import (GaussianApprox, InverseGammaApprox,
                             InverseWishartApprox, StudentTApprox)
from momprop.probit import AuxiliaryMoments
from momprop.reports import MomentSummary


class TestAccuracy:
    def test_identical_densities(self):
        pts = make_points(-8.0, 8.0)
        g = gaussian_density(pts, 0.0, 1.0)
        assert accuracy(g, g) == pytest.approx(1.0)

    def test_unit_shift_closed_form(self):
        # single crossing at 0.5: accuracy = 1 - (Phi(0.5) - Phi(-0.5))
        pts = make_points(-8.0, 9.0)
        p = gaussian_density(pts, 0.0, 1.0)
        q = gaussian_density(pts, 1.0, 1.0)
        expect = 1.0 - (ndtr(0.5) - ndtr(-0.5))
        assert accuracy(p, q) == pytest.approx(expect, abs=1e-5)
        assert expect == pytest.approx(0.6170750774519738, rel=1e-12)

    def test_disjoint_densities(self):
        pts = make_points(-8.0, 18.0, 8001)
        p = gaussian_density(pts, 0.0, 1.0)
        q = gaussian_density(pts, 10.0, 1.0)
        assert accuracy(p, q) == pytest.approx(0.0, abs=1e-6)

    def test_mismatched_grids_rejected(self):
        p = gaussian_density(make_points(-8.0, 8.0), 0.0, 1.0)
        q = gaussian_density(make_points(-8.0, 8.5), 0.0, 1.0)
        with pytest.raises(DomainError):
            accuracy(p, q)

    @given(st.floats(-2.0, 2.0), st.floats(0.2, 3.0),
           st.floats(-2.0, 2.0), st.floats(0.2, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_symmetric_and_bounded(self, m1, v1, m2, v2):
        pts = make_points(-25.0, 25.0)
        p = gaussian_density(pts, m1, v1)
        q = gaussian_density(pts, m2, v2)
        a = accuracy(p, q)
        b = accuracy(q, p)
        assert a == pytest.approx(b, abs=1e-12)
        assert -1e-9 <= a <= 1.0 + 1e-9


class TestDensityGrids:
    def test_gaussian_mass(self):
        lo, hi = gaussian_grid_range(2.0, 4.0)
        g = gaussian_density(make_points(lo, hi), 2.0, 4.0)
        assert g.mass() == pytest.approx(1.0, abs=1e-6)

    def test_t_mass(self):
        g = t_density(make_points(-40.0, 40.0, 8001), 0.0, 1.5, 5.0)
        assert 0.99 <= g.mass() <= 1.01

    def test_ig_mass_with_quantile_range(self):
        lo, hi = ig_grid_range(2.51, 18.45)
        g = ig_density(make_points(lo, hi), 2.51, 18.45)
        assert 0.99 <= g.mass() <= 1.01

    def test_closed_forms_match_scipy_stats(self):
        """The densities, each on a grid across its bulk and tails, and the
        inverse-gamma range equal scipy.stats' values bit for bit."""
        from scipy import stats
        rng = np.random.default_rng(20)
        for _ in range(300):
            m, v = rng.normal(0.0, 10.0), 10 ** rng.uniform(-6, 4)
            pts = make_points(*gaussian_grid_range(m, v))
            assert np.array_equal(gaussian_density(pts, m, v).values,
                                  stats.norm.pdf(pts, m, np.sqrt(v)))
            loc, scale = rng.normal(0.0, 10.0), 10 ** rng.uniform(-6, 4)
            dof = 10 ** rng.uniform(-0.5, 3.5)
            pts = make_points(*gaussian_grid_range(loc, 16.0 * scale))
            assert np.array_equal(t_density(pts, loc, scale, dof).values,
                                  stats.t.pdf(pts, dof, loc, np.sqrt(scale)))
            shape, scale = 10 ** rng.uniform(-1, 4), 10 ** rng.uniform(-4, 4)
            ig = stats.invgamma(shape, scale=scale)
            lo, hi = ig_grid_range(shape, scale)
            assert (lo, hi) == (ig.ppf(1e-6), ig.ppf(1 - 1e-6))
            for pts in (make_points(lo, hi), make_points(-hi, 2 * hi, 501)):
                assert np.array_equal(ig_density(pts, shape, scale).values,
                                      ig.pdf(pts))

    def test_ig_density_is_zero_off_its_support(self):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            g = ig_density(np.array([-1.0, 0.0, 1.0]), 2.0, 1.0)
        assert g.values[:2].tolist() == [0.0, 0.0]
        assert g.values[2] == pytest.approx(np.exp(-1.0))

    @pytest.mark.parametrize("module", ["scipy.stats", "scipy.linalg"])
    def test_cli_import_leaves_out(self, module):
        """scipy.stats was most of the time `import momprop` took, and
        scipy.linalg added to it; nothing the CLI imports needs either."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            str(Path(__file__).resolve().parent.parent / "src"),
            env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c",
             f"import sys, momprop.cli; print({module!r} in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=60, check=True)
        assert proc.stdout.strip() == "False"

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            DensityGrid(points=[0.0, 1.0], values=[1.0])
        with pytest.raises(DomainError):
            DensityGrid(points=[1.0, 0.0], values=[1.0, 1.0])
        with pytest.raises(DomainError):
            DensityGrid(points=[0.0, 1.0], values=[-1.0, 1.0])


def _on_default_grid(density, grid_range, *params):
    return density(make_points(*grid_range(*params)), *params)


T_SCALE = np.array([[2.0, 0.3], [0.3, 0.5]])
COV = np.array([[1.5, -0.2], [-0.2, 0.25]])
PSI = np.array([[3.0, 0.4], [0.4, 1.2]])


class TestMarginalGrids:
    @pytest.mark.parametrize("block, want", [
        (StudentTApprox([0.5, -1.0], T_SCALE, 7.0),
         {"b0": (t_density, t_grid_range, (0.5, 2.0, 7.0)),
          "b1": (t_density, t_grid_range, (-1.0, 0.5, 7.0))}),
        (GaussianApprox([1.0, 2.0], COV),
         {"b0": (gaussian_density, gaussian_grid_range, (1.0, 1.5)),
          "b1": (gaussian_density, gaussian_grid_range, (2.0, 0.25))}),
        (MomentSummary([1.0, 2.0], COV, mc_se=np.array([0.1, 0.1])),
         {"b0": (gaussian_density, gaussian_grid_range, (1.0, 1.5)),
          "b1": (gaussian_density, gaussian_grid_range, (2.0, 0.25))}),
        (InverseGammaApprox(2.5, 3.0),
         {"b": (ig_density, ig_grid_range, (2.5, 3.0))}),
        (InverseWishartApprox(PSI, 7.0),
         {"b00": (ig_density, ig_grid_range, (3.0, 1.5)),
          "b11": (ig_density, ig_grid_range, (3.0, 0.6))}),
        (AuxiliaryMoments(np.array([0.3, -0.3])), {}),
    ], ids=["t", "gaussian", "gibbs-summary", "ig", "iw-diagonal", "aux"])
    def test_names_and_values_per_block(self, block, want):
        """Each block type gives its marginals under their names, each the
        direct density call on its own default grid, bit for bit."""
        grids = marginal_grids({"b": block})
        assert list(grids) == list(want)
        for name, (density, grid_range, params) in want.items():
            ref = _on_default_grid(density, grid_range, *params)
            assert np.array_equal(grids[name].points, ref.points)
            assert np.array_equal(grids[name].values, ref.values)

    def test_points_choose_and_filter_by_name(self):
        q = {"beta": GaussianApprox([1.0, 2.0], COV),
             "sigma2": InverseGammaApprox(2.5, 3.0)}
        pts = np.linspace(0.5, 4.0, 11)
        grids = marginal_grids(q, {"beta1": pts, "nope": pts})
        assert list(grids) == ["beta1"]
        assert np.array_equal(grids["beta1"].values,
                              gaussian_density(pts, 2.0, 0.25).values)
        assert marginal_grids(q, {}) == {}

    def test_accuracies_on_the_references_points(self):
        """Only the names both sides have are scored, in q's order, each
        by accuracy on the reference's own grid."""
        ref = marginal_grids({"beta": GaussianApprox([0.0, 1.0, 2.0],
                                                     np.diag([1.0, 2.0, 3.0])),
                              "sigma2": InverseGammaApprox(3.0, 2.0)})
        del ref["beta0"]
        q = {"sigma2": InverseGammaApprox(2.5, 3.0),
             "beta": StudentTApprox([0.5, 1.5], T_SCALE, 7.0)}
        got = accuracies(q, ref)
        assert list(got) == ["sigma2", "beta1"]
        assert got["sigma2"] == accuracy(ref["sigma2"], ig_density(
            ref["sigma2"].points, 2.5, 3.0))
        assert got["beta1"] == accuracy(ref["beta1"], t_density(
            ref["beta1"].points, 1.5, 0.5, 7.0))


class TestMomentErrors:
    def test_identical_summaries(self):
        s = MomentSummary(mean=[1.0, 2.0], cov=np.eye(2))
        me, se = moment_errors(s, s)
        assert me == pytest.approx(np.zeros(2))
        assert se == pytest.approx(np.zeros(2))

    def test_reference_sd_error(self):
        a = MomentSummary(mean=[0.908], cov=[[1.47]])
        b = MomentSummary(mean=[0.908], cov=[[2.44]])
        _, se = moment_errors(a, b)
        assert se[0] == pytest.approx(np.sqrt(1.47) - np.sqrt(2.44),
                                      rel=1e-12)
        assert se[0] == pytest.approx(-0.350, abs=5e-4)

    def test_dimension_mismatch(self):
        a = MomentSummary(mean=[0.0], cov=[[1.0]])
        b = MomentSummary(mean=[0.0, 1.0], cov=np.eye(2))
        with pytest.raises(DomainError):
            moment_errors(a, b)


class TestToyGaussian:
    def test_block_independent(self):
        spec = ToyGaussianSpec(mu=np.zeros(3), Sigma=np.eye(3), split=1)
        q1, q2, m1, m2 = toy_gaussian_mp(spec)
        assert q1.cov == pytest.approx(np.eye(1))
        assert q2.cov == pytest.approx(np.eye(2))
        assert m1.cov == pytest.approx(q1.cov)
        assert m2.cov == pytest.approx(q2.cov)

    def test_strong_coupling_reference(self):
        spec = ToyGaussianSpec(mu=[0.0, 0.0],
                               Sigma=[[1.0, 0.9], [0.9, 1.0]], split=1)
        q1, q2, m1, m2 = toy_gaussian_mp(spec, eps=1e-14, max_iter=100_000)
        assert q1.cov[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert q2.cov[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert m1.cov[0, 0] == pytest.approx(0.19, rel=1e-12)
        assert m2.cov[0, 0] == pytest.approx(0.19, rel=1e-12)

    def test_random_spd_blocks_recovered(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((5, 5))
        Sigma = a @ a.T + 5 * np.eye(5)
        spec = ToyGaussianSpec(mu=rng.standard_normal(5), Sigma=Sigma,
                               split=2)
        q1, q2, m1, m2 = toy_gaussian_mp(spec, eps=1e-14, max_iter=100_000)
        assert np.max(np.abs(q1.cov - Sigma[:2, :2])) <= 1e-10
        assert np.max(np.abs(q2.cov - Sigma[2:, 2:])) <= 1e-10

    def test_mfvb_variances_below_mp(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            a = rng.standard_normal((4, 4))
            Sigma = a @ a.T + 4 * np.eye(4)
            spec = ToyGaussianSpec(mu=np.zeros(4), Sigma=Sigma, split=2)
            q1, q2, m1, m2 = toy_gaussian_mp(spec, eps=1e-13,
                                             max_iter=100_000)
            assert np.all(np.diag(m1.cov) <= np.diag(q1.cov) + 1e-12)
            assert np.all(np.diag(m2.cov) <= np.diag(q2.cov) + 1e-12)
            if np.max(np.abs(Sigma[:2, 2:])) > 1e-9:
                assert np.all(np.diag(m1.cov) < np.diag(q1.cov))

    @pytest.mark.parametrize("split", [1.6, np.inf])
    def test_rejects_fractional_split(self, split):
        with pytest.raises(DomainError, match="split must be a whole number"):
            ToyGaussianSpec(mu=np.zeros(3), Sigma=np.eye(3), split=split)
        assert ToyGaussianSpec(mu=np.zeros(3), Sigma=np.eye(3),
                               split=2.0).split == 2

    def test_split_validation(self):
        with pytest.raises(DomainError):
            ToyGaussianSpec(mu=np.zeros(2), Sigma=np.eye(2), split=2)
