"""Residual suites, LP/Besov/Sobolev norms, and the identities (commutation,
Bochner, weak sphericality) checked on the reconstructed geometry."""

import numpy as np
import pytest

from nullfoliate import diagnostics, geodesic, solver
from nullfoliate.errors import ConfigurationError
from nullfoliate.sphere import SpinField
from nullfoliate.tensors import MetricRep, OneForm, SymTwoTensor, dual, grad

from conftest import (bochner_oneform, bochner_scalar, commutation_check,
                      commutation_grad_laplacian, harmonic,
                      lp_partition_residual, random_real_scalar,
                      random_spin_field, sphericality_report)


@pytest.fixture(scope="module")
def mink_foliation():
    data = geodesic.gen_minkowski(Lmax=8, n_s=24)
    fol = solver.continue_foliation(
        data, solver.SolverConfig(delta=0.25, dv=1.0 / 64.0), v_end=2.0)
    return data, fol


@pytest.fixture(scope="module")
def schw_foliation():
    data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=32)
    fol = solver.continue_foliation(
        data, solver.SolverConfig(delta=0.25, dv=1.0 / 64.0), v_end=2.0)
    return data, fol


class TestConstraintResiduals:
    def test_minkowski_all_below_tolerance(self, mink_foliation):
        data, fol = mink_foliation
        rep = diagnostics.constraint_residuals(
            data, diagnostics.canonical(fol, slice(0, None, 8)))
        assert rep.worst() < 1e-11

    def test_schwarzschild_gauss(self, schw_foliation):
        data, fol = schw_foliation
        rep = diagnostics.constraint_residuals(
            data, diagnostics.canonical(fol, slice(0, None, 8)))
        assert rep.worst("gauss") < 1e-9
        assert rep.worst() < 1e-9

    def test_lapse_detector_sensitivity(self, mink_foliation):
        """Injecting 1e-3 Y20 into log Omega lifts the lapse residual to the
        eigenvalue-6 scale (L2 norm >= 5e-3)."""
        data, fol = mink_foliation
        bent = solver.Foliation(data, fol.v_nodes, fol.s, fol.logOmega.copy())
        g = data.grid
        y20 = np.real(harmonic(g, 2, 0).samples)
        bent.logOmega = bent.logOmega + 1e-3 * y20[None, :, :]
        rep = diagnostics.constraint_residuals(
            data, diagnostics.canonical(bent, [5]))
        row = [r for r in rep.rows if r[0] == "lapse_equation"][0]
        assert row[3] >= 5e-3  # L2 norm


class TestTransportResiduals:
    def test_minkowski(self, mink_foliation):
        data, fol = mink_foliation
        rep = diagnostics.transport_residuals(data, diagnostics.canonical(fol))
        assert rep.worst() < 1e-10

    def test_schwarzschild_trchib_transport(self, schw_foliation):
        """Closed form: d_s[-(2/s)(1-2M/s)] + (1/s) trchib = 2 rho_check."""
        data, fol = schw_foliation
        rep = diagnostics.transport_residuals(data, diagnostics.canonical(fol))
        assert rep.worst("trchib_transport") < 1e-8
        assert rep.worst() < 1e-8

    def test_too_few_levels_rejected(self, mink_foliation):
        data, fol = mink_foliation
        short = solver.Foliation(data, fol.v_nodes[:3], fol.s[:3],
                                 fol.logOmega[:3])
        with pytest.raises(ConfigurationError):
            diagnostics.transport_residuals(data,
                                            diagnostics.canonical(short))


class TestCommutation:
    def test_round_unit_sphere(self, grid12):
        """[grad, Delta] f = -K grad f with K = 1 on the unit sphere."""
        met = MetricRep.round_sphere(grid12, 1.0)
        res = commutation_grad_laplacian(harmonic(grid12, 3, 1), met)
        assert res.max_abs() < 1e-11

    def test_radius_two_sphere(self, grid12):
        """K = 1/4 version on the radius-2 sphere."""
        met = MetricRep.round_sphere(grid12, 2.0)
        res = commutation_grad_laplacian(harmonic(grid12, 2, 0), met)
        assert res.max_abs() < 1e-11

    def test_minkowski_foliation_L_grad(self, mink_foliation):
        """[nabla_L, grad] f = -trchi grad f / 2 for a v-independent profile
        on the flat cone (chihat = 0, grad log Omega = 0)."""
        data, fol = mink_foliation
        f = harmonic(data.grid, 3, 1)
        rep = commutation_check(diagnostics.canonical(fol), f)
        assert rep.worst("comm_L_grad") < 1e-10
        assert rep.worst("comm_grad_laplacian") < 1e-10


class TestLittlewoodPaley:
    def test_partition_of_unity(self, grid12):
        f = random_spin_field(grid12, 0, seed=3)
        assert lp_partition_residual(f) < 1e-10

    def test_partition_on_tensor(self, grid12):
        X = OneForm(random_spin_field(grid12, 1, seed=4))
        assert lp_partition_residual(X) < 1e-10

    def test_h12_of_y20(self, grid12):
        """H^{1/2}(Y20) = (1 + 6)^{1/4}."""
        val = diagnostics.Hs_norm(harmonic(grid12, 2, 0), 0.5)
        assert abs(val - 7.0 ** 0.25) < 1e-12

    def test_besov_of_constant(self, grid12):
        """Only P_{<0} survives: B0(c) = |c| sqrt(4 pi)."""
        c = SpinField.constant(grid12, 2.5)
        assert abs(diagnostics.besov_B0(c)
                   - 2.5 * np.sqrt(4.0 * np.pi)) < 1e-12

    def test_besov_of_y40_matches_multiplier(self, grid12):
        """B0(Y40) = sum_k phi(2^-k sqrt(20)), with at most two nonzero
        terms of the dyadic partition."""
        vals = [diagnostics.lp_phi(2.0 ** (-k) * np.sqrt(20.0))
                for k in range(diagnostics.lp_kmax(grid12) + 1)]
        nonzero = [v for v in vals if v > 1e-14]
        assert len(nonzero) <= 2
        expect = sum(vals)
        assert abs(diagnostics.besov_B0(harmonic(grid12, 4, 0))
                   - expect) < 1e-12

    @pytest.mark.parametrize("s_exp", [0.0, 0.5])
    def test_tensor_norms_count_the_minus_components(self, grid12, s_exp):
        """A stored plus component stands for its conjugate as well: the
        H^s norm of a tensor sums the squares of every dyad component, each
        formed explicitly here."""
        X = OneForm(random_spin_field(grid12, 1, seed=5))
        T = SymTwoTensor(random_real_scalar(grid12, seed=6),
                         random_spin_field(grid12, 2, seed=7))
        cases = ((X, [(X.plus, 1.0), (X.minus, 1.0)]),
                 (T, [(T.trace, 0.5), (T.hat_plus, 1.0), (T.hat_minus, 1.0)]))
        for x, parts in cases:
            want = np.sqrt(sum(
                w * diagnostics.Hs_norm(SpinField.from_samples(
                    grid12, c.spin, c.samples), s_exp) ** 2
                for c, w in parts))
            assert abs(diagnostics.Hs_norm(x, s_exp) - want) <= 1e-12 * want

    def test_phi_support(self):
        ts = np.linspace(1e-3, 8.0, 1000)
        phi = diagnostics.lp_phi(ts)
        assert np.all(phi[(ts < 0.5) | (ts > 2.0)] == 0.0)
        total = sum(diagnostics.lp_phi(2.0 ** (-k) * ts)
                    for k in range(-12, 14))
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestBochner:
    def test_scalar_identity_random(self, grid12):
        met = MetricRep.round_sphere(grid12, 1.0)
        f = random_real_scalar(grid12, seed=8, lmax=5)
        lhs, rhs = bochner_scalar(f, met)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))

    def test_oneform_identity_random(self, grid12):
        met = MetricRep.round_sphere(grid12, 1.0)
        F = grad(random_real_scalar(grid12, seed=9, lmax=5), met) \
            + dual(grad(random_real_scalar(grid12, seed=10, lmax=5), met))
        lhs, rhs = bochner_oneform(F, grid12)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


class TestNormSuite:
    def test_minkowski_all_vanish(self, mink_foliation):
        """Every deviation-from-flat norm entry vanishes on the exact cone."""
        data, fol = mink_foliation
        rep = diagnostics.norm_suite(data, diagnostics.canonical(fol))
        assert all(v < 1e-10 for v in rep.values.values())

    def test_schwarzschild_rho_oracle(self, schw_foliation):
        """|| rho ||_{L2(H)}^2 = int_1^2 4 pi s^2 (2M/s^3)^2 ds in closed
        form; Simpson at dv = 1/64 resolves it to ~1e-6 relative."""
        data, fol = schw_foliation
        rep = diagnostics.norm_suite(data, diagnostics.canonical(fol))
        M = 0.1
        oracle = np.sqrt(16.0 * np.pi * M ** 2 * (1.0 - 1.0 / 8.0) / 3.0)
        assert abs(rep.get("R.rho") - oracle) < 1e-5 * oracle

    def test_norm_monotonicity(self, schw_foliation):
        """Restricting the v-interval never increases a mixed-norm entry."""
        data, fol = schw_foliation
        half = solver.Foliation(data, fol.v_nodes[:fol.n_levels // 2 + 1],
                                fol.s[:fol.n_levels // 2 + 1],
                                fol.logOmega[:fol.n_levels // 2 + 1])
        full_rep = diagnostics.norm_suite(data, diagnostics.canonical(fol))
        half_rep = diagnostics.norm_suite(data, diagnostics.canonical(half))
        for key in ["R.rho", "R", "O.trchi_dev_infinf"]:
            assert half_rep.get(key) <= full_rep.get(key) + 1e-12


class TestGeneratorQuadrature:
    def test_odd_interval_count_one_rule(self, grid8):
        """On 10 round leaves (9 intervals) with |F| = v^2 constant in angle,
        L^2 over each leaf then along the generators equals L^2 along each
        generator then over the first leaf: both norms take one rule."""
        v = np.linspace(1.0, 2.0, 10)
        g = MetricRep(grid8, np.zeros((10,) + grid8.shape))
        F = SpinField.from_samples(
            grid8, 0, v[:, None, None] ** 2 * np.ones(grid8.shape))
        w = diagnostics.simpson_weights(v)
        mixed = diagnostics.mixed_norm(F, g, w, 2, 2)
        assert abs(diagnostics.trace_norm(F, g, w, 2, 2) - mixed) \
            <= 1e-14 * mixed

    def test_simpson_weights_exact_on_cubics(self):
        v = np.linspace(1.0, 2.0, 9)
        w = diagnostics.simpson_weights(v)
        assert abs(np.sum(w * v ** 3) - 3.75) <= 1e-14


class TestSphericality:
    def test_minkowski_split_vanishes(self, mink_foliation):
        _, fol = mink_foliation
        rows, rep = sphericality_report(diagnostics.canonical(fol))
        assert all(r["theta_L2"] < 1e-10 for r in rows)
        assert all(r["psi_H12"] < 1e-10 for r in rows)
        assert rep.worst() < 1e-10

    def test_schwarzschild_v2_vanishes(self, schw_foliation):
        """s = v makes K = 1/s^2 match the 1/v^2 reference exactly, so both
        split pieces vanish."""
        _, fol = schw_foliation
        rows, rep = sphericality_report(diagnostics.canonical(fol))
        assert rows[-1]["theta_L2"] < 1e-9
        assert rows[-1]["psi_H12"] < 1e-10
        assert rep.worst() < 1e-9


class TestMmsResiduals:
    def test_residuals_converge_with_dv(self):
        """Transport residuals on manufactured solutions shrink by ~2^4 per
        dv-halving while the v-error dominates."""
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=12, n_s=32,
                                profile_l=2, profile_m=2)
        data, exact = geodesic.gen_manufactured(spec)
        worst = []
        for dv in [1.0 / 8.0, 1.0 / 16.0]:
            fol = solver.continue_foliation(
                data, solver.SolverConfig(delta=0.5, dv=dv, tol=1e-13),
                v_end=2.0)
            rep = diagnostics.transport_residuals(
                data, diagnostics.canonical(fol))
            worst.append(rep.worst("trchib_transport"))
        factor = worst[0] / worst[1]
        assert factor > 8.0


class TestNormOracle:
    def test_schwarzschild_rho_entry_high_resolution(self):
        """Simpson at dv = 1/128 matches the closed-form 1D integral of
        || rho ||_{L2(H)} to 1e-8 (relative)."""
        data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=32)
        fol = solver.continue_foliation(
            data, solver.SolverConfig(delta=0.25, dv=1.0 / 128.0, tol=1e-13),
            v_end=2.0)
        rep = diagnostics.norm_suite(data, diagnostics.canonical(fol))
        M = 0.1
        oracle = np.sqrt(16.0 * np.pi * M ** 2 * (1.0 - 1.0 / 8.0) / 3.0)
        assert abs(rep.get("R.rho") - oracle) / oracle < 1e-8


class TestSphericalityScaling:
    def test_mms_split_scales_linearly(self):
        """The split norms ||Theta|| + ||Psi|| are O(eps): slope 1 in log-log
        across an amplitude halving."""
        sizes = {}
        for eps in [1e-2, 5e-3]:
            spec = geodesic.MmsSpec(epsilon=eps, Lmax=12, n_s=32,
                                    profile_l=2, profile_m=2)
            data, _ = geodesic.gen_manufactured(spec)
            fol = solver.continue_foliation(
                data, solver.SolverConfig(delta=0.5, dv=1.0 / 16.0),
                v_end=2.0)
            rows, _ = sphericality_report(diagnostics.canonical(fol))
            sizes[eps] = max(r["theta_L2"] + r["psi_H12"] for r in rows)
        slope = np.log(sizes[1e-2] / sizes[5e-3]) / np.log(2.0)
        assert abs(slope - 1.0) < 0.15


class TestConvergenceStudy:
    def test_every_solve_keeps_the_base_config(self, monkeypatch):
        """Each solve of a study runs with the base config (here order-5
        monitoring) at its own dv."""
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, exact = geodesic.gen_manufactured(spec)
        base = solver.SolverConfig(delta=0.5, dv=0.25, tol=1e-13,
                                   monitor_order=5)
        real = solver.continue_foliation
        seen = []

        def recording(data, cfg, **kwargs):
            seen.append((cfg.dv, cfg.monitor_order))
            return real(data, cfg, **kwargs)

        monkeypatch.setattr(solver, "continue_foliation", recording)
        rows, _, _ = diagnostics.convergence_study(data, exact, base,
                                                   [0.25, 0.125], v_end=1.5)
        assert seen == [(0.25, 5), (0.125, 5)]
        assert rows[1][1] < rows[0][1]
