"""Residual suites, LP/Besov/Sobolev norms, and the identities (commutation,
Bochner, weak sphericality) checked on the reconstructed geometry."""

import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nullfoliate import _cheb, diagnostics, geodesic, solver, tensors
from nullfoliate.errors import ConfigurationError
from nullfoliate.sphere import SpinField, build_grid
from nullfoliate.tensors import (MetricRep, OneForm, SymTwoTensor, dual, grad,
                                 magnitude)

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

    @pytest.mark.parametrize("Lmax", [31, 47])
    def test_mms_passes_the_default_tolerance_at_large_L(self, Lmax):
        """With exact leaf constants the constraint floor does not grow
        with L: on the manufactured slab (eps = 0.01, n_s = 40, dv = 1/64,
        v in [1, 1.125]) the worst row was 3.4e-13 at L = 31 and 1.4e-13
        at L = 47, under the default tolerance 1e-10."""
        data, _ = geodesic.gen_manufactured(
            geodesic.MmsSpec(epsilon=0.01, Lmax=Lmax, n_s=40))
        fol = solver.continue_foliation(
            data, solver.SolverConfig(dv=1.0 / 64.0), v_end=1.125)
        rep = diagnostics.constraint_residuals(data,
                                               diagnostics.canonical(fol))
        assert rep.all_pass(), rep.worst()

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
        _, fol = mink_foliation
        rep = diagnostics.transport_residuals(diagnostics.canonical(fol))
        assert rep.worst() < 1e-10

    def test_schwarzschild_trchib_transport(self, schw_foliation):
        """Closed form: d_s[-(2/s)(1-2M/s)] + (1/s) trchib = 2 rho_check."""
        _, fol = schw_foliation
        rep = diagnostics.transport_residuals(diagnostics.canonical(fol))
        assert rep.worst("trchib_transport") < 1e-8
        assert rep.worst() < 1e-8

    def test_too_few_levels_rejected(self, mink_foliation):
        data, fol = mink_foliation
        short = solver.Foliation(data, fol.v_nodes[:3], fol.s[:3],
                                 fol.logOmega[:3])
        with pytest.raises(ConfigurationError):
            diagnostics.transport_residuals(diagnostics.canonical(short))


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
        ks = [k for k, _ in diagnostics.lp_partition(grid12)][1:]
        vals = [diagnostics.lp_phi(2.0 ** (-k) * np.sqrt(20.0)) for k in ks]
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
                 (T, [(T.trace, 0.5), (T.hat_plus, 1.0),
                      (T.hat_plus.conj(), 1.0)]))
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
        _, fol = mink_foliation
        rep = diagnostics.norm_suite(fol)
        assert all(v < 1e-10 for v in rep.values.values())

    def test_schwarzschild_rho_oracle(self, schw_foliation):
        """|| rho ||_{L2(H)}^2 = int_1^2 4 pi s^2 (2M/s^3)^2 ds in closed
        form; Simpson at dv = 1/64 resolves it to ~1e-6 relative."""
        _, fol = schw_foliation
        rep = diagnostics.norm_suite(fol)
        M = 0.1
        oracle = np.sqrt(16.0 * np.pi * M ** 2 * (1.0 - 1.0 / 8.0) / 3.0)
        assert abs(rep.get("R.rho") - oracle) < 1e-5 * oracle

    def test_norm_monotonicity(self, schw_foliation):
        """Restricting the v-interval never increases a mixed-norm entry."""
        data, fol = schw_foliation
        half = solver.Foliation(data, fol.v_nodes[:fol.n_levels // 2 + 1],
                                fol.s[:fol.n_levels // 2 + 1],
                                fol.logOmega[:fol.n_levels // 2 + 1])
        full_rep = diagnostics.norm_suite(fol)
        half_rep = diagnostics.norm_suite(half)
        for key in ["R.rho", "R", "O.trchi_dev_infinf"]:
            assert half_rep.get(key) <= full_rep.get(key) + 1e-12


class TestSchwarzschildClosedForms:
    """Schwarzschild M = 0.1, L = 15, dv = 1/64, v in [1, 2], s* = 2.5.
    Every canonical leaf is round (s = v, log Omega = 0), so each nonzero
    entry checked here is a one-dimensional integral of a closed-form
    integrand, and every entry that spherical symmetry makes zero is
    exactly 0."""

    M = 0.1
    ZERO = (
        [f"I_S1.{k}" for k in (
            "chibhat_H12", "etab_H12", "grad_logOmega_H12", "grad_trchi_B0",
            "grad_trchib_L2", "logOmega_L2", "omega_dev_inf",
            "trchi_dev_inf", "zeta_H12")]
        + [f"Iprime_S1.{k}" for k in (
            "chibhat_H12", "grad_trchi_B0", "grad_trchib_L2",
            "trchi_dev_inf", "zeta_H12")]
        + [f"O.{k}" for k in (
            "L_logOmega_L2L4", "N1_chibhat", "N1_etab", "N1_grad_logOmega",
            "N1_zeta", "P0v_zeta", "Q12v_zeta", "etab_LinfL2v",
            "grad_trchib_L2Linfv", "omega_dev_infinf", "zeta_LinfL2v")]
        + [f"Oprime.{k}" for k in (
            "N1_zeta", "trchi_dev_infinf", "zeta_LinfL2s")]
        + [f"{side}.{k}" for side in ("R", "Rprime")
           for k in ("beta", "betab", "sigma")])

    @pytest.fixture(scope="class")
    def norms(self):
        data = geodesic.gen_schwarzschild(self.M, Lmax=15)
        fol = solver.continue_foliation(
            data, solver.SolverConfig(dv=1.0 / 64.0), v_end=2.0)
        return fol, diagnostics.norm_suite(fol)

    def test_symmetry_zeros_are_exact(self, norms):
        _, rep = norms
        assert len(self.ZERO) == 34
        for key in self.ZERO:
            assert rep.get(key) == 0.0, key

    def test_rho_flux_is_simpson_of_its_integrand(self, norms):
        """|| rho ||_{L2(H)}^2 = int 16 pi M^2 v^-4 dv under Simpson on the
        65 levels: 0.3828938194236311."""
        fol, rep = norms
        v = fol.v_nodes
        want = np.sqrt(np.sum(diagnostics.simpson_weights(v)
                              * 16.0 * np.pi * self.M ** 2 * v ** -4))
        assert abs(want - 0.3828938194236311) <= 1e-15
        assert abs(rep.get("R.rho") - want) <= 1e-12 * want

    def test_geodesic_rho_flux_closed_form(self, norms):
        """|| rho' ||^2 over s in [1, 2.5] = 16 pi M^2 (1 - 2.5^-3) / 3;
        Clenshaw-Curtis on the 32 s-nodes is exact to roundoff."""
        _, rep = norms
        want = np.sqrt(16.0 * np.pi * self.M ** 2 * (1.0 - 2.5 ** -3) / 3.0)
        assert abs(rep.get("Rprime.rho") - want) <= 1e-12 * want

    @pytest.mark.parametrize("key", ["I_S1.trchib_dev_inf",
                                     "Iprime_S1.trchib_dev_inf",
                                     "O.trchib_dev_infinf"])
    def test_trchib_deviation_closed_form(self, norms, key):
        """trchib = -(2/v)(1 - 2M/v) deviates from -2/v by 4M/v^2, largest
        on the unit first leaf: 4M."""
        _, rep = norms
        assert abs(rep.get(key) - 4.0 * self.M) <= 1e-12 * 4.0 * self.M

    @pytest.mark.parametrize("key", ["I_S1.mu_B0", "Iprime_S1.mu_B0",
                                     "O.mu_L2Linfv"])
    def test_mass_aspect_closed_forms(self, norms, key):
        """mu = 2M/v^3 is constant on each leaf of area 4 pi v^2: B0 is its
        L2 norm on the unit first leaf, and the L2 norm 2M sqrt(4 pi)/v^2
        is largest there: 2M sqrt(4 pi) = 0.7089815403622064."""
        _, rep = norms
        want = 2.0 * self.M * np.sqrt(4.0 * np.pi)
        assert abs(want - 0.7089815403622064) <= 1e-15
        assert abs(rep.get(key) - want) <= 1e-12 * want

    def test_initial_mass_aspect_closed_form(self, norms):
        """mu = -rho = 2M on the unit first leaf: || mu ||_{L2} =
        2M sqrt(4 pi)."""
        _, rep = norms
        want = 2.0 * self.M * np.sqrt(4.0 * np.pi)
        assert abs(rep.get("I_S1.mu_L2") - want) <= 1e-12 * want

    def n1_trchib_dev(self, v):
        """N_1 of trchib + 2/v = 4M/v^2, constant on each leaf of area
        4 pi v^2: the H^{1/2} norm of 4M on the first leaf, 4M sqrt(4 pi),
        plus the Simpson L2 of 4M/v^2 on the v^2-measure, plus a gradient
        that is exactly zero, plus the L2 of the FD stencil of 4M/v^2, whose
        margin levels take the nearest interior value."""
        n, f = len(v), 4.0 * self.M / v ** 2
        d, margin = diagnostics.v_derivative(f, float(v[1] - v[0]), n)
        d[:margin] = d[margin]
        d[n - margin:] = d[n - 1 - margin]
        w = diagnostics.simpson_weights(v) * 4.0 * np.pi * v ** 2
        return (4.0 * self.M * np.sqrt(4.0 * np.pi)
                + np.sqrt(np.sum(w * f ** 2)) + np.sqrt(np.sum(w * d ** 2)))

    def test_trchib_deviation_n1_closed_form(self, norms):
        """O.N1_trchib_dev is the closed form of n1_trchib_dev."""
        fol, rep = norms
        want = self.n1_trchib_dev(fol.v_nodes)
        assert abs(rep.get("O.N1_trchib_dev") - want) <= 1e-12 * want

    def test_o_total_is_the_sum_of_its_closed_forms(self, norms):
        """O sums its entries: the three closed forms pinned above, N_1 and
        the sup of trchib + 2/v and the mass aspect's L2-Linf, which give
        5.037884615836432, and the trchi roundoff of
        test_trchi_deviation_is_roundoff, 1.6e-13; O measures
        5.0378846158366155."""
        fol, rep = norms
        want = (self.n1_trchib_dev(fol.v_nodes) + 4.0 * self.M
                + 2.0 * self.M * np.sqrt(4.0 * np.pi))
        assert abs(want - 5.037884615836432) <= 1e-15 * want
        assert abs(rep.get("O") - want) <= 1e-12 * want

    def test_trchi_deviation_is_roundoff(self, norms):
        """trchi = 2/s is a dataset table, which the reconstruction reads at
        s = v by barycentric interpolation of the s-nodes: the largest
        misread of 2/v, 1.11e-15, is O.trchi_dev_infinf, and that misread
        under the FD v-derivative (a stencil over dv = 1/64) gives
        O.N1_trchi_dev, 1.61e-13.  Each is bounded at about 10x."""
        _, rep = norms
        assert 0.0 <= rep.get("O.trchi_dev_infinf") <= 1e-14
        assert 0.0 <= rep.get("O.N1_trchi_dev") <= 2e-12

    def test_geodesic_trchi_deviation_is_roundoff(self, norms):
        """O'.N1_trchi_dev, and so O', 3.36e-14, come from the Chebyshev
        d_ds of the tabulated 2/s, which misses -2/s^2 by 4.95e-14 at
        worst; 2/s itself is exact on the s-nodes (O'.trchi_dev_infinf is
        0).  Each is bounded at about 10x."""
        _, rep = norms
        assert rep.get("Oprime") == rep.get("Oprime.N1_trchi_dev")
        assert 0.0 <= rep.get("Oprime.N1_trchi_dev") <= 4e-13

    def test_totals_are_sums_of_the_pinned_entries(self, norms):
        """Every other entry of I_S1, I'_S1, R and R' is an exact zero, so
        each total is the sum of the closed forms pinned above."""
        fol, rep = norms
        v = fol.v_nodes
        mu = 2.0 * self.M * np.sqrt(4.0 * np.pi)
        want = {
            "I_S1": 4.0 * self.M + 2.0 * mu,  # trchib_dev_inf, mu_B0, mu_L2
            "Iprime_S1": 4.0 * self.M + mu,   # trchib_dev_inf, mu_B0
            "R": np.sqrt(np.sum(diagnostics.simpson_weights(v) * 16.0
                                * np.pi * self.M ** 2 * v ** -4)),
            "Rprime": np.sqrt(16.0 * np.pi * self.M ** 2
                              * (1.0 - 2.5 ** -3) / 3.0),
        }
        for key, val in want.items():
            assert abs(rep.get(key) - val) <= 1e-12 * val, key


class TestMinkowskiClosedForms:
    """Minkowski L = 15, dv = 1/64, v in [1, 2], s* = 2.5: every leaf is the
    round sphere s = v, so every norm entry is exactly 0 but the seven that
    read 2/s and -2/s off the dataset tables, which are roundoff (see
    TestSchwarzschildClosedForms for their causes)."""

    # entry -> bound, about 10x the value it measures
    ROUNDOFF = {
        # 1.11e-15: the barycentric read of +-2/s at s = v
        "O.trchi_dev_infinf": 1e-14, "O.trchib_dev_infinf": 1e-14,
        # 1.61e-13: that misread under the FD v-derivative
        "O.N1_trchi_dev": 2e-12, "O.N1_trchib_dev": 2e-12,
        # 3.23e-13: the sum of the four entries above
        "O": 3e-12,
        # 3.36e-14: the Chebyshev d_ds of 2/s
        "Oprime": 4e-13, "Oprime.N1_trchi_dev": 4e-13,
    }

    def test_every_entry_zero_but_roundoff(self):
        data = geodesic.gen_minkowski(Lmax=15)
        fol = solver.continue_foliation(
            data, solver.SolverConfig(dv=1.0 / 64.0), v_end=2.0)
        rep = diagnostics.norm_suite(fol)
        assert set(self.ROUNDOFF) <= set(rep.values)
        for key, val in rep.values.items():
            assert 0.0 <= val <= self.ROUNDOFF.get(key, 0.0), key


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
            rep = diagnostics.transport_residuals(diagnostics.canonical(fol))
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
        rep = diagnostics.norm_suite(fol)
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
        """Each solve of a study runs with the base config (here its
        max_iter) at its own dv."""
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, _ = geodesic.gen_manufactured(spec)
        base = solver.SolverConfig(delta=0.5, dv=0.25, tol=1e-13,
                                   max_iter=25)
        real = solver.continue_foliation
        seen = []

        def recording(data, cfg, **kwargs):
            seen.append((cfg.dv, cfg.max_iter))
            return real(data, cfg, **kwargs)

        monkeypatch.setattr(solver, "continue_foliation", recording)
        rows, _, _ = diagnostics.convergence_study(data, base, [0.25, 0.125],
                                                   v_end=1.5)
        assert seen == [(0.25, 25), (0.125, 25)]
        assert rows[1][1] < rows[0][1]

    def test_saved_dataset_gives_the_in_memory_study(self, tmp_path):
        """The study reads the exact solution off the dataset: an MMS
        dataset saved and loaded gives the in-memory dataset's errors,
        orders and slope bit for bit."""
        data, _ = geodesic.gen_manufactured(
            geodesic.MmsSpec(epsilon=1e-2, Lmax=12, n_s=32))
        geodesic.save(data, tmp_path / "ds")
        base = solver.SolverConfig(delta=0.5, dv=0.25, tol=1e-13)
        studies = [diagnostics.convergence_study(d, base, [0.25, 0.125])
                   for d in (data, geodesic.load(tmp_path / "ds"))]
        assert studies[0] == studies[1]


def _tensor_of_kind(grid, kind, seed, lmax=None):
    """A random band-limited scalar, 1-form or symmetric 2-tensor."""
    if kind == "scalar":
        return random_real_scalar(grid, seed, lmax=lmax)
    if kind == "oneform":
        return OneForm(random_spin_field(grid, 1, seed, lmax=lmax))
    return SymTwoTensor(random_real_scalar(grid, seed, lmax=lmax),
                        random_spin_field(grid, 2, seed + 1, lmax=lmax))


class TestPointwiseMagnitude:
    @settings(max_examples=30, deadline=None)
    @given(Lmax=st.sampled_from([8, 15]),
           kind=st.sampled_from(["scalar", "oneform", "tensor"]),
           seed=st.integers(0, 2 ** 32 - 2))
    def test_integral_of_square_is_the_coefficient_norm(self, Lmax, kind,
                                                        seed):
        """|x|^2 of a band-L field has band 2L, which the grid integrates
        exactly, so int |x|^2 dOmega from the pointwise magnitude equals the
        round L2 norm of the weighted components, and (Parseval) their
        weighted coefficient sums."""
        grid = build_grid(Lmax)
        x = _tensor_of_kind(grid, kind, seed, lmax=Lmax)
        got = grid.integrate(magnitude(x) ** 2)
        for want in (sum(w * grid.integrate(np.abs(c.samples) ** 2)
                         for c, w in diagnostics.components(x)),
                     diagnostics.Hs_norm(x, 0.0) ** 2):
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("kind", ["oneform", "tensor"])
    def test_weighted_l2_against_a_fine_grid(self, kind):
        """int |x|^2 e^{2 psi} dOmega of a rough band-23 tensor on a
        non-round metric, against the pointwise integral of the same fields
        synthesised on an L = 95 grid, which resolves the area weight.
        Truncating |x|^2 to band 23 loses 2e-2 (1-form) and 6e-3 (2-tensor)
        of it; the pointwise magnitude is within 2e-4."""
        L, LF = 23, 95
        grid, fine = build_grid(L), build_grid(LF)

        def on_fine(f):
            c = np.zeros((LF + 1, 2 * LF + 1), dtype=complex)
            c[:L + 1, LF - L:LF + L + 1] = f.coeffs
            return SpinField.from_coeffs(fine, f.spin, c)

        psi = 0.01 * random_real_scalar(grid, seed=1, lmax=4)
        x = _tensor_of_kind(grid, kind, seed=2, lmax=L)
        want = fine.integrate(
            magnitude([(on_fine(c), w) for c, w in diagnostics.components(x)])
            ** 2 * np.exp(2.0 * on_fine(psi).samples.real))
        got = tensors.sizes(x, MetricRep(grid, psi=psi))[1] ** 2
        assert abs(got - want) <= 1e-3 * want


def _stack(xs):
    """One stack of the fields, 1-forms or 2-tensors xs, all of one kind."""
    def stacked(*cs):
        return SpinField.from_coeffs(cs[0].grid, cs[0].spin,
                                     np.stack([c.coeffs for c in cs]))
    if isinstance(xs[0], SpinField):
        return stacked(*xs)
    return xs[0]._map(stacked, *xs[1:])


def _besov_B0_synthesised(x):
    """B^0 by the recipe that Parseval replaced: project each stored
    component by each multiplier of the partition, synthesise the piece,
    and integrate its weighted |.|^2 on the grid, one value per field."""
    grid = diagnostics.components(x)[0][0].grid
    total = 0.0
    for _, mult in diagnostics.lp_partition(grid):
        square = sum(w * grid.integrate(np.abs(SpinField.from_coeffs(
            grid, c.spin, c.coeffs * mult[:, None]).samples) ** 2)
            for c, w in diagnostics.components(x))
        total = total + np.sqrt(square)
    return total


def _with_coeffs(x, fn):
    """x with the coefficients of every stored component replaced by fn of
    them."""
    def one(c):
        return SpinField.from_coeffs(c.grid, c.spin, fn(c.coeffs))
    return one(x) if isinstance(x, SpinField) else x._map(one)


class TestPowerSpectrum:
    @settings(max_examples=40, deadline=None)
    @given(Lmax=st.sampled_from([8, 15, 23]),
           part=st.sampled_from(["scalar", "spin0", "spin1", "spin2",
                                 "oneform", "tensor"]),
           n=st.integers(1, 4), seed=st.integers(0, 2 ** 30))
    def test_parseval_and_the_same_bits_alone_and_in_a_stack(
            self, Lmax, part, n, seed):
        """spectral_l2 weights one per-degree power spectrum P_l.  Summed
        over l, P is the grid integral of sum w |c|^2 (band 2 Lmax, which
        the grid integrates exactly).  Each field of a stack analysed from
        its samples (Fortran-ordered coefficients) has the bits of a C-ordered
        copy of its own coefficients alone, under every weight the monitor,
        H^s and B^0 take."""
        grid = build_grid(Lmax)

        def field(i):
            if part.startswith("spin"):
                return random_spin_field(grid, int(part[-1]), seed + 2 * i,
                                         lmax=Lmax)
            return _tensor_of_kind(grid, part, seed + 2 * i, lmax=Lmax)

        x = tensors.rebuild(_stack([field(i) for i in range(n)]),
                            lambda s: s)
        lam = grid.eigenvalues
        weights = ([np.ones_like(lam)] + [lam ** p for p in range(3)]
                   + [(1.0 + lam) ** 0.5]
                   + [m ** 2 for _, m in diagnostics.lp_partition(grid)])
        stack = tensors.spectral_l2(x, weights)
        want = sum(w * grid.integrate(np.abs(c.samples) ** 2)
                   for c, w in diagnostics.components(x))
        assert stack[0].shape == (n,)
        assert np.all(np.abs(stack[0] ** 2 - want) <= 1e-13 * want)
        for i in range(n):
            alone = tensors.spectral_l2(
                _with_coeffs(x, lambda a: np.array(a[i], order="C")), weights)
            for got, norms in zip(alone, stack):
                assert got.shape == () and got == norms[i]


class TestBesovByParseval:
    @settings(max_examples=24, deadline=None)
    @given(Lmax=st.sampled_from([8, 15, 23]),
           kind=st.sampled_from(["scalar", "oneform", "tensor"]),
           n=st.integers(2, 4), seed=st.integers(0, 2 ** 30))
    def test_parseval_equals_the_synthesised_pieces(self, Lmax, kind, n,
                                                    seed):
        """|P_k x|^2 has band 2 Lmax, which the grid integrates exactly, so
        the coefficient sums give every field of a stack its B^0 norm."""
        grid = build_grid(Lmax)
        x = _stack([_tensor_of_kind(grid, kind, seed + 2 * i, lmax=Lmax)
                    for i in range(n)])
        got = diagnostics.besov_B0(x)
        want = _besov_B0_synthesised(x)
        assert got.shape == want.shape == (n,)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    def test_several_weights_have_the_bits_of_one_weight_each(self):
        """spectral_l2 forms |a_lm|^2 once for all its weights; each norm
        keeps the bits of a call with that weight alone."""
        grid = build_grid(15)
        x = _stack([_tensor_of_kind(grid, "tensor", seed, lmax=15)
                    for seed in range(3)])
        weights = [grid.eigenvalues ** p for p in range(3)]
        together = tensors.spectral_l2(x, weights)
        for weight, got in zip(weights, together):
            assert np.array_equal(got, tensors.spectral_l2(x, [weight])[0])

    def test_hs_norm_of_a_stack_is_one_value_per_field(self):
        """H^s, like B^0, gives a stack one value per field."""
        grid = build_grid(8)
        xs = [OneForm(random_spin_field(grid, 1, seed)) for seed in range(3)]
        got = diagnostics.Hs_norm(_stack(xs), 0.5)
        want = np.array([diagnostics.Hs_norm(x, 0.5) for x in xs])
        assert got.shape == (3,)
        assert np.all(np.abs(got - want) <= 1e-14 * want)

    def test_one_pass_equals_the_two_mixed_norm_passes(self):
        """P^0_v and Q^{1/2}_v from one projection of each piece have the
        bits of the two separate sums of mixed_norm over the pieces."""
        grid = build_grid(8)
        zeta = _stack([OneForm(random_spin_field(grid, 1, seed))
                       for seed in range(5)])
        metric = MetricRep(grid, psi=_stack(
            [0.01 * random_real_scalar(grid, seed, lmax=4)
             for seed in range(5, 10)]))
        w = diagnostics.simpson_weights(np.linspace(1.0, 2.0, 5))
        pieces = list(diagnostics._dyadic(zeta))
        p0v = float(sum(diagnostics.mixed_norm(p, metric, w, 2, 2)
                        for _, p in pieces))
        q12v = float(np.sqrt(sum(
            (1.0 if k == "minus" else 2.0 ** k)
            * diagnostics.mixed_norm(p, metric, w, np.inf, 2) ** 2
            for k, p in pieces)))
        assert diagnostics.besov_v_norms(zeta, metric, w) == (p0v, q12v)


@pytest.fixture(scope="module")
def nonzero_slab():
    """A round-leaf slab on s in [1, 2] whose zeta', beta', sigma', betab'
    and chibhat' are smooth and nonzero, with the foliation s = v, log Omega
    = 0 on 65 levels (dv = 1/64), so Upsilon = 0 and the canonical geometry
    is the geodesic one.  zeta' is linear in s, so its v-differences are
    exact.  The tables need not satisfy the structure equations: the norm
    suite only measures them."""
    grid = build_grid(8)
    s_nodes = _cheb.cgl_nodes(24, 1.0, 2.0)
    s3 = s_nodes[:, None, None]
    ones = np.ones(grid.shape)

    def profile(spin, seed):
        if spin == 0:
            return random_real_scalar(grid, seed, lmax=4).samples
        return random_spin_field(grid, spin, seed, lmax=4).samples

    data = geodesic.GeodesicNullData(
        grid=grid, s_nodes=s_nodes, psi=np.log(s3) * ones,
        trchi=(2.0 / s3) * ones, trchib=(-2.0 / s3) * ones,
        zeta=(0.3 + 0.2 * s3) * 0.01 * profile(1, 11),
        chibhat=0.01 * profile(2, 12) / s3,
        beta=0.01 * profile(1, 13) / s3 ** 2,
        rho=(-0.2 / s3 ** 3) * ones,
        sigma=0.01 * profile(0, 14) / s3 ** 3,
        betab=0.01 * profile(1, 15) * s3)
    v = np.linspace(1.0, 2.0, 65)
    s = v[:, None, None] * ones
    fol = solver.Foliation(data, v, s, np.zeros_like(s))
    return data, diagnostics.norm_suite(fol)


class TestNonzeroTensorNorms:
    """Every tensor entry of the norm suite on nonzero tensor data: the
    canonical entries equal the geodesic ones to the Simpson error, and
    beta' has its closed form."""

    def test_each_R_entry_is_its_Rprime_entry(self, nonzero_slab):
        _, rep = nonzero_slab
        for k in ("beta", "rho", "sigma", "betab"):
            want = rep.get(f"Rprime.{k}")
            assert want > 1e-3
            assert abs(rep.get(f"R.{k}") - want) <= 1e-6 * want

    def test_each_O_entry_is_its_Oprime_entry(self, nonzero_slab):
        _, rep = nonzero_slab
        for k, kp in (("N1_zeta", "N1_zeta"),
                      ("zeta_LinfL2v", "zeta_LinfL2s")):
            want = rep.get(f"Oprime.{kp}")
            assert want > 1e-3
            assert abs(rep.get(f"O.{k}") - want) <= 1e-6 * want
        for k in ("trchi_dev_infinf", "N1_trchi_dev"):
            assert rep.get(f"O.{k}") <= 1e-12
            assert rep.get(f"Oprime.{k}") <= 1e-12

    def test_first_sphere_entries_agree(self, nonzero_slab):
        _, rep = nonzero_slab
        for k in ("grad_trchib_L2", "mu_B0", "zeta_H12", "chibhat_H12"):
            want = rep.get(f"Iprime_S1.{k}")
            assert abs(rep.get(f"I_S1.{k}") - want) <= 1e-10 * max(want, 1.0)

    def test_beta_flux_closed_form(self, nonzero_slab):
        """beta' = B/s^2 on leaves of area density s^2: || beta' ||^2 =
        int_1^2 s^-2 ds * int 2 |B|^2 dOmega = sum 2 |b_lm|^2 / 2."""
        data, rep = nonzero_slab
        B = SpinField.from_samples(data.grid, 1, data.beta[0])
        want = np.sqrt(np.sum(np.abs(B.coeffs) ** 2))
        assert abs(rep.get("Rprime.beta") - want) <= 1e-10 * want


def _rolled(data, k):
    """data rotated about the polar axis by k phi-steps: every table and the
    exact profile rolled along phi.  The rotation leaves the (theta, phi)
    dyad as it is, so the roll rotates each spin component exactly."""
    exact = copy.copy(data.exact)
    exact.G = np.roll(data.exact.G, k, axis=-1)
    return dataclasses.replace(data, exact=exact, **{
        name: np.roll(getattr(data, name), k, axis=-1)
        for name in list(geodesic.GEOMETRY) + ["forcing_F1"]})


def _pipeline(data):
    """solve, verify and norms in process: the foliation to v = 1.125 (9
    levels at dv = 1/64) and its constraint, transport and norm reports."""
    fol = solver.continue_foliation(
        data, solver.SolverConfig(dv=1.0 / 64.0), v_end=1.125)
    co = diagnostics.canonical(fol)
    return (fol, diagnostics.constraint_residuals(data, co),
            diagnostics.transport_residuals(co), diagnostics.norm_suite(fol))


@pytest.fixture(scope="module")
def mms_runs():
    """{Lmax: (dataset, its pipeline)} for MMS eps = 0.01, n_s = 24."""
    runs = {}
    for Lmax in (8, 15):
        data, _ = geodesic.gen_manufactured(
            geodesic.MmsSpec(epsilon=0.01, Lmax=Lmax, n_s=24))
        runs[Lmax] = data, _pipeline(data)
    return runs


class TestPolarRotation:
    @settings(max_examples=12, deadline=None)
    @given(Lmax=st.sampled_from([8, 15]), shift=st.integers(0, 2 ** 16))
    def test_the_pipeline_commutes_with_a_roll_in_phi(self, mms_runs, Lmax,
                                                       shift):
        """A rotation about the polar axis by a whole phi-step multiplies
        each a_lm by a phase, so it leaves every per-degree power, residual
        size and norm as it was.  The foliation of the rolled dataset is the
        rolled foliation and its reports are the originals.  Largest
        deviations over every roll k = 1 .. nphi - 1 at L = 8 and 15: s
        2.2e-16 and log Omega 4.7e-17 absolute, constraint rows 1.1e-14 and
        transport rows 1.7e-13 absolute (max and L2 alike), norm entries
        2.2e-13 relative; the norm entries that are 0 stay 0, and the error
        against the exact solution did not move.  The bounds are about ten
        times these."""
        data, (fol, crep, trep, norms) = mms_runs[Lmax]
        k = 1 + shift % (data.grid.nphi - 1)
        rolled = _rolled(data, k)
        fol_k, crep_k, trep_k, norms_k = _pipeline(rolled)
        assert np.array_equal(fol_k.v_nodes, fol.v_nodes)
        for got, want, bound in ((fol_k.s, fol.s, 1e-15),
                                 (fol_k.logOmega, fol.logOmega, 5e-16)):
            assert np.max(np.abs(got - np.roll(want, k, axis=-1))) <= bound
        for got, want, bound in ((crep_k, crep, 1e-13),
                                 (trep_k, trep, 2e-12)):
            assert [r[:2] for r in got.rows] == [r[:2] for r in want.rows]
            assert np.max(np.abs(np.array([r[2:] for r in got.rows])
                                 - np.array([r[2:] for r in want.rows]))) \
                <= bound
            assert got.pass_flags() == want.pass_flags()
        assert norms_k.values.keys() == norms.values.keys()
        for key, want in norms.values.items():
            assert abs(norms_k.get(key) - want) <= 2e-12 * want
        assert abs(rolled.exact.max_error(fol_k.v_nodes, fol_k.s)
                   - data.exact.max_error(fol.v_nodes, fol.s)) <= 1e-15
