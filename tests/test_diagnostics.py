"""Residual suites, LP/Besov/Sobolev norms, and the identities (commutation,
Bochner, weak sphericality) checked on the reconstructed geometry."""

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
        """Each solve of a study runs with the base config (here its
        max_iter) at its own dv."""
        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, exact = geodesic.gen_manufactured(spec)
        base = solver.SolverConfig(delta=0.5, dv=0.25, tol=1e-13,
                                   max_iter=25)
        real = solver.continue_foliation
        seen = []

        def recording(data, cfg, **kwargs):
            seen.append((cfg.dv, cfg.max_iter))
            return real(data, cfg, **kwargs)

        monkeypatch.setattr(solver, "continue_foliation", recording)
        rows, _, _ = diagnostics.convergence_study(data, exact, base,
                                                   [0.25, 0.125], v_end=1.5)
        assert seen == [(0.25, 25), (0.125, 25)]
        assert rows[1][1] < rows[0][1]


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
        for want in (diagnostics._l2_round(x) ** 2,
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
    return data, diagnostics.norm_suite(data, diagnostics.canonical(fol))


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
