"""Picard-window and foliation-marching tests."""

import dataclasses

import numpy as np
import pytest

from nullfoliate import geodesic, solver
from nullfoliate.errors import (BreakdownError, ConfigurationError,
                                LapseBoundError, NonConvergenceError,
                                NonFiniteIterateError, OutOfDomainError)
from nullfoliate.sphere import SpinField, raw_analyze
from nullfoliate.tensors import grad, laplacian, mean


@pytest.fixture(scope="module")
def mink():
    return geodesic.gen_minkowski(Lmax=8, n_s=24)


@pytest.fixture(scope="module")
def schw():
    return geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=32)


@pytest.fixture(scope="module")
def mms_small():
    spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=12, n_s=32,
                            profile_l=2, profile_m=2)
    return geodesic.gen_manufactured(spec)


class TestQuadrature:
    def test_exact_on_cubics(self):
        k = 12
        v = np.arange(k + 1) / k
        vals = (1.0 + 2 * v - v ** 2 + 0.5 * v ** 3)[:, None, None]
        out = solver.cumulative_integral(vals * np.ones((1, 1, 1)), 1.0 / k)
        exact = v + v ** 2 - v ** 3 / 3 + v ** 4 / 8
        assert np.max(np.abs(out[:, 0, 0] - exact)) < 1e-14

    def test_two_steps_exact_on_quadratics(self):
        v = np.array([0.0, 0.5, 1.0])
        out = solver.cumulative_integral((1.0 + v - 3 * v ** 2)[:, None], 0.5)
        assert np.max(np.abs(out[:, 0] - (v + v ** 2 / 2 - v ** 3))) < 1e-15

    @pytest.mark.parametrize("k", [0, 1, 3, 5])
    def test_odd_or_short_step_counts_rejected(self, k):
        """Windows span an even number >= 2 of steps; any other count
        raises instead of reading past the end rules."""
        with pytest.raises(ValueError):
            solver.cumulative_integral(np.ones((k + 1, 2, 2)), 0.1)

    def test_fourth_order_on_quartics(self):
        """One-signed h^4 error with matched end rules: the pairwise order
        is 4.000 on a pure quartic."""
        errs = []
        for k in [8, 16, 32]:
            v = np.arange(k + 1) / k
            vals = (v ** 4)[:, None, None] * np.ones((1, 1, 1))
            out = solver.cumulative_integral(vals, 1.0 / k)
            errs.append(np.max(np.abs(out[:, 0, 0] - v ** 5 / 5)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(abs(o - 4.0) < 0.02 for o in orders)


class TestConfig:
    def test_invalid_delta(self):
        with pytest.raises(ConfigurationError):
            solver.SolverConfig(delta=1.5)
        with pytest.raises(ConfigurationError):
            solver.SolverConfig(delta=0.0)

    def test_invalid_tol(self):
        with pytest.raises(ConfigurationError):
            solver.SolverConfig(tol=-1e-10)

    def test_only_the_settings_a_caller_sets(self):
        assert [f.name for f in dataclasses.fields(solver.SolverConfig)] \
            == ["delta", "dv", "tol", "max_iter"]


class TestPicardWindow:
    def test_minkowski_exact_fixed_point(self, mink):
        """The flat cone converges at the first corrected iterate."""
        cfg = solver.SolverConfig(delta=0.5, dv=1.0 / 32.0, tol=1e-12)
        win = solver.picard_window(mink, 1.0, np.ones(mink.grid.shape), cfg)
        assert win.iterations <= 2
        assert win.Delta_trace[-1] <= 1e-13
        assert np.max(np.abs(win.s - win.v_nodes[:, None, None])) < 1e-13
        assert np.max(np.abs(win.logOmega)) < 1e-13

    def test_schwarzschild_symmetry(self, schw):
        """Spherical symmetry keeps the mean-free source zero: Omega = 1,
        s = v through the window."""
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0, tol=1e-12)
        win = solver.picard_window(schw, 1.0, np.ones(schw.grid.shape), cfg)
        assert np.max(np.abs(win.s - win.v_nodes[:, None, None])) < 1e-10
        assert np.max(np.abs(win.logOmega)) < 1e-10

    def test_margin_refusal(self, mink):
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0)
        with pytest.raises(OutOfDomainError):
            solver.picard_window(mink, 1.0,
                                 np.full(mink.grid.shape, 2.48), cfg)

    def test_seed_lapse_bound_enforced(self):
        """A manufactured amplitude breaking |log Omega_0| <= 1/100 refuses
        to start."""
        spec = geodesic.MmsSpec(epsilon=0.05, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, _ = geodesic.gen_manufactured(spec)
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0)
        with pytest.raises(LapseBoundError):
            solver.picard_window(data, 1.0, np.ones(data.grid.shape), cfg)

    def test_mms_window_contracts(self, mms_small):
        data, exact = mms_small
        cfg = solver.SolverConfig(delta=0.1, dv=1.0 / 64.0, tol=1e-11)
        win = solver.picard_window(data, 1.0, np.ones(data.grid.shape), cfg,
                                   delta=0.1)
        assert win.kappa < 0.5
        assert win.iterations <= 20
        # Delta strictly decreases once under way
        for a, b in zip(win.Delta_trace[1:], win.Delta_trace[2:]):
            assert b < a


class TestContinueFoliation:
    def test_minkowski_end_to_end(self, mink):
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0)
        fol = solver.continue_foliation(mink, cfg, v_end=2.0)
        assert abs(fol.v_nodes[-1] - 2.0) < 1e-12
        assert fol.max_omega_dev() < 1e-12
        assert np.max(np.abs(fol.s - fol.v_nodes[:, None, None])) < 1e-12

    def test_schwarzschild_end_to_end(self, schw):
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0)
        fol = solver.continue_foliation(schw, cfg, v_end=2.0)
        assert fol.max_omega_dev() < 1e-10
        assert np.max(np.abs(fol.s - fol.v_nodes[:, None, None])) < 1e-10

    def test_monotone_graph(self, mms_small):
        """d_v s = Omega^{-1} > 0 pointwise on accepted solutions."""
        data, _ = mms_small
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0)
        fol = solver.continue_foliation(data, cfg, v_end=2.0)
        assert np.all(np.diff(fol.s, axis=0) > 0.0)
        assert np.max(np.abs(fol.logOmega)) < 0.1

    def test_mms_accuracy_and_order(self, mms_small):
        """Halving dv reduces the error against the sidecar by 2^4 (20%)."""
        data, exact = mms_small
        errs = []
        for dv in [1.0 / 16.0, 1.0 / 32.0]:
            cfg = solver.SolverConfig(delta=0.5, dv=dv, tol=1e-13)
            fol = solver.continue_foliation(data, cfg, v_end=2.0)
            errs.append(max(np.max(np.abs(fol.s[i] - exact.s_exact(v)))
                            for i, v in enumerate(fol.v_nodes)))
        factor = errs[0] / errs[1]
        assert 16.0 * 0.8 <= factor <= 16.0 * 1.2

    def test_fixed_point_self_consistency(self, mms_small):
        """Re-inserting an accepted foliation into the source assembly and
        lapse solve reproduces its own log Omega."""
        data, _ = mms_small
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0, tol=1e-12)
        fol = solver.continue_foliation(data, cfg, v_end=2.0)
        worst = 0.0
        for i in range(0, fol.n_levels, 7):
            metric = data.geometry_at(fol.s[i]).metric
            sf = fol.s_field(i)
            F = solver.assemble_F(data, data.source_at(fol.s[i]),
                                  grad(sf, metric), laplacian(sf, metric))
            logom = solver.solve_lapse(metric, F)
            worst = max(worst, np.max(np.abs(np.real(logom.samples)
                                             - fol.logOmega[i])))
        assert worst < 1e-11

    def test_lapse_mean_free_invariant(self, mms_small):
        data, _ = mms_small
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0)
        fol = solver.continue_foliation(data, cfg, v_end=2.0)
        for i in range(0, fol.n_levels, 9):
            met = data.geometry_at(fol.s[i]).metric
            assert abs(mean(fol.logOmega_field(i), met)) < 1e-11

    def test_v_end_off_the_grid_rejected(self):
        """delta = 0.3, dv = 0.03 used to mix spacings 0.025 and 0.03: v_end
        - 1 must be a whole even number of dv steps."""
        data = geodesic.gen_schwarzschild(0.1, Lmax=6, n_s=24)
        cfg = solver.SolverConfig(delta=0.3, dv=0.03)
        with pytest.raises(ConfigurationError):
            solver.continue_foliation(data, cfg, v_end=2.0)
        with pytest.raises(ConfigurationError):
            solver.continue_foliation(
                data, solver.SolverConfig(dv=0.05), v_end=1.15)

    def test_uniform_grid_when_delta_is_no_even_multiple(self):
        """delta = 5 dv: windows span 6 steps of dv, not 6 steps of delta/6."""
        data = geodesic.gen_schwarzschild(0.1, Lmax=6, n_s=24)
        cfg = solver.SolverConfig(delta=0.25, dv=0.05)
        fol = solver.continue_foliation(data, cfg, v_end=2.0)
        assert fol.n_levels == 21
        assert np.max(np.abs(np.diff(fol.v_nodes) - 0.05)) <= 1e-14
        assert abs(fol.v_nodes[-1] - 2.0) < 1e-12

    def test_halved_windows_stay_on_the_grid(self, schw, monkeypatch):
        """A rejected window is halved to a whole even number of dv steps."""
        real = solver.picard_window
        attempts = []

        def flaky(data, v0, s0, cfg, delta=None):
            attempts.append(delta)
            if len(attempts) == 1:
                raise NonConvergenceError("forced rejection")
            return real(data, v0, s0, cfg, delta=delta)

        monkeypatch.setattr(solver, "picard_window", flaky)
        cfg = solver.SolverConfig(delta=0.3, dv=0.05)
        fol = solver.continue_foliation(schw, cfg, v_end=1.5)
        assert attempts[:2] == [6 * 0.05, 2 * 0.05]
        assert np.max(np.abs(np.diff(fol.v_nodes) - 0.05)) <= 1e-14
        assert abs(fol.v_nodes[-1] - 1.5) < 1e-12

    def test_halving_stops_at_two_steps(self, schw, monkeypatch):
        """A window rejected at two dv steps is not halved again: the march
        breaks down at its start."""
        attempts = []

        def rejecting(data, v0, s0, cfg, delta=None):
            attempts.append(delta)
            raise NonConvergenceError("forced rejection")

        monkeypatch.setattr(solver, "picard_window", rejecting)
        cfg = solver.SolverConfig(delta=0.3, dv=0.05)
        with pytest.raises(BreakdownError) as err:
            solver.continue_foliation(schw, cfg, v_end=1.5)
        assert attempts == [6 * 0.05, 2 * 0.05]
        assert err.value.last_good_v == 1.0

    def test_breakdown_on_short_slab(self):
        data = geodesic.gen_minkowski(s_star=1.2, Lmax=8, n_s=24)
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0)
        with pytest.raises(BreakdownError) as err:
            solver.continue_foliation(data, cfg, v_end=2.0)
        assert abs(err.value.last_good_v - 1.2) < 0.1

    def test_sweeps_solve_the_lapse_block_partition(self, mms_small,
                                                     monkeypatch):
        """A window of several lapse blocks: every sweep solves levels
        1..steps as the LAPSE_BLOCK partition, one block after another, the
        lone seed leaf is solved once, and the window and the foliation hold
        the stacks of the last sweep."""
        data, _ = mms_small
        lapse_at = solver._lapse_at
        blocks, lone = [], []

        def recording(data, s_samples):
            (blocks if np.ndim(s_samples) == 3 else lone).append(
                np.array(s_samples))
            return lapse_at(data, s_samples)

        monkeypatch.setattr(solver, "_lapse_at", recording)
        fol = solver.continue_foliation(
            data, solver.SolverConfig(delta=0.25, dv=1.0 / 128.0), v_end=1.25)
        assert fol.n_levels == 33
        (win,) = fol.windows
        steps = len(win.v_nodes) - 1
        assert steps >= 2 * solver.LAPSE_BLOCK
        partition = [len(range(j, min(j + solver.LAPSE_BLOCK, steps + 1)))
                     for j in range(1, steps + 1, solver.LAPSE_BLOCK)]
        assert [len(b) for b in blocks] == partition * win.iterations
        assert len(lone) == 1  # the seed leaf v = 1, solved once
        last = np.concatenate(blocks[-len(partition):])
        assert np.array_equal(last, win.s[1:])
        assert win.s.shape == win.logOmega.shape \
            == (steps + 1,) + data.grid.shape
        assert np.array_equal(fol.s, win.s)
        assert np.array_equal(fol.logOmega, win.logOmega)


class TestStackedLapse:
    """_lapse_at on a stack of leaves equals it leaf by leaf."""

    @staticmethod
    def _leaves(grid, heights, seed):
        from conftest import random_real_scalar

        bumps = [np.real(random_real_scalar(grid, seed + k, lmax=4).samples)
                 for k in range(len(heights))]
        return np.stack([h + 0.02 * b / np.max(np.abs(b))
                         for h, b in zip(heights, bumps)])

    @pytest.mark.parametrize("name", ["schw", "mms_small"])
    def test_stack_matches_levels(self, name, request):
        data = request.getfixturevalue(name)
        data = data[0] if isinstance(data, tuple) else data
        leaves = self._leaves(data.grid, [1.05, 1.2, 1.2, 1.4, 1.7], seed=11)
        stacked = solver._lapse_at(data, leaves)
        assert stacked.shape == leaves.shape
        for leaf, got in zip(leaves, stacked):
            ref = solver._lapse_at(data, leaf)
            assert np.max(np.abs(ref)) > 1e-6  # a non-trivial lapse
            assert np.max(np.abs(got - ref)) <= 1e-13

    def test_prescribed_forcing_forms_no_derivatives(self, mms_small,
                                                     monkeypatch):
        data, _ = mms_small

        def unused(*args):
            raise AssertionError("grad s / Delta s formed for a prescribed F")

        monkeypatch.setattr(solver, "grad", unused)
        monkeypatch.setattr(solver, "laplacian", unused)
        leaves = self._leaves(data.grid, [1.1, 1.3], seed=2)
        assert np.all(np.isfinite(solver._lapse_at(data, leaves)))


class TestRealLapse:
    def test_mms_window_makes_no_complex_scalar_transform(self, monkeypatch):
        """Every spin-0 field of an MMS Picard window is real, so each of its
        transforms takes the real path, and the lapse is float64."""
        from nullfoliate import sphere

        spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, _ = geodesic.gen_manufactured(spec)
        calls = []
        analyze, synthesize = sphere.raw_analyze, sphere.raw_synthesize

        def counting_analyze(grid, samples, spin, L=None):
            calls.append(("analyze", spin, np.iscomplexobj(samples)))
            return analyze(grid, samples, spin, L)

        def counting_synthesize(grid, coeffs, spin):
            out = synthesize(grid, coeffs, spin)
            calls.append(("synthesize", spin, np.iscomplexobj(out)))
            return out

        monkeypatch.setattr(sphere, "raw_analyze", counting_analyze)
        monkeypatch.setattr(solver, "raw_analyze", counting_analyze)
        monkeypatch.setattr(sphere, "raw_synthesize", counting_synthesize)
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0)
        solver.picard_window(data, 1.0, np.ones(data.grid.shape), cfg)
        assert {kind for kind, _, _ in calls} == {"analyze", "synthesize"}
        assert [c for c in calls if c[1] == 0 and c[2]] == []
        leaves = np.full((2,) + data.grid.shape, 1.2)
        assert solver._lapse_at(data, leaves).dtype == np.float64


class TestFoliationIO:
    def test_save_load_roundtrip(self, mink, tmp_path):
        cfg = solver.SolverConfig(delta=0.5, dv=1.0 / 16.0)
        fol = solver.continue_foliation(mink, cfg, v_end=2.0)
        fol.save(tmp_path / "fol")
        back = solver.Foliation.load(tmp_path / "fol", mink)
        assert np.array_equal(fol.s, back.s)
        assert np.array_equal(fol.logOmega, back.logOmega)
        assert np.array_equal(fol.v_nodes, back.v_nodes)

    def test_trace_csv(self, mink, tmp_path):
        cfg = solver.SolverConfig(delta=0.5, dv=1.0 / 16.0)
        fol = solver.continue_foliation(mink, cfg, v_end=2.0)
        path = tmp_path / "trace.csv"
        fol.write_trace_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "window,n,M_n,Delta_n,kappa"
        assert len(lines) > 2


class TestBuildingBlocks:
    def test_induced_metric_composition(self, mink):
        """psi(w) = psi'(s(w), w) = log s(w) pointwise on the flat cone."""
        g = mink.grid
        met = mink.geometry_at(np.full(g.shape, 1.5)).metric
        assert np.max(np.abs(np.real(met.psi.samples) - np.log(1.5))) < 1e-12
        y20 = np.zeros((9, 17), dtype=complex)
        y20[2, 8] = 1.0
        prof = np.real(SpinField.from_coeffs(g, 0, y20).samples)
        s = 1.5 + 0.01 * prof
        met2 = mink.geometry_at(s).metric
        assert np.max(np.abs(np.real(met2.psi.samples) - np.log(s))) < 1e-12

    def test_assemble_F_minkowski_flat_graph(self, mink):
        """Angularly constant graphs feed zero gradients: F vanishes."""
        g = mink.grid
        s = np.full(g.shape, 1.3)
        met = mink.geometry_at(s).metric
        sf = SpinField.from_samples(g, 0, s)
        F = solver.assemble_F(mink, mink.source_at(s), grad(sf, met),
                              laplacian(sf, met))
        assert F.max_abs() < 1e-12

    def test_assemble_F_schwarzschild_constant_height(self, schw):
        """At s = 1.5 with no tilt, F reduces to rho'(1.5) = -2M/1.5^3."""
        g = schw.grid
        s = np.full(g.shape, 1.5)
        met = schw.geometry_at(s).metric
        sf = SpinField.from_samples(g, 0, s)
        F = solver.assemble_F(schw, schw.source_at(s), grad(sf, met),
                              laplacian(sf, met))
        expect = -2.0 * 0.1 / 1.5 ** 3
        assert np.max(np.abs(np.real(F.samples) - expect)) < 1e-12

    def test_assemble_F_matches_direct_source(self, schw):
        """Decisive check of the derived F'_3, F'_4 coefficients:

        on a tilted graph over curved data, the tabulated assembly must match
        the directly reconstructed source -Div zeta + rho computed through
        the comparison formulas (rho_check = rho on the shear-free slab).
        """
        from nullfoliate import comparison
        from nullfoliate.tensors import div
        g = schw.grid
        y21 = np.zeros((9, 17), dtype=complex)
        y21[2, 8 + 1] = 0.04
        y21[2, 8 - 1] = -np.conj(0.04)
        prof = np.real(SpinField.from_coeffs(g, 0, y21).samples)
        s = 1.6 + prof
        geo = schw.geometry_at(s)
        met = geo.metric
        sf = SpinField.from_samples(g, 0, s)
        F = solver.assemble_F(schw, schw.source_at(s), grad(sf, met),
                              laplacian(sf, met))

        # source assembly is lapse-independent
        logom = SpinField.from_coeffs(g, 0, np.zeros(g.shape))
        ups = comparison.upsilon(sf, met)
        _, _, zeta, _ = comparison.canonical_connection(
            geo, sf, logom, ups, ups.norm2())
        _, rho, _, _ = comparison.canonical_curvature(geo, ups, ups.norm2())
        direct = -1.0 * div(zeta, met) + rho
        assert (F - direct).max_abs() < 1e-9

    def test_solve_lapse_examples(self, mink):
        """Constant F gives log Omega = 0; eigenfunction sources invert on
        the unit and radius-2 round spheres."""
        from nullfoliate.tensors import MetricRep
        g = mink.grid
        met1 = MetricRep.round_sphere(g, 1.0)
        out = solver.solve_lapse(met1, SpinField.constant(g, 3.1))
        assert out.max_abs() < 1e-12
        y20c = np.zeros((9, 17), dtype=complex)
        y20c[2, 8] = 1.0
        y20 = SpinField.from_coeffs(g, 0, y20c)
        out = solver.solve_lapse(met1, -6.0 * y20)
        assert np.max(np.abs(out.coeffs - y20.coeffs)) < 1e-12
        met2 = MetricRep.round_sphere(g, 2.0)
        out = solver.solve_lapse(met2, -1.5 * y20)
        assert np.max(np.abs(out.coeffs - y20.coeffs)) < 1e-12


def whole_window_monitor(grid, sa, la, sb, lb):
    """Largest per-level order-2 Sobolev sum plus sup of the differences, in
    one analysis of the whole window: the reference for picard_window's
    per-block monitor."""
    d = np.stack([sa - sb, la - lb])  # (2, levels, ntheta, nphi)
    sob = solver._sobolev_sum(raw_analyze(grid, d, 0))
    sup = np.max(np.abs(d), axis=(-2, -1))
    return float(np.max(sob[0] + sob[1] + sup[0] + sup[1]))


class TestMonitors:
    @staticmethod
    def _window(data):
        """A 32-step window: levels 0..32, four lapse blocks."""
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 128.0)
        return solver.picard_window(data, 1.0, np.ones(data.grid.shape), cfg)

    def test_monitor_analyses_one_block_at_a_time(self, mms_small,
                                                  monkeypatch):
        data, _ = mms_small
        fields = []

        def recording(grid, samples, spin, L=None):
            fields.append(int(np.prod(np.shape(samples)[:-2])))
            return raw_analyze(grid, samples, spin, L)

        monkeypatch.setattr(solver, "raw_analyze", recording)
        win = self._window(data)
        assert len(win.v_nodes) == 33
        assert fields and max(fields) <= 4 * solver.LAPSE_BLOCK

    def test_monitor_equals_the_whole_window_formula(self, mms_small,
                                                     monkeypatch):
        """M_n and Delta_n, rebuilt from each sweep's iterates, equal the
        whole-window monitor bit for bit."""
        data, _ = mms_small
        lapse_at = solver._lapse_at
        calls = []

        def recording(data, s_samples):
            out = lapse_at(data, s_samples)
            calls.append((np.array(s_samples), out.copy()))
            return out

        monkeypatch.setattr(solver, "_lapse_at", recording)
        win = self._window(data)
        (s0, logOm0), sweeps = calls[0], calls[1:]
        steps = len(win.v_nodes) - 1
        per_sweep = -(-steps // solver.LAPSE_BLOCK)
        assert len(sweeps) == per_sweep * win.iterations
        s_prev = np.broadcast_to(s0, win.s.shape)
        logOm_prev = np.broadcast_to(logOm0, win.s.shape)
        M_ref, Delta_ref = [], []
        for n in range(win.iterations):
            sweep = sweeps[n * per_sweep:(n + 1) * per_sweep]
            s = np.concatenate([s0[None]] + [c[0] for c in sweep])
            logOm = np.concatenate([logOm0[None]] + [c[1] for c in sweep])
            M_ref.append(whole_window_monitor(
                data.grid, s, logOm, np.broadcast_to(s0, s.shape),
                0.0 * logOm))
            Delta_ref.append(whole_window_monitor(
                data.grid, s, logOm, s_prev, logOm_prev))
            s_prev, logOm_prev = s, logOm
        assert np.array_equal(s_prev, win.s)
        assert win.M_trace == M_ref
        assert win.Delta_trace == Delta_ref

    def test_stall_at_the_roundoff_floor_is_accepted(self):
        """tol = 1e-15 lies below the monitor's roundoff floor (eps
        Lmax(Lmax+1) sup|s|, 6.7e-14 here), so Delta_n never reaches it: the
        window is accepted once Delta_n stalls at or below the floor, at the
        fixed point that a reachable tol gives."""
        mink15 = geodesic.gen_minkowski(Lmax=15, n_s=32)
        s0 = np.ones(mink15.grid.shape)
        reach = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0, tol=1e-12)
        below = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0, tol=1e-15)
        w1 = solver.picard_window(mink15, 1.0, s0, reach)
        w2 = solver.picard_window(mink15, 1.0, s0, below)
        floor = solver.roundoff_floor(mink15.grid.Lmax, np.max(w2.s))
        *_, last2, last = w2.Delta_trace
        assert below.tol < last <= floor and last2 <= floor
        assert last >= solver.KAPPA_MAX * last2
        assert np.max(np.abs(w1.s - w2.s)) < 1e-12

    def test_kappa_ignores_ratios_at_the_roundoff_floor(self):
        """Ratios between iterates at the roundoff floor are noise: with tol
        below the floor, a ratio there above KAPPA_MAX does not reject the
        window, which keeps the contraction seen above the floor."""
        schw15 = geodesic.gen_schwarzschild(0.1, Lmax=15, n_s=32)
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0, tol=1e-15)
        win = solver.picard_window(schw15, 1.0, np.ones(schw15.grid.shape),
                                   cfg)
        d = win.Delta_trace
        assert max(b / a for a, b in zip(d[1:], d[2:])) >= solver.KAPPA_MAX
        assert win.kappa < solver.KAPPA_MAX
        assert np.max(np.abs(win.s - win.v_nodes[:, None, None])) < 1e-10


class TestFiniteIterates:
    def test_nan_seed_leaf_raises(self, mink):
        s0 = np.ones(mink.grid.shape)
        s0[3, 4] = np.nan
        cfg = solver.SolverConfig(delta=0.5, dv=1.0 / 16.0)
        with pytest.raises(NonFiniteIterateError):
            solver.picard_window(mink, 1.0, s0, cfg)

    def test_nan_data_stops_the_march(self):
        """One NaN in rho poisons the lapse; the march stops at once instead
        of halving or returning a NaN foliation."""
        data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=24)
        data.rho[5, 3, 4] = np.nan
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0)
        with pytest.raises(NonFiniteIterateError):
            solver.continue_foliation(data, cfg, v_end=1.5)
