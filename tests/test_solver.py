"""Picard-window and foliation-marching tests."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullfoliate import geodesic, solver
from nullfoliate.errors import (BreakdownError, ConfigurationError,
                                NonConvergenceError, NonFiniteIterateError)
from nullfoliate.sphere import (GeneratorPack, SpinField, interp_generator,
                                multiply, raw_analyze)
from nullfoliate.tensors import OneForm, div, dot, grad, laplacian, mean

from conftest import solve_window


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


def whole_array_quadrature(values, dv):
    """The cumulative quadrature as whole-array expressions into a new
    array, the form cumulative_integral had before it worked in place."""
    k = values.shape[0] - 1
    out = np.zeros_like(values)
    if k == 2:
        out[1] = dv * (5.0 * values[0] + 8.0 * values[1] - values[2]) / 12.0
        out[2] = out[1] + dv * (-values[0] + 8.0 * values[1]
                                + 5.0 * values[2]) / 12.0
        return out
    inc = np.empty_like(values)[:k]
    inc[0] = dv * (8.0 * values[0] + 23.0 * values[1]
                   - 11.0 * values[2] + 5.0 * values[3]
                   - values[4]) / 24.0
    inc[k - 1] = dv * (8.0 * values[k] + 23.0 * values[k - 1]
                       - 11.0 * values[k - 2] + 5.0 * values[k - 3]
                       - values[k - 4]) / 24.0
    mid = inc[1:k - 1]
    np.multiply(13.0, values[1:k - 1], out=mid)
    mid -= values[:k - 2]
    mid += 13.0 * values[2:k]
    mid -= values[3:]
    mid *= dv
    mid /= 24.0
    out[1:] = np.cumsum(inc, axis=0)
    return out


class TestQuadrature:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 33).map(lambda h: 2 * h),
           leaves=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           dv=st.floats(1e-3, 1.0))
    def test_in_place_rule_keeps_the_whole_array_bits(self, k, leaves, seed,
                                                      dv):
        """Every even step count 2..66 on stacks of 1-3 leaves: the in-place
        rule, in blocks of LAPSE_BLOCK subintervals and a running sum node
        by node, equals the whole-array rule bit for bit."""
        rng = np.random.default_rng(seed)
        values = np.exp(rng.normal(scale=0.1, size=(k + 1, leaves, 3, 5)))
        expected = whole_array_quadrature(values, dv)
        out = solver.cumulative_integral(values, dv)
        assert out is values
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))

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

    @pytest.mark.parametrize("k", [4, 6, 8, 64, 128])
    def test_interior_rule_equals_the_loop_bitwise(self, k):
        """The interior subintervals, taken as one slice expression, keep
        the bits of the rule applied one subinterval at a time."""
        v = np.random.default_rng(k).normal(size=(k + 1, 24, 47))
        dv = 1.0 / 64.0
        inc = np.empty_like(v[:k])
        inc[0] = dv * (8.0 * v[0] + 23.0 * v[1] - 11.0 * v[2] + 5.0 * v[3]
                       - v[4]) / 24.0
        inc[k - 1] = dv * (8.0 * v[k] + 23.0 * v[k - 1] - 11.0 * v[k - 2]
                           + 5.0 * v[k - 3] - v[k - 4]) / 24.0
        for j in range(1, k - 1):
            inc[j] = dv * (-v[j - 1] + 13.0 * v[j] + 13.0 * v[j + 1]
                           - v[j + 2]) / 24.0
        out = solver.cumulative_integral(v, dv)
        assert not out[0].any()
        assert np.array_equal(out[1:], np.cumsum(inc, axis=0))


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
        win, v, s, logOmega = solve_window(mink, cfg)
        assert win.iterations <= 2
        assert win.Delta_trace[-1] <= 1e-13
        assert np.max(np.abs(s - v[:, None, None])) < 1e-13
        assert np.max(np.abs(logOmega)) < 1e-13

    def test_schwarzschild_symmetry(self, schw):
        """Spherical symmetry keeps the mean-free source zero: Omega = 1,
        s = v through the window."""
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0, tol=1e-12)
        _, v, s, logOmega = solve_window(schw, cfg)
        assert np.max(np.abs(s - v[:, None, None])) < 1e-10
        assert np.max(np.abs(logOmega)) < 1e-10

    def test_lapse_bound_stops_the_sweep_at_its_block(self, mink,
                                                      monkeypatch):
        """A sweep stops at the first lapse block past LAPSE_BOUND, names
        that block's first level and solves no block after it."""
        lapse_at, blocks = solver._lapse_at, []

        def raised(data, s_samples):
            blocks.append(len(s_samples))
            return lapse_at(data, s_samples) + 0.2 * (len(blocks) == 2)

        cfg = solver.SolverConfig(delta=0.75, dv=1.0 / 32.0)
        v = 1.0 + cfg.dv * np.arange(25)
        s = np.ones((25,) + mink.grid.shape)
        logOmega = np.zeros_like(s)
        monkeypatch.setattr(solver, "_lapse_at", raised)
        with pytest.raises(NonConvergenceError, match=f"v = {v[9]:.6f}"):
            solver.picard_window(mink, v, s, logOmega, cfg)
        assert blocks == [8, 8]

    def test_mms_window_contracts(self, mms_small):
        data, exact = mms_small
        cfg = solver.SolverConfig(delta=0.1, dv=1.0 / 64.0, tol=1e-11)
        win, *_ = solve_window(data, cfg)
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
            F = solver.assemble_F(data, data.source_at(fol.s[i]), metric, sf)
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

        def flaky(data, v, s, logOmega, cfg):
            attempts.append((len(v) - 1) * cfg.dv)
            if len(attempts) == 1:
                raise NonConvergenceError("forced rejection")
            return real(data, v, s, logOmega, cfg)

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

        def rejecting(data, v, s, logOmega, cfg):
            attempts.append((len(v) - 1) * cfg.dv)
            raise NonConvergenceError("forced rejection")

        monkeypatch.setattr(solver, "picard_window", rejecting)
        cfg = solver.SolverConfig(delta=0.3, dv=0.05)
        with pytest.raises(BreakdownError) as err:
            solver.continue_foliation(schw, cfg, v_end=1.5)
        assert attempts == [6 * 0.05, 2 * 0.05]
        assert err.value.last_good_v == 1.0

    def test_each_seed_lapse_is_solved_once(self, mms_small, monkeypatch):
        """A march of five windows, the second one halved, solves one lapse
        alone, that of the leaf v = 1.  Every other window, and the halved
        retry, starts from the lapse that the window before it accepted at
        their shared level, and the foliation keeps that lapse, bit for
        bit."""
        data, _ = mms_small
        lapse_at, real = solver._lapse_at, solver.picard_window
        lone, seeds = [], []

        def recording(data, s_samples):
            if np.ndim(s_samples) == 2:
                lone.append(np.array(s_samples))
            return lapse_at(data, s_samples)

        def flaky(data, v, s, logOmega, cfg):
            seeds.append((v[0], logOmega[0].copy()))
            if len(seeds) == 2:
                raise NonConvergenceError("forced rejection")
            return real(data, v, s, logOmega, cfg)

        monkeypatch.setattr(solver, "_lapse_at", recording)
        monkeypatch.setattr(solver, "picard_window", flaky)
        fol = solver.continue_foliation(
            data, solver.SolverConfig(delta=0.25, dv=1.0 / 32.0), v_end=1.75)
        assert len(fol.windows) == 5 and len(seeds) == 6
        assert len(lone) == 1 and np.all(lone[0] == 1.0)
        assert seeds[1][0] == seeds[2][0]
        assert np.array_equal(seeds[1][1], seeds[2][1])
        for v0, logOm0 in seeds[:1] + seeds[2:]:
            (i,) = np.flatnonzero(fol.v_nodes == v0)
            assert np.max(np.abs(logOm0)) > 0.0
            assert np.array_equal(fol.logOmega[i], logOm0)

    def test_margin_refusal(self):
        """A slab that ends within MARGIN of the leaf v = 1 refuses to
        start: the march breaks down there, naming the margin."""
        data = geodesic.gen_minkowski(s_star=1.04, Lmax=8, n_s=24)
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0)
        with pytest.raises(BreakdownError, match="MARGIN") as err:
            solver.continue_foliation(data, cfg, v_end=1.5)
        assert err.value.last_good_v == 1.0

    def test_seed_lapse_bound_enforced(self):
        """A manufactured amplitude breaking |log Omega_0| <= 1/100 refuses
        to start."""
        spec = geodesic.MmsSpec(epsilon=0.05, Lmax=8, n_s=24,
                                profile_l=2, profile_m=2)
        data, _ = geodesic.gen_manufactured(spec)
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0)
        with pytest.raises(BreakdownError, match="SEED_BOUND") as err:
            solver.continue_foliation(data, cfg, v_end=1.5)
        assert err.value.last_good_v == 1.0

    @staticmethod
    def _attempt_starts(monkeypatch):
        """Wrap picard_window; the list of every attempt's first v."""
        real, starts = solver.picard_window, []

        def recording(data, v, s, logOmega, cfg):
            starts.append(float(v[0]))
            return real(data, v, s, logOmega, cfg)

        monkeypatch.setattr(solver, "picard_window", recording)
        return starts

    def test_seed_past_the_bound_starts_no_window(self, monkeypatch):
        """A seed lapse past SEED_BOUND is refused once, before any window
        is tried from it: no halving can change the seed."""
        spec = geodesic.MmsSpec(epsilon=0.03, Lmax=15, n_s=32)
        data, _ = geodesic.gen_manufactured(spec)
        starts = self._attempt_starts(monkeypatch)
        with pytest.raises(BreakdownError, match="SEED_BOUND") as err:
            solver.continue_foliation(data, solver.SolverConfig(delta=1.0),
                                      v_end=2.0)
        assert err.value.last_good_v == 1.0 and err.value.__cause__ is None
        assert starts == []

    def test_seed_within_the_margin_starts_no_window(self, monkeypatch):
        """A march reaching v = s* = 1.5 accepts the windows up to there
        and tries none from the leaf v = 1.5, within MARGIN of s*."""
        data = geodesic.gen_minkowski(s_star=1.5, Lmax=8, n_s=24)
        starts = self._attempt_starts(monkeypatch)
        with pytest.raises(BreakdownError, match="MARGIN") as err:
            solver.continue_foliation(data, solver.SolverConfig(), v_end=2.0)
        assert err.value.last_good_v == 1.5
        assert starts == [1.0, 1.25]

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
        lone seed leaf is solved once, and the foliation holds the stacks of
        the last sweep."""
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
        steps = fol.n_levels - 1
        assert steps >= 2 * solver.LAPSE_BLOCK
        partition = [len(range(j, min(j + solver.LAPSE_BLOCK, steps + 1)))
                     for j in range(1, steps + 1, solver.LAPSE_BLOCK)]
        assert [len(b) for b in blocks] == partition * win.iterations
        assert len(lone) == 1  # the seed leaf v = 1, solved once
        last = np.concatenate(blocks[-len(partition):])
        assert np.array_equal(last, fol.s[1:])
        assert fol.s.shape == fol.logOmega.shape \
            == (steps + 1,) + data.grid.shape

    def test_a_window_is_solved_in_the_foliation(self, mms_small,
                                                  monkeypatch):
        """A one-window march solves its window in the foliation's own
        arrays: no copy of the window is made or kept."""
        real, got = solver.picard_window, []

        def recording(data, v, s, logOmega, cfg):
            got.append((s, logOmega))
            return real(data, v, s, logOmega, cfg)

        monkeypatch.setattr(solver, "picard_window", recording)
        fol = solver.continue_foliation(mms_small[0], solver.SolverConfig(
            delta=0.25, dv=1.0 / 32.0), v_end=1.25)
        ((s, logOmega),) = got
        assert np.shares_memory(fol.s, s)
        assert np.shares_memory(fol.logOmega, logOmega)


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

    def test_foliation_keeps_its_bits_at_any_lapse_block(self,
                                                         monkeypatch):
        """MMS at L = 15 solves to the same bits whatever LAPSE_BLOCK
        stacks its levels into: every level's transforms and quadratures
        give it the bits it has alone, in any stack."""
        data, _ = geodesic.gen_manufactured(
            geodesic.MmsSpec(epsilon=0.01, Lmax=15))
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 64.0)
        runs = []
        for block in (3, 5, 8, 16):
            monkeypatch.setattr(solver, "LAPSE_BLOCK", block)
            fol = solver.continue_foliation(data, cfg, v_end=1.5)
            runs.append((fol.s, fol.logOmega))
        for s, logOmega in runs[1:]:
            assert np.array_equal(s, runs[0][0])
            assert np.array_equal(logOmega, runs[0][1])

    def test_prescribed_forcing_forms_no_derivatives(self, mms_small,
                                                     monkeypatch):
        data, _ = mms_small

        def unused(*args):
            raise AssertionError("grad s formed for a prescribed F")

        monkeypatch.setattr(solver, "grad", unused)
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
        solve_window(data, cfg)
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
        F = solver.assemble_F(mink, mink.source_at(s), met, sf)
        assert F.max_abs() < 1e-12

    def test_assemble_F_schwarzschild_constant_height(self, schw):
        """At s = 1.5 with no tilt, F reduces to rho'(1.5) = -2M/1.5^3."""
        g = schw.grid
        s = np.full(g.shape, 1.5)
        met = schw.geometry_at(s).metric
        sf = SpinField.from_samples(g, 0, s)
        F = solver.assemble_F(schw, schw.source_at(s), met, sf)
        expect = -2.0 * 0.1 / 1.5 ** 3
        assert np.max(np.abs(np.real(F.samples) - expect)) < 1e-12

    def test_assemble_F_matches_direct_source(self, schw):
        """The canonical rho - Div zeta of assemble_F against the graph form
        of the same source,

            F'_1 + F'_2 . grad s + F'_3 |grad s|^2 + F'_4 Delta s,

        on a tilted graph over curved data.  The coefficients are derived
        from the dataset on the s-nodes and read at the heights s:
        F'_1 = rho' - Div' zeta', F'_2 = -nabla'_L zeta' - trchi' zeta'/2
        - grad' trchi'/2 + beta', and the metric coefficients trchi'^2/4 of
        F'_3 and -trchi'/2 of F'_4 (the slab is shear-free).
        """
        g = schw.grid
        y21 = np.zeros((9, 17), dtype=complex)
        y21[2, 8 + 1] = 0.04
        y21[2, 8 - 1] = -np.conj(0.04)
        prof = np.real(SpinField.from_coeffs(g, 0, y21).samples)
        s = 1.6 + prof
        met = schw.geometry_at(s).metric
        sf = SpinField.from_samples(g, 0, s)
        F = solver.assemble_F(schw, schw.source_at(s), met, sf)

        slab = schw.slab()
        z = slab.zeta.plus.samples
        tables = [
            -div(slab.zeta, slab.metric).samples + slab.rho.samples,
            -schw.d_ds(z) - 0.5 * slab.trchi.samples * z
            - 0.5 * grad(slab.trchi, slab.metric).plus.samples
            + slab.beta.plus.samples,
            0.25 * schw.trchi ** 2, -0.5 * schw.trchi]
        F1, F2, F3, F4 = (
            SpinField.from_samples(g, spin, t) for spin, t in zip(
                (0, 1, 0, 0),
                interp_generator(GeneratorPack(schw.s_nodes, tables), s)))
        ups = grad(sf, met)
        graph = F1 + dot(OneForm(F2), ups) + multiply(F3, dot(ups, ups)) \
            + multiply(F4, laplacian(sf, met))
        assert (F - graph).max_abs() < 1e-9

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
    per-block monitor.  The Sobolev sum is written out on the coefficients,
    apart from tensors.spectral_l2: the per-degree power spectrum P_l =
    sum_m |a_lm|^2, each sum along a contiguous axis, then
    sum_p sqrt(sum_l (l(l+1))^p P_l)."""
    d = np.stack([sa - sb, la - lb])  # (2, levels, ntheta, nphi)
    coeffs = raw_analyze(grid, d, 0)
    lam = np.arange(coeffs.shape[-2], dtype=float)
    lam = lam * (lam + 1.0)
    power = np.sum(np.ascontiguousarray(np.abs(coeffs)) ** 2, axis=-1)
    sob = sum(np.sqrt(np.sum(lam ** p * power, axis=-1)) for p in range(3))
    sup = np.max(np.abs(d), axis=(-2, -1))
    return float(np.max(sob[0] + sob[1] + sup[0] + sup[1]))


class TestMonitors:
    @staticmethod
    def _window(data):
        """A 32-step window: levels 0..32, four lapse blocks."""
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 128.0)
        return solve_window(data, cfg)

    def test_a_window_holds_three_window_arrays(self, mms_small):
        """A sweep holds three window-sized arrays (last graph, lapse, next
        graph) and block-sized temporaries.  The traced peak of a 33-level
        window, grid and transform tables built beforehand, was 13.84
        window arrays when the window came to hold three (tracemalloc,
        numpy 2.4), and 14.55 before, when a sweep held four.  The bound
        lets no fourth window array or whole-window temporary in."""
        data, _ = mms_small
        self._window(data)
        tracemalloc.start()
        try:
            _, _, s, _ = self._window(data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert s.shape[0] == 33
        assert peak <= 14.3 * s.nbytes

    def test_monitor_analyses_one_block_at_a_time(self, mms_small,
                                                  monkeypatch):
        data, _ = mms_small
        fields = []

        def recording(grid, samples, spin, L=None):
            fields.append(int(np.prod(np.shape(samples)[:-2])))
            return raw_analyze(grid, samples, spin, L)

        monkeypatch.setattr(solver, "raw_analyze", recording)
        _, v, _, _ = self._window(data)
        assert len(v) == 33
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
        win, v, win_s, _ = self._window(data)
        (s0, logOm0), sweeps = calls[0], calls[1:]
        steps = len(v) - 1
        per_sweep = -(-steps // solver.LAPSE_BLOCK)
        assert len(sweeps) == per_sweep * win.iterations
        s_prev = np.broadcast_to(s0, win_s.shape)
        logOm_prev = np.broadcast_to(logOm0, win_s.shape)
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
        assert np.array_equal(s_prev, win_s)
        assert win.M_trace == M_ref
        assert win.Delta_trace == Delta_ref

    def test_tol_below_the_roundoff_floor_is_read_as_the_floor(self,
                                                              mms_small):
        """A tol below the monitor's roundoff floor (eps Lmax(Lmax+1)
        sup|s|, 4.3e-14 here) cannot be reached, so the window is accepted
        at the first sweep with Delta_n at or below the floor: any such tol
        gives the same window, at the fixed point a reachable tol gives."""
        data, _ = mms_small
        reach = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0, tol=1e-12)
        _, _, s1, _ = solve_window(data, reach)
        below = [solve_window(data, dataclasses.replace(reach, tol=tol))
                 for tol in (1e-15, 1e-16)]
        (w2, _, s2, _), (w3, _, s3, _) = below
        floor = solver.roundoff_floor(data.grid.Lmax, np.max(s2))
        *_, last2, last = w2.Delta_trace
        assert 1e-15 < last <= floor < last2
        assert w3.Delta_trace == w2.Delta_trace and np.array_equal(s3, s2)
        assert np.max(np.abs(s1 - s2)) < 1e-12

    def test_kappa_ignores_ratios_at_the_roundoff_floor(self):
        """kappa is the largest ratio Delta_{n+1}/Delta_n for n >= 2 whose
        Delta_n lies above the floor it is given: a ratio at the floor is
        roundoff noise, and one above the floor counts however large."""
        floor = 1e-13
        d = [1.0, 0.99, 1e-3, 1e-5, 5e-14, 4.9e-14]
        assert d[-1] / d[-2] >= solver.KAPPA_MAX
        assert solver._observed_kappa(d, floor) == pytest.approx(1e-2)
        assert solver._observed_kappa(d[:4] + [0.95 * d[3]], floor) \
            == pytest.approx(0.95)
        assert solver._observed_kappa(d[:2], floor) == 0.0


class TestFiniteIterates:
    def test_nan_seed_leaf_raises(self, mink):
        cfg = solver.SolverConfig(delta=0.5, dv=1.0 / 16.0)
        v = 1.0 + cfg.dv * np.arange(9)
        s = np.ones((9,) + mink.grid.shape)
        s[0, 3, 4] = np.nan
        logOmega = np.zeros_like(s)
        with pytest.raises(NonFiniteIterateError):
            solver.picard_window(mink, v, s, logOmega, cfg)

    def test_nan_data_stops_the_march(self, monkeypatch):
        """One NaN in rho poisons the lapse; the march breaks down at once,
        from the NonFiniteIterateError, instead of halving or returning a
        NaN foliation."""
        data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=24)
        data.rho[5, 3, 4] = np.nan
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 16.0)
        starts = TestContinueFoliation._attempt_starts(monkeypatch)
        with pytest.raises(BreakdownError) as err:
            solver.continue_foliation(data, cfg, v_end=1.5)
        assert isinstance(err.value.__cause__, NonFiniteIterateError)
        assert starts == [1.0]
