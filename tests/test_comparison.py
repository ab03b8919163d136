"""Foliation-comparison (reconstruction) tests."""

import dataclasses
from dataclasses import fields

import numpy as np
import pytest

from nullfoliate import comparison, geodesic, solver
from nullfoliate.sphere import SpinField
from nullfoliate.tensors import MetricRep, OneForm, SymTwoTensor, dual, grad

from conftest import dLUpsilon_fd, random_real_scalar


@pytest.fixture(scope="module")
def mink_foliation():
    data = geodesic.gen_minkowski(Lmax=8, n_s=24)
    fol = solver.continue_foliation(
        data, solver.SolverConfig(delta=0.25, dv=1.0 / 32.0), v_end=2.0)
    return data, fol


@pytest.fixture(scope="module")
def schw_foliation():
    data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=32)
    fol = solver.continue_foliation(
        data, solver.SolverConfig(delta=0.25, dv=1.0 / 32.0), v_end=2.0)
    return data, fol


@pytest.fixture(scope="module")
def mms_foliation():
    spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=12, n_s=32,
                            profile_l=2, profile_m=2)
    data, exact = geodesic.gen_manufactured(spec)
    fol = solver.continue_foliation(
        data, solver.SolverConfig(delta=0.25, dv=1.0 / 64.0), v_end=2.0)
    return data, exact, fol


class TestMinkowskiCanonical:
    def test_flat_coefficients(self, mink_foliation):
        """Upsilon = 0, log Omega = 0: trchi = 2/v, trchib = -2/v, zeta = 0."""
        data, fol = mink_foliation
        i = fol.n_levels // 2
        v = fol.v_nodes[i]
        co = comparison.reconstruct(data, fol.s_field(i),
                                    fol.logOmega_field(i), v)
        assert np.max(np.abs(co.trchi.samples - 2.0 / v)) < 1e-11
        assert np.max(np.abs(co.trchib.samples + 2.0 / v)) < 1e-11
        assert co.zeta.max_abs() < 1e-11
        assert co.etab.max_abs() < 1e-11
        assert co.Upsilon.max_abs() < 1e-12
        assert co.mu.max_abs() < 1e-11

    def test_upsilon_vanishes_on_initial_sphere(self, mink_foliation):
        data, fol = mink_foliation
        co = comparison.reconstruct(data, fol.s_field(0),
                                    fol.logOmega_field(0), 1.0)
        assert co.Upsilon.max_abs() < 1e-13


def _parts(x):
    """Sample arrays of every component of a coefficient."""
    if isinstance(x, SpinField):
        return [x.samples]
    if isinstance(x, OneForm):
        return [x.plus.samples, x.minus.samples]
    if isinstance(x, SymTwoTensor):
        return [x.trace.samples, x.hat_plus.samples, x.hat_plus.conj().samples]
    if isinstance(x, MetricRep):
        return [x.psi.samples]
    return [np.asarray(x)]


def _mms_stack(Lmax):
    """MMS eps = 0.01, n_s = 24 and its foliation of 9 levels at dv = 1/64."""
    data, exact = geodesic.gen_manufactured(
        geodesic.MmsSpec(epsilon=0.01, Lmax=Lmax, n_s=24))
    fol = solver.continue_foliation(
        data, solver.SolverConfig(dv=1.0 / 64.0), v_end=1.125)
    return data, exact, fol


@pytest.fixture(scope="module")
def mms_stack_L15():
    return _mms_stack(15)


@pytest.fixture(scope="module")
def mms_stack_L23():
    return _mms_stack(23)


class TestStackedReconstruct:
    @pytest.mark.parametrize("case", ["schw_foliation", "mms_foliation",
                                      "mms_stack_L15", "mms_stack_L23"])
    def test_stack_equals_per_level_calls(self, case, request):
        """One stacked call on every level gives each field of the
        per-level calls bit for bit (L = 8, 12, 15 and 23)."""
        value = request.getfixturevalue(case)
        data, fol = value[0], value[-1]
        stacked = comparison.reconstruct(data, fol.s_field(),
                                         fol.logOmega_field(), fol.v_nodes)
        per_level = [comparison.reconstruct(data, fol.s_field(i),
                                            fol.logOmega_field(i),
                                            fol.v_nodes[i])
                     for i in range(fol.n_levels)]
        for f in fields(comparison.CanonicalCoefficients):
            got = _parts(getattr(stacked, f.name))
            for k, part in enumerate(got):
                ref = np.stack([_parts(getattr(co, f.name))[k]
                                for co in per_level])
                assert part.shape == ref.shape, f.name
                assert np.array_equal(part, ref), (f.name, k)
        one = stacked[fol.n_levels // 2]
        assert float(one.v) == fol.v_nodes[fol.n_levels // 2]
        assert one.mu.samples.shape == data.grid.shape

    def test_one_generator_read_per_reconstruction(self, schw_foliation,
                                                   monkeypatch):
        """reconstruct reads all its geodesic tables in one generator read."""
        from nullfoliate import sphere
        real, calls = sphere.interp_generator, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sphere, "interp_generator", counting)
        monkeypatch.setattr(geodesic, "interp_generator", counting)
        data, fol = schw_foliation
        comparison.reconstruct(data, fol.s_field(), fol.logOmega_field(),
                               fol.v_nodes)
        assert len(calls) == 1


class TestSchwarzschildCanonical:
    def test_values_at_v2(self, schw_foliation):
        data, fol = schw_foliation
        i = fol.n_levels - 1
        co = comparison.reconstruct(data, fol.s_field(i),
                                    fol.logOmega_field(i), fol.v_nodes[i])
        assert np.max(np.abs(co.trchib.samples + 0.9)) < 1e-10
        assert co.zeta.max_abs() < 1e-11
        assert np.max(np.abs(co.rho.samples + 0.025)) < 1e-10
        assert np.max(np.abs(co.mu.samples - 0.025)) < 1e-10
        assert np.max(np.abs(co.sigma.samples)) < 1e-12


class TestCurvatureComparison:
    def test_identity_at_zero_tilt(self, schw_foliation):
        """Upsilon = 0 projects the geodesic components unchanged."""
        data, fol = schw_foliation
        g = data.grid
        s = SpinField.from_samples(g, 0, np.full(g.shape, 1.7))
        geo = data.geometry_at(np.real(s.samples))
        U = grad(s, geo.metric)
        beta, rho, sigma, betab = comparison.canonical_curvature(
            geo, U, U.norm2())
        assert np.max(np.abs(rho.samples - (-0.2 / 1.7 ** 3))) < 1e-12
        assert beta.max_abs() < 1e-13
        assert betab.max_abs() < 1e-13

    def test_synthetic_cubic_substitution(self):
        """With beta' = 0, rho' = 1, sigma' = 0 and a tilted graph, the
        proposition gives betab = -3 rho' Upsilon and rho = rho'."""
        data = geodesic.gen_minkowski(Lmax=12, n_s=24)
        data = dataclasses.replace(data, rho=np.ones_like(data.rho))
        g = data.grid
        prof = 0.03 * random_real_scalar(g, seed=11, lmax=2)
        s = SpinField.from_samples(g, 0, 1.5 + np.real(prof.samples))
        geo = data.geometry_at(np.real(s.samples))
        U = grad(s, geo.metric)
        beta, rho, sigma, betab = comparison.canonical_curvature(
            geo, U, U.norm2())
        assert (betab + 3.0 * U).max_abs() < 1e-12
        assert np.max(np.abs(rho.samples - 1.0)) < 1e-12
        assert sigma.max_abs() < 1e-12


class TestMassAspect:
    def test_divergence_free_invariance(self, grid12):
        """Adding a curl-potential part to zeta leaves mu unchanged."""
        met = MetricRep.round_sphere(grid12, 1.0)
        rc = random_real_scalar(grid12, 31, lmax=4)
        ze = grad(random_real_scalar(grid12, 32, lmax=4), met)
        pot = random_real_scalar(grid12, 33, lmax=4)
        mu1 = comparison.mass_aspect(rc, ze, met)
        mu2 = comparison.mass_aspect(rc, ze + dual(grad(pot, met)), met)
        assert (mu1 - mu2).max_abs() < 1e-11


class TestCrossPaths:
    def test_etab_two_paths_agree(self, mms_foliation):
        """etab via the comparison proposition with a v-differenced
        nabla_L Upsilon against etab = -zeta - grad log Omega."""
        from nullfoliate.diagnostics import _fd_stencil, canonical
        data, exact, fol = mms_foliation
        levels = canonical(fol)
        dl = dLUpsilon_fd(levels)
        _, margin = _fd_stencil(fol.n_levels)
        worst = 0.0
        for i in range(margin, fol.n_levels - margin, 8):
            co = levels[i]
            zg = data.geometry_at(np.real(co.s.samples)).zeta
            path_a = -1.0 * zg + dl[i]
            path_b = -1.0 * co.zeta - grad(co.logOmega, co.metric)
            worst = max(worst, (path_a - path_b).max_abs())
        assert worst < 5e-9

    def test_upsilon_transport_identity(self, mms_foliation):
        """nabla_L Upsilon from v-differencing satisfies the algebraic
        transport equation through the solver's truncation."""
        from nullfoliate.diagnostics import _fd_stencil, canonical
        data, exact, fol = mms_foliation
        levels = canonical(fol)
        dl = dLUpsilon_fd(levels)
        _, margin = _fd_stencil(fol.n_levels)
        worst = 0.0
        for i in range(margin, fol.n_levels - margin, 8):
            co = levels[i]
            res = dl[i] + grad(co.logOmega, co.metric) \
                + 0.5 * (co.trchi * co.Upsilon)
            worst = max(worst, res.max_abs())
        assert worst < 5e-9

    def test_upsilon_prime_relation(self, mms_foliation):
        """Upsilon' = Omega^{-1} grad' v on geodesic leaves: checked through
        the inverse graph map of the manufactured solution.

        Upsilon' is minus the projected tilt, so at corresponding points
        Omega^{-1} (grad' v)_m must equal -Upsilon_m.  Omega along the graph
        is 1 / (d_v s*), and Upsilon_m = eps B(v) eth G / (sqrt(2) s).
        """
        from nullfoliate.sphere import eth
        data, exact, fol = mms_foliation
        g = data.grid
        sigma = 1.45
        V = exact.v_of_s(np.full(g.shape, sigma))
        gp = MetricRep(g, psi=SpinField.constant(g, np.log(sigma)))
        grad_v = grad(SpinField.from_samples(g, 0, V), gp)
        omega_inv = exact.dvs_exact(V)
        lhs = omega_inv * grad_v.plus.samples
        ethG = eth(SpinField.from_samples(g, 0, exact.G)).samples
        ups_m = exact.epsilon * exact.B(V) * ethG / (np.sqrt(2.0) * sigma)
        assert np.max(np.abs(lhs + ups_m)) < 1e-10


class TestProjectionIdentities:
    def test_chi_equals_projected_geodesic_chi(self, schw_foliation):
        """The intrinsic second fundamental form projects unchanged: the
        canonical chi, a trace, is exactly the geodesic table evaluated at
        height s."""
        data, fol = schw_foliation
        i = fol.n_levels // 3
        co = comparison.reconstruct(data, fol.s_field(i),
                                    fol.logOmega_field(i), fol.v_nodes[i])
        s = np.real(fol.s_field(i).samples)
        trchi_proj = data.geometry_at(s).trchi
        assert np.array_equal(co.trchi.samples, trchi_proj.samples)
