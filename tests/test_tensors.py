"""Tensor algebra, conformal calculus and Hodge-system tests."""

import numpy as np
import pytest

from nullfoliate.errors import ConstraintError
from nullfoliate.sphere import SpinField, multiply
from nullfoliate.tensors import (MetricRep, SymTwoTensor, curl, div, dot,
                                 dual, grad, hat_otimes, hodge_D1,
                                 hodge_D1_star, hodge_D2, hodge_D2_star,
                                 invert_D1, invert_laplacian, laplacian, mean,
                                 trace_split, wedge)

from conftest import harmonic, random_real_scalar, random_spin_field


@pytest.fixture(scope="module")
def round1(grid12):
    return MetricRep.round_sphere(grid12, 1.0)


@pytest.fixture(scope="module")
def conformal(grid16):
    """Perturbative conformally-round metric, the solver's operating regime."""
    psi = 0.005 * random_real_scalar(grid16, seed=77, lmax=2)
    return MetricRep(grid16, psi=psi)


def real_oneform(grid, seed, lmax=None):
    g = MetricRep.round_sphere(grid, 1.0)
    lmax = grid.Lmax // 2 - 1 if lmax is None else lmax
    return grad(random_real_scalar(grid, seed, lmax=lmax), g) \
        + dual(grad(random_real_scalar(grid, seed + 50, lmax=lmax), g))


class TestAlgebra:
    def test_trace_split_of_metric(self, grid12, round1):
        """T = g has g-trace 2 and no tracefree part."""
        T_mm = SpinField.zero(grid12, 2)
        T_mmbar = SpinField.constant(grid12, 1.0)
        out = trace_split(T_mm, T_mmbar, round1)
        assert np.max(np.abs(out.trace.samples - 2.0)) < 1e-13
        assert out.hat_plus.max_abs() < 1e-14

    def test_trace_split_idempotent_on_tracefree(self, grid12, round1):
        hat = random_spin_field(grid12, 2, seed=9)
        out = trace_split(hat, SpinField.zero(grid12, 0), round1)
        assert out.trace.max_abs() < 1e-13
        assert np.max(np.abs(out.hat_plus.coeffs - hat.coeffs)) < 1e-13

    def test_dot_positive(self, grid12):
        a = real_oneform(grid12, 1)
        vals = np.real(dot(a, a).samples)
        assert np.min(vals) > -1e-12

    def test_wedge_antisymmetry(self, grid12):
        a = real_oneform(grid12, 2)
        assert wedge(a, a).max_abs() < 1e-12

    def test_hat_otimes_tracefree(self, grid12, round1):
        a = real_oneform(grid12, 3)
        b = real_oneform(grid12, 4)
        out = hat_otimes(a, b, round1)
        assert out.trace.max_abs() == 0.0
        # brute-force pointwise check of the mm component
        expect = 2.0 * multiply(a.plus, b.plus).samples
        assert np.max(np.abs(out.hat_plus.samples - expect)) < 1e-12

    def test_dual_squares_to_minus_identity(self, grid12):
        a = real_oneform(grid12, 5)
        out = dual(dual(a))
        assert np.max(np.abs((out.plus + a.plus).coeffs)) < 1e-14

    def test_dual_rejects_scalars(self, grid12):
        with pytest.raises(TypeError):
            dual(harmonic(grid12, 2, 0))


class TestConformalCalculus:
    def test_grad_of_constant(self, conformal):
        c = SpinField.constant(conformal.grid, 3.3)
        assert grad(c, conformal).max_abs() < 1e-11

    def test_radius_two_laplacian(self, grid12):
        g2 = MetricRep.round_sphere(grid12, 2.0)
        f = harmonic(grid12, 2, 0)
        out = laplacian(f, g2)
        assert abs(out.coeff(2, 0) + 1.5) < 1e-12

    def test_curl_grad_vanishes(self, grid12, round1):
        f = harmonic(grid12, 3, 1)
        assert curl(grad(f, round1), round1).max_abs() < 1e-11

    def test_curl_grad_vanishes_conformal(self, conformal):
        f = random_real_scalar(conformal.grid, seed=5, lmax=6)
        gf = grad(f, conformal)
        # roundoff floor scales with the derivative magnitude of f
        assert curl(gf, conformal).max_abs() < 1e-11 * max(1.0, gf.max_abs())

    def test_div_grad_is_laplacian(self, conformal):
        f = random_real_scalar(conformal.grid, seed=6, lmax=6)
        lhs = div(grad(f, conformal), conformal)
        rhs = laplacian(f, conformal)
        assert np.max(np.abs(lhs.coeffs - rhs.coeffs)) < 1e-11

    def test_integration_by_parts(self, conformal):
        f = random_real_scalar(conformal.grid, seed=8, lmax=6)
        X = real_oneform(conformal.grid, 12)
        total = conformal.grid.integrate(
            np.real((multiply(f, div(X, conformal))
                     + dot(grad(f, conformal), X)).samples)
            * conformal.sqrt_det())
        assert abs(total) < 1e-11

    def test_gauss_curvature_round(self, grid12):
        g2 = MetricRep.round_sphere(grid12, 2.0)
        K = g2.gauss_curvature()
        assert np.max(np.abs(K.samples - 0.25)) < 1e-10

    def test_bochner_scalar_y10(self, grid12, round1):
        """For f = Y10: int |Delta f|^2 = 4, int K |grad f|^2 = 2, so the
        Hessian square integrates to 2."""
        from nullfoliate.diagnostics import bochner_scalar
        from nullfoliate.sphere import multiply as mult
        f = harmonic(grid12, 1, 0)
        lhs, rhs = bochner_scalar(f, round1)
        assert abs(lhs - 2.0) < 1e-10
        assert abs(rhs - 2.0) < 1e-10
        lap2 = grid12.integrate(np.abs(laplacian(f, round1).samples) ** 2)
        K = round1.gauss_curvature()
        kgrad = grid12.integrate(np.real(
            mult(K, grad(f, round1).norm2()).samples))
        assert abs(lap2 - 4.0) < 1e-10
        assert abs(kgrad - 2.0) < 1e-10


class TestHodge:
    def test_D1_D1star_is_minus_laplacian(self, grid12, round1):
        a, b = harmonic(grid12, 2, 0), harmonic(grid12, 3, 0)
        X = hodge_D1_star(a, b, round1)
        f, h = hodge_D1(X, round1)
        assert np.max(np.abs(f.coeffs + laplacian(a, round1).coeffs)) < 1e-11
        assert np.max(np.abs(h.coeffs + laplacian(b, round1).coeffs)) < 1e-11

    def test_D2star_D2_spectral_oracle(self, grid12, round1):
        """D2* D2 = (-Delta/2 + K) acts as l(l+1)/2 - 1 on unit-sphere
        tracefree tensors (spin-2 eigenvalue algebra)."""
        T = SymTwoTensor(SpinField.zero(grid12, 0),
                         random_spin_field(grid12, 2, seed=21),
                         random_spin_field(grid12, -2, seed=22))
        out = hodge_D2_star(hodge_D2(T, round1), round1)
        ls = np.arange(grid12.Lmax + 1, dtype=float)
        eig = (ls * (ls + 1.0) / 2.0 - 1.0)[:, None]
        assert np.max(np.abs(out.hat_plus.coeffs
                             - eig * T.hat_plus.coeffs)) < 1e-10
        assert np.max(np.abs(out.hat_minus.coeffs
                             - eig * T.hat_minus.coeffs)) < 1e-10

    def test_invert_laplacian_eigenfunction(self, grid12, round1):
        f = harmonic(grid12, 2, 0)
        u = invert_laplacian(-6.0 * f, round1)
        assert np.max(np.abs(u.coeffs - f.coeffs)) < 1e-12

    def test_invert_laplacian_conformal_scaling(self, grid12):
        """On the radius-2 sphere, -(6/4) Y20 inverts back to Y20."""
        g2 = MetricRep.round_sphere(grid12, 2.0)
        f = harmonic(grid12, 2, 0)
        u = invert_laplacian(-1.5 * f, g2)
        assert np.max(np.abs(u.coeffs - f.coeffs)) < 1e-12

    def test_invert_laplacian_roundtrip_mean_free(self, conformal):
        f = random_real_scalar(conformal.grid, seed=30, lmax=6)
        u = invert_laplacian(laplacian(f, conformal), conformal)
        expect = f - SpinField.constant(conformal.grid, mean(f, conformal))
        assert (u - expect).max_abs() < 1e-11
        assert abs(mean(u, conformal)) < 1e-12

    def test_invert_D1_roundtrip(self, grid12, round1):
        f = random_real_scalar(grid12, seed=31)
        f = f - SpinField.constant(grid12, mean(f, round1))
        h = random_real_scalar(grid12, seed=32)
        h = h - SpinField.constant(grid12, mean(h, round1))
        X = invert_D1(f, h, round1)
        df, dh = hodge_D1(X, round1)
        assert np.max(np.abs(df.coeffs - f.coeffs)) < 1e-11
        assert np.max(np.abs(dh.coeffs - h.coeffs)) < 1e-11

    def test_invert_D1_rejects_nonzero_mean(self, grid12, round1):
        f = SpinField.constant(grid12, 1.0)
        with pytest.raises(ConstraintError):
            invert_D1(f, harmonic(grid12, 2, 0), round1)


class TestMean:
    def test_mean_of_one(self, conformal):
        assert abs(mean(SpinField.constant(conformal.grid, 1.0),
                        conformal) - 1.0) < 1e-13

    def test_mean_orthogonality(self, grid12, round1):
        assert abs(mean(harmonic(grid12, 2, 0), round1)) < 1e-13

    def test_mean_against_refined_grid(self, grid12):
        """Conformal mean agrees with the same quadrature at doubled band."""
        from nullfoliate.sphere import build_grid
        psi12 = 0.05 * random_real_scalar(grid12, seed=40, lmax=3)
        g12 = MetricRep(grid12, psi=psi12)
        f12 = random_real_scalar(grid12, seed=41, lmax=4)
        big = build_grid(2 * grid12.Lmax)
        L, Lb = grid12.Lmax, big.Lmax

        def embed(field, spin=0):
            c = np.zeros((Lb + 1, 2 * Lb + 1), dtype=complex)
            c[:L + 1, Lb - L:Lb + L + 1] = field.coeffs
            return SpinField.from_coeffs(big, spin, c)

        gbig = MetricRep(big, psi=embed(psi12))
        assert abs(mean(f12, g12) - mean(embed(f12), gbig)) < 1e-11
