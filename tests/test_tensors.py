"""Tensor algebra, conformal calculus and Hodge-system tests."""

import numpy as np
import pytest

from nullfoliate.sphere import SpinField, eth, ethbar, multiply
from nullfoliate.tensors import (SQRT2, MetricRep, OneForm, SymTwoTensor,
                                 contract, curl, div, div2, dot, dual, eth_g,
                                 ethbar_g, grad, hessian, hodge_D1,
                                 invert_laplacian, laplacian, magnitude, mean,
                                 sym_otimes)

from conftest import (bochner_scalar, harmonic, random_real_scalar,
                      random_spin_field)


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
    def test_dot_positive(self, grid12):
        a = real_oneform(grid12, 1)
        vals = np.real(dot(a, a).samples)
        assert np.min(vals) > -1e-12

    def test_dual_squares_to_minus_identity(self, grid12):
        a = real_oneform(grid12, 5)
        out = dual(dual(a))
        assert np.max(np.abs((out.plus + a.plus).coeffs)) < 1e-14

    def test_dual_rejects_scalars(self, grid12):
        with pytest.raises(TypeError):
            dual(harmonic(grid12, 2, 0))


class TestStackedTracefree:
    """Tracefree tensors of a stack carry a zero trace of the stack's shape,
    so indexing one takes a level, never a row of a 2-D zero."""

    @staticmethod
    def stacked(grid, depth=3):
        tr = np.stack([random_real_scalar(grid, seed=k).coeffs
                       for k in range(depth)])
        hp = np.stack([random_spin_field(grid, 2, seed=10 + k).coeffs
                       for k in range(depth)])
        return SymTwoTensor(SpinField.from_coeffs(grid, 0, tr),
                            SpinField.from_coeffs(grid, 2, hp))

    @pytest.mark.parametrize("op", [SymTwoTensor.hat], ids=["hat"])
    def test_level_of_stack_is_op_of_level(self, grid12, op):
        T = self.stacked(grid12)
        out = op(T)
        assert out.trace.stack_shape == (3,)
        for i in range(3):
            got, ref = out[i], op(T[i])
            assert got.trace.coeffs.shape == grid12.shape
            assert np.array_equal(got.trace.samples, ref.trace.samples)
            assert not got.trace.samples.any()
            assert np.array_equal(got.hat_plus.samples, ref.hat_plus.samples)

    def test_every_zero_trace_has_the_stack_shape(self, grid12):
        a = OneForm(SpinField.from_coeffs(grid12, 1, np.stack(
            [random_spin_field(grid12, 1, seed=k).coeffs for k in range(3)])))
        hp = multiply(a.plus, a.plus)
        assert SymTwoTensor.tracefree(hp).trace.stack_shape == (3,)
        assert sym_otimes(a, a).hat().trace.stack_shape == (3,)
        T = SymTwoTensor.from_parts(grid12, None, a.plus.samples[:, None])
        assert T.trace.stack_shape == (3, 1)
        assert T[2, 0].trace.coeffs.shape == grid12.shape


class TwoComponent:
    """The tensor algebra with both spin components explicit and every
    product formed: a 1-form is (X_m, X_mbar), a symmetric 2-tensor
    (trace, T_mm, T_mbmb), with each minus component the conjugate of the
    plus samples."""

    @staticmethod
    def of(x):
        if isinstance(x, OneForm):
            return (x.plus, SpinField.from_samples(
                x.plus.grid, -1, np.conj(x.plus.samples)))
        return (x.trace, x.hat_plus, SpinField.from_samples(
            x.hat_plus.grid, -2, np.conj(x.hat_plus.samples)))

    @staticmethod
    def dot(a, b):
        if len(a) == 2:
            return multiply(a[0], b[1]) + multiply(a[1], b[0])
        return 0.5 * multiply(a[0], b[0]) + multiply(a[1], b[2]) \
            + multiply(a[2], b[1])

    @staticmethod
    def contract(T, a):
        return (0.5 * multiply(T[0], a[0]) + multiply(T[1], a[1]),
                0.5 * multiply(T[0], a[1]) + multiply(T[2], a[0]))

    @classmethod
    def norm2(cls, x):
        return cls.dot(x, x)

    @staticmethod
    def grad(f, g):
        w = g.conformal_factor(-1.0)
        return (multiply(w, eth(f)) * (1.0 / SQRT2),
                multiply(w, ethbar(f)) * (1.0 / SQRT2))

    @staticmethod
    def div(X, g):
        return (ethbar_g(X[0], g) + eth_g(X[1], g)) * (1.0 / SQRT2)

    @staticmethod
    def curl(X, g):
        return (eth_g(X[1], g) - ethbar_g(X[0], g)) * (1j / SQRT2)

    @staticmethod
    def div2(T, g):
        return ((ethbar_g(T[1], g) + 0.5 * eth_g(T[0], g)) * (1.0 / SQRT2),
                (eth_g(T[2], g) + 0.5 * ethbar_g(T[0], g)) * (1.0 / SQRT2))

    @staticmethod
    def hessian(f, g):
        w2 = g.conformal_factor(-2.0)
        return (laplacian(f, g), 0.5 * eth(multiply(w2, eth(f))),
                0.5 * ethbar(multiply(w2, ethbar(f))))

    @classmethod
    def sym_otimes(cls, a, b):
        return (2.0 * cls.dot(a, b), 2.0 * multiply(a[0], b[0]),
                2.0 * multiply(a[1], b[1]))


def _stacked(grid, spin, seed, lmax=8, depth=3):
    """A stack of random band-limited fields; those of spin 0 are real."""
    def make(k):
        if spin == 0:
            return random_real_scalar(grid, seed + k, lmax=lmax)
        return random_spin_field(grid, spin, seed + k, lmax=lmax)
    return SpinField.from_coeffs(
        grid, spin, np.stack([make(k).coeffs for k in range(depth)]))


class TestOneComponent:
    """Real tensors hold one component; every operation agrees with the
    two-component algebra on random real stacked tensors, coefficient- and
    sample-backed, under a stacked conformal metric."""

    @pytest.fixture(scope="class")
    def case(self, grid16):
        g = MetricRep(grid16, psi=0.05 * _stacked(grid16, 0, 60, lmax=3))
        f = _stacked(grid16, 0, 70)
        a = OneForm(_stacked(grid16, 1, 80))
        b = OneForm.from_plus(grid16, _stacked(grid16, 1, 90).samples)
        T = SymTwoTensor(_stacked(grid16, 0, 100), _stacked(grid16, 2, 110))
        S = SymTwoTensor.from_parts(grid16, _stacked(grid16, 0, 120).samples,
                                    _stacked(grid16, 2, 130).samples)
        return g, f, a, b, T, S

    @staticmethod
    def close(got, ref):
        """got (a field or tensor) against a reference field or tuple."""
        if isinstance(got, OneForm):
            got = (got.plus, got.minus)
        elif isinstance(got, SymTwoTensor):
            got = (got.trace, got.hat_plus, got.hat_plus.conj())
        else:
            got, ref = (got,), (ref,)
        assert len(got) == len(ref)
        for x, y in zip(got, ref):
            assert x.spin == y.spin
            assert np.max(np.abs(x.samples - y.samples)) \
                <= 1e-12 * np.max(np.abs(y.samples))

    def test_algebra(self, case):
        g, f, a, b, T, S = case
        R = TwoComponent
        ra, rb, rT, rS = map(R.of, (a, b, T, S))
        self.close(dot(a, b), R.dot(ra, rb))
        self.close(contract(T, a), R.contract(rT, ra))
        self.close(a.norm2(), R.norm2(ra))
        # |x|^2 of band-8 tensors has band 16, so the padded products of
        # the reference drop nothing that the pointwise magnitude keeps
        for x, rx in ((a, ra), (T, rT)):
            self.close(SpinField.from_samples(g.grid, 0, magnitude(x) ** 2),
                       R.norm2(rx))
        self.close(sym_otimes(a, b), R.sym_otimes(ra, rb))

    def test_calculus(self, case):
        g, f, a, b, T, S = case
        R = TwoComponent
        ra, rT = R.of(a), R.of(T)
        self.close(grad(f, g), R.grad(f, g))
        self.close(div(a, g), R.div(ra, g))
        self.close(curl(a, g), R.curl(ra, g))
        self.close(div2(T, g), R.div2(rT, g))
        self.close(hessian(f, g), R.hessian(f, g))

    @pytest.mark.parametrize("op,want", [
        ("dot", ["multiply"]), ("contract", ["multiply"] * 2),
        ("div", ["ethbar_g"]), ("curl", ["ethbar_g"])])
    def test_one_product_or_derivative(self, case, op, want, monkeypatch):
        """dot forms one product and contract two; div and curl take one
        conformal ethbar and no eth."""
        from nullfoliate import tensors

        g, f, a, b, T, S = case
        args = {"dot": (a, b), "contract": (T, a), "div": (a, g),
                "curl": (a, g)}[op]
        calls = []
        for name in ("multiply", "eth_g", "ethbar_g"):
            def spy(*x, _name=name, _fn=getattr(tensors, name)):
                calls.append(_name)
                return _fn(*x)
            monkeypatch.setattr(tensors, name, spy)
        getattr(tensors, op)(*args)
        if op in ("div", "curl"):
            calls = [c for c in calls if c != "multiply"]
        assert calls == want


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
        f = harmonic(grid12, 3, 1).real()
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
        f = harmonic(grid12, 1, 0)
        lhs, rhs = bochner_scalar(f, round1)
        assert abs(lhs - 2.0) < 1e-10
        assert abs(rhs - 2.0) < 1e-10
        lap2 = grid12.integrate(np.abs(laplacian(f, round1).samples) ** 2)
        K = round1.gauss_curvature()
        kgrad = grid12.integrate(np.real(
            multiply(K, grad(f, round1).norm2()).samples))
        assert abs(lap2 - 4.0) < 1e-10
        assert abs(kgrad - 2.0) < 1e-10


class TestHodge:
    def test_D1_D1star_is_minus_laplacian(self, grid12, round1):
        a, b = harmonic(grid12, 2, 0), harmonic(grid12, 3, 0)
        X = -1.0 * grad(a, round1) + dual(grad(b, round1))  # D1* (a, b)
        f, h = hodge_D1(X, round1)
        assert np.max(np.abs(f.coeffs + laplacian(a, round1).coeffs)) < 1e-11
        assert np.max(np.abs(h.coeffs + laplacian(b, round1).coeffs)) < 1e-11

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
