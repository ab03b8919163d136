"""Grid, transform and eth-operator tests for the spectral layer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullfoliate._wigner import spin_lambda_tables
from nullfoliate.errors import (ConfigurationError, OutOfDomainError,
                                UnsupportedSpinError)
from nullfoliate.sphere import (GeneratorPack, SpinField, _tables, analyze,
                                build_grid, eth, ethbar, interp_generator,
                                laplacian_round, multiply, pad_Lmax,
                                raw_analyze, raw_synthesize, synthesize)

from conftest import harmonic, random_spin_field


class TestGrid:
    def test_node_counts(self):
        g = build_grid(4)
        assert g.shape == (5, 9)
        g15 = build_grid(15)
        assert g15.shape == (16, 31)

    def test_weights_sum_to_sphere_area(self):
        g = build_grid(4)
        assert abs(g.weights.sum() - 4.0 * np.pi) < 1e-13

    def test_lmax_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            build_grid(3)

    def test_y20_orthonormality(self, grid8):
        f = harmonic(grid8, 2, 0)
        val = grid8.integrate(np.abs(f.samples) ** 2)
        assert abs(val - 1.0) < 1e-12

    def test_quadrature_orthogonality_cross_mode(self, grid8):
        f = harmonic(grid8, 2, 0)
        h = harmonic(grid8, 4, 0)
        val = grid8.integrate(f.samples * np.conj(h.samples))
        assert abs(val) < 1e-12


class TestTransforms:
    def test_y00_single_coefficient(self, grid8):
        samples = np.full(grid8.shape, np.sqrt(1.0 / (4.0 * np.pi)),
                          dtype=complex)
        a = analyze(samples, 0, grid8)
        assert abs(a[0, grid8.Lmax] - 1.0) < 1e-13
        a[0, grid8.Lmax] = 0.0
        assert np.max(np.abs(a)) < 1e-13

    @pytest.mark.parametrize("spin", [-2, -1, 0, 1, 2])
    def test_roundtrip_band_limited(self, grid12, spin):
        f = random_spin_field(grid12, spin, seed=42 + spin)
        back = analyze(f.samples, spin, grid12)
        assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_spin1_eth_y20_convention(self, grid8):
        """Samples of eth Y20 / sqrt(6) carry a unit (2,0) spin-1 coefficient."""
        th = grid8.theta_nodes
        # eth Y20 = -d/dtheta Y20 for the m = 0 harmonic
        dY20 = np.sqrt(5.0 / (16.0 * np.pi)) * 6.0 * np.cos(th) * np.sin(th)
        samples = np.repeat(dY20[:, None], grid8.nphi, axis=1) / np.sqrt(6.0)
        a = analyze(samples.astype(complex), 1, grid8)
        assert abs(a[2, grid8.Lmax] - 1.0) < 1e-12
        a[2, grid8.Lmax] = 0.0
        assert np.max(np.abs(a)) < 1e-12

    def test_unsupported_spin_rejected(self, grid8):
        with pytest.raises(UnsupportedSpinError):
            analyze(np.zeros(grid8.shape, dtype=complex), 3, grid8)
        with pytest.raises(UnsupportedSpinError):
            synthesize(np.zeros((9, 17), dtype=complex), -3, grid8)

    def test_wigner_tables_match_sympy(self, grid8):
        """Spot-check the theta tables against exact Wigner-d values."""
        sympy = pytest.importorskip("sympy")
        from sympy.physics.quantum.spin import Rotation

        from nullfoliate.sphere import _tables

        lam = _tables(grid8.Lmax, -1)
        theta = grid8.theta_nodes[3]
        for (l, m) in [(1, 0), (2, 1), (3, -2), (4, 4)]:
            d = complex(Rotation.d(l, -m, -1,
                                   sympy.Float(theta)).doit()).real
            expect = (-1.0) ** m * np.sqrt((2 * l + 1) / (4 * np.pi)) * d
            assert abs(lam[l, m + grid8.Lmax, 3] - expect) < 1e-12

    @pytest.mark.parametrize("Lmax", [8, 15, 22, 23, 31, 35])
    def test_wigner_tables_match_per_m_loop_bitwise(self, Lmax):
        """The one recurrence over all m gives the per-m tables bit for bit,
        on the plain and on the padded theta nodes."""
        for grid in (build_grid(Lmax), build_grid(pad_Lmax(Lmax))):
            for spin in range(-4, 5):
                ref = _per_m_lambda_tables(Lmax, spin, grid.theta_nodes)
                assert np.array_equal(
                    spin_lambda_tables(Lmax, spin, grid.theta_nodes), ref)

    def test_conjugation_symmetry(self, grid8):
        """conj(sYlm) = (-1)^{s+m} (-s)Y(l,-m) holds for the tables."""
        from nullfoliate.sphere import _tables

        lam_p = _tables(grid8.Lmax, 2)
        lam_m = _tables(grid8.Lmax, -2)
        L = grid8.Lmax
        for l in range(2, L + 1):
            for m in range(-l, l + 1):
                lhs = lam_p[l, m + L] * (-1.0) ** (2 + m)
                assert np.max(np.abs(lhs - lam_m[l, -m + L])) < 1e-12


def _per_m_lambda_tables(lmax, spin, theta):
    """The per-m Jacobi-column loop the vectorised table replaced."""
    def jacobi(kmax, a, b, x):
        out = np.empty((kmax + 1, x.size))
        out[0] = 1.0
        if kmax == 0:
            return out
        out[1] = 0.5 * (a - b + (a + b + 2.0) * x)
        for n in range(1, kmax):
            c1 = 2.0 * (n + 1.0) * (n + a + b + 1.0) * (2.0 * n + a + b)
            c2 = (2.0 * n + a + b + 1.0) * (a * a - b * b)
            c3 = (2.0 * n + a + b) * (2.0 * n + a + b + 1.0) \
                * (2.0 * n + a + b + 2.0)
            c4 = 2.0 * (n + a) * (n + b) * (2.0 * n + a + b + 2.0)
            out[n + 1] = ((c2 + c3 * x) * out[n] - c4 * out[n - 1]) / c1
        return out

    def wigner_d(m1, m2):
        lmin = max(abs(m1), abs(m2))
        out = np.zeros((lmax + 1, theta.size))
        if lmin > lmax:
            return out
        if m1 >= abs(m2):
            mp, mm, sign = m1, m2, 1.0
        elif m2 >= abs(m1):
            mp, mm, sign = m2, m1, (-1.0) ** abs(m2 - m1)
        elif -m2 >= abs(m1):
            mp, mm, sign = -m2, -m1, 1.0
        else:
            mp, mm, sign = -m1, -m2, (-1.0) ** abs(m2 - m1)
        a, b = mp - mm, mp + mm
        jac = jacobi(lmax - lmin, a, b, np.cos(theta))
        ls = np.arange(lmin, lmax + 1)
        logf = np.array([math.lgamma(k + 1.0) for k in range(2 * lmax + 1)])
        logN = 0.5 * (logf[ls + mp] + logf[ls - mp]
                      - logf[ls + mm] - logf[ls - mm])
        mag = np.exp(logN[:, None] + a * np.log(np.sin(theta / 2.0))[None, :]
                     + b * np.log(np.cos(theta / 2.0))[None, :])
        out[lmin:] = sign * (-1.0) ** a * mag * jac
        return out

    out = np.zeros((2 * lmax + 1, theta.size, lmax + 1))
    norm = np.sqrt((2.0 * np.arange(lmax + 1) + 1.0) / (4.0 * np.pi))
    for m in range(-lmax, lmax + 1):
        out[m + lmax] = (((-1.0) ** m) * norm[:, None] * wigner_d(-m, spin)).T
    return out


def _reference_synthesize(grid, coeffs, spin):
    """The complex einsum + FFT synthesis the matmul plan replaced."""
    L = grid.Lmax
    lam = _tables(L, spin)
    X = np.zeros(grid.shape, dtype=complex)
    X[:, np.arange(-L, L + 1) % grid.nphi] = np.einsum("lmt,lm->tm", lam,
                                                       coeffs)
    return np.fft.ifft(X, axis=1) * grid.nphi


def _reference_analyze(grid, samples, spin):
    """The complex einsum + FFT analysis the matmul plan replaced."""
    L = grid.Lmax
    F = np.fft.fft(samples, axis=1) * (2.0 * np.pi / grid.nphi)
    F = F[:, np.arange(-L, L + 1) % grid.nphi]
    wF = (grid.weights[:, None] / (2.0 * np.pi)) * F
    return np.einsum("lmt,tm->lm", _tables(L, spin), wF)


def _band_limited(rng, Lmax, spin):
    """Random coefficients, zero where l < max(|m|, |spin|)."""
    c = rng.normal(size=(Lmax + 1, 2 * Lmax + 1)) \
        + 1j * rng.normal(size=(Lmax + 1, 2 * Lmax + 1))
    ls = np.arange(Lmax + 1)[:, None]
    ms = np.arange(-Lmax, Lmax + 1)[None, :]
    c[ls < np.maximum(abs(ms), abs(spin))] = 0.0
    return c


class TestTransformKernels:
    @pytest.mark.parametrize("Lmax", [8, 15, 23, 35])
    def test_match_einsum_fft_reference(self, Lmax):
        """Samples and coefficients agree with the reference formula to
        1e-13 relative, for every spin the derivative chains reach."""
        grid = build_grid(Lmax)
        rng = np.random.default_rng(Lmax)
        for spin in range(-3, 4):
            c = _band_limited(rng, Lmax, spin)
            ref = _reference_synthesize(grid, c, spin)
            x = raw_synthesize(grid, c, spin)
            assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
            samples = rng.normal(size=grid.shape) \
                + 1j * rng.normal(size=grid.shape)
            ref = _reference_analyze(grid, samples, spin)
            a = raw_analyze(grid, samples, spin)
            assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))

    @settings(max_examples=40, deadline=None)
    @given(Lmax=st.integers(4, 30), spin=st.integers(-3, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_roundtrip_property(self, Lmax, spin, seed):
        grid = build_grid(Lmax)
        c = _band_limited(np.random.default_rng(seed), Lmax, spin)
        back = raw_analyze(grid, raw_synthesize(grid, c, spin), spin)
        assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))

    @settings(max_examples=40, deadline=None)
    @given(Lmax=st.integers(4, 24), spin_f=st.integers(-2, 2),
           spin_g=st.integers(-2, 2), split=st.floats(0.0, 1.0),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_product_property(self, Lmax, spin_f, spin_g, split, seed):
        """Degrees summing to <= Lmax: the padded product is the pointwise
        product of the samples, with nothing aliased or truncated."""
        grid = build_grid(Lmax)
        lf = max(abs(spin_f), int(split * Lmax))
        lg = max(abs(spin_g), Lmax - lf)
        rng = np.random.default_rng(seed)
        cf = _band_limited(rng, Lmax, spin_f)
        cg = _band_limited(rng, Lmax, spin_g)
        assume(lf + lg <= Lmax)
        cf[lf + 1:] = 0.0
        cg[lg + 1:] = 0.0
        f = SpinField.from_coeffs(grid, spin_f, cf)
        g = SpinField.from_coeffs(grid, spin_g, cg)
        exact = f.samples * g.samples
        p = multiply(f, g)
        assert np.max(np.abs(p.samples - exact)) \
            <= 1e-12 * max(np.max(np.abs(exact)), 1.0)

    def test_one_table_per_band_and_one_dft_pair_per_lmax(self, grid8,
                                                           monkeypatch):
        """Tables are stored once per (grid Lmax, band, spin); a product on
        grid8 stores band-8 tables of the padded grid, never a full padded
        one, and its DFT matrices are slices of the one stored pair."""
        from nullfoliate import sphere

        monkeypatch.setattr(sphere, "_LEGENDRE", {})
        monkeypatch.setattr(sphere, "_FOURIER", {})
        Lp = pad_Lmax(8)
        f = random_spin_field(grid8, 1, seed=1)
        g = random_spin_field(grid8, -2, seed=2)
        multiply(f, g)
        multiply(f, g)
        assert set(sphere._LEGENDRE) == {(Lp, 8, 1), (Lp, 8, -2), (Lp, 8, -1)}
        for spin in range(-3, 4):
            raw_synthesize(grid8, _band_limited(
                np.random.default_rng(spin + 3), 8, spin), spin)
            assert np.shares_memory(_tables(8, spin),
                                    sphere._LEGENDRE[(8, 8, spin)])
        for (Lg, L, spin), lam in sphere._LEGENDRE.items():
            assert lam.shape == (2 * L + 1, Lg + 1, L + 1)
            assert lam.flags.c_contiguous and lam.base is None
        assert set(sphere._FOURIER) == {8, Lp}
        for Lg, (E, Einv) in sphere._FOURIER.items():
            assert E.shape == Einv.shape == (2 * Lg + 1, 2 * Lg + 1)
        _, E, Einv = sphere._plan(build_grid(Lp), 8, 0)
        assert E.shape == (17, 2 * Lp + 1) and Einv.shape == (2 * Lp + 1, 17)
        assert np.shares_memory(E, sphere._FOURIER[Lp][0])
        assert np.shares_memory(Einv, sphere._FOURIER[Lp][1])
        assert np.array_equal(E, sphere._FOURIER[Lp][0][Lp - 8:Lp + 9])

    def test_band_is_read_from_the_coefficient_shape(self, grid8):
        """A band-L field synthesised on a finer grid is the zero-padded
        full-band field; an inconsistent shape or a band above the grid's
        Lmax raises ValueError, also for all-zero input."""
        big = build_grid(12)
        c = _band_limited(np.random.default_rng(6), 8, 1)
        x = raw_synthesize(big, c, 1)
        ref = raw_synthesize(big, _embed(c, 8, 12), 1)
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
        back = raw_analyze(big, x, 1, 8)
        assert back.shape == c.shape
        assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))
        for shape in [(9, 15), (9,), (13, 25), (2, 10, 19)]:
            with pytest.raises(ValueError):
                raw_synthesize(grid8, np.zeros(shape, dtype=complex), 0)
        for shape in [(9, 16), (17,), (2, 10, 17)]:
            with pytest.raises(ValueError):
                raw_analyze(grid8, np.zeros(shape, dtype=complex), 0)
        with pytest.raises(ValueError):
            raw_analyze(grid8, np.zeros(grid8.shape, dtype=complex), 0, 9)


class TestEth:
    def test_ethbar_eth_is_laplacian(self, grid8):
        f = harmonic(grid8, 3, 0)
        out = ethbar(eth(f))
        assert abs(out.coeff(3, 0) + 12.0) < 1e-12

    def test_eth_of_constant_vanishes(self, grid8):
        c = SpinField.constant(grid8, 4.2)
        assert eth(c).max_abs() < 1e-12

    def test_commutator_is_twice_spin(self, grid12):
        eta = random_spin_field(grid12, 1, seed=7)
        comm = ethbar(eth(eta)).coeffs - eth(ethbar(eta)).coeffs
        assert np.max(np.abs(comm - 2.0 * eta.coeffs)) < 1e-11

    def test_eth_spin_range_guard(self, grid8):
        f = random_spin_field(grid8, 2, seed=1)
        with pytest.raises(UnsupportedSpinError):
            eth(f)
        with pytest.raises(UnsupportedSpinError):
            ethbar(random_spin_field(grid8, -2, seed=1))

    def test_laplacian_round_eigenvalues(self, grid8):
        f = harmonic(grid8, 2, 0)
        assert abs(laplacian_round(f, 1.0).coeff(2, 0) + 6.0) < 1e-13
        assert abs(laplacian_round(f, 2.0).coeff(2, 0) + 1.5) < 1e-13
        c = SpinField.constant(grid8, 1.0)
        assert laplacian_round(c).max_abs() < 1e-12

    def test_laplacian_round_requires_spin0(self, grid8):
        with pytest.raises(UnsupportedSpinError):
            laplacian_round(random_spin_field(grid8, 1, seed=2))


class TestProducts:
    def test_product_matches_pointwise(self, grid8):
        f = harmonic(grid8, 1, 0)
        p = multiply(f, f)
        assert np.max(np.abs(p.samples - f.samples ** 2)) < 1e-13

    def test_product_is_alias_free(self, grid12):
        """Coefficients of a quadratic product are exact up to the band limit."""
        f = random_spin_field(grid12, 1, seed=3, lmax=grid12.Lmax)
        g = random_spin_field(grid12, -1, seed=4, lmax=grid12.Lmax)
        p = multiply(f, g)
        big = build_grid(2 * grid12.Lmax + 1)
        fb = SpinField.from_coeffs(
            big, 1, _embed(f.coeffs, grid12.Lmax, big.Lmax))
        gb = SpinField.from_coeffs(
            big, -1, _embed(g.coeffs, grid12.Lmax, big.Lmax))
        exact = analyze(fb.samples * gb.samples, 0, big)
        L, Lb = grid12.Lmax, big.Lmax
        assert np.max(np.abs(p.coeffs
                             - exact[:L + 1, Lb - L:Lb + L + 1])) < 1e-12


def _embed(coeffs, L, Lbig):
    out = np.zeros(coeffs.shape[:-2] + (Lbig + 1, 2 * Lbig + 1), dtype=complex)
    out[..., :L + 1, Lbig - L:Lbig + L + 1] = coeffs
    return out


class TestStacks:
    """A leading stack axis gives the per-field results of 2-D calls."""

    @settings(max_examples=30, deadline=None)
    @given(Lmax=st.sampled_from([8, 15, 23]), spin=st.integers(-2, 2),
           depth=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
    def test_stacked_transforms_match_slices(self, Lmax, spin, depth, seed):
        grid = build_grid(Lmax)
        rng = np.random.default_rng(seed)
        c = np.stack([_band_limited(rng, Lmax, spin) for _ in range(depth)])
        x = raw_synthesize(grid, c, spin)
        ref = np.stack([raw_synthesize(grid, ci, spin) for ci in c])
        assert x.shape == (depth,) + grid.shape
        assert np.max(np.abs(x - ref)) <= 1e-13 * np.max(np.abs(ref))
        samples = rng.normal(size=(depth,) + grid.shape) \
            + 1j * rng.normal(size=(depth,) + grid.shape)
        a = raw_analyze(grid, samples, spin)
        ref = np.stack([raw_analyze(grid, si, spin) for si in samples])
        assert a.shape == (depth,) + c.shape[1:]
        assert np.max(np.abs(a - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_two_stack_axes(self, grid8):
        rng = np.random.default_rng(5)
        c = np.stack([[_band_limited(rng, 8, 1) for _ in range(3)]
                      for _ in range(2)])
        x = raw_synthesize(grid8, c, 1)
        assert x.shape == (2, 3) + grid8.shape
        for i in range(2):
            for j in range(3):
                ref = raw_synthesize(grid8, c[i, j], 1)
                assert np.max(np.abs(x[i, j] - ref)) \
                    <= 1e-13 * np.max(np.abs(ref))
        back = raw_analyze(grid8, x, 1)
        assert np.max(np.abs(back - c)) <= 1e-12 * np.max(np.abs(c))

    def test_multiply_and_integrate_broadcast(self, grid8):
        fs = [random_spin_field(grid8, 1, seed=k) for k in range(4)]
        gs = [random_spin_field(grid8, -1, seed=10 + k) for k in range(4)]
        f = SpinField.from_coeffs(grid8, 1, np.stack([x.coeffs for x in fs]))
        g = SpinField.from_coeffs(grid8, -1, np.stack([x.coeffs for x in gs]))
        p = multiply(f, g)
        for k in range(4):
            ref = multiply(fs[k], gs[k])
            assert np.max(np.abs(p.coeffs[k] - ref.coeffs)) \
                <= 1e-13 * np.max(np.abs(ref.coeffs))
        # a single field broadcasts against the stack
        q = multiply(fs[0], g)
        assert np.max(np.abs(q.coeffs[2] - multiply(fs[0], gs[2]).coeffs)) \
            <= 1e-13 * np.max(np.abs(q.coeffs[2]))
        vals = grid8.integrate(p.samples)
        assert vals.shape == (4,)
        for k in range(4):
            assert abs(vals[k] - grid8.integrate(p.samples[k])) <= 1e-13 * (
                abs(vals[k]) + 1.0)

    def test_multiply_synthesises_band_coefficients(self, grid8,
                                                     monkeypatch):
        """multiply hands raw_synthesize the band-Lmax coefficients of its
        factors, (..., Lmax+1, 2Lmax+1), and analyses back to that band."""
        from nullfoliate import sphere

        seen, bands = [], []
        synth, analyze_ = sphere.raw_synthesize, sphere.raw_analyze

        def spy_synth(grid, coeffs, spin):
            seen.append((grid.Lmax, np.shape(coeffs)))
            return synth(grid, coeffs, spin)

        def spy_analyze(grid, samples, spin, L=None):
            bands.append((grid.Lmax, L))
            return analyze_(grid, samples, spin, L)

        monkeypatch.setattr(sphere, "raw_synthesize", spy_synth)
        monkeypatch.setattr(sphere, "raw_analyze", spy_analyze)
        f = random_spin_field(grid8, 0, seed=1)
        stack = SpinField.from_coeffs(
            grid8, 0, np.stack([f.coeffs, 2.0 * f.coeffs]))
        assert multiply(f, f).coeffs.shape == (9, 17)
        assert multiply(stack, f).coeffs.shape == (2, 9, 17)
        Lp = pad_Lmax(8)
        assert seen == [(Lp, (9, 17))] * 2 + [(Lp, (2, 9, 17)), (Lp, (9, 17))]
        assert bands == [(Lp, 8)] * 2

    @settings(max_examples=30, deadline=None)
    @given(Lmax=st.sampled_from([8, 15, 23]), spin_f=st.integers(-2, 2),
           spin_g=st.integers(-2, 2),
           stacks=st.sampled_from([((), ()), ((), (3,)), ((2,), (2,)),
                                   ((2, 3), (2, 3)), ((1, 3), (2, 1))]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_band_product_matches_zero_padded_product(self, Lmax, spin_f,
                                                      spin_g, stacks, seed):
        """The band product equals the zero-padded one: both factors padded
        to pad_Lmax, transformed at the full padded band, the product
        truncated back to Lmax."""
        grid = build_grid(Lmax)
        Lp = pad_Lmax(Lmax)
        pgrid = build_grid(Lp)
        rng = np.random.default_rng(seed)
        factors = []
        for spin, stack in zip((spin_f, spin_g), stacks):
            c = np.zeros(stack + grid.shape, dtype=complex)
            for idx in np.ndindex(*stack):
                c[idx] = _band_limited(rng, Lmax, spin)
            factors.append(SpinField.from_coeffs(grid, spin, c))
        p = multiply(*factors)
        padded = [_embed(h.coeffs, Lmax, Lp) for h in factors]
        prod = raw_synthesize(pgrid, padded[0], spin_f) \
            * raw_synthesize(pgrid, padded[1], spin_g)
        big = raw_analyze(pgrid, prod, spin_f + spin_g)
        ref = big[..., :Lmax + 1, Lp - Lmax:Lp + Lmax + 1]
        assert p.spin == spin_f + spin_g and p.coeffs.shape == ref.shape
        assert np.max(np.abs(p.coeffs - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestZeros:
    """All-zero input skips the transform stages and the padded product, and
    gives what the computed path would: exact zeros in the same layout."""

    CASES = [(8, 8, ()), (8, 8, (3,)), (8, 8, (2, 3)), (12, 8, ()),
             (12, 8, (3,)), (pad_Lmax(8), 8, ()), (pad_Lmax(8), 8, (2, 3))]

    @pytest.mark.parametrize("Lmax,L,stack", CASES)
    def test_zero_transforms_match_computed_layout(self, Lmax, L, stack):
        grid = build_grid(Lmax)
        rng = np.random.default_rng(L + len(stack))
        c = np.stack([_band_limited(rng, L, 1) for _ in range(
            math.prod(stack))]).reshape(stack + (L + 1, 2 * L + 1))
        samples = rng.normal(size=stack + grid.shape) + 0j
        for ref, zero in [
                (raw_synthesize(grid, c, 1),
                 raw_synthesize(grid, np.zeros_like(c), 1)),
                (raw_analyze(grid, samples, 1, L),
                 raw_analyze(grid, np.zeros(stack + grid.shape), 1, L))]:
            assert not zero.any()
            assert zero.shape == ref.shape and zero.dtype == ref.dtype
            assert zero.strides == ref.strides

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_nonfinite_input_takes_the_full_transform(self, grid8):
        c = np.zeros(grid8.shape, dtype=complex)
        c[3, 8] = np.nan
        assert np.isnan(raw_synthesize(grid8, c, 0)).all()
        s = np.zeros((2,) + grid8.shape, dtype=complex)
        s[1, 4, 5] = np.inf
        a = raw_analyze(grid8, s, 0)
        assert not a[0].any() and not np.isfinite(a[1]).all()

    def test_multiply_by_zero_broadcasts_without_transforms(self, grid8,
                                                            monkeypatch):
        """A 2-D zero trace times a stacked field is a coefficient-backed
        zero of the stack's shape; neither factor is transformed."""
        from nullfoliate import sphere

        calls = []
        monkeypatch.setattr(sphere, "raw_synthesize",
                            lambda *a: calls.append("synthesize"))
        monkeypatch.setattr(sphere, "raw_analyze",
                            lambda *a: calls.append("analyze"))
        zero = SpinField.zero(grid8, 0)
        h = SpinField.from_samples(grid8, 2, np.ones((3,) + grid8.shape))
        for p in (multiply(zero, h), multiply(h, zero)):
            assert p.spin == 2 and p._samples is None
            assert p.coeffs.shape == (3,) + grid8.shape
            assert not p.coeffs.any() and p.coeffs.flags.f_contiguous
        assert calls == []

    def test_multiply_folds_three_factors(self, grid8):
        f = random_spin_field(grid8, 1, seed=1)
        g = random_spin_field(grid8, -1, seed=2)
        h = SpinField.from_coeffs(grid8, 0, np.stack(
            [random_spin_field(grid8, 0, seed=3 + k).coeffs for k in range(2)]))
        assert np.array_equal(multiply(f, g, h).coeffs,
                              multiply(multiply(f, g), h).coeffs)
        zero = SpinField.zero(grid8, 0)
        for factors in [(zero, f, h), (f, zero, h), (h, f, zero)]:
            p = multiply(*factors)
            assert p.spin == sum(x.spin for x in factors)
            assert p.coeffs.shape == (2,) + grid8.shape
            assert not p.coeffs.any()
        # a non-zero product still folds in the last factor
        p = multiply(zero, f, SpinField.from_coeffs(grid8, 0, np.full(
            grid8.shape, np.nan)))
        assert np.isnan(p.coeffs).all()

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_zero_times_nonfinite_is_nonfinite(self, grid8, bad):
        zero = SpinField.zero(grid8, 0)
        c = random_spin_field(grid8, 1, seed=4).coeffs.copy()
        c[2, 8] = bad
        for held in ("coeffs", "samples"):
            f = SpinField.from_coeffs(grid8, 1, c)
            if held == "samples":
                f = SpinField.from_samples(grid8, 1, f.samples)
            for p in (multiply(zero, f), multiply(f, zero)):
                assert not np.isfinite(p.coeffs).all()


class TestGeneratorPack:
    """Shared-weight reads equal per-table interp_generator reads."""

    def _tables(self, grid, s_nodes, seed):
        rng = np.random.default_rng(seed)
        shape = (len(s_nodes),) + grid.shape
        real = np.cos(s_nodes)[:, None, None] * rng.normal(size=shape)
        cplx = (s_nodes ** 2)[:, None, None] * (
            rng.normal(size=shape) + 1j * rng.normal(size=shape))
        return [real, cplx, 2.0 * real]

    def test_matches_interp_generator_with_node_hits(self, grid8):
        from nullfoliate._cheb import cgl_nodes

        s_nodes = cgl_nodes(24, 1.0, 2.5)
        tables = self._tables(grid8, s_nodes, seed=3)
        pack = GeneratorPack(s_nodes, tables)
        rng = np.random.default_rng(4)
        heights = rng.uniform(1.0, 2.5, size=(5,) + grid8.shape)
        heights[1] = s_nodes[7]                # a whole leaf on a node
        heights[3, 2, 5] = s_nodes[0]          # single points on nodes,
        heights[4, 0, 0] = s_nodes[-1]         # the slab ends included
        heights[2, 4, :3] = s_nodes[11]
        out = pack(heights)
        assert [o.dtype.kind for o in out] == ["f", "c", "f"]
        for table, got in zip(tables, out):
            assert got.shape == heights.shape
            for k in range(len(heights)):
                ref = interp_generator(table, s_nodes, heights[k])
                assert np.max(np.abs(got[k] - ref)) \
                    <= 1e-13 * np.max(np.abs(table))
        # an exact node hit reads the tabulated value itself
        assert np.array_equal(out[1][1], tables[1][7])
        assert out[0][3, 2, 5] == tables[0][0, 2, 5]
        assert out[0][4, 0, 0] == tables[0][-1, 0, 0]
        assert np.array_equal(out[2][2, 4, :3], tables[2][11, 4, :3])

    def test_single_leaf_and_domain(self, grid8):
        from nullfoliate._cheb import cgl_nodes

        s_nodes = cgl_nodes(16, 1.0, 2.5)
        tables = self._tables(grid8, s_nodes, seed=8)
        pack = GeneratorPack(s_nodes, tables)
        leaf = np.random.default_rng(9).uniform(1.0, 2.5, size=grid8.shape)
        for table, got in zip(tables, pack(leaf)):
            ref = interp_generator(table, s_nodes, leaf)
            assert got.shape == grid8.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(table))
        with pytest.raises(OutOfDomainError):
            pack(np.full((2,) + grid8.shape, 2.6))


class TestGeneratorInterpolation:
    def _table(self, grid, fn, s_nodes):
        return np.stack([np.full(grid.shape, fn(s)) for s in s_nodes])

    def test_polynomial_reproduced_exactly(self, grid8):
        from nullfoliate._cheb import cgl_nodes
        s_nodes = cgl_nodes(32, 1.0, 2.5)
        table = self._table(grid8, lambda s: s ** 2, s_nodes)
        out = interp_generator(table, s_nodes, np.full(grid8.shape, 1.5))
        assert np.max(np.abs(out - 2.25)) < 1e-13

    def test_rational_generator(self, grid8):
        from nullfoliate._cheb import cgl_nodes
        s_nodes = cgl_nodes(32, 1.0, 2.5)
        table = self._table(grid8, lambda s: 2.0 / s, s_nodes)
        out = interp_generator(table, s_nodes, np.full(grid8.shape, 1.7))
        assert np.max(np.abs(out - 2.0 / 1.7)) < 1e-12

    def test_out_of_domain_raises(self, grid8):
        from nullfoliate._cheb import cgl_nodes
        s_nodes = cgl_nodes(16, 1.0, 2.5)
        table = self._table(grid8, lambda s: s, s_nodes)
        with pytest.raises(OutOfDomainError):
            interp_generator(table, s_nodes, np.full(grid8.shape, 2.6))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_s=st.integers(4, 24),
           extra=st.sampled_from([None, 1, 3]), cplx=st.booleans(),
           hits=st.integers(0, 20))
    def test_stacked_heights_match_leaf_reads_bitwise(self, grid8, seed, n_s,
                                                      extra, cplx, hits):
        """A stack of leaves reads one table exactly as per-leaf calls do,
        node hits included.  A stack as long as the table (extra None)
        would also pass a broadcast along the wrong axis, were the shapes
        the only check."""
        from nullfoliate._cheb import cgl_nodes
        rng = np.random.default_rng(seed)
        s_nodes = cgl_nodes(n_s, 1.0, 2.5)
        shape = (n_s,) + grid8.shape
        table = rng.normal(size=shape)
        if cplx:
            table = table + 1j * rng.normal(size=shape)
        k = n_s if extra is None else extra
        heights = rng.uniform(1.0, 2.5, size=(k,) + grid8.shape)
        for _ in range(hits):
            j, t, p = (rng.integers(n) for n in heights.shape)
            heights[j, t, p] = s_nodes[rng.integers(n_s)]
        heights[0] = s_nodes[rng.integers(n_s)]  # a whole leaf on a node
        out = interp_generator(table, s_nodes, heights)
        assert out.shape == heights.shape
        for j in range(k):
            assert np.array_equal(out[j],
                                  interp_generator(table, s_nodes, heights[j]))

    def test_geometric_decay_in_node_count(self, grid8):
        """Error on an analytic generator decays geometrically when the
        node count doubles (slope well below -0.5 per doubling)."""
        from nullfoliate._cheb import cgl_nodes
        errs = []
        for n in [6, 12, 24]:
            s_nodes = cgl_nodes(n, 1.0, 2.5)
            table = self._table(grid8, lambda s: 2.0 / s, s_nodes)
            out = interp_generator(table, s_nodes, np.full(grid8.shape, 1.618))
            errs.append(max(np.max(np.abs(out - 2.0 / 1.618)), 1e-16))
        slopes = [np.log2(errs[i + 1] / errs[i]) for i in range(2)]
        assert all(s < -0.5 for s in slopes)


class TestReality:
    def test_real_scalar_has_conjugate_symmetric_coefficients(self, grid8):
        """Analysing real samples yields a_(l,-m) = (-1)^m conj(a_(l,m))."""
        rng = np.random.default_rng(5)
        samples = rng.normal(size=grid8.shape).astype(complex)
        a = analyze(samples, 0, grid8)
        L = grid8.Lmax
        for l in range(L + 1):
            for m in range(1, l + 1):
                assert abs(a[l, L - m]
                           - (-1.0) ** m * np.conj(a[l, L + m])) < 1e-12
