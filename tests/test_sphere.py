"""Grid, transform and eth-operator tests for the spectral layer."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullfoliate import _cheb
from nullfoliate._cheb import cgl_nodes
from nullfoliate._wigner import spin_lambda_tables
from nullfoliate.errors import (ConfigurationError, OutOfDomainError,
                                UnsupportedSpinError)
from nullfoliate.sphere import (GeneratorPack, SpinField, build_grid, eth,
                                ethbar, gauss_legendre, interp_generator,
                                laplacian_round, multiply, pad_Lmax,
                                raw_analyze, raw_synthesize)

from conftest import harmonic, random_spin_field, sphere_tables


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

    @pytest.mark.parametrize("n", [9, 16, 24, 36, 48, 64])
    def test_rule_matches_a_40_digit_reference(self, n):
        """Nodes and weights of gauss_legendre against the roots of P_n
        found by mpmath at 40 digits and 2 / ((1 - x^2) P_n'(x)^2).
        Measured when the rule was written: nodes within 7.6e-17 and
        weights within 5.1e-14 relative (n = 64).  The eigenvalue rule of
        np.polynomial.legendre.leggauss has weights off by up to 1.3e-12
        at these n."""
        mpmath = pytest.importorskip("mpmath")
        x, w = gauss_legendre(n)
        with mpmath.workdps(40):
            for xk, wk in zip(x[:(n + 1) // 2], w):
                root = mpmath.findroot(lambda t: mpmath.legendre(n, t),
                                       mpmath.mpf(float(xk)))
                exact = 2 / ((1 - root ** 2) * mpmath.diff(
                    lambda t: mpmath.legendre(n, t), root) ** 2)
                assert abs(xk - root) <= 1.5e-16
                assert abs((wk - exact) / exact) <= 1e-13

    @pytest.mark.parametrize("n", [5, 8, 24, 25])
    def test_rule_is_symmetric(self, n):
        """The nodes descend, the rule mirrors bit for bit, and an odd
        rule's middle node is 0."""
        x, w = gauss_legendre(n)
        assert np.all(np.diff(x) < 0.0) and len(x) == len(w) == n
        assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
        assert n % 2 == 0 or x[n // 2] == 0.0

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
        a = raw_analyze(grid8, samples, 0)
        assert abs(a[0, grid8.Lmax] - 1.0) < 1e-13
        a[0, grid8.Lmax] = 0.0
        assert np.max(np.abs(a)) < 1e-13

    @pytest.mark.parametrize("spin", [-2, -1, 0, 1, 2])
    def test_roundtrip_band_limited(self, grid12, spin):
        f = random_spin_field(grid12, spin, seed=42 + spin)
        back = raw_analyze(grid12, f.samples, spin)
        assert np.max(np.abs(back - f.coeffs)) < 1e-12

    def test_spin1_eth_y20_convention(self, grid8):
        """Samples of eth Y20 / sqrt(6) carry a unit (2,0) spin-1 coefficient."""
        th = grid8.theta_nodes
        # eth Y20 = -d/dtheta Y20 for the m = 0 harmonic
        dY20 = np.sqrt(5.0 / (16.0 * np.pi)) * 6.0 * np.cos(th) * np.sin(th)
        samples = np.repeat(dY20[:, None], grid8.nphi, axis=1) / np.sqrt(6.0)
        a = raw_analyze(grid8, samples.astype(complex), 1)
        assert abs(a[2, grid8.Lmax] - 1.0) < 1e-12
        a[2, grid8.Lmax] = 0.0
        assert np.max(np.abs(a)) < 1e-12

    def test_wigner_tables_match_sympy(self, grid8):
        """Spot-check the theta tables against exact Wigner-d values."""
        sympy = pytest.importorskip("sympy")
        from sympy.physics.quantum.spin import Rotation

        lam = sphere_tables(grid8.Lmax, -1)
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
        lam_p = sphere_tables(grid8.Lmax, 2)
        lam_m = sphere_tables(grid8.Lmax, -2)
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
    lam = sphere_tables(L, spin)
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
    return np.einsum("lmt,tm->lm", sphere_tables(L, spin), wF)


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

    @pytest.mark.parametrize("spin", [-2, 1, 3])
    def test_band_below_the_spin_is_zero(self, grid8, spin):
        """No spin-s harmonic has l < |s|, so a band L < |s| has an all-zero
        table: its synthesis and analysis give zeros, not an error."""
        L = abs(spin) - 1
        lam = spin_lambda_tables(L, spin, grid8.theta_nodes)
        assert lam.shape == (2 * L + 1, grid8.Lmax + 1, L + 1)
        assert not lam.any()
        c = np.ones((L + 1, 2 * L + 1), dtype=complex)
        assert not raw_synthesize(grid8, c, spin).any()
        samples = random_spin_field(grid8, spin, seed=1).samples
        assert not raw_analyze(grid8, samples, spin, L).any()

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

    def test_one_table_per_band_and_one_dft_pair_per_band(self, grid8,
                                                          monkeypatch):
        """Tables are stored once per (grid Lmax, band, spin), C-ordered in
        the two orientations (m, theta, l) and (m, l, theta); a product on
        grid8 stores band-8 tables of the padded grid, never a full padded
        one.  A real plan reads the m >= 0 rows of the spin-0 table without
        a copy.  DFT pairs are stored once per (grid Lmax, band, real) and
        take (re, im) pairs of samples to those of samples @ Einv, and of
        Fourier coefficients F to those of F @ E."""
        from nullfoliate import sphere

        monkeypatch.setattr(sphere, "_LEGENDRE", {})
        monkeypatch.setattr(sphere, "_FOURIER", {})
        Lp, L = pad_Lmax(8), 8
        f = random_spin_field(grid8, 1, seed=1)
        g = random_spin_field(grid8, -2, seed=2)
        multiply(f, g)
        multiply(f, g)
        assert set(sphere._LEGENDRE) == {(Lp, L, 1), (Lp, L, -2), (Lp, L, -1)}
        assert set(sphere._FOURIER) == {(Lp, L, False)}
        grid = build_grid(Lp)
        real, cplx = sphere._plan(grid, L, 0, True), sphere._plan(grid, L, 0,
                                                                 False)
        assert len(sphere._LEGENDRE) == 4
        assert set(sphere._FOURIER) == {(Lp, L, False), (Lp, L, True)}
        for spin in range(-3, 4):
            raw_synthesize(grid8, _band_limited(
                np.random.default_rng(spin + 3), L, spin), spin)
            assert np.shares_memory(sphere_tables(L, spin),
                                    sphere._LEGENDRE[(L, L, spin)][0])
        for (Lg, band, spin), (lam_a, lam_s) in sphere._LEGENDRE.items():
            assert lam_a.shape == (2 * band + 1, Lg + 1, band + 1)
            assert lam_a.flags.c_contiguous and lam_a.base is None
            assert lam_s.flags.c_contiguous and lam_s.base is None
            assert np.array_equal(lam_s, lam_a.transpose(0, 2, 1))
        for r, c in zip(real[:2], cplx[:2]):
            assert np.shares_memory(r, c) and np.array_equal(r, c[L:])
        E = np.exp(1j * np.outer(np.arange(-L, L + 1), grid.phi_nodes))
        Einv = E.conj().T * (2.0 * np.pi / grid.nphi)
        rng = np.random.default_rng(3)
        x = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
        R, Q = cplx[2:]
        assert R.shape == Q.T.shape == (2 * grid.nphi, 2 * (2 * L + 1))
        F = (x.view(np.float64) @ R).view(np.complex128)
        assert np.max(np.abs(F - x @ Einv)) <= 1e-14 * np.max(np.abs(F))
        y = (F.view(np.float64) @ Q).view(np.complex128)
        assert np.max(np.abs(y - F @ E)) <= 1e-14 * np.max(np.abs(y))
        # a real field: real samples in, real samples out, m >= 0 only
        R, Q = real[2:]
        assert R.shape == Q.T.shape == (grid.nphi, 2 * (L + 1))
        F = (x.real @ R).view(np.complex128)
        ref = x.real @ Einv
        assert np.max(np.abs(F - ref[:, L:])) <= 1e-14 * np.max(np.abs(F))
        y = F.view(np.float64) @ Q
        assert np.max(np.abs(y - (ref @ E).real)) <= 1e-14 * np.max(np.abs(y))

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

    def test_ladder_passes_spin_two(self, grid12):
        """eth and ethbar take spin +-2 fields to spin +-3, as the second
        derivatives of 2-tensors need: [ethbar, eth] = 2s at s = +-2."""
        for spin in (2, -2):
            eta = random_spin_field(grid12, spin, seed=8)
            comm = ethbar(eth(eta)).coeffs - eth(ethbar(eta)).coeffs
            assert np.max(np.abs(comm - 2.0 * spin * eta.coeffs)) < 1e-11

    def test_laplacian_round_eigenvalues(self, grid8):
        f = harmonic(grid8, 2, 0)
        assert abs(laplacian_round(f).coeff(2, 0) + 6.0) < 1e-13
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
        exact = raw_analyze(big, fb.samples * gb.samples, 0)
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

    @pytest.mark.parametrize("Lmax", [8, 12, 15, 23])
    @pytest.mark.parametrize("kind", ["real spin 0", "spin 0", "spin 1"])
    def test_leaves_keep_their_bits_in_a_stack(self, Lmax, kind):
        """Synthesis and analysis give each leaf of a stack the bits it has
        alone, on the grid and on the padded grid."""
        spin = 1 if kind == "spin 1" else 0
        rng = np.random.default_rng(Lmax)
        for grid in (build_grid(Lmax), build_grid(pad_Lmax(Lmax))):
            for depth in (2, 5, 9):
                samples = rng.normal(size=(depth,) + grid.shape)
                if kind != "real spin 0":
                    samples = samples + 1j * rng.normal(size=samples.shape)
                a = raw_analyze(grid, samples, spin, Lmax)
                x = raw_synthesize(grid, a, spin)
                for j in range(depth):
                    assert np.array_equal(
                        raw_analyze(grid, samples[j], spin, Lmax), a[j])
                    assert np.array_equal(raw_synthesize(grid, a[j], spin),
                                          x[j])

    @settings(max_examples=40, deadline=None)
    @given(Lmax=st.sampled_from([8, 15, 23]), padded=st.booleans(),
           kind=st.sampled_from(["real 0", 0, 1, -1, 2]),
           depth=st.sampled_from([2, 3, 4, 5, 6, 7, 8, 9, 33]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_stack_keeps_each_leafs_bits(self, Lmax, padded, kind, depth,
                                            seed):
        """Every leaf of a stack synthesises and analyses to the bits it has
        alone, at any depth, on the grid and the padded grid, for real and
        complex spin 0 and for spins +-1 and 2."""
        grid = build_grid(pad_Lmax(Lmax) if padded else Lmax)
        spin = 0 if kind == "real 0" else kind
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=(depth,) + grid.shape)
        if kind == "real 0":
            c = raw_analyze(grid, samples, 0, Lmax)
        else:
            c = np.stack([_band_limited(rng, Lmax, spin)
                          for _ in range(depth)])
            samples = samples + 1j * rng.normal(size=samples.shape)
        x = raw_synthesize(grid, c, spin)
        a = raw_analyze(grid, samples, spin, Lmax)
        assert x.dtype == (np.float64 if kind == "real 0" else np.complex128)
        for j in range(depth):
            assert np.array_equal(raw_synthesize(grid, c[j], spin), x[j])
            assert np.array_equal(raw_analyze(grid, samples[j], spin, Lmax),
                                  a[j])

    @pytest.mark.parametrize("spin", [0, 1])
    def test_any_sample_layout_analyses_to_the_c_ordered_bits(self, spin):
        """Complex samples in Fortran order, with a reversed phi axis or in
        the row order of a synthesis analyse to the bits of their C-ordered
        copy, alone and in a stack."""
        grid = build_grid(15)
        rng = np.random.default_rng(spin)
        shape = (3,) + grid.shape
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        flipped = np.ascontiguousarray(x[..., ::-1])[..., ::-1]
        synthesised = raw_synthesize(grid, raw_analyze(grid, x, spin), spin)
        for samples in (np.asfortranarray(x), flipped, synthesised,
                        np.asfortranarray(x[0]), flipped[1]):
            assert not samples.flags.c_contiguous
            assert np.array_equal(
                raw_analyze(grid, samples, spin),
                raw_analyze(grid, np.ascontiguousarray(samples), spin))

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


class TestConj:
    """conj, real and imag work in the representation a field holds."""

    @settings(max_examples=40, deadline=None)
    @given(Lmax=st.sampled_from([8, 15, 23]), spin=st.integers(-2, 2),
           below=st.integers(0, 8),
           stack=st.sampled_from([(), (3,), (2, 2)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_coefficient_conj_makes_no_transform(self, Lmax, spin, below,
                                                 stack, seed):
        """conj() of a coefficient-backed field of band L <= Lmax is a
        coefficient-backed field equal to np.conj of the samples, made
        without a transform; a sample-backed field conjugates its samples."""
        from nullfoliate import sphere

        grid, L = build_grid(Lmax), Lmax - below
        rng = np.random.default_rng(seed)
        c = np.zeros(stack + (L + 1, 2 * L + 1), dtype=complex)
        for idx in np.ndindex(*stack):
            c[idx] = _band_limited(rng, L, spin)
        samples = SpinField(grid, spin, coeffs=c).samples
        f = SpinField(grid, spin, coeffs=c)
        h = SpinField.from_samples(grid, spin, samples)
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sphere, "raw_synthesize", lambda *a: calls.append(a))
            mp.setattr(sphere, "raw_analyze", lambda *a: calls.append(a))
            fc, hc = f.conj(), h.conj()
        assert calls == []
        assert fc.spin == hc.spin == -spin
        assert fc._samples is None and fc.coeffs.shape == c.shape
        ref = np.conj(samples)
        assert np.max(np.abs(fc.samples - ref)) \
            <= 1e-12 * np.max(np.abs(ref))
        assert hc._coeffs is None and np.array_equal(hc.samples, ref)

    @pytest.mark.parametrize("backing", ["coeffs", "samples"])
    def test_real_and_imag_of_spin0(self, grid8, backing, monkeypatch):
        from nullfoliate import sphere

        f = random_spin_field(grid8, 0, seed=3)
        ref = f.samples
        if backing == "samples":
            f = SpinField.from_samples(grid8, 0, ref)
        monkeypatch.setattr(sphere, "raw_synthesize", None)
        monkeypatch.setattr(sphere, "raw_analyze", None)
        re, im = f.real(), f.imag()
        monkeypatch.undo()
        for part, want in ((re, ref.real), (im, ref.imag)):
            assert np.max(np.abs(part.samples - want)) \
                <= 1e-13 * np.max(np.abs(ref))
        with pytest.raises(UnsupportedSpinError):
            random_spin_field(grid8, 1, seed=4).real()


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
        zero = SpinField.from_coeffs(grid8, 0, np.zeros(grid8.shape))
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
        zero = SpinField.from_coeffs(grid8, 0, np.zeros(grid8.shape))
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
        zero = SpinField.from_coeffs(grid8, 0, np.zeros(grid8.shape))
        c = random_spin_field(grid8, 1, seed=4).coeffs.copy()
        c[2, 8] = bad
        for held in ("coeffs", "samples"):
            f = SpinField.from_coeffs(grid8, 1, c)
            if held == "samples":
                f = SpinField.from_samples(grid8, 1, f.samples)
            for p in (multiply(zero, f), multiply(f, zero)):
                assert not np.isfinite(p.coeffs).all()


def cgl_weights(n):
    """Barycentric weights of n CGL nodes (Berrut & Trefethen 2004):
    1/2, -1, 1, ..., +-1/2."""
    w = (-1.0) ** np.arange(n)
    w[[0, -1]] *= 0.5
    return w


def reference_interp(s_nodes, table, heights):
    """The barycentric formula (Berrut & Trefethen 2004) read one table at a
    time: table (n_s, ntheta, nphi) at heights (..., ntheta, nphi), an exact
    node hit returned as the tabulated value."""
    n = len(s_nodes)
    lead = (1,) * heights.ndim
    t = table.reshape((n,) + (1,) * (heights.ndim - 2) + table.shape[1:])
    diff = heights[None] - s_nodes.reshape((n,) + lead)
    exact = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = cgl_weights(n).reshape((n,) + lead) / diff
        out = np.sum(c * t, axis=0) / np.sum(c, axis=0)
    picked = np.take_along_axis(np.broadcast_to(t, diff.shape),
                                np.argmax(exact, axis=0)[None], axis=0)[0]
    return np.where(exact.any(axis=0), picked, out)


def read_one(table, s_nodes, heights):
    """One table read through the package's generator read."""
    return interp_generator(GeneratorPack(s_nodes, [table]), heights)[0]


class TestLeafConstants:
    @settings(max_examples=40, deadline=None)
    @given(Lmax=st.sampled_from([8, 23, 63]), real=st.booleans(),
           stack=st.sampled_from([(), (1,), (3,), (2, 3)]),
           mixed=st.booleans(), data=st.data())
    def test_constant_leaves_analyse_exactly(self, Lmax, real, stack, mixed,
                                             data):
        """A spin-0 field constant on each leaf, of any value, analyses on
        the real and the complex path to exact zeros at every (l, m) but
        (0, 0), and to a_00 = c sqrt(4 pi) within 1 ulp; also beside a leaf
        that is not constant (mixed), in one stack."""
        value = st.floats(-1e300, 1e300)
        n = math.prod(stack)
        c = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        if not real:
            c = c + 1j * np.array(data.draw(
                st.lists(value, min_size=n, max_size=n)))
        grid = build_grid(Lmax)
        leaves = np.broadcast_to(c[:, None, None], (n,) + grid.shape)
        if mixed:  # one leaf that is not constant joins the stack
            noise = np.random.default_rng(n).normal(size=(1,) + grid.shape)
            a = raw_analyze(grid, np.concatenate(
                [leaves, noise.astype(c.dtype)]), 0)[:n]
        else:
            a = raw_analyze(grid, leaves.reshape(stack + grid.shape),
                            0).reshape((n, Lmax + 1, 2 * Lmax + 1))
        a00 = a[:, 0, Lmax].copy()
        a[:, 0, Lmax] = 0.0
        assert not a.any()
        want = np.sqrt(4.0 * np.pi) * c
        for got, ref in [(a00.real, want.real), (a00.imag, np.imag(want))]:
            assert np.all(np.abs(got - ref) <= np.spacing(np.abs(ref)))


class TestGeneratorPack:
    """Reads of packed tables equal the per-table reference formula."""

    def _tables(self, grid, s_nodes, seed):
        rng = np.random.default_rng(seed)
        shape = (len(s_nodes),) + grid.shape
        real = np.cos(s_nodes)[:, None, None] * rng.normal(size=shape)
        cplx = (s_nodes ** 2)[:, None, None] * (
            rng.normal(size=shape) + 1j * rng.normal(size=shape))
        return [real, cplx, 2.0 * real]

    def test_matches_interp_generator_with_node_hits(self, grid8):
        s_nodes = cgl_nodes(24, 1.0, 2.5)
        tables = self._tables(grid8, s_nodes, seed=3)
        pack = GeneratorPack(s_nodes, tables)
        rng = np.random.default_rng(4)
        heights = rng.uniform(1.0, 2.5, size=(5,) + grid8.shape)
        heights[1] = s_nodes[7]                # a whole leaf on a node
        heights[3, 2, 5] = s_nodes[0]          # single points on nodes,
        heights[4, 0, 0] = s_nodes[-1]         # the slab ends included
        heights[2, 4, :3] = s_nodes[11]
        out = interp_generator(pack, heights)
        assert [o.dtype.kind for o in out] == ["f", "c", "f"]
        for table, got in zip(tables, out):
            assert got.shape == heights.shape
            for k in range(len(heights)):
                ref = reference_interp(s_nodes, table, heights[k])
                assert np.max(np.abs(got[k] - ref)) \
                    <= 1e-13 * np.max(np.abs(table))
        # an exact node hit reads the tabulated value itself
        assert np.array_equal(out[1][1], tables[1][7])
        assert out[0][3, 2, 5] == tables[0][0, 2, 5]
        assert out[0][4, 0, 0] == tables[0][-1, 0, 0]
        assert np.array_equal(out[2][2, 4, :3], tables[2][11, 4, :3])

    def test_single_leaf_and_domain(self, grid8):
        s_nodes = cgl_nodes(16, 1.0, 2.5)
        tables = self._tables(grid8, s_nodes, seed=8)
        pack = GeneratorPack(s_nodes, tables)
        leaf = np.random.default_rng(9).uniform(1.0, 2.5, size=grid8.shape)
        for table, got in zip(tables, interp_generator(pack, leaf)):
            ref = reference_interp(s_nodes, table, leaf)
            assert got.shape == grid8.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(table))
        with pytest.raises(OutOfDomainError):
            interp_generator(pack, np.full((2,) + grid8.shape, 2.6))

    @pytest.mark.parametrize("depth", [2, 5, 8])
    def test_lone_leaf_reads_as_in_a_stack_bitwise(self, grid8, depth):
        """A leaf read alone gives the bits it reads in a stack, for every
        table, so a level's value does not depend on how levels batch."""
        s_nodes = cgl_nodes(32, 1.0, 2.5)
        pack = GeneratorPack(s_nodes, self._tables(grid8, s_nodes, 12) * 2)
        heights = np.random.default_rng(13).uniform(
            1.0, 2.5, size=(depth,) + grid8.shape)
        stacked = interp_generator(pack, heights)
        for j in range(depth):
            alone = interp_generator(pack, heights[j])
            assert all(np.array_equal(a, s[j]) for a, s in zip(alone, stacked))


def whole_array_read(pack, heights):
    """The generator read with every weight formed at once: interp_generator
    and barycentric_interp as they were before the points went in blocks,
    so the oracle of the blocked read."""
    x = heights.reshape(-1, pack.packed.shape[0]).T
    lone = x.shape[1] == 1
    x = np.ascontiguousarray(np.repeat(x, 2, axis=1) if lone else x)
    nodes, packed = pack.s_nodes, pack.packed
    diff = x - nodes[:, None, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.divide(cgl_weights(nodes.size)[:, None, None], diff,
                      out=diff)
        vals = np.matmul(c.transpose(1, 2, 0), packed)
    hit = np.isinf(vals[..., -1])
    if hit.any():
        node = np.argmax(x[hit][:, None] == nodes, axis=-1)
        vals[hit] = packed[np.nonzero(hit)[0], node]
    vals /= vals[..., -1:]
    if lone:
        vals = vals[:, :1]
    return [(vals[..., k:k + 2].view(np.complex128)[..., 0] if cplx
             else vals[..., k]).T.reshape(heights.shape)
            for k, cplx in pack.slots]


class TestBlockedReads:
    """At L = 23 and n_s = 40 a stack of 8 or 65 leaves is read in many
    blocks of points, the last one partial; every read keeps the bits of
    the whole-array read."""

    n_s = 40

    @pytest.fixture(scope="class")
    def grid23(self):
        return build_grid(23)

    def _pack(self, grid, n_tables):
        s_nodes = cgl_nodes(self.n_s, 1.0, 2.5)
        rng = np.random.default_rng(n_tables)
        shape = (self.n_s,) + grid.shape
        tables = [rng.normal(size=shape),
                  rng.normal(size=shape) + 1j * rng.normal(size=shape),
                  np.cos(s_nodes)[:, None, None] * rng.normal(size=shape)]
        return GeneratorPack(s_nodes, tables[:n_tables])

    def _heights(self, pack, grid, depth):
        """Random heights with node hits at both ends of the first block,
        at the start of the partial last block and at the last point, and
        for a stack one whole leaf on a node."""
        nodes = pack.s_nodes
        heights = np.random.default_rng(depth).uniform(
            1.0, 2.5, size=(depth,) + grid.shape)
        points = pack.packed.shape[0]
        if depth > 1:
            heights[depth // 2] = nodes[17]
        block = _cheb._BLOCK_BYTES // (8 * self.n_s * max(depth, 2))
        for j, p in enumerate([0, block - 1, block, points - points % block]):
            if p < points:
                heights[j % depth].flat[p] = nodes[3 * j]
        heights[-1].flat[points - 1] = nodes[-1]
        return heights

    @pytest.mark.parametrize("n_tables", [2, 3])
    @pytest.mark.parametrize("depth", [1, 2, 8, 65])
    def test_equals_whole_array_read_bitwise(self, grid23, depth, n_tables):
        pack = self._pack(grid23, n_tables)
        heights = self._heights(pack, grid23, depth)
        points = pack.packed.shape[0]
        if depth >= 8:
            assert _cheb._BLOCK_BYTES // (8 * self.n_s * depth) < points // 2
        got = interp_generator(pack, heights)
        want = whole_array_read(pack, heights)
        assert [g.dtype for g in got] == [w.dtype for w in want]
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        # a node hit in the partial last block reads the tabulated value
        assert got[0][-1, -1, -1] == pack.packed[-1, -1, 0]

    def test_lone_leaf_reads_as_in_the_long_stack(self, grid23):
        pack = self._pack(grid23, 3)
        heights = self._heights(pack, grid23, 65)
        stacked = interp_generator(pack, heights)
        for j in (0, 1, 32, 64):
            alone = interp_generator(pack, heights[j])
            assert all(np.array_equal(a, s[j]) for a, s in zip(alone, stacked))

    @pytest.mark.parametrize("n_tables", [2, 3])
    def test_long_stack_read_peaks_below_10_mb(self, grid23, n_tables):
        """The weights of the whole 65-leaf stack alone are 23.5 MB; in
        blocks the read holds its output and one block of weights."""
        pack = self._pack(grid23, n_tables)
        heights = self._heights(pack, grid23, 65)
        tracemalloc.start()
        try:
            interp_generator(pack, heights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20


class TestGeneratorInterpolation:
    def _table(self, grid, fn, s_nodes):
        return np.stack([np.full(grid.shape, fn(s)) for s in s_nodes])

    def test_polynomial_reproduced_exactly(self, grid8):
        s_nodes = cgl_nodes(32, 1.0, 2.5)
        table = self._table(grid8, lambda s: s ** 2, s_nodes)
        out = read_one(table, s_nodes, np.full(grid8.shape, 1.5))
        assert np.max(np.abs(out - 2.25)) < 1e-13

    def test_rational_generator(self, grid8):
        s_nodes = cgl_nodes(32, 1.0, 2.5)
        table = self._table(grid8, lambda s: 2.0 / s, s_nodes)
        out = read_one(table, s_nodes, np.full(grid8.shape, 1.7))
        assert np.max(np.abs(out - 2.0 / 1.7)) < 1e-12

    def test_out_of_domain_raises(self, grid8):
        s_nodes = cgl_nodes(16, 1.0, 2.5)
        table = self._table(grid8, lambda s: s, s_nodes)
        with pytest.raises(OutOfDomainError):
            read_one(table, s_nodes, np.full(grid8.shape, 2.6))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_s=st.integers(4, 24),
           extra=st.sampled_from([None, 1, 3]), cplx=st.booleans(),
           hits=st.integers(0, 20))
    def test_stacked_heights_match_leaf_reads_bitwise(self, grid8, seed, n_s,
                                                      extra, cplx, hits):
        """Every leaf of a stack reads one table exactly as a single-leaf
        read does, and as the per-leaf reference formula does to 1e-13 of
        the table; node hits read the tabulated value.  A stack as long as
        the table (extra None) would also pass a broadcast along the wrong
        axis, were the shapes the only check."""
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
        out = read_one(table, s_nodes, heights)
        assert out.shape == heights.shape
        # every node hit reads the tabulated value itself
        on_node = heights[..., None] == s_nodes
        j, t, p = np.nonzero(on_node.any(axis=-1))
        assert np.array_equal(out[j, t, p],
                              table[np.argmax(on_node, axis=-1)[j, t, p], t, p])
        for j in range(k):
            assert np.array_equal(out[j], read_one(table, s_nodes, heights[j]))
            ref = reference_interp(s_nodes, table, heights[j])
            assert np.max(np.abs(out[j] - ref)) <= 1e-13 * np.max(np.abs(table))

    def test_geometric_decay_in_node_count(self, grid8):
        """Error on an analytic generator decays geometrically when the
        node count doubles (slope well below -0.5 per doubling)."""
        errs = []
        for n in [6, 12, 24]:
            s_nodes = cgl_nodes(n, 1.0, 2.5)
            table = self._table(grid8, lambda s: 2.0 / s, s_nodes)
            out = read_one(table, s_nodes, np.full(grid8.shape, 1.618))
            errs.append(max(np.max(np.abs(out - 2.0 / 1.618)), 1e-16))
        slopes = [np.log2(errs[i + 1] / errs[i]) for i in range(2)]
        assert all(s < -0.5 for s in slopes)


class TestReality:
    def test_real_scalar_has_conjugate_symmetric_coefficients(self, grid8):
        """Analysing real samples yields a_(l,-m) = (-1)^m conj(a_(l,m))."""
        rng = np.random.default_rng(5)
        samples = rng.normal(size=grid8.shape).astype(complex)
        a = raw_analyze(grid8, samples, 0)
        L = grid8.Lmax
        for l in range(L + 1):
            for m in range(1, l + 1):
                assert abs(a[l, L - m]
                           - (-1.0) ** m * np.conj(a[l, L + m])) < 1e-12

    @staticmethod
    def _off_band(coeffs):
        """coeffs with 1 at (l, m) = (0, 1): the table is zero there, so the
        samples are unchanged, but the symmetry breaks and synthesis takes
        the complex path."""
        out = np.array(coeffs)
        out[..., 0, out.shape[-1] // 2 + 1] = 1.0
        return out

    @settings(max_examples=40, deadline=None)
    @given(Lmax=st.sampled_from([8, 15, 23]), padded=st.booleans(),
           stack=st.sampled_from([(), (1,), (3,), (8,), (2, 3)]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_real_path_matches_complex_path(self, Lmax, padded, stack, seed):
        """float64 samples of spin 0 analyse to exactly symmetric
        coefficients equal to the complex path's to 1e-14 relative; those
        synthesise to float64 samples equal to the complex path's; a lone
        leaf analyses to its row of the stack bit for bit."""
        grid = build_grid(pad_Lmax(Lmax) if padded else Lmax)
        rng = np.random.default_rng(seed)
        samples = rng.normal(size=stack + grid.shape)
        a = raw_analyze(grid, samples, 0, Lmax)
        ref = raw_analyze(grid, samples.astype(complex), 0, Lmax)
        assert a.shape == ref.shape and a.strides == ref.strides
        assert np.max(np.abs(a - ref)) <= 1e-14 * np.max(np.abs(ref))
        assert np.array_equal(a[..., ::-1].conj() * (-1.0) ** np.arange(
            -Lmax, Lmax + 1), a)
        x = raw_synthesize(grid, a, 0)
        ref = raw_synthesize(grid, self._off_band(a), 0)
        assert x.dtype == np.float64 and ref.dtype == np.complex128
        assert tuple(2 * k for k in x.strides) == ref.strides  # row order
        assert np.max(np.abs(x - ref)) <= 1e-14 * np.max(np.abs(ref))
        for idx in np.ndindex(*stack):
            assert np.array_equal(raw_analyze(grid, samples[idx], 0, Lmax),
                                  a[idx])

    def test_only_exactly_real_fields_take_the_real_path(self, grid8,
                                                         monkeypatch):
        """One ulp off the symmetry, complex-typed samples and spin != 0
        take the complex plan and give complex samples."""
        from nullfoliate import sphere

        samples = np.random.default_rng(7).normal(size=(2,) + grid8.shape)
        a = raw_analyze(grid8, samples, 0)
        assert SpinField.from_coeffs(grid8, 0, a).samples.dtype == np.float64
        assert SpinField.constant(grid8, 1.5).samples.dtype == np.float64
        moved = a.copy()
        moved[1, 5, 8 - 3] = complex(np.nextafter(moved[1, 5, 5].real, 1.0),
                                     moved[1, 5, 5].imag)
        plan = sphere._plan

        def complex_plan(grid, L, spin, real):
            if real:
                raise AssertionError("the real plan was taken")
            return plan(grid, L, spin, real)

        monkeypatch.setattr(sphere, "_plan", complex_plan)
        assert raw_synthesize(grid8, moved, 0).dtype == np.complex128
        complex_typed = SpinField.from_samples(grid8, 0, samples + 0j)
        assert complex_typed.samples.dtype == np.complex128
        assert np.array_equal(complex_typed.coeffs,
                              raw_analyze(grid8, samples + 0j, 0))
        assert SpinField.constant(grid8, 1.5 + 0j).samples.dtype \
            == np.complex128
        for spin in (-1, 1, 2):
            f = SpinField.from_samples(grid8, spin, samples)
            assert f.samples.dtype == np.complex128
            assert raw_synthesize(grid8, f.coeffs, spin).dtype \
                == np.complex128
            assert raw_synthesize(grid8, a, spin).dtype == np.complex128
