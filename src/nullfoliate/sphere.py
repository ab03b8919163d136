"""Grids, spin-weighted spherical-harmonic transforms and eth operators.

Fields live on a Gauss-Legendre x equispaced grid with band limit Lmax.
Spin components refer to a fixed reference dyad m = -(e_theta + i e_phi)/sqrt(2)
of the round sphere, for which the spectral ladder

    eth    sY_lm = +sqrt((l-s)(l+s+1)) (s+1)Y_lm,
    ethbar sY_lm = -sqrt((l+s)(l-s+1)) (s-1)Y_lm,

realises the covariant derivative components (grad f)_m = eth f / sqrt(2) on
the unit round sphere.  Pointwise products are formed on a 3/2-padded grid and
truncated back to Lmax, so quadratic nonlinearities never alias.

A transform is two dense stages, each a real matrix product on the
(real, imaginary) pairs of a real view.  The Legendre stage contracts the
real Wigner table lam[m, theta, l] with the coefficients, one matrix per
m, all m in one batched np.matmul.  The Fourier stage multiplies by E[m, k]
= exp(i m phi_k), or by its scaled conjugate for analysis, as a real matrix
on the pairs.  nphi = 2 Lmax + 1 is odd and often prime (31, 47, 71 at
Lmax = 15, 23, 35), where an FFT falls back to Bluestein's algorithm; at
these sizes the dense product is faster.

Plans and bands.  Real and complex fields run the same code on a plan per
(grid, band, spin, real): the m range (m >= 0 for a real field, -L..L
otherwise), the table in two C-ordered orientations, (m, theta, l) for
analysis and (m, l, theta) for synthesis, cached per (grid Lmax, band,
spin), and a real DFT pair cached per (grid Lmax, band, real).
Coefficients (..., L+1, 2L+1) may have a band L up to the grid's Lmax:
synthesis reads L from their shape, analysis takes it as an argument, and
neither works on coefficients known to be zero.  A padded product
synthesises band-Lmax factors onto the grid of pad_Lmax(Lmax) and analyses
their product back to Lmax.

Stacks.  Samples (..., ntheta, nphi) and coefficients (..., L+1, 2L+1) may
carry leading stack axes, e.g. the v-levels of a Picard window.  The
Legendre stage folds the stack into the columns of its one batched matmul,
with the table as the transposed operand of each gemm: as the other
operand, OpenBLAS rounds a column by the column count (seen in synthesis
from L = 15 on).  The DFT is one gemm per leaf, the stack looped by
np.matmul: in one dgemm over every row of a stack OpenBLAS rounds a row by
its position in the blocking.  So every leaf keeps the bits it has alone,
in a stack of any size.  SpinField, multiply and Grid.integrate broadcast
over the stack.  Grid.integrate is the grid's one quadrature; a
round-sphere L2 norm needs none, since tensors.spectral_l2 reads it from
the coefficients (Parseval).

Zeros.  Spherically symmetric data carry identically zero fields (the
tracefree part of chib, zeta, beta, sigma, betab), and the tracefree parts
built from them stay zero.  A transform whose input has no nonzero entry
returns exact zeros without its Legendre and Fourier stages, and multiply
returns a coefficient-backed zero, synthesising neither factor,
when one factor is all zero and the other is finite.  The zeros keep the
layout of a computed result (Fortran-ordered coefficients; samples in the
(theta, reversed stack, phi) row order of a synthesis), because later numpy
reductions choose their summation order from the layout of their operands:
a C-ordered zero moves downstream sums at roundoff.  NaN and inf count as
nonzero, and a zero times a non-finite factor takes the full product, so
non-finite input is never skipped and still propagates.

Leaf constants.  Spin-0 analysis takes one sample per leaf, c, off the
samples before the DFT and adds c sqrt(4 pi) to a_00 after the Legendre
stage, for real and complex fields alike.  A field constant on a leaf
(s, psi = log s, trchi' and trchib' on round data) then analyses to exact
zeros at l >= 1, through the zero exit above when every leaf is constant,
and every derivative of it is exactly zero: otherwise each l >= 1
coefficient keeps about 4e-15 of roundoff, which derivatives multiply by
up to l(l+1), a floor that grows with L.

Real fields.  The lapse equation and its diagnostics transform real
scalars (s, log Omega, psi, F1, e^{2 psi}, ...), whose coefficients satisfy
a[l, -m] = (-1)^m conj(a[l, m]).  Their plan covers m >= 0 only, as real
data do in SHTns (Schaeffer 2013, arXiv:1202.6522): the m >= 0 rows of the
spin-0 table, and a DFT pair that reads float64 samples and writes them
(weight 1 at m = 0, 2 above, for the m < 0 half).  Analysis fills m < 0 by
the symmetry.  Both keep the layouts of a complex field.  Realness is
decided exactly, never by a tolerance: spin-0 samples are real when they
are float64 (SpinField.from_samples and constant keep real spin-0 input
so), and spin-0 coefficients when they satisfy the symmetry bit for bit, as
analysis of real samples gives and real scalings and sums keep.  Anything
else, one ulp off included, takes the complex plan.

Generators.  Geodesic data is tabulated along each generator on CGL nodes
in s.  A GeneratorPack holds several such tables in one real layout, and
interp_generator reads all of them at shared heights with one barycentric
read (_cheb.barycentric_interp): the weights of the heights serve every
table, and they are formed for one block of points at a time in a buffer of
at most 1 MB, so a read holds its output and not every weight of a stack.
The solver's lapse source and the reconstruction's geometry each take one
read per stack of leaves.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._cheb import barycentric_interp
from ._wigner import spin_lambda_tables
from .errors import ConfigurationError, OutOfDomainError, UnsupportedSpinError


@dataclass(frozen=True)
class Grid:
    """Band-limited sphere grid: Gauss-Legendre colatitudes x equispaced longitudes."""

    Lmax: int
    theta_nodes: np.ndarray = field(repr=False)
    phi_nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)  # theta-row weights, sum 4*pi

    @property
    def shape(self):
        return (self.Lmax + 1, 2 * self.Lmax + 1)

    @property
    def nphi(self):
        return 2 * self.Lmax + 1

    @property
    def eigenvalues(self):
        """l(l+1) for l = 0 .. Lmax: -Delta_ring on the degree-l harmonics."""
        ls = np.arange(self.Lmax + 1, dtype=float)
        return ls * (ls + 1.0)

    def integrate(self, samples):
        """Quadrature of samples against the round measure dOmega.

        A stack (..., ntheta, nphi) gives an array, one value per field.
        The phi-mean and the theta-sum run along C-ordered rows, so a field
        has the same bits alone and in any stack or layout.
        """
        return np.sum(self.weights * np.ascontiguousarray(samples).mean(
            axis=-1), axis=-1)


_GRIDS: dict = {}
# (Lmax, band L, spin) -> lam[m+L, theta, l] and lam[m+L, l, theta]
_LEGENDRE: dict = {}
_FOURIER: dict = {}  # (Lmax, band L, real) -> the real DFT pair (R, Q)


def _legendre(n, x):
    """p_{n-1} and p_n at the points x, and the Christoffel sum
    K = sum_{k<n} p_k^2, by the three-term recurrence of the Legendre
    polynomials p_k orthonormal on [-1, 1]:
    b_k p_k = x p_{k-1} - b_{k-1} p_{k-2}, b_k = k / sqrt(4k^2 - 1),
    p_0 = 1/sqrt(2)."""
    p_prev, p = np.zeros_like(x), np.full_like(x, math.sqrt(0.5))
    K = p * p
    b_prev = 0.0
    for k in range(1, n + 1):
        b = k / math.sqrt(4.0 * k * k - 1.0)
        p_prev, p = p, (x * p - b_prev * p_prev) / b
        b_prev = b
        if k < n:
            K += p * p
    return p_prev, p, K


def gauss_legendre(n):
    """The n-point Gauss-Legendre rule on [-1, 1] (n >= 5): nodes x, in
    descending order, and weights w, in float64 with no eigensolver.

    Each node x >= 0 starts from Tricomi's asymptotic guess and takes
    Newton steps on the recurrence of _legendre until a step is at most
    eps (3 or 4 steps); the nodes below 0 mirror them, so the rule is
    symmetric bit for bit.  The weight of a node is the Christoffel
    function 1/K of the orthonormal recurrence (see Hale & Townsend, SIAM
    J. Sci. Comput. 35(2), 2013): within 6e-14 relative of the exact
    weights up to n = 64, where the Golub-Welsch eigenvalue rule of
    np.polynomial.legendre.leggauss is off by up to 1.3e-12.
    """
    k = np.arange(1, (n + 1) // 2 + 1)
    t = np.pi * (4 * k - 1) / (4 * n + 2)
    x = (1.0 - (n - 1) / (8.0 * n ** 3)
         - (39.0 - 28.0 / np.sin(t) ** 2) / (384.0 * n ** 4)) * np.cos(t)
    x[n // 2:] = 0.0  # the middle node of an odd rule is 0 exactly
    # p_n / p_n' with p_n' = n (r p_{n-1} - x p_n) / (1 - x^2)
    r = math.sqrt((2.0 * n + 1.0) / (2.0 * n - 1.0))
    for _ in range(20):
        p_prev, p = _legendre(n, x)[:2]
        step = p * (1.0 - x * x) / (n * (r * p_prev - x * p))
        x -= step
        if np.max(np.abs(step)) <= np.finfo(float).eps:
            break
    w = 1.0 / _legendre(n, x)[2]
    mirror = slice(n // 2 - 1, None, -1)
    return np.concatenate([x, -x[mirror]]), np.concatenate([w, w[mirror]])


def build_grid(Lmax: int) -> Grid:
    """Grid exact for products of harmonics up to degree Lmax.

    The colatitudes are the arccosines of the gauss_legendre nodes, those
    south of the equator taken as pi minus their northern mirror images so
    that they mirror about pi/2 bit for bit, as the nodes do about 0; the
    theta-row weights are 2 pi times the rule's weights.

    Raises ConfigurationError for Lmax < 4 (too coarse for any of the
    implemented geometry).
    """
    if Lmax < 4:
        raise ConfigurationError(f"Lmax must be >= 4, got {Lmax}")
    if Lmax not in _GRIDS:
        x, w = gauss_legendre(Lmax + 1)
        theta = np.arccos(x)
        south = (Lmax + 2) // 2
        theta[south:] = np.pi - theta[Lmax - south::-1]
        weights = w * 2.0 * np.pi
        phi = 2.0 * np.pi * np.arange(2 * Lmax + 1) / (2 * Lmax + 1)
        _GRIDS[Lmax] = Grid(Lmax=Lmax, theta_nodes=theta, phi_nodes=phi,
                            weights=weights)
    return _GRIDS[Lmax]


# a_00 of the constant 1: the integral of Y_00 = 1/sqrt(4 pi)
_SQRT_4PI = math.sqrt(4.0 * math.pi)


def _pairs(C):
    """C (n, p) as the real array P (n, 2, p, 2) that takes the (re, im)
    pairs of a row vector x to those of x @ C."""
    P = np.empty(C.shape[:1] + (2,) + C.shape[1:] + (2,))
    P[:, 0, :, 0] = P[:, 1, :, 1] = C.real
    P[:, 0, :, 1] = C.imag
    P[:, 1, :, 0] = -C.imag
    return P


def _plan(grid, L, spin, real):
    """(lam_a, lam_s, R, Q) of band L on grid, over the m range of its plan
    (see Plans in the module docstring): the table as lam_a[m, theta, l] and
    lam_s[m, l, theta], and the real DFT pair.  On (re, im) pairs, samples @
    R are samples @ Einv, Einv = conj(E).T 2pi/nphi, and F @ Q is F @ E; for
    a real field R reads and Q writes real samples, m > 0 weighted by 2."""
    if not 0 <= L <= grid.Lmax:
        raise ValueError(f"band {L} outside 0..{grid.Lmax} of the grid")
    table = (grid.Lmax, L, spin)
    if table not in _LEGENDRE:
        lam = spin_lambda_tables(L, spin, grid.theta_nodes)
        _LEGENDRE[table] = lam, np.ascontiguousarray(lam.transpose(0, 2, 1))
    dft = (grid.Lmax, L, real)
    if dft not in _FOURIER:
        ms = np.arange(0 if real else -L, L + 1)
        E = np.exp(1j * np.outer(ms, grid.phi_nodes))
        R = _pairs(E.conj().T * (2.0 * np.pi / grid.nphi))
        Q = _pairs(E)
        if real:
            R = R[:, 0]
            Q = Q[..., 0] * np.where(ms == 0, 1.0, 2.0)[:, None, None]
        _FOURIER[dft] = (np.ascontiguousarray(R).reshape(-1, 2 * ms.size),
                         np.ascontiguousarray(Q).reshape(2 * ms.size, -1))
    m0 = L if real else 0
    return tuple(lam[m0:] for lam in _LEGENDRE[table]) + _FOURIER[dft]


def _is_real(coeffs):
    """Whether spin-0 coefficients (..., l, m+L) are exactly those of a real
    field: a[l, -m] = (-1)^m conj(a[l, m]) bit for bit for every m >= 0,
    which at m = 0 makes a[l, 0] real."""
    L = coeffs.shape[-1] // 2
    mirror = np.conj(coeffs[..., L:])
    mirror[..., 1::2] *= -1.0  # odd m
    return bool((mirror == coeffs[..., L::-1]).all())


def raw_analyze(grid: Grid, samples, spin: int, L=None):
    """Coefficients a[..., l, m+L] up to band L (default grid.Lmax) of a
    spin-weighted field or a stack of them (samples (..., ntheta, nphi)).

    Real spin-0 samples take the plan of m >= 0 (see Real fields in the
    module docstring); spin-0 leaf constants are analysed exactly (see Leaf
    constants)."""
    L = grid.Lmax if L is None else L
    real = spin == 0 and not np.iscomplexobj(samples)
    lam, _, R, _ = _plan(grid, L, spin, real)
    M, nt = lam.shape[0], grid.Lmax + 1
    s = np.asarray(samples, dtype=np.float64 if real else np.complex128)
    if s.shape[-2:] != grid.shape:
        raise ValueError(f"sample shape {s.shape} is not (..., {nt}, "
                         f"{grid.nphi})")
    if spin == 0:
        c = s[..., 0, 0]
        s = s - c[..., None, None]
    # (m, l, reversed stack), whose transpose is the Fortran-ordered
    # (..., l, m) that raw_synthesize reads without a copy
    a = np.zeros((2 * L + 1, L + 1) + s.shape[-3::-1], np.complex128)
    if s.any():
        if s.strides[-1] != s.itemsize:  # the real view needs a unit stride
            s = np.ascontiguousarray(s)
        F = np.matmul(s.view(np.float64), R).view(np.complex128)
        F *= (grid.weights / (2.0 * np.pi))[:, None]  # (..., theta, m)
        Fr = np.ascontiguousarray(F.T).view(np.float64).reshape(M, nt, -1)
        np.matmul(lam.transpose(0, 2, 1), Fr,
                  out=a[2 * L + 1 - M:].reshape(M, L + 1, -1).view(np.float64))
        if real:  # a[l, -m] = (-1)^m conj(a[l, m]) for m = L..1
            np.conj(a[:L:-1], out=a[:L])
            a[:L][::-2] *= -1.0  # odd m
    a = a.T
    if spin == 0:
        a[..., 0, L] += _SQRT_4PI * c
    return a


def raw_synthesize(grid: Grid, coeffs, spin: int):
    """Samples (..., ntheta, nphi) of a spin-weighted field or a stack of
    them from coefficients (..., l, m+L) of any band L <= grid.Lmax, read
    from their shape (..., L+1, 2L+1).

    Reads the coefficients through their full transpose (m, l, reversed
    stack), so a Fortran-ordered array is used without a copy.  Spin-0
    coefficients of a real field give real samples (see Real fields in the
    module docstring).
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    L = c.shape[-2] - 1 if c.ndim >= 2 else -1
    if c.shape[-1:] != (2 * L + 1,):
        raise ValueError(
            f"coefficient shape {c.shape} is not (..., L+1, 2L+1)")
    real = spin == 0 and _is_real(c)
    _, lam, _, Q = _plan(grid, L, spin, real)
    M, n = lam.shape[0], c.ndim - 2
    rows = (grid.Lmax + 1,) + c.shape[:n][::-1]  # rows of S
    leaves = tuple(range(n, 0, -1)) + (0, n + 1)
    S = np.zeros((math.prod(rows), grid.nphi),
                 np.float64 if real else np.complex128)
    if c.any():
        cm = np.ascontiguousarray(c[..., 2 * L + 1 - M:].T)
        G = np.matmul(lam.transpose(0, 2, 1),
                      cm.view(np.float64).reshape(M, L + 1, -1))
        Gl = np.ascontiguousarray(G.view(np.complex128).reshape(
            (M,) + rows).T).view(np.float64)  # (..., theta, m)
        np.matmul(Gl, Q, out=S.view(np.float64).reshape(
            rows + (-1,)).transpose(leaves))
    return S.reshape(rows + (grid.nphi,)).transpose(leaves)


def ladder_raise(coeffs, spin, Lmax):
    """eth on raw coefficients: spin s -> s+1 with factor +sqrt((l-s)(l+s+1))."""
    ls = np.arange(Lmax + 1)
    fac = np.sqrt(np.maximum((ls - spin) * (ls + spin + 1.0), 0.0))
    return coeffs * fac[:, None]


def ladder_lower(coeffs, spin, Lmax):
    """ethbar on raw coefficients: spin s -> s-1 with factor -sqrt((l+s)(l-s+1))."""
    ls = np.arange(Lmax + 1)
    fac = -np.sqrt(np.maximum((ls + spin) * (ls - spin + 1.0), 0.0))
    return coeffs * fac[:, None]


def _conj_coeffs(coeffs, spin):
    """Coefficients (..., l, m+L) of conj(f) for a spin-s field f of any
    band L: (-1)^(m+s) conj(a[..., l, -m])."""
    L = coeffs.shape[-1] // 2
    sign = 1.0 - 2.0 * ((np.arange(-L, L + 1) + spin) % 2)
    return np.conj(coeffs[..., ::-1]) * sign


class SpinField:
    """Band-limited field of definite spin weight with lazy sample/coeff sync."""

    __slots__ = ("grid", "spin", "_coeffs", "_samples")

    def __init__(self, grid: Grid, spin: int, coeffs=None, samples=None):
        self.grid = grid
        self.spin = spin
        self._coeffs = coeffs
        self._samples = samples

    @classmethod
    def from_coeffs(cls, grid, spin, coeffs):
        """Field (or stack of fields) from coefficients (..., l, m+Lmax)."""
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.shape[-2:] != (grid.Lmax + 1, 2 * grid.Lmax + 1):
            raise ValueError("coefficient array has wrong shape")
        return cls(grid, spin, coeffs=c)

    @classmethod
    def from_samples(cls, grid, spin, samples):
        """Field (or stack of fields) from samples (..., ntheta, nphi);
        real spin-0 samples stay real (float64)."""
        real = spin == 0 and not np.iscomplexobj(samples)
        s = np.asarray(samples, dtype=np.float64 if real else np.complex128)
        if s.shape[-2:] != (grid.Lmax + 1, 2 * grid.Lmax + 1):
            raise ValueError("sample array has wrong shape")
        return cls(grid, spin, samples=s)

    @classmethod
    def constant(cls, grid, value):
        """Spin-0 constant; an array of values gives a stack of constants.
        Real values give real samples."""
        value = np.asarray(value)
        samples = np.empty(value.shape + grid.shape, dtype=np.complex128
                           if np.iscomplexobj(value) else np.float64)
        samples[...] = value[..., None, None]
        return cls.from_samples(grid, 0, samples)

    @property
    def coeffs(self):
        if self._coeffs is None:
            self._coeffs = raw_analyze(self.grid, self._samples, self.spin)
        return self._coeffs

    @property
    def samples(self):
        if self._samples is None:
            self._samples = raw_synthesize(self.grid, self._coeffs, self.spin)
        return self._samples

    @property
    def stack_shape(self):
        """Leading stack axes; () for a single field."""
        return _held(self).shape[:-2]

    def coeff(self, l, m):
        return complex(self.coeffs[l, m + self.grid.Lmax])

    def __getitem__(self, idx):
        """Field(s) idx of a stack (an index, slice or index array)."""
        return SpinField(
            self.grid, self.spin,
            coeffs=None if self._coeffs is None else self._coeffs[idx],
            samples=None if self._samples is None else self._samples[idx])

    # ---- algebra ----------------------------------------------------------

    def _like(self, spin=None, coeffs=None, samples=None):
        return SpinField(self.grid, self.spin if spin is None else spin,
                         coeffs=coeffs, samples=samples)

    def __add__(self, other):
        if other.spin != self.spin:
            raise UnsupportedSpinError("cannot add different spin weights")
        return self._like(samples=self.samples + other.samples)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __mul__(self, other):
        if isinstance(other, SpinField):
            return multiply(self, other)
        if not isinstance(other, (int, float, complex, np.number)):
            return NotImplemented
        if self._coeffs is not None and self._samples is None:
            return self._like(coeffs=self.coeffs * other)
        return self._like(samples=self.samples * other)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugate (spin -s) in each representation the field
        holds: samples pointwise, coefficients by the rule
        conj(sY_lm) = (-1)^(m+s) (-s)Y_l(-m), so it makes no transform."""
        return SpinField(
            self.grid, -self.spin,
            coeffs=None if self._coeffs is None
            else _conj_coeffs(self._coeffs, self.spin),
            samples=None if self._samples is None
            else np.conj(self._samples))

    def real(self):
        """Real part (f + conj f)/2 of a spin-0 field, without a transform."""
        return self._with_conj(0.5, 0.5)

    def imag(self):
        """Imaginary part (f - conj f)/2i of a spin-0 field, likewise."""
        return self._with_conj(-0.5j, 0.5j)

    def _with_conj(self, a, b):
        """a f + b conj(f) of a spin-0 field, in each representation held."""
        if self.spin != 0:
            raise UnsupportedSpinError("real and imaginary parts need spin 0")
        c = self.conj()
        return self._like(
            coeffs=None if c._coeffs is None
            else a * self._coeffs + b * c._coeffs,
            samples=None if c._samples is None
            else a * self._samples + b * c._samples)

    def apply(self, fn):
        """Pointwise function of a spin-0 field (exp, log, reciprocal, ...).

        The result is sample-backed; analysing it truncates at Lmax, which for
        analytic fn decays spectrally.
        """
        if self.spin != 0:
            raise UnsupportedSpinError("pointwise functions require spin 0")
        return self._like(samples=fn(self.samples))

    # ---- measurements ------------------------------------------------------

    def max_abs(self):
        return float(np.max(np.abs(self.samples)))


def eth(f: SpinField) -> SpinField:
    """Spin-raising derivative on the unit round sphere."""
    return SpinField(f.grid, f.spin + 1,
                     coeffs=ladder_raise(f.coeffs, f.spin, f.grid.Lmax))


def ethbar(f: SpinField) -> SpinField:
    """Spin-lowering derivative on the unit round sphere."""
    return SpinField(f.grid, f.spin - 1,
                     coeffs=ladder_lower(f.coeffs, f.spin, f.grid.Lmax))


def laplacian_round(f: SpinField) -> SpinField:
    """Unit round-sphere Laplacian: multiplies (l,m) by -l(l+1)."""
    if f.spin != 0:
        raise UnsupportedSpinError("laplacian_round acts on spin-0 fields")
    return SpinField(f.grid, 0,
                     coeffs=f.coeffs * (-f.grid.eigenvalues)[:, None])


def pad_Lmax(Lmax: int) -> int:
    return (3 * Lmax + 1) // 2


def _held(f: SpinField):
    """The array a field holds: its coefficients, else its samples."""
    return f._samples if f._coeffs is None else f._coeffs


def multiply(*fields: SpinField) -> SpinField:
    """Pointwise product evaluated on the 3/2-padded grid, truncated to Lmax.

    Each factor is synthesised from its band-Lmax coefficients straight onto
    the padded grid and the product is analysed straight back to band Lmax;
    the padded coefficients above Lmax are zero, so they are never formed.
    Factors beyond the second are folded in pairwise, re-truncating between,
    so each step stays alias-free.  Stacked factors broadcast against each
    other.  An all-zero factor times a finite one is a coefficient-backed
    zero, made without a transform (see Zeros in the module docstring).
    """
    f, g = fields[0], fields[1]
    grid = f.grid
    if g.grid is not grid:
        raise ValueError("operands live on different grids")
    spin = f.spin + g.spin
    a, b = _held(f), _held(g)
    if (not a.any() and np.isfinite(b).all()) \
            or (not b.any() and np.isfinite(a).all()):
        stack = np.broadcast_shapes(f.stack_shape, g.stack_shape)
        out = SpinField(grid, spin, coeffs=np.zeros(
            stack + grid.shape, dtype=np.complex128, order="F"))
    else:
        pgrid = build_grid(pad_Lmax(grid.Lmax))
        prod = raw_synthesize(pgrid, f.coeffs, f.spin) \
            * raw_synthesize(pgrid, g.coeffs, g.spin)
        out = SpinField(grid, spin,
                        coeffs=raw_analyze(pgrid, prod, spin, grid.Lmax))
    if len(fields) > 2:
        return multiply(out, *fields[2:])
    return out


def _heights(s_nodes, s_eval):
    """Real heights s_eval, checked against the data slab and clipped to it.

    Raises OutOfDomainError if any height leaves [s_nodes[0], s_nodes[-1]]
    by more than roundoff.
    """
    lo, hi = s_nodes[0], s_nodes[-1]
    sv = np.asarray(np.real(s_eval), dtype=float)
    slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
    if np.min(sv) < lo - slack or np.max(sv) > hi + slack:
        raise OutOfDomainError(
            f"evaluation height range [{np.min(sv):.6g}, {np.max(sv):.6g}] "
            f"leaves the data slab [{lo:.6g}, {hi:.6g}]")
    return np.clip(sv, lo, hi)


class GeneratorPack:
    """Generator tables in the packed layout that interp_generator reads.

    The tables, each (n_s, ntheta, nphi) on the CGL nodes s_nodes and real or
    complex, are stored once in a real point-major layout
    (ntheta*nphi, n_s, columns): one column per real table, a (re, im) pair
    per complex one, and a last column of ones.  The layout is one
    allocation, and each column is copied into it straight from its table.
    """

    def __init__(self, s_nodes, tables):
        self.s_nodes = np.asarray(s_nodes, dtype=float)
        n = self.s_nodes.size
        cols, self.slots = [], []
        for t in tables:
            self.slots.append((len(cols), np.iscomplexobj(t)))
            cols += [t.real, t.imag] if np.iscomplexobj(t) else [t]
        self.packed = np.empty((cols[0][0].size, n, len(cols) + 1))
        for k, c in enumerate(cols):
            self.packed[..., k] = c.reshape(n, -1).T
        self.packed[..., -1] = 1.0


def interp_generator(pack, s_eval):
    """Every table of a GeneratorPack at the heights s_eval, in order.

    s_eval is one leaf of heights (ntheta, nphi) or a stack of leaves
    (..., ntheta, nphi); each table comes back in that shape, real or
    complex as it was packed.  One barycentric read serves every table;
    spectrally accurate for analytic generators.  Raises OutOfDomainError
    if any height leaves [s_nodes[0], s_nodes[-1]] (the data slab).

    numpy hands the product of a lone leaf to gemv, whose sums round apart
    from the gemm of a stack, so a lone leaf is read as a stack of two:
    every leaf then reads the same values alone and in any stack.
    """
    x = _heights(pack.s_nodes, s_eval)
    xp = x.reshape(-1, pack.packed.shape[0]).T
    lone = xp.shape[1] == 1
    vals = barycentric_interp(pack.s_nodes, pack.packed, np.ascontiguousarray(
        np.repeat(xp, 2, axis=1) if lone else xp))
    if lone:
        vals = vals[:, :1]
    out = []
    for k, cplx in pack.slots:
        v = vals[..., k:k + 2].view(np.complex128)[..., 0] if cplx \
            else vals[..., k]
        out.append(v.T.reshape(x.shape))
    return out
