"""Grids, spin-weighted spherical-harmonic transforms and eth operators.

Fields live on a Gauss-Legendre x equispaced grid with band limit Lmax.
Spin components refer to a fixed reference dyad m = -(e_theta + i e_phi)/sqrt(2)
of the round sphere, for which the spectral ladder

    eth    sY_lm = +sqrt((l-s)(l+s+1)) (s+1)Y_lm,
    ethbar sY_lm = -sqrt((l+s)(l-s+1)) (s-1)Y_lm,

realises the covariant derivative components (grad f)_m = eth f / sqrt(2) on
the unit round sphere.  Pointwise products are formed on a 3/2-padded grid and
truncated back to Lmax, so quadratic nonlinearities never alias.

A transform is two dense stages.  The Legendre stage contracts the real
Wigner table lam[m, theta, l] with the coefficients, one real matrix per m,
all m in one batched np.matmul on the (real, imaginary) pairs of a real view;
complex data never meets the real table in one product.  The Fourier stage is
a complex matrix product with E[m, k] = exp(i m phi_k), or with its scaled
conjugate for analysis.  nphi = 2 Lmax + 1 is odd and often prime (31, 47,
71 at Lmax = 15, 23, 35), where an FFT falls back to Bluestein's algorithm;
at these sizes the dense product is faster.

Bands.  Coefficients (..., L+1, 2L+1) may have a band L up to the grid's
Lmax: synthesis reads L from their shape, analysis takes it as an argument.
A band-L transform works on 2L+1 m-matrices of (ntheta x (L+1)) and on the
2L+1 rows of E, never on coefficients known to be zero.  The table is
cached once per (grid Lmax, band, spin); a band reads a slice of the DFT
pair stored once per grid.  A padded product synthesises band-Lmax factors
onto the grid of pad_Lmax(Lmax) and analyses their product back to Lmax.

Stacks.  Samples (..., ntheta, nphi) and coefficients (..., L+1, 2L+1) may
carry leading stack axes, e.g. the v-levels of a Picard window.  A
transform folds the stack into the columns of its one Legendre matmul and its
one Fourier matmul, so a stack costs two matrix products, not one pair per
field.  SpinField, multiply and Grid.integrate broadcast over the stack; a
2-D field takes the same arithmetic as before the stack axis existed.

Zeros.  Spherically symmetric data carry identically zero fields (the
tracefree parts of chi and chib, zeta, alpha, beta, sigma, betab), and the
tracefree parts built from them stay zero.  A transform whose input has no
nonzero entry returns exact zeros without its Legendre and Fourier stages,
and multiply returns a coefficient-backed zero, synthesising neither factor,
when one factor is all zero and the other is finite.  The zeros keep the
layout of a computed result (Fortran-ordered coefficients; samples in the
(theta, reversed stack, phi) row order of a synthesis), because later numpy
reductions choose their summation order from the layout of their operands:
a C-ordered zero moves downstream sums at roundoff.  NaN and inf count as
nonzero, and a zero times a non-finite factor takes the full product, so
non-finite input is never skipped and still propagates.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from ._cheb import barycentric_interp, barycentric_weights
from ._wigner import spin_lambda_tables
from .errors import ConfigurationError, OutOfDomainError, UnsupportedSpinError

MAX_SPIN = 2


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

    def integrate(self, samples):
        """Quadrature of samples against the round measure dOmega.

        A stack (..., ntheta, nphi) gives an array, one value per field.
        """
        samples = np.asarray(samples)
        val = np.sum(self.weights * samples.mean(axis=-1), axis=-1)
        if samples.ndim > 2:
            return val
        if np.iscomplexobj(samples):
            return complex(val) if abs(val.imag) > 1e-13 * (abs(val.real) + 1.0) \
                else float(val.real)
        return float(val)

    def zeros(self):
        return np.zeros(self.shape, dtype=np.complex128)


_GRIDS: dict = {}
_LEGENDRE: dict = {}  # (Lmax, band L, spin) -> real table lam[m+L, theta, l]
_FOURIER: dict = {}  # Lmax -> (E, Einv), E[m+Lmax, k] = exp(i m phi_k)


def build_grid(Lmax: int) -> Grid:
    """Grid exact for products of harmonics up to degree Lmax.

    Raises ConfigurationError for Lmax < 4 (too coarse for any of the
    implemented geometry).
    """
    if Lmax < 4:
        raise ConfigurationError(f"Lmax must be >= 4, got {Lmax}")
    if Lmax not in _GRIDS:
        x, w = np.polynomial.legendre.leggauss(Lmax + 1)
        theta = np.arccos(x)[::-1].copy()
        weights = (w[::-1] * 2.0 * np.pi).copy()
        phi = 2.0 * np.pi * np.arange(2 * Lmax + 1) / (2 * Lmax + 1)
        _GRIDS[Lmax] = Grid(Lmax=Lmax, theta_nodes=theta, phi_nodes=phi,
                            weights=weights)
    return _GRIDS[Lmax]


def _plan(grid, L, spin):
    """(lam, E, Einv) of band L on grid: the cached table lam[m+L, theta, l],
    and the 2L+1 rows E[m+L, k] = exp(i m phi_k) and columns of
    Einv = conj(E).T 2pi/nphi, slices of the one DFT pair stored per grid."""
    if not 0 <= L <= grid.Lmax:
        raise ValueError(f"band {L} outside 0..{grid.Lmax} of the grid")
    key = (grid.Lmax, L, spin)
    if key not in _LEGENDRE:
        _LEGENDRE[key] = spin_lambda_tables(L, spin, grid.theta_nodes)
    if grid.Lmax not in _FOURIER:
        ms = np.arange(-grid.Lmax, grid.Lmax + 1)
        E = np.exp(1j * np.outer(ms, grid.phi_nodes))
        _FOURIER[grid.Lmax] = (E, E.conj().T * (2.0 * np.pi / grid.nphi))
    E, Einv = _FOURIER[grid.Lmax]
    band = slice(grid.Lmax - L, grid.Lmax + L + 1)
    return _LEGENDRE[key], E[band], Einv[:, band]


def _tables(Lmax, spin):
    """lam[l, m+Lmax, theta]: a view of the cached full-band table."""
    return _plan(build_grid(Lmax), Lmax, spin)[0].transpose(2, 0, 1)


def raw_analyze(grid: Grid, samples, spin: int, L=None):
    """Coefficients a[..., l, m+L] up to band L (default grid.Lmax) of a
    spin-weighted field or a stack of them (samples (..., ntheta, nphi));
    no spin-range check."""
    L = grid.Lmax if L is None else L
    lam, _, Einv = _plan(grid, L, spin)
    nt = grid.Lmax + 1
    s = np.asarray(samples, dtype=np.complex128)
    if s.shape[-2:] != grid.shape:
        raise ValueError(f"sample shape {s.shape} is not (..., {nt}, "
                         f"{grid.nphi})")
    if not s.any():
        return np.zeros(s.shape[:-2] + (L + 1, 2 * L + 1),
                        dtype=np.complex128, order="F")
    if s.ndim == 2:
        F = s @ Einv  # (theta, m)
        F *= (grid.weights / (2.0 * np.pi))[:, None]
        Fr = F.view(np.float64).reshape(nt, 2 * L + 1, 2).transpose(1, 0, 2)
    else:  # (m, theta, stack re/im pairs in reversed stack order)
        F = (s.reshape(-1, grid.nphi) @ Einv).reshape(s.shape[:-1] + (-1,))
        F *= (grid.weights / (2.0 * np.pi))[:, None]
        Fr = np.ascontiguousarray(F.T).view(np.float64).reshape(
            2 * L + 1, nt, -1)
    a = np.matmul(lam.transpose(0, 2, 1), Fr)  # (m, l, 2 * stack)
    # Fortran-ordered (..., l, m): raw_synthesize takes its transpose without
    # a copy
    return a.view(np.complex128).reshape(
        (2 * L + 1, L + 1) + F.shape[-3::-1]).T


def raw_synthesize(grid: Grid, coeffs, spin: int):
    """Samples (..., ntheta, nphi) of a spin-weighted field or a stack of
    them from coefficients (..., l, m+L) of any band L <= grid.Lmax, read
    from their shape (..., L+1, 2L+1); no spin-range check.

    Reads the coefficients through their full transpose (m, l, reversed
    stack), so a Fortran-ordered array is used without a copy.
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    L = c.shape[-2] - 1 if c.ndim >= 2 else -1
    if c.shape[-1:] != (2 * L + 1,):
        raise ValueError(
            f"coefficient shape {c.shape} is not (..., L+1, 2L+1)")
    lam, E, _ = _plan(grid, L, spin)
    if c.any():
        cm = np.ascontiguousarray(c.T)
        G = np.matmul(lam, cm.view(np.float64).reshape(2 * L + 1, L + 1, -1))
        # (theta, m) @ (m, k)
        S = G.view(np.complex128).reshape(2 * L + 1, -1).T @ E
    else:  # exact zeros in the row order of a computed S
        S = np.zeros(((grid.Lmax + 1) * math.prod(c.shape[:-2]), grid.nphi),
                     dtype=np.complex128)
    if c.ndim == 2:
        return S
    n = c.ndim - 2  # rows of S run over (theta, reversed stack)
    return S.reshape((grid.Lmax + 1,) + c.shape[:n][::-1] + (grid.nphi,)
                     ).transpose(tuple(range(n, 0, -1)) + (0, n + 1))


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


class SpinField:
    """Band-limited field of definite spin weight with lazy sample/coeff sync."""

    __slots__ = ("grid", "spin", "_coeffs", "_samples")

    def __init__(self, grid: Grid, spin: int, coeffs=None, samples=None):
        # the public transform/derivative entry points enforce |spin| <= 2;
        # higher weights appear only as internal derivative components
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
        """Field (or stack of fields) from samples (..., ntheta, nphi)."""
        s = np.asarray(samples, dtype=np.complex128)
        if s.shape[-2:] != (grid.Lmax + 1, 2 * grid.Lmax + 1):
            raise ValueError("sample array has wrong shape")
        return cls(grid, spin, samples=s)

    @classmethod
    def zero(cls, grid, spin):
        return cls(grid, spin, coeffs=np.zeros((grid.Lmax + 1, 2 * grid.Lmax + 1),
                                               dtype=np.complex128))

    @classmethod
    def constant(cls, grid, value):
        """Spin-0 constant; an array of values gives a stack of constants."""
        value = np.asarray(value, dtype=np.complex128)
        samples = np.empty(value.shape + grid.shape, dtype=np.complex128)
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
        if isinstance(other, SpinField):
            if other.spin != self.spin:
                raise UnsupportedSpinError("cannot add different spin weights")
            return self._like(samples=self.samples + other.samples)
        return self._like(samples=self.samples + other)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rsub__(self, other):
        return (-1.0) * self + other

    def __neg__(self):
        return (-1.0) * self

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
        return SpinField(self.grid, -self.spin, samples=np.conj(self.samples))

    def apply(self, fn):
        """Pointwise function of a spin-0 field (exp, log, reciprocal, ...).

        The result is sample-backed; analysing it truncates at Lmax, which for
        analytic fn decays spectrally.
        """
        if self.spin != 0:
            raise UnsupportedSpinError("pointwise functions require spin 0")
        return self._like(samples=fn(self.samples))

    # ---- measurements ------------------------------------------------------

    def integrate(self):
        return complex(self.grid.integrate(self.samples))

    def l2_round(self):
        """L2 norm against the round measure."""
        return float(np.sqrt(max(self.grid.integrate(
            np.abs(self.samples) ** 2), 0.0)))

    def max_abs(self):
        return float(np.max(np.abs(self.samples)))

    def is_finite(self):
        return bool(np.all(np.isfinite(self.samples)))


def analyze(samples, spin: int, grid: Grid) -> np.ndarray:
    """Forward transform; raises UnsupportedSpinError outside {-2..2}."""
    if abs(spin) > MAX_SPIN:
        raise UnsupportedSpinError(f"spin {spin} outside supported range")
    return raw_analyze(grid, samples, spin)


def synthesize(coeffs, spin: int, grid: Grid) -> np.ndarray:
    """Inverse transform; raises UnsupportedSpinError outside {-2..2}."""
    if abs(spin) > MAX_SPIN:
        raise UnsupportedSpinError(f"spin {spin} outside supported range")
    return raw_synthesize(grid, coeffs, spin)


def eth_any(f: SpinField) -> SpinField:
    """Spin-raising derivative without the public spin-range guard."""
    return SpinField(f.grid, f.spin + 1,
                     coeffs=ladder_raise(f.coeffs, f.spin, f.grid.Lmax))


def ethbar_any(f: SpinField) -> SpinField:
    """Spin-lowering derivative without the public spin-range guard."""
    return SpinField(f.grid, f.spin - 1,
                     coeffs=ladder_lower(f.coeffs, f.spin, f.grid.Lmax))


def eth(f: SpinField) -> SpinField:
    """Spin-raising derivative on the unit round sphere."""
    if abs(f.spin + 1) > MAX_SPIN:
        raise UnsupportedSpinError("eth would leave the supported spin range")
    return eth_any(f)


def ethbar(f: SpinField) -> SpinField:
    """Spin-lowering derivative on the unit round sphere."""
    if abs(f.spin - 1) > MAX_SPIN:
        raise UnsupportedSpinError("ethbar would leave the supported spin range")
    return ethbar_any(f)


def laplacian_round(f: SpinField, R: float = 1.0) -> SpinField:
    """Round-sphere Laplacian of radius R: multiplies (l,m) by -l(l+1)/R^2."""
    if f.spin != 0:
        raise UnsupportedSpinError("laplacian_round acts on spin-0 fields")
    ls = np.arange(f.grid.Lmax + 1)
    return SpinField(f.grid, 0,
                     coeffs=f.coeffs * (-(ls * (ls + 1.0)) / R ** 2)[:, None])


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
    if len(fields) < 2:
        return fields[0]
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


def _heights(s_nodes, s_eval, domain):
    """Real heights s_eval, checked against the data slab and clipped to it.

    Raises OutOfDomainError if any height leaves [lo, hi] (default: the node
    range) by more than roundoff.
    """
    lo = s_nodes[0] if domain is None else domain[0]
    hi = s_nodes[-1] if domain is None else domain[1]
    sv = np.asarray(np.real(s_eval), dtype=float)
    slack = 1e-12 * max(abs(lo), abs(hi), 1.0)
    if np.min(sv) < lo - slack or np.max(sv) > hi + slack:
        raise OutOfDomainError(
            f"evaluation height range [{np.min(sv):.6g}, {np.max(sv):.6g}] "
            f"leaves the data slab [{lo:.6g}, {hi:.6g}]")
    return np.clip(sv, lo, hi)


def interp_generator(table, s_nodes, s_eval, domain=None):
    """Evaluate per-generator tabulated data at height s_eval.

    table has shape (n_s, ntheta, nphi) on CGL nodes s_nodes; s_eval is an
    angular array, a stack of them (..., ntheta, nphi), or a scalar.  Each
    leaf of a stack reads the same table, bitwise as a call of its own.
    Barycentric interpolation per angular node; spectrally accurate for
    analytic generators.  Raises OutOfDomainError if any evaluation height
    leaves [s_nodes[0], s_nodes[-1]] (the data slab).
    """
    s_nodes = np.asarray(s_nodes, dtype=float)
    sv = _heights(s_nodes, s_eval, domain)
    if sv.ndim == 0:
        sv = np.full(table.shape[1:], float(sv))
    return barycentric_interp(s_nodes, table, sv)


class GeneratorPack:
    """Several generator tables read together at shared heights.

    The tables, each (n_s, ntheta, nphi) on the CGL nodes s_nodes and real or
    complex, are stored once in a real point-major layout
    (ntheta*nphi, n_s, columns): one column per real table, a (re, im) pair
    per complex one, and a last column of ones.  A call computes the
    barycentric weights of its heights once, as (ntheta*nphi, stack, n_s),
    and reads every table with one batched matmul (points x stack x n_s
    against points x n_s x columns); the column of ones gives the weight
    sums.  Same domain rule and exact-node handling as
    interp_generator.
    """

    def __init__(self, s_nodes, tables):
        self.s_nodes = np.asarray(s_nodes, dtype=float)
        n = self.s_nodes.size
        cols, self._slots = [], []
        for t in tables:
            self._slots.append((len(cols), np.iscomplexobj(t)))
            cols += [t.real, t.imag] if np.iscomplexobj(t) else [t]
        cols.append(np.ones_like(cols[0]))
        self.packed = np.stack([c.reshape(n, -1) for c in cols],
                               axis=-1).transpose(1, 0, 2).copy()
        self._w = barycentric_weights(n)

    def __call__(self, s_eval):
        """Every table at the heights s_eval (..., ntheta, nphi), in order."""
        x = _heights(self.s_nodes, s_eval, None)
        xp = np.ascontiguousarray(x.reshape(-1, self.packed.shape[0]).T)
        # weights stored node-major, (n_s, points, stack), for long inner
        # loops; the matmul reads them as (points, stack, n_s)
        diff = xp - self.s_nodes[:, None, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.divide(self._w[:, None, None], diff, out=diff)
            vals = np.matmul(c.transpose(1, 2, 0), self.packed)
        # an exact node hit has an infinite weight; it reads that node's row
        hit = np.isinf(vals[..., -1])
        if hit.any():
            node = np.argmax(xp[hit][:, None] == self.s_nodes, axis=-1)
            vals[hit] = self.packed[np.nonzero(hit)[0], node]
        vals /= vals[..., -1:]
        out = []
        for k, cplx in self._slots:
            v = vals[..., k:k + 2].view(np.complex128)[..., 0] if cplx \
                else vals[..., k]
            out.append(v.T.reshape(x.shape))
        return out
