"""Algebra and calculus of sphere-tangent tensors over conformally-round metrics.

Tensors are stored through spin-weighted components in the orthonormal dyad of
the metric g = e^{2 psi} gring: a 1-form X by (X_m, X_mbar) with spins (+1,-1),
a symmetric 2-tensor T by its g-trace and tracefree components (T_mm, T_mbmb)
with spins (0, +2, -2).  For real tensors the opposite-spin components are
complex conjugates; they are stored explicitly so complex test fields work too.

All covariant operators reduce to the round eth ladder with conformal weights,

    eth_g eta = e^{(s-1) psi} eth( e^{-s psi} eta ),

which keeps Laplace inversion exact: Delta_g f = e^{-2 psi} Delta_ring f.
Every leaf metric of a graph foliation has this form, so MetricRep holds
nothing but the conformal factor psi.  Fields and metrics may be stacks of
leaves (see sphere); every operation here acts leaf by leaf, and indexing a
stacked field, tensor or metric takes one leaf or a slice of them.
"""

import numpy as np

from .errors import ConstraintError, UnsupportedSpinError
from .sphere import SpinField, eth, ethbar, laplacian_round, multiply

SQRT2 = np.sqrt(2.0)


class MetricRep:
    """Induced metric e^{2 psi} gring of a leaf, conformal to the unit round sphere."""

    def __init__(self, grid, psi=None):
        self.grid = grid
        if psi is None:
            psi = SpinField.zero(grid, 0)
        elif not isinstance(psi, SpinField):
            psi = SpinField.from_samples(grid, 0, psi)
        self.psi = psi
        self._conf = {}

    @classmethod
    def round_sphere(cls, grid, radius=1.0):
        return cls(grid, psi=SpinField.constant(grid, np.log(radius)))

    def __getitem__(self, idx):
        """Metric(s) idx of a stack, keeping the conformal factors made."""
        sub = MetricRep(self.grid, psi=self.psi[idx])
        sub._conf = {k: f[idx] for k, f in self._conf.items()}
        return sub

    def conformal_factor(self, power):
        """Cached sample-backed e^{power * psi} as a spin-0 field."""
        key = float(power)
        if key not in self._conf:
            self._conf[key] = self.psi.apply(lambda x: np.exp(power * x))
        return self._conf[key]

    def sqrt_det(self):
        """Area density relative to the round measure dOmega."""
        return np.real(self.conformal_factor(2.0).samples)

    @property
    def area(self):
        return self.grid.integrate(self.sqrt_det())

    def gauss_curvature(self):
        """Gauss curvature K = e^{-2 psi}(1 - Delta_ring psi)."""
        one_minus = SpinField.constant(self.grid, 1.0) - laplacian_round(self.psi)
        return multiply(self.conformal_factor(-2.0), one_minus)


class OneForm:
    """Sphere-tangent 1-form; minus defaults to conj(plus) for real forms."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: SpinField, minus: SpinField = None):
        if plus.spin != 1:
            raise UnsupportedSpinError("OneForm needs a spin +1 component")
        if minus is None:
            minus = plus.conj()
        if minus.spin != -1:
            raise UnsupportedSpinError("OneForm minus component must have spin -1")
        self.plus = plus
        self.minus = minus

    @classmethod
    def zero(cls, grid):
        return cls(SpinField.zero(grid, 1), SpinField.zero(grid, -1))

    @classmethod
    def from_plus(cls, grid, plus):
        """Real 1-form from samples (..., ntheta, nphi) of its plus part."""
        return cls(SpinField.from_samples(grid, 1, plus),
                   SpinField.from_samples(grid, -1, np.conj(plus)))

    def __getitem__(self, idx):
        return OneForm(self.plus[idx], self.minus[idx])

    def __add__(self, other):
        return OneForm(self.plus + other.plus, self.minus + other.minus)

    def __sub__(self, other):
        return OneForm(self.plus - other.plus, self.minus - other.minus)

    def __mul__(self, scalar):
        if isinstance(scalar, SpinField):
            return OneForm(multiply(scalar, self.plus), multiply(scalar, self.minus))
        return OneForm(self.plus * scalar, self.minus * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def norm2(self):
        """|X|^2 = X_m X_mb + X_mb X_m (spin-0; positive for real X)."""
        return 2.0 * multiply(self.plus, self.minus)

    def max_abs(self):
        return float(np.max(np.sqrt(np.abs(self.norm2().samples))))

    def is_finite(self):
        return self.plus.is_finite() and self.minus.is_finite()


class SymTwoTensor:
    """Symmetric 2-tensor split into g-trace and tracefree dyad components."""

    __slots__ = ("trace", "hat_plus", "hat_minus")

    def __init__(self, trace: SpinField, hat_plus: SpinField,
                 hat_minus: SpinField = None):
        if trace.spin != 0 or hat_plus.spin != 2:
            raise UnsupportedSpinError("SymTwoTensor needs spins (0, +2)")
        if hat_minus is None:
            hat_minus = hat_plus.conj()
        if hat_minus.spin != -2:
            raise UnsupportedSpinError("hat_minus component must have spin -2")
        self.trace = trace
        self.hat_plus = hat_plus
        self.hat_minus = hat_minus

    @classmethod
    def zero(cls, grid):
        return cls(SpinField.zero(grid, 0), SpinField.zero(grid, 2),
                   SpinField.zero(grid, -2))

    @classmethod
    def tracefree(cls, hat_plus: SpinField, hat_minus: SpinField):
        """Tracefree tensor: a zero trace with the stack shape of hat_plus."""
        grid = hat_plus.grid
        zero = np.zeros(hat_plus.stack_shape + grid.shape)
        return cls(SpinField.from_coeffs(grid, 0, zero), hat_plus, hat_minus)

    @classmethod
    def from_parts(cls, grid, trace, hat_plus):
        """Real tensor from samples of its trace and hat_plus component
        (..., ntheta, nphi); trace None is a zero trace of the same shape."""
        hat_plus = np.asarray(hat_plus)
        hp = SpinField.from_samples(grid, 2, hat_plus)
        hm = SpinField.from_samples(grid, -2, np.conj(hat_plus))
        if trace is None:
            return cls.tracefree(hp, hm)
        return cls(SpinField.from_samples(grid, 0, trace), hp, hm)

    def __getitem__(self, idx):
        return SymTwoTensor(self.trace[idx], self.hat_plus[idx],
                            self.hat_minus[idx])

    def __add__(self, other):
        return SymTwoTensor(self.trace + other.trace,
                            self.hat_plus + other.hat_plus,
                            self.hat_minus + other.hat_minus)

    def __sub__(self, other):
        return SymTwoTensor(self.trace - other.trace,
                            self.hat_plus - other.hat_plus,
                            self.hat_minus - other.hat_minus)

    def __mul__(self, scalar):
        if isinstance(scalar, SpinField):
            return SymTwoTensor(multiply(scalar, self.trace),
                                multiply(scalar, self.hat_plus),
                                multiply(scalar, self.hat_minus))
        return SymTwoTensor(self.trace * scalar, self.hat_plus * scalar,
                            self.hat_minus * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def hat(self):
        return SymTwoTensor.tracefree(self.hat_plus, self.hat_minus)

    def norm2(self):
        """|T|^2 = tr^2/2 + 2 T_mm T_mbmb (spin-0)."""
        return 0.5 * multiply(self.trace, self.trace) \
            + 2.0 * multiply(self.hat_plus, self.hat_minus)

    def max_abs(self):
        return float(np.max(np.sqrt(np.abs(self.norm2().samples))))

    def is_finite(self):
        return (self.trace.is_finite() and self.hat_plus.is_finite()
                and self.hat_minus.is_finite())


# --------------------------------------------------------------------------
# pointwise tensor algebra
# --------------------------------------------------------------------------

def trace_split(T_mm: SpinField, T_mmbar: SpinField, g: MetricRep,
                T_mbmb: SpinField = None) -> SymTwoTensor:
    """Split a full symmetric tensor given by dyad components.

    The g-trace is 2 T_mmbar; the tracefree part keeps the (mm, mbmb)
    components, so T = (trace/2) g + hat with tr_g(hat) = 0 exactly.
    """
    return SymTwoTensor(2.0 * T_mmbar, T_mm, T_mbmb)


def dot(a, b, g: MetricRep = None) -> SpinField:
    """Full contraction of same-rank tensors (spin-0 result)."""
    if isinstance(a, OneForm) and isinstance(b, OneForm):
        return multiply(a.plus, b.minus) + multiply(a.minus, b.plus)
    if isinstance(a, SymTwoTensor) and isinstance(b, SymTwoTensor):
        return 0.5 * multiply(a.trace, b.trace) \
            + multiply(a.hat_plus, b.hat_minus) \
            + multiply(a.hat_minus, b.hat_plus)
    if isinstance(a, SpinField) and isinstance(b, SpinField):
        return multiply(a, b)
    raise TypeError("dot expects two tensors of equal rank")


def wedge(a, b, g: MetricRep = None) -> SpinField:
    """Antisymmetric contraction; vanishes identically for a == b."""
    if isinstance(a, OneForm) and isinstance(b, OneForm):
        z = multiply(a.plus, b.minus) - multiply(a.minus, b.plus)
    elif isinstance(a, SymTwoTensor) and isinstance(b, SymTwoTensor):
        z = multiply(a.hat_plus, b.hat_minus) - multiply(a.hat_minus, b.hat_plus)
    else:
        raise TypeError("wedge expects two 1-forms or two symmetric 2-tensors")
    return 1j * z


def hat_otimes(a: OneForm, b: OneForm, g: MetricRep = None) -> SymTwoTensor:
    """Tracefree symmetric product a otimes-hat b."""
    return SymTwoTensor.tracefree(2.0 * multiply(a.plus, b.plus),
                                  2.0 * multiply(a.minus, b.minus))


def sym_otimes(a: OneForm, b: OneForm) -> SymTwoTensor:
    """Symmetrised tensor product a b + b a (carries its trace 2 a.b)."""
    return SymTwoTensor(2.0 * dot(a, b),
                        2.0 * multiply(a.plus, b.plus),
                        2.0 * multiply(a.minus, b.minus))


def dual(x):
    """Left Hodge dual; dual(dual(X)) = -X on 1-forms."""
    if isinstance(x, OneForm):
        return OneForm(-1j * x.plus, 1j * x.minus)
    if isinstance(x, SymTwoTensor):
        # defined on the tracefree part (its only use in the structure equations)
        return SymTwoTensor.tracefree(-1j * x.hat_plus, 1j * x.hat_minus)
    raise TypeError("dual expects a OneForm or SymTwoTensor")


def contract(T: SymTwoTensor, a: OneForm) -> OneForm:
    """(T . a)_A = T_AB a_B."""
    return OneForm(0.5 * multiply(T.trace, a.plus) + multiply(T.hat_plus, a.minus),
                   0.5 * multiply(T.trace, a.minus) + multiply(T.hat_minus, a.plus))


def contract2(T: SymTwoTensor, a: OneForm, b: OneForm) -> SpinField:
    """T_AB a_A b_B."""
    return 0.5 * multiply(T.trace, dot(a, b)) \
        + multiply(T.hat_plus, a.minus, b.minus) \
        + multiply(T.hat_minus, a.plus, b.plus)


# --------------------------------------------------------------------------
# covariant operators for conformally-round metrics
# --------------------------------------------------------------------------

def eth_g(eta: SpinField, g: MetricRep) -> SpinField:
    """Conformal eth: e^{(s-1) psi} eth(e^{-s psi} eta)."""
    from .sphere import eth_any
    s = eta.spin
    inner = eth_any(multiply(g.conformal_factor(-s), eta)) if s != 0 \
        else eth_any(eta)
    return multiply(g.conformal_factor(s - 1.0), inner)


def ethbar_g(eta: SpinField, g: MetricRep) -> SpinField:
    """Conformal ethbar: e^{-(s+1) psi} ethbar(e^{s psi} eta)."""
    from .sphere import ethbar_any
    s = eta.spin
    inner = ethbar_any(multiply(g.conformal_factor(s), eta)) if s != 0 \
        else ethbar_any(eta)
    return multiply(g.conformal_factor(-(s + 1.0)), inner)


def grad(f: SpinField, g: MetricRep) -> OneForm:
    w = g.conformal_factor(-1.0)
    return OneForm(multiply(w, eth(f)) * (1.0 / SQRT2),
                   multiply(w, ethbar(f)) * (1.0 / SQRT2))


def div(X: OneForm, g: MetricRep) -> SpinField:
    return (ethbar_g(X.plus, g) + eth_g(X.minus, g)) * (1.0 / SQRT2)


def curl(X: OneForm, g: MetricRep) -> SpinField:
    return (eth_g(X.minus, g) - ethbar_g(X.plus, g)) * (1j / SQRT2)


def div2(T: SymTwoTensor, g: MetricRep) -> OneForm:
    """Divergence of a symmetric 2-tensor."""
    plus = ethbar_g(T.hat_plus, g) + 0.5 * eth_g(T.trace, g)
    minus = eth_g(T.hat_minus, g) + 0.5 * ethbar_g(T.trace, g)
    return OneForm(plus * (1.0 / SQRT2), minus * (1.0 / SQRT2))


def laplacian(f: SpinField, g: MetricRep) -> SpinField:
    """Scalar Laplace-Beltrami; exact conformal covariance in 2D."""
    if f.spin != 0:
        raise UnsupportedSpinError("laplacian acts on spin-0 fields")
    return multiply(g.conformal_factor(-2.0), laplacian_round(f))


def hessian(f: SpinField, g: MetricRep) -> SymTwoTensor:
    """Covariant Hessian of a scalar, split into trace (= Delta_g f) and hat."""
    w2 = g.conformal_factor(-2.0)
    return SymTwoTensor(laplacian(f, g),
                        0.5 * eth(multiply(w2, eth(f))),
                        0.5 * ethbar(multiply(w2, ethbar(f))))


def rough_laplacian_oneform(X: OneForm, g: MetricRep) -> OneForm:
    """Trace of the second covariant derivative on a 1-form."""
    plus = 0.5 * (eth_g(ethbar_g(X.plus, g), g) + ethbar_g(eth_g(X.plus, g), g))
    minus = 0.5 * (eth_g(ethbar_g(X.minus, g), g) + ethbar_g(eth_g(X.minus, g), g))
    return OneForm(plus, minus)


def mean(f: SpinField, g: MetricRep):
    """Average of f against the g-measure; one value per field of a stack."""
    dens = g.sqrt_det()
    re = g.grid.integrate(np.real(f.samples) * dens)
    im = g.grid.integrate(np.imag(f.samples) * dens)
    if np.any(np.abs(im) > 1e-13 * (np.abs(re) + 1.0)):
        return (re + 1j * im) / g.area
    return re / g.area


# --------------------------------------------------------------------------
# Hodge systems
# --------------------------------------------------------------------------

def hodge_D1(X: OneForm, g: MetricRep):
    """D1 X = (div X, curl X)."""
    return div(X, g), curl(X, g)


def hodge_D1_star(f: SpinField, h: SpinField, g: MetricRep) -> OneForm:
    """D1* (f,h) = -grad f + dual grad h."""
    w = g.conformal_factor(-1.0)
    return OneForm(multiply(w, eth(f + 1j * h)) * (-1.0 / SQRT2),
                   multiply(w, ethbar(f - 1j * h)) * (-1.0 / SQRT2))


def hodge_D2(T: SymTwoTensor, g: MetricRep) -> OneForm:
    """D2 T = div of the tracefree part."""
    return OneForm(ethbar_g(T.hat_plus, g) * (1.0 / SQRT2),
                   eth_g(T.hat_minus, g) * (1.0 / SQRT2))


def hodge_D2_star(X: OneForm, g: MetricRep) -> SymTwoTensor:
    """D2* X = -(1/2) grad otimes-hat X."""
    w = g.conformal_factor(-1.0)
    return SymTwoTensor.tracefree(eth(multiply(w, X.plus)) * (-1.0 / SQRT2),
                                  ethbar(multiply(w, X.minus)) * (-1.0 / SQRT2))


def invert_laplacian(f: SpinField, g: MetricRep) -> SpinField:
    """Mean-free u with Delta_g u = f - mean_g(f).

    Exact by conformal covariance: Delta_ring u = e^{2 psi}(f - mean f).
    A stack of fields over a stack of metrics is solved field by field.
    """
    fm = mean(f, g)
    rhs = multiply(g.conformal_factor(2.0), f - SpinField.constant(g.grid, fm))
    ls = np.arange(g.grid.Lmax + 1, dtype=float)
    inv = np.zeros_like(ls)
    inv[1:] = -1.0 / (ls[1:] * (ls[1:] + 1.0))
    u = SpinField.from_coeffs(g.grid, 0, rhs.coeffs * inv[:, None])
    return u - SpinField.constant(g.grid, mean(u, g))


def invert_D1(f: SpinField, h: SpinField, g: MetricRep,
              tol: float = 1e-10) -> OneForm:
    """Solve D1 X = (f, h) for mean-free scalars f, h."""
    scale = max(f.max_abs(), h.max_abs(), 1.0)
    if abs(mean(f, g)) > tol * scale or abs(mean(h, g)) > tol * scale:
        raise ConstraintError("invert_D1 requires mean-free scalars")
    a = -1.0 * invert_laplacian(f, g)
    b = -1.0 * invert_laplacian(h, g)
    return hodge_D1_star(a, b, g)
