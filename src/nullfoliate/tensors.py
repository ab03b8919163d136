"""Algebra and calculus of sphere-tangent tensors over conformally-round metrics.

Tensors are real and stored through spin-weighted components in the
orthonormal dyad of the metric g = e^{2 psi} gring: a 1-form X by X_m (spin
+1), a symmetric 2-tensor T by its real g-trace (spin 0) and its tracefree
component T_mm (spin +2).  The opposite-spin components are derived, not
stored: X_mbar = conj(X_m) (the `minus` property) and T_mbmb = conj(T_mm),
which SpinField.conj forms without a transform.  So each contraction forms
one product and takes its real or imaginary part, e.g. a.b = 2 Re(a_m
conj(b_m)), and each derivative is one conformal eth.  A size needs no
product: |x| is taken pointwise from the samples (magnitude), and every
residual is sized from it, by its max and its L2 norm on the g-measure
(sizes).  rebuild makes a field or tensor of the same kind from new samples
of each stored component, as a derivative along a stack gives them.

All covariant operators reduce to the round eth ladder with conformal weights,

    eth_g eta = e^{(s-1) psi} eth( e^{-s psi} eta ),

which keeps Laplace inversion exact: Delta_g f = e^{-2 psi} Delta_ring f.
Every leaf metric of a graph foliation has this form, so MetricRep holds
nothing but the conformal factor psi.  Fields and metrics may be stacks of
leaves (see sphere); every operation here acts leaf by leaf, and indexing a
stacked field, tensor or metric takes one leaf or a slice of them.
"""

import operator

import numpy as np

from .errors import UnsupportedSpinError
from .sphere import SpinField, eth, ethbar, laplacian_round, multiply

SQRT2 = np.sqrt(2.0)


class MetricRep:
    """Induced metric e^{2 psi} gring of a leaf, conformal to the unit round sphere."""

    def __init__(self, grid, psi):
        self.grid = grid
        if not isinstance(psi, SpinField):
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


class _RealTensor:
    """Arithmetic shared by OneForm and SymTwoTensor, applied to the
    components each stores (named by its __slots__)."""

    __slots__ = ()

    def _map(self, fn, *others):
        parts = [[getattr(x, k) for k in self.__slots__]
                 for x in (self,) + others]
        return type(self)(*map(fn, *parts))

    def __getitem__(self, idx):
        return self._map(lambda f: f[idx])

    def __add__(self, other):
        return self._map(operator.add, other)

    def __sub__(self, other):
        return self._map(operator.sub, other)

    def __mul__(self, scalar):
        """Product with a real scalar: a number or a spin-0 field."""
        if isinstance(scalar, SpinField):
            return self._map(lambda f: multiply(scalar, f))
        return self._map(lambda f: f * scalar)

    __rmul__ = __mul__

    def max_abs(self):
        return float(np.max(magnitude(self)))


class OneForm(_RealTensor):
    """Real sphere-tangent 1-form, held by its spin +1 component X_m."""

    __slots__ = ("plus",)

    def __init__(self, plus: SpinField):
        if plus.spin != 1:
            raise UnsupportedSpinError("OneForm needs a spin +1 component")
        self.plus = plus

    @property
    def minus(self):
        """The spin -1 component X_mbar = conj(X_m)."""
        return self.plus.conj()

    def norm2(self):
        """|X|^2 = dot(X, X) (spin-0)."""
        return dot(self, self)


class SymTwoTensor(_RealTensor):
    """Real symmetric 2-tensor: its g-trace and its spin +2 tracefree
    component T_mm."""

    __slots__ = ("trace", "hat_plus")

    def __init__(self, trace: SpinField, hat_plus: SpinField):
        if trace.spin != 0 or hat_plus.spin != 2:
            raise UnsupportedSpinError("SymTwoTensor needs spins (0, +2)")
        self.trace = trace
        self.hat_plus = hat_plus

    @classmethod
    def tracefree(cls, hat_plus: SpinField):
        """Tracefree tensor: a zero trace with the stack shape of hat_plus."""
        grid = hat_plus.grid
        zero = np.zeros(hat_plus.stack_shape + grid.shape)
        return cls(SpinField.from_coeffs(grid, 0, zero), hat_plus)

    def hat(self):
        return SymTwoTensor.tracefree(self.hat_plus)


# --------------------------------------------------------------------------
# pointwise tensor algebra
# --------------------------------------------------------------------------

def components(x):
    """(SpinField, weight) pairs with |x|^2 = sum w |c|^2 at every point,
    so that their weighted L2 squares sum to int |x|^2: weight 1 for a
    scalar, 2 for X_m, and 1/2 and 2 for the trace and T_mm of a symmetric
    2-tensor.  A plus component stands for its conjugate minus component
    too.  A list of such pairs is its own."""
    if isinstance(x, list):
        return x
    if isinstance(x, SpinField):
        return [(x, 1.0)]
    if isinstance(x, OneForm):
        return [(x.plus, 2.0)]
    if isinstance(x, SymTwoTensor):
        return [(x.trace, 0.5), (x.hat_plus, 2.0)]
    raise TypeError("expected a SpinField, OneForm or SymTwoTensor")


def rebuild(x, fn):
    """A field, 1-form or 2-tensor of the kind of x whose every stored
    component has the samples fn(samples of that component of x), at the
    component's spin: fn may differentiate along the stack or restack it."""
    if isinstance(x, SpinField):
        return SpinField.from_samples(x.grid, x.spin, fn(x.samples))
    return x._map(lambda c: rebuild(c, fn))


def magnitude(x):
    """Pointwise |x| as a real sample array, sqrt(sum w |c|^2) over the
    samples of components(x): no product is formed, so nothing of |x|^2
    is truncated."""
    if isinstance(x, SpinField):
        return np.abs(x.samples)
    return np.sqrt(sum(w * np.abs(c.samples) ** 2
                       for c, w in components(x)))


def lq_level(a, metric, q):
    """Leafwise L^q_g norm of the magnitudes a, one value per leaf."""
    if np.isinf(q):
        return np.max(a, axis=(-2, -1))
    return metric.grid.integrate(a ** q * metric.sqrt_det()) ** (1.0 / q)


def sizes(x, metric):
    """(max |x|, L2_g norm of x), one value per leaf of a stack: the size
    of a residual."""
    a = magnitude(x)
    return np.max(a, axis=(-2, -1)), lq_level(a, metric, 2)


def dot(a, b) -> SpinField:
    """Full contraction of two 1-forms (spin-0): 2 Re(a_m conj(b_m))."""
    if isinstance(a, OneForm) and isinstance(b, OneForm):
        return 2.0 * multiply(a.plus, b.minus).real()
    raise TypeError("dot expects two 1-forms")


def sym_otimes(a: OneForm, b: OneForm) -> SymTwoTensor:
    """Symmetrised tensor product a b + b a (carries its trace 2 a.b)."""
    return SymTwoTensor(2.0 * dot(a, b), 2.0 * multiply(a.plus, b.plus))


def dual(x):
    """Left Hodge dual of a 1-form; dual(dual(X)) = -X."""
    if isinstance(x, OneForm):
        return OneForm(-1j * x.plus)
    raise TypeError("dual expects a OneForm")


def contract(T: SymTwoTensor, a: OneForm) -> OneForm:
    """(T . a)_A = T_AB a_B, of plus part tr(T) a_m/2 + T_mm conj(a_m)."""
    return OneForm(0.5 * multiply(T.trace, a.plus)
                   + multiply(T.hat_plus, a.minus))


# --------------------------------------------------------------------------
# covariant operators for conformally-round metrics
# --------------------------------------------------------------------------

def eth_g(eta: SpinField, g: MetricRep) -> SpinField:
    """Conformal eth: e^{(s-1) psi} eth(e^{-s psi} eta)."""
    s = eta.spin
    inner = eth(multiply(g.conformal_factor(-s), eta)) if s != 0 else eth(eta)
    return multiply(g.conformal_factor(s - 1.0), inner)


def ethbar_g(eta: SpinField, g: MetricRep) -> SpinField:
    """Conformal ethbar: e^{-(s+1) psi} ethbar(e^{s psi} eta)."""
    s = eta.spin
    inner = ethbar(multiply(g.conformal_factor(s), eta)) if s != 0 \
        else ethbar(eta)
    return multiply(g.conformal_factor(-(s + 1.0)), inner)


def grad(f: SpinField, g: MetricRep) -> OneForm:
    """Gradient of a real scalar, (grad f)_m = e^{-psi} eth f / sqrt(2)."""
    return OneForm(multiply(g.conformal_factor(-1.0), eth(f)) * (1.0 / SQRT2))


def div(X: OneForm, g: MetricRep) -> SpinField:
    """Div X = sqrt(2) Re ethbar_g X_m."""
    return SQRT2 * ethbar_g(X.plus, g).real()


def div2(T: SymTwoTensor, g: MetricRep) -> OneForm:
    """Divergence of a symmetric 2-tensor."""
    return OneForm((ethbar_g(T.hat_plus, g) + 0.5 * eth_g(T.trace, g))
                   * (1.0 / SQRT2))


def laplacian(f: SpinField, g: MetricRep) -> SpinField:
    """Scalar Laplace-Beltrami; exact conformal covariance in 2D."""
    if f.spin != 0:
        raise UnsupportedSpinError("laplacian acts on spin-0 fields")
    return multiply(g.conformal_factor(-2.0), laplacian_round(f))


def hessian(f: SpinField, g: MetricRep) -> SymTwoTensor:
    """Covariant Hessian of a scalar, split into trace (= Delta_g f) and hat."""
    w2 = g.conformal_factor(-2.0)
    return SymTwoTensor(laplacian(f, g), 0.5 * eth(multiply(w2, eth(f))))


def mean(f: SpinField, g: MetricRep):
    """Average of f against the g-measure; one value per field of a stack."""
    dens = g.sqrt_det()
    x = f.samples
    re = g.grid.integrate(np.real(x) * dens)
    if np.iscomplexobj(x):
        im = g.grid.integrate(np.imag(x) * dens)
        if np.any(np.abs(im) > 1e-13 * (np.abs(re) + 1.0)):
            return (re + 1j * im) / g.area
    return re / g.area


# --------------------------------------------------------------------------
# Hodge system and Laplace inversion
# --------------------------------------------------------------------------

def hodge_D1(X: OneForm, g: MetricRep):
    """D1 X = (div X, curl X), from one conformal ethbar of X_m."""
    e = ethbar_g(X.plus, g)
    return SQRT2 * e.real(), SQRT2 * e.imag()


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
