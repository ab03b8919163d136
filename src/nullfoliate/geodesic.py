"""Geodesic-foliation data on the slab [1, s*] x S^2: container, generators, checks.

All tabulated quantities are physical spin components on Chebyshev-Gauss-
Lobatto nodes in s.  The geodesic lapse is identically 1, so the transversal
torsion is etab' = -zeta' throughout.

The slab is shear-free.  Every leaf is e^{2 psi'} times the round metric in
a chart fixed along the generators, so chi' = (trchi'/2) g': its tracefree
part chihat' vanishes, and with it, in vacuum, alpha' = -(nabla_L chihat'
+ trchi' chihat').  Neither is tabulated, and every term they would feed is
left out.

The GEOMETRY tables have one typed form, a Geometry of a leaf or a stack of
leaves: geometry_at gives it at any heights, slab() on the s-node leaves,
and a canonical reconstruction is one too.  The null structure equations
are stated once, on a Geometry, in the form that holds on every foliation
of the cone: gauss_codazzi the Gauss and Codazzi equations, and
null_transport the transport equations at any lapse and torsion etab.
validate applies both to the slab, and the residual suites of diagnostics
to a canonical reconstruction.
"""

from dataclasses import dataclass, field as dfield, fields, replace
from functools import cached_property

import numpy as np

from . import _cheb, container
from .errors import ConfigurationError
from .reports import ResidualReport
from .sphere import (GeneratorPack, Grid, SpinField, build_grid, eth,
                     interp_generator)
from .tensors import (MetricRep, OneForm, SymTwoTensor, contract, div, div2,
                      dot, grad, hodge_D1, multiply, rebuild, sizes)

# the tables of the geodesic geometry, in the order of their one generator
# read, with the spin weight of the component each tabulates: the required
# fields of a "geodesic_data" container
GEOMETRY = {name: spin for name, spin
            in container._KINDS["geodesic_data"][1].items()
            if name not in container._KINDS["geodesic_data"][2]}
# the tables of the lapse source without prescribed forcing (source_at)
LAPSE_SOURCE = ("psi", "trchi", "zeta", "beta", "rho")


@dataclass
class Geometry:
    """The geometry of one leaf or of a stack of leaves: the metric, the
    connection coefficients trchi, chib, zeta and the null curvature
    components beta, rho, sigma, betab."""

    metric: MetricRep
    trchi: SpinField
    chib: SymTwoTensor
    zeta: OneForm
    beta: OneForm
    rho: SpinField
    sigma: SpinField
    betab: OneForm

    @property
    def trchib(self):
        return self.chib.trace

    def __getitem__(self, idx):
        """Leaf or leaves idx of a stack, with every field of the type."""
        return type(self)(**{f.name: getattr(self, f.name)[idx]
                             for f in fields(self)})


def _geometry(metric, tables):
    """The Geometry of samples of the GEOMETRY tables, in that order;
    metric is that of their psi."""
    _, trchi, zeta, trchib, chibhat, beta, rho, sigma, betab = (
        SpinField.from_samples(metric.grid, spin, t)
        for spin, t in zip(GEOMETRY.values(), tables))
    return Geometry(metric, trchi, SymTwoTensor(trchib, chibhat),
                    OneForm(zeta), OneForm(beta), rho, sigma, OneForm(betab))


# --------------------------------------------------------------------------
# dataset
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class GeodesicNullData:
    """Geodesic-foliation data, tables (n_s, ntheta, nphi); frozen, as
    source_at packs the tables once: dataclasses.replace swaps a table."""

    grid: Grid
    s_nodes: np.ndarray
    psi: np.ndarray          # conformal factor: induced metric e^{2 psi} gring
    trchi: np.ndarray
    zeta: np.ndarray         # spin +1 component
    trchib: np.ndarray
    chibhat: np.ndarray      # spin +2 component
    beta: np.ndarray         # spin +1
    rho: np.ndarray
    sigma: np.ndarray
    betab: np.ndarray        # spin +1
    forcing_F1: np.ndarray = None   # prescribed elliptic source (manufactured data)
    exact: "MmsExact" = None
    meta: dict = dfield(default_factory=dict)

    @property
    def s_star(self):
        return float(self.s_nodes[-1])

    @property
    def has_prescribed_forcing(self):
        return self.forcing_F1 is not None

    # ---- evaluation at a graph height -----------------------------------
    # s_eval is one leaf of heights (ntheta, nphi) or a stack of leaves; a
    # stack gives stacked fields, tensors and metrics

    @cached_property
    def _source_pack(self):
        """The tables of source_at, packed once per dataset.  The pack is
        their one copy in memory: the pages of a table mapped from a file
        are released."""
        tables = [self.psi, self.forcing_F1] if self.has_prescribed_forcing \
            else [getattr(self, name) for name in LAPSE_SOURCE]
        pack = GeneratorPack(self.s_nodes, tables)
        container.release(*tables)
        return pack

    def source_at(self, s_eval):
        """psi' as real samples, then the prescribed forcing as a spin-0
        field, or else trchi', zeta', beta', rho' at their GEOMETRY spins
        (zeta' and beta' as 1-forms), at heights s_eval: what the lapse
        source of solver.assemble_F reads, in one read of the tables."""
        psi, *vals = interp_generator(self._source_pack, s_eval)
        if self.has_prescribed_forcing:
            return psi, SpinField.from_samples(self.grid, 0, vals[0])
        trchi, zeta, beta, rho = (
            SpinField.from_samples(self.grid, GEOMETRY[name], v)
            for name, v in zip(LAPSE_SOURCE[1:], vals))
        return psi, trchi, OneForm(zeta), OneForm(beta), rho

    def geometry_at(self, s_eval) -> Geometry:
        """The geodesic Geometry at heights s_eval, in one read.

        chi' is its trace (see the module docstring).  The GEOMETRY tables
        are packed per call and not kept, so a dataset holds no second copy
        of them between reconstructions.  Once packed, the pages of a table
        mapped from a file are released, so while the read runs the pack is
        their one resident copy; each field is copied out of the read,
        which is then freed.
        """
        tables = [getattr(self, name) for name in GEOMETRY]
        pack = GeneratorPack(self.s_nodes, tables)
        container.release(*tables)
        tables = [r.copy() for r in interp_generator(pack, s_eval)]
        return _geometry(MetricRep(self.grid, psi=np.real(tables[0])),
                         tables)

    # ---- geometry of the s-node leaves ----------------------------------
    # every s-node leaf at once, as one stack

    def slab(self) -> Geometry:
        """The Geometry of geometry_at on every s-node leaf, as one stack,
        over the tables themselves.  Not cached: its fields would keep the
        coefficients analysed from them alive."""
        return _geometry(MetricRep(self.grid, psi=np.real(self.psi)),
                         [getattr(self, name) for name in GEOMETRY])

    @cached_property
    def _dds(self):
        return _cheb.diff_matrix(self.s_nodes)

    def d_ds(self, table):
        """Spectral s-derivative of a tabulated field along the generators."""
        return np.tensordot(self._dds, table, axes=(1, 0))

    # ---- summary ---------------------------------------------------------

    def arrays(self):
        out = {name: getattr(self, name) for name in GEOMETRY}
        if self.has_prescribed_forcing:
            out["forcing_F1"] = self.forcing_F1
        if self.exact is not None:
            out["mms_G"] = self.exact.G
        return out


# --------------------------------------------------------------------------
# exact-spacetime generators
# --------------------------------------------------------------------------

def gen_minkowski(s_star=2.5, Lmax=15, n_s=32) -> GeodesicNullData:
    """Flat outgoing cone: psi' = log s, trchi' = 2/s, trchib' = -2/s."""
    return gen_schwarzschild(0.0, s_star=s_star, Lmax=Lmax, n_s=n_s,
                             _model="minkowski")


def gen_schwarzschild(M, s_star=2.5, Lmax=15, n_s=32,
                      _model="schwarzschild") -> GeodesicNullData:
    """Outgoing Eddington-Finkelstein cone with affine parameter r = s.

    trchib' = -(2/s)(1 - 2M/s) and rho' = -2M/s^3; all other connection and
    curvature components vanish.  M = 0 reproduces gen_minkowski bitwise.
    """
    if not (0.0 <= M < 0.25):
        raise ConfigurationError(f"mass M must satisfy 0 <= M < 0.25, got {M}")
    if not (1.0 < s_star <= 2.5):
        raise ConfigurationError(f"s_star must lie in (1, 2.5], got {s_star}")
    if n_s < 2:
        raise ConfigurationError(f"n_s must be at least 2, got {n_s}")
    grid = build_grid(Lmax)
    s_nodes = _cheb.cgl_nodes(n_s, 1.0, s_star)
    shape = (len(s_nodes),) + grid.shape
    cplx = lambda: np.zeros(shape, dtype=np.complex128)
    ones = np.ones(grid.shape)
    s3 = s_nodes[:, None, None]
    data = GeodesicNullData(
        grid=grid, s_nodes=s_nodes,
        psi=np.log(s3) * ones,
        trchi=(2.0 / s3) * ones,
        zeta=cplx(),
        trchib=(-(2.0 / s3) * (1.0 - 2.0 * M / s3)) * ones,
        chibhat=cplx(),
        beta=cplx(),
        rho=(-2.0 * M / s3 ** 3) * ones,
        sigma=np.zeros(shape), betab=cplx(),
        meta={"model": _model, "M": M, "s_star": s_star, "Lmax": Lmax,
              "n_s": n_s},
    )
    return data


# --------------------------------------------------------------------------
# manufactured solutions
# --------------------------------------------------------------------------

# the first level of the manufactured graph: the v = 1 at which
# solver.continue_foliation starts
MMS_V0 = 1.0
# p'(v) as polynomial coefficients in t = v - MMS_V0; the (t^2 - t)^2-shaped
# quartic part keeps max|p'| small on [0,1] (so |log Omega*| stays well
# under the 1/100 window-seed bound at epsilon = 1e-2) while its large
# fourth derivative drives a clean fourth-order quadrature signal
MMS_P_COEFFS = (1.01, 0.64, -3.04, 5.44, -4.05)
# Chebyshev nodes in v of the mean correction c(v)
MMS_N_CHEB = 48

@dataclass
class MmsSpec:
    """Parameters of the manufactured graph s*(v, omega).

    The exact solution is separable, s* = 1 + A(v) + eps B(v) G(omega), with
    dA/dv = e^{c(v)}, dB/dv = p'(v) e^{c(v)} and a scalar correction c(v) that
    enforces the zero-mean condition on log Omega* = -log(1 + eps p' G) - c.
    """

    epsilon: float = 1e-2
    Lmax: int = 23
    n_s: int = 40
    s_star: float = 2.5
    profile_l: int = 6
    profile_m: int = 4

    def __post_init__(self):
        if not 0.0 <= self.epsilon < np.inf:  # NaN fails it too
            raise ConfigurationError(
                f"epsilon must be non-negative and finite, got {self.epsilon}")
        if self.profile_l > self.Lmax:
            raise ConfigurationError("profile degree exceeds the band limit")


class MmsExact:
    """Sidecar evaluator of the exact manufactured foliation."""

    def __init__(self, grid, epsilon, v0, v_ext, A, B, c, p, G_samples,
                 profile_l, profile_m):
        self.grid = grid
        self.epsilon = float(epsilon)
        self.v0 = float(v0)
        self.v_ext = float(v_ext)
        self.A = A          # numpy Chebyshev objects on [v0, v_ext]
        self.B = B
        self.c = c
        self.p = p          # p'(v) as a Chebyshev object too
        self.G = np.real(G_samples)
        self.profile_l = profile_l
        self.profile_m = profile_m

    def s_exact(self, v):
        return 1.0 + self.A(v) + self.epsilon * self.B(v) * self.G

    def max_error(self, v_nodes, s):
        """Sup over the levels v_nodes of |s - s_exact(v)|; s per level."""
        return max(np.max(np.abs(s[i] - self.s_exact(v)))
                   for i, v in enumerate(v_nodes))

    def dvs_exact(self, v):
        ec = np.exp(self.c(v))
        return ec * (1.0 + self.epsilon * self.p(v) * self.G)

    def v_of_s(self, s_samples):
        """Invert the graph map per angular node (Newton, machine precision).

        s_samples is one leaf (ntheta, nphi) or a stack of leaves.  Each
        leaf stops at its first step below 1e-15 everywhere on it, so it
        gets the same bits alone and in any stack.
        """
        s = np.asarray(s_samples, dtype=float)
        v = np.clip(self.v0 + (s - 1.0), self.v0, self.v_ext)
        sl, vl = (x.reshape((-1,) + s.shape[-2:]) for x in (s, v))
        live = np.arange(len(vl))  # leaves still iterating
        for _ in range(60):
            vi = vl[live]
            r = (1.0 + self.A(vi) + self.epsilon * self.B(vi) * self.G) \
                - sl[live]
            step = r / self.dvs_exact(vi)
            vl[live] = np.clip(vi - step, self.v0, self.v_ext)
            live = live[~(np.max(np.abs(step), axis=(-2, -1)) < 1e-15)]
            if not live.size:
                break
        return vl.reshape(s.shape)

    def to_meta(self):
        return {
            "epsilon": self.epsilon, "v0": self.v0, "v_ext": self.v_ext,
            "A_coef": list(self.A.coef), "B_coef": list(self.B.coef),
            "c_coef": list(self.c.coef), "p_coef": list(self.p.coef),
            "profile_l": self.profile_l, "profile_m": self.profile_m,
        }

    @classmethod
    def from_meta(cls, grid, meta, G_samples):
        Ch = np.polynomial.chebyshev.Chebyshev
        dom = [meta["v0"], meta["v_ext"]]
        return cls(grid, meta["epsilon"], meta["v0"], meta["v_ext"],
                   Ch(np.asarray(meta["A_coef"]), domain=dom),
                   Ch(np.asarray(meta["B_coef"]), domain=dom),
                   Ch(np.asarray(meta["c_coef"]), domain=dom),
                   Ch(np.asarray(meta["p_coef"]), domain=dom),
                   G_samples, meta["profile_l"], meta["profile_m"])


def _real_harmonic_samples(grid, l, m):
    """sqrt(2) Re Y_lm as unit-L2 real samples (plain Y_l0 for m = 0)."""
    c = np.zeros((grid.Lmax + 1, 2 * grid.Lmax + 1), dtype=np.complex128)
    if m == 0:
        c[l, grid.Lmax] = 1.0
    else:
        c[l, grid.Lmax + m] = 1.0 / np.sqrt(2.0)
        c[l, grid.Lmax - m] = (-1.0) ** m / np.sqrt(2.0)
    return np.real(SpinField.from_coeffs(grid, 0, c).samples)


def gen_manufactured(spec: MmsSpec):
    """Manufactured dataset: flat-cone background plus prescribed forcing F'_1.

    Returns the dataset (with .exact attached) whose fixed point under the
    canonical-foliation iteration is the separable graph s*(v, omega).
    """
    grid = build_grid(spec.Lmax)
    Ch = np.polynomial.chebyshev.Chebyshev
    eps = spec.epsilon

    G = _real_harmonic_samples(grid, spec.profile_l, spec.profile_m)
    lapG = -spec.profile_l * (spec.profile_l + 1.0) * G
    Gf = SpinField.from_samples(grid, 0, G)
    ethG = eth(Gf).samples
    gradG2 = np.real(ethG * np.conj(ethG))  # |grad G|^2 on the round sphere

    # p'(v) as a Chebyshev object; v_ext generous enough that the inverse
    # graph map covers the whole slab [1, s_star]
    v_ext = MMS_V0 + (spec.s_star - 1.0) + 0.12
    dom = [MMS_V0, v_ext]
    nodes = _cheb.cgl_nodes(MMS_N_CHEB, MMS_V0, v_ext)
    t = nodes - MMS_V0
    p_vals = np.polynomial.polynomial.polyval(t, np.asarray(MMS_P_COEFFS))
    p = Ch(np.polynomial.chebyshev.Chebyshev.fit(
        nodes, p_vals, deg=len(MMS_P_COEFFS) - 1, domain=dom).coef, domain=dom)

    if np.min(1.0 + eps * p(nodes)[:, None, None] * G) <= 0.0:
        raise ConfigurationError("manufactured graph is not monotone in v")

    # mean-correction c(v): iterate c -> -mean_{g(s*)} log(1 + eps p' G),
    # at every node at once (node axis first)
    hgrid = build_grid(max(2 * spec.profile_l + 3, 31))
    Gh = _real_harmonic_samples(hgrid, spec.profile_l, spec.profile_m)
    w = hgrid.weights[:, None] / hgrid.nphi
    val = np.log1p(eps * p(nodes)[:, None, None] * Gh)

    def primitives(c):
        """A and B of the graph 1 + A(v) + eps B(v) G under the mean
        correction c: the integrals from MMS_V0 of e^c and p' e^c."""
        ec = np.exp(c(nodes))
        return [Ch(_cheb.values_to_cheb(f, *dom).coef,
                   domain=dom).integ(lbnd=MMS_V0) for f in (ec, p_vals * ec)]

    c = Ch(np.zeros(1), domain=dom)
    for _ in range(40):
        A, B = primitives(c)
        s = 1.0 + A(nodes)[:, None, None] + eps * B(nodes)[:, None, None] * Gh
        wgt = w * s ** 2
        cv = -np.sum(val * wgt, axis=(1, 2)) / np.sum(wgt, axis=(1, 2))
        cnew = Ch(_cheb.values_to_cheb(cv, *dom).coef, domain=dom)
        delta = np.max(np.abs(cnew(nodes) - c(nodes)))
        c = cnew
        if delta < 1e-15:
            break
    A, B = primitives(c)

    exact = MmsExact(grid, eps, MMS_V0, v_ext, A, B, c, p, G,
                     spec.profile_l, spec.profile_m)

    if exact.s_exact(v_ext).min() < spec.s_star - 1e-9:
        raise ConfigurationError("v_ext does not cover the slab; enlarge it")

    # background: flat cone; prescribed forcing F'_1(sigma, omega)
    base = gen_minkowski(s_star=spec.s_star, Lmax=spec.Lmax, n_s=spec.n_s)
    s_nodes = base.s_nodes
    sig = s_nodes[:, None, None]
    epv = eps * p(exact.v_of_s(np.broadcast_to(sig, (spec.n_s,) + grid.shape)))
    xi = epv * G
    lap_log = epv / (1.0 + xi) * lapG - epv ** 2 / (1.0 + xi) ** 2 * gradG2
    return replace(base, forcing_F1=-lap_log / sig ** 2, exact=exact, meta={
        **base.meta, "model": "mms", "mms": exact.to_meta()}), exact


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def gauss_codazzi(geo: Geometry):
    """Residual fields of the Gauss equation and the two Codazzi equations
    of a Geometry (as geometry_at and slab give, or a reconstruction):

        gauss         K + trchi trchib/4 + rho
        codazzi_chi   -grad trchi/2 - zeta trchi/2 + beta
        codazzi_chib  Div chibhat - grad trchib/2 - zeta.chibhat
                      + zeta trchib/2 - betab
    """
    metric, trchi, trchib, zeta = geo.metric, geo.trchi, geo.trchib, geo.zeta
    chibhat = geo.chib.hat()
    return {
        "gauss": metric.gauss_curvature()
        + 0.25 * multiply(trchi, trchib) + geo.rho,
        "codazzi_chi": -0.5 * grad(trchi, metric) - 0.5 * (trchi * zeta)
        + geo.beta,
        "codazzi_chib": div2(chibhat, metric) - 0.5 * grad(trchib, metric)
        - contract(chibhat, zeta) + 0.5 * (trchib * zeta) - geo.betab,
    }


def null_transport(geo: Geometry, etab, mu, dL):
    """Residual fields of the null transport equations of a Geometry with
    torsion etab and mass aspect mu, in the form that holds at any lapse
    (nabla_L along the generators of the foliation):

        raychaudhuri      nabla_L trchi + trchi^2/2
        zeta_transport    nabla_L zeta + trchi (zeta - etab)/2 + beta
        trchib_transport  nabla_L trchib + trchi trchib/2
                          - (2 Div etab + 2 rho + 2|etab|^2)
        mu_transport      nabla_L mu + trchi mu - (-2 zeta.beta
                          + (zeta - etab).grad trchi
                          + trchi (|zeta|^2 - zeta.etab - |etab|^2/2)
                          + trchi rho/2 - trchi Div etab/2)
        rho_bianchi       nabla_L rho + (3/2) trchi rho - Div beta
                          - zeta.beta - 2 etab.beta

    dL maps "trchi", "zeta", "trchib", "mu" and "rho" to the
    L-derivatives of those fields.  The geodesic foliation has etab' =
    -zeta' and nabla_L = d_s; a canonical one fixes Div etab = -Div zeta -
    Delta log Omega by its lapse equation, which the constraint suite
    measures apart.
    """
    metric, trchi, zeta, beta, rho = (geo.metric, geo.trchi, geo.zeta,
                                      geo.beta, geo.rho)
    div_etab = div(etab, metric)
    return {
        "raychaudhuri": dL["trchi"] + 0.5 * multiply(trchi, trchi),
        "zeta_transport": dL["zeta"] + 0.5 * (trchi * (zeta - etab)) + beta,
        "trchib_transport": dL["trchib"] + 0.5 * multiply(trchi, geo.trchib)
        - (2.0 * div_etab + 2.0 * rho + 2.0 * dot(etab, etab)),
        "mu_transport": dL["mu"] + multiply(trchi, mu)
        - (-2.0 * dot(zeta, beta) + dot(zeta - etab, grad(trchi, metric))
           + multiply(trchi, dot(zeta, zeta) - dot(zeta, etab)
                      - 0.5 * dot(etab, etab))
           + 0.5 * multiply(trchi, rho) - 0.5 * multiply(trchi, div_etab)),
        "rho_bianchi": dL["rho"] + 1.5 * multiply(trchi, rho)
        - div(beta, metric) - dot(zeta, beta) - 2.0 * dot(etab, beta),
    }


def validate(data: GeodesicNullData) -> ResidualReport:
    """Residuals of the geodesic null structure equations over the slab.

    s-derivatives are spectral (Chebyshev); every s-node leaf is checked at
    once, as one stack (data.slab()), and each equation is reported per
    s-node with the max and L2 norms of tensors.sizes, the sizes the
    residual suites report.  The transport equations are null_transport at
    etab' = -zeta', mu' = -rho' - Div zeta' and nabla_L = d_s.  The
    report's tolerance is the one a generated dataset must meet.
    """
    rep = ResidualReport(1e-8)
    geo = data.slab()
    met, ze = geo.metric, geo.zeta
    div_ze, curl_ze = hodge_D1(ze, met)
    mu = -1.0 * geo.rho - div_ze

    # first variation d_s g' = 2 chi': with g' = e^{2 psi} gring and the
    # shear-free chi' = (trchi'/2) g' (module docstring), the whole equation
    e2psi = np.exp(2.0 * data.psi)
    sized = {"first_variation": sizes(SpinField.from_samples(
        data.grid, 0, data.d_ds(e2psi) - data.trchi * e2psi), met)}
    sized.update((name, sizes(x, met))
                 for name, x in gauss_codazzi(geo).items())
    # torsion: curl zeta = sigma
    sized["torsion"] = sizes(curl_ze - geo.sigma, met)
    dL = {name: rebuild(x, data.d_ds) for name, x in (
        ("trchi", geo.trchi), ("zeta", ze), ("trchib", geo.trchib),
        ("mu", mu), ("rho", geo.rho))}
    sized.update((name, sizes(x, met)) for name, x in null_transport(
        geo, -1.0 * ze, mu, dL).items())

    rep.add_levels(data.s_nodes, sized)
    return rep


# --------------------------------------------------------------------------
# persistence
# --------------------------------------------------------------------------

def save(data: GeodesicNullData, path):
    """Write the dataset as a "geodesic_data" container (see container)."""
    container.write(path, "geodesic_data", data.grid.Lmax, data.s_nodes,
                    data.arrays(), meta=data.meta)


def load(path) -> GeodesicNullData:
    """Read a dataset written by save(); validated, bit-exact roundtrip."""
    c = container.read(path, "geodesic_data")
    G = c.fields.pop("mms_G", None)
    exact = None if "mms" not in c.meta or G is None \
        else MmsExact.from_meta(c.grid, c.meta["mms"], G)
    return GeodesicNullData(grid=c.grid, s_nodes=c.nodes, meta=c.meta,
                            exact=exact, **c.fields)
