"""Geodesic-foliation data on the slab [1, s*] x S^2: container, generators, checks.

All tabulated quantities are physical spin components on Chebyshev-Gauss-
Lobatto nodes in s.  The geodesic lapse is identically 1, so the transversal
torsion is etab' = -zeta' throughout.
"""

from dataclasses import dataclass, field as dfield
from functools import cached_property

import numpy as np

from . import _cheb, container
from .errors import ConfigurationError
from .reports import ResidualReport
from .sphere import (GeneratorPack, Grid, SpinField, build_grid, eth,
                     interp_generator)
from .tensors import (MetricRep, OneForm, SymTwoTensor, contract, curl, div,
                      div2, dot, grad, multiply, wedge)


# --------------------------------------------------------------------------
# dataset
# --------------------------------------------------------------------------

@dataclass
class GeodesicNullData:
    """Tabulated geodesic-foliation data; fields are (n_s, ntheta, nphi) arrays."""

    grid: Grid
    s_nodes: np.ndarray
    psi: np.ndarray          # conformal factor: induced metric e^{2 psi} gring
    trchi: np.ndarray
    chihat: np.ndarray       # spin +2 component
    zeta: np.ndarray         # spin +1 component
    trchib: np.ndarray
    chibhat: np.ndarray      # spin +2 component
    alpha: np.ndarray        # spin +2
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

    def _interp(self, table, s_eval):
        return interp_generator(table, self.s_nodes, s_eval)

    def psi_at(self, s_eval):
        return np.real(self._interp(self.psi, s_eval))

    def metric_at(self, s_eval) -> MetricRep:
        return MetricRep(self.grid, psi=SpinField.from_samples(
            self.grid, 0, self.psi_at(s_eval)))

    def scalar_at(self, table, s_eval) -> SpinField:
        return SpinField.from_samples(self.grid, 0, self._interp(table, s_eval))

    def _oneform(self, plus) -> OneForm:
        return OneForm(SpinField.from_samples(self.grid, 1, plus),
                       SpinField.from_samples(self.grid, -1, np.conj(plus)))

    def _symtensor(self, tr, hat) -> SymTwoTensor:
        return SymTwoTensor(SpinField.from_samples(self.grid, 0, tr),
                            SpinField.from_samples(self.grid, 2, hat),
                            SpinField.from_samples(self.grid, -2, np.conj(hat)))

    def oneform_at(self, table_plus, s_eval) -> OneForm:
        return self._oneform(self._interp(table_plus, s_eval))

    def symtensor_at(self, trace_table, hat_table, s_eval) -> SymTwoTensor:
        return self._symtensor(self._interp(trace_table, s_eval),
                               self._interp(hat_table, s_eval))

    @cached_property
    def _source_pack(self):
        tables = [self.psi, self.F1_table]
        if not self.has_prescribed_forcing:
            tables += [self.F2_table, *self.F3_tables, *self.F4_tables]
        return GeneratorPack(self.s_nodes, tables)

    def source_at(self, s_eval):
        """(psi, F1, F2, F3, F4) of the lapse equation at heights s_eval.

        s_eval is one leaf (ntheta, nphi) or a stack of leaves.  One set of
        barycentric weights serves every table (see GeneratorPack).  psi is
        returned as real samples, F1 as a spin-0 field, F2 as a 1-form and
        F3, F4 as symmetric 2-tensors; F2..F4 are None under prescribed
        forcing, where the source is F1 alone.
        """
        vals = self._source_pack(s_eval)
        F1 = SpinField.from_samples(self.grid, 0, vals[1])
        if self.has_prescribed_forcing:
            return vals[0], F1, None, None, None
        _, _, F2, tr3, hat3, tr4, hat4 = vals
        return (vals[0], F1, self._oneform(F2), self._symtensor(tr3, hat3),
                self._symtensor(tr4, hat4))

    def chi_at(self, s_eval) -> SymTwoTensor:
        return self.symtensor_at(self.trchi, self.chihat, s_eval)

    def chib_at(self, s_eval) -> SymTwoTensor:
        return self.symtensor_at(self.trchib, self.chibhat, s_eval)

    def zeta_at(self, s_eval) -> OneForm:
        return self.oneform_at(self.zeta, s_eval)

    def curvature_at(self, s_eval):
        """(alpha, beta, rho, sigma, betab) at height s."""
        g = self.grid
        alpha_p = self._interp(self.alpha, s_eval)
        alpha = SymTwoTensor(SpinField.zero(g, 0),
                             SpinField.from_samples(g, 2, alpha_p),
                             SpinField.from_samples(g, -2, np.conj(alpha_p)))
        beta = self.oneform_at(self.beta, s_eval)
        rho = self.scalar_at(self.rho, s_eval)
        sigma = self.scalar_at(self.sigma, s_eval)
        betab = self.oneform_at(self.betab, s_eval)
        return alpha, beta, rho, sigma, betab

    # ---- per-node geometry and derived tables ---------------------------

    def node_metric(self, i) -> MetricRep:
        return MetricRep(self.grid, psi=SpinField.from_samples(
            self.grid, 0, np.real(self.psi[i])))

    def _node_oneform(self, table, i):
        return self._oneform(table[i])

    def _node_sym(self, tr_table, hat_table, i):
        return self._symtensor(tr_table[i], hat_table[i])

    @cached_property
    def _dds(self):
        return _cheb.diff_matrix(self.s_nodes)

    def d_ds(self, table):
        """Spectral s-derivative of a tabulated field along the generators."""
        return np.tensordot(self._dds, table, axes=(1, 0))

    @cached_property
    def div_zeta_table(self):
        out = np.empty_like(self.zeta[..., :], dtype=np.complex128)
        for i in range(len(self.s_nodes)):
            g = self.node_metric(i)
            out[i] = div(self._node_oneform(self.zeta, i), g).samples
        return out

    @cached_property
    def div_chi_table(self):
        """Plus component of Div' chi' (full tensor) per node."""
        out = np.empty_like(self.zeta)
        for i in range(len(self.s_nodes)):
            g = self.node_metric(i)
            chi = self._node_sym(self.trchi, self.chihat, i)
            out[i] = div2(chi, g).plus.samples
        return out

    @cached_property
    def F1_table(self):
        """F'_1 = -Div' zeta' + rho' - (1/2) chihat' . chibhat' per node."""
        if self.has_prescribed_forcing:
            return np.asarray(self.forcing_F1, dtype=np.complex128)
        out = np.empty_like(self.rho, dtype=np.complex128)
        for i in range(len(self.s_nodes)):
            hdot = self._node_sym(np.zeros_like(self.trchi), self.chihat, i)
            hbdot = self._node_sym(np.zeros_like(self.trchib), self.chibhat, i)
            quad = dot(hdot, hbdot).samples
            out[i] = -self.div_zeta_table[i] + self.rho[i] - 0.5 * quad
        return out

    @cached_property
    def F2_table(self):
        """Plus component of the 1-form coefficient of Upsilon in the source.

        F'_2 = -nabla'_L zeta' - trchi' zeta' + chi'.zeta' - Div'chi' + beta'
               + 2 chihat'.zeta'.
        """
        if self.has_prescribed_forcing:
            return np.zeros_like(self.zeta)
        dz = self.d_ds(self.zeta)
        out = np.empty_like(self.zeta)
        for i in range(len(self.s_nodes)):
            chi = self._node_sym(self.trchi, self.chihat, i)
            ze = self._node_oneform(self.zeta, i)
            chi_ze = contract(chi, ze).plus.samples
            hat_ze = contract(chi.hat(), ze).plus.samples
            out[i] = (-dz[i] - self.trchi[i] * self.zeta[i] + chi_ze
                      - self.div_chi_table[i] + self.beta[i] + 2.0 * hat_ze)
        return out

    @cached_property
    def F3_tables(self):
        """(g-trace table, hat table) of the Upsilon.Upsilon source coefficient.

        Derived from the projection calculus with the geodesic transport
        equations substituted: F'_3 = 2 alpha' + [trchi'^2/4 + 2|chihat'|^2] g'.
        """
        if self.has_prescribed_forcing:
            return np.zeros_like(self.rho), np.zeros_like(self.alpha)
        chihat_sq = 2.0 * np.abs(self.chihat) ** 2  # |chihat'|^2 pointwise
        iso = 0.25 * self.trchi ** 2 + 2.0 * chihat_sq
        return 2.0 * iso, 2.0 * self.alpha

    @cached_property
    def F4_tables(self):
        """(g-trace table, hat table) of the coefficient contracting Hess s.

        F'_4 = -(1/2) trchi' g' - 2 chihat', so the g-trace is -trchi'.
        """
        if self.has_prescribed_forcing:
            return np.zeros_like(self.rho), np.zeros_like(self.alpha)
        return -self.trchi, -2.0 * self.chihat

    # ---- summary ---------------------------------------------------------

    def arrays(self):
        out = {
            "psi": self.psi, "trchi": self.trchi, "chihat": self.chihat,
            "zeta": self.zeta, "trchib": self.trchib, "chibhat": self.chibhat,
            "alpha": self.alpha, "beta": self.beta, "rho": self.rho,
            "sigma": self.sigma, "betab": self.betab,
        }
        if self.forcing_F1 is not None:
            out["forcing_F1"] = self.forcing_F1
        if self.exact is not None:
            out["mms_G"] = self.exact.G
        return out


# --------------------------------------------------------------------------
# exact-spacetime generators
# --------------------------------------------------------------------------

def _empty_tables(grid, s_nodes):
    shape = (len(s_nodes),) + grid.shape
    real = lambda: np.zeros(shape)
    cplx = lambda: np.zeros(shape, dtype=np.complex128)
    return real, cplx


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
    grid = build_grid(Lmax)
    s_nodes = _cheb.cgl_nodes(n_s, 1.0, s_star)
    real, cplx = _empty_tables(grid, s_nodes)
    ones = np.ones(grid.shape)
    s3 = s_nodes[:, None, None]
    data = GeodesicNullData(
        grid=grid, s_nodes=s_nodes,
        psi=np.log(s3) * ones,
        trchi=(2.0 / s3) * ones,
        chihat=cplx(),
        zeta=cplx(),
        trchib=(-(2.0 / s3) * (1.0 - 2.0 * M / s3)) * ones,
        chibhat=cplx(),
        alpha=cplx(), beta=cplx(),
        rho=(-2.0 * M / s3 ** 3) * ones,
        sigma=real(), betab=cplx(),
        meta={"model": _model, "M": M, "s_star": s_star, "Lmax": Lmax,
              "n_s": n_s},
    )
    return data


# --------------------------------------------------------------------------
# manufactured solutions
# --------------------------------------------------------------------------

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
    v0: float = 1.0
    profile_l: int = 6
    profile_m: int = 4
    # p'(v) as polynomial coefficients in t = v - v0; the (t^2 - t)^2-shaped
    # quartic part keeps max|p'| small on [0,1] (so |log Omega*| stays well
    # under the 1/100 window-seed bound at epsilon = 1e-2) while its large
    # fourth derivative drives a clean fourth-order quadrature signal
    p_coeffs: tuple = (1.01, 0.64, -3.04, 5.44, -4.05)
    n_cheb: int = 48

    def __post_init__(self):
        if self.epsilon < 0:
            raise ConfigurationError("epsilon must be non-negative")
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

    def dvs_exact(self, v):
        ec = np.exp(self.c(v))
        return ec * (1.0 + self.epsilon * self.p(v) * self.G)

    def log_omega_exact(self, v):
        return -np.log1p(self.epsilon * self.p(v) * self.G) - self.c(v)

    def v_of_s(self, s_samples):
        """Invert the graph map per angular node (Newton, machine precision)."""
        s = np.asarray(s_samples, dtype=float)
        v = np.clip(self.v0 + (s - 1.0), self.v0, self.v_ext)
        for _ in range(60):
            r = (1.0 + self.A(v) + self.epsilon * self.B(v) * self.G) - s
            dv = self.dvs_exact(v)
            step = r / dv
            v = np.clip(v - step, self.v0, self.v_ext)
            if np.max(np.abs(step)) < 1e-15:
                break
        return v

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
    v_ext = spec.v0 + (spec.s_star - 1.0) + 0.12
    dom = [spec.v0, v_ext]
    nodes = _cheb.cgl_nodes(spec.n_cheb, spec.v0, v_ext)
    t = nodes - spec.v0
    p_vals = np.polynomial.polynomial.polyval(t, np.asarray(spec.p_coeffs))
    p = Ch(np.polynomial.chebyshev.Chebyshev.fit(
        nodes, p_vals, deg=len(spec.p_coeffs) - 1, domain=dom).coef, domain=dom)

    if np.min(1.0 + eps * p(nodes)[:, None, None] * G) <= 0.0:
        raise ConfigurationError("manufactured graph is not monotone in v")

    # mean-correction c(v): iterate c -> -mean_{g(s*)} log(1 + eps p' G)
    hgrid = build_grid(max(2 * spec.profile_l + 3, 31))
    Gh = _real_harmonic_samples(hgrid, spec.profile_l, spec.profile_m)
    w = hgrid.weights[:, None] / hgrid.nphi
    c = Ch(np.zeros(1), domain=dom)
    for _ in range(40):
        ec = np.exp(c(nodes))
        A = Ch(_cheb.values_to_cheb(ec, *dom).coef, domain=dom).integ(lbnd=spec.v0)
        B = Ch(_cheb.values_to_cheb(p_vals * ec, *dom).coef,
               domain=dom).integ(lbnd=spec.v0)
        cv = np.empty(spec.n_cheb)
        for i, v in enumerate(nodes):
            s = 1.0 + A(v) + eps * B(v) * Gh
            wgt = w * s ** 2
            val = np.log1p(eps * p(v) * Gh)
            cv[i] = -np.sum(val * wgt) / np.sum(wgt)
        cnew = Ch(_cheb.values_to_cheb(cv, *dom).coef, domain=dom)
        delta = np.max(np.abs(cnew(nodes) - c(nodes)))
        c = cnew
        if delta < 1e-15:
            break
    ec = np.exp(c(nodes))
    A = Ch(_cheb.values_to_cheb(ec, *dom).coef, domain=dom).integ(lbnd=spec.v0)
    B = Ch(_cheb.values_to_cheb(p_vals * ec, *dom).coef,
           domain=dom).integ(lbnd=spec.v0)

    exact = MmsExact(grid, eps, spec.v0, v_ext, A, B, c, p, G,
                     spec.profile_l, spec.profile_m)

    if exact.s_exact(v_ext).min() < spec.s_star - 1e-9:
        raise ConfigurationError("v_ext does not cover the slab; enlarge it")

    # background: flat cone; prescribed forcing F'_1(sigma, omega)
    base = gen_minkowski(s_star=spec.s_star, Lmax=spec.Lmax, n_s=spec.n_s)
    s_nodes = base.s_nodes
    F1 = np.empty((spec.n_s,) + grid.shape)
    for i, sig in enumerate(s_nodes):
        v = exact.v_of_s(np.full(grid.shape, sig))
        xi = eps * p(v) * G
        lap_log = eps * p(v) / (1.0 + xi) * lapG \
            - (eps * p(v)) ** 2 / (1.0 + xi) ** 2 * gradG2
        F1[i] = -lap_log / sig ** 2
    base.forcing_F1 = F1
    base.exact = exact
    base.meta.update({"model": "mms", "mms": exact.to_meta()})
    return base, exact


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

def validate(data: GeodesicNullData, tolerance=1e-9) -> ResidualReport:
    """Residuals of the geodesic null structure equations over the slab.

    s-derivatives are spectral (Chebyshev); each equation is reported per
    s-node with max and L2(round) norms.
    """
    rep = ResidualReport(tolerance_used=tolerance)
    g = data.grid
    n = len(data.s_nodes)

    d_e2psi = data.d_ds(np.exp(2.0 * data.psi))
    d_trchi = data.d_ds(data.trchi)
    d_chihat = data.d_ds(data.chihat)
    d_trchib = data.d_ds(data.trchib)
    d_rho = data.d_ds(data.rho)

    def record(name, i, samples):
        f = np.asarray(samples)
        mx = float(np.max(np.abs(f)))
        l2 = float(np.sqrt(max(g.integrate(np.abs(f) ** 2), 0.0)))
        rep.add(name, data.s_nodes[i], mx, l2)

    for i in range(n):
        met = data.node_metric(i)
        chi = data._node_sym(data.trchi, data.chihat, i)
        chib = data._node_sym(data.trchib, data.chibhat, i)
        chihat = chi.hat()
        chibhat = chib.hat()
        ze = data._node_oneform(data.zeta, i)
        be = data._node_oneform(data.beta, i)
        bb = data._node_oneform(data.betab, i)
        al = SymTwoTensor(SpinField.zero(g, 0),
                          SpinField.from_samples(g, 2, data.alpha[i]),
                          SpinField.from_samples(g, -2, np.conj(data.alpha[i])))
        rho = SpinField.from_samples(g, 0, data.rho[i])
        sig = SpinField.from_samples(g, 0, data.sigma[i])

        # first variation (trace part; the conformal representation is exact
        # only for shear-free coordinate flows)
        record("first_variation", i,
               d_e2psi[i] - data.trchi[i] * np.exp(2.0 * data.psi[i]))
        # Raychaudhuri
        ray = d_trchi[i] + 0.5 * data.trchi[i] ** 2 \
            + np.real(chihat.norm2().samples)
        record("raychaudhuri", i, ray)
        # chihat transport: d_s chihat + trchi chihat = -alpha
        record("chihat_transport", i,
               d_chihat[i] + data.trchi[i] * data.chihat[i] + data.alpha[i])
        # Codazzi (chi): Div chihat - grad trchi/2 + zeta.chihat - zeta trchi/2 + beta
        trchi_f = SpinField.from_samples(g, 0, data.trchi[i])
        cod1 = div2(chihat, met).plus - 0.5 * grad(trchi_f, met).plus \
            + contract(chihat, ze).plus - 0.5 * multiply(trchi_f, ze.plus) \
            + be.plus
        record("codazzi_chi", i, cod1.samples)
        # Codazzi (chib): Div chibhat - grad trchib/2 - zeta.chibhat
        #                 + zeta trchib/2 - betab
        trchib_f = SpinField.from_samples(g, 0, data.trchib[i])
        cod2 = div2(chibhat, met).plus - 0.5 * grad(trchib_f, met).plus \
            - contract(chibhat, ze).plus + 0.5 * multiply(trchib_f, ze.plus) \
            - bb.plus
        record("codazzi_chib", i, cod2.samples)
        # Gauss: K + trchi trchib/4 + rho - chihat.chibhat/2 = 0
        K = met.gauss_curvature()
        gauss = K + 0.25 * multiply(trchi_f, trchib_f) + rho \
            - 0.5 * dot(chihat, chibhat)
        record("gauss", i, gauss.samples)
        # torsion: curl zeta = sigma - chihat ^ chibhat / 2
        torsion = curl(ze, met) - sig + 0.5 * wedge(chihat, chibhat)
        record("torsion", i, torsion.samples)
        # Bianchi rho-transport (geodesic, etab' = -zeta'):
        # d_s rho + (3/2) trchi rho = Div beta - chibhat.alpha/2 - zeta.beta
        bianchi = SpinField.from_samples(g, 0, d_rho[i]) \
            + 1.5 * multiply(trchi_f, rho) \
            - div(be, met) + 0.5 * dot(chibhat, al) + dot(ze, be)
        record("bianchi_rho", i, bianchi.samples)
        # trchib transport (geodesic form):
        # d_s trchib + trchi trchib/2 = -2 Div zeta + 2(rho - chihat.chibhat/2)
        #                               + 2|zeta|^2
        tb = SpinField.from_samples(g, 0, d_trchib[i]) \
            + 0.5 * multiply(trchi_f, trchib_f) \
            + 2.0 * div(ze, met) - 2.0 * rho + dot(chihat, chibhat) \
            - 2.0 * dot(ze, ze)
        record("trchib_transport", i, tb.samples)

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
    data = GeodesicNullData(grid=c.grid, s_nodes=c.nodes, meta=c.meta,
                            **c.fields)
    if "mms" in data.meta and G is not None:
        data.exact = MmsExact.from_meta(c.grid, data.meta["mms"], G)
    return data
