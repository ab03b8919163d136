"""What verify and norms compute: the constraint and transport residual
suites, the Littlewood-Paley/Besov/Sobolev norms of the norm suite, and the
v-convergence study.

canonical() is the one place that turns a foliation into its canonical
geometry: one reconstruct call on the chosen levels, as one stack.  The
residual suites take that reconstruction (and the dataset where it reads
it) instead of the foliation, so verify builds it once and hands it to both;
the levels, dv and the lapse come from co.v and co.logOmega.  The norm
suite takes the foliation and builds the reconstruction after its geodesic
side.  Residuals are stack expressions over the levels (see sphere and
tensors), reported one row per level.  The equations are those
geodesic.validate checks, stated once in geodesic on a geodesic.Geometry,
which a reconstruction is: the Gauss and Codazzi rows are
gauss_codazzi(co), and the transport rows null_transport in its general
form, at the canonical etab and mu.  The one condition that makes the
foliation canonical, the lapse equation, is measured once, by the
constraint suite: lapse_equation and div_etab share its prescribed Delta
log Omega.

The norm suite measures both foliations with one recipe: one function each
forms their I_S1 and R entries from a Geometry (the geodesic slab or the
reconstruction), and along the generators both integrate a stack of leaves
with one quadrature, Clenshaw-Curtis on the s-nodes of the dataset and
Simpson on the v-levels of the reconstruction.

Every size on a leaf's own measure is taken from a pointwise magnitude,
tensors.magnitude: |x| = sqrt(sum w |c|^2) over the samples of the stored
components, with the one set of weights of tensors.components.  No product
is formed for it, so nothing of |x|^2 above the band limit is dropped.  A
residual row is tensors.sizes of its field, as in geodesic.validate.  A
norm on the round reference (H^s, B^0) is tensors.spectral_l2, a weighted
sum over l of the per-degree power spectrum of the same components
(Parseval), so no piece is synthesised for it.  The dyadic partition is
stated once, lp_partition: B^0 weights the spectrum by its squared
multipliers, and P^0_v and Q^{1/2}_v, which measure the pieces on the leaf
metrics, project and synthesise each piece once for both.

Transport residuals differentiate the reconstructed spin components along the
generators, nabla_L = Omega d/dv at fixed angle, with centered finite
differences (8th order when enough levels exist); levels inside the stencil
margin are excluded from the reported rows.  Everything else is spectral.
"""

from dataclasses import replace

import numpy as np

from . import _cheb
from .comparison import mass_aspect, reconstruct
from .errors import ConfigurationError
from .geodesic import gauss_codazzi, null_transport
from .reports import NormReport, ResidualReport
from .sphere import SpinField, eth, ethbar
from .tensors import (components, div, grad, hodge_D1, laplacian, lq_level,
                      magnitude, mean, multiply, rebuild, sizes, spectral_l2)

_FD8 = np.array([1.0 / 280, -4.0 / 105, 1.0 / 5, -4.0 / 5, 0.0,
                 4.0 / 5, -1.0 / 5, 4.0 / 105, -1.0 / 280])
_FD4 = np.array([1.0 / 12, -2.0 / 3, 0.0, 2.0 / 3, -1.0 / 12])


def _fd_stencil(n_levels):
    if n_levels >= 9:
        return _FD8, 4
    if n_levels >= 5:
        return _FD4, 2
    raise ConfigurationError("transport residuals need at least 5 v-levels")


def v_derivative(table, dv, n_levels):
    """Centered interior v-derivative of a per-level array; (deriv, margin)."""
    coeffs, margin = _fd_stencil(n_levels)
    table = np.asarray(table)
    out = np.zeros_like(table)
    for off, c in zip(range(-margin, margin + 1), coeffs):
        if c == 0.0:
            continue
        out[margin:n_levels - margin] += c * table[margin + off:
                                                   n_levels - margin + off]
    return out / dv, margin


def canonical(foliation, levels=slice(None)):
    """The canonical geometry of the given levels (a slice or an index list)
    of a foliation, as one stack: the reconstruction every suite takes."""
    return reconstruct(foliation.data, foliation.s_field(levels),
                       foliation.logOmega_field(levels),
                       foliation.v_nodes[levels])


def _dv(co):
    """The v-step of a reconstruction on uniform levels."""
    return float(co.v[1] - co.v[0])


def _omega(co):
    """Omega on every level of a reconstruction."""
    return np.exp(np.real(co.logOmega.samples))


# --------------------------------------------------------------------------
# constraint residuals (per-level, no v-differencing)
# --------------------------------------------------------------------------

def constraint_residuals(data, co, tolerance=1e-10) -> ResidualReport:
    """Residuals of the elliptic/Hodge-type canonical structure equations
    on every level of the reconstruction co of a foliation of data."""
    rep = ResidualReport(tolerance)
    g = co.metric
    div_zeta, curl_zeta = hodge_D1(co.zeta, g)

    # the prescribed Delta log Omega: the forcing F - mean F of manufactured
    # data, else the canonical lapse equation's rho - mean rho - Div zeta
    if data.has_prescribed_forcing:
        F = data.source_at(np.real(co.s.samples))[1]
        rhs = F - SpinField.constant(g.grid, mean(F, g))
    else:
        rhs = co.rho - SpinField.constant(g.grid, mean(co.rho, g)) - div_zeta
    sized = {"lapse_equation": sizes(laplacian(co.logOmega, g) - rhs, g)}

    for name, residual in gauss_codazzi(co).items():
        sized[name] = sizes(residual, g)

    sized["torsion"] = sizes(curl_zeta - co.sigma, g)
    # Div etab = -Div zeta - Delta log Omega, with the prescribed value
    sized["div_etab"] = sizes(div(co.etab, g) + div_zeta + rhs, g)
    sized["etab_relation"] = sizes(
        co.etab + co.zeta + grad(co.logOmega, g), g)
    rep.add_levels(co.v, sized)
    return rep


# --------------------------------------------------------------------------
# transport residuals
# --------------------------------------------------------------------------

# the rows of the transport report, in order
TRANSPORT_ROWS = ("raychaudhuri", "chihat_transport", "zeta_transport",
                  "trchib_transport", "mu_transport", "loverline",
                  "rho_bianchi")


def transport_residuals(co, tolerance=1e-8) -> ResidualReport:
    """Residuals of the null transport equations (geodesic.null_transport)
    on the reconstruction co of every level of a foliation, with nabla_L =
    Omega d/dv; the lapse condition is the constraint suite's."""
    rep = ResidualReport(tolerance)
    grid = co.metric.grid
    n = len(co.v)
    _, margin = _fd_stencil(n)
    inner = slice(margin, n - margin)
    dv = _dv(co)
    fbar = mean(co.trchi, co.metric)

    def d_dv(table):
        """v-derivative on the reported (interior) levels."""
        return v_derivative(table, dv, n)[0][inner]

    d = {name: rebuild(getattr(co, name), d_dv)
         for name in ("trchi", "zeta", "trchib", "mu", "rho")}
    d_fbar = d_dv(fbar)

    co = co[inner]
    g = co.metric
    omega = _omega(co)
    om = SpinField.from_samples(grid, 0, omega)
    dL = {name: om * x for name, x in d.items()}
    sized = {name: sizes(residual, g) for name, residual in null_transport(
        co, co.etab, co.mu, dL).items()}

    zeros = np.zeros(len(co.v))  # chihat = 0; the benchmark reads this key
    sized["chihat_transport"] = (zeros, zeros)

    # L-of-average identity for f = trchi, in the v-parametrisation:
    # d_v mean(f) = mean(Omega^{-1} L f) + mean(Omega^{-1} trchi f)
    #               - mean(Omega^{-1} trchi) mean(f)
    om_inv = SpinField.from_samples(grid, 0, 1.0 / omega)
    t1 = mean(d["trchi"], g)
    t2 = mean(multiply(om_inv, co.trchi, co.trchi), g)
    t3 = mean(multiply(om_inv, co.trchi), g) * fbar[inner]
    err = np.abs(d_fbar - (t1 + t2 - t3))
    sized["loverline"] = (err, err * np.sqrt(g.area))

    rep.add_levels(co.v, {name: sized[name] for name in TRANSPORT_ROWS})
    return rep


# --------------------------------------------------------------------------
# Littlewood-Paley, Besov, Sobolev machinery
# --------------------------------------------------------------------------

def _smooth_step(x):
    """C^infty step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    hx = np.where(x > 0.0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    h1 = np.where(1.0 - x > 0.0,
                  np.exp(-1.0 / np.maximum(1.0 - x, 1e-300)), 0.0)
    return hx / (hx + h1)


def lp_phi(t):
    """Dyadic bump: supp in [1/2, 2], sum_k phi(2^-k t) = 1 for t > 0."""
    t = np.asarray(t, dtype=float)
    chi_t = _smooth_step(2.0 - t)
    chi_2t = _smooth_step(2.0 - 2.0 * t)
    return chi_t - chi_2t


def lp_partition(grid):
    """The dyadic partition of unity in sqrt(l(l+1)) on the degrees of
    grid, stated once: (k, multiplier per degree l) for k = 'minus'
    (P_{<0}, the l = 0 mode), then k = 0 .. kmax, the last k whose bump
    reaches the grid's top degree."""
    lam = np.sqrt(grid.eigenvalues)
    minus = np.zeros_like(lam)
    minus[0] = 1.0
    kmax = int(np.ceil(np.log2(2.0 * lam[-1]))) + 1
    return [("minus", minus)] + [(k, lp_phi(2.0 ** (-float(k)) * lam))
                                 for k in range(kmax + 1)]


def _dyadic(f):
    """(k, P_k f) over lp_partition, each multiplier applied to the
    coefficients of every stored component of f."""
    for k, mult in lp_partition(components(f)[0][0].grid):
        def proj(c):
            return SpinField.from_coeffs(c.grid, c.spin,
                                         c.coeffs * mult[:, None])
        yield k, proj(f) if isinstance(f, SpinField) else f._map(proj)


def besov_B0(f):
    """B^0 norm: sum_k ||P_k f||_{L2} + ||P_{<0} f||_{L2} (round reference),
    one value per field of a stack.  By Parseval ||P_k f||^2 is the power
    spectrum summed over l with the weights multiplier^2, which the grid's
    quadrature of |P_k f|^2 (band 2 Lmax) gives exactly."""
    return sum(spectral_l2(
        f, [mult ** 2 for _, mult in lp_partition(components(f)[0][0].grid)]))


def Hs_norm(f, s_exp):
    """H^s norm, the power spectrum weighted by (1 + l(l+1))^s: the
    round-reference multiplier (1 + l(l+1))^{s/2}, one value per field."""
    lam = components(f)[0][0].grid.eigenvalues
    return spectral_l2(f, [(1.0 + lam) ** s_exp])[0]


# --------------------------------------------------------------------------
# mixed norms along the generators
# --------------------------------------------------------------------------

def simpson_weights(v_nodes):
    """Composite Simpson weights on the uniform levels v_nodes; an odd
    interval count takes the trapezoid rule on its first interval."""
    n = len(v_nodes) - 1
    dv = float(v_nodes[1] - v_nodes[0])
    first = n % 2
    w = np.zeros(n + 1)
    w[:2 * first] = 0.5 * dv  # the trapezoid, on an odd count
    w[first:-1:2] += dv / 3.0  # the two ends of each Simpson panel
    w[first + 2::2] += dv / 3.0
    w[first + 1::2] += 4.0 * dv / 3.0
    return w


def _along(per, w, p) -> float:
    """L^p along the generators of per-leaf values, with the quadrature
    weights w at the leaves."""
    if np.isinf(p):
        return float(np.max(per))
    return float(np.sum(w * per ** p) ** (1.0 / p))


def mixed_norm(field, metric, w, p, q) -> float:
    """|| F ||_{L^p L^q} of a stack of leaves: leafwise L^q, then L^p along
    the generators with the quadrature weights w at the leaves."""
    return _along(lq_level(magnitude(field), metric, q), w, p)


def trace_norm(field, metric, w, q, p) -> float:
    """|| F ||_{L^q L^p}: L^p along each generator (quadrature weights w at
    the leaves of the stack), then L^q on the first leaf."""
    a = magnitude(field)
    if np.isinf(p):
        gen = np.max(a, axis=0)
    else:
        gen = np.tensordot(w, a ** p, axes=(0, 0)) ** (1.0 / p)
    return float(lq_level(gen, metric[0], q))


def besov_v_norms(field, metric, w):
    """(P^0_v, Q^{1/2}_v) of a stack of leaves, each dyadic piece projected
    and measured once (leafwise L^2_g, weights w along the generators):
    P^0_v = sum_k ||P_k F||_{L^2_v L^2} + ||P_{<0} F||_{L^2_v L^2} and
    Q^{1/2}_v = (sum_k 2^k ||P_k F||^2_{Linf_v L2} + ||P_<0 F||^2)^{1/2}."""
    p0v = q12v = 0.0
    for k, piece in _dyadic(field):
        per = lq_level(magnitude(piece), metric, 2)
        p0v += _along(per, w, 2)
        q12v += ((1.0 if k == "minus" else 2.0 ** k)
                 * _along(per, w, np.inf) ** 2)
    return p0v, float(np.sqrt(q12v))


# --------------------------------------------------------------------------
# the norm hierarchy
# --------------------------------------------------------------------------

def _n1_norm(field, dL_field, metric, w) -> float:
    """N_1 = ||.||_{H^{1/2}} on the first leaf + the L^2 over the stack
    (quadrature weights w along the generators) of the field, its gradient
    and its L-derivative."""
    def l2(x):
        return mixed_norm(x, metric, w, 2, 2)
    return (Hs_norm(field[0], 0.5) + l2(field)
            + l2(_grad_any(field, metric)) + l2(dL_field))


def _grad_any(x, g):
    """|nabla x| of a field or tensor as (SpinField, weight) pairs, one
    conformal eth and ethbar of each stored component at half its weight.

    eth_g c = e^{(s-1) psi} eth(e^{-s psi} c) and ethbar_g c = e^{-(s+1)
    psi} ethbar(e^{s psi} c): the inner factor is a product, because it is
    differentiated, while the outer one scales the samples.  The pairs are
    only ever measured (magnitude), never analysed.  The derivatives of a
    minus component are the conjugates of these, and ethbar of a real
    scalar has the modulus of its eth, so a scalar takes its eth alone at
    its full weight.
    """
    def outer(f, power):
        return rebuild(f, lambda v: g.conformal_factor(power).samples * v)

    pairs = []
    for c, w in components(x):
        s = c.spin
        if s == 0:
            pairs.append((outer(eth(c), -1.0), w))
            continue
        pairs.append((outer(eth(multiply(g.conformal_factor(-s), c)),
                            s - 1.0), 0.5 * w))
        pairs.append((outer(ethbar(multiply(g.conformal_factor(s), c)),
                            -(s + 1.0)), 0.5 * w))
    return pairs


def _initial_sphere(geo, mu):
    """The I_S1 entries both foliations share, on their first leaf geo (a
    Geometry) with mass aspect mu."""
    g, trchi, trchib = geo.metric, geo.trchi, geo.trchib
    return {
        "trchi_dev_inf": float(np.max(np.abs(np.real(trchi.samples) - 2.0))),
        "grad_trchi_B0": besov_B0(grad(trchi, g)),
        "trchib_dev_inf": float(np.max(np.abs(
            np.real(trchib.samples) + 2.0))),
        "grad_trchib_L2": sizes(grad(trchib, g), g)[1],
        "mu_B0": besov_B0(mu),
        "zeta_H12": Hs_norm(geo.zeta, 0.5),
        "chibhat_H12": Hs_norm(geo.chib.hat(), 0.5),
    }


def _flux(geo, w):
    """The R entries: the L^2 over the stack of leaves of a Geometry of
    each curvature component."""
    return {k: mixed_norm(getattr(geo, k), geo.metric, w, 2, 2)
            for k in ("beta", "rho", "sigma", "betab")}


def _set_total(rep, prefix, entries):
    """Record each entry as prefix.name, and their sum as prefix."""
    for k, val in entries.items():
        rep.set(f"{prefix}.{k}", val)
    rep.set(prefix, sum(entries.values()))


def _geodesic_norms(rep, data):
    """The I'_{S1}, R' and O' entries, over data.slab(); its fields go
    when this returns, and norm_suite builds the reconstruction of the
    canonical side only then, so the two are never resident together."""
    wcc = _cheb.cc_weights(data.s_nodes)
    geo = data.slab()
    gs, trchi, zeta = geo.metric, geo.trchi, geo.zeta

    # I'_{S1}: the first s-node is the initial sphere
    geo1 = geo[0]
    _set_total(rep, "Iprime_S1", _initial_sphere(
        geo1, mass_aspect(geo1.rho, geo1.zeta, geo1.metric)))

    _set_total(rep, "Rprime", _flux(geo, wcc))

    # O' over the geodesic slab
    s3 = data.s_nodes[:, None, None]
    trchi_dev = rebuild(trchi, lambda x: x - 2.0 / s3)
    _set_total(rep, "Oprime", {
        "trchi_dev_infinf": float(np.max(np.abs(trchi_dev.samples))),
        "zeta_LinfL2s": trace_norm(zeta, gs, wcc, np.inf, 2),
        "N1_trchi_dev": _n1_norm(trchi_dev, rebuild(
            trchi, lambda x: data.d_ds(x) + 2.0 / s3 ** 2), gs, wcc),
        "N1_zeta": _n1_norm(zeta, rebuild(zeta, data.d_ds), gs, wcc),
    })


def norm_suite(fol) -> NormReport:
    """Every constituent of the I', I, O', O, R', R norm functionals of a
    foliation fol and its dataset fol.data.

    The geodesic side reads the dataset's s-node leaves as one stack, the
    canonical side canonical(fol), the reconstruction of every v-level;
    along the generators the one takes Clenshaw-Curtis weights on the
    s-nodes, the other Simpson weights on the v-levels.  The geodesic side
    is measured first and its fields freed before the reconstruction is
    built, so a run holds one side at a time.
    """
    rep = NormReport()
    _geodesic_norms(rep, fol.data)

    # ---- canonical-side norms (I_{S1}, O, R) over the v-levels -----------
    co = canonical(fol)
    grid = fol.grid
    g = co.metric
    wv = simpson_weights(co.v)
    co1 = co[0]
    g1c = co1.metric
    omega = _omega(co)
    _set_total(rep, "I_S1", {
        **_initial_sphere(co1, co1.mu),
        "grad_logOmega_H12": Hs_norm(grad(co1.logOmega, g1c), 0.5),
        "etab_H12": Hs_norm(co1.etab, 0.5),
        "logOmega_L2": sizes(co1.logOmega, g1c)[1],
        "omega_dev_inf": float(np.max(np.abs(omega[0] - 1.0))),
        "mu_L2": sizes(co1.mu, g1c)[1],
    })

    _set_total(rep, "R", _flux(co, wv))

    # O over the canonical foliation
    n = len(co.v)

    def dL(samples):
        """Omega d_v of a per-level array; the stencil margin takes the
        nearest interior value."""
        d, margin = v_derivative(samples, _dv(co), n)
        d[:margin] = d[margin]
        d[n - margin:] = d[n - 1 - margin]
        return omega * d

    def n1(field):
        return _n1_norm(field, rebuild(field, dL), g, wv)

    trchi_dev_f = co.trchi + SpinField.constant(grid, -2.0 / co.v)
    trchib_dev_f = co.trchib + SpinField.constant(grid, 2.0 / co.v)

    _set_total(rep, "O", {
        "N1_trchi_dev": n1(trchi_dev_f),
        "N1_zeta": n1(co.zeta),
        "N1_etab": n1(co.etab),
        "N1_trchib_dev": n1(trchib_dev_f),
        "N1_chibhat": n1(co.chib.hat()),
        "omega_dev_infinf": float(np.max(np.abs(omega - 1.0))),
        "L_logOmega_L2L4": mixed_norm(rebuild(co.logOmega, dL),
                                      g, wv, 2, 4),
        "N1_grad_logOmega": n1(grad(co.logOmega, g)),
        "trchi_dev_infinf": mixed_norm(trchi_dev_f, g, wv, np.inf, np.inf),
        "zeta_LinfL2v": trace_norm(co.zeta, g, wv, np.inf, 2),
        "etab_LinfL2v": trace_norm(co.etab, g, wv, np.inf, 2),
        "trchib_dev_infinf": mixed_norm(trchib_dev_f, g, wv,
                                        np.inf, np.inf),
        "grad_trchib_L2Linfv": trace_norm(grad(co.trchib, g), g, wv,
                                          2, np.inf),
        "mu_L2Linfv": trace_norm(co.mu, g, wv, 2, np.inf),
    })

    # representative v-integrated Besov constituents
    p0v, q12v = besov_v_norms(co.zeta, g, wv)
    rep.set("O.P0v_zeta", p0v)
    rep.set("O.Q12v_zeta", q12v)
    return rep


# --------------------------------------------------------------------------
# convergence studies
# --------------------------------------------------------------------------

def convergence_study(data, exact, base_cfg, dvs, v_end=2.0):
    """Solve at v-resolutions dvs, two or more; errors and observed orders."""
    from .solver import continue_foliation

    if len(dvs) < 2:
        raise ConfigurationError("a convergence study needs at least 2 "
                                 f"levels, got {len(dvs)}")
    rows = []
    for dv in dvs:
        fol = continue_foliation(data, replace(base_cfg, dv=dv), v_end=v_end)
        rows.append((dv, exact.max_error(fol.v_nodes, fol.s)))
    orders = [float(np.log2(rows[i][1] / rows[i + 1][1])
                    / np.log2(rows[i][0] / rows[i + 1][0]))
              for i in range(len(rows) - 1)]
    ks = np.log(np.array([r[0] for r in rows]))
    es = np.log(np.array([r[1] for r in rows]))
    slope = float(np.polyfit(ks, es, 1)[0])
    return rows, orders, slope
