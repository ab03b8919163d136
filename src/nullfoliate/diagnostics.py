"""What verify and norms compute: the constraint and transport residual
suites, the Littlewood-Paley/Besov/Sobolev norms of the norm suite, and the
v-convergence study.

canonical() is the one place that turns a foliation into its canonical
geometry: one reconstruct call on the chosen levels, as one stack.  Every
suite takes that reconstruction (and the dataset where it reads it) instead
of the foliation, so a run builds it once and hands it to all its suites;
the levels, dv and the lapse come from co.v and co.logOmega.  Residuals are
stack expressions over the levels (see sphere and tensors), reported one
row per level.

The norm suite measures both foliations with one recipe: one function each
forms their I_S1 and R entries, and along the generators both integrate a
stack of leaves with one quadrature, Clenshaw-Curtis on the s-nodes of the
dataset and Simpson on the v-levels of the reconstruction.

Every size is taken from a pointwise magnitude, tensors.magnitude: |x| =
sqrt(sum w |c|^2) over the samples of the stored components, with the one
set of weights of tensors.components.  No product is formed for it, so
nothing of |x|^2 above the band limit is dropped.

Transport residuals differentiate the reconstructed spin components along the
generators, nabla_L = Omega d/dv at fixed angle, with centered finite
differences (8th order when enough levels exist); levels inside the stencil
margin are excluded from the reported rows.  Everything else is spectral.
"""

from dataclasses import replace

import numpy as np

from . import _cheb
from .comparison import reconstruct
from .errors import ConfigurationError
from .reports import NormReport, ResidualReport
from .sphere import SpinField, eth, ethbar
from .tensors import (OneForm, SymTwoTensor, components, contract, div, div2,
                      dot, grad, hodge_D1, laplacian, magnitude, mean,
                      multiply)

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


def _lq_level(a, metric, q):
    """Leafwise L^q_g norm of the magnitudes a, one value per leaf."""
    if np.isinf(q):
        return np.max(a, axis=(-2, -1))
    return metric.grid.integrate(a ** q * metric.sqrt_det()) ** (1.0 / q)


def _sizes(x, metric):
    """(max |x|, L2_g norm of x), one value per leaf of a stack."""
    a = magnitude(x)
    return np.max(a, axis=(-2, -1)), _lq_level(a, metric, 2)


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
    rep = ResidualReport(tolerance_used=tolerance)
    g = co.metric
    chibhat = co.chib.hat()
    div_zeta, curl_zeta = hodge_D1(co.zeta, g)
    sizes = {}

    # canonical lapse equation; manufactured datasets satisfy their
    # prescribed forcing instead of the geometric right-hand side
    lap = laplacian(co.logOmega, g)
    if data.has_prescribed_forcing:
        F = data.source_at(np.real(co.s.samples))[1]
        forcing = F - SpinField.constant(g.grid, mean(F, g))
        sizes["lapse_equation"] = _sizes(lap - forcing, g)
    else:
        sizes["lapse_equation"] = _sizes(
            lap + div_zeta - co.rho
            + SpinField.constant(g.grid, mean(co.rho, g)), g)

    K = g.gauss_curvature()
    sizes["gauss"] = _sizes(
        K + 0.25 * multiply(co.trchi, co.trchib) + co.rho, g)

    sizes["codazzi_chi"] = _sizes(
        -0.5 * grad(co.trchi, g) - 0.5 * (co.trchi * co.zeta) + co.beta, g)

    sizes["codazzi_chib"] = _sizes(
        div2(chibhat, g) - 0.5 * grad(co.trchib, g)
        - contract(chibhat, co.zeta) + 0.5 * (co.trchib * co.zeta)
        - co.betab, g)

    sizes["torsion"] = _sizes(curl_zeta - co.sigma, g)

    if data.has_prescribed_forcing:
        sizes["div_etab"] = _sizes(
            div(co.etab, g) + div_zeta + forcing, g)
    else:
        sizes["div_etab"] = _sizes(
            div(co.etab, g) + co.rho
            - SpinField.constant(g.grid, mean(co.rho, g)), g)

    sizes["etab_relation"] = _sizes(
        co.etab + co.zeta + grad(co.logOmega, g), g)
    rep.add_levels(co.v, sizes)
    return rep


# --------------------------------------------------------------------------
# transport residuals
# --------------------------------------------------------------------------

def transport_residuals(data, co, tolerance=1e-8) -> ResidualReport:
    """Residuals of the null transport equations on the reconstruction co
    of every level of a foliation of data."""
    rep = ResidualReport(tolerance_used=tolerance)
    grid = co.metric.grid
    n = len(co.v)
    _, margin = _fd_stencil(n)
    inner = slice(margin, n - margin)
    dv = _dv(co)
    fbar = mean(co.trchi, co.metric)

    def d_dv(table):
        """v-derivative on the reported (interior) levels."""
        return v_derivative(table, dv, n)[0][inner]

    d_trchi = d_dv(np.real(co.trchi.samples))
    d_trchib = d_dv(np.real(co.trchib.samples))
    d_mu = d_dv(np.real(co.mu.samples))
    d_rho = d_dv(np.real(co.rho.samples))
    d_zeta = d_dv(co.zeta.plus.samples)
    d_fbar = d_dv(fbar)

    co = co[inner]
    g = co.metric
    omega = _omega(co)
    om = SpinField.from_samples(grid, 0, omega)
    mean_rho = mean(co.rho, g)
    div_etab = div(co.etab, g)

    def dL_scalar(darr):
        return multiply(om, SpinField.from_samples(grid, 0, darr))

    sizes = {}
    # Raychaudhuri: nabla_L trchi + trchi^2/2 = 0
    sizes["raychaudhuri"] = _sizes(
        dL_scalar(d_trchi) + 0.5 * multiply(co.trchi, co.trchi), g)

    zeros = np.zeros(len(co.v))  # chihat = 0; the benchmark reads this key
    sizes["chihat_transport"] = (zeros, zeros)

    # zeta transport: nabla_L zeta + trchi zeta/2 = trchi etab/2 - beta
    sizes["zeta_transport"] = _sizes(
        OneForm.from_plus(grid, d_zeta) * om
        + 0.5 * (co.trchi * (co.zeta - co.etab)) + co.beta, g)

    # trchib transport; canonical right-hand side 2 mean(rho) + 2|etab|^2
    # (general Div etab + rho form for manufactured data)
    lhs = dL_scalar(d_trchib) + 0.5 * multiply(co.trchi, co.trchib)
    if data.has_prescribed_forcing:
        rhs = 2.0 * div_etab + 2.0 * co.rho + 2.0 * dot(co.etab, co.etab)
    else:
        rhs = SpinField.constant(grid, 2.0 * mean_rho) \
            + 2.0 * dot(co.etab, co.etab)
    sizes["trchib_transport"] = _sizes(lhs - rhs, g)

    # mass-aspect transport: the common nonlinear block plus the linear
    # terms, which read trchi rho - trchi mean(rho)/2 in a canonical
    # foliation and trchi rho/2 - trchi Div etab/2 in general (the
    # manufactured foliations are not canonical)
    lhs = dL_scalar(d_mu) + multiply(co.trchi, co.mu)
    rhs = -2.0 * dot(co.zeta, co.beta) \
        + dot(co.zeta - co.etab, grad(co.trchi, g)) \
        + multiply(co.trchi, dot(co.zeta, co.zeta)
                   - dot(co.zeta, co.etab)
                   - 0.5 * dot(co.etab, co.etab))
    if data.has_prescribed_forcing:
        rhs = rhs + 0.5 * multiply(co.trchi, co.rho) \
            - 0.5 * multiply(co.trchi, div_etab)
    else:
        rhs = rhs + multiply(co.trchi, co.rho) \
            - SpinField.from_samples(
                grid, 0, co.trchi.samples * (0.5 * mean_rho)[:, None, None])
    sizes["mu_transport"] = _sizes(lhs - rhs, g)

    # L-of-average identity for f = trchi, in the v-parametrisation:
    # d_v mean(f) = mean(Omega^{-1} L f) + mean(Omega^{-1} trchi f)
    #               - mean(Omega^{-1} trchi) mean(f)
    om_inv = SpinField.from_samples(grid, 0, 1.0 / omega)
    t1 = mean(SpinField.from_samples(grid, 0, d_trchi), g)
    t2 = mean(multiply(om_inv, co.trchi, co.trchi), g)
    t3 = mean(multiply(om_inv, co.trchi), g) * fbar[inner]
    err = np.abs(d_fbar - (t1 + t2 - t3))
    sizes["loverline"] = (err, err * np.sqrt(g.area))

    # Bianchi rho transport:
    # nabla_L rho + (3/2) trchi rho = Div beta + zeta.beta + 2 etab.beta
    sizes["rho_bianchi"] = _sizes(
        dL_scalar(d_rho) + 1.5 * multiply(co.trchi, co.rho)
        - div(co.beta, g) - dot(co.zeta, co.beta)
        - 2.0 * dot(co.etab, co.beta), g)
    rep.add_levels(co.v, sizes)
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


def _lp_multiplier(grid, k):
    ls = np.arange(grid.Lmax + 1, dtype=float)
    lam = np.sqrt(ls * (ls + 1.0))
    if k == "minus":
        m = np.zeros_like(lam)
        m[0] = 1.0
        return m
    return lp_phi(2.0 ** (-float(k)) * lam)


def lp_project(f, k):
    """P_k f (spectral multiplier in sqrt(l(l+1))); k='minus' gives P_{<0}."""
    def proj(comp):
        m = _lp_multiplier(comp.grid, k)
        return SpinField.from_coeffs(comp.grid, comp.spin,
                                     comp.coeffs * m[:, None])
    return proj(f) if isinstance(f, SpinField) else f._map(proj)


def lp_kmax(grid):
    lam_max = np.sqrt(grid.Lmax * (grid.Lmax + 1.0))
    return int(np.ceil(np.log2(2.0 * lam_max))) + 1


def _l2_round(x):
    total = 0.0
    for comp, w in components(x):
        total += w * comp.l2_round() ** 2
    return np.sqrt(total)


def _dyadic(f):
    """(k, P_k f) for k = 'minus' (P_{<0}), then k = 0 .. lp_kmax."""
    yield "minus", lp_project(f, "minus")
    for k in range(lp_kmax(components(f)[0][0].grid) + 1):
        yield k, lp_project(f, k)


def besov_B0(f) -> float:
    """B^0 norm: sum_k ||P_k f||_{L2} + ||P_{<0} f||_{L2} (round reference)."""
    return float(sum(_l2_round(p) for _, p in _dyadic(f)))


def Hs_norm(f, s_exp) -> float:
    """H^s norm with the round-reference multiplier (1 + l(l+1))^{s/2}."""
    total = 0.0
    for comp, w in components(f):
        ls = np.arange(comp.grid.Lmax + 1, dtype=float)
        mult = (1.0 + ls * (ls + 1.0)) ** s_exp
        total += w * float(np.sum(mult[:, None] * np.abs(comp.coeffs) ** 2))
    return float(np.sqrt(total))


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


def mixed_norm(field, metric, w, p, q) -> float:
    """|| F ||_{L^p L^q} of a stack of leaves: leafwise L^q, then L^p along
    the generators with the quadrature weights w at the leaves."""
    per = _lq_level(magnitude(field), metric, q)
    if np.isinf(p):
        return float(np.max(per))
    return float(np.sum(w * per ** p) ** (1.0 / p))


def trace_norm(field, metric, w, q, p) -> float:
    """|| F ||_{L^q L^p}: L^p along each generator (quadrature weights w at
    the leaves of the stack), then L^q on the first leaf."""
    a = magnitude(field)
    if np.isinf(p):
        gen = np.max(a, axis=0)
    else:
        gen = np.tensordot(w, a ** p, axes=(0, 0)) ** (1.0 / p)
    return float(_lq_level(gen, metric[0], q))


def P0v_norm(field, metric, w) -> float:
    """P^0_v norm: sum_k ||P_k F||_{L^2_v L^2} + ||P_{<0} F||_{L^2_v L^2}."""
    return float(sum(mixed_norm(p, metric, w, 2, 2)
                     for _, p in _dyadic(field)))


def Q12v_norm(field, metric, w) -> float:
    """Q^{1/2}_v norm: (sum_k 2^k ||P_k F||^2_{Linf_v L2} + ||P_<0 F||^2)^{1/2}."""
    total = sum((1.0 if k == "minus" else 2.0 ** k)
                * mixed_norm(p, metric, w, np.inf, 2) ** 2
                for k, p in _dyadic(field))
    return float(np.sqrt(total))


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
        return SpinField.from_samples(
            g.grid, f.spin, g.conformal_factor(power).samples * f.samples)

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


def _initial_sphere(g, trchi, trchib, mu, zeta, chibhat):
    """The I_S1 entries both foliations share, on their first leaf g."""
    return {
        "trchi_dev_inf": float(np.max(np.abs(np.real(trchi.samples) - 2.0))),
        "grad_trchi_B0": besov_B0(grad(trchi, g)),
        "trchib_dev_inf": float(np.max(np.abs(
            np.real(trchib.samples) + 2.0))),
        "grad_trchib_L2": _sizes(grad(trchib, g), g)[1],
        "mu_B0": besov_B0(mu),
        "zeta_H12": Hs_norm(zeta, 0.5),
        "chibhat_H12": Hs_norm(chibhat, 0.5),
    }


def _flux(metric, w, **curvature):
    """The R entries: the L^2 over the stack of each curvature component."""
    return {k: mixed_norm(x, metric, w, 2, 2) for k, x in curvature.items()}


def _set_total(rep, prefix, entries):
    """Record each entry as prefix.name, and their sum as prefix."""
    for k, val in entries.items():
        rep.set(f"{prefix}.{k}", val)
    rep.set(prefix, sum(entries.values()))


def norm_suite(data, co) -> NormReport:
    """Every constituent of the I', I, O', O, R', R norm functionals.

    The geodesic side reads the dataset's s-node leaves as one stack, the
    canonical side the reconstruction co of every v-level of a foliation;
    along the generators the one takes Clenshaw-Curtis weights on the
    s-nodes, the other Simpson weights on the v-levels.
    """
    rep = NormReport()
    grid = data.grid

    # ---- geodesic-side norms (I'_{S1}, O', R') over the s-slab -----------
    wcc = _cheb.cc_weights(data.s_nodes)
    gs = data.slab_metric

    # I'_{S1}: the first s-node is the initial sphere
    g1 = gs[0]
    zeta1 = OneForm.from_plus(grid, data.zeta[0])
    mu1 = -1.0 * SpinField.from_samples(grid, 0, data.rho[0]) \
        - div(zeta1, g1)
    _set_total(rep, "Iprime_S1", _initial_sphere(
        g1, SpinField.from_samples(grid, 0, np.real(data.trchi[0])),
        SpinField.from_samples(grid, 0, np.real(data.trchib[0])),
        mu1, zeta1, SymTwoTensor.from_parts(grid, None, data.chibhat[0])))

    _set_total(rep, "Rprime", _flux(
        gs, wcc, beta=OneForm.from_plus(grid, data.beta),
        rho=SpinField.from_samples(grid, 0, data.rho),
        sigma=SpinField.from_samples(grid, 0, data.sigma),
        betab=OneForm.from_plus(grid, data.betab)))

    # O' over the geodesic slab
    s3 = data.s_nodes[:, None, None]
    trchi_dev = data.trchi - 2.0 / s3
    dst_dev = data.d_ds(data.trchi) + 2.0 / s3 ** 2
    zeta = OneForm.from_plus(grid, data.zeta)
    _set_total(rep, "Oprime", {
        "trchi_dev_infinf": float(np.max(np.abs(trchi_dev))),
        "zeta_LinfL2s": trace_norm(zeta, gs, wcc, np.inf, 2),
        "N1_trchi_dev": _n1_norm(
            SpinField.from_samples(grid, 0, trchi_dev),
            SpinField.from_samples(grid, 0, dst_dev), gs, wcc),
        "N1_zeta": _n1_norm(zeta, OneForm.from_plus(
            grid, data.d_ds(data.zeta)), gs, wcc),
    })

    # ---- canonical-side norms (I_{S1}, O, R) over the v-levels -----------
    g = co.metric
    wv = simpson_weights(co.v)
    co1, g1c = co[0], g[0]
    omega = _omega(co)
    _set_total(rep, "I_S1", {
        **_initial_sphere(g1c, co1.trchi, co1.trchib, co1.mu, co1.zeta,
                          co1.chib.hat()),
        "grad_logOmega_H12": Hs_norm(grad(co1.logOmega, g1c), 0.5),
        "etab_H12": Hs_norm(co1.etab, 0.5),
        "logOmega_L2": _sizes(co1.logOmega, g1c)[1],
        "omega_dev_inf": float(np.max(np.abs(omega[0] - 1.0))),
        "mu_L2": _sizes(co1.mu, g1c)[1],
    })

    _set_total(rep, "R", _flux(g, wv, beta=co.beta, rho=co.rho,
                               sigma=co.sigma, betab=co.betab))

    # O over the canonical foliation
    n = len(co.v)

    def dL(samples):
        """Omega d_v of a per-level array; the stencil margin takes the
        nearest interior value."""
        d, margin = v_derivative(samples, _dv(co), n)
        d[:margin] = d[margin]
        d[n - margin:] = d[n - 1 - margin]
        return omega * d

    v3 = co.v[:, None, None]
    trchi_dev_f = co.trchi + SpinField.constant(grid, -2.0 / co.v)
    trchib_dev_f = co.trchib + SpinField.constant(grid, 2.0 / co.v)
    chibhat_f = co.chib.hat()
    gradlog_f = grad(co.logOmega, g)

    _set_total(rep, "O", {
        "N1_trchi_dev": _n1_norm(trchi_dev_f, SpinField.from_samples(
            grid, 0, dL(np.real(co.trchi.samples) - 2.0 / v3)), g, wv),
        "N1_zeta": _n1_norm(co.zeta, OneForm.from_plus(
            grid, dL(co.zeta.plus.samples)), g, wv),
        "N1_etab": _n1_norm(co.etab, OneForm.from_plus(
            grid, dL(co.etab.plus.samples)), g, wv),
        "N1_trchib_dev": _n1_norm(trchib_dev_f, SpinField.from_samples(
            grid, 0, dL(np.real(co.trchib.samples) + 2.0 / v3)), g, wv),
        "N1_chibhat": _n1_norm(chibhat_f, SymTwoTensor.from_parts(
            grid, None, dL(co.chib.hat_plus.samples)), g, wv),
        "omega_dev_infinf": float(np.max(np.abs(omega - 1.0))),
        "L_logOmega_L2L4": mixed_norm(SpinField.from_samples(
            grid, 0, dL(np.real(co.logOmega.samples))), g, wv, 2, 4),
        "N1_grad_logOmega": _n1_norm(gradlog_f, OneForm.from_plus(
            grid, dL(gradlog_f.plus.samples)), g, wv),
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
    rep.set("O.P0v_zeta", P0v_norm(co.zeta, g, wv))
    rep.set("O.Q12v_zeta", Q12v_norm(co.zeta, g, wv))
    return rep


# --------------------------------------------------------------------------
# convergence studies
# --------------------------------------------------------------------------

def convergence_study(data, exact, base_cfg, dvs, v_end=2.0):
    """Solve at several v-resolutions and report errors and observed orders."""
    from .solver import continue_foliation

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
