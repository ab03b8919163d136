"""Residual suites, commutation checks, Littlewood-Paley/Besov/Sobolev norms.

Transport residuals differentiate the reconstructed spin components along the
generators, nabla_L = Omega d/dv at fixed angle, with centered finite
differences (8th order when enough levels exist); levels inside the stencil
margin are excluded from the reported rows.  Everything else is spectral.
"""

import numpy as np

from . import _cheb
from .comparison import reconstruct
from .errors import ConfigurationError
from .reports import NormReport, ResidualReport
from .sphere import SpinField
from .tensors import (MetricRep, OneForm, SymTwoTensor, contract, contract2,
                      curl, div, div2, dot, dual, eth_g, ethbar_g, grad,
                      hessian, laplacian, mean, multiply,
                      rough_laplacian_oneform)

SQRT2 = np.sqrt(2.0)

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


class FieldBundle:
    """Weighted collection of spin components standing in for a tensor norm."""

    def __init__(self, comps):
        self.comps = comps  # list of (SpinField, weight)

    def norm2(self):
        f0, w0 = self.comps[0]
        acc = w0 * multiply(f0, f0.conj())
        for f, w in self.comps[1:]:
            acc = acc + w * multiply(f, f.conj())
        return acc


def _field_abs(x):
    """Pointwise tensor magnitude |x| as a real sample array."""
    if isinstance(x, SpinField):
        return np.abs(x.samples)
    return np.sqrt(np.abs(np.real(x.norm2().samples)))


def _l2_g(x, metric):
    dens = metric.sqrt_det()
    return float(np.sqrt(max(metric.grid.integrate(
        _field_abs(x) ** 2 * dens), 0.0)))


def _record(rep, name, v, x, metric):
    rep.add(name, v, float(np.max(_field_abs(x))), _l2_g(x, metric))


def _sym_grad(X: OneForm, g: MetricRep) -> SymTwoTensor:
    """Symmetrised covariant gradient of a 1-form (trace = div X)."""
    return SymTwoTensor(div(X, g),
                        eth_g(X.plus, g) * (1.0 / SQRT2),
                        ethbar_g(X.minus, g) * (1.0 / SQRT2))


def _oneform(grid, plus_samples):
    plus = SpinField.from_samples(grid, 1, plus_samples)
    return OneForm(plus, SpinField.from_samples(grid, -1,
                                                np.conj(plus_samples)))


# --------------------------------------------------------------------------
# constraint residuals (per-level, no v-differencing)
# --------------------------------------------------------------------------

def constraint_residuals(foliation, tolerance=1e-10, levels=None) -> ResidualReport:
    """Residuals of the elliptic/Hodge-type canonical structure equations."""
    rep = ResidualReport(tolerance_used=tolerance)
    data = foliation.data
    idx = range(foliation.n_levels) if levels is None else levels
    for i in idx:
        v = float(foliation.v_nodes[i])
        co = reconstruct(data, foliation.s_field(i),
                         foliation.logOmega_field(i), v)
        g = co.metric
        chihat, chibhat = co.chi.hat(), co.chib.hat()

        # canonical lapse equation; manufactured datasets satisfy their
        # prescribed forcing instead of the geometric right-hand side
        lap = laplacian(co.logOmega, g)
        if data.has_prescribed_forcing:
            F = data.scalar_at(data.F1_table, np.real(co.s.samples))
            res = lap - (F - SpinField.constant(g.grid, mean(F, g)))
        else:
            res = lap + div(co.zeta, g) - co.rho_check \
                + SpinField.constant(g.grid, mean(co.rho_check, g))
        _record(rep, "lapse_equation", v, res, g)

        K = g.gauss_curvature()
        gauss = K + 0.25 * multiply(co.trchi, co.trchib) + co.rho_check
        _record(rep, "gauss", v, gauss, g)

        cod1 = div2(chihat, g) - 0.5 * grad(co.trchi, g) \
            + contract(chihat, co.zeta) - 0.5 * (co.trchi * co.zeta) + co.beta
        _record(rep, "codazzi_chi", v, cod1, g)

        cod2 = div2(chibhat, g) - 0.5 * grad(co.trchib, g) \
            - contract(chibhat, co.zeta) + 0.5 * (co.trchib * co.zeta) \
            - co.betab
        _record(rep, "codazzi_chib", v, cod2, g)

        _record(rep, "torsion", v, curl(co.zeta, g) - co.sigma_check, g)

        if data.has_prescribed_forcing:
            F = data.scalar_at(data.F1_table, np.real(co.s.samples))
            res = div(co.etab, g) + div(co.zeta, g) \
                + (F - SpinField.constant(g.grid, mean(F, g)))
        else:
            res = div(co.etab, g) + co.rho_check \
                - SpinField.constant(g.grid, mean(co.rho_check, g))
        _record(rep, "div_etab", v, res, g)

        _record(rep, "etab_relation", v,
                co.etab + co.zeta + grad(co.logOmega, g), g)
    return rep


# --------------------------------------------------------------------------
# transport residuals
# --------------------------------------------------------------------------

def dLUpsilon_fd(foliation, levels):
    """nabla_L Upsilon by v-differencing (the cross-path diagnostic value)."""
    n = foliation.n_levels
    ups = np.stack([lv.Upsilon.plus.samples for lv in levels])
    dups, _ = v_derivative(ups, foliation.dv, n)
    return [_oneform(foliation.grid, np.exp(foliation.logOmega[i]) * dups[i])
            for i in range(n)]


def transport_residuals(foliation, tolerance=1e-8) -> ResidualReport:
    """Residuals of the null transport equations on the solved foliation."""
    rep = ResidualReport(tolerance_used=tolerance)
    data = foliation.data
    grid = foliation.grid
    n = foliation.n_levels
    _, margin = _fd_stencil(n)
    dv = foliation.dv

    levels = [reconstruct(data, foliation.s_field(i),
                          foliation.logOmega_field(i), foliation.v_nodes[i])
              for i in range(n)]

    omega = np.exp(foliation.logOmega)
    trchi = np.stack([np.real(lv.trchi.samples) for lv in levels])
    trchib = np.stack([np.real(lv.trchib.samples) for lv in levels])
    mu_t = np.stack([np.real(lv.mu.samples) for lv in levels])
    rho_t = np.stack([np.real(lv.rho.samples) for lv in levels])
    zeta_p = np.stack([lv.zeta.plus.samples for lv in levels])
    chihat_p = np.stack([lv.chi.hat_plus.samples for lv in levels])
    fbar = np.array([float(mean(lv.trchi, lv.metric)) for lv in levels])

    d_trchi, _ = v_derivative(trchi, dv, n)
    d_trchib, _ = v_derivative(trchib, dv, n)
    d_mu, _ = v_derivative(mu_t, dv, n)
    d_rho, _ = v_derivative(rho_t, dv, n)
    d_zeta, _ = v_derivative(zeta_p, dv, n)
    d_chihat, _ = v_derivative(chihat_p, dv, n)
    d_fbar, _ = v_derivative(fbar, dv, n)

    for i in range(margin, n - margin):
        co = levels[i]
        g = co.metric
        v = float(foliation.v_nodes[i])
        om = SpinField.from_samples(grid, 0, omega[i])
        chihat, chibhat = co.chi.hat(), co.chib.hat()

        def dL_scalar(darr):
            return multiply(om, SpinField.from_samples(grid, 0, darr[i]))

        def dL_oneform(darr):
            return OneForm(multiply(om, SpinField.from_samples(grid, 1, darr[i])),
                           multiply(om, SpinField.from_samples(
                               grid, -1, np.conj(darr[i]))))

        def dL_hat(darr):
            return SymTwoTensor(SpinField.zero(grid, 0),
                                multiply(om, SpinField.from_samples(
                                    grid, 2, darr[i])),
                                multiply(om, SpinField.from_samples(
                                    grid, -2, np.conj(darr[i]))))

        # Raychaudhuri: nabla_L trchi + trchi^2/2 + |chihat|^2 = 0
        res = dL_scalar(d_trchi) + 0.5 * multiply(co.trchi, co.trchi) \
            + dot(chihat, chihat)
        _record(rep, "raychaudhuri", v, res, g)

        # chihat transport: nabla_L chihat + trchi chihat + alpha = 0
        res2 = dL_hat(d_chihat) + co.trchi * chihat + co.alpha
        _record(rep, "chihat_transport", v, res2, g)

        # zeta transport: nabla_L zeta + trchi zeta/2
        #                 = trchi etab/2 + chihat.(etab - zeta) - beta
        res3 = dL_oneform(d_zeta) + 0.5 * (co.trchi * (co.zeta - co.etab)) \
            - contract(chihat, co.etab - co.zeta) + co.beta
        _record(rep, "zeta_transport", v, res3, g)

        # trchib transport; canonical right-hand side 2 mean(rho_check)
        # + 2|etab|^2 (general Div etab + rho_check form for manufactured data)
        lhs = dL_scalar(d_trchib) + 0.5 * multiply(co.trchi, co.trchib)
        if data.has_prescribed_forcing:
            rhs = 2.0 * div(co.etab, g) + 2.0 * co.rho_check \
                + 2.0 * dot(co.etab, co.etab)
        else:
            rhs = SpinField.constant(grid, 2.0 * float(mean(co.rho_check, g))) \
                + 2.0 * dot(co.etab, co.etab)
        _record(rep, "trchib_transport", v, lhs - rhs, g)

        # mass-aspect transport: the common nonlinear block plus the linear
        # terms, which read trchi rho_check - trchi mean(rho_check)/2 in a
        # canonical foliation and trchi rho_check/2 - trchi Div etab/2 in
        # general (the manufactured foliations are not canonical)
        lhs = dL_scalar(d_mu) + multiply(co.trchi, co.mu)
        rhs = -2.0 * dot(co.zeta, co.beta) \
            + dot(co.zeta - co.etab, grad(co.trchi, g)) \
            + dot(chihat, _sym_grad(co.zeta, g)) \
            + 0.5 * dot(chihat, _sym_grad(co.etab, g)) \
            + multiply(co.trchi, dot(co.zeta, co.zeta)
                       - dot(co.zeta, co.etab)
                       - 0.5 * dot(co.etab, co.etab)) \
            - 0.25 * multiply(co.trchib, dot(chihat, chihat)) \
            + 2.0 * contract2(chihat, co.zeta, co.etab) \
            - 0.5 * contract2(chihat, co.etab, co.etab)
        if data.has_prescribed_forcing:
            rhs = rhs + 0.5 * multiply(co.trchi, co.rho_check) \
                - 0.5 * multiply(co.trchi, div(co.etab, g))
        else:
            rhs = rhs + multiply(co.trchi, co.rho_check) \
                - 0.5 * float(mean(co.rho_check, g)) * co.trchi
        _record(rep, "mu_transport", v, lhs - rhs, g)

        # L-of-average identity for f = trchi, in the v-parametrisation:
        # d_v mean(f) = mean(Omega^{-1} L f) + mean(Omega^{-1} trchi f)
        #               - mean(Omega^{-1} trchi) mean(f)
        om_inv = SpinField.from_samples(grid, 0, 1.0 / omega[i])
        t1 = float(mean(SpinField.from_samples(grid, 0, d_trchi[i]), g))
        t2 = float(mean(multiply(om_inv, co.trchi, co.trchi), g))
        t3 = float(mean(multiply(om_inv, co.trchi), g)) * fbar[i]
        err = abs(d_fbar[i] - (t1 + t2 - t3))
        rep.add("loverline", v, err, err * np.sqrt(g.area))

        # Bianchi rho transport:
        # nabla_L rho + (3/2) trchi rho = Div beta - chibhat.alpha/2
        #                                 + zeta.beta + 2 etab.beta
        res6 = dL_scalar(d_rho) + 1.5 * multiply(co.trchi, co.rho) \
            - div(co.beta, g) + 0.5 * dot(chibhat, co.alpha) \
            - dot(co.zeta, co.beta) - 2.0 * dot(co.etab, co.beta)
        _record(rep, "rho_bianchi", v, res6, g)
    return rep


# --------------------------------------------------------------------------
# commutation identities
# --------------------------------------------------------------------------

def commutation_grad_laplacian(f: SpinField, metric: MetricRep) -> OneForm:
    """[grad, Delta] f + K grad f (vanishes identically on the continuum)."""
    lhs = grad(laplacian(f, metric), metric) \
        - rough_laplacian_oneform(grad(f, metric), metric)
    K = metric.gauss_curvature()
    return lhs + K * grad(f, metric)


def commutation_check(foliation, f: SpinField, tolerance=1e-10) -> ResidualReport:
    """Scalar commutation identities along the foliation.

    Checks [grad, Delta] f = -K grad f per level (spectral) and the
    [nabla_L, grad] f identity by v-differencing the gradient of a
    v-independent test profile.
    """
    rep = ResidualReport(tolerance_used=tolerance)
    n = foliation.n_levels
    grid = foliation.grid
    metrics = [foliation.metric(i) for i in range(n)]
    for i in range(n):
        _record(rep, "comm_grad_laplacian", float(foliation.v_nodes[i]),
                commutation_grad_laplacian(f, metrics[i]), metrics[i])

    grads_p = np.stack([grad(f, metrics[i]).plus.samples for i in range(n)])
    grads_m = np.stack([grad(f, metrics[i]).minus.samples for i in range(n)])
    dgp, margin = v_derivative(grads_p, foliation.dv, n)
    dgm, _ = v_derivative(grads_m, foliation.dv, n)
    for i in range(margin, n - margin):
        g = metrics[i]
        v = float(foliation.v_nodes[i])
        co = reconstruct(foliation.data, foliation.s_field(i),
                         foliation.logOmega_field(i), v)
        om = np.exp(foliation.logOmega[i])
        dLgrad = OneForm(SpinField.from_samples(grid, 1, om * dgp[i]),
                         SpinField.from_samples(grid, -1, om * dgm[i]))
        gf = grad(f, g)
        # [nabla_L, grad] f = -trchi grad f / 2 - chihat . grad f
        #                     + (etab + zeta) L f  with L f = 0 here
        res = dLgrad + 0.5 * (co.trchi * gf) + contract(co.chi.hat(), gf)
        _record(rep, "comm_L_grad", v, res, g)
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


def _components(x):
    """(SpinField, weight) pairs whose weighted L2 squares sum to int |x|^2."""
    if isinstance(x, SpinField):
        return [(x, 1.0)]
    if isinstance(x, OneForm):
        return [(x.plus, 1.0), (x.minus, 1.0)]
    if isinstance(x, SymTwoTensor):
        return [(x.trace, 0.5), (x.hat_plus, 1.0), (x.hat_minus, 1.0)]
    raise TypeError("expected a SpinField, OneForm or SymTwoTensor")


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
    if isinstance(f, SpinField):
        return proj(f)
    if isinstance(f, OneForm):
        return OneForm(proj(f.plus), proj(f.minus))
    if isinstance(f, SymTwoTensor):
        return SymTwoTensor(proj(f.trace), proj(f.hat_plus), proj(f.hat_minus))
    raise TypeError("expected a SpinField, OneForm or SymTwoTensor")


def lp_kmax(grid):
    lam_max = np.sqrt(grid.Lmax * (grid.Lmax + 1.0))
    return int(np.ceil(np.log2(2.0 * lam_max))) + 1


def _l2_round(x):
    total = 0.0
    for comp, w in _components(x):
        total += w * comp.l2_round() ** 2
    return np.sqrt(total)


def besov_B0(f) -> float:
    """B^0 norm: sum_k ||P_k f||_{L2} + ||P_{<0} f||_{L2} (round reference)."""
    grid = _components(f)[0][0].grid
    total = _l2_round(lp_project(f, "minus"))
    for k in range(lp_kmax(grid) + 1):
        total += _l2_round(lp_project(f, k))
    return float(total)


def Hs_norm(f, s_exp) -> float:
    """H^s norm with the round-reference multiplier (1 + l(l+1))^{s/2}."""
    total = 0.0
    for comp, w in _components(f):
        ls = np.arange(comp.grid.Lmax + 1, dtype=float)
        mult = (1.0 + ls * (ls + 1.0)) ** s_exp
        total += w * float(np.sum(mult[:, None] * np.abs(comp.coeffs) ** 2))
    return float(np.sqrt(total))


def lp_partition_residual(f) -> float:
    """|| (P_{<0} + sum_k P_k) f - f || on a band-limited field."""
    grid = _components(f)[0][0].grid
    acc = lp_project(f, "minus")
    for k in range(lp_kmax(grid) + 1):
        acc = acc + lp_project(f, k)
    return _l2_round(acc - f)


# --------------------------------------------------------------------------
# mixed and v-integrated norms
# --------------------------------------------------------------------------

def _simpson(vals, dv):
    vals = np.asarray(vals, dtype=float)
    n = vals.shape[0] - 1
    if n <= 0:
        return 0.0
    total = 0.0
    if n % 2 == 1 and n >= 3:
        # odd interval count: trapezoid on the first interval
        total += 0.5 * dv * (vals[0] + vals[1])
        vals = vals[1:]
        n -= 1
    elif n == 1:
        return float(0.5 * dv * (vals[0] + vals[1]))
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float(total + dv / 3.0 * np.sum(w * vals, axis=0))


def _lq_level(x, metric, q):
    a = _field_abs(x)
    if np.isinf(q):
        return float(np.max(a))
    dens = metric.sqrt_det()
    return float(metric.grid.integrate(a ** q * dens)) ** (1.0 / q)


def mixed_norm(fields, metrics, v_nodes, p, q) -> float:
    """|| F ||_{L^p_v L^q}: leafwise L^q then L^p in v (Simpson)."""
    per = np.array([_lq_level(fields[i], metrics[i], q)
                    for i in range(len(fields))])
    if np.isinf(p):
        return float(np.max(per))
    dv = float(v_nodes[1] - v_nodes[0])
    return float(_simpson(per ** p, dv) ** (1.0 / p))


def trace_norm(fields, metrics, v_nodes, q, p) -> float:
    """|| F ||_{L^q L^p_v}: generator-wise L^p in v, then L^q on the first leaf."""
    stack = np.stack([_field_abs(fields[i]) for i in range(len(fields))])
    dv = float(v_nodes[1] - v_nodes[0])
    if np.isinf(p):
        gen = np.max(stack, axis=0)
    else:
        n = stack.shape[0] - 1
        w = np.ones(n + 1)
        if n % 2 == 0 and n >= 2:
            w[1:-1:2] = 4.0
            w[2:-1:2] = 2.0
            w *= dv / 3.0
        else:
            w *= dv
            w[0] *= 0.5
            w[-1] *= 0.5
        gen = (np.tensordot(w, stack ** p, axes=(0, 0))) ** (1.0 / p)
    g0 = metrics[0]
    if np.isinf(q):
        return float(np.max(gen))
    dens = g0.sqrt_det()
    return float(g0.grid.integrate(gen ** q * dens)) ** (1.0 / q)


def P0v_norm(fields, metrics, v_nodes) -> float:
    """P^0_v norm: sum_k ||P_k F||_{L^2_v L^2} + ||P_{<0} F||_{L^2_v L^2}."""
    grid = metrics[0].grid
    total = mixed_norm([lp_project(f, "minus") for f in fields],
                       metrics, v_nodes, 2, 2)
    for k in range(lp_kmax(grid) + 1):
        total += mixed_norm([lp_project(f, k) for f in fields],
                            metrics, v_nodes, 2, 2)
    return float(total)


def Q12v_norm(fields, metrics, v_nodes) -> float:
    """Q^{1/2}_v norm: (sum_k 2^k ||P_k F||^2_{Linf_v L2} + ||P_<0 F||^2)^{1/2}."""
    grid = metrics[0].grid
    total = mixed_norm([lp_project(f, "minus") for f in fields],
                       metrics, v_nodes, np.inf, 2) ** 2
    for k in range(lp_kmax(grid) + 1):
        total += 2.0 ** k * mixed_norm([lp_project(f, k) for f in fields],
                                       metrics, v_nodes, np.inf, 2) ** 2
    return float(np.sqrt(total))


# --------------------------------------------------------------------------
# the norm hierarchy
# --------------------------------------------------------------------------

def _n1_norm(fields, dL_fields, metrics, v_nodes) -> float:
    """N_1 = ||.||_{H^{1/2}(S_1)} + L^2_v L^2 of the field, its gradient and
    its L-derivative."""
    grads = [_grad_any(fields[i], metrics[i]) for i in range(len(fields))]
    return (Hs_norm(fields[0], 0.5)
            + mixed_norm(fields, metrics, v_nodes, 2, 2)
            + mixed_norm(grads, metrics, v_nodes, 2, 2)
            + mixed_norm(dL_fields, metrics, v_nodes, 2, 2))


def _grad_any(x, g):
    """Covariant gradient with the full componentwise L2 magnitude."""
    if isinstance(x, SpinField):
        return grad(x, g)
    h = 1.0 / SQRT2
    if isinstance(x, OneForm):
        return FieldBundle([
            (eth_g(x.plus, g) * h, 1.0), (ethbar_g(x.plus, g) * h, 1.0),
            (eth_g(x.minus, g) * h, 1.0), (ethbar_g(x.minus, g) * h, 1.0),
        ])
    if isinstance(x, SymTwoTensor):
        gt = grad(x.trace, g)
        return FieldBundle([
            (eth_g(x.hat_plus, g) * h, 1.0), (ethbar_g(x.hat_plus, g) * h, 1.0),
            (eth_g(x.hat_minus, g) * h, 1.0),
            (ethbar_g(x.hat_minus, g) * h, 1.0),
            (gt.plus, 0.5), (gt.minus, 0.5),
        ])
    raise TypeError("expected a SpinField, OneForm or SymTwoTensor")


def norm_suite(foliation, data=None) -> NormReport:
    """Every constituent of the I', I, O', O, R', R norm functionals."""
    data = foliation.data if data is None else data
    rep = NormReport()
    grid = foliation.grid
    n = foliation.n_levels
    v_nodes = foliation.v_nodes

    levels = [reconstruct(data, foliation.s_field(i),
                          foliation.logOmega_field(i), v_nodes[i])
              for i in range(n)]
    metrics = [lv.metric for lv in levels]

    # ---- geodesic-side norms (I'_{S1}, O', R') over the s-slab -----------
    s_nodes = data.s_nodes
    wcc = _cheb.cc_weights(s_nodes)
    node_metrics = [data.node_metric(i) for i in range(len(s_nodes))]

    def geo_oneform(table, i):
        return _oneform(grid, table[i])

    def geo_hat(table, i):
        return SymTwoTensor(SpinField.zero(grid, 0),
                            SpinField.from_samples(grid, 2, table[i]),
                            SpinField.from_samples(grid, -2,
                                                   np.conj(table[i])))

    # I'_{S1}: the first s-node is the initial sphere
    g1 = node_metrics[0]
    trchi1 = SpinField.from_samples(grid, 0, np.real(data.trchi[0]))
    trchib1 = SpinField.from_samples(grid, 0, np.real(data.trchib[0]))
    zeta1 = geo_oneform(data.zeta, 0)
    chihat1 = geo_hat(data.chihat, 0)
    chibhat1 = geo_hat(data.chibhat, 0)
    rho_check1 = SpinField.from_samples(
        grid, 0, data.rho[0]) - 0.5 * dot(chihat1, chibhat1)
    mu1 = -1.0 * rho_check1 - div(zeta1, g1)
    entries = {
        "Iprime_S1.trchi_dev_inf": float(np.max(np.abs(
            np.real(data.trchi[0]) - 2.0))),
        "Iprime_S1.grad_trchi_B0": besov_B0(grad(trchi1, g1)),
        "Iprime_S1.trchib_dev_inf": float(np.max(np.abs(
            np.real(data.trchib[0]) + 2.0))),
        "Iprime_S1.grad_trchib_L2": _l2_g(grad(trchib1, g1), g1),
        "Iprime_S1.mu_B0": besov_B0(mu1),
        "Iprime_S1.zeta_H12": Hs_norm(zeta1, 0.5),
        "Iprime_S1.chihat_H12": Hs_norm(chihat1, 0.5),
        "Iprime_S1.chibhat_H12": Hs_norm(chibhat1, 0.5),
    }
    entries["Iprime_S1"] = sum(entries.values())
    for k, val in entries.items():
        rep.set(k, val)

    # R' over the geodesic slab (Clenshaw-Curtis in s)
    def slab_l2(table, spin):
        per = np.empty(len(s_nodes))
        for i in range(len(s_nodes)):
            if spin == 0:
                x = SpinField.from_samples(grid, 0, table[i])
            elif spin == 1:
                x = geo_oneform(table, i)
            else:
                x = geo_hat(table, i)
            per[i] = _l2_g(x, node_metrics[i]) ** 2
        return float(np.sqrt(np.sum(wcc * per)))

    rp = {
        "Rprime.alpha": slab_l2(data.alpha, 2),
        "Rprime.beta": slab_l2(data.beta, 1),
        "Rprime.rho": slab_l2(data.rho, 0),
        "Rprime.sigma": slab_l2(data.sigma, 0),
        "Rprime.betab": slab_l2(data.betab, 1),
    }
    rp["Rprime"] = sum(rp.values())
    for k, val in rp.items():
        rep.set(k, val)

    # O' over the geodesic slab
    dsz = data.d_ds(data.zeta)
    dst = data.d_ds(data.trchi)
    dsh = data.d_ds(data.chihat)
    s3 = s_nodes[:, None, None]
    trchi_dev = data.trchi - 2.0 / s3
    dst_dev = dst + 2.0 / s3 ** 2

    def geo_n1(table, dtable, spin):
        f0 = [SpinField.from_samples(grid, 0, table[i]) if spin == 0
              else (geo_oneform(table, i) if spin == 1 else geo_hat(table, i))
              for i in range(len(s_nodes))]
        fL = [SpinField.from_samples(grid, 0, dtable[i]) if spin == 0
              else (geo_oneform(dtable, i) if spin == 1
                    else geo_hat(dtable, i))
              for i in range(len(s_nodes))]
        grads = [_grad_any(f0[i], node_metrics[i]) for i in range(len(s_nodes))]

        def cc_l2(fams):
            per = np.array([_l2_g(fams[i], node_metrics[i]) ** 2
                            for i in range(len(s_nodes))])
            return float(np.sqrt(np.sum(wcc * per)))

        return Hs_norm(f0[0], 0.5) + cc_l2(f0) + cc_l2(grads) + cc_l2(fL)

    op = {
        "Oprime.trchi_dev_infinf": float(np.max(np.abs(trchi_dev))),
        "Oprime.chihat_LinfL2s": _geo_trace_norm(data.chihat, wcc),
        "Oprime.zeta_LinfL2s": _geo_trace_norm(data.zeta, wcc),
        "Oprime.N1_trchi_dev": geo_n1(trchi_dev, dst_dev, 0),
        "Oprime.N1_chihat": geo_n1(data.chihat, dsh, 2),
        "Oprime.N1_zeta": geo_n1(data.zeta, dsz, 1),
    }
    op["Oprime"] = sum(op.values())
    for k, val in op.items():
        rep.set(k, val)

    # ---- canonical-side norms (I_{S1}, O, R) over the v-levels -----------
    co1 = levels[0]
    g1c = metrics[0]
    i_entries = {
        "I_S1.trchi_dev_inf": float(np.max(np.abs(
            np.real(co1.trchi.samples) - 2.0))),
        "I_S1.trchib_dev_inf": float(np.max(np.abs(
            np.real(co1.trchib.samples) + 2.0))),
        "I_S1.grad_trchi_B0": besov_B0(grad(co1.trchi, g1c)),
        "I_S1.grad_trchib_L2": _l2_g(grad(co1.trchib, g1c), g1c),
        "I_S1.mu_B0": besov_B0(co1.mu),
        "I_S1.zeta_H12": Hs_norm(co1.zeta, 0.5),
        "I_S1.chihat_H12": Hs_norm(co1.chi.hat(), 0.5),
        "I_S1.chibhat_H12": Hs_norm(co1.chib.hat(), 0.5),
        "I_S1.grad_logOmega_H12": Hs_norm(grad(co1.logOmega, g1c), 0.5),
        "I_S1.etab_H12": Hs_norm(co1.etab, 0.5),
        "I_S1.logOmega_L2": _l2_g(co1.logOmega, g1c),
        "I_S1.omega_dev_inf": float(np.max(np.abs(
            np.exp(foliation.logOmega[0]) - 1.0))),
        "I_S1.mu_L2": _l2_g(co1.mu, g1c),
    }
    i_entries["I_S1"] = sum(i_entries.values())
    for k, val in i_entries.items():
        rep.set(k, val)

    # R over the canonical foliation
    def can_l2(get):
        fields = [get(lv) for lv in levels]
        return mixed_norm(fields, metrics, v_nodes, 2, 2)

    r_entries = {
        "R.alpha": can_l2(lambda c: c.alpha),
        "R.beta": can_l2(lambda c: c.beta),
        "R.rho": can_l2(lambda c: c.rho),
        "R.sigma": can_l2(lambda c: c.sigma),
        "R.betab": can_l2(lambda c: c.betab),
    }
    r_entries["R"] = sum(r_entries.values())
    for k, val in r_entries.items():
        rep.set(k, val)

    # O over the canonical foliation
    omega = np.exp(foliation.logOmega)
    dv = foliation.dv

    def dev_fields(get, shift):
        return [get(levels[i]) + SpinField.constant(
            grid, shift(v_nodes[i])) for i in range(n)]

    def dL_family(get_samples, spin):
        arr = np.stack([get_samples(i) for i in range(n)])
        darr, margin = v_derivative(arr, dv, n)
        # one-sided closure at the ends: reuse nearest interior value scale
        for j in range(margin):
            darr[j] = darr[margin]
            darr[n - 1 - j] = darr[n - 1 - margin]
        out = []
        for i in range(n):
            d = omega[i] * darr[i]
            if spin == 0:
                out.append(SpinField.from_samples(grid, 0, d))
            elif spin == 1:
                out.append(_oneform(grid, d))
            else:
                out.append(SymTwoTensor(
                    SpinField.zero(grid, 0),
                    SpinField.from_samples(grid, 2, d),
                    SpinField.from_samples(grid, -2, np.conj(d))))
        return out

    trchi_dev_f = dev_fields(lambda c: c.trchi, lambda v: -2.0 / v)
    trchib_dev_f = dev_fields(lambda c: c.trchib, lambda v: 2.0 / v)
    zeta_f = [lv.zeta for lv in levels]
    etab_f = [lv.etab for lv in levels]
    chihat_f = [lv.chi.hat() for lv in levels]
    chibhat_f = [lv.chib.hat() for lv in levels]
    logom_f = [lv.logOmega for lv in levels]
    gradlog_f = [grad(levels[i].logOmega, metrics[i]) for i in range(n)]
    mu_f = [lv.mu for lv in levels]

    dL_trchi_dev = dL_family(
        lambda i: np.real(levels[i].trchi.samples) - 2.0 / v_nodes[i], 0)
    dL_trchib_dev = dL_family(
        lambda i: np.real(levels[i].trchib.samples) + 2.0 / v_nodes[i], 0)
    dL_zeta = dL_family(lambda i: levels[i].zeta.plus.samples, 1)
    dL_etab = dL_family(lambda i: levels[i].etab.plus.samples, 1)
    dL_chihat = dL_family(lambda i: levels[i].chi.hat_plus.samples, 2)
    dL_chibhat = dL_family(lambda i: levels[i].chib.hat_plus.samples, 2)
    dL_gradlog = dL_family(lambda i: gradlog_f[i].plus.samples, 1)
    dL_logom = dL_family(lambda i: foliation.logOmega[i], 0)

    o_entries = {
        "O.N1_trchi_dev": _n1_norm(trchi_dev_f, dL_trchi_dev, metrics, v_nodes),
        "O.N1_chihat": _n1_norm(chihat_f, dL_chihat, metrics, v_nodes),
        "O.N1_zeta": _n1_norm(zeta_f, dL_zeta, metrics, v_nodes),
        "O.N1_etab": _n1_norm(etab_f, dL_etab, metrics, v_nodes),
        "O.N1_trchib_dev": _n1_norm(trchib_dev_f, dL_trchib_dev, metrics,
                                    v_nodes),
        "O.N1_chibhat": _n1_norm(chibhat_f, dL_chibhat, metrics, v_nodes),
        "O.omega_dev_infinf": float(np.max(np.abs(omega - 1.0))),
        "O.L_logOmega_L2L4": mixed_norm(dL_logom, metrics, v_nodes, 2, 4),
        "O.N1_grad_logOmega": _n1_norm(gradlog_f, dL_gradlog, metrics, v_nodes),
        "O.trchi_dev_infinf": mixed_norm(trchi_dev_f, metrics, v_nodes,
                                         np.inf, np.inf),
        "O.chihat_LinfL2v": trace_norm(chihat_f, metrics, v_nodes, np.inf, 2),
        "O.zeta_LinfL2v": trace_norm(zeta_f, metrics, v_nodes, np.inf, 2),
        "O.etab_LinfL2v": trace_norm(etab_f, metrics, v_nodes, np.inf, 2),
        "O.trchib_dev_infinf": mixed_norm(trchib_dev_f, metrics, v_nodes,
                                          np.inf, np.inf),
        "O.grad_trchib_L2Linfv": trace_norm(
            [grad(levels[i].trchib, metrics[i]) for i in range(n)],
            metrics, v_nodes, 2, np.inf),
        "O.mu_L2Linfv": trace_norm(mu_f, metrics, v_nodes, 2, np.inf),
    }
    o_entries["O"] = sum(o_entries.values())
    for k, val in o_entries.items():
        rep.set(k, val)

    # representative v-integrated Besov constituents
    rep.set("O.P0v_zeta", P0v_norm(zeta_f, metrics, v_nodes))
    rep.set("O.Q12v_zeta", Q12v_norm(zeta_f, metrics, v_nodes))
    return rep


def _geo_trace_norm(table, wcc):
    """L^inf L^2_s norm of a spin-1 or spin-2 geodesic table via CC weights.

    The table holds plus components, whose dyad norm is sqrt(2) |plus|.
    """
    stack = np.sqrt(2.0) * np.abs(table)
    gen = np.sqrt(np.tensordot(wcc, stack ** 2, axes=(0, 0)))
    return float(np.max(gen))


# --------------------------------------------------------------------------
# weak sphericality
# --------------------------------------------------------------------------

def sphericality_report(foliation):
    """Per-level split K - 1/v^2 = Div Psi + Theta with Psi = zeta.

    Theta = -trchi trchib/4 - 1/v^2 + mu follows from the Gauss equation and
    the mass-aspect definition.  Returns (rows, identity_report) where rows
    are dicts {v, Psi, Theta, psi_H12, theta_L2}.
    """
    rows = []
    rep = ResidualReport(tolerance_used=1e-9)
    data = foliation.data
    for i in range(foliation.n_levels):
        v = float(foliation.v_nodes[i])
        co = reconstruct(data, foliation.s_field(i),
                         foliation.logOmega_field(i), v)
        g = co.metric
        Theta = -0.25 * multiply(co.trchi, co.trchib) \
            + SpinField.constant(g.grid, -1.0 / v ** 2) + co.mu
        Psi = co.zeta
        K = g.gauss_curvature()
        resid = K + SpinField.constant(g.grid, -1.0 / v ** 2) \
            - div(Psi, g) - Theta
        _record(rep, "sphericality_split", v, resid, g)
        rows.append({
            "v": v, "Psi": Psi, "Theta": Theta,
            "psi_H12": Hs_norm(Psi, 0.5),
            "theta_L2": _l2_g(Theta, g),
        })
    return rows, rep


# --------------------------------------------------------------------------
# Bochner identities (round reference; used by the identity suites)
# --------------------------------------------------------------------------

def bochner_scalar(f: SpinField, metric: MetricRep):
    """(int |Hess f|^2, int |Delta f|^2 - int K |grad f|^2) under g."""
    g = metric
    H = hessian(f, g)
    dens = g.sqrt_det()
    lhs = g.grid.integrate(np.real(H.norm2().samples) * dens)
    lap2 = g.grid.integrate(np.abs(laplacian(f, g).samples) ** 2 * dens)
    K = g.gauss_curvature()
    kg = g.grid.integrate(np.real(
        multiply(K, grad(f, g).norm2()).samples) * dens)
    return float(lhs), float(lap2 - kg)


def bochner_oneform(F: OneForm, grid):
    """(int |Hess F|^2, RHS) of the 1-form Bochner identity on the unit sphere.

    Uses raw spin ladders up to |s| = 3 internally for the second-derivative
    components; only defined on the round reference (K = 1), where

        RHS = int |Delta F|^2 - 2 int |grad F|^2
              + int (|Div F|^2 + |Curl F|^2) + int |F|^2

    (both first-order squares appear; checked mode-by-mode on gradient and
    curl eigenfields).
    """
    from .sphere import ladder_lower, ladder_raise, raw_synthesize

    L = grid.Lmax

    def up(c, s):
        return ladder_raise(c, s, L)

    def dn(c, s):
        return ladder_lower(c, s, L)

    cp = F.plus.coeffs
    cm = F.minus.coeffs
    # second covariant derivative components: T_abc = eth_a eth_b F_c / 2,
    # four independent classes for a real 1-form (conjugates pair up)
    pieces = [
        (up(up(cp, 1), 2), 3),   # (m, m, m)
        (up(up(cm, -1), 0), 1),  # (m, m, mbar)
        (up(dn(cp, 1), 0), 1),   # (m, mbar, m)
        (dn(up(cp, 1), 2), 1),   # (mbar, m, m)
    ]
    lhs = 0.0
    for coeffs, spin in pieces:
        samp = raw_synthesize(grid, coeffs / 2.0, spin)
        lhs += 2.0 * grid.integrate(np.abs(samp) ** 2)

    met = MetricRep.round_sphere(grid, 1.0)
    lapF = rough_laplacian_oneform(F, met)
    rhs = grid.integrate(np.real(lapF.norm2().samples)) \
        - 2.0 * grid.integrate(np.real(_gradsq_oneform(F, met).samples)) \
        + grid.integrate(np.abs(div(F, met).samples) ** 2) \
        + grid.integrate(np.abs(curl(F, met).samples) ** 2) \
        + grid.integrate(np.real(F.norm2().samples))
    return float(lhs), float(rhs)


def _gradsq_oneform(F: OneForm, g: MetricRep) -> SpinField:
    """|grad F|^2 = sum of squared first covariant derivative components."""
    a = eth_g(F.plus, g) * (1.0 / SQRT2)
    b = ethbar_g(F.plus, g) * (1.0 / SQRT2)
    c = eth_g(F.minus, g) * (1.0 / SQRT2)
    d = ethbar_g(F.minus, g) * (1.0 / SQRT2)
    return multiply(a, a.conj()) + multiply(b, b.conj()) \
        + multiply(c, c.conj()) + multiply(d, d.conj())


# --------------------------------------------------------------------------
# convergence studies
# --------------------------------------------------------------------------

def convergence_study(data, exact, base_cfg, dvs, v_end=2.0):
    """Solve at several v-resolutions and report errors and observed orders."""
    from .solver import SolverConfig, continue_foliation

    rows = []
    for dv in dvs:
        cfg = SolverConfig(delta=base_cfg.delta, dv=dv, tol=base_cfg.tol,
                           max_iter=base_cfg.max_iter,
                           threads=base_cfg.threads)
        fol = continue_foliation(data, cfg, v_end=v_end)
        err = max(np.max(np.abs(fol.s[i] - exact.s_exact(v)))
                  for i, v in enumerate(fol.v_nodes))
        rows.append((dv, err))
    orders = [float(np.log2(rows[i][1] / rows[i + 1][1])
                    / np.log2(rows[i][0] / rows[i + 1][0]))
              for i in range(len(rows) - 1)]
    ks = np.log(np.array([r[0] for r in rows]))
    es = np.log(np.array([r[1] for r in rows]))
    slope = float(np.polyfit(ks, es, 1)[0])
    return rows, orders, slope
