"""Fixtures, random fields, and identities (commutators, Bochner, the
Littlewood-Paley partition, the weak-sphericality split) that the tests
check on the package's operators; the package itself runs none of them."""

import dataclasses
import json
from functools import reduce
from operator import add

import numpy as np
import pytest

from nullfoliate import diagnostics, geodesic, solver, sphere
from nullfoliate.reports import ResidualReport
from nullfoliate.sphere import SpinField, build_grid, eth, ethbar, multiply
from nullfoliate.tensors import (MetricRep, OneForm, div, eth_g, ethbar_g,
                                 grad, hessian, hodge_D1, laplacian,
                                 magnitude, rebuild, sizes)


@pytest.fixture(scope="session")
def grid8():
    return build_grid(8)


@pytest.fixture(scope="session")
def grid12():
    return build_grid(12)


@pytest.fixture(scope="session")
def grid16():
    return build_grid(16)


def solve_window(data, cfg):
    """One Picard window of length cfg.delta from the leaf s = 1 at v = 1, in
    new arrays of its levels: the whole even number of steps nearest
    cfg.delta / cfg.dv, each of cfg.delta / steps.  The seed lapse is solved
    here, once, as continue_foliation solves it at v = 1.  Returns the
    WindowSolution and the window's v, s and logOmega."""
    steps = max(2, round(cfg.delta / cfg.dv))
    steps += steps % 2
    cfg = dataclasses.replace(cfg, dv=cfg.delta / steps)
    v = 1.0 + cfg.dv * np.arange(steps + 1)
    s = np.empty((steps + 1,) + data.grid.shape)
    logOmega = np.empty_like(s)
    s[0] = 1.0
    logOmega[0] = solver._lapse_at(data, s[0])
    return solver.picard_window(data, v, s, logOmega, cfg), v, s, logOmega


def harmonic(grid, l, m, spin=0):
    """Unit-coefficient spin harmonic as a SpinField."""
    c = np.zeros((grid.Lmax + 1, 2 * grid.Lmax + 1), dtype=complex)
    c[l, m + grid.Lmax] = 1.0
    return SpinField.from_coeffs(grid, spin, c)


def random_real_scalar(grid, seed, lmax=None):
    """Random real band-limited scalar with conjugate-symmetric coefficients."""
    rng = np.random.default_rng(seed)
    lmax = grid.Lmax - 2 if lmax is None else lmax
    c = np.zeros((grid.Lmax + 1, 2 * grid.Lmax + 1), dtype=complex)
    for l in range(lmax + 1):
        c[l, grid.Lmax] = rng.normal()
        for m in range(1, l + 1):
            z = rng.normal() + 1j * rng.normal()
            c[l, grid.Lmax + m] = z
            c[l, grid.Lmax - m] = (-1) ** m * np.conj(z)
    return SpinField.from_coeffs(grid, 0, c)


def random_spin_field(grid, spin, seed, lmax=None):
    """Random band-limited field of the given spin weight."""
    rng = np.random.default_rng(seed)
    lmax = grid.Lmax - 2 if lmax is None else lmax
    c = np.zeros((grid.Lmax + 1, 2 * grid.Lmax + 1), dtype=complex)
    for l in range(abs(spin), lmax + 1):
        for m in range(-l, l + 1):
            c[l, grid.Lmax + m] = rng.normal() + 1j * rng.normal()
    return SpinField.from_coeffs(grid, spin, c)


def plant_shear(path):
    """A Schwarzschild L=8 dataset under path with a nonzero shear: the
    saved dataset plus chihat' = 1e-3 2Y20 / s^2 (it solves the transport
    d_s chihat' + trchi' chihat' = 0) and a zero alpha', in the manifest
    entries and files of the format that tabulated both."""
    data = geodesic.gen_schwarzschild(0.1, Lmax=8, n_s=24)
    geodesic.save(data, path)
    s = data.s_nodes[:, None, None]
    chihat = 1e-3 * harmonic(data.grid, 2, 0, spin=2).samples / s ** 2
    manifest = json.loads((path / "manifest.json").read_text())
    for name, arr in [("chihat", chihat), ("alpha", 0.0 * chihat)]:
        arr.astype("<c16").tofile(path / f"{name}.bin")
        manifest["fields"].append({"name": name, "spin": 2,
                                   "shape": list(arr.shape),
                                   "dtype": "c128le", "file": f"{name}.bin"})
    (path / "manifest.json").write_text(json.dumps(manifest))
    return path


def log_omega_exact(exact, v):
    """log Omega* at level v of a manufactured solution (MmsExact)."""
    return -np.log1p(exact.epsilon * exact.p(v) * exact.G) - exact.c(v)


def sphere_tables(Lmax, spin):
    """lam[l, m+Lmax, theta]: a view of the cached full-band table."""
    return sphere._plan(build_grid(Lmax), Lmax, spin, False)[0].transpose(
        2, 0, 1)


# --------------------------------------------------------------------------
# identities checked on the package's operators
# --------------------------------------------------------------------------

def rough_laplacian_oneform(X: OneForm, g: MetricRep) -> OneForm:
    """Trace of the second covariant derivative on a 1-form."""
    p = X.plus
    return OneForm(0.5 * (eth_g(ethbar_g(p, g), g) + ethbar_g(eth_g(p, g), g)))


def commutation_grad_laplacian(f: SpinField, metric: MetricRep) -> OneForm:
    """[grad, Delta] f + K grad f (vanishes identically on the continuum)."""
    lhs = grad(laplacian(f, metric), metric) \
        - rough_laplacian_oneform(grad(f, metric), metric)
    K = metric.gauss_curvature()
    return lhs + K * grad(f, metric)


def commutation_check(co, f: SpinField, tolerance=1e-10) -> ResidualReport:
    """Scalar commutation identities along a foliation.

    co is the reconstruction of every level.  Checks [grad, Delta] f =
    -K grad f per level (spectral) and the [nabla_L, grad] f identity by
    v-differencing the gradient of a v-independent test profile.
    """
    rep = ResidualReport(tolerance)
    n = len(co.v)
    metric = co.metric
    rep.add_levels(co.v, {"comm_grad_laplacian": sizes(
        commutation_grad_laplacian(f, metric), metric)})

    gf = grad(f, metric)
    dgp, margin = diagnostics.v_derivative(gf.plus.samples,
                                           diagnostics._dv(co), n)
    inner = slice(margin, n - margin)
    co = co[inner]
    dLgrad = OneForm(SpinField.from_samples(
        metric.grid, 1, diagnostics._omega(co) * dgp[inner]))
    gf = gf[inner]
    # [nabla_L, grad] f = -trchi grad f / 2 + (etab + zeta) L f (chihat = 0)
    #                   with L f = 0 here
    res = dLgrad + 0.5 * (co.trchi * gf)
    rep.add_levels(co.v, {"comm_L_grad": sizes(res, co.metric)})
    return rep


def dLUpsilon_fd(co):
    """nabla_L Upsilon by v-differencing (the cross-path diagnostic value).

    co is the reconstruction of every level of a foliation, as one stack.
    """
    def dL(x):
        return diagnostics._omega(co) * diagnostics.v_derivative(
            x, diagnostics._dv(co), len(co.v))[0]
    return rebuild(co.Upsilon, dL)


def lp_partition_residual(f) -> float:
    """|| (P_{<0} + sum_k P_k) f - f ||_{L2(round)} on a band-limited
    field."""
    return diagnostics.Hs_norm(
        reduce(add, (p for _, p in diagnostics._dyadic(f))) - f, 0.0)


def sphericality_report(co):
    """Per-level split K - 1/v^2 = Div Psi + Theta with Psi = zeta, on the
    reconstruction co of a foliation.

    Theta = -trchi trchib/4 - 1/v^2 + mu follows from the Gauss equation and
    the mass-aspect definition.  Returns (rows, identity_report), one row
    {psi_H12, theta_L2} per level.
    """
    rep = ResidualReport(1e-9)
    g = co.metric
    inv_v2 = SpinField.constant(g.grid, -1.0 / co.v ** 2)
    Theta = -0.25 * multiply(co.trchi, co.trchib) + inv_v2 + co.mu
    Psi = co.zeta
    resid = g.gauss_curvature() + inv_v2 - div(Psi, g) - Theta
    rep.add_levels(co.v, {"sphericality_split": sizes(resid, g)})
    rows = [{"psi_H12": diagnostics.Hs_norm(Psi[i], 0.5), "theta_L2": t}
            for i, t in enumerate(sizes(Theta, g)[1])]
    return rows, rep


def bochner_scalar(f: SpinField, metric: MetricRep):
    """(int |Hess f|^2, int |Delta f|^2 - int K |grad f|^2) under g."""
    g = metric
    H = hessian(f, g)
    dens = g.sqrt_det()
    lhs = g.grid.integrate(magnitude(H) ** 2 * dens)
    lap2 = g.grid.integrate(np.abs(laplacian(f, g).samples) ** 2 * dens)
    K = g.gauss_curvature()
    kg = g.grid.integrate(np.real(
        multiply(K, grad(f, g).norm2()).samples) * dens)
    return float(lhs), float(lap2 - kg)


def bochner_oneform(F: OneForm, grid):
    """(int |Hess F|^2, RHS) of the 1-form Bochner identity on the unit
    sphere (K = 1), where

        RHS = int |Delta F|^2 - 2 int |grad F|^2
              + int (|Div F|^2 + |Curl F|^2) + int |F|^2

    (both first-order squares appear; checked mode-by-mode on gradient and
    curl eigenfields).  The Hessian components T_abc = eth_a eth_b F_c / 2
    reach spin 3; a real 1-form has four independent classes, (m, m, m),
    (m, m, mbar), (m, mbar, m) and (mbar, m, m), and the conjugates of
    these, so each counts twice.
    """
    p, m = F.plus, F.minus
    lhs = sum(2.0 * grid.integrate(np.abs((0.5 * T).samples) ** 2)
              for T in (eth(eth(p)), eth(eth(m)), eth(ethbar(p)),
                        ethbar(eth(p))))

    met = MetricRep.round_sphere(grid, 1.0)
    lapF = rough_laplacian_oneform(F, met)
    rhs = grid.integrate(np.real(lapF.norm2().samples)) \
        - 2.0 * grid.integrate(magnitude(diagnostics._grad_any(F, met)) ** 2) \
        + grid.integrate(np.abs(div(F, met).samples) ** 2) \
        + grid.integrate(np.abs(hodge_D1(F, met)[1].samples) ** 2) \
        + grid.integrate(np.real(F.norm2().samples))
    return float(lhs), float(rhs)
