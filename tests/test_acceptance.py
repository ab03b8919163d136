"""Acceptance suite: one test per criterion, each at its stated tolerance.

Each test prints a single PASS line on success (pytest -s shows them live);
a failed assertion prints the measured numbers in the failure message.
"""

import json
import time

import numpy as np
import pytest

from nullfoliate import cli, comparison, diagnostics, geodesic, solver
from nullfoliate.sphere import SpinField, build_grid
from nullfoliate.tensors import (MetricRep, dual, grad, hessian, hodge_D1,
                                 laplacian, magnitude)

from conftest import commutation_check, dLUpsilon_fd, lp_partition_residual


def _report(name, ok, detail):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


@pytest.fixture(scope="module")
def mms23():
    spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=23, n_s=40)
    return geodesic.gen_manufactured(spec)


@pytest.fixture(scope="module")
def mms15():
    spec = geodesic.MmsSpec(epsilon=1e-2, Lmax=15, n_s=40)
    return geodesic.gen_manufactured(spec)


def solve_error(data, exact, dv, delta=0.5, v_end=2.0):
    cfg = solver.SolverConfig(delta=delta, dv=dv, tol=1e-13)
    fol = solver.continue_foliation(data, cfg, v_end=v_end)
    return fol, exact.max_error(fol.v_nodes, fol.s)


def test_criterion_1_minkowski_end_to_end():
    """Lmax=15, dv=1/64, v in [1,2]: |Omega-1|, |s-v| at 1e-12, every
    residual suite at 1e-10, single-threaded runtime within 30 s."""
    t0 = time.time()
    data = geodesic.gen_minkowski(s_star=2.5, Lmax=15, n_s=32)
    cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 64.0, tol=1e-13)
    fol = solver.continue_foliation(data, cfg, v_end=2.0)
    om_dev = fol.max_omega_dev()
    s_dev = np.max(np.abs(fol.s - fol.v_nodes[:, None, None]))
    co = diagnostics.canonical(fol)
    crep = diagnostics.constraint_residuals(data, co)
    trep = diagnostics.transport_residuals(co)
    comm = commutation_check(
        co, SpinField.from_coeffs(data.grid, 0, _unit_coeff(data.grid, 3, 1)))
    runtime = time.time() - t0
    worst = max(crep.worst(), trep.worst(), comm.worst())
    ok = om_dev <= 1e-12 and s_dev <= 1e-12 and worst <= 1e-10 \
        and runtime <= 30.0
    assert _report(
        "1 minkowski",
        ok,
        f"|Omega-1|={om_dev:.2e}, |s-v|={s_dev:.2e}, residuals={worst:.2e}, "
        f"runtime={runtime:.1f}s"), (om_dev, s_dev, worst, runtime)


def _unit_coeff(grid, l, m):
    c = np.zeros((grid.Lmax + 1, 2 * grid.Lmax + 1), dtype=complex)
    c[l, m + grid.Lmax] = 1.0
    return c


def test_criterion_2_schwarzschild():
    """M=0.1: |Omega-1| at 1e-10, Gauss at 1e-9, canonical trchib transport
    at 1e-8, mass aspect mu = 2M/s^3 within 1e-8 relative."""
    data = geodesic.gen_schwarzschild(0.1, s_star=2.5, Lmax=8, n_s=32)
    cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 64.0, tol=1e-13)
    fol = solver.continue_foliation(data, cfg, v_end=2.0)
    om_dev = fol.max_omega_dev()
    crep = diagnostics.constraint_residuals(
        data, diagnostics.canonical(fol, slice(0, None, 4)))
    trep = diagnostics.transport_residuals(diagnostics.canonical(fol))
    gauss = crep.worst("gauss")
    trchib = trep.worst("trchib_transport")
    mu_rel = 0.0
    for i in range(0, fol.n_levels, 16):
        co = comparison.reconstruct(data, fol.s_field(i),
                                    fol.logOmega_field(i), fol.v_nodes[i])
        expect = 2.0 * 0.1 / fol.s[i] ** 3
        mu_rel = max(mu_rel, float(np.max(
            np.abs(np.real(co.mu.samples) - expect) / expect)))
    ok = om_dev <= 1e-10 and gauss <= 1e-9 and trchib <= 1e-8 \
        and mu_rel <= 1e-8
    assert _report(
        "2 schwarzschild",
        ok,
        f"|Omega-1|={om_dev:.2e}, gauss={gauss:.2e}, "
        f"trchib_transport={trchib:.2e}, mu rel={mu_rel:.2e}"), \
        (om_dev, gauss, trchib, mu_rel)


def test_criterion_3_mms_convergence(mms23, mms15):
    """eps=1e-2: error <= 1e-9 at Lmax=23, dv=1/64; observed v-order
    4.0 +- 0.3 across three dv-halvings; error drops >= 10x from Lmax 15
    to 23."""
    data23, exact23 = mms23
    data15, exact15 = mms15
    errs = {}
    for k in [8, 16, 32, 64]:
        _, errs[k] = solve_error(data23, exact23, 1.0 / k)
    _, err15 = solve_error(data15, exact15, 1.0 / 64.0)
    ks = np.array([8, 16, 32, 64], dtype=float)
    es = np.array([errs[k] for k in [8, 16, 32, 64]])
    slope = float(np.polyfit(np.log(1.0 / ks), np.log(es), 1)[0])
    ratio = err15 / errs[64]
    ok = errs[64] <= 1e-9 and abs(slope - 4.0) <= 0.3 and ratio >= 10.0
    assert _report(
        "3 mms convergence",
        ok,
        f"err(L23,1/64)={errs[64]:.2e}, v-order={slope:.3f}, "
        f"L15/L23 ratio={ratio:.1f}"), (errs, slope, ratio)


def test_criterion_4_picard_contraction(mms23):
    """delta=0.1 window: kappa = Delta_{n+1}/Delta_n <= 0.5 for all n >= 1
    and convergence to 1e-11 within 20 iterations."""
    data, _ = mms23
    cfg = solver.SolverConfig(delta=0.1, dv=1.0 / 64.0, tol=1e-11)
    win = solver.picard_window(data, 1.0, np.ones(data.grid.shape), cfg,
                               delta=0.1)
    ratios = [win.Delta_trace[i + 1] / win.Delta_trace[i]
              for i in range(len(win.Delta_trace) - 1)]
    ok = all(r <= 0.5 for r in ratios) and win.iterations <= 20 \
        and win.Delta_trace[-1] <= 1e-11
    assert _report(
        "4 picard contraction",
        ok,
        f"iters={win.iterations}, max ratio="
        f"{max(ratios):.2e}" if ratios else "single step"), \
        (win.iterations, ratios)


def test_criterion_5_identity_suites():
    """Bochner int|Hess Y10|^2 = 2 (1e-10); D1 D1* = -Delta (1e-11);
    LP partition reconstruction (1e-10); H^{1/2}(Y20) = 7^{1/4} (1e-12)."""
    grid = build_grid(12)
    met = MetricRep.round_sphere(grid, 1.0)
    y10 = SpinField.from_coeffs(grid, 0, _unit_coeff(grid, 1, 0))
    lhs = grid.integrate(magnitude(hessian(y10, met)) ** 2)
    bochner_err = abs(lhs - 2.0)

    a = SpinField.from_coeffs(grid, 0, _unit_coeff(grid, 2, 0))
    b = SpinField.from_coeffs(grid, 0, _unit_coeff(grid, 3, 0))
    X = -1.0 * grad(a, met) + dual(grad(b, met))  # D1* (a, b)
    f, h = hodge_D1(X, met)
    dd_err = max(np.max(np.abs(f.coeffs + laplacian(a, met).coeffs)),
                 np.max(np.abs(h.coeffs + laplacian(b, met).coeffs)))

    rand = np.zeros((grid.Lmax + 1, 2 * grid.Lmax + 1), dtype=complex)
    rng = np.random.default_rng(0)
    for l in range(grid.Lmax - 1):
        for m in range(-l, l + 1):
            rand[l, m + grid.Lmax] = rng.normal() + 1j * rng.normal()
    lp_err = lp_partition_residual(SpinField.from_coeffs(grid, 0, rand))

    h12 = diagnostics.Hs_norm(a, 0.5)
    h12_err = abs(h12 - 7.0 ** 0.25)

    ok = bochner_err <= 1e-10 and dd_err <= 1e-11 and lp_err <= 1e-10 \
        and h12_err <= 1e-12
    assert _report(
        "5 identity suites",
        ok,
        f"bochner={bochner_err:.2e}, D1D1*={dd_err:.2e}, LP={lp_err:.2e}, "
        f"H12={h12_err:.2e}"), (bochner_err, dd_err, lp_err, h12_err)


def test_criterion_6_cross_path_coefficients(mms23):
    """etab reconstructed through the comparison proposition (with a
    v-differenced nabla_L Upsilon) agrees with -zeta - grad log Omega
    to 1e-9 on manufactured solutions."""
    data, _ = mms23
    cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 128.0, tol=1e-13)
    fol = solver.continue_foliation(data, cfg, v_end=2.0)
    levels = diagnostics.canonical(fol)
    dl = dLUpsilon_fd(levels)
    _, margin = diagnostics._fd_stencil(fol.n_levels)
    worst = 0.0
    for i in range(margin, fol.n_levels - margin):
        co = levels[i]
        zg = data.geometry_at(np.real(co.s.samples)).zeta
        path_a = -1.0 * zg + dl[i]
        path_b = -1.0 * co.zeta - grad(co.logOmega, co.metric)
        worst = max(worst, (path_a - path_b).max_abs())
    ok = worst <= 1e-9
    assert _report("6 cross-path etab", ok, f"disagreement={worst:.2e}"), worst


def test_criterion_7_smallness_propagation():
    """O-norm scales linearly in the manufactured amplitude (log-log slope
    1.0 +- 0.1 over eps in {1e-2, 1e-3, 1e-4}) and |Omega-1|/eps agrees to
    10% between the two smallest amplitudes."""
    o_norms = {}
    om_ratios = {}
    for eps in [1e-2, 1e-3, 1e-4]:
        spec = geodesic.MmsSpec(epsilon=eps, Lmax=15, n_s=40)
        data, exact = geodesic.gen_manufactured(spec)
        cfg = solver.SolverConfig(delta=0.25, dv=1.0 / 32.0, tol=1e-13)
        fol = solver.continue_foliation(data, cfg, v_end=2.0)
        rep = diagnostics.norm_suite(data, diagnostics.canonical(fol))
        o_norms[eps] = rep.get("O")
        om_ratios[eps] = fol.max_omega_dev() / eps
    eps_arr = np.array([1e-2, 1e-3, 1e-4])
    slope = float(np.polyfit(np.log(eps_arr),
                             np.log([o_norms[e] for e in eps_arr]), 1)[0])
    stab = abs(om_ratios[1e-3] / om_ratios[1e-4] - 1.0)
    ok = abs(slope - 1.0) <= 0.1 and stab <= 0.1
    assert _report(
        "7 smallness propagation",
        ok,
        f"O-slope={slope:.3f}, |Omega-1|/eps drift={stab:.3%}"), \
        (slope, om_ratios)


def test_criterion_8_breakdown_behaviour(tmp_path):
    """A dataset truncated at s* = 1.2 produces exit code 3, a breakdown
    report at v close to 1.2 and no non-finite values in emitted files."""
    ds = str(tmp_path / "ds")
    out = str(tmp_path / "fol")
    assert cli.main(["generate", "--model", "minkowski", "--lmax", "8",
                     "--n-s", "24", "--s-star", "1.2", "--out", ds]) == 0
    code = cli.main(["solve", "--data", ds, "--out", out,
                     "--dv", str(1.0 / 64.0)])
    report = json.loads((tmp_path / "fol" / "breakdown.json").read_text())
    v_break = float(report["last_good_v"])
    finite = True
    import os
    for root, _, files in os.walk(tmp_path):
        for name in files:
            if name.endswith(".bin"):
                arr = np.fromfile(os.path.join(root, name), dtype="<f8")
                finite = finite and bool(np.all(np.isfinite(arr)))
    ok = code == 3 and abs(v_break - 1.2) <= 0.1 and finite
    assert _report(
        "8 breakdown",
        ok,
        f"exit={code}, v_break={v_break:.4f}, finite={finite}"), \
        (code, v_break, finite)
