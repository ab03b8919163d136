"""Picard solver for the canonical-foliation graph system.

On each window [v0, v0+delta] the iteration alternates the transport update

    s_{n+1}(v, w) = s_0(w) + int_{v0}^{v} 1/Omega_n dv'

(4th-order cumulative quadrature on the window's uniform v-nodes) with the
elliptic update log Omega_{n+1} = Delta^{-1} (F - mean F) at every node,
F = rho - Div zeta of the canonical leaf s_{n+1} (assemble_F), monitoring
boundedness (M_n) and contraction (Delta_n) until the fixed point is
reached.  A window is a range of levels of the foliation's arrays, solved
in place from its level 0, the seed: the leaf v = 1, or the last level the
window before accepted.  Each seed's lapse is solved once and checked
once; a rejected window is halved, down to two dv steps, and retried from
it, and every way a march stops is a BreakdownError (continue_foliation).

The elliptic updates of one sweep are independent.  They are solved one after
another in fixed blocks of LAPSE_BLOCK v-levels, each block as one stack of
leaves (leading axis of every sample array, see sphere): one call per
transform and one generator read per block.

Memory.  A sweep holds three window-sized arrays: the last graph, the lapse
and the next graph.  exp(-log Omega) is formed in the next graph's array,
and cumulative_integral turns it into the quadrature in place.  Each block's
new lapse is monitored against the lapse it replaces and then written over
it.  M_n and Delta_n are formed per block, one analysis of four differences
each, and the seed level's terms once per window: a whole-window analysis
makes full-size temporaries that cost more than its arithmetic and set the
solve's peak memory, while a stacked analysis gives each field the same
bits at any stack size of 2 or more.  The Sobolev sums weight the
block's per-degree power spectrum by (l(l+1))^p (tensors.spectral_l2, the
round-sphere norm the norm suite takes too); the block's coefficients live
only for that call.

Stopping rule.  A sweep is accepted when Delta_n <= max(tol,
roundoff_floor(Lmax, sup|iterate|)).  The monitor tracks two derivatives,
so it weights coefficient roundoff by up to l(l+1) and Delta_n need not
fall below that floor however close the fixed point is; a tol below it is
read as the floor.  The accepted window must also have contracted: its
observed kappa, which ignores ratios whose denominator is at or below
max(10 tol, floor), must stay below KAPPA_MAX.  A window that does not
converge in max_iter sweeps, converges with too large a kappa, or meets a
lapse iterate at or past LAPSE_BOUND raises NonConvergenceError; a leaf
that leaves the data slab raises OutOfDomainError from its generator read.
Every iterate must be finite: the first non-finite graph or lapse raises
NonFiniteIterateError.
"""

from dataclasses import dataclass

import numpy as np

from . import container
from .errors import (BreakdownError, ConfigurationError, DatasetError,
                     NonConvergenceError, NonFiniteIterateError,
                     OutOfDomainError)
from .comparison import canonical_rho, canonical_zeta
from .geodesic import GeodesicNullData
from .reports import write_csv
from .sphere import SpinField, raw_analyze
from .tensors import MetricRep, div, grad, invert_laplacian, spectral_l2

# v-levels per stacked lapse solve, and per block of the other block-wise
# work of a foliation (monitor, quadrature increments, max_omega_dev):
# larger blocks amortise per-call overhead, smaller ones bound the memory of
# the stacked temporaries
LAPSE_BLOCK = 8
KAPPA_MAX = 0.9       # acceptance bound on the observed contraction
LAPSE_BOUND = 0.1     # |log Omega| < 1/10 on accepted windows
SEED_BOUND = 0.01     # |log Omega_0| <= 1/100 at the window start
MARGIN = 0.05         # refuse to start this close to s*


@dataclass
class SolverConfig:
    """Knobs of the window marcher; defaults follow the verification setup."""

    delta: float = 0.25          # window length
    dv: float = 1.0 / 64.0       # v-grid spacing (quadrature resolution)
    tol: float = 1e-12           # absolute tolerance on Delta_n; a tol below
                                 # the monitor's roundoff floor is read as
                                 # the floor (see roundoff_floor)
    max_iter: int = 30

    def __post_init__(self):
        if not (0.0 < self.delta <= 1.0):
            raise ConfigurationError("window length delta must lie in (0, 1]")
        if not 0.0 < self.tol < np.inf:
            raise ConfigurationError("tol must be positive and finite")
        if not 0.0 < self.dv < np.inf:
            raise ConfigurationError("dv must be positive and finite")
        if self.max_iter < 1:
            raise ConfigurationError("max_iter must be at least 1")


@dataclass
class WindowSolution:
    """The iteration trace of an accepted Picard window; its graph and lapse
    are in the levels of the arrays it was solved in."""

    M_trace: list
    Delta_trace: list
    kappa: float
    iterations: int


class Foliation:
    """Solved canonical foliation on a uniform v-grid."""

    def __init__(self, data: GeodesicNullData, v_nodes, s_table, logOm_table,
                 windows=None):
        self.data = data
        self.grid = data.grid
        self.v_nodes = np.asarray(v_nodes, dtype=float)
        self.s = np.asarray(s_table, dtype=float)
        self.logOmega = np.asarray(logOm_table, dtype=float)
        self.windows = windows or []

    @property
    def n_levels(self):
        return len(self.v_nodes)

    def s_field(self, i=slice(None)) -> SpinField:
        """The graph at level i, or at a stack of levels (slice or array)."""
        return SpinField.from_samples(self.grid, 0, self.s[i])

    def logOmega_field(self, i=slice(None)) -> SpinField:
        """log Omega at level i, or at a stack of levels."""
        return SpinField.from_samples(self.grid, 0, self.logOmega[i])

    def max_omega_dev(self):
        """max |Omega - 1| over every level, LAPSE_BLOCK levels at a time."""
        return float(max(
            np.max(np.abs(np.exp(self.logOmega[j:j + LAPSE_BLOCK]) - 1.0))
            for j in range(0, self.n_levels, LAPSE_BLOCK)))

    def write_trace_csv(self, path):
        """One row per Picard sweep of every accepted window."""
        write_csv(path, ("window", "n", "M_n", "Delta_n", "kappa"),
                  [(w, n + 1, win.M_trace[n], win.Delta_trace[n], win.kappa)
                   for w, win in enumerate(self.windows)
                   for n in range(win.iterations)])

    def save(self, path):
        """Write the foliation as a "foliation" container (see container)."""
        container.write(path, "foliation", self.grid.Lmax, self.v_nodes,
                        {"s": self.s, "logOmega": self.logOmega})

    @classmethod
    def load(cls, path, data: GeodesicNullData):
        """Read a foliation of `data` written by save(); validated, and its
        v-grid must be uniform: at least 3 strictly ascending nodes whose
        steps agree to 1e-9 relative."""
        c = container.read(path, "foliation", Lmax=data.grid.Lmax)
        steps = np.diff(c.nodes)
        if len(c.nodes) < 3 or np.min(steps) <= 0.0 \
                or np.ptp(steps) > 1e-9 * steps[0]:
            raise DatasetError(f"{path}: the foliation's v-nodes are not a "
                               "uniform ascending grid of at least 3 nodes")
        return cls(data, c.nodes, c.fields["s"], c.fields["logOmega"])


# --------------------------------------------------------------------------
# building blocks
# --------------------------------------------------------------------------

def assemble_F(data: GeodesicNullData, source, metric: MetricRep,
               s: SpinField) -> SpinField:
    """Source F = rho - Div zeta of the canonical lapse equation Delta log
    Omega = F - mean F on a leaf or a stack of leaves s, from source =
    data.source_at(s) and the metric of its psi: canonical_rho and
    canonical_zeta at the tilt grad s.  Under prescribed forcing F is the
    forcing, and metric and s are not read.
    """
    if data.has_prescribed_forcing:
        return source[1]
    _, trchi, zeta, beta, rho = source
    Ups = grad(s, metric)
    zeta, _ = canonical_zeta(trchi, zeta, Ups)
    return canonical_rho(rho, beta, Ups) - div(zeta, metric)


def solve_lapse(metric: MetricRep, F: SpinField) -> SpinField:
    """Mean-free solution of Delta_g logOmega = F - mean_g(F)."""
    return invert_laplacian(F, metric)


def _lapse_at(data, s_samples):
    """log Omega samples on one leaf (ntheta, nphi) or a stack of leaves.

    The leaves of a stack are independent; they share every transform call
    and one generator read.
    """
    s = np.real(s_samples)
    source = data.source_at(s)
    metric = MetricRep(data.grid, psi=source[0])
    F = assemble_F(data, source, metric,
                   SpinField.from_samples(data.grid, 0, s))
    return np.real(solve_lapse(metric, F).samples)


def cumulative_integral(values, dv):
    """4th-order cumulative quadrature at every node of a uniform grid of an
    even number k >= 2 of steps, as picard_window's windows have; any other
    k raises ValueError.

    Integrates the local cubic through the four nearest nodes over each
    subinterval (Simpson's pairwise rule is only 3rd-order at odd nodes).
    Works in place: values (float64, nodes on axis 0) is overwritten with
    the integral from the first node and returned.  Beside it the rule
    holds the increments of LAPSE_BLOCK subintervals and a few leaves.
    """
    k = values.shape[0] - 1
    if k < 2 or k % 2:
        raise ValueError(f"need an even number of steps >= 2, got {k}")
    if k == 2:
        first = dv * (5.0 * values[0] + 8.0 * values[1] - values[2]) / 12.0
        second = dv * (-values[0] + 8.0 * values[1] + 5.0 * values[2]) / 12.0
        values[0] = 0.0
        values[1] = first
        np.add(first, second, out=values[2])
        return values
    # 5-point end rules tuned so the one-sided intervals carry the same
    # one-signed 11/720 h^5 f'''' error as the interior rule; the composite
    # error is then a clean C h^4 with no O(h^5) boundary pollution
    head = dv * (8.0 * values[0] + 23.0 * values[1]
                 - 11.0 * values[2] + 5.0 * values[3]
                 - values[4]) / 24.0
    tail = dv * (8.0 * values[k] + 23.0 * values[k - 1]
                 - 11.0 * values[k - 2] + 5.0 * values[k - 3]
                 - values[k - 4]) / 24.0
    # the interior rule dv (-f0 + 13 f1 + 13 f2 - f3) / 24 of subinterval j
    # (1 <= j <= k-2) replaces node j+2.  Blocks of subintervals go from the
    # top down, so a block reads nodes j-1 .. j+2 below every node that the
    # blocks above it replaced.  13 f1 - f0 is -f0 + 13 f1 bit for bit
    for top in range(k - 1, 1, -LAPSE_BLOCK):
        lo = max(1, top - LAPSE_BLOCK)
        mid = np.multiply(13.0, values[lo:top])
        mid -= values[lo - 1:top - 1]
        mid += 13.0 * values[lo + 1:top + 1]
        mid -= values[lo + 2:top + 2]
        mid *= dv
        mid /= 24.0
        values[lo + 2:top + 2] = mid
    # the running sum, node by node in the order of np.cumsum: node j is
    # node j-1 plus the increment of subinterval j-1, which sits at node j+1
    values[1] = head
    for j in range(2, k):
        np.add(values[j - 1], values[j + 1], out=values[j])
    np.add(values[k - 1], tail, out=values[k])
    values[0] = 0.0
    return values


def _sobolev_sum(f):
    """sum_{p <= 2} ||grad_ring^p f||_{L2(round)} per field of a stack f of
    spin-0 fields: its power spectrum weighted by (l(l+1))^p."""
    lam = f.grid.eigenvalues
    return sum(spectral_l2(f, [lam ** p for p in range(3)]))


def roundoff_floor(Lmax, sup):
    """Level below which the monitor sees only roundoff.

    _sobolev_sum weights each coefficient by up to Lmax(Lmax+1), so rounding
    errors of relative size eps in an iterate of sup-norm `sup` keep Delta_n
    near eps Lmax(Lmax+1) sup however close the fixed point is.
    """
    return np.finfo(float).eps * (Lmax * (Lmax + 1.0)) * sup


def _monitor_terms(grid, s, s_prev, lapse, lapse_prev, s0):
    """[M, Delta] terms of a block of levels: the largest per-level order-2
    Sobolev sum plus sup of the differences of (s, log Omega) from (s0, 0)
    and from the last sweep.  The four differences are stacked into one
    array for one analysis; a stacked analysis gives each field the same
    bits in any block.  Their sups are taken first, so the stack is freed
    before the coefficients are summed."""
    d = np.empty((4,) + s.shape)
    np.subtract(s, s0, out=d[0])
    d[1] = lapse
    np.subtract(s, s_prev, out=d[2])
    np.subtract(lapse, lapse_prev, out=d[3])
    sup = np.max(np.abs(d), axis=(-2, -1))
    coeffs = raw_analyze(grid, d, 0)
    del d
    sob = _sobolev_sum(SpinField.from_coeffs(grid, 0, coeffs))
    return [np.max(sob[k] + sob[k + 1] + sup[k] + sup[k + 1])
            for k in (0, 2)]


def _require_finite(arr, what, v0, n):
    if not np.all(np.isfinite(arr)):
        raise NonFiniteIterateError(
            f"non-finite {what} in the window at v0 = {v0:.6f}, sweep {n}")


def picard_window(data: GeodesicNullData, v, s, logOmega,
                  cfg: SolverConfig) -> WindowSolution:
    """One Picard window on the levels v, solved in place in s and logOmega.

    The three are views of one window's levels of the foliation's arrays
    (continue_foliation passes them).  Level 0 holds the seed leaf and its
    lapse, which the window reads and never writes (continue_foliation
    checks them); the window is solved into the other levels, an even number
    >= 2 of cfg.dv steps.
    """
    grid = data.grid
    v0 = float(v[0])
    s0 = s[0].copy()  # the quadrature of a sweep writes over s's level 0
    logOm0 = logOmega[0]

    # the three window arrays of a sweep: the last graph s_n, the lapse
    # logOmega, which each block's new lapse overwrites in place, and the
    # next graph s_next, which holds exp(-log Omega) until its quadrature
    # lands there in place.  s_n and s_next trade places after each sweep,
    # and the accepted graph is left in s
    s_n, s_next = s, np.empty_like(s)
    s_n[1:] = s0
    logOmega[1:] = logOm0
    # level 0 is the seed leaf in every sweep (the quadrature starts at 0
    # there), so its lapse is logOm0; the other levels go in fixed blocks
    blocks = [slice(j, min(j + LAPSE_BLOCK, len(s)))
              for j in range(1, len(s), LAPSE_BLOCK)]
    # the seed level differs from (s0, 0) by (0, logOm0) and from the last
    # sweep by nothing, in every sweep; its monitor terms are taken once
    seed_terms = _monitor_terms(grid, s0[None], s0[None], logOm0[None],
                                logOm0[None], s0)

    M_trace, Delta_trace = [], []
    for n in range(1, cfg.max_iter + 1):
        np.negative(logOmega, out=s_next)
        np.exp(s_next, out=s_next)
        cumulative_integral(s_next, cfg.dv)
        s_next += s0
        _require_finite(s_next, "graph iterate", v0, n)

        # each block's lapse is checked, monitored against the lapse it
        # replaces and written over it as it lands
        terms = [seed_terms]
        for b in blocks:
            lapse = _lapse_at(data, s_next[b])
            _require_finite(lapse, "lapse iterate", v0, n)
            top = np.max(np.abs(lapse))
            if top >= LAPSE_BOUND:
                raise NonConvergenceError(
                    f"|log Omega| reached {top:.3e} >= {LAPSE_BOUND} in the "
                    f"lapse block from v = {v[b.start]:.6f}, sweep {n}")
            terms.append(_monitor_terms(grid, s_next[b], s_n[b], lapse,
                                        logOmega[b], s0))
            logOmega[b] = lapse

        M, Delta = np.max(terms, axis=0).tolist()
        M_trace.append(M)
        Delta_trace.append(Delta)
        s_n, s_next = s_next, s_n

        # s >= 1 > |log Omega| here, so max(s) is the iterate's sup-norm
        floor = roundoff_floor(grid.Lmax, np.max(s_n))
        if Delta <= max(cfg.tol, floor):
            kappa = _observed_kappa(Delta_trace, max(10.0 * cfg.tol, floor))
            if kappa < KAPPA_MAX:
                np.copyto(s, s_n)
                return WindowSolution(M_trace, Delta_trace, kappa, n)
            raise NonConvergenceError(
                f"window converged but contraction kappa = {kappa:.3f} "
                f"exceeds {KAPPA_MAX}")
    raise NonConvergenceError(
        f"no fixed point within {cfg.max_iter} iterations "
        f"(Delta_n = {Delta_trace[-1]:.3e})")


def _observed_kappa(deltas, floor):
    """Largest contraction ratio over iterates above the given floor."""
    ratios = [deltas[i + 1] / deltas[i]
              for i in range(1, len(deltas) - 1)
              if deltas[i] > floor]
    return max(ratios) if ratios else 0.0


def continue_foliation(data: GeodesicNullData, cfg: SolverConfig,
                       v_end=2.0) -> Foliation:
    """March accepted windows from v = 1 to v_end.

    The v-grid 1 + dv k is uniform by construction: v_end - 1 must be a
    whole even number of dv steps, and every window, halved or not, is a
    range of a whole even number of them.  The lapse of the leaf v = 1 is
    solved once; every other window starts from the last level that the
    window before it accepted, and a halved retry from the same level.
    Every way the march stops is a BreakdownError at its last level: a seed
    past s* - MARGIN or SEED_BOUND (checked once; NaN fails both), a
    non-finite iterate, or a window still rejected at two dv steps.
    """
    total = (v_end - 1.0) / cfg.dv
    n_total = int(round(total)) if np.isfinite(total) else 0
    if n_total < 2 or n_total % 2 or abs(total - n_total) > 1e-9 * n_total:
        raise ConfigurationError(f"v_end - 1 = {v_end - 1.0:g} is not a "
                                 f"whole even number of dv = {cfg.dv:g}")
    # the foliation's own arrays, in which each window is solved
    v_all = 1.0 + cfg.dv * np.arange(n_total + 1)
    s_all = np.empty((n_total + 1,) + data.grid.shape)
    log_all = np.empty_like(s_all)
    s_all[0] = 1.0
    log_all[0] = _lapse_at(data, s_all[0])
    # the whole even number (>= 2) of dv steps nearest delta, odd rounded up
    steps = max(2, int(round(cfg.delta / cfg.dv)))
    steps += steps % 2
    windows, done = [], 0

    def breakdown(reason):
        v0 = float(v_all[done])
        return BreakdownError(
            f"foliation breaks down at v = {v0:.6f}: {reason}", v0)

    while done < n_total:
        top, lapse = np.max(s_all[done]), np.max(np.abs(log_all[done]))
        if not top <= data.s_star - MARGIN:
            raise breakdown(f"seed leaf reaches s = {top:.6f}, within MARGIN "
                            f"= {MARGIN} of the slab end s* = {data.s_star}")
        if not lapse <= SEED_BOUND:
            raise breakdown(f"seed lapse |log Omega_0| = {lapse:.3e} "
                            f"exceeds SEED_BOUND = {SEED_BOUND}")
        win = None
        while win is None:  # halve a rejected window, down to two steps
            n = min(steps, n_total - done)
            levels = slice(done, done + n + 1)
            try:
                win = picard_window(data, v_all[levels], s_all[levels],
                                    log_all[levels], cfg)
            except NonFiniteIterateError as err:
                raise breakdown(err) from err
            except (NonConvergenceError, OutOfDomainError) as err:
                if n < 4:
                    raise breakdown(err) from err
                steps = 2 * (n // 4)
        windows.append(win)
        done += n

    return Foliation(data, v_all, s_all, log_all, windows)
