"""Exception hierarchy shared across the package.

The CLI maps these onto its exit-code contract, so new error conditions
should reuse one of the classes below rather than raising bare ValueErrors.
"""


class NullfoliateError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(NullfoliateError):
    """A parameter is outside its documented range, or a config key is unknown."""


class UnsupportedSpinError(NullfoliateError):
    """An operand has a spin weight the operation does not take: a tensor
    component of the wrong spin, a spin-weighted field where spin 0 is
    needed, or a sum of two different spins."""


class OutOfDomainError(NullfoliateError):
    """An evaluation height left the data slab [1, s*]."""


class DatasetError(NullfoliateError):
    """A dataset directory is malformed, truncated or contains non-finite data."""


class NonConvergenceError(NullfoliateError):
    """The Picard iteration did not reach its fixed point.

    Raised when max_iter sweeps pass without Delta_n <= tol or a stall of
    Delta_n at or below the monitor's roundoff floor, or when a window
    converges with an observed contraction kappa >= solver.KAPPA_MAX.
    """

    def __init__(self, message, delta_trace=None):
        super().__init__(message)
        self.delta_trace = list(delta_trace) if delta_trace is not None else []


class NonFiniteIterateError(NullfoliateError):
    """A Picard seed or iterate holds NaN or infinity; no window is accepted."""


class LapseBoundError(NullfoliateError):
    """|log Omega| exceeded the 1/10 bound that accepted solutions must satisfy."""


class BreakdownError(NullfoliateError):
    """Window halving underflowed; the foliation could not be continued.

    Carries the last v-level that was successfully covered.
    """

    def __init__(self, message, last_good_v):
        super().__init__(message)
        self.last_good_v = float(last_good_v)
