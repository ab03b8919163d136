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
    """A Picard window did not reach its fixed point: max_iter sweeps pass
    without Delta_n <= max(tol, the monitor's roundoff floor), it converges
    with an observed contraction kappa >= solver.KAPPA_MAX, or a lapse
    iterate reaches the bound |log Omega| < 1/10 of accepted windows
    (solver.LAPSE_BOUND), in the block of levels and the sweep the message
    names.  The march halves the window and retries it."""


class NonFiniteIterateError(NullfoliateError):
    """A Picard graph or lapse iterate holds NaN or infinity.  The march
    does not halve: it breaks down at once, from this error."""


class BreakdownError(NullfoliateError):
    """The march could not continue the foliation: a seed failed its
    bounds, a window was rejected at two steps, or an iterate was not
    finite.  Every way a march stops; carries the last v-level it reached.
    """

    def __init__(self, message, last_good_v):
        super().__init__(message)
        self.last_good_v = float(last_good_v)
