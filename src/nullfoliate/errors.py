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
    """A Picard window was refused by the one contraction rule, its
    observed kappa reaching solver.KAPPA_MAX after the sweep the message
    names, or found no fixed point in max_iter sweeps.  The march halves
    the window and retries it.  A seed is refused only within solver.MARGIN
    of s* or by a non-finite first sweep, each a BreakdownError."""


class NonFiniteIterateError(NullfoliateError):
    """A Picard graph or lapse iterate holds NaN or infinity.  The march
    does not halve: it breaks down at once, from this error."""


class BreakdownError(NullfoliateError):
    """The march could not continue the foliation: a seed leaf within
    solver.MARGIN of s*, a non-finite iterate, or a window rejected at two
    steps.  Every way a march stops; carries the last v-level it reached.
    """

    def __init__(self, message, last_good_v):
        super().__init__(message)
        self.last_good_v = float(last_good_v)
