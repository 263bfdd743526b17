"""Exception taxonomy shared by the toolkit.

Every class derives from ToolkitError.  Each class carries the exit code
the command line returns for it, so this module is the one table that maps
errors to exit codes: a validation problem exits 2 (ToolkitError's
`exit_code`), and the numerical failures (divergence, non-convergence,
stalled optimization, ...) set `exit_code = 3`.
"""


class ToolkitError(Exception):
    """Base class for every error raised by this package."""

    exit_code = 2


class InputError(ToolkitError):
    """Malformed arguments: dimension mismatches, bad shapes, bad values."""


class ConfigurationError(ToolkitError):
    """A request that is well-formed but not runnable as configured."""


class DivergenceError(ToolkitError):
    """State norm exploded during integration."""

    exit_code = 3
    row = None  # the first diverging row, when a block of rows was stepped

    def __init__(self, message, step=None, time=None):
        super().__init__(message)
        self.step = step
        self.time = time


class NonConvergenceError(ToolkitError):
    """Pullback horizon ladder failed to contract."""

    exit_code = 3

    def __init__(self, message, gaps=None, seed=None):
        super().__init__(message)
        self.gaps = list(gaps) if gaps is not None else None
        self.seed = seed


class NonInvertibleDiffusionError(ToolkitError):
    """Diffusion factor too close to zero to recover a control."""

    exit_code = 3


class OptimizationStalledError(ToolkitError):
    """Line search failed; carries the best iterate seen so far."""

    exit_code = 3

    def __init__(self, message, path=None, value=None):
        super().__init__(message)
        self.path = path
        self.value = value


class InsufficientDataError(ToolkitError):
    """Not enough usable points for a requested fit."""

    exit_code = 3
