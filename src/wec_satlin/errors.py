"""Exception hierarchy shared by all analysis modules.

Errors fall into three groups that the CLI maps to exit codes:
configuration problems (exit 1), numerical/convergence failures (exit 2),
and verification failures (exit 3, raised by the verify command itself).
"""


class WecSatlinError(Exception):
    """Base class for all package errors."""


class DomainError(WecSatlinError, ValueError):
    """An input lies outside the physical or mathematical domain of an operation."""


class SingularityError(WecSatlinError, ZeroDivisionError):
    """An operation was evaluated exactly at a pole (e.g. z = -1, vanishing denominator)."""


class InfeasibleError(WecSatlinError, ValueError):
    """A requested target cannot be met anywhere in the searched region.

    Kept as public API; nothing in the package raises it, since every
    amplitude target in (0, 1] is met on the optimal contour.
    """


class ConvergenceError(WecSatlinError, RuntimeError):
    """An iterative solver failed to converge.

    Carries the residual trace so the failure can be diagnosed offline.
    """

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class SimulationError(WecSatlinError, RuntimeError):
    """Time-domain integration produced a non-finite state or an unresolvable
    algebraic loop.  Carries the step index and a short state trace."""

    def __init__(self, message, step=None, trace=None):
        super().__init__(message)
        self.step = step
        self.trace = trace


class ConfigError(WecSatlinError, ValueError):
    """A run configuration file is malformed, incomplete, or contains unknown keys."""
