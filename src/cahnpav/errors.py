"""Exception types raised by the solver."""


class SolverError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveEnergy(SolverError):
    """The shifted free energy came out non-positive; the energy constant c0 is too small."""


class InvalidState(SolverError):
    """A state quantity violates a precondition (e.g. energy <= 0 in an auxiliary update)."""


class Diverged(SolverError):
    """A time step produced non-finite values or exceeded the overflow guard.

    Raised by the baseline integrators, which are only conditionally stable.
    """


class ValidationError(SolverError, ValueError):
    """An input value violates a constraint: ``field`` names it (an attribute
    such as ``ny``, or a dotted config key), ``reason`` says how."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
