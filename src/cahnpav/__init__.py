"""Fourier pseudo-spectral Cahn-Hilliard solver with energy-stable
positive-auxiliary-variable time stepping, SAV and semi-implicit baselines.

The package exports what the README's "Library" section documents; every
other name is imported from its submodule.
"""

from .diagnostics import assert_invariants
from .errors import (
    Diverged,
    InvalidState,
    NonPositiveEnergy,
    SolverError,
    ValidationError,
)
from .grid import GridSpec, RealField
from .model import PhysicalParams
from .problems import ProblemSpec, desk_scale_drop_spec, full_scale_drop_spec, manufactured_spec
from .runner import run_simulation
from .schemes import STEPPERS, SchemeKind, init_state

__all__ = [
    "STEPPERS",
    "Diverged",
    "GridSpec",
    "InvalidState",
    "NonPositiveEnergy",
    "PhysicalParams",
    "ProblemSpec",
    "RealField",
    "SchemeKind",
    "SolverError",
    "ValidationError",
    "assert_invariants",
    "desk_scale_drop_spec",
    "full_scale_drop_spec",
    "init_state",
    "manufactured_spec",
    "run_simulation",
]
