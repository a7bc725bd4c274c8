"""Per-step measurements, error norms, convergence fitting and invariant checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .grid import RealField, l2_norm
from .schemes import SchemeKind

#: Relative mass drift allowed per 1000 steps, calibrated to FFT round-off.
MASS_DRIFT_TOL = 1e-12

#: Floating-point slack on the monotone R chain (a couple of ulps per step).
R_MONOTONE_SLACK = 1e-14


@dataclass(frozen=True)
class HistoryRecord:
    """One sampled instant of a simulation.  Optional entries are None when
    the quantity does not exist for the scheme (e.g. r for the baselines) or
    no exact solution is available (the error norms)."""

    step: int
    t: float
    mass: float
    energy: float
    r: float | None
    xi: float | None
    sav_r: float | None
    h2: float
    dissipation: float
    linf_err: float | None
    l2_err: float | None


def error_norms(phi: RealField, exact: RealField) -> tuple[float, float]:
    """(L-infinity, L2) norms of phi - exact on the shared grid."""
    if phi.grid != exact.grid:
        raise ValueError("fields live on different grids")
    diff = phi.values - exact.values
    return float(np.max(np.abs(diff))), l2_norm(RealField(phi.grid, diff))


def fit_convergence_order(dts: list[float], errors: list[float]) -> float:
    """Least-squares slope of log(error) against log(dt).

    Requires at least three strictly decreasing positive step sizes.
    """
    if len(dts) != len(errors):
        raise ValueError("dts and errors must have equal length")
    if len(dts) < 3:
        raise ValidationError("dts", f"need at least 3 samples, got {len(dts)}")
    dts_arr = np.asarray(dts, dtype=float)
    errs_arr = np.asarray(errors, dtype=float)
    if np.any(dts_arr <= 0) or np.any(errs_arr <= 0):
        raise ValueError("step sizes and errors must be positive")
    if np.any(np.diff(dts_arr) >= 0):
        raise ValueError("step sizes must be strictly decreasing")
    slope = np.polyfit(np.log(dts_arr), np.log(errs_arr), 1)[0]
    return float(slope)


@dataclass(frozen=True)
class InvariantCheck:
    name: str
    passed: bool
    first_violation_step: int | None = None
    detail: str = ""


@dataclass(frozen=True)
class InvariantReport:
    checks: tuple[InvariantCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else f"FAIL at step {c.first_violation_step} ({c.detail})"
            lines.append(f"{c.name}: {status}")
        return "\n".join(lines)


def _first_violation(name: str, history: list[HistoryRecord], violation) -> InvariantCheck:
    """The check ``name``: failed at the first record for which ``violation(prev,
    rec)`` returns a detail string, ``prev`` being the record before it (None for
    the first); passed when no record does."""
    for prev, rec in zip([None, *history], history):
        detail = violation(prev, rec)
        if detail:
            return InvariantCheck(name, False, rec.step, detail)
    return InvariantCheck(name, True)


def _mass_drift(mass0: float, rec: HistoryRecord) -> str | None:
    budget = MASS_DRIFT_TOL * max(abs(mass0), 1.0) * max(1.0, rec.step / 1000.0)
    drift = abs(rec.mass - mass0)
    return f"drift {drift:.3e} > {budget:.3e}" if drift > budget else None


def _non_finite(rec: HistoryRecord) -> str | None:
    present = [rec.mass, rec.energy, rec.h2, rec.dissipation]
    present += [v for v in (rec.r, rec.xi, rec.sav_r, rec.linf_err, rec.l2_err) if v is not None]
    return None if all(np.isfinite(v) for v in present) else "non-finite record value"


def _not_positive(name: str, value: float | None) -> str | None:
    return None if value is not None and value > 0 else f"{name} = {value}"


def _r_rise(prev: HistoryRecord | None, rec: HistoryRecord) -> str | None:
    if prev is None or prev.r is None or rec.r is None:
        return None
    return f"{prev.r} -> {rec.r}" if rec.r > prev.r * (1.0 + R_MONOTONE_SLACK) else None


def assert_invariants(history: list[HistoryRecord], scheme: SchemeKind) -> InvariantReport:
    """Check the invariants a completed history must satisfy.

    Mass constancy and finiteness apply to every scheme; the positive,
    non-increasing R chain and xi > 0 apply to the four auxiliary-variable
    schemes only.  Failures are reported, not raised.
    """
    if not history:
        raise ValueError("history is empty")
    mass0 = history[0].mass
    checks = {
        "mass conservation": lambda prev, rec: _mass_drift(mass0, rec),
        "finiteness": lambda prev, rec: _non_finite(rec),
    }
    if scheme.is_pav:
        checks["r positivity"] = lambda prev, rec: _not_positive("r", rec.r)
        checks["r monotone"] = _r_rise
        checks["xi positivity"] = lambda prev, rec: _not_positive("xi", rec.xi)
    return InvariantReport(tuple(_first_violation(name, history, check) for name, check in checks.items()))
