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
    linf_err: float | None = None
    l2_err: float | None = None


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


def _check_mass(history: list[HistoryRecord]) -> InvariantCheck:
    mass0 = history[0].mass
    scale = max(abs(mass0), 1.0)
    for rec in history[1:]:
        budget = MASS_DRIFT_TOL * scale * max(1.0, rec.step / 1000.0)
        drift = abs(rec.mass - mass0)
        if drift > budget:
            return InvariantCheck(
                "mass conservation", False, rec.step, f"drift {drift:.3e} > {budget:.3e}"
            )
    return InvariantCheck("mass conservation", True)


def _check_r_chain(history: list[HistoryRecord]) -> list[InvariantCheck]:
    checks = []
    bad = next((rec for rec in history if rec.r is None or not rec.r > 0), None)
    if bad is not None:
        checks.append(InvariantCheck("r positivity", False, bad.step, f"r = {bad.r}"))
    else:
        checks.append(InvariantCheck("r positivity", True))
    for prev, cur in zip(history, history[1:]):
        if prev.r is None or cur.r is None:
            continue
        if cur.r > prev.r * (1.0 + R_MONOTONE_SLACK):
            checks.append(
                InvariantCheck("r monotone", False, cur.step, f"{prev.r} -> {cur.r}")
            )
            break
    else:
        checks.append(InvariantCheck("r monotone", True))
    return checks


def _check_xi(history: list[HistoryRecord]) -> InvariantCheck:
    bad = next((rec for rec in history if rec.xi is None or not rec.xi > 0), None)
    if bad is not None:
        return InvariantCheck("xi positivity", False, bad.step, f"xi = {bad.xi}")
    return InvariantCheck("xi positivity", True)


def _check_finite(history: list[HistoryRecord]) -> InvariantCheck:
    for rec in history:
        present = [rec.mass, rec.energy, rec.h2, rec.dissipation]
        present += [v for v in (rec.r, rec.xi, rec.sav_r, rec.linf_err, rec.l2_err) if v is not None]
        if not all(np.isfinite(v) for v in present):
            return InvariantCheck("finiteness", False, rec.step, "non-finite record value")
    return InvariantCheck("finiteness", True)


def assert_invariants(history: list[HistoryRecord], scheme: SchemeKind) -> InvariantReport:
    """Check the invariants a completed history must satisfy.

    Mass constancy and finiteness apply to every scheme; the positive,
    non-increasing R chain and xi > 0 apply to the four auxiliary-variable
    schemes only.  Failures are reported, not raised.
    """
    if not history:
        raise ValueError("history is empty")
    checks = [_check_mass(history), _check_finite(history)]
    if scheme.is_pav:
        checks.extend(_check_r_chain(history))
        checks.append(_check_xi(history))
    return InvariantReport(tuple(checks))
