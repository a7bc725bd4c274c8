"""Tests for error norms, order fitting and the invariant checker."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cahnpav import (
    GridSpec,
    InvalidState,
    RealField,
    SchemeKind,
    ValidationError,
    assert_invariants,
)
from cahnpav.diagnostics import HistoryRecord, error_norms, fit_convergence_order

from helpers import constant, xi_indicator


def make_record(step, *, mass=5.0, r=1.0, xi=0.9, energy=2.0, **overrides):
    fields = dict(
        step=step,
        t=0.01 * step,
        mass=mass,
        energy=energy,
        r=r,
        xi=xi,
        sav_r=None,
        h2=3.0,
        dissipation=0.1,
        linf_err=None,
        l2_err=None,
    )
    fields.update(overrides)
    return HistoryRecord(**fields)


class TestErrorNorms:
    def test_identical_fields(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        f = constant(grid, 1.3)
        assert error_norms(f, f) == (0.0, 0.0)

    def test_constant_offset(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        f = constant(grid, 1.0)
        g = constant(grid, 1.0 - 0.25)
        linf, l2 = error_norms(f, g)
        assert linf == pytest.approx(0.25)
        assert l2 == pytest.approx(0.25 * 2.0)  # |c| sqrt(|Omega|), |Omega| = 4

    def test_norm_ordering(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        rng = np.random.default_rng(0)
        f = RealField(grid, rng.standard_normal(grid.shape))
        g = RealField(grid, rng.standard_normal(grid.shape))
        linf, l2 = error_norms(f, g)
        assert l2 <= math.sqrt(grid.area) * linf * (1 + 1e-14)

    def test_grid_mismatch(self):
        f = constant(GridSpec(16, 16, 2.0, 2.0), 0.0)
        g = constant(GridSpec(16, 16, 1.0, 1.0), 0.0)
        with pytest.raises(ValueError):
            error_norms(f, g)


class TestXiIndicator:
    def test_exact_tracking(self):
        assert xi_indicator(math.sqrt(7.0), 7.0) == pytest.approx(1.0)

    def test_worked_example(self):
        assert xi_indicator(0.5, 4.0) == pytest.approx(0.25)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(InvalidState):
            xi_indicator(1.0, 0.0)


class TestFitConvergenceOrder:
    @pytest.mark.parametrize("order", [1.0, 2.0])
    def test_exact_power_law(self, order):
        dts = [0.1 * 2**-j for j in range(5)]
        errs = [3.7 * dt**order for dt in dts]
        assert fit_convergence_order(dts, errs) == pytest.approx(order, abs=1e-10)

    @settings(deadline=None, max_examples=20)
    @given(scale=st.floats(1e-6, 1e6))
    def test_scale_invariance(self, scale):
        dts = [0.2 * 2**-j for j in range(4)]
        errs = [dt**1.5 for dt in dts]
        base = fit_convergence_order(dts, errs)
        scaled = fit_convergence_order(dts, [scale * e for e in errs])
        assert scaled == pytest.approx(base, abs=1e-9)

    def test_insufficient_data(self):
        with pytest.raises(ValidationError) as excinfo:
            fit_convergence_order([0.1, 0.05], [1.0, 0.5])
        assert excinfo.value.field == "dts"

    def test_rejects_nondecreasing_dts(self):
        with pytest.raises(ValueError):
            fit_convergence_order([0.1, 0.1, 0.05], [1.0, 0.9, 0.5])
        with pytest.raises(ValueError):
            fit_convergence_order([0.05, 0.1, 0.2], [1.0, 0.9, 0.5])

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            fit_convergence_order([0.1, 0.05, 0.025], [1.0, 0.5])

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            fit_convergence_order([0.1, 0.05, 0.025], [1.0, 0.0, 0.5])


class TestAssertInvariants:
    def valid_history(self, n=50):
        records = []
        r = 1.0
        for k in range(n):
            r *= 0.999
            records.append(make_record(k, r=r, xi=0.95))
        return records

    def test_valid_history_passes(self):
        report = assert_invariants(self.valid_history(), SchemeKind.PAV_1A)
        assert report.all_passed

    def test_detects_r_increase(self):
        history = self.valid_history()
        history[20] = make_record(20, r=history[19].r * 1.001)
        report = assert_invariants(history, SchemeKind.PAV_2A)
        failed = [c for c in report.checks if not c.passed]
        assert any(c.name == "r monotone" and c.first_violation_step == 20 for c in failed)

    def test_tolerates_float_slack_on_r(self):
        history = self.valid_history()
        bumped = history[19].r * (1 + 5e-15)  # below the 1e-14 slack
        history[20] = make_record(20, r=bumped)
        report = assert_invariants(history[:21], SchemeKind.PAV_2A)
        assert report.all_passed

    def test_detects_nonpositive_r(self):
        history = self.valid_history()
        history[30] = make_record(30, r=-0.1)
        report = assert_invariants(history, SchemeKind.PAV_1B)
        failed = [c for c in report.checks if not c.passed]
        assert any(c.name == "r positivity" and c.first_violation_step == 30 for c in failed)

    def test_detects_mass_drift(self):
        history = self.valid_history()
        history[10] = make_record(10, mass=5.0 * (1 + 1e-10), r=history[9].r)
        report = assert_invariants(history, SchemeKind.PAV_1A)
        failed = [c for c in report.checks if not c.passed]
        assert any(c.name == "mass conservation" and c.first_violation_step == 10 for c in failed)

    def test_mass_tolerance_scales_with_steps(self):
        # drift budget grows by 1e-12 relative per 1000 steps
        records = [make_record(0)]
        records.append(make_record(5000, mass=5.0 * (1 + 3e-12), r=0.9))
        assert assert_invariants(records, SchemeKind.PAV_1A).all_passed
        records[1] = make_record(5000, mass=5.0 * (1 + 7e-12), r=0.9)
        assert not assert_invariants(records, SchemeKind.PAV_1A).all_passed

    def test_detects_nonpositive_xi(self):
        history = self.valid_history()
        history[7] = make_record(7, xi=0.0, r=history[6].r)
        report = assert_invariants(history, SchemeKind.PAV_2B)
        failed = [c for c in report.checks if not c.passed]
        assert any(c.name == "xi positivity" and c.first_violation_step == 7 for c in failed)

    def test_baseline_skips_pav_checks(self):
        records = [make_record(k, r=None, xi=None) for k in range(5)]
        report = assert_invariants(records, SchemeKind.SEMI_IMPLICIT)
        assert report.all_passed
        assert {c.name for c in report.checks} == {"mass conservation", "finiteness"}

    def test_detects_nonfinite_values(self):
        history = self.valid_history()
        history[3] = make_record(3, energy=float("nan"), r=history[2].r)
        report = assert_invariants(history, SchemeKind.PAV_1A)
        failed = [c for c in report.checks if not c.passed]
        assert any(c.name == "finiteness" and c.first_violation_step == 3 for c in failed)

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            assert_invariants([], SchemeKind.PAV_1A)

    def test_report_renders_violation(self):
        history = self.valid_history()
        history[20] = make_record(20, r=history[19].r * 1.01)
        text = str(assert_invariants(history, SchemeKind.PAV_1A))
        assert "FAIL at step 20" in text
