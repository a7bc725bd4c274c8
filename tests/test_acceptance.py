"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  All runs are desk scale; the full 512^2 benchmark is constructible
but deliberately not exercised here.
"""

import math
import time
from dataclasses import dataclass, replace

import numpy as np
import pytest

from cahnpav import (
    GridSpec,
    PhysicalParams,
    RealField,
    SchemeKind,
    desk_scale_drop_spec,
    init_state,
    manufactured_spec,
    run_simulation,
)
from cahnpav.diagnostics import fit_convergence_order
from cahnpav.grid import h2_norm, integrate
from cahnpav.model import chemical_potential_exact, energy_total
from cahnpav.schemes import STEPPERS

from helpers import from_function, sav_modified_energy

PAV = [SchemeKind.PAV_1A, SchemeKind.PAV_1B, SchemeKind.PAV_2A, SchemeKind.PAV_2B]
ALL = PAV + [SchemeKind.SEMI_IMPLICIT, SchemeKind.SAV]


def report(criterion: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {criterion:2d} {name}: {status}{suffix}")


@dataclass
class PavTrace:
    """Per-step series from a drop-benchmark run, with independently computed
    xi bounds r^n / sqrt(E[denominator field])."""

    xi: list
    r: list  # r[0] is R^0, then one entry per step
    xi_bound: list
    h2: list
    mass: list


def run_pav_trace(scheme: SchemeKind, dt: float, n_steps: int) -> PavTrace:
    problem = desk_scale_drop_spec()
    p = problem.params
    step_fn = STEPPERS[scheme]
    state = init_state(problem.initial_condition(), p)
    trace = PavTrace(
        xi=[], r=[state.cur.r], xi_bound=[], h2=[h2_norm(state.cur.phi)], mass=[integrate(state.cur.phi)]
    )
    for _ in range(n_steps):
        r_n = state.cur.r
        if scheme is SchemeKind.PAV_2A:
            # denominator field is the extrapolant 2 phi^n - phi^{n-1}
            bar = RealField(problem.grid, 2 * state.cur.phi.values - state.prev.phi.values)
            e_den = energy_total(bar, p)
        elif scheme is SchemeKind.PAV_1A:
            e_den = energy_total(state.cur.phi, p)
        else:
            e_den = None  # 1b / 2b: E[phi^{n+1}], known after the step
        state = step_fn(state, dt, p)
        if e_den is None:
            e_den = energy_total(state.cur.phi, p)
        trace.xi.append(state.xi)
        trace.r.append(state.cur.r)
        trace.xi_bound.append(r_n / math.sqrt(e_den))
        trace.h2.append(h2_norm(state.cur.phi))
        trace.mass.append(integrate(state.cur.phi))
    return trace


@pytest.fixture(scope="module")
def drop_traces():
    """positive-auxiliary-variable runs on the desk benchmark: 4 schemes x dt in {1e-3..1}, 200 steps."""
    dts = [1e-3, 1e-2, 1e-1, 1.0]
    return {
        (scheme, dt): run_pav_trace(scheme, dt, 200) for scheme in PAV for dt in dts
    }


class TestCriterion1ConvergenceOrders:
    def test_manufactured_slopes(self):
        start = time.monotonic()
        problem = manufactured_spec()
        dts = [0.1 * 2**-j for j in range(6)]
        slopes = {}
        for scheme in PAV:
            errs = []
            for dt in dts:
                n_steps = round((problem.tf - problem.t0) / dt)
                result = run_simulation(
                    replace(problem, dt=dt), scheme, history_every=n_steps, exact_history=True
                )
                errs.append(result.history[-1].l2_err)
            slopes[scheme] = fit_convergence_order(dts, errs)
        elapsed = time.monotonic() - start

        windows = {
            SchemeKind.PAV_1A: (0.85, 1.15),
            SchemeKind.PAV_1B: (0.85, 1.15),
            SchemeKind.PAV_2A: (1.8, 2.2),
            SchemeKind.PAV_2B: (1.8, 2.2),
        }
        ok = all(lo <= slopes[s] <= hi for s, (lo, hi) in windows.items()) and elapsed < 30.0
        detail = ", ".join(f"{s.value}={slopes[s]:.3f}" for s in PAV) + f", {elapsed:.1f}s"
        report(1, "convergence orders", ok, detail)
        for scheme, (lo, hi) in windows.items():
            assert lo <= slopes[scheme] <= hi, f"{scheme.value}: slope {slopes[scheme]}"
        assert elapsed < 30.0

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3: cold start")
    def test_second_order_from_a_cold_start(self):
        # the sweep above with phi^{-1} = phi^0 from init_state, not seeded
        # exactly, as every drop run starts: 2a and 2b then fit order 1.02
        problem = manufactured_spec()
        dts = [0.1 * 2**-j for j in range(6)]
        slopes = {}
        for scheme in (SchemeKind.PAV_2A, SchemeKind.PAV_2B):
            errs = []
            for dt in dts:
                n_steps = round((problem.tf - problem.t0) / dt)
                result = run_simulation(replace(problem, dt=dt), scheme, history_every=n_steps)
                errs.append(result.history[-1].l2_err)
            slopes[scheme.value] = fit_convergence_order(dts, errs)
        assert min(slopes.values()) >= 1.9, slopes


class TestCriterion2MassConservation:
    def test_mass_drift_over_1000_steps(self):
        problem = desk_scale_drop_spec()
        worst = {}
        for scheme in ALL:
            result = run_simulation(replace(problem, dt=1e-3), scheme, n_steps=1000)
            assert not result.diverged, f"{scheme.value} unexpectedly diverged"
            mass0 = result.history[0].mass
            drift = max(abs(rec.mass - mass0) for rec in result.history) / abs(mass0)
            worst[scheme] = drift
        ok = all(d <= 1e-12 for d in worst.values())
        detail = "max rel drift " + ", ".join(f"{s.value}={worst[s]:.1e}" for s in ALL)
        report(2, "mass conservation", ok, detail)
        for scheme, drift in worst.items():
            assert drift <= 1e-12, f"{scheme.value}: relative mass drift {drift}"


class TestCriterion3RChain:
    def test_r_positive_and_monotone(self, drop_traces):
        failures = []
        for (scheme, dt), trace in drop_traces.items():
            if any(not r > 0 for r in trace.r):
                failures.append(f"{scheme.value}@dt={dt}: nonpositive R")
            if any(b > a * (1 + 1e-14) for a, b in zip(trace.r, trace.r[1:])):
                failures.append(f"{scheme.value}@dt={dt}: R increased")
        report(3, "R positivity and monotonicity", not failures, "; ".join(failures))
        assert not failures


class TestCriterion4XiBound:
    def test_xi_positive_below_bound(self, drop_traces):
        failures = []
        for (scheme, dt), trace in drop_traces.items():
            for xi, bound in zip(trace.xi, trace.xi_bound):
                if not 0 < xi <= bound + 1e-14:
                    failures.append(f"{scheme.value}@dt={dt}: xi={xi}, bound={bound}")
                    break
        report(4, "xi positivity and bound", not failures, "; ".join(failures))
        assert not failures


class TestCriterion5UnconditionalBoundedness:
    def test_h2_bounded_at_unit_dt(self, drop_traces):
        failures = []
        ratios = {}
        for scheme in PAV:
            reference = max(drop_traces[(scheme, 1e-3)].h2)
            big_dt = drop_traces[(scheme, 1.0)]
            if not all(np.isfinite(v) for v in big_dt.h2):
                failures.append(f"{scheme.value}: non-finite h2")
                continue
            ratios[scheme] = max(big_dt.h2) / reference
            if max(big_dt.h2) > 10.0 * reference:
                failures.append(f"{scheme.value}: h2 ratio {ratios[scheme]:.2f} > 10")
        detail = ", ".join(f"{s.value} ratio={ratios.get(s, float('nan')):.2f}" for s in PAV)
        report(5, "boundedness at dt=1", not failures, detail)
        assert not failures


class TestCriterion6XiAccuracy:
    def test_xi_band_at_small_dt(self, drop_traces):
        failures = []
        for scheme in (SchemeKind.PAV_1A, SchemeKind.PAV_2A, SchemeKind.PAV_2B):
            xis = drop_traces[(scheme, 1e-3)].xi
            if not all(0.9 <= xi <= 1.0 + 1e-6 for xi in xis):
                failures.append(f"{scheme.value}: xi range [{min(xis)}, {max(xis)}]")
        xis_1b = drop_traces[(SchemeKind.PAV_1B, 1e-3)].xi
        if not all(xi > 0 for xi in xis_1b):
            failures.append("1b: nonpositive xi")
        report(6, "xi accuracy at dt=1e-3", not failures, "; ".join(failures))
        assert not failures


class TestCriterion7BaselineContrast:
    def test_semi_implicit_fails_where_pav_holds(self):
        problem = desk_scale_drop_spec()
        e0 = energy_total(problem.initial_condition(), problem.params)
        unstable_dt = None
        for dt in (5e-2, 2e-2, 1e-2, 5e-3):  # largest first: blow-up shows fastest
            result = run_simulation(replace(problem, dt=dt), SchemeKind.SEMI_IMPLICIT, n_steps=2000)
            energy_blown = any(rec.energy > 10 * e0 for rec in result.history)
            if result.diverged or energy_blown:
                unstable_dt = dt
                break
        if unstable_dt is None:
            report(7, "baseline contrast", False, "semi-implicit stable at every dt in sweep")
            pytest.fail("semi-implicit never blew up in the sweep")

        pav = run_simulation(replace(problem, dt=unstable_dt), SchemeKind.PAV_2A, n_steps=2000)
        transient = 10
        tail = [rec.energy for rec in pav.history if rec.step >= transient]
        ok = (not pav.diverged) and all(e <= 2 * e0 for e in tail)
        report(
            7,
            "baseline contrast",
            ok,
            f"semi diverges at dt={unstable_dt}, 2A max E/E0 = {max(tail) / e0:.3f}",
        )
        assert ok


class TestCriterion8LinearOracle:
    def test_single_mode_amplification_all_schemes(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        params = PhysicalParams(m0=0.5, beta=0.8, eta=1.0, well_amp=0.0, lam=0.1, c0=1.0)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for scheme in ALL:
            order = 1 if scheme in (SchemeKind.PAV_1A, SchemeKind.PAV_1B) else 2
            for _ in range(10):
                p_mode, q_mode = int(rng.integers(0, 5)), int(rng.integers(1, 5))
                dt = float(10.0 ** rng.uniform(-3, 0))
                f0 = from_function(
                    grid,
                    lambda X, Y: np.cos(2 * np.pi * p_mode * X / grid.lx)
                    * np.cos(2 * np.pi * q_mode * Y / grid.ly),
                )
                state = init_state(f0, params)
                state = STEPPERS[scheme](state, dt, params)
                k2 = (2 * np.pi * p_mode / grid.lx) ** 2 + (2 * np.pi * q_mode / grid.ly) ** 2
                d = params.m0 * k2 * (params.beta * k2 + params.lam)
                amp = 1.0 / (1.0 + dt * d) if order == 1 else 1.5 / (1.5 + dt * d)
                err = np.max(np.abs(state.cur.phi.values - amp * f0.values))
                worst = max(worst, err)
        ok = worst < 1e-12
        report(8, "linear oracle", ok, f"worst deviation {worst:.2e}")
        assert ok


class TestCriterion9EnergyGradientConsistency:
    def test_variational_richardson(self):
        grid = GridSpec(32, 32, 2.0, 2.0)
        p = PhysicalParams(m0=1.0, beta=0.8, eta=1.0, well_amp=1.3, lam=0.4, c0=1.0)
        rng = np.random.default_rng(7)
        X, Y = grid.mesh

        def trig_field(seed):
            r = np.random.default_rng(seed)
            v = np.zeros(grid.shape)
            for _ in range(3):
                pm, qm = r.integers(1, 4, size=2)
                v += r.uniform(-0.5, 0.5) * np.cos(np.pi * pm * X + r.uniform(0, 6)) * np.cos(
                    np.pi * qm * Y + r.uniform(0, 6)
                )
            return RealField(grid, v)

        phi, v = trig_field(11), trig_field(12)
        mu = chemical_potential_exact(phi, p)
        slope = integrate(RealField(grid, mu.values * v.values))

        def central(eps):
            ep = energy_total(RealField(grid, phi.values + eps * v.values), p)
            em = energy_total(RealField(grid, phi.values - eps * v.values), p)
            return (ep - em) / (2 * eps)

        err1 = abs(central(1e-3) - slope)
        err2 = abs(central(5e-4) - slope)
        ratio = err1 / err2
        ok = abs(ratio - 4.0) <= 0.2
        report(9, "energy-gradient consistency", ok, f"Richardson ratio {ratio:.3f}")
        assert ok


class TestCriterion10SavModifiedEnergy:
    def test_modified_energy_nonincreasing(self):
        problem = desk_scale_drop_spec()
        p = problem.params
        state = init_state(problem.initial_condition(), p)
        energies = [sav_modified_energy(state, p)]
        r1 = [state.cur.sav_r]
        step = STEPPERS[SchemeKind.SAV]
        for _ in range(500):
            state = step(state, 0.1, p)
            energies.append(sav_modified_energy(state, p))
            r1.append(state.cur.sav_r)
        violations = [
            i for i, (a, b) in enumerate(zip(energies, energies[1:])) if b > a + 1e-10
        ]
        ok = not violations
        report(
            10,
            "SAV modified-energy decay",
            ok,
            f"E_sav {energies[0]:.1f} -> {energies[-1]:.1f}, r1 final {r1[-1]:.3f}, "
            f"{len(violations)} violations",
        )
        assert len(r1) == 501  # r1 history recorded, no sign assertion
        assert ok
