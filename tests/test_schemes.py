"""Tests for the time steppers: fixed points, closed-form oracles, invariants."""

import math
import operator
import threading
import tracemalloc
from dataclasses import replace
from functools import cache
from inspect import Parameter, signature
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cahnpav.grid
import cahnpav.schemes
from cahnpav import (
    Diverged,
    GridSpec,
    InvalidState,
    NonPositiveEnergy,
    PhysicalParams,
    RealField,
    SchemeKind,
    ValidationError,
    desk_scale_drop_spec,
    init_state,
    manufactured_spec,
    run_simulation,
)
from cahnpav.diagnostics import MASS_DRIFT_TOL, R_MONOTONE_SLACK, error_norms, fit_convergence_order
from cahnpav.grid import _dot, grad_inner, inner, integrate
from cahnpav.model import dissipation, energy_total, potential_h, potential_integral, quadratic_energy, well
from cahnpav.problems import exact_solution
from cahnpav.runner import seed_exact_history
from cahnpav.schemes import (
    OVERFLOW_GUARD,
    SCHEMES,
    STEPPERS,
    Level,
    SchemeState,
    _drain,
    _drain_dots,
    _energy,
    _guard,
    _split_drain,
    _sums,
    _symbols,
    _weights,
    _xi_update,
    solve_linear_step,
)

from helpers import constant, count_work, from_function, mean, sav_modified_energy, worker_tasks
from reference import reference_step

THEORY = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=1.0, c0=1.0)
LINEAR = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=0.0, c0=1.0)
WITH_LAM = PhysicalParams(m0=0.7, beta=0.8, eta=1.0, well_amp=1.3, lam=0.6, c0=1.0)

PAV = [kind for kind in SchemeKind if kind.is_pav]
SAV, SEMI = SchemeKind.SAV, SchemeKind.SEMI_IMPLICIT

# the ratios of five steps to the one before: fixed steps, or each drawn up to
# 1 + sqrt 2, the largest ratio the variable-step BDF2 analyses admit
STEP_RATIOS = st.one_of(st.just([1.0] * 5), st.lists(st.floats(0.2, 1.0 + math.sqrt(2.0)), min_size=5, max_size=5))


def step_id(kind):
    """A kind's test id: the stepper's name in earlier releases, so results compare across commits."""
    return {"semi": "step_semi_implicit2", "sav": "step_sav2"}.get(kind.value, f"step_{kind.value}")


def smooth_ic(grid, seed, amp=0.4):
    rng = np.random.default_rng(seed)
    X, Y = grid.mesh
    values = np.zeros(grid.shape)
    for _ in range(4):
        p, q = rng.integers(0, 4, size=2)
        values += rng.uniform(-amp, amp) * np.cos(
            2 * np.pi * p * X / grid.lx + rng.uniform(0, 2 * np.pi)
        ) * np.cos(2 * np.pi * q * Y / grid.ly + rng.uniform(0, 2 * np.pi))
    return RealField(grid, values)


class TestSolveLinearStep:
    def test_zero_inputs(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        zero = constant(grid, 0.0)
        phi, mu = solve_linear_step(1.0, grid, zero.coeffs, zero.coeffs, 0.1, THEORY)
        assert np.max(np.abs(phi.values)) == 0.0
        assert np.max(np.abs(mu.values)) == 0.0

    def test_zero_mode_preserves_mean(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        g = smooth_ic(grid, 1)
        phi, _ = solve_linear_step(1.0, grid, g.coeffs, constant(grid, 0.0).coeffs, 0.3, THEORY)
        assert mean(phi) == pytest.approx(mean(g), rel=1e-14)

    def test_single_mode_closed_form(self):
        # cos(pi x) on lx = 2: k = pi, amplification 1 / (1 + dt m0 k^2 beta k^2)
        grid = GridSpec(16, 16, 2.0, 2.0)
        g = from_function(grid, lambda X, Y: np.cos(np.pi * X))
        phi, _ = solve_linear_step(1.0, grid, g.coeffs, constant(grid, 0.0).coeffs, 0.1, THEORY)
        amp = 1.0 / (1.0 + 0.1 * np.pi**4)
        assert np.max(np.abs(phi.values - amp * g.values)) < 1e-13

    @settings(deadline=None, max_examples=20)
    @given(
        p=st.integers(1, 5),
        q=st.integers(0, 5),
        dt_exp=st.floats(-3, 0),
        sigma_bdf=st.sampled_from([1.0, 1.5]),
    )
    def test_random_mode_closed_form(self, p, q, dt_exp, sigma_bdf):
        grid = GridSpec(16, 16, 2.0, 2.0)
        params = PhysicalParams(m0=0.7, beta=0.3, eta=1.0, well_amp=1.0, lam=0.2)
        dt = 10.0**dt_exp
        g = from_function(
            grid,
            lambda X, Y: np.cos(2 * np.pi * p * X / grid.lx) * np.cos(2 * np.pi * q * Y / grid.ly),
        )
        phi, mu = solve_linear_step(sigma_bdf, grid, g.coeffs, constant(grid, 0.0).coeffs, dt, params)
        k2 = (2 * np.pi * p / grid.lx) ** 2 + (2 * np.pi * q / grid.ly) ** 2
        amp = 1.0 / (sigma_bdf + dt * params.m0 * k2 * (params.beta * k2 + params.lam))
        assert np.max(np.abs(phi.values - amp * g.values)) < 1e-12 * max(1.0, amp)
        assert np.max(np.abs(mu.values - (params.beta * k2 + params.lam) * amp * g.values)) < 1e-11

    def test_discrete_system_residual(self):
        # the returned pair satisfies both equations to machine precision
        grid = GridSpec(24, 24, 2.0, 2.0)
        params = PhysicalParams(m0=0.05, beta=0.4, eta=1.0, well_amp=1.0, lam=0.1)
        g, s = smooth_ic(grid, 5), smooth_ic(grid, 6)
        dt, sigma = 0.07, 1.5
        phi, mu = solve_linear_step(sigma, grid, g.coeffs, s.coeffs, dt, params)
        # independent spectral residual with raw numpy transforms
        lap = lambda v: np.fft.irfft2(-grid.k2 * np.fft.rfft2(v), s=grid.shape)
        res_mu = mu.values - (-params.beta * lap(phi.values) + params.lam * phi.values + s.values)
        res_phi = sigma * phi.values / dt - params.m0 * lap(mu.values) - g.values / dt
        assert np.max(np.abs(res_mu)) < 1e-11
        assert np.max(np.abs(res_phi)) < 1e-9 / dt

    @staticmethod
    def random_pair(grid, seed):
        rng = np.random.default_rng(seed)
        return RealField(grid, rng.standard_normal(grid.shape)), RealField(grid, rng.standard_normal(grid.shape))

    @pytest.mark.parametrize("lam", [0.0, 0.6])
    @pytest.mark.parametrize("sigma", [1.0, 1.5])
    @pytest.mark.parametrize("n", [20, 128])
    def test_equals_division_form(self, n, sigma, lam):
        # the kept reciprocal gives exactly the division it replaces, at every dt
        grid = GridSpec(n, n, 2.0, 2.0)
        params = PhysicalParams(m0=0.7, beta=0.3, eta=1.0, well_amp=1.0, lam=lam)
        g, s = self.random_pair(grid, n)
        for dt in (1e-5, 1e-2, 1.0, 50.0):
            phi, mu = solve_linear_step(sigma, grid, g.coeffs, s.coeffs, dt, params)
            m0k2, lin = dt * params.m0 * grid.k2, params.beta * grid.k2 + params.lam
            expected = (g.coeffs - m0k2 * s.coeffs) / (sigma + m0k2 * lin)
            assert np.array_equal(phi.coeffs, expected)
            assert np.array_equal(mu.coeffs, lin * expected + s.coeffs)

    def test_kept_reciprocal_follows_every_input(self):
        # one grid solves a base case, then each input changed alone: every
        # result is that of a fresh equal grid, which keeps nothing yet
        grid = GridSpec(16, 24, 2.0, 3.0)
        base = dict(sigma=1.0, dt=1e-2, m0=0.7, beta=0.3, lam=0.2)
        changes = dict(sigma=1.5, dt=0.3, m0=1.3, beta=0.05, lam=0.0)

        def solve(on, sigma, dt, m0, beta, lam):
            params = PhysicalParams(m0=m0, beta=beta, eta=1.0, well_amp=1.0, lam=lam)
            g, s = self.random_pair(on, 7)
            return solve_linear_step(sigma, on, g.coeffs, s.coeffs, dt, params)

        for name, value in changes.items():
            solve(grid, **base)
            changed = {**base, name: value}
            (phi, mu), (phi_fresh, mu_fresh) = solve(grid, **changed), solve(replace(grid), **changed)
            assert np.array_equal(phi.coeffs, phi_fresh.coeffs), name
            assert np.array_equal(mu.coeffs, mu_fresh.coeffs), name

    def test_kept_operator_is_reused(self):
        # a call at the kept key builds no array: the same three come back
        grid = GridSpec(16, 16, 2.0, 2.0)
        params = PhysicalParams(m0=0.7, beta=0.3, eta=1.0, well_amp=1.0, lam=0.6)
        first, again = _symbols(1.5, grid, 1e-2, params), _symbols(1.5, grid, 1e-2, params)
        assert len(first) == 3 and all(a is b for a, b in zip(first, again))


class TestComputeXi:
    def test_no_dissipation_exact_ratio(self):
        assert _xi_update(2.0, 4.0, 4.0, 0.0, 0.1) == pytest.approx(1.0)

    def test_worked_example(self):
        # 2 / (2 + 0.1 * 8 / (2 * 2)) = 2 / 2.2
        assert _xi_update(2.0, 4.0, 4.0, 8.0, 0.1) == pytest.approx(2.0 / 2.2, rel=1e-15)

    def test_monotone_decreasing_in_dissipation(self):
        values = [_xi_update(1.0, 1.0, 1.0, d, 0.1) for d in (0.0, 1.0, 10.0, 1e6, 1e12)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] > 0.0
        assert values[-1] < 1e-10

    def test_bounded_by_r_over_sqrt_e(self):
        for diss in (0.0, 0.5, 7.0):
            xi = _xi_update(1.7, 2.3, 2.3, diss, 0.25)
            assert 0.0 < xi <= 1.7 / math.sqrt(2.3)

    def test_rejects_nonpositive_energy(self):
        with pytest.raises(InvalidState):
            _xi_update(1.0, 0.0, 0.0, 1.0, 0.1)
        with pytest.raises(InvalidState):
            _xi_update(1.0, -2.0, -2.0, 1.0, 0.1)


class TestInitState:
    def test_equilibrium(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(constant(grid, 1.0), THEORY)
        assert state.cur.r == pytest.approx(1.0)  # sqrt(c0)
        assert state.step == 0
        assert state.xi == 1.0
        assert np.max(np.abs(state.cur.mu.values)) < 1e-14

    def test_zero_field_r0(self):
        # E = |Omega| a / 4 + c0 = 2 on [0,2]^2 -> R0 = sqrt(2)
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(constant(grid, 0.0), THEORY)
        assert state.cur.r == pytest.approx(math.sqrt(2.0))
        assert state.cur.sav_r == pytest.approx(math.sqrt(2.0))  # int H + c0 = 2

    def test_prev_slots_copy_current(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 3), THEORY)
        assert state.prev.phi is state.cur.phi
        assert state.prev.mu is state.cur.mu
        assert state.prev.r == state.cur.r
        assert state.prev.sav_r == state.cur.sav_r


class TestStepperTable:
    def test_one_distinct_stepper_per_kind(self):
        # one callable per kind, each with the shared signature; the PAV kinds
        # are the rows with a xi update
        assert set(STEPPERS) == set(SchemeKind)
        assert len({id(fn) for fn in STEPPERS.values()}) == len(STEPPERS) == 6
        for fn in STEPPERS.values():
            params = [(q.name, q.kind, q.default) for q in signature(fn).parameters.values()]
            assert params == [
                ("state", Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty),
                ("dt", Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty),
                ("p", Parameter.POSITIONAL_OR_KEYWORD, Parameter.empty),
                ("source", Parameter.POSITIONAL_OR_KEYWORD, None),
                ("dealias", Parameter.KEYWORD_ONLY, False),
            ]
        assert {kind.value for kind in PAV} == {"1a", "1b", "2a", "2b"}

    def test_every_kind_has_a_row(self):
        # every stepper, the baselines' too, is the one IMEX step read from a row
        assert set(SCHEMES) == set(SchemeKind)

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=step_id)
    def test_state_carries_energy_and_dissipation_of_current_level(self, kind):
        # after every step, each scalar a level keeps is the same function of
        # the same arrays as a fresh recomputation from its fields, so equal exactly
        grid = GridSpec(16, 16, 2.0, 2.0)
        f = smooth_ic(grid, 51, amp=0.1).coeffs
        for p in (THEORY, WITH_LAM):
            state = init_state(smooth_ic(grid, 50, amp=0.8), p)
            for _ in range(4):
                state = STEPPERS[kind](state, 0.1, p, lambda t: f)
                for level in (state.cur, state.prev):
                    assert level.energy == energy_total(level.phi, p)
                    assert level.dissipation == dissipation(level.mu, p)
                    assert level.quad == quadratic_energy(level.phi, level.phi, p)


class TestWeights:
    """The history weights of a step ratio are exact at r = 1 (fixed-step
    BDF2) and r = 0 (BDF1), so that fixed-step runs do not move."""

    def test_fixed_step_bdf2(self):
        sigma, g, ext = _weights(1.0)
        assert (sigma, g, ext) == (1.5, (2.0, -0.5), (2.0, -1.0))
        assert _weights(1.0, 0.5)[2] == (1.5, -0.5)  # mid
        assert _weights(1.0, SCHEMES[SchemeKind.PAV_2A].drain_level)[2] == (1.5, -0.5)  # 2a's mu_d

    def test_bdf1(self):
        for level in (0.0, 0.5, 1.0):  # 1a's mu_d, mid, ext
            sigma, g, ext = _weights(0.0, level)
            assert sigma == 1.0 and g == ext == (1.0, 0.0)  # 0.0 == -0.0: either sign


class TestBilinearEnergy:
    """E[ext], E[mid] and the drain of a step, formed by bilinearity from the
    levels' scalars and one cross term, against a direct evaluation of the
    combined field: within 1e-12 relative."""

    GRID = GridSpec(16, 12, 2.0, 1.5)
    EXT, MID = _weights(1.0)[2], _weights(1.0, 0.5)[2]

    def state(self, p, case, seed):
        rng = np.random.default_rng(seed)

        def field():
            noise = 0.1 * rng.standard_normal(self.GRID.shape)
            return RealField(self.GRID, smooth_ic(self.GRID, seed, amp=0.8).values + noise)

        cur = field()
        if case == "cold":  # prev is cur
            return init_state(cur, p)
        if case == "near":  # phi^{n-1} = phi^n + 1e-7 noise: the cross term cancels most of the sum
            prev = RealField(self.GRID, cur.values + 1e-7 * rng.standard_normal(self.GRID.shape))
        else:
            seed += 1
            prev = field()
        return SchemeState(cur=Level.from_field(cur, p), prev=Level.from_field(prev, p))

    @pytest.mark.parametrize("p", [THEORY, WITH_LAM], ids=["lam0", "lam"])
    @pytest.mark.parametrize("case", ["random", "cold", "near"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_energy_matches_energy_total(self, p, case, seed):
        state = self.state(p, case, seed)
        cur, prev = state.cur, state.prev
        cross = quadratic_energy(cur.phi, prev.phi, p)
        for a, b in (self.EXT, self.MID, (1.0, 0.0)):
            values = a * cur.phi.values + b * prev.phi.values
            expected = energy_total(RealField(self.GRID, values), p)
            w = well(values)
            got = _energy((a, b), state, cross, _dot(w, w), p)
            assert got == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [THEORY, WITH_LAM], ids=["lam0", "lam"])
    @pytest.mark.parametrize("case", ["random", "cold", "near"])
    @pytest.mark.parametrize("with_source", [False, True], ids=["plain", "source"])
    def test_drain_matches_direct_evaluation(self, p, case, with_source):
        state = self.state(p, case, 3)
        f_src = smooth_ic(self.GRID, 4, amp=0.5) if with_source else None
        x, y = state.cur, state.prev
        for a, b in (self.MID, (0.5, 0.5), (1.0, 0.0)):
            mu_d = RealField(self.GRID, coeffs=a * x.mu.coeffs + b * y.mu.coeffs)
            expected = dissipation(mu_d, p) - (0.0 if f_src is None else inner(f_src, mu_d))
            f_hat = None if f_src is None else f_src.coeffs
            assert _drain((a, b), x.mu, x.dissipation, y, f_hat, p, None) == pytest.approx(expected, rel=1e-12, abs=0.0)
            # the row-split step's form: the same sums, formed as a kernel over all rows
            sums = _sums(..., self.GRID, _drain_dots((a, b), x.mu.coeffs, y.mu.coeffs, f_hat, self.GRID))
            assert _split_drain((a, b), x.dissipation, y.dissipation, sums, p) == pytest.approx(expected, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", list(SchemeKind), ids=step_id)
class TestFixedPoint:
    def test_equilibrium_plus_one(self, kind):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(constant(grid, 1.0), THEORY)
        new = STEPPERS[kind](state, 0.5, THEORY)
        assert np.max(np.abs(new.cur.phi.values - 1.0)) < 1e-13
        assert np.max(np.abs(new.cur.mu.values)) < 1e-13
        assert new.step == 1
        if kind.is_pav:
            assert new.cur.r == pytest.approx(1.0)
        if kind is SAV:
            assert new.cur.sav_r == pytest.approx(1.0)

    def test_equilibrium_minus_one(self, kind):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(constant(grid, -1.0), THEORY)
        new = STEPPERS[kind](state, 0.5, THEORY)
        assert np.max(np.abs(new.cur.phi.values + 1.0)) < 1e-13


class TestLinearOracle:
    """With well_amp = 0 every scheme must reduce to plain BDF1/BDF2."""

    @staticmethod
    def mode_field(grid, p, q):
        return from_function(
            grid,
            lambda X, Y: np.cos(2 * np.pi * p * X / grid.lx) * np.cos(2 * np.pi * q * Y / grid.ly),
        )

    @staticmethod
    def closed_form_factors(k2, dt, params, n_steps, order):
        """Per-mode amplitude after n_steps of BDF1 or BDF2 from equal history."""
        d = params.m0 * k2 * (params.beta * k2 + params.lam)
        amps = []
        if order == 1:
            cur = 1.0
            for _ in range(n_steps):
                cur = cur / (1.0 + dt * d)
                amps.append(cur)
        else:
            prev, cur = 1.0, 1.0
            for _ in range(n_steps):
                prev, cur = cur, (2.0 * cur - 0.5 * prev) / (1.5 + dt * d)
                amps.append(cur)
        return amps

    @pytest.mark.parametrize(
        "kind,order",
        [
            (SchemeKind.PAV_1A, 1),
            (SchemeKind.PAV_1B, 1),
            (SchemeKind.PAV_2A, 2),
            (SchemeKind.PAV_2B, 2),
            (SEMI, 2),
            (SAV, 2),
        ],
        ids=lambda v: step_id(v) if isinstance(v, SchemeKind) else None,
    )
    def test_single_mode_amplification(self, kind, order):
        grid = GridSpec(16, 16, 2.0, 2.0)
        rng = np.random.default_rng(42)
        for _ in range(10):
            p, q = rng.integers(0, 5), rng.integers(1, 5)
            dt = 10.0 ** rng.uniform(-3, 0)
            params = PhysicalParams(m0=0.5, beta=0.8, eta=1.0, well_amp=0.0, lam=0.1, c0=1.0)
            f0 = self.mode_field(grid, p, q)
            state = init_state(f0, params)
            for _ in range(3):
                state = STEPPERS[kind](state, dt, params)
            k2 = (2 * np.pi * p / grid.lx) ** 2 + (2 * np.pi * q / grid.ly) ** 2
            amp = self.closed_form_factors(k2, dt, params, 3, order)[-1]
            assert np.max(np.abs(state.cur.phi.values - amp * f0.values)) < 1e-12

    def test_sav_matches_bdf2_scheme_exactly(self):
        # with h = 0 the SAV superposition collapses onto the plain BDF2 path
        grid = GridSpec(16, 16, 2.0, 2.0)
        params = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=0.0, c0=1.0)
        s1 = init_state(smooth_ic(grid, 9), params)
        s2 = s1
        for _ in range(4):
            s1 = STEPPERS[SAV](s1, 0.05, params)
            s2 = STEPPERS[SEMI](s2, 0.05, params)
        assert np.max(np.abs(s1.cur.phi.values - s2.cur.phi.values)) < 1e-13
        assert s1.cur.sav_r == pytest.approx(1.0)


class TestSourceTimes:
    """Each stepper reads its source at t^{n+1} and, in its xi update, at the
    drain level of its table row: what the runner used to decide."""

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_requested_times(self, kind):
        grid, t0, dt = GridSpec(16, 16, 2.0, 2.0), 0.1, 0.02
        state = replace(init_state(smooth_ic(grid, 60), THEORY, t0), step=3)
        f, times = smooth_ic(grid, 61, amp=0.1).coeffs, []

        def source(t):
            times.append(t)
            return f

        new = STEPPERS[kind](state, dt, THEORY, source)
        expected = {
            SchemeKind.PAV_1A: [t0 + 3 * dt, t0 + 4 * dt],
            SchemeKind.PAV_2A: [t0 + 3.5 * dt, t0 + 4 * dt],
            SchemeKind.PAV_2B: [t0 + 3.5 * dt, t0 + 4 * dt],
        }.get(kind, [t0 + 4 * dt])
        assert sorted(times) == expected
        assert (new.step, new.t0, new.time()) == (4, t0, t0 + 4 * dt)

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_requested_times_after_a_step_of_another_size(self, kind):
        # cur keeps its time t0 + step dt_prev when dt changes: the source is
        # read at that time + dt and + L dt, and the new state is at + dt
        grid, t0, dt = GridSpec(16, 16, 2.0, 2.0), 0.1, 0.02
        f, times = smooth_ic(grid, 61, amp=0.1).coeffs, []

        def source(t):
            times.append(t)
            return f

        state = init_state(smooth_ic(grid, 60), THEORY, t0)
        for _ in range(3):
            state = STEPPERS[kind](state, 0.05, THEORY, source)
        t_cur, times[:] = t0 + 3 * 0.05, []
        assert state.time() == t_cur
        new = STEPPERS[kind](state, dt, THEORY, source)
        expected = {
            SchemeKind.PAV_1A: [t_cur, t_cur + dt],
            SchemeKind.PAV_2A: [t_cur + 0.5 * dt, t_cur + dt],
            SchemeKind.PAV_2B: [t_cur + 0.5 * dt, t_cur + dt],
        }.get(kind, [t_cur + dt])
        assert sorted(times) == pytest.approx(expected, rel=1e-15)
        assert (new.step, new.dt_prev) == (4, dt)
        assert new.time() == pytest.approx(t_cur + dt, rel=1e-15)

    def test_a_fresh_state_is_at_t0(self):
        # cold, and seeded with the exact history as run_simulation seeds it
        problem = manufactured_spec()
        state = init_state(problem.initial_condition(), problem.params, problem.t0)
        seeded = replace(state, prev=seed_exact_history(problem), dt_prev=problem.dt)
        assert state.time() == seeded.time() == problem.t0 != 0.0

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_time_after_a_step_of_another_size(self, kind):
        # cur's time is the sum of the steps taken, whatever the last one's size
        state = init_state(smooth_ic(GridSpec(16, 16, 2.0, 2.0), 60), THEORY)
        for dt in (0.1, 0.1, 0.1):
            state = STEPPERS[kind](state, dt, THEORY)
        assert state.time() == pytest.approx(0.3, rel=1e-15)
        state = STEPPERS[kind](state, 0.05, THEORY)
        assert state.time() == pytest.approx(0.35, rel=1e-15)


class TestMassConservation:
    @pytest.mark.parametrize("kind", list(SchemeKind), ids=step_id)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_mean_preserved_without_source(self, kind, seed):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, seed), THEORY)
        mass0 = integrate(state.cur.phi)
        for _ in range(5):
            state = STEPPERS[kind](state, 0.2, THEORY)
        drift = abs(integrate(state.cur.phi) - mass0)
        assert drift <= 1e-13 * max(abs(mass0), 1.0)

    def test_bdf1_mass_with_source(self):
        # mass(phi^{n+1}) = mass(phi^n) + dt * int f, exactly
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 2), THEORY)
        f_src = smooth_ic(grid, 3)
        dt = 0.13
        new = STEPPERS[SchemeKind.PAV_1A](state, dt, THEORY, lambda t: f_src.coeffs)
        expected = integrate(state.cur.phi) + dt * integrate(f_src)
        assert integrate(new.cur.phi) == pytest.approx(expected, rel=1e-13, abs=1e-14)

    def test_bdf2_zero_mode_recurrence_with_source(self):
        # (3 m^{n+1} - 4 m^n + m^{n-1}) / (2 dt) = mean(f)
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 4), THEORY)
        f_src = smooth_ic(grid, 5)
        dt = 0.07
        m_prev = mean(state.prev.phi)
        m_cur = mean(state.cur.phi)
        new = STEPPERS[SchemeKind.PAV_2A](state, dt, THEORY, lambda t: f_src.coeffs)
        lhs = (3 * mean(new.cur.phi) - 4 * m_cur + m_prev) / (2 * dt)
        assert lhs == pytest.approx(mean(f_src), rel=1e-12, abs=1e-14)


class TestRChain:
    @pytest.mark.parametrize("kind", PAV, ids=step_id)
    @pytest.mark.parametrize("dt", [1e-2, 0.5, 10.0])
    def test_positive_nonincreasing(self, kind, dt):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 8, amp=0.8), THEORY)
        r_values = [state.cur.r]
        for _ in range(100):
            state = STEPPERS[kind](state, dt, THEORY)
            r_values.append(state.cur.r)
        assert all(r > 0 for r in r_values)
        assert all(b <= a * (1 + 1e-14) for a, b in zip(r_values, r_values[1:]))

    @pytest.mark.parametrize("kind", PAV, ids=step_id)
    def test_xi_positive_and_bounded(self, kind):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 13, amp=0.8), THEORY)
        for _ in range(30):
            prev_r = state.cur.r
            state = STEPPERS[kind](state, 0.3, THEORY)
            assert state.xi > 0
            # xi <= R^n / sqrt(E[denominator field]); E >= c0 always
            assert state.xi <= prev_r / math.sqrt(THEORY.c0) + 1e-14

    @settings(deadline=None, max_examples=100)
    @given(
        kind=st.sampled_from(PAV),
        dt=st.floats(-4.0, 1.0).map(lambda e: 10.0**e),
        ratios=STEP_RATIOS,
        nx=st.integers(4, 16).map(lambda n: 2 * n),
        ny=st.integers(4, 16).map(lambda n: 2 * n),
        eta=st.floats(0.05, 1.0),
        c0=st.floats(1e-3, 10.0),
        amp=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_guarantees_for_random_parameters(self, kind, dt, ratios, nx, ny, eta, c0, amp, seed):
        # 0 < R^{n+1} <= R^n, 0 < xi <= R^n / sqrt(E_num) and exact mass at every
        # step of six, fixed or not; E_num is the energy in the xi numerator, as
        # in test_acceptance, of ext at the step ratio r for 2a
        grid = GridSpec(nx, ny, 2.0, 2.0)
        params = PhysicalParams(m0=0.01, beta=0.01, eta=eta, c0=c0)
        state = init_state(smooth_ic(grid, seed, amp=amp), params)
        mass0 = integrate(state.cur.phi)
        for dt in accumulate(ratios, operator.mul, initial=dt):
            r_n, r = state.cur.r, 1.0 if state.dt_prev is None else dt / state.dt_prev
            if kind is SchemeKind.PAV_1A:
                e_num = state.cur.energy
            elif kind is SchemeKind.PAV_2A:
                ext = (1.0 + r) * state.cur.phi.values - r * state.prev.phi.values
                e_num = energy_total(RealField(grid, ext), params)
            state = STEPPERS[kind](state, dt, params)
            if kind in (SchemeKind.PAV_1B, SchemeKind.PAV_2B):
                e_num = state.cur.energy
            assert 0 < state.cur.r <= r_n * (1 + R_MONOTONE_SLACK)
            assert 0 < state.xi <= r_n / math.sqrt(e_num) * (1 + R_MONOTONE_SLACK)
            budget = MASS_DRIFT_TOL * max(abs(mass0), 1.0) * max(1.0, state.step / 1000.0)
            assert abs(integrate(state.cur.phi) - mass0) <= budget


class TestStepOrderingAsymmetry:
    """1A consumes step-n dissipation for xi; 1B consumes step-(n+1)."""

    def test_1a_xi_computable_from_pre_step_state(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 21, amp=0.6), THEORY)
        e_n = energy_total(state.cur.phi, THEORY)
        diss_n = dissipation(state.cur.mu, THEORY)
        expected_xi = _xi_update(state.cur.r, e_n, e_n, diss_n, 0.2)
        new = STEPPERS[SchemeKind.PAV_1A](state, 0.2, THEORY)
        assert new.xi == pytest.approx(expected_xi, rel=1e-15)
        assert new.cur.r == pytest.approx(expected_xi * math.sqrt(e_n), rel=1e-15)

    def test_1b_xi_depends_on_new_fields(self):
        # at each of 20 steps; the next solve reads R^n / sqrt(E^n), which must
        # be the lagged xi^n also where xi^n is not 1
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 22, amp=0.6), THEORY)
        new = STEPPERS[SchemeKind.PAV_1B](state, 0.2, THEORY)
        for _ in range(20):
            e_new = energy_total(new.cur.phi, THEORY)
            diss_new = dissipation(new.cur.mu, THEORY)
            expected_xi = _xi_update(state.cur.r, e_new, e_new, diss_new, 0.2)
            assert new.xi == pytest.approx(expected_xi, rel=1e-15) and new.xi != 1.0
            # stored for the next lagged solve
            s = RealField(grid, new.xi**2 * potential_h(new.cur.phi, THEORY).values)
            manual_phi, _ = solve_linear_step(1.0, grid, new.cur.phi.coeffs, s.coeffs, 0.2, THEORY)
            state, new = new, STEPPERS[SchemeKind.PAV_1B](new, 0.2, THEORY)
            assert np.max(np.abs(new.cur.phi.values - manual_phi.values)) < 1e-15

    def test_1b_first_step_uses_unit_xi(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 23, amp=0.6), THEORY)
        new = STEPPERS[SchemeKind.PAV_1B](state, 0.2, THEORY)
        # manual: BDF1 solve with s = 1^2 h(phi^0)
        manual_phi, _ = solve_linear_step(1.0, grid, state.cur.phi.coeffs, potential_h(state.cur.phi, THEORY).coeffs, 0.2, THEORY)
        assert np.max(np.abs(new.cur.phi.values - manual_phi.values)) < 1e-15

    def test_2b_first_step_extrapolated_xi_is_one(self):
        # phi^{-1} = phi^0 and R^{-1} = R^0 make xi_hat = R^0 / sqrt(E^0) = 1
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 24, amp=0.6), THEORY)
        new = STEPPERS[SchemeKind.PAV_2B](state, 0.2, THEORY)
        g = RealField(grid, 1.5 * state.cur.phi.values)
        manual_phi, _ = solve_linear_step(1.5, grid, g.coeffs, potential_h(state.cur.phi, THEORY).coeffs, 0.2, THEORY)
        assert np.max(np.abs(new.cur.phi.values - manual_phi.values)) < 1e-15

    def test_2a_xi_uses_extrapolated_fields(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 25, amp=0.6), THEORY)
        state = STEPPERS[SchemeKind.PAV_2A](state, 0.15, THEORY)  # build distinct history
        phi_bar = RealField(grid, 2 * state.cur.phi.values - state.prev.phi.values)
        phi_til = RealField(grid, 1.5 * state.cur.phi.values - 0.5 * state.prev.phi.values)
        mu_til = RealField(grid, 1.5 * state.cur.mu.values - 0.5 * state.prev.mu.values)
        e_bar = energy_total(phi_bar, THEORY)
        e_til = energy_total(phi_til, THEORY)
        diss = dissipation(mu_til, THEORY)
        expected = state.cur.r / (math.sqrt(e_bar) + 0.15 * diss / (2 * math.sqrt(e_til)))
        new = STEPPERS[SchemeKind.PAV_2A](state, 0.15, THEORY)
        assert new.xi == pytest.approx(expected, rel=1e-15)


class TestDivergenceGuard:
    GRID = GridSpec(8, 8, 2.0, 2.0)

    @pytest.mark.parametrize(
        "bad",
        [math.nan, math.inf, -math.inf, OVERFLOW_GUARD * (1 + 1e-12), -OVERFLOW_GUARD * (1 + 1e-12)],
        ids=["nan", "inf", "-inf", "above", "below"],
    )
    def test_guard_refuses(self, bad):
        values = np.zeros(self.GRID.shape)
        values[3, 5] = bad
        with pytest.raises(Diverged, match=r"at step 7$"):
            _guard(values, 7)

    def test_guard_bound_is_inclusive(self):
        values = np.full(self.GRID.shape, OVERFLOW_GUARD)
        values[3, 5] = -OVERFLOW_GUARD
        _guard(values, 7)

    def test_guard_passes_a_field_within_a_million(self):
        # the bound is 1e6 (README), not only OVERFLOW_GUARD: a lower guard fails here
        values = np.full(self.GRID.shape, 1e5)
        values[3, 5] = -1e5
        _guard(values, 7)

    def test_semi_implicit_raises_on_blowup(self):
        # stiff well + large dt + explicit nonlinearity blows past the guard
        grid = GridSpec(32, 32, 2.0, 2.0)
        params = PhysicalParams(m0=1.0, beta=1e-4, eta=1.0, well_amp=1e4, c0=1.0)
        state = init_state(smooth_ic(grid, 30, amp=2.0), params)
        with pytest.raises(Diverged, match=r"at step \d+"):
            for _ in range(200):
                state = STEPPERS[SEMI](state, 1.0, params)

    def test_pav_survives_same_setup(self):
        grid = GridSpec(32, 32, 2.0, 2.0)
        params = PhysicalParams(m0=1.0, beta=1e-4, eta=1.0, well_amp=1e4, c0=1.0)
        state = init_state(smooth_ic(grid, 30, amp=2.0), params)
        for _ in range(50):
            state = STEPPERS[SchemeKind.PAV_2A](state, 1.0, params)
        assert np.all(np.isfinite(state.cur.phi.values))
        assert state.cur.r > 0


@cache
def reference_case(case):
    """(initial field, params, t0, step sizes, source) of a reference
    comparison: 30 desk steps at the preset dt, the manufactured run with its
    source, and 30 steps with lam > 0."""
    if case == "lam":
        return smooth_ic(GridSpec(32, 32, 2.0, 2.0), 35, amp=0.8), WITH_LAM, 0.0, (0.05,) * 30, None
    problem = desk_scale_drop_spec() if case == "desk" else manufactured_spec()
    source = problem.source() if case == "manufactured" else None
    n_steps = 30 if case == "desk" else problem.n_steps
    return problem.initial_condition(), problem.params, problem.t0, (problem.dt,) * n_steps, source


def assert_matches_reference(kind, dealias, phi0, p, t0, dts, source):
    """Every step of a run from init_state, one of each size in ``dts``,
    against the reference step from the same state: phi, mu, R and xi (PAV)
    and r1 (sav) agree to 1e-12 relative.  The reference reads no scalar a
    Level keeps, so a wrong one shows at the next step."""
    state = init_state(phi0, p, t0)
    for dt in dts:
        ref = reference_step(kind, state, dt, p, source, dealias)
        state = STEPPERS[kind](state, dt, p, source, dealias=dealias)
        for got, want in ((state.cur.phi.values, ref.cur.phi.values), (state.cur.mu.values, ref.cur.mu.values)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        if kind.is_pav:
            assert state.cur.r == pytest.approx(ref.cur.r, rel=1e-12, abs=0.0)
            assert state.xi == pytest.approx(ref.xi, rel=1e-12, abs=0.0)
        if kind is SAV:
            assert state.cur.sav_r == pytest.approx(ref.cur.sav_r, rel=1e-12, abs=0.0)
        assert state.dt_prev == ref.dt_prev == dt
        assert state.time() == pytest.approx(ref.time(), rel=1e-14, abs=1e-14)


class TestReferenceStep:
    """Each stepper against tests/reference.py, a plain step written from the
    schemes docstring's equations; its sav row is the two-solve superposition."""

    @pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])
    @pytest.mark.parametrize("case", ["desk", "manufactured", "lam"])
    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_matches_reference(self, kind, case, dealias):
        assert_matches_reference(kind, dealias, *reference_case(case))

    @settings(deadline=None, max_examples=60)
    @given(
        kind=st.sampled_from(list(SchemeKind)),
        dt=st.floats(-4.0, 0.0).map(lambda e: 10.0**e),
        ratios=STEP_RATIOS,
        nx=st.integers(4, 16).map(lambda n: 2 * n),
        ny=st.integers(4, 16).map(lambda n: 2 * n),
        eta=st.floats(0.05, 1.0),
        c0=st.floats(-3.0, 1.0).map(lambda e: 10.0**e),
        lam=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        amp=st.floats(0.05, 1.0),
        with_source=st.booleans(),
        dealias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_reference_for_random_parameters(
        self, kind, dt, ratios, nx, ny, eta, c0, lam, amp, with_source, dealias, seed
    ):
        # six steps, fixed or not; the source grows in time, so each drain level reads its own value
        grid = GridSpec(nx, ny, 2.0, 2.0)
        params = PhysicalParams(m0=0.01, beta=0.01, eta=eta, lam=lam, c0=c0)
        f_hat = smooth_ic(grid, seed + 1, amp=0.5).coeffs
        source = (lambda t: (1.0 + t) * f_hat) if with_source else None
        dts = accumulate(ratios, operator.mul, initial=dt)
        try:
            assert_matches_reference(kind, dealias, smooth_ic(grid, seed, amp=amp), params, 0.0, dts, source)
        except Diverged:
            assert kind is SEMI  # only the conditionally stable baseline may blow up
        except InvalidState:
            assert kind.is_pav and with_source  # source work can make the drain negative


STEP_CASES = ["mfg-20", "mfg-lam-20", "mfg-64", "mfg-128", "mfg-130", "drops-64", "drops-128", "drops-130"]


@cache
def step_case(name):
    """(initial field, params, t0, step sizes, source) of five steps on n^2, the
    name's last part: ``mfg-n`` the manufactured problem with its source on
    [0,2]^2 (``mfg-lam-n`` with lam = 0.6), ``drops-n`` the desk drops on [0,4]^2."""
    family, *lam, n = name.split("-")
    problem = desk_scale_drop_spec() if family == "drops" else manufactured_spec()
    problem = replace(problem, grid=GridSpec(int(n), int(n), problem.grid.lx, problem.grid.ly))
    if lam:
        problem = replace(problem, params=replace(problem.params, lam=0.6))
    return problem.initial_condition(), problem.params, problem.t0, (problem.dt,) * 5, problem.source()


def state_bytes(state):
    """Every array and scalar a step leaves: the new level's, xi and the cross
    terms it carries to the next step (none unless an order-2 PAV step made it)."""
    c = state.cur
    scalars = [c.energy, c.dissipation, c.quad, c.r, c.sav_r, state.xi, *(state._cross or ())]
    return [c.phi.values.tobytes(), c.phi.coeffs.tobytes(), c.mu.coeffs.tobytes(), np.array(scalars).tobytes()]


def step_table(cases=STEP_CASES):
    """Parametrize a test over the step table: six schemes x cases x dealias off/on."""
    def parametrize(test):
        test = pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)(test)
        test = pytest.mark.parametrize("case", cases)(test)
        return pytest.mark.parametrize("dealias", [False, True], ids=["plain", "dealias"])(test)
    return parametrize


ONE_STEP = {"fft": 1, "ifft": 1, "solve": 1}


class TestStepRuns:
    """Every way a step can run gives the same bytes (state_bytes after each of
    five steps from init_state) and the same work, and each step makes one
    forward transform, one inverse and one solve.  A step runs its array work as
    whole arrays up to 128^2 points and as row kernels above, in two row halves,
    the second on a worker thread (the schemes and grid module docstrings); an
    order-2 PAV step carries the cross terms of its new level to the next step."""

    def test_130_is_the_smallest_split_square(self):
        assert 128 * 128 <= cahnpav.grid._SPLIT_OVER < 130 * 130

    @pytest.fixture
    def run(self, monkeypatch, kind, case, dealias):
        """run(carry=True): the case's five steps on the test worker thread, as
        (state_bytes after each step, each step's work by name)."""
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        work = count_work(monkeypatch)
        phi0, p, t0, dts, source = step_case(case)

        def run(carry=True):
            # without the carry each state goes through dataclasses.replace, which drops it
            state, out, per_step = init_state(phi0, p, t0), [], []
            for dt in dts:
                if not carry:
                    state = replace(state)
                    assert state._cross is None
                before = dict(work)
                state = STEPPERS[kind](state, dt, p, source, dealias=dealias)
                per_step.append({name: work[name] - before[name] for name in work})
                out += state_bytes(state)
            return out, per_step

        return run

    @step_table()
    def test_each_step_makes_one_transform_pair_and_one_solve(self, run):
        assert run()[1] == [ONE_STEP] * 5

    @step_table()
    def test_a_run_without_the_carry_gives_the_bytes(self, run):
        assert run(carry=False) == run()

    @step_table()
    def test_the_other_array_form_gives_the_bytes(self, monkeypatch, run, case):
        plain, grid = run(), step_case(case)[0].grid
        if grid.nx * grid.ny <= cahnpav.grid._SPLIT_OVER:
            # the limit that schemes reads lowered to 0: the row form, whose
            # kernels grid._rows still runs once over all rows
            calls, ext_rows = [], cahnpav.schemes._ext_rows
            monkeypatch.setattr(cahnpav.schemes, "_SPLIT_OVER", 0)
            monkeypatch.setattr(cahnpav.schemes, "_ext_rows", lambda *args: calls.append(args[0]) or ext_rows(*args))
            assert run() == plain
            assert calls == [...] * 5
        else:  # both halves on this thread
            monkeypatch.setattr(cahnpav.grid, "_tasks", cahnpav.grid._Inline)
            assert run() == plain

    @step_table(["mfg-130", "drops-130"])  # the cases above 128^2
    def test_every_split_step_matches_the_reference(self, monkeypatch, kind, case, dealias):
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        assert_matches_reference(kind, dealias, *step_case(case))

    def test_desk_run_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(cahnpav.grid, "_tasks", None)  # as in a fresh process
        before = threading.active_count()
        for kind in SchemeKind:
            assert run_simulation(desk_scale_drop_spec(), kind, n_steps=3).failure is None
        assert threading.active_count() == before
        assert cahnpav.grid._tasks is None


class TestCarriedCrossTerms:
    """An order-2 PAV step forms the cross terms of its new level with cur for the
    next step (SchemeState._cross), equal to those the next step would form; a
    state with another prev carries none.  TestStepRuns pins the bytes of a run
    that carries them to those of one that does not."""

    @pytest.mark.parametrize("n", [64, 130])
    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_order_2_pav_steps_carry_the_cross_terms(self, monkeypatch, kind, n):
        # the whole-array form forms them by the calls a step without them makes,
        # the row form as two halves' sums
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        phi0, p, t0, (dt, *_), source = step_case(f"mfg-{n}")
        state = init_state(phi0, p, t0)
        for _ in range(2):
            state = STEPPERS[kind](state, dt, p, source)
        if not (SCHEMES[kind].order == 2 and kind.is_pav):
            assert state._cross is None
            return
        cur, prev = state.cur, state.prev
        direct = (quadratic_energy(cur.phi, prev.phi, p), grad_inner(cur.mu, prev.mu))
        assert state._cross == (direct if n <= 128 else pytest.approx(direct, rel=1e-12, abs=0.0))
        assert repr(state) == repr(replace(state)) and state == replace(state)  # neither shown nor compared

    @pytest.mark.parametrize("n", [64, 130])
    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_a_replaced_prev_steps_as_a_constructed_state(self, monkeypatch, kind, n):
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        phi0, p, t0, (dt, *_), source = step_case(f"mfg-{n}")
        stepper = STEPPERS[kind]
        first = stepper(init_state(phi0, p, t0), dt, p, source)
        state = stepper(stepper(first, dt, p, source), dt, p, source)
        other = first.cur  # a level two steps before cur, not its prev
        # built by hand from a copy of cur, so that nothing a step left on cur itself reaches it
        built = SchemeState(replace(state.cur), other, state.step, state.xi, state.t0, state.dt_prev)
        replaced = replace(state, prev=other)
        assert replaced._cross is None
        assert state_bytes(stepper(replaced, dt, p, source)) == state_bytes(stepper(built, dt, p, source))


class TestVariableStep:
    """A step reads the step ratio r = dt / dt_prev from the state, so one
    rule serves every sequence of step sizes: the weights follow each dt."""

    @pytest.mark.parametrize("dt", [-1e-3, 0.0, math.inf, math.nan], ids=["negative", "zero", "inf", "nan"])
    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_refuses_bad_dt(self, kind, dt):
        # before any work, from a cold start and after a step of 1e-3 (where
        # -1e-3 is -dt_prev): no source is read, no state comes back
        grid = GridSpec(16, 16, 2.0, 2.0)
        cold = init_state(smooth_ic(grid, 70), THEORY)
        times = []
        for state in (cold, STEPPERS[kind](cold, 1e-3, THEORY)):
            with pytest.raises(ValidationError) as excinfo:
                STEPPERS[kind](state, dt, THEORY, times.append)
            assert excinfo.value.field == "dt"
        assert times == []

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_state_carries_the_last_step_size(self, kind, monkeypatch):
        # None at a cold start, each step's dt after it, and problem.dt on
        # the exact history that run_simulation seeds
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 71), THEORY)
        assert state.dt_prev is None
        for dt in (0.02, 0.05, 0.01):
            state = STEPPERS[kind](state, dt, THEORY)
            assert state.dt_prev == dt
        step, seen = STEPPERS[kind], []

        def spy(state, *args, **kwargs):
            seen.append(state.dt_prev)
            return step(state, *args, **kwargs)

        monkeypatch.setitem(STEPPERS, kind, spy)
        problem = manufactured_spec(dt=0.05)
        for exact_history, first in ((True, problem.dt), (False, None)):
            seen.clear()
            run_simulation(problem, kind, n_steps=2, exact_history=exact_history)
            assert seen == [first, problem.dt]

    @staticmethod
    def alternating_error(kind, h):
        """The L2 error at tf of the manufactured run in steps h, 2h, h, ...
        from the exact history at t0 - 2h."""
        problem = manufactured_spec()
        grid, p, t = problem.grid, problem.params, problem.t0
        seeded = Level.from_field(exact_solution(t - 2.0 * h, grid), p)
        state = replace(init_state(problem.initial_condition(), p, t), prev=seeded, dt_prev=2.0 * h)
        source = problem.source()
        for k in range(round((problem.tf - problem.t0) / (1.5 * h))):
            dt = 2.0 * h if k % 2 else h
            state = STEPPERS[kind](state, dt, p, source)
            t += dt
        assert t == pytest.approx(problem.tf, rel=1e-14)
        assert state.time() == pytest.approx(t, rel=1e-14)  # the state's clock kept up
        return error_norms(state.cur.phi, exact_solution(t, grid))[1]

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_alternating_steps_keep_the_order(self, kind):
        # fixed-step weights on these steps fit order 0.95-0.96 for the order-2 rows
        hs = [0.1 / 3.0 * 2.0**-j for j in range(5)]
        order = fit_convergence_order(hs, [self.alternating_error(kind, h) for h in hs])
        assert order >= (0.9 if SCHEMES[kind].order == 1 else 1.9)


class TestSav:
    def test_modified_energy_decays(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 31, amp=0.8), THEORY)
        prev = sav_modified_energy(state, THEORY)
        for _ in range(50):
            state = STEPPERS[SAV](state, 0.1, THEORY)
            cur = sav_modified_energy(state, THEORY)
            assert cur <= prev + 1e-10
            prev = cur

    def test_r1_tracks_sqrt_potential_at_small_dt(self):
        # gentle parameters so the transient is resolved at dt = 1e-3
        from cahnpav.model import potential_integral

        params = PhysicalParams(m0=0.01, beta=0.01, eta=1.0, well_amp=1.0, c0=1.0)
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 32, amp=0.5), params)
        for _ in range(20):
            state = STEPPERS[SAV](state, 1e-3, params)
        target = math.sqrt(potential_integral(state.cur.phi, params) + params.c0)
        assert state.cur.sav_r == pytest.approx(target, rel=1e-4)


    def test_energy_rule_applies_to_sav_only(self):
        # int H(cos pi x) + c0 = 0.375 - 1 < 0 < E = pi^2 - 0.625: the sav root is undefined
        grid = GridSpec(16, 16, 2.0, 2.0)
        params = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=1.0, c0=-1.0)
        state = init_state(from_function(grid, lambda X, Y: np.cos(np.pi * X)), params)
        assert math.isnan(state.cur.sav_r)
        assert 0 < STEPPERS[SchemeKind.PAV_2A](state, 0.1, params).cur.r <= state.cur.r
        with pytest.raises(NonPositiveEnergy, match="potential energy"):
            STEPPERS[SAV](state, 0.1, params)

    def test_energy_rule_reads_the_extrapolant(self):
        # both levels pass the rule, ext = 2 phi^n - phi^{n-1} = 1 does not:
        # int H(0.6) + c0 = 0.1096 and int H(0.2) + c0 = 0.6216, int H(1) + c0 = -0.3
        grid = GridSpec(16, 16, 2.0, 2.0)
        params = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=1.0, lam=1.0, c0=-0.3)
        cur, prev = (Level.from_field(constant(grid, v), params) for v in (0.6, 0.2))
        assert cur.sav_r > 0 and prev.sav_r > 0 and cur.energy > 0 and prev.energy > 0
        with pytest.raises(NonPositiveEnergy, match="potential energy"):
            STEPPERS[SAV](SchemeState(cur, prev, step=1), 0.1, params)


class TestDealias:
    def test_filters_nonlinear_source_exactly(self):
        # step with dealias on equals a manual solve with the 2/3-truncated source
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 40, amp=1.0), THEORY)
        dt = 0.1
        e_n = energy_total(state.cur.phi, THEORY)
        xi = _xi_update(state.cur.r, e_n, e_n, dissipation(state.cur.mu, THEORY), dt)
        s_raw = xi**2 * potential_h(state.cur.phi, THEORY).values
        s_filtered = grid.ifft(grid.fft(s_raw) * grid.dealias_mask)
        manual_phi, _ = solve_linear_step(
            1.0, grid, state.cur.phi.coeffs, RealField(grid, s_filtered).coeffs, dt, THEORY
        )
        new = STEPPERS[SchemeKind.PAV_1A](state, dt, THEORY, dealias=True)
        assert np.max(np.abs(new.cur.phi.values - manual_phi.values)) < 1e-14

    def test_no_effect_on_band_limited_nonlinearity(self):
        # the manufactured cubic tops out at mode 3, far below the 2/3 cutoff,
        # so filtering only shuffles last-ulp roundoff
        problem = manufactured_spec()
        a = run_simulation(problem, SchemeKind.PAV_2A, n_steps=5)
        b = run_simulation(problem, SchemeKind.PAV_2A, n_steps=5, dealias=True)
        for ra, rb in zip(a.history, b.history):
            assert rb.l2_err == pytest.approx(ra.l2_err, rel=1e-12, abs=1e-15)
            assert rb.energy == pytest.approx(ra.energy, rel=1e-13)
            assert rb.xi == pytest.approx(ra.xi, rel=1e-13)

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=step_id)
    def test_preserves_mass(self, kind):
        grid = GridSpec(16, 16, 2.0, 2.0)
        state = init_state(smooth_ic(grid, 41, amp=1.0), THEORY)
        mass0 = integrate(state.cur.phi)
        for _ in range(3):
            state = STEPPERS[kind](state, 0.1, THEORY, dealias=True)
        assert integrate(state.cur.phi) == pytest.approx(mass0, rel=1e-13, abs=1e-14)


class TestXiAccuracyOrder:
    """|xi - 1| shrinks at the scheme's order on the manufactured problem."""

    @pytest.mark.parametrize(
        "scheme,lo,hi",
        [
            (SchemeKind.PAV_1A, 0.7, 1.4),
            (SchemeKind.PAV_1B, 0.7, 1.4),
            (SchemeKind.PAV_2A, 1.6, 2.6),
            (SchemeKind.PAV_2B, 1.6, 2.6),
        ],
        ids=lambda v: getattr(v, "value", v),
    )
    def test_xi_deviation_order(self, scheme, lo, hi):
        problem = replace(manufactured_spec(), tf=0.6)
        dts = [0.05 * 2**-j for j in range(4)]
        devs = []
        for dt in dts:
            result = run_simulation(replace(problem, dt=dt), scheme, exact_history=True)
            devs.append(max(abs(rec.xi - 1.0) for rec in result.history[1:]))
        slope = np.polyfit(np.log(dts), np.log(devs), 1)[0]
        assert lo <= slope <= hi


class TestSecondOrderPairAgreement:
    def test_2a_and_2b_error_curves_overlap(self):
        # the two second-order variants land on nearly identical errors
        problem = manufactured_spec()
        for dt in (0.05, 0.0125):
            n_steps = round((problem.tf - problem.t0) / dt)
            err = {}
            for scheme in (SchemeKind.PAV_2A, SchemeKind.PAV_2B):
                result = run_simulation(
                    replace(problem, dt=dt), scheme, history_every=n_steps, exact_history=True
                )
                err[scheme] = result.history[-1].l2_err
            ratio = err[SchemeKind.PAV_2A] / err[SchemeKind.PAV_2B]
            assert 0.8 <= ratio <= 1.25


class TestStepMemory:
    """Peak traced bytes of one step, in units of one half-spectrum array:
    which arrays a step forms and how long it keeps them.  Unlike peak RSS,
    this repeats exactly.  Step 3 of each stepper on the desk field, after the
    cold start and the kept solve operator are built."""

    PEAK = {"1a": 4.00, "1b": 4.00, "2a": 4.00, "2b": 4.00, "semi": 4.00, "sav": 4.00}

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_step_peak(self, kind):
        problem = desk_scale_drop_spec()
        grid, stepper = problem.grid, STEPPERS[kind]
        state = init_state(problem.initial_condition(), problem.params)
        for _ in range(2):
            state = stepper(state, 1e-3, problem.params)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stepper(state, 1e-3, problem.params)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the smallest array a step forms is a real half-spectrum, 0.5 units;
        # the tolerance covers the step's Python objects only
        assert peak / (grid.nx * (grid.ny // 2 + 1) * 16) == pytest.approx(self.PEAK[kind.value], abs=0.05)


class TestTransformBudget:
    """A runner-driven manufactured run with its source makes one forward
    transform (of xi^2 h(ext), or of SAV's b), one inverse (of the new phi_hat)
    and one solve per step; set-up is not counted.  TestStepRuns counts each
    step of every way a step runs."""

    @pytest.mark.parametrize("kind", list(SchemeKind), ids=lambda k: k.value)
    def test_manufactured_run_with_source(self, monkeypatch, kind):
        # the source, the records and the steps together
        work, stepper, per_step, first = count_work(monkeypatch), STEPPERS[kind], [], {}

        def counted_step(*args, **kwargs):
            first.setdefault("counts", dict(work))
            before = dict(work)
            state = stepper(*args, **kwargs)
            per_step.append({name: work[name] - before[name] for name in work})
            return state

        monkeypatch.setitem(STEPPERS, kind, counted_step)
        result = run_simulation(manufactured_spec(dt=0.1), kind, exact_history=True)
        assert result.failure is None
        assert per_step == [{"fft": 1, "ifft": 1, "solve": 1}] * 10
        after_setup = first["counts"]
        assert {name: work[name] - after_setup[name] for name in work} == {"fft": 10, "ifft": 10, "solve": 10}
