"""Tests for the manufactured problem and the drop-array benchmark."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cahnpav import (
    GridSpec,
    PhysicalParams,
    RealField,
    ValidationError,
    desk_scale_drop_spec,
    manufactured_spec,
    full_scale_drop_spec,
)
from cahnpav.grid import integrate
from cahnpav.problems import (
    DropLayout,
    ProblemSpec,
    exact_solution,
    ic_drop_array,
    source_spectra,
)

from helpers import exact_time_derivative, n_drops

MFG = manufactured_spec()


def source_field(spec, t):
    """The spec's source at time t as a field, from the half-spectrum it hands a step."""
    return RealField(spec.grid, coeffs=spec.source()(t))


class TestExactSolution:
    def test_zero_at_t0(self):
        f = exact_solution(0.0, MFG.grid)
        assert np.max(np.abs(f.values)) == 0.0

    def test_peak_value(self):
        f = exact_solution(math.pi / 2, MFG.grid)
        assert f.values[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize("t", [0.1, 0.7, 2.3])
    def test_zero_mean(self, t):
        assert abs(integrate(exact_solution(t, MFG.grid))) < 1e-13

    def test_time_derivative_consistent(self):
        # central difference in t converges to the analytic derivative
        t, eps = 0.4, 1e-6
        fd = (exact_solution(t + eps, MFG.grid).values - exact_solution(t - eps, MFG.grid).values) / (
            2 * eps
        )
        assert np.max(np.abs(fd - exact_time_derivative(t, MFG.grid).values)) < 1e-9


class TestSourceTerm:
    @pytest.mark.parametrize("t", [0.1, 0.35, 1.1])
    def test_residual_of_defining_property(self, t):
        # substituting the exact solution into phi_t - m0 lap(mu) - f must
        # vanish; the oracle uses raw numpy transforms end to end
        grid, params = MFG.grid, MFG.params
        f = source_field(MFG, t)
        phi = exact_solution(t, grid).values
        lap = lambda v: np.fft.irfft2(-grid.k2 * np.fft.rfft2(v), s=grid.shape)
        mu = -params.beta * lap(phi) + params.well_amp * (phi**3 - phi)
        residual = exact_time_derivative(t, grid).values - params.m0 * lap(mu) - f.values
        assert np.max(np.abs(residual)) <= 1e-12

    def test_equals_time_derivative_at_t0(self):
        # phi(0) = 0 kills mu, leaving f = phi_t
        f = source_field(MFG, 0.0)
        expected = exact_time_derivative(0.0, MFG.grid).values
        assert np.max(np.abs(f.values - expected)) < 1e-13

    @pytest.mark.parametrize("t", [0.1, 0.9])
    def test_zero_mean(self, t):
        assert abs(integrate(source_field(MFG, t))) < 1e-13

    @pytest.mark.parametrize("lam", [0.0, 0.6])
    @pytest.mark.parametrize("n", [8, 16, 20, 32, 64, 128])
    def test_half_spectrum_is_the_float_contraction(self, n, lam):
        # complex128 with a zero imaginary part, and the real part is the
        # float contraction with the spectra table, byte for byte
        spec = dataclasses.replace(MFG, grid=GridSpec(n, n, 2.0, 2.0), params=dataclasses.replace(MFG.params, lam=lam))
        source, table = spec.source(), source_spectra(spec.grid, spec.params)
        for t in np.linspace(0.0, 3.0, 301):
            f_hat = source(t)
            assert f_hat.dtype == np.complex128 and f_hat.shape == (n, n // 2 + 1)
            assert not np.any(f_hat.imag)
            s = math.sin(t)
            assert f_hat.real.tobytes() == ((math.cos(t), s, s**3) @ table).tobytes()

    def test_drops_have_no_source(self):
        assert desk_scale_drop_spec().source() is None

    def test_rejects_coarse_grid(self):
        # refused when the problem is built, not when a step evaluates the source
        for nx, ny, field in ((6, 20, "nx"), (20, 6, "ny")):
            with pytest.raises(ValidationError) as excinfo:
                dataclasses.replace(MFG, grid=GridSpec(nx, ny, 2.0, 2.0))
            assert excinfo.value.field == field

    def test_band_limited_exactness(self):
        # the cubic tops out at mode 3: the 8^2 and 64^2 sources agree at
        # shared points, so there is no aliasing error at nx >= 8
        coarse = source_field(dataclasses.replace(MFG, grid=GridSpec(8, 8, 2.0, 2.0)), 0.5)
        fine = source_field(dataclasses.replace(MFG, grid=GridSpec(64, 64, 2.0, 2.0)), 0.5)
        assert np.max(np.abs(coarse.values - fine.values[::8, ::8])) < 1e-12


class TestDropArray:
    def test_far_field_background(self):
        spec = desk_scale_drop_spec()
        phi = ic_drop_array(spec)
        # the domain corner is dozens of interface widths from every drop
        assert phi.values[0, 0] == pytest.approx(-1.0, abs=1e-8)

    def test_drop_center_value(self):
        spec = desk_scale_drop_spec()
        phi = ic_drop_array(spec)
        xs, ys = spec.drops.centers(spec.grid)
        i = int(round(xs[0] / spec.grid.hx))
        j = int(round(ys[0] / spec.grid.hy))
        assert phi.values[i, j] == pytest.approx(1.0, abs=1e-4)

    def test_bounded_by_drop_count(self):
        spec = desk_scale_drop_spec()
        phi = ic_drop_array(spec)
        assert np.max(np.abs(phi.values)) <= n_drops(spec.drops)

    def test_reflection_symmetry_of_centered_lattice(self):
        spec = desk_scale_drop_spec()
        v = ic_drop_array(spec).values
        # x -> lx - x maps grid index i to (nx - i) mod nx
        flipped = np.roll(v[::-1, :], 1, axis=0)
        assert np.max(np.abs(v - flipped)) < 1e-12
        flipped_y = np.roll(v[:, ::-1], 1, axis=1)
        assert np.max(np.abs(v - flipped_y)) < 1e-12

    def test_deterministic(self):
        spec = desk_scale_drop_spec()
        a = ic_drop_array(spec)
        b = ic_drop_array(spec)
        assert np.array_equal(a.values, b.values)
        assert integrate(a) == integrate(b)


def full_lattice_sum(spec):
    """Reference drop field: every drop's tanh summed at every point,
    phi_0 = (N_d - 1) - sum_ij tanh((|x - c_ij| - R0) / (sqrt(2) eta))."""
    grid, drops, eta = spec.grid, spec.drops, spec.params.eta
    X, Y = grid.mesh
    xs, ys = drops.centers(grid)
    phi = np.full(grid.shape, float(n_drops(drops) - 1))
    for xc in xs:
        for yc in ys:
            r = np.sqrt((X - xc) ** 2 + (Y - yc) ** 2)
            phi -= np.tanh((r - drops.radius) / (math.sqrt(2.0) * eta))
    return phi


@pytest.mark.parametrize(
    "spec",
    [
        desk_scale_drop_spec(),
        full_scale_drop_spec(),
        # first centers at 0.2, within a window's reach of the boundary
        dataclasses.replace(desk_scale_drop_spec(), drops=DropLayout(9, 9, 0.45, 0.17)),
    ],
    ids=["desk", "paper", "edge-windows"],
)
def test_windowed_drop_field_matches_full_lattice_sum(spec):
    assert np.max(np.abs(ic_drop_array(spec).values - full_lattice_sum(spec))) <= 1e-12


class TestDeskSpec:
    def test_grid_and_layout(self):
        spec = desk_scale_drop_spec()
        assert spec.grid.shape == (128, 128)
        assert spec.grid.lx == spec.grid.ly == 4.0
        assert spec.drops.count_x == spec.drops.count_y == 5
        assert spec.params.eta == 0.02
        # proportions of the full-size setup are preserved
        assert spec.params.eta / spec.drops.spacing == pytest.approx(0.01 / 0.2)
        assert spec.drops.radius / spec.drops.spacing == pytest.approx(0.085 / 0.2)

    def test_lattice_centered(self):
        spec = desk_scale_drop_spec()
        xs, _ = spec.drops.centers(spec.grid)
        assert xs.mean() == pytest.approx(2.0)


class TestPaperSpec:
    def test_full_configuration(self):
        spec = full_scale_drop_spec()
        assert spec.grid.shape == (512, 512)
        assert n_drops(spec.drops) == 361
        assert spec.drops.radius == 0.085
        assert spec.params.m0 == 1e-6
        assert spec.params.eta == 0.01
        assert spec.params.beta == pytest.approx(3 / (2 * math.sqrt(2)) * 151.15 * 0.01)
        assert spec.params.c0 == 1.0
        # the reference layout puts centers at 0.2 * i exactly
        xs, ys = spec.drops.centers(spec.grid)
        assert xs[0] == pytest.approx(0.2)
        assert xs[-1] == pytest.approx(3.8)
        assert np.allclose(ys, 0.2 * np.arange(1, 20))


class TestProblemSpecValidation:
    def test_manufactured_requires_standard_domain(self):
        grid = GridSpec(20, 20, 4.0, 4.0)
        with pytest.raises(ValueError):
            ProblemSpec(grid=grid, params=MFG.params, t0=0.1, tf=1.1, dt=0.01)

    def test_time_window_ordering(self):
        with pytest.raises(ValueError):
            ProblemSpec(grid=MFG.grid, params=MFG.params, t0=1.1, tf=0.1, dt=0.01)

    def test_positive_dt(self):
        with pytest.raises(ValueError):
            ProblemSpec(grid=MFG.grid, params=MFG.params, t0=0.1, tf=1.1, dt=-0.01)

    @pytest.mark.parametrize("dt", [math.inf, math.nan])
    def test_non_finite_dt(self, dt):
        # refused on construction, so a run given n_steps never sees it
        with pytest.raises(ValidationError) as excinfo:
            dataclasses.replace(MFG, dt=dt)
        assert excinfo.value.field == "dt"

    def test_drop_requires_layout(self):
        grid = GridSpec(32, 32, 4.0, 4.0)
        params = PhysicalParams(m0=1e-6, beta=1.0, eta=0.02)
        with pytest.raises(ValueError):
            ProblemSpec(grid=grid, params=params, t0=0.0, tf=1.0, dt=0.01)

    def test_drops_decide_the_problem(self):
        # a layout added to the manufactured spec makes it a drop problem
        spec = dataclasses.replace(MFG, drops=desk_scale_drop_spec().drops)
        assert not spec.has_exact
        assert np.array_equal(spec.initial_condition().values, ic_drop_array(spec).values)
        assert not np.array_equal(spec.initial_condition().values, MFG.initial_condition().values)
        # a spec without drops is held to the manufactured [0,2]^2 domain
        with pytest.raises(ValidationError) as excinfo:
            dataclasses.replace(desk_scale_drop_spec(), drops=None)
        assert excinfo.value.field == "grid"

    def test_drop_layout_validation(self):
        with pytest.raises(ValueError):
            DropLayout(count_x=0, count_y=5, spacing=0.4, radius=0.17)
        with pytest.raises(ValueError):
            DropLayout(count_x=5, count_y=5, spacing=-0.4, radius=0.17)
        # count_x = 2.5 once built three columns of drops, off the domain's centre, and
        # count_x = True (an Integral) one column
        for name, count in (("count_x", 2.5), ("count_y", 5.0), ("count_x", True)):
            with pytest.raises(ValidationError) as excinfo:
                DropLayout(**{"count_x": 5, "count_y": 5, name: count}, spacing=0.4, radius=0.17)
            assert (excinfo.value.field, excinfo.value.reason) == (name, f"must be an integer, got {count!r}")
        assert n_drops(DropLayout(np.int64(3), np.int32(2), 0.4, 0.17)) == 6

    @pytest.mark.parametrize("name", ["spacing", "radius"])
    def test_drop_layout_non_finite(self, name):
        # an infinite radius gave phi = 49 everywhere, an infinite spacing NaN centers
        with pytest.raises(ValidationError) as excinfo:
            dataclasses.replace(desk_scale_drop_spec().drops, **{name: math.inf})
        assert excinfo.value.field == name

    @pytest.mark.parametrize("axis", ["count_x", "count_y"])
    def test_drop_lattice_must_fit_the_domain(self, axis):
        # centers span (count - 1) * spacing about the domain center: on the
        # desk [0,4]^2 at spacing 0.4, 10 drops fit and 11 put the last at 4.0
        desk = desk_scale_drop_spec()
        fits = dataclasses.replace(desk, drops=dataclasses.replace(desk.drops, **{axis: 10}))
        assert all(0 <= c.min() and c.max() < 4.0 for c in fits.drops.centers(fits.grid))
        for count in (11, 20, 10**400):  # 10**400 has no float: (count - 1) * spacing overflowed
            with pytest.raises(ValidationError) as excinfo:
                dataclasses.replace(desk, drops=dataclasses.replace(desk.drops, **{axis: count}))
            assert excinfo.value.field == axis

    @settings(deadline=None, max_examples=200)
    @given(t0=st.floats(-10.0, 10.0), n=st.integers(1, 10**5), dt=st.floats(1e-4, 10.0))
    def test_n_steps_whole_windows_only(self, t0, n, dt):
        spec = dataclasses.replace(MFG, t0=t0, tf=t0 + n * dt, dt=dt)
        assert spec.n_steps == n
        short = dataclasses.replace(spec, tf=t0 + dt * (n + 0.5))
        with pytest.raises(ValidationError) as excinfo:
            short.n_steps
        assert excinfo.value.field == "dt"

    def test_step_count_overflow_refused_on_dt(self):
        # (1.1 - 0.1) / 5e-324 is inf, which round() turned into an OverflowError
        with pytest.raises(ValidationError, match="overflows") as excinfo:
            dataclasses.replace(MFG, dt=5e-324).n_steps
        assert excinfo.value.field == "dt"

    @pytest.mark.parametrize("dt", [9.999999995e-10, 1e-300])
    def test_step_count_beyond_its_round_off_refused_on_dt(self, dt):
        # from 5e8 steps the whole-step tolerance 1e-9 n is half a step: 9.999999995e-10
        # passed as 1e9 steps, ending at 1.0999999995, and 1e-300 as a 301-digit count
        with pytest.raises(ValidationError, match="5e\\+08 or more") as excinfo:
            dataclasses.replace(MFG, dt=dt).n_steps
        assert excinfo.value.field == "dt"
        assert dataclasses.replace(MFG, dt=2e-8).n_steps == 50_000_000

    def test_initial_condition_dispatch(self):
        mfg = manufactured_spec()
        assert np.allclose(
            mfg.initial_condition().values, exact_solution(mfg.t0, mfg.grid).values
        )
        desk = desk_scale_drop_spec()
        assert desk.initial_condition().values.shape == (128, 128)
