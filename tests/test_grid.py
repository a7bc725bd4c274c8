"""Tests for the spectral grid, transforms, operators and quadrature."""

import math
import os
import re
import signal
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cahnpav
import cahnpav.grid
from cahnpav import STEPPERS, GridSpec, PhysicalParams, RealField, SchemeKind, ValidationError, init_state
from cahnpav.grid import _rows, grad_inner, grad_sq_integral, h2_norm, inner, integrate, l2_norm
from cahnpav.model import potential_integral, well
from cahnpav.schemes import _symbols

from helpers import constant, count_work, from_function, mean, worker_tasks


def random_field(grid: GridSpec, seed: int, smooth: bool = False) -> RealField:
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape)
    if smooth:
        # band-limit to the lowest third of the spectrum
        coeffs = np.fft.rfft2(values)
        keep = (np.abs(grid.kx) <= np.abs(grid.kx).max() / 3) & (
            np.abs(grid.ky) <= np.abs(grid.ky).max() / 3
        )
        values = np.fft.irfft2(coeffs * keep, s=grid.shape)
    return RealField(grid, values)


def laplacian(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    """The spectral Laplacian through the grid's transforms: mode k times -|k|^2."""
    return grid.ifft(-grid.k2 * grid.fft(values))


class TestGridSpec:
    def test_spacing_and_points(self):
        grid = GridSpec(8, 16, 2.0, 4.0)
        assert grid.hx == 0.25
        assert grid.hy == 0.25
        assert grid.x[1] == grid.hx
        assert grid.mesh[0].shape == (8, 16)
        assert grid.area == 8.0

    @pytest.mark.parametrize(
        "nx,ny",
        [(3, 8), (8, 3), (2, 8), (7, 8), (8, 9), (64.0, 8), (8, 8.0),
         pytest.param(10**400, 8, id="nx-huge"), pytest.param(8, 10**400, id="ny-huge"),
         pytest.param(np.int64(2**32), np.int64(2**32), id="int64-product")],
    )
    def test_rejects_bad_resolution(self, nx, ny):
        # a float count passed here once and failed only at the first transform;
        # a count numpy cannot size (np.int64's product wraps to 0) only at allocation
        with pytest.raises(ValidationError) as excinfo:
            GridSpec(nx, ny, 1.0, 1.0)
        assert excinfo.value.field == ("ny" if nx == 8 else "nx")  # one bad value per case

    @pytest.mark.parametrize("lx,ly", [(0.0, 1.0), (1.0, -2.0)])
    def test_rejects_bad_lengths(self, lx, ly):
        with pytest.raises(ValueError):
            GridSpec(8, 8, lx, ly)

    @pytest.mark.parametrize(
        "lx,ly,field", [(math.inf, 1.0, "lx"), (1.0, math.inf, "ly"), (math.nan, 1.0, "lx")]
    )
    def test_rejects_non_finite_lengths(self, lx, ly, field):
        with pytest.raises(ValidationError) as excinfo:
            GridSpec(8, 8, lx, ly)
        assert excinfo.value.field == field

    def test_wavenumbers(self):
        grid = GridSpec(8, 8, 2.0, 2.0)
        # fundamental wavenumber 2 pi / lx = pi
        assert grid.kx[1, 0] == pytest.approx(np.pi)
        assert grid.ky[0, 1] == pytest.approx(np.pi)
        assert grid.k2[0, 0] == 0.0

    def test_wavenumbers_broadcast_to_full_grid(self):
        grid = GridSpec(8, 6, 2.0, 3.0)
        assert grid.kx.shape == (8, 1)
        assert grid.ky.shape == (1, 4)  # ky >= 0 only: the half-spectrum
        # independent reference: the wavenumbers as full (nx, ny) grids,
        # restricted to the half-spectrum columns 0..ny/2
        kx = np.tile(2 * np.pi * np.fft.fftfreq(8, d=grid.hx)[:, None], (1, 6))
        ky = np.tile(2 * np.pi * np.fft.fftfreq(6, d=grid.hy)[None, :], (8, 1))
        assert np.array_equal(grid.k2, (kx**2 + ky**2)[:, :4])
        cut_x, cut_y = 2 / 3 * np.abs(kx).max(), 2 / 3 * np.abs(ky).max()
        full_mask = (np.abs(kx) <= cut_x) & (np.abs(ky) <= cut_y)
        assert np.array_equal(grid.dealias_mask, full_mask[:, :4])

    def test_dealias_mask_keeps_low_kills_high(self):
        grid = GridSpec(12, 12, 2.0, 2.0)
        assert grid.dealias_mask[0, 0]
        assert grid.dealias_mask[1, 1]
        assert not grid.dealias_mask[6, 0]  # Nyquist column


class TestKeptMultipliers:
    """Every multiplier kept for the half-spectra is complex128, its float64
    formula plus 0j, so no product in a step casts a real operand."""

    @staticmethod
    def assert_complex_of(kept, formula):
        assert kept.dtype == np.complex128
        assert not np.any(kept.imag)
        assert kept.real.tobytes() == np.asarray(formula, dtype=np.float64).tobytes()

    @pytest.mark.parametrize(
        "nx,ny,lx,ly", [(8, 8, 2.0, 2.0), (12, 16, 2.0, 3.0), (16, 10, 4.0, 1.5), (np.int64(12), np.int32(16), 2.0, 3.0)]
    )
    def test_weights(self, nx, ny, lx, ly):
        grid = GridSpec(nx, ny, lx, ly)
        ky = grid.ky
        weight = np.where((ky == 0) | (ky == ky.max()), 1.0, 2.0) * (lx * ly)
        self.assert_complex_of(grid.parseval, weight)
        self.assert_complex_of(grid.grad_weight, weight * grid.k2)
        self.assert_complex_of(grid.h2_weight, weight * (1.0 + grid.k2) ** 2)
        assert grid.k2.dtype == np.float64 and grid.dealias_mask.dtype == bool

    @pytest.mark.parametrize("lam", [0.0, 0.6])
    @pytest.mark.parametrize("sigma,dt", [(1.0, 1e-3), (1.5, 0.07)])
    def test_solve_operator(self, sigma, dt, lam):
        grid = GridSpec(12, 16, 2.0, 3.0)
        p = PhysicalParams(m0=0.7, beta=0.3, eta=1.0, well_amp=1.0, lam=lam)
        lin, m0k2 = p.beta * grid.k2 + p.lam, dt * p.m0 * grid.k2
        for kept, formula in zip(_symbols(sigma, grid, dt, p), (lin, m0k2, 1.0 / (sigma + m0k2 * lin))):
            self.assert_complex_of(kept, formula)

    def test_kept_returns_its_own_entry_when_another_caller_stores_one(self):
        # another caller on the grid, with another key, stores its entry right
        # after this call stores its own: the call still returns what it made
        class Racing(dict):
            def __setitem__(self, key, value):
                super().__setitem__(key, value)
                if key == "_kept" and value[0] == "a":
                    super().__setitem__(key, ("b", ("B",)))

        grid = GridSpec(8, 8, 2.0, 2.0)
        object.__setattr__(grid, "__dict__", Racing(grid.__dict__))
        assert grid.kept("a", lambda: ("A",)) == ("A",)
        assert grid.kept("b", lambda: ("rebuilt",)) == ("B",)


class TestRealField:
    @pytest.fixture
    def transforms(self, monkeypatch):
        return count_work(monkeypatch)

    def test_each_form_is_transformed_at_most_once(self, transforms):
        grid = GridSpec(8, 12, 2.0, 3.0)
        values = np.random.default_rng(3).standard_normal(grid.shape)
        f = RealField(grid, values)
        coeffs = [f.coeffs for _ in range(3)]
        assert all(f.values is values for _ in range(3))
        g = RealField(grid, coeffs=coeffs[0])
        back = [g.values for _ in range(3)]
        assert all(g.coeffs is coeffs[0] for _ in range(3))
        assert transforms == {"fft": 1, "ifft": 1, "solve": 0}
        assert all(c is coeffs[0] for c in coeffs) and all(v is back[0] for v in back)
        assert np.allclose(back[0], values, rtol=0.0, atol=1e-13)

    def test_field_with_both_forms_never_transforms(self, transforms):
        grid = GridSpec(8, 8, 2.0, 2.0)
        values, coeffs = np.ones(grid.shape), np.zeros((8, 5), complex)
        f = RealField(grid, values, coeffs=coeffs)
        for _ in range(3):
            assert f.values is values and f.coeffs is coeffs
        assert transforms == {"fft": 0, "ifft": 0, "solve": 0}

    def test_needs_a_form(self):
        with pytest.raises(ValueError, match="needs its values or its coefficients"):
            RealField(GridSpec(8, 8, 1.0, 1.0))

    def test_shape_mismatch_rejected(self):
        grid = GridSpec(8, 8, 1.0, 1.0)
        with pytest.raises(ValueError):
            RealField(grid, np.zeros((8, 4)))
        with pytest.raises(ValueError, match=r"field shape \(8, 4\)"):
            RealField(grid, np.zeros((8, 4)), coeffs=np.zeros((8, 5), complex))

    @pytest.mark.parametrize("shape", [(8, 8), (4, 5)], ids=["full-spectrum", "wrong-size"])
    def test_coefficient_shape_mismatch_rejected(self, shape):
        # the half-spectrum of an 8 x 8 grid has shape (8, 5)
        grid = GridSpec(8, 8, 2.0, 2.0)
        with pytest.raises(ValueError, match=r"coefficient shape .* does not match half-spectrum \(8, 5\)"):
            RealField(grid, coeffs=np.zeros(shape, complex))
        assert RealField(grid, coeffs=np.zeros((8, 5), complex)).values.shape == (8, 8)

    def test_constant_and_mean(self):
        grid = GridSpec(8, 8, 1.0, 1.0)
        f = constant(grid, 2.5)
        assert mean(f) == 2.5


class TestTransforms:
    def test_constant_field_single_coeff(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        fh = grid.fft(constant(grid, 3.0).values)
        assert fh[0, 0] == pytest.approx(3.0)
        rest = fh.copy()
        rest[0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_single_cosine_mode(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        f = from_function(grid, lambda X, Y: np.cos(2 * np.pi * X / grid.lx))
        fh = grid.fft(f.values)
        assert fh[1, 0] == pytest.approx(0.5)
        assert fh[-1, 0] == pytest.approx(0.5)
        fh[1, 0] = fh[-1, 0] = 0.0
        assert np.max(np.abs(fh)) < 1e-14

    def test_mean_normalization(self):
        grid = GridSpec(10, 12, 1.0, 3.0)
        f = random_field(grid, 0)
        assert grid.fft(f.values)[0, 0] == pytest.approx(mean(f))

    @settings(deadline=None, max_examples=25)
    @given(seed=st.integers(0, 10_000))
    def test_round_trip_identity(self, seed):
        grid = GridSpec(16, 12, 2.0, 1.5)
        f = random_field(grid, seed)
        back = grid.ifft(grid.fft(f.values))
        assert np.max(np.abs(back - f.values)) <= 1e-13 * np.max(np.abs(f.values))

    def test_conjugate_symmetry(self):
        # the half-spectrum keeps ky >= 0; the zero and Nyquist columns are
        # their own conjugate columns, so they are Hermitian in kx
        grid = GridSpec(12, 8, 2.0, 2.0)
        coeffs = grid.fft(random_field(grid, 3).values)
        assert coeffs.shape == (grid.nx, grid.ny // 2 + 1)
        for p in range(grid.nx):
            for q in (0, grid.ny // 2):
                assert coeffs[-p % grid.nx, q] == pytest.approx(np.conj(coeffs[p, q]), abs=1e-15)

    @pytest.mark.parametrize("shape", [(6, 6), (20, 20), (128, 128), (512, 512), (32, 64), (64, 32)])
    def test_equals_plain_rfft2(self, shape):
        # written into a fresh output array, bit for bit numpy's own result
        grid = GridSpec(*shape, 2.0, 3.0)
        values = random_field(grid, 7).values
        coeffs = grid.fft(values)
        assert coeffs.dtype == np.complex128
        assert np.array_equal(coeffs, np.fft.rfft2(values, s=grid.shape, norm="forward"))

    def test_result_is_fresh_and_contiguous(self):
        grid = GridSpec(32, 64, 2.0, 2.0)
        values = random_field(grid, 8).values
        first, second = grid.fft(values), grid.fft(values)
        assert first.flags.c_contiguous and second.flags.c_contiguous
        assert not np.shares_memory(first, values)
        assert not np.shares_memory(first, second)
        second[0, 0] += 1.0
        assert np.array_equal(first, np.fft.rfft2(values, s=grid.shape, norm="forward"))


class TestLaplacian:
    def test_constant_maps_to_zero(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        out = laplacian(grid, constant(grid, 4.0).values)
        assert np.max(np.abs(out)) == 0.0

    def test_cosine_eigenfunction(self):
        # lap cos(pi x) = -pi^2 cos(pi x) on lx = 2
        grid = GridSpec(20, 20, 2.0, 2.0)
        f = from_function(grid, lambda X, Y: np.cos(np.pi * X))
        out = laplacian(grid, f.values)
        expected = -np.pi**2 * f.values
        assert np.max(np.abs(out - expected)) < 1e-12 * np.pi**2

    def test_linearity(self):
        grid = GridSpec(12, 12, 2.0, 2.0)
        f, g = random_field(grid, 1), random_field(grid, 2)
        combo = 2.0 * f.values - 3.0 * g.values
        lhs = laplacian(grid, combo)
        rhs = 2.0 * laplacian(grid, f.values) - 3.0 * laplacian(grid, g.values)
        assert np.max(np.abs(lhs - rhs)) < 1e-13 * np.max(np.abs(rhs))

    def test_pure_mode_eigenvalue_exact(self):
        grid = GridSpec(8, 8, 2.0, 4.0)
        for p, q in [(1, 0), (2, 3), (3, 1)]:
            # a conjugate pair of modes, so the physical field is real: a
            # column q > 0 stands for its partner -q, column 0 holds both
            coeffs = np.zeros((grid.nx, grid.ny // 2 + 1), dtype=complex)
            coeffs[p, q] = 1.0
            if q == 0:
                coeffs[-p, q] = 1.0
            out = grid.fft(laplacian(grid, grid.ifft(coeffs)))
            k2 = (2 * np.pi * p / grid.lx) ** 2 + (2 * np.pi * q / grid.ly) ** 2
            assert out[p, q] == pytest.approx(-k2)


class TestDealias:
    def test_keeps_resolved_mode_kills_high_mode(self):
        grid = GridSpec(12, 12, 2.0, 2.0)
        low = from_function(grid, lambda X, Y: np.cos(np.pi * X) * np.cos(np.pi * Y))
        high = from_function(grid, lambda X, Y: np.cos(5 * np.pi * X))
        out = grid.ifft(grid.fft(low.values + high.values) * grid.dealias_mask)
        assert np.max(np.abs(out - low.values)) < 1e-14


class TestQuadrature:
    def test_constant(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        assert integrate(constant(grid, 3.0)) == pytest.approx(12.0)

    def test_zero_mean_mode(self):
        grid = GridSpec(20, 20, 2.0, 2.0)
        f = from_function(grid, lambda X, Y: np.cos(np.pi * X) * np.cos(np.pi * Y))
        assert abs(integrate(f)) < 1e-13

    def test_cos_squared(self):
        # int_0^2 cos^2(pi x) dx * int_0^2 dy = 1 * 2
        grid = GridSpec(20, 20, 2.0, 2.0)
        f = from_function(grid, lambda X, Y: np.cos(np.pi * X) ** 2)
        assert integrate(f) == pytest.approx(2.0, abs=1e-13)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_parseval(self, seed):
        grid = GridSpec(16, 16, 2.0, 3.0)
        f = random_field(grid, seed)
        squared = integrate(RealField(grid, f.values**2))
        # independent route: raw numpy fft
        coeffs = np.fft.fft2(f.values) / (grid.nx * grid.ny)
        spectral = np.sum(np.abs(coeffs) ** 2) * grid.area
        assert squared == pytest.approx(spectral, rel=1e-12)


class TestGradSqIntegral:
    def test_constant_is_zero(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        assert grad_sq_integral(constant(grid, 7.0)) == 0.0

    def test_cosine_product(self):
        grid = GridSpec(20, 20, 2.0, 2.0)
        f = from_function(grid, lambda X, Y: np.cos(np.pi * X) * np.cos(np.pi * Y))
        assert grad_sq_integral(f) == pytest.approx(2 * np.pi**2, rel=1e-12)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_matches_physical_space_quadrature(self, seed):
        grid = GridSpec(24, 24, 2.0, 2.0)
        f = random_field(grid, seed, smooth=True)
        # independent route: spectral derivative -> physical space -> rectangle sum
        coeffs = np.fft.rfft2(f.values)
        dx = np.fft.irfft2(1j * grid.kx * coeffs, s=grid.shape)
        dy = np.fft.irfft2(1j * grid.ky * coeffs, s=grid.shape)
        physical = grid.hx * grid.hy * np.sum(dx**2 + dy**2)
        assert grad_sq_integral(f) == pytest.approx(physical, rel=1e-12)

    @settings(deadline=None, max_examples=15)
    @given(seed=st.integers(0, 10_000))
    def test_nonnegative_zero_iff_constant(self, seed):
        grid = GridSpec(12, 12, 1.0, 1.0)
        f = random_field(grid, seed)
        assert grad_sq_integral(f) >= 0.0
        assert grad_sq_integral(constant(grid, mean(f))) < 1e-13


@pytest.mark.parametrize("ny", [8, 12])
@pytest.mark.parametrize("seed", [0, 1])
def test_half_spectrum_parseval_matches_full_spectrum(ny, seed):
    # unsmoothed fields carry content on the Nyquist column, so a wrong
    # column weight in the half-spectrum sums shows here
    grid = GridSpec(10, ny, 2.0, 3.0)
    f, g = random_field(grid, seed), random_field(grid, seed + 100)
    kx = 2 * np.pi * np.fft.fftfreq(grid.nx, d=grid.hx)[:, None]
    ky = 2 * np.pi * np.fft.fftfreq(grid.ny, d=grid.hy)[None, :]
    k2 = kx**2 + ky**2
    F = np.fft.fft2(f.values) / (grid.nx * grid.ny)
    G = np.fft.fft2(g.values) / (grid.nx * grid.ny)
    power = np.abs(F) ** 2
    assert grad_sq_integral(f) == pytest.approx(np.sum(k2 * power) * grid.area, rel=1e-12)
    assert h2_norm(f) == pytest.approx(np.sqrt(np.sum((1 + k2) ** 2 * power) * grid.area), rel=1e-12)
    assert inner(f, g) == pytest.approx(np.sum(np.real(F * np.conj(G))) * grid.area, rel=1e-12)
    assert inner(f, g) == pytest.approx(integrate(RealField(grid, f.values * g.values)), rel=1e-12)


class TestH2Norm:
    def test_zero_field(self):
        grid = GridSpec(8, 8, 2.0, 2.0)
        assert h2_norm(constant(grid, 0.0)) == 0.0

    def test_constant_field(self):
        # only the (0,0) mode contributes: c * sqrt(|Omega|)
        grid = GridSpec(16, 16, 2.0, 2.0)
        assert h2_norm(constant(grid, 3.0)) == pytest.approx(6.0)

    def test_kept_weight_matches_formula(self):
        # the weight the grid keeps is the product h2_norm used to form per call
        grid = GridSpec(12, 16, 2.0, 3.0)
        f = random_field(grid, 4)
        c = f.coeffs
        assert h2_norm(f) == float(np.sqrt(np.vdot(c, grid.parseval * (1.0 + grid.k2) ** 2 * c).real))
        assert grid.h2_weight is grid.h2_weight

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_dominates_l2(self, seed):
        grid = GridSpec(12, 12, 2.0, 2.0)
        f = random_field(grid, seed)
        assert h2_norm(f) >= l2_norm(f) * (1 - 1e-13)


class TestReductions:
    """Above 10,000 elements a reduction is one BLAS-free einsum pass (grid's module docstring)."""

    def test_einsum_path_agrees_with_vdot(self, monkeypatch):
        # 144^2: 10,512 half-spectrum and 20,736 physical values, each just past the limit
        grid = GridSpec(144, 144, 2.0, 3.0)
        f = random_field(grid, 5)
        g = RealField(grid, f.values + 0.1 * random_field(grid, 6).values)
        p = PhysicalParams(m0=1.0, beta=0.7, eta=1.0, well_amp=1.3)
        w = well(f.values)
        want = {
            "grad_inner": np.vdot(f.coeffs, grid.grad_weight * g.coeffs).real,
            "inner": np.vdot(f.coeffs, grid.parseval * g.coeffs).real,
            "h2_norm": np.sqrt(np.vdot(f.coeffs, grid.h2_weight * f.coeffs).real),
            "potential_integral": 0.25 * p.well_amp * grid.hx * grid.hy * np.vdot(w, w),
        }

        def no_blas(*args):
            raise AssertionError("np.vdot called past the limit")

        monkeypatch.setattr(np, "vdot", no_blas)
        got = {
            "grad_inner": grad_inner(f, g),
            "inner": inner(f, g),
            "h2_norm": h2_norm(f),
            "potential_integral": potential_integral(f, p),
        }
        for name, value in got.items():
            assert value == pytest.approx(want[name], rel=1e-13), name

    @pytest.mark.parametrize("layout", [np.complex64, np.asfortranarray], ids=["complex64", "fortran"])
    def test_einsum_path_takes_any_coefficient_layout(self, layout):
        # coefficients handed in by a caller need not be C-ordered complex128
        grid = GridSpec(144, 144, 2.0, 2.0)
        c = random_field(grid, 9).coeffs
        c = c.astype(layout) if layout is np.complex64 else layout(c)
        f = RealField(grid, coeffs=c)
        assert grad_sq_integral(f) == pytest.approx(np.vdot(c, grid.grad_weight * c).real, rel=1e-13)

    def test_real_view_weight_is_kept(self):
        grid = GridSpec(144, 144, 2.0, 2.0)
        f = random_field(grid, 7)
        grad_sq_integral(f)
        kept = grid._real_weight("grad_weight")
        assert kept.shape == (144, 146) and kept.flags.c_contiguous
        assert kept[:, 0::2].tobytes() == kept[:, 1::2].tobytes() == grid.grad_weight.real.tobytes()
        grad_sq_integral(f)
        assert grid._real_weight("grad_weight") is kept

    def test_large_step_builds_no_complex_weight(self):
        # the complex and the real-view grad_weight are 2 MB each at 512^2
        grid = GridSpec(512, 512, 2.0, 2.0)
        params = PhysicalParams(m0=1e-3, beta=1e-3, eta=0.05)
        state = init_state(random_field(grid, 8, smooth=True), params)
        STEPPERS[SchemeKind.PAV_2A](state, 1e-3, params)
        assert {"grad_weight", "h2_weight"}.isdisjoint(grid.__dict__)
        assert set(grid.__dict__["_real_weights"]) == {"grad_weight"}

    def test_bits_do_not_follow_blas_threads(self):
        # each process prints the repr of a few reductions; OpenBLAS reads its
        # thread count when numpy loads, so each count needs its own process
        code = textwrap.dedent("""
            import numpy as np
            from cahnpav import GridSpec, PhysicalParams, RealField
            from cahnpav.grid import grad_inner, h2_norm, inner
            from cahnpav.model import potential_integral
            p = PhysicalParams(m0=1.0, beta=0.7, eta=1.0, well_amp=1.3)
            for n in (128, 512):
                grid = GridSpec(n, n, 2.0, 2.0)
                rng = np.random.default_rng(n)
                f, g = (RealField(grid, rng.standard_normal(grid.shape)) for _ in "fg")
                print(repr((grad_inner(f, g), inner(f, g), h2_norm(f), potential_integral(f, p))))
        """)
        src = str(Path(cahnpav.__file__).parents[1])
        out = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join([src] + [x for x in [env.get("PYTHONPATH")] if x])
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            out[threads] = run.stdout
        assert out["1"].count("\n") == 2
        assert out["1"] == out["2"]


class TestRows:
    """grid._rows runs a kernel over all rows at once up to 128^2 points; above,
    over rows [0, nx//2) on the calling thread and [nx//2, nx) on the worker,
    or both on the worker with wait=False, adding each half's sums."""

    @staticmethod
    def kernel(calls, fail=None):
        def kernel(rows, value):
            calls.append((rows, threading.get_ident()))
            if rows == fail:
                raise ValueError(f"rows {rows}")
            return {"sum": value if rows in (..., slice(0, 65)) else 2.0 * value}
        return kernel

    def test_up_to_128_squared_one_call_here(self, monkeypatch):
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        calls = []
        assert _rows(GridSpec(128, 128, 1.0, 1.0), self.kernel(calls), 0.25) == {"sum": 0.25}
        assert _rows(GridSpec(128, 128, 1.0, 1.0), self.kernel(calls), 0.25, wait=False)() == {"sum": 0.25}
        assert calls == [(..., threading.get_ident())] * 2

    def test_halves_here_and_on_the_worker(self, monkeypatch):
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        calls, here = [], threading.get_ident()
        assert _rows(GridSpec(130, 130, 1.0, 1.0), self.kernel(calls), 0.25) == {"sum": 0.75}
        first, second = sorted(calls, key=lambda call: call[0].start)
        assert first == (slice(0, 65), here)
        assert second[0] == slice(65, 130) and second[1] != here

    def test_without_waiting_both_halves_run_on_the_worker(self, monkeypatch):
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        calls = []
        sums = _rows(GridSpec(130, 130, 1.0, 1.0), self.kernel(calls), 0.25, wait=False)
        assert sums() == {"sum": 0.75}
        assert [rows for rows, _ in calls] == [slice(0, 65), slice(65, 130)]
        assert threading.get_ident() not in {thread for _, thread in calls}

    @pytest.mark.parametrize("fail", [slice(0, 65), slice(65, 130)], ids=["here", "worker"])
    def test_an_error_in_either_half_is_raised_here(self, monkeypatch, fail):
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        calls = []
        with pytest.raises(ValueError, match=re.escape(f"rows {fail}")):
            _rows(GridSpec(130, 130, 1.0, 1.0), self.kernel(calls, fail), 0.25)
        assert len(calls) == 2  # the worker's half had finished
        assert _rows(GridSpec(130, 130, 1.0, 1.0), self.kernel(calls), 0.25) == {"sum": 0.75}

    def test_callers_on_many_threads_share_the_worker(self, monkeypatch):
        # four callers, more than the host's cores, with a short switch interval:
        # each gets the sums of its own arrays
        monkeypatch.setattr(cahnpav.grid, "_tasks", worker_tasks())
        grid, results = GridSpec(130, 130, 1.0, 1.0), []

        def caller(k):
            a = np.full(grid.shape, float(k))
            for _ in range(50):
                results.append((k, _rows(grid, lambda rows, a: {"sum": float(a.sum())}, a)["sum"]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(results) == [(k, k * 130.0 * 130.0) for k in range(4) for _ in range(50)]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_child_starts_its_own_worker(self, monkeypatch):
        # the child has no copy of the parent's worker thread: a split there must not wait for it
        monkeypatch.setattr(cahnpav.grid, "_tasks", None)
        grid, calls = GridSpec(130, 130, 1.0, 1.0), []
        assert _rows(grid, self.kernel(calls), 0.25) == {"sum": 0.75}
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if the split completes, killed by the alarm if it hangs
            signal.alarm(30)
            os._exit(0 if _rows(grid, self.kernel([]), 0.25) == {"sum": 0.75} else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_one_cpu_runs_both_halves_here(self, monkeypatch):
        monkeypatch.setattr(cahnpav.grid, "_tasks", None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        calls = []
        assert _rows(GridSpec(130, 130, 1.0, 1.0), self.kernel(calls), 0.25) == {"sum": 0.75}
        assert cahnpav.grid._tasks is cahnpav.grid._Inline
        assert {thread for _, thread in calls} == {threading.get_ident()}
