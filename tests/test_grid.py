"""Tests for the spectral grid, transforms, operators and quadrature."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cahnpav import GridSpec, PhysicalParams, RealField, ValidationError
from cahnpav.grid import grad_sq_integral, h2_norm, inner, integrate, l2_norm
from cahnpav.schemes import _symbols

from helpers import constant, count_transforms, from_function, mean


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

    @pytest.mark.parametrize("nx,ny", [(3, 8), (8, 3), (2, 8), (7, 8), (8, 9)])
    def test_rejects_bad_resolution(self, nx, ny):
        with pytest.raises(ValueError):
            GridSpec(nx, ny, 1.0, 1.0)

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

    @pytest.mark.parametrize("nx,ny,lx,ly", [(8, 8, 2.0, 2.0), (12, 16, 2.0, 3.0), (16, 10, 4.0, 1.5)])
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


class TestRealField:
    @pytest.fixture
    def transforms(self, monkeypatch):
        return count_transforms(monkeypatch)

    def test_each_form_is_transformed_at_most_once(self, transforms):
        grid = GridSpec(8, 12, 2.0, 3.0)
        values = np.random.default_rng(3).standard_normal(grid.shape)
        f = RealField(grid, values)
        coeffs = [f.coeffs for _ in range(3)]
        assert all(f.values is values for _ in range(3))
        g = RealField(grid, coeffs=coeffs[0])
        back = [g.values for _ in range(3)]
        assert all(g.coeffs is coeffs[0] for _ in range(3))
        assert transforms == {"fft": 1, "ifft": 1}
        assert all(c is coeffs[0] for c in coeffs) and all(v is back[0] for v in back)
        assert np.allclose(back[0], values, rtol=0.0, atol=1e-13)

    def test_field_with_both_forms_never_transforms(self, transforms):
        grid = GridSpec(8, 8, 2.0, 2.0)
        values, coeffs = np.ones(grid.shape), np.zeros((8, 5), complex)
        f = RealField(grid, values, coeffs=coeffs)
        for _ in range(3):
            assert f.values is values and f.coeffs is coeffs
        assert transforms == {"fft": 0, "ifft": 0}

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
