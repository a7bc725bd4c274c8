"""Tests for the energy functional, potential and chemical potential."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cahnpav import GridSpec, NonPositiveEnergy, PhysicalParams, RealField, ValidationError
from cahnpav.grid import integrate
from cahnpav.model import (
    chemical_potential_exact,
    dissipation,
    energy_total,
    potential_h,
    potential_integral,
    sigma_to_beta,
)

from helpers import constant, from_function

THEORY = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=1.0, c0=1.0)


def smooth_field(grid, seed, n_modes=3, amp=0.5):
    """Random low-mode trigonometric field (band-limited, infinitely smooth)."""
    rng = np.random.default_rng(seed)
    X, Y = grid.mesh
    values = np.zeros(grid.shape)
    for _ in range(n_modes):
        p, q = rng.integers(1, 4, size=2)
        values += rng.uniform(-amp, amp) * np.cos(
            2 * np.pi * p * X / grid.lx + rng.uniform(0, 2 * np.pi)
        ) * np.cos(2 * np.pi * q * Y / grid.ly + rng.uniform(0, 2 * np.pi))
    return RealField(grid, values)


class TestPhysicalParams:
    def test_well_amp_defaults_to_applied_form(self):
        p = PhysicalParams(m0=0.01, beta=0.01, eta=0.1)
        assert p.well_amp == pytest.approx(1.0)

    def test_sigma_to_beta(self):
        assert sigma_to_beta(151.15, 0.01) == pytest.approx(3 / (2 * np.sqrt(2)) * 1.5115)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m0=0.0, beta=1.0, eta=1.0),
            dict(m0=1.0, beta=-1.0, eta=1.0),
            dict(m0=1.0, beta=1.0, eta=0.0),
            dict(m0=1.0, beta=1.0, eta=1.0, lam=-0.1),
            dict(m0=1.0, beta=1.0, eta=1.0, lam=float("nan")),
            dict(m0=1.0, beta=1.0, eta=1.0, lam=float("inf")),
            dict(m0=1.0, beta=1.0, eta=1.0, c0=float("nan")),
            dict(m0=1.0, beta=1.0, eta=1.0, c0=float("-inf")),
            dict(m0=float("inf"), beta=1.0, eta=1.0),
            dict(m0=float("nan"), beta=1.0, eta=1.0),
            dict(m0=1.0, beta=float("inf"), eta=1.0),
            dict(m0=1.0, beta=1.0, eta=float("inf")),
            dict(m0=1.0, beta=1.0, eta=1.0, well_amp=float("nan")),
            dict(m0=1.0, beta=1.0, eta=1.0, well_amp=float("inf")),
            dict(m0=1.0, beta=1.0, eta=1.0, well_amp=-1.0),
            dict(m0=1.0, beta=1e300, eta=1e-10),  # default well_amp overflows
            dict(m0=1.0, beta=1.0, eta=1e-200),  # eta**2 underflows to 0
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            PhysicalParams(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(m0=1.0, beta=1.0, eta=1e-200), "eta"),
            (dict(m0=1.0, beta=0.0, eta=0.0), "eta"),  # eta first: drop configs derive beta from it
            (dict(m0=1.0, beta=1.0, eta=1.0, lam=-0.1), "lam"),
            (dict(m0=1.0, beta=1e300, eta=1e-10), "well_amp"),
            (dict(m0=1.0, beta=1.0, eta=1e300), "eta"),  # eta**2 raised OverflowError
        ],
        ids=["eta-underflow", "eta-before-beta", "lam", "well_amp", "eta-overflow"],
    )
    def test_names_the_offending_field(self, kwargs, field):
        with pytest.raises(ValidationError) as excinfo:
            PhysicalParams(**kwargs)
        assert excinfo.value.field == field

    def test_replace_forms_a_defaulted_amplitude_anew(self):
        p = PhysicalParams(m0=0.01, beta=0.01, eta=0.1)
        for q in (replace(p, eta=0.05), replace(p, beta=0.04), replace(replace(p, m0=1.0), eta=0.05)):
            assert q.well_amp == q.beta / q.eta**2 == pytest.approx(4.0)
        with pytest.raises(ValidationError) as excinfo:
            replace(p, eta=1e300)
        assert excinfo.value.field == "eta"

    def test_replace_keeps_a_given_amplitude(self):
        p = PhysicalParams(m0=0.01, beta=0.01, eta=0.1, well_amp=1.0)
        assert replace(p, eta=0.05).well_amp == 1.0
        derived = PhysicalParams(m0=0.01, beta=0.01, eta=0.1)
        assert replace(derived, well_amp=3.0, eta=0.05).well_amp == 3.0
        assert replace(replace(derived, well_amp=3.0), eta=0.05).well_amp == 3.0

    def test_zero_well_amp_allowed(self):
        # the linear regime used by the closed-form oracle tests
        p = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=0.0)
        assert p.well_amp == 0.0


class TestPotentialH:
    @pytest.mark.parametrize("value", [0.0, 1.0, -1.0])
    def test_well_roots(self, value):
        grid = GridSpec(8, 8, 2.0, 2.0)
        out = potential_h(constant(grid, value), THEORY)
        assert np.max(np.abs(out.values)) == 0.0

    def test_cubic_value(self):
        grid = GridSpec(8, 8, 2.0, 2.0)
        out = potential_h(constant(grid, 2.0), THEORY)
        assert np.all(out.values == pytest.approx(6.0))

    def test_amplitude_scaling(self):
        grid = GridSpec(8, 8, 2.0, 2.0)
        p = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=3.0)
        out = potential_h(constant(grid, 2.0), p)
        assert np.all(out.values == pytest.approx(18.0))


class TestEnergyTotal:
    def test_equilibrium_gives_shift(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        assert energy_total(constant(grid, 1.0), THEORY) == pytest.approx(1.0)

    def test_zero_field(self):
        # E = |Omega| * a/4 + c0 = 4 * 1/4 + 1
        grid = GridSpec(16, 16, 2.0, 2.0)
        assert energy_total(constant(grid, 0.0), THEORY) == pytest.approx(2.0)

    def test_cosine_product_against_fine_quadrature(self):
        grid = GridSpec(20, 20, 2.0, 2.0)
        f = from_function(grid, lambda X, Y: np.cos(np.pi * X) * np.cos(np.pi * Y))
        # brute-force oracle on a 256^2 grid with the hand-derived gradient
        n = 256
        h = 2.0 / n
        xs = np.arange(n) * h
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        phi = np.cos(np.pi * X) * np.cos(np.pi * Y)
        gx = -np.pi * np.sin(np.pi * X) * np.cos(np.pi * Y)
        gy = -np.pi * np.cos(np.pi * X) * np.sin(np.pi * Y)
        oracle = h * h * np.sum(0.5 * (gx**2 + gy**2) + 0.25 * (phi**2 - 1) ** 2) + 1.0
        assert energy_total(f, THEORY) == pytest.approx(oracle, rel=1e-12)
        # gradient part alone is pi^2
        quartic = potential_integral(f, THEORY)
        assert energy_total(f, THEORY) - quartic - 1.0 == pytest.approx(np.pi**2, rel=1e-12)

    def test_raises_on_nonpositive_energy(self):
        grid = GridSpec(8, 8, 2.0, 2.0)
        p = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=1.0, c0=-5.0)
        with pytest.raises(NonPositiveEnergy):
            energy_total(constant(grid, 1.0), p)

    @settings(deadline=None, max_examples=20)
    @given(seed=st.integers(0, 10_000))
    def test_shifted_energy_at_least_c0(self, seed):
        # integrand is a sum of nonnegative terms when lam >= 0
        grid = GridSpec(16, 16, 2.0, 2.0)
        p = PhysicalParams(m0=1.0, beta=0.7, eta=1.0, well_amp=2.0, lam=0.3, c0=1.0)
        f = smooth_field(grid, seed)
        assert energy_total(f, p) >= p.c0 - 1e-12


class TestDissipation:
    def test_constant_mu(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        assert dissipation(constant(grid, 5.0), THEORY) == 0.0

    def test_cosine_product(self):
        grid = GridSpec(20, 20, 2.0, 2.0)
        mu = from_function(grid, lambda X, Y: np.cos(np.pi * X) * np.cos(np.pi * Y))
        assert dissipation(mu, THEORY) == pytest.approx(2 * np.pi**2, rel=1e-12)

    def test_linear_in_mobility(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        mu = smooth_field(grid, 7)
        p2 = PhysicalParams(m0=2.0, beta=1.0, eta=1.0, well_amp=1.0)
        assert dissipation(mu, p2) == pytest.approx(2 * dissipation(mu, THEORY), rel=1e-14)


class TestChemicalPotential:
    def test_zero_and_equilibrium(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        for value in (0.0, 1.0):
            mu = chemical_potential_exact(constant(grid, value), THEORY)
            assert np.max(np.abs(mu.values)) < 1e-14

    def test_cosine_product_analytic(self):
        # lap phi = -2 pi^2 phi, so mu = 2 pi^2 phi + (phi^3 - phi)
        grid = GridSpec(20, 20, 2.0, 2.0)
        f = from_function(grid, lambda X, Y: np.cos(np.pi * X) * np.cos(np.pi * Y))
        mu = chemical_potential_exact(f, THEORY)
        v = f.values
        expected = 2 * np.pi**2 * v + (v**3 - v)
        assert np.max(np.abs(mu.values - expected)) < 1e-11

    def test_includes_linear_term(self):
        grid = GridSpec(16, 16, 2.0, 2.0)
        p = PhysicalParams(m0=1.0, beta=1.0, eta=1.0, well_amp=1.0, lam=2.5)
        mu = chemical_potential_exact(constant(grid, 0.5), p)
        # constant field: lap phi = 0, so mu = lam phi + h(phi)
        assert np.all(mu.values == pytest.approx(2.5 * 0.5 + (0.125 - 0.5)))

    def test_variational_consistency(self):
        # (E[phi + eps v] - E[phi - eps v]) / (2 eps) -> int mu v, order eps^2
        grid = GridSpec(32, 32, 2.0, 2.0)
        p = PhysicalParams(m0=1.0, beta=0.8, eta=1.0, well_amp=1.3, lam=0.4, c0=1.0)
        phi = smooth_field(grid, 11)
        v = smooth_field(grid, 12)
        mu = chemical_potential_exact(phi, p)
        exact_slope = integrate(RealField(grid, mu.values * v.values))

        def central_diff(eps):
            ep = energy_total(RealField(grid, phi.values + eps * v.values), p)
            em = energy_total(RealField(grid, phi.values - eps * v.values), p)
            return (ep - em) / (2 * eps)

        # Richardson: halving eps divides the O(eps^2) error by ~4
        err1 = abs(central_diff(1e-3) - exact_slope)
        err2 = abs(central_diff(5e-4) - exact_slope)
        assert err1 / err2 == pytest.approx(4.0, abs=0.2)
        # at eps = 1e-4 check the O(eps^2) magnitude against the constant
        # measured at 1e-3 (its own ratio test would drown in cancellation)
        assert abs(central_diff(1e-4) - exact_slope) < 1.5 * err1 / 100 + 1e-10
