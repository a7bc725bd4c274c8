"""Free energy, double-well potential and chemical potential.

The solver works with the shifted free energy

    E[phi] = int( beta/2 |grad phi|^2 + lam/2 phi^2 + a/4 (phi^2 - 1)^2 ) dx + c0

whose well amplitude ``a`` unifies the theory form (a = 1, beta = 1) and the
applied form (a = beta / eta^2).  The chemical potential is the variational
derivative  mu = -beta lap phi + lam phi + a (phi^3 - phi),  and the energy
decays along solutions at the rate  dE/dt = -m0 int |grad mu|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPositiveEnergy, ValidationError
from .grid import GridSpec, RealField, _dot, grad_inner, grad_sq_integral, inner


def sigma_to_beta(sigma: float, eta: float) -> float:
    """Mixing-energy coefficient from surface tension: beta = 3/(2 sqrt 2) sigma eta."""
    return 3.0 / (2.0 * math.sqrt(2.0)) * sigma * eta


class _Derived(float):
    """A well amplitude formed as beta / eta**2.  ``dataclasses.replace`` passes
    every field back to ``__init__``, so this type tells the new instance to form
    the amplitude anew; a plain float, given by the caller, is kept."""

    __slots__ = ()


@dataclass(frozen=True)
class PhysicalParams:
    """Physical and model constants.

    Parameters
    ----------
    m0 : float
        Interface mobility, > 0.
    beta : float
        Mixing energy density coefficient, > 0.
    eta : float
        Characteristic interfacial thickness, > 0.
    well_amp : float, optional
        Amplitude ``a`` of the double-well a/4 (phi^2-1)^2.  Defaults to
        beta / eta^2 (the applied form); pass 1.0 for the theory form.
        ``dataclasses.replace`` forms a defaulted amplitude anew from the
        new beta and eta, and keeps a given one.
    lam : float
        Coefficient of the linear phi term, >= 0 (0 in applied runs).
    c0 : float
        Energy shift chosen so the total energy stays positive.

    Every field must be finite.
    """

    m0: float
    beta: float
    eta: float
    well_amp: float | None = None
    lam: float = 0.0
    c0: float = 1.0

    def __post_init__(self) -> None:
        # eta before beta: drop configs derive beta from eta
        for name in ("m0", "eta", "beta"):
            value = getattr(self, name)
            if not value > 0:
                raise ValidationError(name, f"must be positive, got {value}")
        if self.well_amp is None or type(self.well_amp) is _Derived:
            try:
                object.__setattr__(self, "well_amp", _Derived(self.beta / self.eta**2))
            except ZeroDivisionError:
                raise ValidationError("eta", f"eta**2 underflows to 0 for eta = {self.eta}") from None
            except OverflowError:
                raise ValidationError("eta", f"eta**2 overflows for eta = {self.eta}") from None
        for name in ("m0", "beta", "eta", "well_amp", "lam", "c0"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValidationError(name, f"must be finite, got {value}")
        for name in ("well_amp", "lam"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValidationError(name, f"must be nonnegative, got {value}")


def well(v: np.ndarray) -> np.ndarray:
    """w = v^2 - 1 of the values v of phi: h(phi) = a phi w and H(phi) = a/4 w^2."""
    w = v * v
    w -= 1.0
    return w


def potential_h(phi: RealField, p: PhysicalParams) -> RealField:
    """Derivative of the double well: a (phi^3 - phi) = a phi (phi phi - 1), pointwise."""
    v = phi.values
    return RealField(phi.grid, p.well_amp * v * well(v))


def well_integral(w: np.ndarray, grid: GridSpec, p: PhysicalParams) -> float:
    """Integral of the double-well density a/4 w^2, w = well(phi), over the domain."""
    return 0.25 * p.well_amp * grid.hx * grid.hy * _dot(w, w)


def potential_integral(phi: RealField, p: PhysicalParams) -> float:
    """Integral of the double-well density a/4 (phi^2 - 1)^2 over the domain."""
    return well_integral(well(phi.values), phi.grid, p)


def quadratic_energy(f: RealField, g: RealField, p: PhysicalParams) -> float:
    """The bilinear form beta/2 int(grad f . grad g) + lam/2 int(f g) of the
    energy's quadratic part: with f = g, that part itself; with f != g, the
    cross term from which the part of any combination of f and g follows."""
    quad = 0.5 * p.beta * grad_inner(f, g)
    return quad + 0.5 * p.lam * inner(f, g) if p.lam != 0.0 else quad


def energy_from_parts(quad: float, potential: float, p: PhysicalParams) -> float:
    """E = quad + int H + c0; raises NonPositiveEnergy when E <= 0 (c0 too small)."""
    e = quad + potential + p.c0
    if not e > 0:
        raise NonPositiveEnergy(f"total energy {e} is not positive; increase c0")
    return e


def energy_total(phi: RealField, p: PhysicalParams) -> float:
    """Shifted total free energy E[phi]; raises NonPositiveEnergy when E <= 0."""
    return energy_from_parts(quadratic_energy(phi, phi, p), potential_integral(phi, p), p)


def dissipation(mu: RealField, p: PhysicalParams) -> float:
    """Energy dissipation rate m0 int |grad mu|^2, always >= 0."""
    return p.m0 * grad_sq_integral(mu)


def chemical_potential_exact(phi: RealField, p: PhysicalParams) -> RealField:
    """Continuous-form chemical potential -beta lap phi + lam phi + a (phi^3 - phi).

    Used to initialize mu from a field; formed as its coefficients
    (beta |k|^2 + lam) phi_hat + h_hat.
    """
    grid = phi.grid
    return RealField(grid, coeffs=(p.beta * grid.k2 + p.lam) * phi.coeffs + potential_h(phi, p).coeffs)
