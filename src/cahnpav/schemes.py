"""Energy-stable time steppers for the Cahn-Hilliard equation.

Four schemes evolve an auxiliary scalar R tracking sqrt(E) alongside the
phase field, with the nonlinear term scaled by xi^2 where xi = R / sqrt(E).
They differ in two choices only: the BDF order, and whether the (xi, R)
update runs before the field solve (A) or after it (B).  One IMEX step
serves them and the two baselines, driven by this table (``SCHEMES``, the
one list of schemes: ``STEPPERS`` binds the step to each of its rows):

    kind  order  xi update   xi in the field solve             drain level
    1a    1      A (before)  xi^{n+1}                          t^n
    1b    1      B (after)   R^n / sqrt(E^n)                   t^{n+1}
    2a    2      A (before)  xi^{n+1}                          t^{n+1/2}
    2b    2      B (after)   (2 R^n - R^{n-1}) / sqrt(E[ext])  t^{n+1/2}
    semi  2      none        1 (plain explicit nonlinearity)   -
    sav   2      none        xi^2 = r1^{n+1} / sqrt(e1[ext])   -

A step reads its history through one number, the variable-step BDF2 step
ratio r = dt / dt_prev from the state: 0 on the order-1 rows, order - 1 at a
cold start.  _weights turns it into every history weight: sigma = (1 + 2r) /
(1 + r), g = (1 + r) phi^n - r^2 / (1 + r) phi^{n-1}, and the extrapolation
(1 + L r) x^n - L r x^{n-1} to t^{n+L}: ext at L = 1, mid (the mean of phi^n
and ext) at L = 1/2.  They are exact at r = 1 (fixed steps), and at r = 0 each
is phi^n, so E[ext] = E[mid] = E^n.  The field solve uses xi^2 h(ext); a B
row's xi there is R extrapolated to t^{n+1} over sqrt(E[ext]), at r = 0 R^n /
sqrt(E^n) = xi^n (a B step sets R^n = xi^n sqrt(E^n)).  The xi update is

    xi = R^n / (sqrt(E_num) + dt drain / (2 sqrt(E_den))),   R^{n+1} = xi sqrt(E_num)

with drain = m0 ||grad mu_d||^2 - int(f mu_d), f the source.  A: E_num = E[ext];
B: E_num = E[phi^{n+1}].  The row's drain level L alone sets the rest: f at
t^{n+L}; E_den = E^n at L = 0, E[mid] at L = 1/2 and E^{n+1} at L = 1; mu_d =
mu extrapolated to t^{n+L} for A, L mu^{n+1} + (1 - L) mu^n for B.  The A/B
ordering asymmetry is the defining difference and must not be rearranged.  All
four guarantee 0 < R^{n+1} <= R^n for every step size and conserve the mean of
phi exactly.

The baselines: ``semi`` (BDF2, nonlinear term fully explicit, conditionally
stable) and ``sav`` (BDF2 scalar auxiliary variable on the potential energy
only, stable, but its auxiliary variable may go negative).  SAV's r1 tracks
sqrt(e1), e1[phi] = int H(phi) + c0, and couples linearly to the field
through b = h(ext) / sqrt(e1[ext]); with g_x the g weights applied to x:

    (sigma phi^{n+1} - g_phi) / dt = m0 lap mu^{n+1} + f
    mu^{n+1} = -beta lap phi^{n+1} + lam phi^{n+1} + r1^{n+1} b
    2 (sigma r1^{n+1} - g_r1) = int b (sigma phi^{n+1} - g_phi)

which _sav_r1 solves for r1^{n+1} before the field solve.  Every step does
one constant-coefficient spectral solve.  A state is two time levels; a step
turns the current level into the previous one.  A ``Level`` keeps phi, mu, R,
r1 and, so that no step recomputes them, E, m0 ||grad mu||^2 and the
quadratic part Q = beta/2 ||grad phi||^2 + lam/2 ||phi||^2 of E.

Energies by bilinearity: a step forms one phi cross term B =
quadratic_energy(phi^n, phi^{n-1}), and Q(a phi^n + b phi^{n-1}) = a^2 Q^n +
2ab B + b^2 Q^{n-1} gives the quadratic parts of E[ext] and E[mid]; only
their int H reads values (ext shares w = ext^2 - 1 with h(ext)).  Likewise
m0 ||grad mu_d||^2 comes from the levels' dissipations and one mu cross
term: of mu^n, mu^{n-1} for 2a, of mu^{n+1}, mu^n for 2b.

Transforms: ext and mid are formed as values, g and mu as coefficients, and
Q, the dissipations and the source work are read by Parseval, so every step
makes one forward transform, of xi^2 h(ext) (SAV: of b), and one inverse, of
phi_hat^{n+1}, whose values E[phi^{n+1}] (and the guard) need.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import Diverged, InvalidState, NonPositiveEnergy, ValidationError
from .grid import GridSpec, RealField, grad_inner
from .model import (
    PhysicalParams,
    chemical_potential_exact,
    dissipation,
    energy_from_parts,
    potential_integral,
    quadratic_energy,
    well,
    well_integral,
)

OVERFLOW_GUARD = 1e6
Source = Callable[[float], RealField]  # the source field at a given time


class SchemeKind(str, Enum):
    """Identifiers of the schemes; each has a row in ``SCHEMES``."""

    PAV_1A = "1a"
    PAV_1B = "1b"
    PAV_2A = "2a"
    PAV_2B = "2b"
    SEMI_IMPLICIT = "semi"
    SAV = "sav"

    @property
    def is_pav(self) -> bool:
        return SCHEMES[self].xi is not None


@dataclass(frozen=True)
class Scheme:
    """A row of the table above: BDF order (1 or 2), xi update ("a", "b" or
    None), drain level in steps past t^n (None when there is no xi update) and
    whether h(ext) is scaled by SAV's r1^{n+1} / sqrt(e1[ext])."""

    order: int
    xi: str | None
    drain_level: float | None
    sav: bool = False


SCHEMES = {
    SchemeKind.PAV_1A: Scheme(order=1, xi="a", drain_level=0.0),
    SchemeKind.PAV_1B: Scheme(order=1, xi="b", drain_level=1.0),
    SchemeKind.PAV_2A: Scheme(order=2, xi="a", drain_level=0.5),
    SchemeKind.PAV_2B: Scheme(order=2, xi="b", drain_level=0.5),
    SchemeKind.SEMI_IMPLICIT: Scheme(order=2, xi=None, drain_level=None),
    SchemeKind.SAV: Scheme(order=2, xi=None, drain_level=None, sav=True),
}


@dataclass(frozen=True)
class Level:
    """One time level: phi, mu, E[phi], m0 ||grad mu||^2, the quadratic part
    ``quad`` of E, the PAV auxiliary R and the SAV auxiliary r1."""

    phi: RealField
    mu: RealField
    energy: float
    dissipation: float
    quad: float
    r: float
    sav_r: float

    @classmethod
    def from_field(cls, phi: RealField, p: PhysicalParams) -> Level:
        """The level of phi alone: mu continuous-form, R = sqrt(E[phi]) and
        r1 = sqrt(int H(phi) + c0), or NaN where that root is undefined (only
        the ``sav`` row reads r1, and refuses to start from such a phi; see
        sav_energy).  Raises NonPositiveEnergy when E[phi] <= 0."""
        mu = chemical_potential_exact(phi, p)
        energy, diss, quad, potential = _solved(phi, mu, p)
        e1 = potential + p.c0
        sav_r = math.sqrt(e1) if e1 > 0 else math.nan
        return cls(phi, mu, energy, diss, quad, math.sqrt(energy), sav_r)


@dataclass(frozen=True)
class SchemeState:
    """Two time levels, the step count, the last xi (1 until a PAV step runs;
    recorded, read by no step), the time t0 of step 0 and dt_prev, the step
    from ``prev`` to ``cur``.  ``dt_prev is None`` is a cold start: ``prev`` is
    ``cur``, and order 2 reads it as phi^{-1} = phi^0, R^{-1} = R^0."""

    cur: Level
    prev: Level
    step: int = 0
    xi: float = 1.0
    t0: float = 0.0
    dt_prev: float | None = None

    def time(self, dt: float, ahead: float = 0.0) -> float:
        """t0 + (step + ahead) dt: the time of ``cur``, or ``ahead`` steps past it."""
        return self.t0 + (self.step + ahead) * dt


def sav_energy(potential: float, p: PhysicalParams) -> float:
    """e1 = int H(phi) + c0 from ``potential`` = int H(phi), the square of SAV's r1;
    raises NonPositiveEnergy when it is not positive (only ``sav`` needs it so)."""
    e1 = potential + p.c0
    if not e1 > 0:
        raise NonPositiveEnergy(f"potential energy + c0 = {e1} is not positive; sav needs a larger c0")
    return e1


def init_state(phi0: RealField, p: PhysicalParams, t0: float = 0.0) -> SchemeState:
    """Cold start from phi^0 at time t0: both levels are Level.from_field(phi^0)."""
    level = Level.from_field(phi0, p)
    return SchemeState(cur=level, prev=level, t0=t0)


def _symbols(sigma: float, grid: GridSpec, dt: float, p: PhysicalParams):
    """The solve's operator lin = beta k2 + lam, m0k2 = dt m0 k2 and inv = 1 / (sigma
    + m0k2 lin), kept by the grid as one entry keyed on (sigma, dt, m0, beta, lam):
    a call with the kept key makes no array.  Callers must not write to them.

    Each is its float formula + 0j (see the grid module), written into a row of one
    complex block: on the paper preset, three separate complex arrays made from
    float copies left the peak RSS 5 MB higher."""
    def make():
        lin, m0k2, inv = np.zeros((3, *grid.k2.shape), complex)
        lin.real = p.beta * grid.k2 + p.lam
        m0k2.real = dt * p.m0 * grid.k2
        inv.real = 1.0 / (sigma + m0k2.real * lin.real)
        return lin, m0k2, inv
    return grid.kept((sigma, dt, p.m0, p.beta, p.lam), make)


def solve_linear_step(
    sigma: float, grid: GridSpec, g_hat: np.ndarray, s_hat: np.ndarray, dt: float, p: PhysicalParams
) -> tuple[RealField, RealField]:
    """Solve the constant-coefficient implicit system for one time step.

    Finds (phi, mu) satisfying, per Fourier mode,

        (sigma/dt) phi = m0 lap(-beta lap phi + lam phi + s) + g/dt
        mu = -beta lap phi + lam phi + s

    i.e.  phi_hat = (g_hat - dt m0 |k|^2 s_hat) / (sigma + dt m0 |k|^2 (beta |k|^2 + lam)),
    from the half-spectra g_hat and s_hat on ``grid`` (neither is written).  The
    denominator is >= sigma > 0, so the solve is total.  phi_hat is multiplied by
    its reciprocal, bit-identical to numpy's division; the grid keeps it with
    beta |k|^2 + lam and dt m0 |k|^2 as one entry (see _symbols).
    """
    lin, m0k2, inv = _symbols(sigma, grid, dt, p)
    phi_hat = m0k2 * s_hat
    np.subtract(g_hat, phi_hat, out=phi_hat)
    phi_hat *= inv
    mu_hat = lin * phi_hat
    mu_hat += s_hat
    return RealField(grid, coeffs=phi_hat), RealField(grid, coeffs=mu_hat)


def _xi_update(r_n: float, e_num: float, e_den: float, drain: float, dt: float) -> float:
    """Closed-form xi = r / (sqrt(e_num) + dt drain / (2 sqrt(e_den))): 0 < xi <= r /
    sqrt(e_num) when r > 0 and drain >= 0 (drain < 0 only in manufactured runs)."""
    if not e_num > 0 or not e_den > 0:
        raise InvalidState(f"energy must be positive in xi update, got {e_num}, {e_den}")
    denom = math.sqrt(e_num) + dt * drain / (2.0 * math.sqrt(e_den))
    if not denom > 0:
        raise InvalidState(f"xi update denominator {denom} is not positive")
    return r_n / denom


Coef = tuple[float, float]  # (a, b) of a combination a x + b y of two levels' fields


def _weights(r: float, level: float = 1.0) -> tuple[float, Coef, Coef]:
    """sigma, g's weights and those of the linear extrapolation to t^{n+level}
    at step ratio r (see the module docstring); exact at r = 0 and r = 1."""
    return (1.0 + 2.0 * r) / (1.0 + r), (1.0 + r, -r * r / (1.0 + r)), (1.0 + level * r, -level * r)


def _combine(coef: Coef, x, y):
    """a x + b y, (a, b) = coef, of two arrays (a new one) or floats; x itself when b is 0 (a is then 1)."""
    a, b = coef
    if not b:
        return x
    out = a * x
    out += b * y
    return out


def _bilinear(coef: Coef, q_x: float, cross: float, q_y: float) -> float:
    """Q(a x + b y) = a^2 Q(x) + 2 a b B(x, y) + b^2 Q(y), (a, b) = coef, of a
    quadratic form Q with bilinear form B, from Q(x), B(x, y) and Q(y)."""
    a, b = coef
    return a * a * q_x + 2.0 * a * b * cross + b * b * q_y


def _energy(coef: Coef, state: SchemeState, cross: float, w: np.ndarray, p: PhysicalParams) -> float:
    """E[a phi^n + b phi^{n-1}], (a, b) = coef, from the levels' quad, their
    ``cross`` = quadratic_energy(phi^n, phi^{n-1}) and w = well() of its
    values.  Raises NonPositiveEnergy when E <= 0."""
    cur = state.cur
    quad = _bilinear(coef, cur.quad, cross, state.prev.quad)
    return energy_from_parts(quad, well_integral(w, cur.phi.grid, p), p)


def _drain(coef: Coef, mu: RealField, diss: float, y: Level, f_src: RealField | None, p: PhysicalParams) -> float:
    """m0 ||grad mu_d||^2 - int(f mu_d) of mu_d = a mu + b y.mu, (a, b) = coef,
    by bilinearity from mu's dissipation ``diss``, y's and one cross term.  The
    two Parseval sums of f share f's weighted coefficients: the same bits as
    ``inner`` where the weights are powers of two, as on the source's [0,2]^2."""
    a, b = coef
    drain = _bilinear(coef, diss, p.m0 * grad_inner(mu, y.mu) if b else 0.0, y.dissipation)
    if f_src is not None:
        wf = mu.grid.parseval * f_src.coeffs
        drain -= a * float(np.vdot(wf, mu.coeffs).real) + (b * float(np.vdot(wf, y.mu.coeffs).real) if b else 0.0)
    return drain


def _solved(phi: RealField, mu: RealField, p: PhysicalParams) -> tuple[float, float, float, float]:
    """(E, m0 ||grad mu||^2, quad, int H) of a level's phi and mu: the scalars a Level
    keeps, assembled here only, and int H for r1.  NonPositiveEnergy when E <= 0."""
    quad, potential = quadratic_energy(phi, phi, p), potential_integral(phi, p)
    return energy_from_parts(quad, potential, p), dissipation(mu, p), quad, potential


def _guard(phi: RealField, step: int) -> None:
    """Diverged unless all values lie in [-OVERFLOW_GUARD, OVERFLOW_GUARD]; NaN fails both tests."""
    values = phi.values
    if not (-OVERFLOW_GUARD <= values.min() and values.max() <= OVERFLOW_GUARD):
        raise Diverged(f"field blew up at step {step}")


def _sav_r1(r: float, g_hat: np.ndarray, b_hat: np.ndarray, state: SchemeState, dt: float, p: PhysicalParams) -> float:
    """r1^{n+1} of the SAV step at step ratio r, from b's coefficients b_hat.  The
    system is linear in it: phi^{n+1} = phi_1 + r1^{n+1} phi_2, phi_1 solved without
    b and phi_2 with b alone, so int(b phi_1) and int(b phi_2) are Parseval sums."""
    cur, prev, grid = state.cur, state.prev, state.cur.phi.grid
    sigma, (a, b), _ = _weights(r)
    _, m0k2, inv = _symbols(sigma, grid, dt, p)
    wb = grid.parseval * b_hat  # int(b f) = Re vdot(wb, f_hat)
    ib_n, ib_p = np.vdot(wb, cur.phi.coeffs).real, np.vdot(wb, prev.phi.coeffs).real
    wb *= inv  # phi_1 has spectrum g_hat inv, phi_2 -m0k2 b_hat inv
    ib_1, ib_2 = np.vdot(wb, g_hat).real, -np.vdot(wb, m0k2 * b_hat).real  # ib_2 <= 0: divisor >= 2 sigma
    num = 2.0 * a * cur.sav_r + 2.0 * b * prev.sav_r + sigma * ib_1 - a * ib_n - b * ib_p
    return num / (2.0 * sigma - sigma * ib_2)


def _imex_step(
    scheme: Scheme, state: SchemeState, dt: float, p: PhysicalParams,
    source: Source | None = None, *, dealias: bool = False,
) -> SchemeState:
    """Advance one step of a table scheme (see the module docstring).  ``source``
    maps a time to the source field; g reads it at t^{n+1} and the xi update at
    the drain level.  A dt that is not positive and finite is a ValidationError.
    The ``semi`` and ``sav`` rows raise Diverged when the new field is
    non-finite or exceeds the overflow guard; ``sav`` raises NonPositiveEnergy
    when e1[ext] <= 0, at a cold start e1[phi^0]."""
    if not 0.0 < dt < math.inf:
        raise ValidationError("dt", f"must be positive and finite, got {dt}")
    level = scheme.drain_level  # L: the time of mu_d, E_den and f in the drain
    f_src = f_drain = None if source is None else source(state.time(dt, 1.0))
    if source is not None and level not in (None, 1.0):
        f_drain = source(state.time(dt, level))
    r = (scheme.order - 1) * dt / (state.dt_prev or dt)  # the step ratio; order - 1 at a cold start
    cur, prev, grid = state.cur, state.prev, state.cur.phi.grid
    sigma, g_coef, ext_coef = _weights(r)
    g_hat = _combine(g_coef, cur.phi.coeffs, prev.phi.coeffs)
    if f_src is not None:  # in place, unless g_hat is phi^n's own coefficients
        f_step = dt * f_src.coeffs
        g_hat = g_hat + f_step if g_hat is cur.phi.coeffs else np.add(g_hat, f_step, out=g_hat)
    ext = _combine(ext_coef, cur.phi.values, prev.phi.values)
    w = well(ext)
    e_ext = e_mid = cur.energy  # r = 0: ext = mid = phi^n
    if scheme.xi is not None and r:
        cross = quadratic_energy(cur.phi, prev.phi, p)
        e_ext = _energy(ext_coef, state, cross, w, p)
        w_mid = ext + cur.phi.values  # becomes well() of the midpoint, in place
        w_mid *= 0.5
        w_mid *= w_mid
        w_mid -= 1.0
        e_mid = _energy(_weights(r, 0.5)[2], state, cross, w_mid, p)
        del w_mid
    e_den = cur.energy if level == 0.0 else e_mid  # E at L, until L = 1 reads E^{n+1}
    xi, r_new, r1 = None, cur.r, cur.sav_r  # the xi scaling h(ext) in the field solve; semi and sav keep R
    scale = p.well_amp  # of h(ext) / a when xi is None, over sqrt(e1[ext]) for sav's b
    if scheme.sav:
        scale /= math.sqrt(sav_energy(well_integral(w, grid, p), p))
    elif scheme.xi == "a":  # mu_d: mu extrapolated to t^{n+L}
        drain = _drain(_weights(r, level)[2], cur.mu, cur.dissipation, prev, f_drain, p)
        xi = _xi_update(cur.r, e_ext, e_den, drain, dt)
        r_new = xi * math.sqrt(e_ext)
    elif scheme.xi == "b":  # R extrapolated to t^{n+1}: xi^n at r = 0
        xi = _combine(ext_coef, cur.r, prev.r) / math.sqrt(e_ext)

    w *= ext  # now h(ext) / a
    w *= scale if xi is None else xi * xi * p.well_amp
    s_hat = grid.fft(w)
    del ext, w  # not read again: freed before the solve, and g_hat, s_hat after it, for a lower peak
    if dealias:
        s_hat *= grid.dealias_mask
    if scheme.sav:
        r1 = _sav_r1(r, g_hat, s_hat, state, dt, p)
        s_hat *= r1
    phi_new, mu_new = solve_linear_step(sigma, grid, g_hat, s_hat, dt, p)
    del g_hat, s_hat
    if scheme.xi is None:
        _guard(phi_new, state.step + 1)
    energy, diss, quad, _ = _solved(phi_new, mu_new, p)
    if scheme.xi == "b":  # mu_d = L mu^{n+1} + (1 - L) mu^n
        drain = _drain((level, 1.0 - level), mu_new, diss, cur, f_drain, p)
        xi = _xi_update(cur.r, energy, energy if level == 1.0 else e_den, drain, dt)
        r_new = xi * math.sqrt(energy)
    new = Level(phi_new, mu_new, energy, diss, quad, r_new, r1)
    return SchemeState(new, cur, state.step + 1, state.xi if xi is None else xi, state.t0, dt)


STEPPERS = {kind: partial(_imex_step, row) for kind, row in SCHEMES.items()}
