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

Energies by bilinearity: a step reads one phi cross term B =
quadratic_energy(phi^n, phi^{n-1}), and Q(a phi^n + b phi^{n-1}) = a^2 Q^n +
2ab B + b^2 Q^{n-1} gives the quadratic parts of E[ext] and E[mid]; only
their int H reads values (ext shares w = ext^2 - 1 with h(ext)).  Likewise
m0 ||grad mu_d||^2 comes from the levels' dissipations and one mu cross
term: of mu^n, mu^{n-1} for 2a, of mu^{n+1}, mu^n for 2b.  An order-2 PAV
step forms both cross terms of its new level with phi^n and mu^n (2b's mu
term is its drain's) and carries them to the next step on the state it
returns (SchemeState._cross), so that step forms neither.  The step after a
cold start or a dataclasses.replace finds none and forms them itself, with
the same arguments in the same order, so the bits are the same either way.

Transforms: ext and mid are formed as values, g and mu as coefficients, and
Q, the dissipations and the source work are read by Parseval, so every step
makes one forward transform, of xi^2 h(ext) (SAV: of b), and one inverse, of
phi_hat^{n+1}, whose values E[phi^{n+1}] (and the guard) need.

Two array forms: a step's array work is three stretches, each run in one of
two forms, chosen by the grid's size:

    1. ext, w = ext^2 - 1 and its sum, the midpoint's well and its sum, and the
       phi and mu cross terms unless the state carries them (with an A row's
       source work);
    2. h = w ext scaled by xi^2 a (semi a; sav a / sqrt(e1[ext])), once xi is
       known, g = (1 + r) phi_hat^n - r^2 / (1 + r) phi_hat^{n-1} (+ dt f), the
       forward transform and the solve (sav's r1 sums and scaling first);
    3. Q and m0 ||grad mu||^2 of the new level, a B row's drain sums, an
       order-2 PAV row's cross terms of the new level with phi^n and mu^n for
       the next step, and the new level's well sum, after the semi and sav guard.

Up to 128^2 points (grid._SPLIT_OVER) a stretch is whole-array numpy, whose
per-call cost is low enough for a 20^2 grid.  Above, it is kernels that
grid._rows runs over two row halves, one of them on a worker thread (grid's
module docstring): the worker forms g while the calling thread makes the
forward transform, and the new level's sums, the carried cross terms among
them, while it makes the inverse.
Either form hands plain floats to the one copy of the scalar steps (the
energies, the xi update, a B row's drain and the new level), and on a grid of
at most 128^2 points both give the same bits.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from functools import partial

import numpy as np

from .errors import Diverged, InvalidState, NonPositiveEnergy, ValidationError
from .grid import _SPLIT_OVER, GridSpec, RealField, _dot, _rows, grad_inner
from .model import (
    PhysicalParams,
    _quadratic_part,
    chemical_potential_exact,
    dissipation,
    energy_from_parts,
    potential_integral,
    quadratic_energy,
    well,
    well_integral,
)

OVERFLOW_GUARD = 1e6
Source = Callable[[float], np.ndarray]  # the source's half-spectrum at a given time


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
    ``cur``, and order 2 reads it as phi^{-1} = phi^0, R^{-1} = R^0.

    The clock: ``time()`` is the time of ``cur``; a step forms later times from its
    own dt, first moving t0 so that ``cur`` keeps its time (fixed steps never do).

    ``_cross`` is (quadratic_energy(cur.phi, prev.phi), grad_inner(cur.mu, prev.mu)):
    the cross terms that an order-2 PAV step forms for the next step, with the
    params it was given, as the levels' scalars are.  It is None on any other
    state, whose next step forms the cross terms itself.  Nothing else sets it,
    so it cannot be paired with another level: the constructor does not take it,
    and ``dataclasses.replace`` (a new ``prev``, say) drops it."""

    cur: Level
    prev: Level
    step: int = 0
    xi: float = 1.0
    t0: float = 0.0
    dt_prev: float | None = None
    _cross: tuple[float, float] | None = field(default=None, init=False, repr=False, compare=False)

    def time(self) -> float:
        """The time of ``cur``: t0 + step dt_prev, formed afresh, or t0 at a cold start."""
        return self.t0 if self.dt_prev is None else self.t0 + self.step * self.dt_prev


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
    beta |k|^2 + lam and dt m0 |k|^2 as one entry (see _symbols).  On a grid of
    more than grid._SPLIT_OVER points the solve runs by rows (stretch 2 of the step).
    """
    lin, m0k2, inv = _symbols(sigma, grid, dt, p)
    if grid.nx * grid.ny > _SPLIT_OVER:
        phi_hat, mu_hat = np.empty(lin.shape, complex), np.empty(lin.shape, complex)
        _rows(grid, _solve_rows, lin, m0k2, inv, g_hat, s_hat, phi_hat, mu_hat)
    else:  # _solve_rows as one numpy expression each, which costs fewer calls on a small grid
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
Sums = dict[str, float]  # named sums of a kernel (see grid._rows)
Dots = dict[str, tuple[np.ndarray, np.ndarray, str]]  # name: (a, b, weight) of the sum _dot(a, b, grid, weight)


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


def _quad_dots(name: str, x_hat: np.ndarray, y_hat: np.ndarray, p: PhysicalParams) -> Dots:
    """The sums _quad reads under ``name``: of quadratic_energy(x, y) from their half-spectra."""
    dots = {name: (x_hat, y_hat, "grad_weight")}
    if p.lam != 0.0:
        dots[name + "_l2"] = (x_hat, y_hat, "parseval")
    return dots


def _quad(sums: Sums, name: str, p: PhysicalParams) -> float:
    return _quadratic_part(sums[name], sums.get(name + "_l2", 0.0), p)


def _energy(coef: Coef, state: SchemeState, cross: float, ww: float, p: PhysicalParams) -> float:
    """E[a phi^n + b phi^{n-1}], (a, b) = coef, from the levels' quad, their
    ``cross`` = quadratic_energy(phi^n, phi^{n-1}) and ww, the sum of w^2 of w =
    well() of its values.  Raises NonPositiveEnergy when E <= 0."""
    cur = state.cur
    quad = _bilinear(coef, cur.quad, cross, state.prev.quad)
    return energy_from_parts(quad, well_integral(ww, cur.phi.grid, p), p)


def _drain(
    coef: Coef, mu: RealField, diss: float, y: Level, f_hat: np.ndarray | None, p: PhysicalParams, mu_cross: float | None,
) -> float:
    """m0 ||grad mu_d||^2 - int(f mu_d) of mu_d = a mu + b y.mu, (a, b) = coef,
    by bilinearity from mu's dissipation ``diss``, y's and the cross term
    ``mu_cross`` = grad_inner(mu, y.mu), formed here when it is None.  The
    two Parseval sums of f, of half-spectrum f_hat, share its weighted form: the
    same bits as ``inner`` where the weights are powers of two, as on [0,2]^2, and
    the half-spectrum has at most 10,000 entries (above, the sums run in another order)."""
    a, b = coef
    if b and mu_cross is None:
        mu_cross = grad_inner(mu, y.mu)
    drain = _bilinear(coef, diss, p.m0 * mu_cross if b else 0.0, y.dissipation)
    if f_hat is not None:
        wf = mu.grid.parseval * f_hat
        drain -= a * _dot(wf, mu.coeffs) + (b * _dot(wf, y.mu.coeffs) if b else 0.0)
    return drain


def _drain_dots(coef: Coef, x_hat: np.ndarray, y_hat: np.ndarray, f_hat: np.ndarray | None, grid: GridSpec) -> Dots:
    """The sums of _drain for mu_d = a x + b y, (a, b) = coef, from the half-spectra
    of x, y and the source f, for _split_drain."""
    b = coef[1]
    dots = {"mu": (x_hat, y_hat, "grad_weight")} if b else {}
    if f_hat is not None:
        wf = grid.parseval * f_hat
        dots["f_x"] = (wf, x_hat, "")
        if b:
            dots["f_y"] = (wf, y_hat, "")
    return dots


def _split_drain(coef: Coef, x_diss: float, y_diss: float, sums: Sums, p: PhysicalParams) -> float:
    """_drain from the dissipations of x and y and the sums of _drain_dots."""
    a, b = coef
    drain = _bilinear(coef, x_diss, p.m0 * sums["mu"] if b else 0.0, y_diss)
    if "f_x" in sums:
        drain -= a * sums["f_x"] + (b * sums["f_y"] if b else 0.0)
    return drain


def _solved(phi: RealField, mu: RealField, p: PhysicalParams) -> tuple[float, float, float, float]:
    """(E, m0 ||grad mu||^2, quad, int H) of a level's phi and mu: the scalars a Level
    keeps, and int H for r1.  NonPositiveEnergy when E <= 0."""
    quad, potential = quadratic_energy(phi, phi, p), potential_integral(phi, p)
    return energy_from_parts(quad, potential, p), dissipation(mu, p), quad, potential


def _guard(values: np.ndarray, step: int) -> None:
    """Diverged unless all values lie in [-OVERFLOW_GUARD, OVERFLOW_GUARD]; NaN fails both tests."""
    if not (-OVERFLOW_GUARD <= values.min() and values.max() <= OVERFLOW_GUARD):
        raise Diverged(f"field blew up at step {step}")


# The kernels of the step's row form, run by grid._rows: each is given the
# rows ``rows`` of the arrays its caller allocated (all of them when rows is
# ...) and writes only into those.


def _sums(rows, grid: GridSpec, dots: Dots) -> Sums:
    """Each sum of ``dots``: stretch 3's sums of the new level."""
    return {name: _dot(a[rows], b[rows], grid, weight, rows) for name, (a, b, weight) in dots.items()}


def _ext_rows(rows, coef: Coef, x, y, ext, w, w_mid, sum_w: bool, grid: GridSpec, dots: Dots) -> Sums:
    """Stretch 1: ext = a x + b y, (a, b) = coef (ext is x when b = 0); w =
    well(ext); given w_mid, the well of the midpoint (ext + x) / 2 there.  The
    sums: of ``dots``, "w" of w^2 when ``sum_w`` and "mid" of w_mid^2."""
    if coef[1]:
        np.multiply(coef[0], x, out=ext)
        np.multiply(coef[1], y, out=w)  # w holds b y until it is formed
        ext += w
    np.multiply(ext, ext, out=w)
    w -= 1.0
    sums = _sums(rows, grid, dots)
    if sum_w:
        sums["w"] = _dot(w, w, rows=rows)
    if w_mid is not None:
        np.add(ext, x, out=w_mid)
        w_mid *= 0.5
        np.multiply(w_mid, w_mid, out=w_mid)
        w_mid -= 1.0
        sums["mid"] = _dot(w_mid, w_mid, rows=rows)
    return sums


def _h_rows(rows, w, ext, factor: float) -> Sums:
    """Stretch 2: w = well(ext) becomes factor ext w, the scaled h(ext)."""
    w *= ext
    w *= factor
    return {}


def _g_rows(rows, coef: Coef, x, y, f, dt: float, g, tmp) -> Sums:
    """Stretch 2: g = a x + b y + dt f, (a, b) = coef, f None for no source;
    ``tmp`` is scratch, None when b = 0."""
    a, b = coef
    if not b:  # a source alone
        np.multiply(dt, f, out=g)
        g += x
        return {}
    np.multiply(a, x, out=g)
    np.multiply(b, y, out=tmp)
    g += tmp
    if f is not None:
        np.multiply(dt, f, out=tmp)
        g += tmp
    return {}


def _solve_rows(rows, lin, m0k2, inv, g, s, phi, mu) -> Sums:
    """Stretch 2, solve_linear_step: phi = (g - m0k2 s) inv and mu = lin phi + s."""
    np.multiply(m0k2, s, out=phi)
    np.subtract(g, phi, out=phi)
    phi *= inv
    np.multiply(lin, phi, out=mu)
    mu += s
    return {}


def _sav_rows(rows, parseval, b_hat, inv, wb, x_n, x_p, g) -> Sums:
    """_sav_r1's sums of wb = parseval b_hat, and then of inv wb."""
    np.multiply(parseval, b_hat, out=wb)
    sums = {"n": _dot(wb, x_n, rows=rows), "p": _dot(wb, x_p, rows=rows)}
    wb *= inv
    sums["1"] = _dot(wb, g, rows=rows)
    return sums


def _sav_phi2_rows(rows, m0k2, b_hat, wb, tmp) -> Sums:
    """_sav_r1's sum of wb and tmp = m0k2 b_hat."""
    np.multiply(m0k2, b_hat, out=tmp)
    return {"2": _dot(wb, tmp, rows=rows)}


def _scale_rows(rows, a, factor: float) -> Sums:
    a *= factor
    return {}


def _well_rows(rows, v, w, guard_step: int | None) -> Sums:
    """Stretch 3: w = well(v) and the sum "w" of w^2, after the overflow guard of
    v at ``guard_step`` unless that is None."""
    if guard_step is not None:
        _guard(v, guard_step)
    np.multiply(v, v, out=w)
    w -= 1.0
    return {"w": _dot(w, w, rows=rows)}


def _sav_r1(r: float, g_hat: np.ndarray, b_hat: np.ndarray, state: SchemeState, dt: float, p: PhysicalParams) -> float:
    """r1^{n+1} of the SAV step at step ratio r, from b's coefficients b_hat.  The
    system is linear in it: phi^{n+1} = phi_1 + r1^{n+1} phi_2, phi_1 solved without
    b and phi_2 with b alone, so int(b phi_1) and int(b phi_2) are Parseval sums:
    int(b f) is the sum of (parseval b_hat) f_hat, phi_1 has spectrum g_hat inv and
    phi_2 -m0k2 b_hat inv."""
    cur, prev, grid = state.cur, state.prev, state.cur.phi.grid
    sigma, (a, b), _ = _weights(r)
    _, m0k2, inv = _symbols(sigma, grid, dt, p)
    wb = np.empty(b_hat.shape, complex)
    ib = _rows(grid, _sav_rows, grid.parseval, b_hat, inv, wb, cur.phi.coeffs, prev.phi.coeffs, g_hat)
    # the broadcast parseval costs numpy an iteration buffer: m0k2 b_hat is formed after it
    ib_2 = -_rows(grid, _sav_phi2_rows, m0k2, b_hat, wb, np.empty(b_hat.shape, complex))["2"]  # <= 0: divisor >= 2 sigma
    num = 2.0 * a * cur.sav_r + 2.0 * b * prev.sav_r + sigma * ib["1"] - a * ib["n"] - b * ib["p"]
    return num / (2.0 * sigma - sigma * ib_2)


def _imex_step(
    scheme: Scheme, state: SchemeState, dt: float, p: PhysicalParams,
    source: Source | None = None,
) -> SchemeState:
    """Advance one step of a table scheme (see the module docstring).  ``source``
    maps a time to the source's half-spectrum; g reads it at t^{n+1} and the xi
    update at the drain level, times the step forms from its own dt.  A dt that
    is not positive and finite is a ValidationError.  The ``semi`` and ``sav``
    rows raise Diverged when the new field is non-finite or exceeds the overflow
    guard; ``sav`` raises NonPositiveEnergy when e1[ext] <= 0, at a cold start
    e1[phi^0].  Each of the three array stretches runs in the form the grid's
    size picks (the module docstring's "Two array forms") and hands its floats
    to the one copy of the scalar steps."""
    if not 0.0 < dt < math.inf:
        raise ValidationError("dt", f"must be positive and finite, got {dt}")
    t0 = state.t0 if state.dt_prev in (None, dt) else state.time() - state.step * dt  # cur keeps its time
    level = scheme.drain_level  # L: the time of mu_d, E_den and f in the drain
    f_src = f_drain = None if source is None else source(t0 + (state.step + 1) * dt)
    if source is not None and level not in (None, 1.0):
        f_drain = source(t0 + (state.step + level) * dt)
    r = (scheme.order - 1) * dt / (state.dt_prev or dt)  # the step ratio; order - 1 at a cold start
    cur, prev, grid = state.cur, state.prev, state.cur.phi.grid
    sigma, g_coef, ext_coef = _weights(r)
    energies = scheme.xi is not None and r  # E[ext] and E[mid]; r = 0: ext = mid = phi^n
    # mu_d: mu extrapolated to t^{n+L} (A rows), L mu^{n+1} + (1 - L) mu^n (B rows)
    mu_coef = _weights(r, level)[2] if scheme.xi == "a" else (level, 1.0 - level) if scheme.xi else None
    split = grid.nx * grid.ny > _SPLIT_OVER
    carried = state._cross  # the cross terms of cur with prev that the step which made cur formed

    if split:  # stretch 1: ext, w = well(ext) and the midpoint's well, their sums and the cross terms
        for name in ("grad_weight", "parseval") if p.lam else ("grad_weight",):
            grid._real_weight(name)  # built here, on this thread, before a kernel reads it
        x = cur.phi.values
        ext = np.empty(grid.shape) if ext_coef[1] else x
        w = np.empty(grid.shape)
        dots = _quad_dots("cross", cur.phi.coeffs, prev.phi.coeffs, p) if energies and not carried else {}
        if scheme.xi == "a":
            dots.update(_drain_dots(mu_coef, cur.mu.coeffs, prev.mu.coeffs, f_drain, grid))
            if carried:
                dots.pop("mu", None)
        w_mid = np.empty(grid.shape) if energies else None
        sums = _rows(grid, _ext_rows, ext_coef, x, prev.phi.values, ext, w, w_mid, energies or scheme.sav, grid, dots)
        del w_mid, dots
        ww, ww_mid = sums.get("w"), sums.get("mid")
        if carried:
            cross, sums["mu"] = carried
        elif energies:
            cross = _quad(sums, "cross", p)
        if scheme.xi == "a":
            drain = _split_drain(mu_coef, cur.dissipation, prev.dissipation, sums, p)
    else:  # stretch 1 as whole arrays, g first for a lower peak
        g_hat = _combine(g_coef, cur.phi.coeffs, prev.phi.coeffs)
        if f_src is not None:
            g_hat = g_hat + dt * f_src
        ext = _combine(ext_coef, cur.phi.values, prev.phi.values)
        w = well(ext)
        ww = _dot(w, w) if energies or scheme.sav else None
        if energies:
            cross = carried[0] if carried else quadratic_energy(cur.phi, prev.phi, p)
            w_mid = ext + cur.phi.values  # becomes well() of the midpoint, in place
            w_mid *= 0.5
            w_mid *= w_mid
            w_mid -= 1.0
            ww_mid = _dot(w_mid, w_mid)
            del w_mid
        if scheme.xi == "a":
            drain = _drain(mu_coef, cur.mu, cur.dissipation, prev, f_drain, p, carried and carried[1])
    e_ext = e_mid = cur.energy
    if energies:
        e_ext = _energy(ext_coef, state, cross, ww, p)
        e_mid = _energy(_weights(r, 0.5)[2], state, cross, ww_mid, p)
    e_den = cur.energy if level == 0.0 else e_mid  # E at L, until L = 1 reads E^{n+1}
    xi, r_new, r1 = None, cur.r, cur.sav_r  # the xi scaling h(ext) in the field solve; semi and sav keep R
    scale = float(p.well_amp)  # of h(ext) / a when xi is None, over sqrt(e1[ext]) for sav's b; a plain float,
    # since numpy scales an array by a float subclass (a derived well_amp) on a slower path
    if scheme.sav:
        scale /= math.sqrt(sav_energy(well_integral(ww, grid, p), p))
    elif scheme.xi == "a":
        xi = _xi_update(cur.r, e_ext, e_den, drain, dt)
        r_new = xi * math.sqrt(e_ext)
    elif scheme.xi == "b":  # R extrapolated to t^{n+1}: xi^n at r = 0
        xi = _combine(ext_coef, cur.r, prev.r) / math.sqrt(e_ext)

    factor = scale if xi is None else xi * xi * p.well_amp
    if split:  # stretch 2: h = factor ext w, then g on the worker while this thread transforms h
        _rows(grid, _h_rows, w, ext, factor)
        del ext
        g_hat, g_done = cur.phi.coeffs, None
        if g_coef[1] or f_src is not None:
            g_hat = np.empty_like(g_hat)
            tmp = np.empty_like(g_hat) if g_coef[1] else None
            g_done = _rows(grid, _g_rows, g_coef, cur.phi.coeffs, prev.phi.coeffs, f_src, dt, g_hat, tmp, wait=False)
            del tmp
    else:  # h as whole arrays
        w *= ext
        w *= factor
        del ext
    s_hat = grid.fft(w)
    del w  # not read again: freed before the solve, and g_hat, s_hat after it, for a lower peak
    if split and g_done is not None:
        g_done()
    if scheme.sav:
        r1 = _sav_r1(r, g_hat, s_hat, state, dt, p)
        _rows(grid, _scale_rows, s_hat, r1)
    phi_new, mu_new = solve_linear_step(sigma, grid, g_hat, s_hat, dt, p)
    del g_hat, s_hat

    guard_step = state.step + 1 if scheme.xi is None else None  # semi and sav: the overflow guard
    carry = None  # an order-2 PAV row's cross terms of the new level with cur, for the next step
    if split:  # stretch 3: the new level's Q, m0 ||grad mu||^2, a B row's drain sums and the carry
        phi_hat, mu_hat = phi_new.coeffs, mu_new.coeffs  # on the worker while this thread transforms phi_hat
        dots = {**_quad_dots("quad", phi_hat, phi_hat, p), "diss": (mu_hat, mu_hat, "grad_weight")}
        if energies:
            dots.update(_quad_dots("cross", phi_hat, cur.phi.coeffs, p), mu=(mu_hat, cur.mu.coeffs, "grad_weight"))
        if scheme.xi == "b":  # its drain's "mu" is the carry's
            dots.update(_drain_dots(mu_coef, mu_hat, cur.mu.coeffs, f_drain, grid))
        level_sums = _rows(grid, _sums, grid, dots, wait=False)
        values = phi_new.values
        sums = level_sums()
        ww = _rows(grid, _well_rows, values, np.empty(grid.shape), guard_step)["w"]
        quad, diss = _quad(sums, "quad", p), p.m0 * sums["diss"]
        energy = energy_from_parts(quad, well_integral(ww, grid, p), p)
        if energies:
            carry = _quad(sums, "cross", p), sums["mu"]
        if scheme.xi == "b":
            drain = _split_drain(mu_coef, diss, cur.dissipation, sums, p)
    else:
        if guard_step is not None:
            _guard(phi_new.values, guard_step)
        energy, diss, quad, _ = _solved(phi_new, mu_new, p)
        if energies:
            carry = quadratic_energy(phi_new, cur.phi, p), grad_inner(mu_new, cur.mu)
        if scheme.xi == "b":
            drain = _drain(mu_coef, mu_new, diss, cur, f_drain, p, carry and carry[1])
    if scheme.xi == "b":
        xi = _xi_update(cur.r, energy, energy if level == 1.0 else e_den, drain, dt)
        r_new = xi * math.sqrt(energy)
    new = Level(phi_new, mu_new, energy, diss, quad, r_new, r1)
    stepped = SchemeState(new, cur, state.step + 1, state.xi if xi is None else xi, t0, dt)
    if carry is not None:
        object.__setattr__(stepped, "_cross", carry)
    return stepped


STEPPERS = {kind: partial(_imex_step, row) for kind, row in SCHEMES.items()}
