"""Problem library: manufactured convergence case and drop-array benchmark."""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ValidationError
from .grid import GridSpec, RealField
from .model import PhysicalParams

DROP_SIGMA = 151.15  # surface tension of both drop presets


@dataclass(frozen=True)
class DropLayout:
    """Square lattice of circular drops: counts, center spacing and radius.

    Centers sit at x_i = offset_x + spacing * i for i = 1..count_x (same in y)
    with the offsets chosen so the lattice is centered in the domain; for the
    reference 19x19 / spacing 0.2 configuration on [0,4]^2 the offset is 0.
    """

    count_x: int
    count_y: int
    spacing: float
    radius: float

    def __post_init__(self) -> None:
        for name in ("count_x", "count_y", "spacing", "radius"):
            value = getattr(self, name)
            if not value > 0:
                raise ValidationError(name, f"must be positive, got {value}")
            if not value < math.inf:
                raise ValidationError(name, f"must be finite, got {value}")

    def centers(self, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
        off_x = 0.5 * (grid.lx - (self.count_x + 1) * self.spacing)
        off_y = 0.5 * (grid.ly - (self.count_y + 1) * self.spacing)
        xs = off_x + self.spacing * np.arange(1, self.count_x + 1)
        ys = off_y + self.spacing * np.arange(1, self.count_y + 1)
        return xs, ys


@dataclass(frozen=True)
class ProblemSpec:
    """A fully specified simulation problem: grid, physics and time window, and
    ``drops`` for the drop-array benchmark; without them, the manufactured case."""

    grid: GridSpec
    params: PhysicalParams
    t0: float
    tf: float
    dt: float
    drops: DropLayout | None = None

    def __post_init__(self) -> None:
        if not -math.inf < self.t0 < self.tf < math.inf:
            raise ValidationError("tf", f"need finite t0 < tf, got [{self.t0}, {self.tf}]")
        if not self.dt > 0:
            raise ValidationError("dt", f"must be positive, got {self.dt}")
        if not self.dt < math.inf:
            raise ValidationError("dt", f"must be finite, got {self.dt}")
        if self.drops is None:
            if self.grid.lx != 2.0 or self.grid.ly != 2.0:
                raise ValidationError("grid", "the manufactured problem is posed on [0,2]x[0,2]")
            for name, n in (("nx", self.grid.nx), ("ny", self.grid.ny)):
                if n < 8:  # the source's cubic term reaches mode 3
                    raise ValidationError(name, f"the manufactured source needs >= 8 points, got {n}")
        else:  # the centered lattice spans (count - 1) * spacing: it must stay inside [0, length)
            for name, length in (("count_x", self.grid.lx), ("count_y", self.grid.ly)):
                if (getattr(self.drops, name) - 1) * self.drops.spacing >= length:
                    raise ValidationError(name, f"the drop lattice is wider than the domain length {length}")

    @property
    def n_steps(self) -> int:
        """Steps of size ``dt`` from ``t0`` to ``tf``; a ValidationError on ``dt``
        unless that is a whole number up to round-off, as a run must end at tf."""
        n = round((self.tf - self.t0) / self.dt)
        if n < 1 or abs((self.tf - self.t0) / self.dt - n) > 1e-9 * n:
            raise ValidationError("dt", f"{self.dt} does not divide [{self.t0}, {self.tf}] into whole steps")
        return n

    @property
    def has_exact(self) -> bool:
        return self.drops is None

    def initial_condition(self) -> RealField:
        if self.drops is None:
            return exact_solution(self.t0, self.grid)
        return ic_drop_array(self)

    def source(self) -> Callable[[float], RealField] | None:
        """The manufactured source as a function of time, its spectra built once; None for drops."""
        if self.drops is not None:
            return None
        return partial(source_term, grid=self.grid, spectra=source_spectra(self.grid, self.params))


def exact_solution(t: float, grid: GridSpec) -> RealField:
    """Manufactured solution cos(pi x) cos(pi y) sin(t)."""
    X, Y = grid.mesh
    return RealField(grid, np.cos(np.pi * X) * np.cos(np.pi * Y) * math.sin(t))


def source_spectra(grid: GridSpec, p: PhysicalParams) -> np.ndarray:
    """The table [psi_hat, -m0 A_hat, -m0 B_hat], each row a half-spectrum
    flattened, of shape (3, nx (ny//2 + 1)), of the manufactured source:
    coefficients of psi = cos(pi x) cos(pi y), and of A = lap(-beta lap psi +
    lam psi - a psi) and B = a lap(psi^3) scaled by -m0.

    Set from the closed form on [0,2]^2, where cos(m pi x) is mode m and
    cos^3 = (3 cos + cos 3) / 4, so no mode carries transform round-off.
    """

    def separable(amps: dict[int, float]) -> np.ndarray:  # of g(x) g(y), g(s) = sum_m 2 amps[m] cos(m pi s)
        cx, cy = np.zeros(grid.nx), np.zeros(grid.ny // 2 + 1)
        for m, amp in amps.items():
            cx[m] = cx[-m] = cy[m] = amp
        return np.outer(cx, cy)

    psi_hat, k2 = separable({1: 0.5}), grid.k2
    a_hat = -k2 * (p.beta * k2 + p.lam - p.well_amp) * psi_hat
    b_hat = -p.well_amp * k2 * separable({1: 0.375, 3: 0.125})
    return np.stack((psi_hat, -p.m0 * a_hat, -p.m0 * b_hat)).reshape(3, -1)


def source_term(t: float, grid: GridSpec, spectra: np.ndarray) -> RealField:
    """Source f = phi_t - m0 lap(mu(phi)) making the manufactured field a solution.

    With phi = sin t psi this is f = cos t psi - m0 (sin t A + sin^3 t B), formed
    as coefficients by one product with ``spectra = source_spectra(grid, p)``,
    with no transform.  The cubic term is band-limited at mode 3, so the result
    is exact (no aliasing) on any grid with nx, ny >= 8, which ProblemSpec
    requires of a manufactured problem.  ProblemSpec.source binds grid and spectra.
    """
    s = math.sin(t)
    return RealField(grid, coeffs=((math.cos(t), s, s**3) @ spectra).reshape(grid.nx, -1))


def ic_drop_array(spec: ProblemSpec) -> RealField:
    """Initial field for a drop lattice: +1 inside drops, -1 in the background.

    phi_0 = -1 + sum_ij (1 - tanh((sqrt((x-x_i)^2 + (y-y_j)^2) - R0) / (sqrt(2) eta))).
    A drop's term is added only within R0 + 20 sqrt(2) eta of its center,
    clipped to the grid (not wrapped): beyond it the tanh rounds to exactly
    1.0 and the term to 0.
    """
    grid, drops = spec.grid, spec.drops
    width = math.sqrt(2.0) * spec.params.eta
    reach = drops.radius + 20.0 * width
    xs, ys = drops.centers(grid)
    phi = np.full(grid.shape, -1.0)
    for xc in xs:
        i0, i1 = np.searchsorted(grid.x, (xc - reach, xc + reach))
        for yc in ys:
            j0, j1 = np.searchsorted(grid.y, (yc - reach, yc + reach))
            r = np.sqrt((grid.x[i0:i1, None] - xc) ** 2 + (grid.y[None, j0:j1] - yc) ** 2)
            phi[i0:i1, j0:j1] += 1.0 - np.tanh((r - drops.radius) / width)
    return RealField(grid, phi)


def manufactured_spec(
    nx: int = 20,
    ny: int = 20,
    dt: float = 0.025,
    m0: float = 0.01,
    beta: float = 0.01,
    eta: float = 0.1,
    lam: float = 0.0,
    c0: float = 1.0,
    t0: float = 0.1,
    tf: float = 1.1,
) -> ProblemSpec:
    """Convergence-test problem on [0,2]^2 with the standard parameter set."""
    grid = GridSpec(nx=nx, ny=ny, lx=2.0, ly=2.0)
    params = PhysicalParams(m0=m0, beta=beta, eta=eta, lam=lam, c0=c0)
    return ProblemSpec(grid=grid, params=params, t0=t0, tf=tf, dt=dt)


def desk_scale_drop_spec(dt: float = 1e-3) -> ProblemSpec:
    """Drop-coalescence benchmark shrunk to run in seconds on a 128^2 grid.

    A 5x5 centered lattice on [0,4]^2 with eta = 0.02; the spacing (0.4) and
    radius (0.17) keep the eta/spacing and radius/spacing ratios of the full
    19x19 configuration, and the physical constants carry over unchanged.
    """
    grid = GridSpec(nx=128, ny=128, lx=4.0, ly=4.0)
    params = PhysicalParams.from_surface_tension(m0=1e-6, sigma=DROP_SIGMA, eta=0.02, c0=1.0)
    drops = DropLayout(count_x=5, count_y=5, spacing=0.4, radius=0.17)
    return ProblemSpec(grid=grid, params=params, t0=0.0, tf=1.0, dt=dt, drops=drops)


def full_scale_drop_spec(dt: float = 1e-3) -> ProblemSpec:
    """Full-size drop benchmark: 361 drops on a 512^2 grid (slow)."""
    grid = GridSpec(nx=512, ny=512, lx=4.0, ly=4.0)
    params = PhysicalParams.from_surface_tension(m0=1e-6, sigma=DROP_SIGMA, eta=0.01, c0=1.0)
    drops = DropLayout(count_x=19, count_y=19, spacing=0.2, radius=0.085)
    return ProblemSpec(grid=grid, params=params, t0=0.0, tf=100.0, dt=dt, drops=drops)


PRESETS = {"desk": desk_scale_drop_spec, "paper": full_scale_drop_spec}  # drop-array presets by name
