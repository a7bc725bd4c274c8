"""Test-only helpers: field constructors and derived quantities that the
tests need and the package itself does not."""

import math
import queue
import threading
from functools import cache

import numpy as np

from cahnpav import GridSpec, InvalidState, RealField
from cahnpav.grid import _serve, grad_sq_integral, integrate


def count_transforms(monkeypatch) -> dict[str, int]:
    """Count the GridSpec.fft and GridSpec.ifft calls made from now on, by name."""
    calls = {"fft": 0, "ifft": 0}
    for name in calls:
        def counted(self, array, _name=name, _original=getattr(GridSpec, name)):
            calls[_name] += 1
            return _original(self, array)

        monkeypatch.setattr(GridSpec, name, counted)
    return calls


@cache
def worker_tasks() -> queue.SimpleQueue:
    """The queue of a worker thread that serves ``grid._rows`` whatever the host's
    CPU count (on one CPU the package runs every half inline); set it as
    ``cahnpav.grid._tasks``.  One daemon thread for the whole test session."""
    tasks = queue.SimpleQueue()
    threading.Thread(target=_serve, args=(tasks,), name="test-rows", daemon=True).start()
    return tasks


def constant(grid: GridSpec, value: float) -> RealField:
    return RealField(grid, np.full(grid.shape, float(value)))


def from_function(grid: GridSpec, fn) -> RealField:
    """Sample ``fn(X, Y)`` on the collocation points."""
    X, Y = grid.mesh
    return RealField(grid, np.asarray(fn(X, Y), dtype=np.float64))


def mean(f: RealField) -> float:
    return float(f.values.mean())


def n_drops(layout) -> int:
    """Number of drops of a DropLayout."""
    return layout.count_x * layout.count_y


def xi_indicator(r: float, energy: float) -> float:
    """Accuracy indicator xi = r / sqrt(energy); 1 for the exact solution."""
    if not energy > 0:
        raise InvalidState(f"energy must be positive, got {energy}")
    return r / np.sqrt(energy)


def exact_time_derivative(t: float, grid: GridSpec) -> RealField:
    """Time derivative cos(pi x) cos(pi y) cos(t) of the manufactured solution."""
    X, Y = grid.mesh
    return RealField(grid, np.cos(np.pi * X) * np.cos(np.pi * Y) * math.cos(t))


def sav_modified_energy(state, p) -> float:
    """SAV modified energy beta/2 ||grad phi||^2 + lam/2 ||phi||^2 + r1^2 - c0."""
    phi = state.cur.phi
    quad = 0.5 * p.lam * integrate(RealField(phi.grid, phi.values**2)) if p.lam != 0.0 else 0.0
    return 0.5 * p.beta * grad_sq_integral(phi) + quad + state.cur.sav_r**2 - p.c0
