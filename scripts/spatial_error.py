"""Measure how well each drop preset resolves its interfaces: run it at its own
n^2 grid and at (2n)^2, and compare.

    PYTHONPATH=src python3 scripts/spatial_error.py

Each run is scheme ``2a`` from a cold start at the preset's ``dt``, to
t = 0.4.  For each grid the script prints eta/h, the initial energy E^0, the
energy dissipated to t = 0.4, E^0 - E(0.4), and the run's wall time.  For each
preset it then prints the RMS difference of phi(0.4) between the two grids at
the points they share (every second point of the finer grid) and the relative
difference of E(0.4), both taking the (2n)^2 run as the reference.  The
``paper`` preset's (2n)^2 run is 1024^2 for 400 steps; the whole script takes
about 20 s on two cores.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import replace

import numpy as np

from cahnpav import GridSpec, SchemeKind, run_simulation
from cahnpav.problems import PRESETS

T_END = 0.4


def run(spec, n):
    """(E^0, E(T_END), phi(T_END) values, wall seconds) of ``spec`` on an n^2 grid."""
    spec = replace(spec, grid=GridSpec(n, n, spec.grid.lx, spec.grid.ly))
    n_steps = round(T_END / spec.dt)
    start = time.perf_counter()
    result = run_simulation(spec, SchemeKind.PAV_2A, n_steps=n_steps, history_every=n_steps)
    seconds = time.perf_counter() - start
    if result.failure is not None:
        raise SystemExit(f"{n}^2: {result.failure}")
    first, last = result.history[0], result.history[-1]
    return first.energy, last.energy, result.final_state.cur.phi.values, seconds


def main() -> int:
    print("preset  grid       eta/h  E^0             dissipated to 0.4  wall s")
    for name, make in PRESETS.items():
        spec = make()
        n = spec.grid.nx
        runs = {}
        for m in (n, 2 * n):
            runs[m] = run(spec, m)
            e0, e_end, _, seconds = runs[m]
            eta_h = spec.params.eta * m / spec.grid.lx
            print(f"{name:<7} {m:>4}^2  {eta_h:>6.2f}  {e0:<15.8g} {e0 - e_end:<18.8g} {seconds:6.1f}")
        (_, e_coarse, phi_coarse, _), (_, e_fine, phi_fine, _) = runs[n], runs[2 * n]
        rms = math.sqrt(np.mean((phi_coarse - phi_fine[::2, ::2]) ** 2))
        print(f"{name:<7} {n}^2 against {2 * n}^2: RMS phi difference {rms:.3g}, "
              f"relative E(0.4) difference {(e_coarse - e_fine) / e_fine:.3g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
