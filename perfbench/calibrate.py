"""Host-speed calibration: a fixed loop, timed between operations.

The host this benchmark was written on gives it two vCPUs of a shared
machine whose speed drifts by up to 1.8x, within seconds and over minutes,
for the same code.  A median over one run cannot remove that: a run that
falls in a slow stretch reads slow throughout.  So every run also times a
fixed loop that does not touch the solver, before the first operation and
after each one, and each operation's times are scaled by the speed the loop
saw around it:

    scaled time = raw time * REFERENCE_S / (mean of the loop times before and after)

A scaled time reads in seconds at the host speed at which the loop takes
``REFERENCE_S``.  A change to the solver moves the raw times and not the
loop, so it moves the scaled times by the same share.

The loop is a semi-implicit spectral step on the workload's own grid size:
two forward transforms, one inverse, cubic pointwise terms and one reduction,
so that small grids are bound by per-call overhead and large ones by the
transforms, as the workloads are.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

DT = 1e-3


@dataclass(frozen=True)
class Loop:
    """The loop for one workload: grid size, iterations per timing, reference time."""

    n: int
    iterations: int
    reference_s: float  # loop time at the reference host speed


# Iterations give about a tenth of one operation's time.  Reference times are
# round figures within the range the loops took on a 2-vCPU Intel Xeon
# (300 MiB L3) with Python 3.11 and numpy 2 (pocketfft): 0.19-0.35 s.
LOOPS = {
    "paper": Loop(n=512, iterations=6, reference_s=0.25),
    "desk": Loop(n=128, iterations=100, reference_s=0.25),
    "conv": Loop(n=20, iterations=1600, reference_s=0.25),
}


class Calibration:
    """Times the fixed loop of one workload; one call is one timing."""

    def __init__(self, loop: Loop) -> None:
        self.loop = loop
        n = loop.n
        k = 2.0 * np.pi * np.fft.fftfreq(n, 1.0 / n) / n
        k2 = np.add.outer(k**2, k**2)
        self._explicit = 1.0 + 2.0 * DT * k2
        self._h_factor = DT * k2
        self._denominator = 1.0 + DT * (2.0 * k2 + k2**2)
        self._start = np.random.default_rng(n).uniform(-1.0, 1.0, (n, n))
        self.times: list[float] = []
        self.run_loop()  # untimed warm-up
        self.times.clear()

    def run_loop(self) -> float:
        x = self._start
        energies = []
        t0 = perf_counter()
        for _ in range(self.loop.iterations):
            h = x**3 - x
            f = (np.fft.fft2(x) * self._explicit - self._h_factor * np.fft.fft2(h)) / self._denominator
            x = np.fft.ifft2(f).real
            energies.append(float(np.mean(0.25 * (x * x - 1.0) ** 2)))
        elapsed = perf_counter() - t0
        if not np.isfinite(energies[-1]):
            raise RuntimeError("calibration loop diverged")
        self.times.append(elapsed)
        return elapsed

    def scale(self, before: float, after: float) -> float:
        """Factor from raw to scaled times for an operation between two timings."""
        return self.loop.reference_s / (0.5 * (before + after))
