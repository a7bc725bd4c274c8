"""A plain reference step, the test oracle of every stepper.

One step of a scheme, written from the table and the equations of the
``cahnpav.schemes`` module docstring and from nothing else of the package's
stepping code, not even its ``SCHEMES`` rows: the complex ``fft2`` on the
full spectrum, a division by the solve's symbol, and every energy,
dissipation and integral evaluated from fields (gradients by Parseval on the
full spectrum, the rest by the rectangle rule).  No kept reciprocal, no
bilinear forms and none of the scalars a ``Level`` keeps (the levels it
returns hold NaN there).  ``sav`` is the two-solve superposition
phi^{n+1} = phi_1 + r1^{n+1} phi_2.  The clock is its own: the time of
``state.cur`` is t0 + step dt_prev, t0 at a cold start.
"""

import math

import numpy as np

from cahnpav import RealField
from cahnpav.schemes import Level, SchemeState


# kind: (BDF order, xi update, drain level in steps past t^n), as in the docstring's table
TABLE = {
    "1a": (1, "a", 0.0),
    "1b": (1, "b", 1.0),
    "2a": (2, "a", 0.5),
    "2b": (2, "b", 0.5),
    "semi": (2, None, None),
    "sav": (2, "sav", None),
}


def reference_step(kind, state, dt, p, source=None):
    """The SchemeState after one step of the scheme ``kind`` from ``state``."""
    order, update, drain_level = TABLE[kind.value]
    cur, prev = state.cur, state.prev
    grid = cur.phi.grid
    kx = 2.0 * np.pi * np.fft.fftfreq(grid.nx, d=grid.hx)[:, None]
    ky = 2.0 * np.pi * np.fft.fftfreq(grid.ny, d=grid.hy)[None, :]
    k2, lin = kx**2 + ky**2, p.beta * (kx**2 + ky**2) + p.lam

    def integral(v):
        return grid.hx * grid.hy * float(np.sum(v))

    def grad_sq(v):  # int |grad v|^2 = lx ly sum |k|^2 |v_hat / (nx ny)|^2, by Parseval on the full spectrum
        return grid.lx * grid.ly * float(np.sum(k2 * np.abs(np.fft.fft2(v) / v.size) ** 2))

    def energy(v):  # int(beta/2 |grad v|^2 + lam/2 v^2 + a/4 (v^2 - 1)^2) + c0
        return 0.5 * p.beta * grad_sq(v) + integral(0.5 * p.lam * v * v + 0.25 * p.well_amp * (v * v - 1.0) ** 2) + p.c0

    def h(v):  # a (v^3 - v)
        return p.well_amp * v * (v * v - 1.0)

    phi_n, phi_p, mu_n, mu_p = cur.phi.values, prev.phi.values, cur.mu.values, prev.mu.values
    if order == 1:
        sigma, g, ext, mid, mu_mid = 1.0, phi_n, phi_n, phi_n, mu_n
    else:  # variable-step BDF2 at the step ratio r = dt / dt_prev, 1 at a cold start
        r = 1.0 if state.dt_prev is None else dt / state.dt_prev
        sigma, g_n, g_p = (1.0 + 2.0 * r) / (1.0 + r), 1.0 + r, -r * r / (1.0 + r)
        g, ext = g_n * phi_n + g_p * phi_p, (1.0 + r) * phi_n - r * phi_p
        mid, mu_mid = (1.0 + 0.5 * r) * phi_n - 0.5 * r * phi_p, (1.0 + 0.5 * r) * mu_n - 0.5 * r * mu_p
    history = g  # g without the source: sav's r1 update reads it
    f_drain = None
    t = state.t0 if state.dt_prev is None else state.t0 + state.step * state.dt_prev  # cur's time
    if source is not None:  # a mean-normalized half-spectrum, read at t + dt and t + L dt
        g = g + dt * np.fft.irfft2(source(t + dt), s=grid.shape, norm="forward")
        if drain_level is not None:
            f_drain = np.fft.irfft2(source(t + drain_level * dt), s=grid.shape, norm="forward")

    def solve(g, s):
        """(phi, mu) of (sigma/dt) phi = m0 lap mu + g/dt, mu = -beta lap phi + lam phi + s."""
        s_hat = np.fft.fft2(s)
        phi_hat = (np.fft.fft2(g) - dt * p.m0 * k2 * s_hat) / (sigma + dt * p.m0 * k2 * lin)
        return np.fft.ifft2(phi_hat).real, np.fft.ifft2(lin * phi_hat + s_hat).real

    def xi_update(e_num, e_den, mu_d):
        """R^n / (sqrt(E_num) + dt drain / (2 sqrt(E_den))), drain = m0 ||grad mu_d||^2 - int(f mu_d)."""
        drain = p.m0 * grad_sq(mu_d)
        if f_drain is not None:
            drain -= integral(f_drain * mu_d)
        return cur.r / (math.sqrt(e_num) + dt * drain / (2.0 * math.sqrt(e_den)))

    xi, r_new, r1 = state.xi, cur.r, cur.sav_r
    if update == "sav":  # b = h(ext) / sqrt(e1[ext]), e1 = int H + c0
        b = h(ext) / math.sqrt(integral(0.25 * p.well_amp * (ext * ext - 1.0) ** 2) + p.c0)
        (phi_1, mu_1), (phi_2, mu_2) = solve(g, np.zeros_like(b)), solve(np.zeros_like(b), b)
        # 2 (sigma r1 - g_n r1^n - g_p r1^{n-1}) = int b (sigma (phi_1 + r1 phi_2) - history)
        r1 = (2.0 * (g_n * cur.sav_r + g_p * prev.sav_r) + integral(b * (sigma * phi_1 - history))) / (
            2.0 * sigma - sigma * integral(b * phi_2)
        )
        phi, mu = phi_1 + r1 * phi_2, mu_1 + r1 * mu_2
    else:
        xi_solve = 1.0  # semi: the plain explicit nonlinearity
        if update == "a":
            e_ext = energy(ext)
            xi = xi_solve = xi_update(e_ext, energy(mid), mu_mid)
            r_new = xi * math.sqrt(e_ext)
        elif update == "b":
            xi_solve = state.xi if order == 1 else ((1.0 + r) * cur.r - r * prev.r) / math.sqrt(energy(ext))
        phi, mu = solve(g, xi_solve**2 * h(ext))
        if update == "b":
            e_new = energy(phi)
            if order == 1:
                xi = xi_update(e_new, e_new, mu)
            else:
                xi = xi_update(e_new, energy(mid), 0.5 * (mu + mu_n))
            r_new = xi * math.sqrt(e_new)
    new = Level(RealField(grid, phi), RealField(grid, mu), math.nan, math.nan, math.nan, r_new, r1)
    return SchemeState(new, cur, state.step + 1, xi, t + dt - (state.step + 1) * dt, dt)  # new's time t + dt
