"""Periodic 2D grid, real Fourier transforms, spectral operators and quadrature.

:class:`GridSpec` is the only code that knows the transform convention: its
``fft``/``ifft`` pair takes and returns plain arrays, and its multipliers
``k2``, ``dealias_mask``, ``parseval``, ``grad_weight``, ``h2_weight`` and the one entry
``kept`` under a key (the solve's operator) act on coefficients.  A
:class:`RealField` holds a field's values, its coefficients or both; the
reductions below take one and read the form they need.

Transform convention: ``fft`` is the real-input ``rfft2``, so coefficients
are the half-spectrum of shape ``(nx, ny//2 + 1)``: every kx, and ky >= 0
only (``rfftfreq`` along y).  They are mean-normalized, i.e. ``coeffs =
rfft2(values) / (nx * ny)``, so the (0, 0) coefficient is the field mean.
A column 0 < q < ny/2 also stands for its conjugate column -q, so Parseval
reads ``integral(f g) = lx ly sum(w Re(f_hat conj(g_hat)))`` over the
half-spectrum, with weight w = 2 on those columns and 1 on the zero and
Nyquist columns (``GridSpec.parseval`` is w lx ly).

Dtypes: every multiplier kept for the half-spectra (``parseval``,
``grad_weight``, ``h2_weight`` and the solve's operator) is complex128, its
float64 formula plus 0j.  numpy has no real-by-complex loop: it would cast a
real operand to ``x + 0j`` through a buffer on every product and then run the
complex loop, so holding ``x + 0j`` gives the same bytes and skips the cast.
``k2`` stays real (the formulas are written in it), and ``dealias_mask``
boolean: dealiasing is off unless a run asks for it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class GridSpec:
    """Geometry and resolution of a periodic rectangular grid.

    Parameters
    ----------
    nx, ny : int
        Number of collocation points per direction; even, at least 4.
    lx, ly : float
        Domain lengths, positive and finite.  Point (i, j) sits at (i * lx/nx, j * ly/ny).
    """

    nx: int
    ny: int
    lx: float
    ly: float

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny)):
            if n < 4 or n % 2 != 0:
                raise ValidationError(name, f"must be an even integer >= 4, got {n}")
        for name, length in (("lx", self.lx), ("ly", self.ly)):
            if not 0 < length < math.inf:
                raise ValidationError(name, f"must be positive and finite, got {length}")

    @property
    def hx(self) -> float:
        return self.lx / self.nx

    @property
    def hy(self) -> float:
        return self.ly / self.ny

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nx, self.ny)

    @property
    def area(self) -> float:
        return self.lx * self.ly

    @cached_property
    def x(self) -> np.ndarray:
        return np.arange(self.nx) * self.hx

    @cached_property
    def y(self) -> np.ndarray:
        return np.arange(self.ny) * self.hy

    @cached_property
    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays X, Y of shape (nx, ny)."""
        return tuple(np.meshgrid(self.x, self.y, indexing="ij"))

    @cached_property
    def kx(self) -> np.ndarray:
        """Angular wavenumbers along x, shape (nx, 1); broadcasts against ky."""
        return (2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.hx))[:, None]

    @cached_property
    def ky(self) -> np.ndarray:
        """Angular wavenumbers along y, ky >= 0 only: shape (1, ny//2 + 1)."""
        return (2.0 * np.pi * np.fft.rfftfreq(self.ny, d=self.hy))[None, :]

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 per half-spectrum mode, the symbol of -laplacian."""
        return self.kx**2 + self.ky**2

    @cached_property
    def parseval(self) -> np.ndarray:
        """Parseval weight of each half-spectrum column, times lx ly: 1 on the
        zero and Nyquist columns, 2 on the others (they stand for -ky too)."""
        return np.where((self.ky == 0) | (self.ky == self.ky.max()), 1.0, 2.0) * self.area + 0j

    @cached_property
    def grad_weight(self) -> np.ndarray:
        """parseval k2: the Parseval weight of the gradient inner product."""
        return self.parseval.real * self.k2 + 0j

    @cached_property
    def h2_weight(self) -> np.ndarray:
        """parseval (1 + k2)^2: the Parseval weight of the squared H2 norm."""
        return self.parseval.real * (1.0 + self.k2) ** 2 + 0j

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule truncation mask for products of Fourier series."""
        kx_cut = (2.0 / 3.0) * np.abs(self.kx).max()
        ky_cut = (2.0 / 3.0) * np.abs(self.ky).max()
        return (np.abs(self.kx) <= kx_cut) & (np.abs(self.ky) <= ky_cut)

    def kept(self, key: tuple, make: Callable[[], tuple]) -> tuple:
        """``make()`` (the solve's operator), kept for calls with an equal key; another key rebuilds it."""
        if self.__dict__.get("_kept", (None,))[0] != key:
            self.__dict__["_kept"] = (key, make())
        return self.__dict__["_kept"][1]

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of a raw physical array: its mean-normalized half-spectrum.

        Given ``out``, numpy runs both passes of the transform in that one
        array; without it, the column pass writes a temporary of the same size
        that is freed on every call.  The result is the same, bit for bit.
        """
        out = np.empty((self.nx, self.ny // 2 + 1), dtype=np.complex128)
        return np.fft.rfft2(values, s=self.shape, norm="forward", out=out)

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform of a half-spectrum back to a raw real physical array."""
        return np.fft.irfft2(coeffs, s=self.shape, norm="forward")


class RealField:
    """A real scalar field on a :class:`GridSpec`, held as its values, its
    half-spectrum ``coeffs``, or both.  The missing form is computed on first
    use and kept, so a field is transformed at most once each way.  The
    arrays are shared, not copied: do not write to them.
    """

    __slots__ = ("grid", "_values", "_coeffs")

    def __init__(
        self, grid: GridSpec, values: np.ndarray | None = None, *, coeffs: np.ndarray | None = None
    ) -> None:
        if values is not None:
            values = np.asarray(values, dtype=np.float64)
            if values.shape != grid.shape:
                raise ValueError(f"field shape {values.shape} does not match grid {grid.shape}")
        elif coeffs is None:
            raise ValueError("a field needs its values or its coefficients")
        if coeffs is not None:
            half = (grid.nx, grid.ny // 2 + 1)
            if coeffs.shape != half:
                raise ValueError(f"coefficient shape {coeffs.shape} does not match half-spectrum {half}")
        self.grid, self._values, self._coeffs = grid, values, coeffs

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = self.grid.ifft(self._coeffs)
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = self.grid.fft(self._values)
        return self._coeffs


def integrate(f: RealField) -> float:
    """Quadrature of f over the domain: hx * hy * sum(values).

    On a periodic grid the trapezoid rule collapses to this rectangle sum and
    is spectrally accurate for band-limited integrands.
    """
    return float(f.grid.hx * f.grid.hy * np.sum(f.values))


def inner(f: RealField, g: RealField) -> float:
    """Integral of f g over the domain, via Parseval on the half-spectra."""
    return float(np.vdot(f.coeffs, f.grid.parseval * g.coeffs).real)


def grad_inner(f: RealField, g: RealField) -> float:
    """Integral of grad f . grad g over the domain, via Parseval."""
    return float(np.vdot(f.coeffs, f.grid.grad_weight * g.coeffs).real)


def grad_sq_integral(f: RealField) -> float:
    """Integral of |grad f|^2 over the domain, via Parseval."""
    return grad_inner(f, f)


def l2_norm(f: RealField) -> float:
    """L2 norm sqrt(integral f^2)."""
    return float(np.sqrt(f.grid.hx * f.grid.hy * np.sum(f.values**2)))


def h2_norm(f: RealField) -> float:
    """Fourier-multiplier H2 norm: sqrt(sum (1 + |k|^2)^2 |c|^2 lx ly).

    Norm-equivalent to the usual ||f||^2 + ||grad f||^2 + ||lap f||^2 form.
    """
    c = f.coeffs
    return float(np.sqrt(np.vdot(c, f.grid.h2_weight * c).real))
