"""Periodic 2D grid, Fourier transforms, spectral operators and quadrature.

:class:`GridSpec` is the only code that knows the transform convention: its
``fft``/``ifft`` pair and the multipliers ``laplacian`` and ``dealias`` take
and return plain arrays.  The reductions below (``integrate``,
``grad_sq_integral``, ``l2_norm``, ``h2_norm``) take a :class:`RealField`.

Transform normalization: the (0, 0) Fourier coefficient equals the mean of
the physical field, i.e. ``coeffs = fft2(values) / (nx * ny)``.  Under this
convention Parseval reads ``integral(f^2) = sum(|coeffs|^2) * lx * ly``.
"""

from __future__ import annotations

import math
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
        """Angular wavenumbers along y, shape (1, ny)."""
        return (2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.hy))[None, :]

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 per mode, the symbol of -laplacian."""
        return self.kx**2 + self.ky**2

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """2/3-rule truncation mask for products of Fourier series."""
        kx_cut = (2.0 / 3.0) * np.abs(self.kx).max()
        ky_cut = (2.0 / 3.0) * np.abs(self.ky).max()
        return (np.abs(self.kx) <= kx_cut) & (np.abs(self.ky) <= ky_cut)

    def fft(self, values: np.ndarray) -> np.ndarray:
        """Forward transform of a raw physical array, mean-normalized."""
        return np.fft.fft2(values) / (self.nx * self.ny)

    def ifft(self, coeffs: np.ndarray) -> np.ndarray:
        """Inverse transform back to a raw real physical array."""
        return np.real(np.fft.ifft2(coeffs * (self.nx * self.ny)))

    def laplacian(self, values: np.ndarray) -> np.ndarray:
        """Spectral Laplacian of a raw physical array: mode k times -|k|^2."""
        return self.ifft(-self.k2 * self.fft(values))

    def dealias(self, values: np.ndarray) -> np.ndarray:
        """2/3-rule truncation of a raw physical array."""
        return self.ifft(self.fft(values) * self.dealias_mask)


@dataclass(frozen=True)
class RealField:
    """A real scalar field sampled on a :class:`GridSpec`."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != self.grid.shape:
            raise ValueError(f"field shape {values.shape} does not match grid {self.grid.shape}")
        object.__setattr__(self, "values", values)

    @classmethod
    def constant(cls, grid: GridSpec, value: float) -> "RealField":
        return cls(grid, np.full(grid.shape, float(value)))

    @classmethod
    def from_function(cls, grid: GridSpec, fn) -> "RealField":
        """Sample ``fn(X, Y)`` on the collocation points."""
        X, Y = grid.mesh
        return cls(grid, np.asarray(fn(X, Y), dtype=np.float64))

    def mean(self) -> float:
        return float(self.values.mean())


def integrate(f: RealField) -> float:
    """Quadrature of f over the domain: hx * hy * sum(values).

    On a periodic grid the trapezoid rule collapses to this rectangle sum and
    is spectrally accurate for band-limited integrands.
    """
    return float(f.grid.hx * f.grid.hy * np.sum(f.values))


def grad_sq_integral(f: RealField) -> float:
    """Integral of |grad f|^2 over the domain, via Parseval."""
    coeffs = f.grid.fft(f.values)
    return float(np.sum(f.grid.k2 * np.abs(coeffs) ** 2) * f.grid.area)


def l2_norm(f: RealField) -> float:
    """L2 norm sqrt(integral f^2)."""
    return float(np.sqrt(f.grid.hx * f.grid.hy * np.sum(f.values**2)))


def h2_norm(f: RealField) -> float:
    """Fourier-multiplier H2 norm: sqrt(sum (1 + |k|^2)^2 |c|^2 lx ly).

    Norm-equivalent to the usual ||f||^2 + ||grad f||^2 + ||lap f||^2 form.
    """
    coeffs = f.grid.fft(f.values)
    return float(np.sqrt(np.sum((1.0 + f.grid.k2) ** 2 * np.abs(coeffs) ** 2) * f.grid.area))
