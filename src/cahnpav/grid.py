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
float64 formula plus 0j, and so is the manufactured source a step reads
(``problems.source_term``).  numpy has no real-by-complex loop: it would cast a
real operand to ``x + 0j`` through a buffer on every product and then run the
complex loop, so holding ``x + 0j`` gives the same bytes and skips the cast.
``k2`` stays real (the formulas are written in it), and ``dealias_mask``
boolean: dealiasing is off unless a run asks for it.

Reductions: every full-array sum in the package, the Parseval sums here, the
well integral in ``model`` and the source and SAV sums in ``schemes``, is
``_dot(a, b)``, Re sum(conj(a) w b) with w one of the three Parseval weights
or 1.  Up to ``_SERIAL_MAX`` = 10,000 elements it is ``np.vdot(a, w * b)``,
whose BLAS dot runs on one thread at that size.  Above it, a BLAS dot splits
the sum across threads, so its bits would follow the host's thread count; the
sum is then one ``np.einsum`` pass over the arrays' float64 views (a complex
array as (re, im) pairs along its last axis), which calls no BLAS, forms no
weighted product and gives the same bits under any thread count.  A weight has
one layout per side of that limit, each built from its float formula on first
use and kept: ``np.vdot`` reads the complex multiplier, shape (nx, ny//2 + 1),
and ``np.einsum`` the real view, the formula with each entry twice, shape
(nx, ny + 2) (``parseval``: (1, ny + 2)).  So a large grid builds no complex
``grad_weight`` or ``h2_weight``, and a small one no real view.

Row halves: on a grid of more than ``_SPLIT_OVER`` = 128^2 points, a time
step (``schemes._split_step``) runs its full-array work as kernels that
``_rows`` runs once per half, rows [0, nx//2) and [nx//2, nx), each call given
those rows of every array argument.  Each sum a kernel returns is the first
half's plus the second's, in that order, and each half's sum is one
``np.einsum`` pass, whatever its size.  The first half runs on the calling
thread and the second on one worker thread, which starts on first use; with
``wait=False`` both run on the worker while the calling thread makes a
transform.  When ``os.sched_getaffinity`` holds one CPU, the worker's halves
run inline on the calling thread.  Which thread ran a half changes no bit, so
results depend on the grid size only.  Up to the limit, ``_rows`` runs a kernel
once over all rows on the calling thread, with the arithmetic of a plain step.
A kernel writes only into the arrays it is given and forms none of its own
(numpy may still take an iteration buffer of up to 8,192 elements for a
broadcast operand).  It calls only raw numpy and ``_dot``.  It calls no
``GridSpec`` transform and no public reduction, which a profiler may wrap on
one thread.  It calls no ``_rows`` either: with one worker, a nested call would
wait for itself.
"""

from __future__ import annotations

import math
import os
import queue
import sys
import threading
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property, partial
from numbers import Integral

import numpy as np

from .errors import ValidationError

_SERIAL_MAX = 10_000  # elements: OpenBLAS splits a longer dot across threads
_SPLIT_OVER = 128 * 128  # points: a step on a larger grid runs its kernels as two row halves


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
            if not isinstance(n, Integral) or n < 4 or n % 2 != 0:
                raise ValidationError(name, f"must be an even integer >= 4, got {n}")
        if int(self.nx) * int(self.ny) * 16 > sys.maxsize:  # the bytes of a complex128 array of nx * ny
            name = "nx" if self.nx >= self.ny else "ny"
            raise ValidationError(name, "too large: numpy cannot size an array of nx * ny points")
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
        return self._weight("parseval") + 0j

    @cached_property
    def grad_weight(self) -> np.ndarray:
        """parseval k2: the Parseval weight of the gradient inner product."""
        return self._weight("grad_weight") + 0j

    @cached_property
    def h2_weight(self) -> np.ndarray:
        """parseval (1 + k2)^2: the Parseval weight of the squared H2 norm."""
        return self._weight("h2_weight") + 0j

    def _weight(self, name: str) -> np.ndarray:
        """The float64 formula of the Parseval weight ``name``, from which each layout is built."""
        w = np.where((self.ky == 0) | (self.ky == self.ky.max()), 1.0, 2.0) * self.area
        if name == "grad_weight":
            return w * self.k2
        if name == "h2_weight":
            return w * (1.0 + self.k2) ** 2
        return w

    def _real_weight(self, name: str) -> np.ndarray:
        """The Parseval weight ``name`` laid out for half-spectra's float64 views:
        each entry twice, for the real and the imaginary part; built on first use and kept."""
        kept = self.__dict__.setdefault("_real_weights", {})
        if name not in kept:
            kept[name] = np.repeat(self._weight(name), 2, axis=1)
        return kept[name]

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


def _floats(a: np.ndarray) -> np.ndarray:
    """a as C-ordered float64 numbers: a real array itself, a complex one as (re, im) pairs."""
    return np.ascontiguousarray(a, dtype=np.result_type(a, np.float64)).view(np.float64)


def _dot(a: np.ndarray, b: np.ndarray, grid: GridSpec | None = None, weight: str = "", rows=...) -> float:
    """Re sum(conj(a) w b) of two 2-D arrays of one shape, both real or both
    complex, w the ``grid``'s Parseval weight named ``weight`` or 1 without one:
    ``np.vdot`` up to ``_SERIAL_MAX`` elements, one BLAS-free ``np.einsum`` pass
    above it (see the module docstring).  Given ``rows`` (a kernel's half, see
    ``_rows``), a and b are those rows of arrays over the grid, w is cut to match,
    and the sum is one ``np.einsum`` pass, whatever its size."""
    if rows is ... and a.size <= _SERIAL_MAX:
        return float(np.vdot(a, getattr(grid, weight) * b if weight else b).real)
    if not weight:
        return float(np.einsum("ij,ij->", _floats(a), _floats(b)))
    w = grid._real_weight(weight)
    return float(np.einsum("ij,ij,ij->", _floats(a), _floats(b), w if rows is ... or len(w) == 1 else w[rows]))


class _Task:
    """One call handed to the worker: ``result()`` waits for it, then returns its
    value or raises its error; ``wait()`` only waits."""

    __slots__ = ("call", "done", "value", "error")

    def __init__(self, call: Callable[[], dict]) -> None:
        self.call, self.value, self.error = call, None, None
        self.done = threading.Lock()
        self.done.acquire()

    def run(self) -> None:
        try:
            self.value = self.call()
        except BaseException as error:  # raised again on the calling thread
            self.error = error
        self.call = None  # drops the arrays the call holds
        self.done.release()

    def wait(self) -> None:
        self.done.acquire()

    def result(self) -> dict:
        self.wait()
        if self.error is not None:
            raise self.error
        return self.value


class _Inline:
    """The worker's stand-in on one CPU: runs each task when it is handed over."""

    @staticmethod
    def put(task: _Task) -> None:
        task.run()


_tasks = None  # the worker's queue, or _Inline; set on the first split call
_starting = threading.Lock()  # so that two callers' first splits start one worker


def _serve(tasks: queue.SimpleQueue) -> None:
    while True:
        tasks.get().run()


def _submit(call: Callable[[], dict]) -> _Task:
    """Hand ``call`` to the worker, started here on first use (inline on one CPU)."""
    global _tasks
    with _starting:
        if _tasks is None:
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
            if cpus > 1:
                _tasks = queue.SimpleQueue()
                threading.Thread(target=_serve, args=(_tasks,), name="cahnpav-rows", daemon=True).start()
            else:
                _tasks = _Inline
        tasks = _tasks
    task = _Task(call)
    tasks.put(task)
    return task


def _forget_worker() -> None:
    global _tasks, _starting
    _tasks, _starting = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # a forked child has no worker thread: it starts its own
    os.register_at_fork(after_in_child=_forget_worker)


def _add(first: dict, second: dict) -> dict:
    return {name: value + second[name] for name, value in first.items()}


def _rows(grid: GridSpec, kernel: Callable[..., dict], *args, wait: bool = True):
    """``kernel(rows, *args)`` over the rows of ``grid`` (see the module docstring):
    one call over all rows (``rows`` is ``...``) up to ``_SPLIT_OVER`` points, else
    one per half, the second on the worker, each given the half's rows of every
    argument that is an array over the grid's rows.  Returns the kernel's dict of
    sums, each half's added first half first.  With ``wait=False`` both halves run
    on the worker and the call returns at once a function that waits for the sums
    and returns them."""
    if grid.nx * grid.ny <= _SPLIT_OVER:
        sums = kernel(..., *args)
        return sums if wait else lambda: sums
    half = grid.nx // 2
    first, second = (partial(kernel, rows, *_cut(args, rows, grid.nx)) for rows in (slice(0, half), slice(half, grid.nx)))
    if not wait:
        return _submit(lambda: _add(first(), second())).result
    task = _submit(second)
    try:
        sums = first()
    except BaseException:
        task.wait()  # the worker may still write into the caller's arrays
        raise
    return _add(sums, task.result())


def _cut(args: tuple, rows: slice, nx: int) -> list:
    """``args`` with every array of nx rows cut to ``rows``."""
    return [a[rows] if isinstance(a, np.ndarray) and a.ndim and len(a) == nx else a for a in args]


def integrate(f: RealField) -> float:
    """Quadrature of f over the domain: hx * hy * sum(values).

    On a periodic grid the trapezoid rule collapses to this rectangle sum and
    is spectrally accurate for band-limited integrands.
    """
    return float(f.grid.hx * f.grid.hy * np.sum(f.values))


def inner(f: RealField, g: RealField) -> float:
    """Integral of f g over the domain, via Parseval on the half-spectra."""
    return _dot(f.coeffs, g.coeffs, f.grid, "parseval")


def grad_inner(f: RealField, g: RealField) -> float:
    """Integral of grad f . grad g over the domain, via Parseval."""
    return _dot(f.coeffs, g.coeffs, f.grid, "grad_weight")


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
    return float(np.sqrt(_dot(f.coeffs, f.coeffs, f.grid, "h2_weight")))
