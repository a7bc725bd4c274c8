"""In-memory spans around the solver's functions, and the self-time arithmetic.

The solver is not edited to be measured.  ``instrument`` replaces each
function object wherever a ``cahnpav`` module holds a reference to it (module
globals and module-level dicts such as ``schemes.STEPPERS``), because
``from .x import y`` binds ``y`` separately in every importing module.
Methods are replaced on their class.  Everything is restored on exit.
"""

from __future__ import annotations

import contextlib
import sys
from array import array
from time import perf_counter

import numpy as np


class SpanLog:
    """Spans kept in flat arrays: name id, start, end, parent index, amount.

    ``amount`` carries a size measured by the wrapper (bytes), 0 otherwise.
    Spans nest strictly because the benchmark runs one caller on one thread,
    so a parent's index is always smaller than its children's.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.amount = array("d")
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.name_id)

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` wrapped so each call records one span named ``name``.

        ``measure(args, kwargs, result)``, when given, runs after the span has
        ended and its value is stored as the span's amount.
        """
        nid = self._name_ids.setdefault(name, len(self._name_ids))
        if nid == len(self.names):
            self.names.append(name)
        stack = self._stack
        name_id, start, end, parent, amount = self.name_id, self.start, self.end, self.parent, self.amount

        def traced(*args, **kwargs):
            i = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            amount.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[i] = t0
                end[i] = t1
            if measure is not None:
                amount[i] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def arrays(self, ranges: list[tuple[int, int]] | None = None) -> "SpanArrays":
        """Numpy copies of the spans in the index ``ranges`` (default: all).

        Parent indices are renumbered; a parent outside the ranges becomes -1.
        """
        ranges = [(0, len(self))] if ranges is None else ranges
        idx = np.concatenate([np.arange(lo, hi) for lo, hi in ranges] + [np.arange(0)])
        renumber = np.full(len(self) + 1, -1)  # the extra slot maps parent -1 to -1
        renumber[idx] = np.arange(len(idx))
        return SpanArrays(
            names=list(self.names),
            name_id=np.array(self.name_id, dtype=np.int64)[idx],
            start=np.array(self.start)[idx],
            end=np.array(self.end)[idx],
            parent=renumber[np.array(self.parent, dtype=np.int64)[idx]],
            amount=np.array(self.amount)[idx],
        )


class SpanArrays:
    """A contiguous slice of a SpanLog with the derived quantities."""

    def __init__(self, names, name_id, start, end, parent, amount) -> None:
        self.names = names
        self.name_id = name_id
        self.start = start
        self.end = end
        self.parent = parent
        self.amount = amount
        self.duration = end - start
        self.self_time = self_times(self.duration, parent)

    def is_named(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def within(self, mask: np.ndarray) -> np.ndarray:
        """Spans that are in ``mask`` or have an ancestor in it."""
        return within(self.parent, mask)

    def parent_in(self, mask: np.ndarray) -> np.ndarray:
        """Spans whose direct parent is in ``mask``."""
        out = np.zeros_like(mask)
        has = self.parent >= 0
        out[has] = mask[self.parent[has]]
        return out

    def save(self, path, op_starts) -> None:
        """Write the spans, and the index where each operation's spans begin."""
        np.savez(
            path,
            names=np.array(self.names),
            name_id=self.name_id,
            start=self.start,
            end=self.end,
            parent=self.parent,
            amount=self.amount,
            op_start=np.array(op_starts, dtype=np.int64),
        )


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the time its direct children cover.

    Children of one parent never overlap (single caller, strict nesting), so
    the covered time is the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def within(parent: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Flag spans in ``mask`` or below a span in it, by walking ancestors."""
    out = mask.copy()
    anc = parent.copy()
    live = anc >= 0
    while live.any():
        out[live] |= mask[anc[live]]
        anc[live] = parent[anc[live]]
        live = anc >= 0
    return out


def _cahnpav_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == "cahnpav" or name.startswith("cahnpav."))]


@contextlib.contextmanager
def instrument(replacements: dict, methods: list, extra_modules: tuple = ()):
    """Swap in wrappers for the duration of the block.

    ``replacements`` maps ``id(original)`` to ``(original, wrapper)``; every
    reference to an original found in a loaded ``cahnpav`` module's globals,
    in a module-level dict there, or in ``extra_modules`` is replaced.
    ``methods`` lists ``(cls, attr, wrapper)`` triples set on the class.
    """
    undo = []
    try:
        for module in _cahnpav_modules() + list(extra_modules):
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if key.startswith("__"):
                    continue
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    undo.append((namespace, key, value))
                    namespace[key] = hit[1]
                elif type(value) is dict:
                    for dkey, dvalue in list(value.items()):
                        hit = replacements.get(id(dvalue))
                        if hit is not None and hit[0] is dvalue:
                            undo.append((value, dkey, dvalue))
                            value[dkey] = hit[1]
        for cls, attr, wrapper in methods:
            undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
        yield
    finally:
        for container, key, original in reversed(undo):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
