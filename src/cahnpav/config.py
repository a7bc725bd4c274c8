"""JSON run-configuration parsing.

Schema (all keys except ``problem`` and ``scheme`` optional)::

    {
      "problem": {
        "kind": "manufactured" | "drop_array",
        // manufactured: nx, ny, m0, beta, eta, lambda, c0
        // drop_array:   preset ("desk" | "paper"), nx, ny, lx, ly, m0,
        //               sigma or beta, eta, lambda, c0,
        //               count_x, count_y, spacing, radius
      },
      "scheme": "1a" | "1b" | "2a" | "2b" | "semi" | "sav",
      "time":   {"t0": ..., "tf": ..., "dt": ...},
      "output": {"dir": "out", "history_every": 1, "snapshot_every": 0},
      "dealias": false
    }

Defaults: c0 = 1, lambda = 0, dealias = false; the manufactured problem
defaults to the 20x20 convergence-test setup, drop_array to the desk-scale
benchmark.  A key not in the schema, at any level, is rejected, as is a
null or non-finite value and a dt that does not divide tf - t0 into whole
steps.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .grid import GridSpec
from .model import PhysicalParams, sigma_to_beta
from .problems import (
    DROP_ARRAY,
    MANUFACTURED,
    DropLayout,
    ProblemSpec,
    desk_scale_drop_spec,
    manufactured_spec,
    full_scale_drop_spec,
)
from .schemes import SchemeKind


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    scheme: SchemeKind
    output_dir: Path
    history_every: int = 1
    snapshot_every: int = 0
    dealias: bool = False

    def __post_init__(self) -> None:
        if self.history_every < 1:
            raise ValidationError("output.history_every", "must be >= 1")
        if self.snapshot_every < 0:
            raise ValidationError("output.snapshot_every", "must be >= 0")


def _get(mapping: dict, key: str, kind, field: str, default=None):
    """Typed lookup, ``default`` when the key is absent; raises ValidationError
    on a type mismatch, including a JSON null."""
    if key not in mapping:
        return default
    value = mapping[key]
    if value is None:
        raise ValidationError(field, "must not be null; omit the key for the default")
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        if not math.isfinite(value):
            raise ValidationError(field, f"must be a finite number, got {value}")
        return value
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is dict and isinstance(value, dict):
        return value
    raise ValidationError(field, f"expected {kind.__name__}, got {type(value).__name__}")


def _check_keys(mapping: dict, allowed: tuple[str, ...], prefix: str) -> None:
    """Reject keys outside the schema, naming the first one by its dotted path."""
    for key in mapping:
        if key not in allowed:
            expected = ", ".join(allowed)
            raise ValidationError(f"{prefix}{key}", f"unknown key; expected one of {expected}")


TOP_KEYS = ("problem", "scheme", "time", "output", "dealias")
TIME_KEYS = ("t0", "tf", "dt")
OUTPUT_KEYS = ("dir", "history_every", "snapshot_every")
MANUFACTURED_KEYS = ("kind", "nx", "ny", "m0", "beta", "eta", "lambda", "c0")
DROP_KEYS = MANUFACTURED_KEYS + (
    "preset", "lx", "ly", "sigma", "count_x", "count_y", "spacing", "radius",
)


def _positive(mapping: dict, key: str, field: str, default: float) -> float:
    value = _get(mapping, key, float, field, default)
    if not value > 0:
        raise ValidationError(field, f"must be positive, got {value}")
    return value


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Raises ParseError on malformed JSON and ValidationError (naming the
    offending field) on constraint violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("<document>", "top level must be an object")
    _check_keys(doc, TOP_KEYS, "")

    problem_doc = _get(doc, "problem", dict, "problem")
    if problem_doc is None:
        raise ValidationError("problem", "missing required section")
    scheme_name = _get(doc, "scheme", str, "scheme")
    if scheme_name is None:
        raise ValidationError("scheme", "missing required key")
    try:
        scheme = SchemeKind(scheme_name)
    except ValueError:
        valid = ", ".join(k.value for k in SchemeKind)
        raise ValidationError("scheme", f"unknown scheme {scheme_name!r}; expected one of {valid}")

    problem = _parse_problem(problem_doc)
    problem = _apply_time(problem, _get(doc, "time", dict, "time", {}))

    output_doc = _get(doc, "output", dict, "output", {})
    _check_keys(output_doc, OUTPUT_KEYS, "output.")
    return RunConfig(
        problem=problem,
        scheme=scheme,
        output_dir=Path(_get(output_doc, "dir", str, "output.dir", "out")),
        history_every=_get(output_doc, "history_every", int, "output.history_every", 1),
        snapshot_every=_get(output_doc, "snapshot_every", int, "output.snapshot_every", 0),
        dealias=_get(doc, "dealias", bool, "dealias", False),
    )


def _parse_problem(doc: dict) -> ProblemSpec:
    kind = _get(doc, "kind", str, "problem.kind")
    if kind is None:
        raise ValidationError("problem.kind", "missing required key")
    if kind == MANUFACTURED:
        _check_keys(doc, MANUFACTURED_KEYS, "problem.")
        return _parse_manufactured(doc)
    if kind == DROP_ARRAY:
        _check_keys(doc, DROP_KEYS, "problem.")
        return _parse_drop(doc)
    raise ValidationError("problem.kind", f"unknown kind {kind!r}")


def _grid_override(doc: dict, grid: GridSpec, allow_domain: bool) -> GridSpec:
    nx = _get(doc, "nx", int, "problem.nx", grid.nx)
    ny = _get(doc, "ny", int, "problem.ny", grid.ny)
    lx, ly = grid.lx, grid.ly
    if allow_domain:
        lx = _positive(doc, "lx", "problem.lx", lx)
        ly = _positive(doc, "ly", "problem.ly", ly)
    try:
        return GridSpec(nx=nx, ny=ny, lx=lx, ly=ly)
    except ValueError as exc:
        raise ValidationError("problem.nx", str(exc))


def _build_params(**kwargs) -> PhysicalParams:
    try:
        return PhysicalParams(**kwargs)
    except ValueError as exc:
        raise ValidationError("problem", str(exc))


def _parse_manufactured(doc: dict) -> ProblemSpec:
    base = manufactured_spec()
    grid = _grid_override(doc, base.grid, allow_domain=False)
    params = _build_params(
        m0=_positive(doc, "m0", "problem.m0", base.params.m0),
        beta=_positive(doc, "beta", "problem.beta", base.params.beta),
        eta=_positive(doc, "eta", "problem.eta", base.params.eta),
        lam=_get(doc, "lambda", float, "problem.lambda", 0.0),
        c0=_get(doc, "c0", float, "problem.c0", 1.0),
    )
    return dataclasses.replace(base, grid=grid, params=params)


def _parse_drop(doc: dict) -> ProblemSpec:
    preset = _get(doc, "preset", str, "problem.preset", "desk")
    if preset == "desk":
        base = desk_scale_drop_spec()
    elif preset == "paper":
        base = full_scale_drop_spec()
    else:
        raise ValidationError("problem.preset", f"unknown preset {preset!r}")
    grid = _grid_override(doc, base.grid, allow_domain=True)
    eta = _positive(doc, "eta", "problem.eta", base.params.eta)
    beta = _get(doc, "beta", float, "problem.beta")
    sigma = _get(doc, "sigma", float, "problem.sigma")
    if beta is None:
        # keep the preset's surface tension unless overridden
        beta = sigma_to_beta(sigma if sigma is not None else 151.15, eta)
    elif not beta > 0:
        raise ValidationError("problem.beta", f"must be positive, got {beta}")
    params = _build_params(
        m0=_positive(doc, "m0", "problem.m0", base.params.m0),
        beta=beta,
        eta=eta,
        lam=_get(doc, "lambda", float, "problem.lambda", 0.0),
        c0=_get(doc, "c0", float, "problem.c0", 1.0),
    )
    try:
        drops = DropLayout(
            count_x=_get(doc, "count_x", int, "problem.count_x", base.drops.count_x),
            count_y=_get(doc, "count_y", int, "problem.count_y", base.drops.count_y),
            spacing=_positive(doc, "spacing", "problem.spacing", base.drops.spacing),
            radius=_positive(doc, "radius", "problem.radius", base.drops.radius),
        )
    except ValueError as exc:
        raise ValidationError("problem", str(exc))
    return dataclasses.replace(base, grid=grid, params=params, drops=drops)


def _apply_time(problem: ProblemSpec, doc: dict) -> ProblemSpec:
    _check_keys(doc, TIME_KEYS, "time.")
    updates = {}
    t0 = _get(doc, "t0", float, "time.t0")
    tf = _get(doc, "tf", float, "time.tf")
    if t0 is not None:
        updates["t0"] = t0
    if tf is not None:
        updates["tf"] = tf
    if "dt" in doc:
        updates["dt"] = _positive(doc, "dt", "time.dt", problem.dt)
    try:
        problem = dataclasses.replace(problem, **updates)
    except ValueError as exc:
        raise ValidationError("time", str(exc))
    _require_whole_steps(problem.tf - problem.t0, problem.dt, "time.dt")
    return problem


def _require_whole_steps(window: float, dt: float, field: str) -> None:
    """Reject a step size that does not divide the time window: the runner
    takes round(window / dt) steps and would silently stop short of tf."""
    n = round(window / dt)
    if abs(window / dt - n) > 1e-9 * max(1, n):
        raise ValidationError(
            field, f"dt = {dt} does not divide the time window {window} into whole steps"
        )
