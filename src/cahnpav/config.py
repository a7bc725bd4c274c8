"""JSON run-configuration parsing.

Schema (all keys except ``problem`` and ``scheme`` optional)::

    {
      "problem": {
        "kind": "manufactured" | "drop_array",
        // manufactured: nx, ny, m0, beta, eta, lambda, c0
        // drop_array:   preset ("desk" | "paper"), nx, ny, lx, ly, m0,
        //               sigma or beta (not both), eta, lambda, c0,
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
null or non-finite value.  Bounds are checked by the constructors of the
types that hold the values (GridSpec, PhysicalParams, DropLayout,
ProblemSpec, whose ``n_steps`` refuses a dt that does not divide tf - t0
into whole steps); every error is reported under its dotted key.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError, ValidationError
from .model import PhysicalParams, sigma_to_beta
from .problems import DROP_SIGMA, PRESETS, ProblemSpec, manufactured_spec
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
    if isinstance(value, kind) and (kind is bool or not isinstance(value, bool)):
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
MANUFACTURED, DROP_ARRAY = "manufactured", "drop_array"  # the values of problem.kind
MANUFACTURED_KEYS = ("kind", "nx", "ny", "m0", "beta", "eta", "lambda", "c0")
DROP_KEYS = MANUFACTURED_KEYS + ("preset", "lx", "ly", "sigma", "count_x", "count_y", "spacing", "radius")
PROBLEM_KEYS = {MANUFACTURED: MANUFACTURED_KEYS, DROP_ARRAY: DROP_KEYS}
INT_KEYS = ("nx", "ny", "count_x", "count_y")


@contextmanager
def _section(name: str, keys: tuple[str, ...], rename: dict[str, str]):
    """Re-raise a constructor's ValidationError under its config key: the field,
    or what ``rename`` maps it to, as ``name.key`` if it is in ``keys``, else ``name``."""
    try:
        yield
    except ValidationError as exc:
        key = rename.get(exc.field, exc.field)
        raise ValidationError(f"{name}.{key}" if key in keys else name, exc.reason) from exc


def _pick(values: dict, names: tuple[str, ...]) -> dict:
    return {name: values[name] for name in names if name in values}


def parse_scheme(name: str, field: str) -> SchemeKind:
    """The scheme called ``name``; a ValidationError on ``field`` if there is none."""
    try:
        return SchemeKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in SchemeKind)
        raise ValidationError(field, f"unknown scheme {name!r}; expected one of {valid}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Raises ParseError on malformed JSON and ValidationError (naming the
    offending field) on constraint violations.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"config: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("<document>", "top level must be an object")
    _check_keys(doc, TOP_KEYS, "")

    problem_doc = _get(doc, "problem", dict, "problem")
    if problem_doc is None:
        raise ValidationError("problem", "missing required section")
    scheme_name = _get(doc, "scheme", str, "scheme")
    if scheme_name is None:
        raise ValidationError("scheme", "missing required key")
    scheme = parse_scheme(scheme_name, "scheme")

    problem = _parse_problem(problem_doc)
    time_doc = _get(doc, "time", dict, "time", {})
    _check_keys(time_doc, TIME_KEYS, "time.")
    times = {key: _get(time_doc, key, float, f"time.{key}") for key in TIME_KEYS if key in time_doc}
    with _section("time", ("dt",), {}):
        problem = dataclasses.replace(problem, **times)
        problem.n_steps  # refuse a dt that would stop the run short of tf

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
    if kind not in PROBLEM_KEYS:
        raise ValidationError("problem.kind", "missing required key" if kind is None else f"unknown kind {kind!r}")
    drop = kind == DROP_ARRAY
    keys = PROBLEM_KEYS[kind]
    _check_keys(doc, keys, "problem.")
    preset = _get(doc, "preset", str, "problem.preset", "desk")
    if preset not in PRESETS:
        raise ValidationError("problem.preset", f"unknown preset {preset!r}")
    base = PRESETS[preset]() if drop else manufactured_spec()

    values = {
        key: _get(doc, key, int if key in INT_KEYS else float, f"problem.{key}")
        for key in doc
        if key not in ("kind", "preset")
    }
    if "sigma" in values and "beta" in values:
        raise ValidationError("problem.sigma", "give sigma or beta, not both")
    eta = values.get("eta", base.params.eta)
    beta = values.get("beta", base.params.beta)
    rename = {"lam": "lambda"}
    if drop and "beta" not in values:
        # keep the surface tension, not beta, when eta changes; PhysicalParams
        # checks eta first, so a bad beta then comes from sigma
        beta = sigma_to_beta(values.get("sigma", DROP_SIGMA), eta)
        rename["beta"] = "sigma"
    with _section("problem", keys, rename):
        grid = dataclasses.replace(base.grid, **_pick(values, ("nx", "ny", "lx", "ly")))
        params = PhysicalParams(
            m0=values.get("m0", base.params.m0),
            beta=beta,
            eta=eta,
            lam=values.get("lambda", base.params.lam),
            c0=values.get("c0", base.params.c0),
        )
        drops = base.drops
        if drop:
            drops = dataclasses.replace(drops, **_pick(values, ("count_x", "count_y", "spacing", "radius")))
        return dataclasses.replace(base, grid=grid, params=params, drops=drops)
