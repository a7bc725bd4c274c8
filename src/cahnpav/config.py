"""JSON run-configuration parsing.

The schema is the tables below, one per section, each mapping a key to its
JSON type: ``TOP`` for the document, ``TIME`` and ``OUTPUT`` for those
sections, and ``PROBLEMS[kind]`` for a problem of that ``kind``.  Only
``problem``, its ``kind``, and ``scheme`` are required; README's "Config
schema" section has an example.

Defaults: c0 = 1, lambda = 0; the manufactured problem
defaults to the 20x20 convergence-test setup, drop_array to its ``preset``
(desk-scale unless it names "paper").  Under its dotted key, ``_read``
refuses a key not in its section's table, a null, a value of another type (a
bool is no number) and a non-finite number.  Bounds are checked by the
constructors of the types that hold the values (GridSpec, PhysicalParams,
DropLayout, ProblemSpec, whose ``n_steps`` refuses a dt that does not divide
tf - t0 into whole steps); every error is reported under its dotted key.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError
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

    def __post_init__(self) -> None:
        if self.history_every < 1:
            raise ValidationError("output.history_every", "must be >= 1")
        if self.snapshot_every < 0:
            raise ValidationError("output.snapshot_every", "must be >= 0")


#: The schema (a float may be given as a JSON integer); ``_SHARED`` holds the keys of every problem kind.
TOP = {"problem": dict, "scheme": str, "time": dict, "output": dict}
TIME = {"t0": float, "tf": float, "dt": float}
OUTPUT = {"dir": str, "history_every": int, "snapshot_every": int}
_SHARED = {"kind": str, "nx": int, "ny": int, "m0": float, "beta": float, "eta": float, "lambda": float, "c0": float}
PROBLEMS = {
    "manufactured": _SHARED,
    "drop_array": _SHARED | {"preset": str, "lx": float, "ly": float, "sigma": float,
                             "count_x": int, "count_y": int, "spacing": float, "radius": float},
}


def _read(doc: dict, schema: dict, prefix: str) -> dict:
    """``doc``'s values, a number as a float where ``schema`` says float.  A
    ValidationError names, by its dotted path, the first key not in ``schema``,
    or whose value is null, of another type (a bool is no number) or not finite."""
    values = {}
    for key, value in doc.items():
        field, kind = prefix + key, schema.get(key)
        if kind is None:
            raise ValidationError(field, f"unknown key; expected one of {', '.join(schema)}")
        if value is None:
            raise ValidationError(field, "must not be null; omit the key for the default")
        if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
            raise ValidationError(field, f"expected {kind.__name__}, got {type(value).__name__}")
        if kind is float:
            try:
                value = float(value)
            except OverflowError:  # an integer beyond the float range
                value = math.inf
            if not math.isfinite(value):
                raise ValidationError(field, f"must be a finite number, got {value}")
        values[key] = value
    return values


def _replace(obj, values: dict):
    """``obj``, a dataclass, with each field that ``values`` holds set to its value there."""
    return dataclasses.replace(obj, **{f.name: values[f.name] for f in dataclasses.fields(obj) if f.name in values})


@contextmanager
def _section(name: str, keys: tuple[str, ...] | dict[str, type], rename: dict[str, str]):
    """Re-raise a constructor's ValidationError under its config key: the field,
    or what ``rename`` maps it to, as ``name.key`` if it is in ``keys``, else ``name``."""
    try:
        yield
    except ValidationError as exc:
        key = rename.get(exc.field, exc.field)
        raise ValidationError(f"{name}.{key}" if key in keys else name, exc.reason) from exc


def parse_scheme(name: str, field: str) -> SchemeKind:
    """The scheme called ``name``; a ValidationError on ``field`` if there is none."""
    try:
        return SchemeKind(name)
    except ValueError:
        valid = ", ".join(k.value for k in SchemeKind)
        raise ValidationError(field, f"unknown scheme {name!r}; expected one of {valid}") from None


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON configuration document.

    Raises a ValidationError naming the offending field: ``config`` for
    malformed JSON, else the dotted key of the value it refuses.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("config", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("<document>", "top level must be an object")
    top = _read(doc, TOP, "")
    if "problem" not in top:
        raise ValidationError("problem", "missing required section")
    if "scheme" not in top:
        raise ValidationError("scheme", "missing required key")
    scheme = parse_scheme(top["scheme"], "scheme")

    problem = _parse_problem(top["problem"])
    times = _read(top.get("time", {}), TIME, "time.")
    with _section("time", ("dt",), {}):
        problem = dataclasses.replace(problem, **times)
        problem.n_steps  # refuse a dt that would stop the run short of tf

    output = _read(top.get("output", {}), OUTPUT, "output.")
    output_dir = Path(output.pop("dir", "out"))  # the counts default in RunConfig
    return RunConfig(problem=problem, scheme=scheme, output_dir=output_dir, **output)


def _parse_problem(doc: dict) -> ProblemSpec:
    if "kind" not in doc:
        raise ValidationError("problem.kind", "missing required key")
    kind = _read({"kind": doc["kind"]}, _SHARED, "problem.")["kind"]
    if kind not in PROBLEMS:
        raise ValidationError("problem.kind", f"unknown kind {kind!r}")
    drop = kind == "drop_array"
    values = _read(doc, PROBLEMS[kind], "problem.")
    preset = values.get("preset", "desk")
    if preset not in PRESETS:
        raise ValidationError("problem.preset", f"unknown preset {preset!r}")
    base = PRESETS[preset]() if drop else manufactured_spec()

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
    with _section("problem", PROBLEMS[kind], rename):
        grid = _replace(base.grid, values)
        params = PhysicalParams(
            m0=values.get("m0", base.params.m0),
            beta=beta,
            eta=eta,
            lam=values.get("lambda", base.params.lam),
            c0=values.get("c0", base.params.c0),
        )
        drops = _replace(base.drops, values) if drop else None
        return dataclasses.replace(base, grid=grid, params=params, drops=drops)
