"""The three benchmark workloads, each one operation of the public API plus its output check.

An operation is what a user waits for:

* ``paper``: the paper preset (512^2, 361 drops), scheme 2a, 20 steps at
  dt = 1e-3, recording only the first and last history entries.
* ``desk``: ``cahnpav run --config`` on the desk preset (128^2, 25 drops) for
  all six schemes in turn, 60 steps each at dt = 1e-3, a history entry every
  step, a snapshot every 20 steps and ``history.csv`` per scheme.
* ``conv``: the manufactured convergence sweep on 20^2 for the four PAV
  schemes, dt = 0.1 * 2^-j for j = 0..5, exact history seeding, and the
  fitted orders from ``fit_convergence_order``.

The seed changes only inputs that leave the amount of work unchanged: the
order in which the schemes run, and on the drop workloads a jitter of the
drop radius of at most 1%.  Checks that hold for any seed (invariants, mass,
orders) run on every operation.  The final values are also matched against
``reference.json``, recorded at the commit that added the benchmark: on
``conv`` for every seed, on the drop workloads for the default seed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import random
import shutil
from pathlib import Path

from cahnpav import cli, diagnostics, grid, output, problems, runner
from cahnpav.schemes import SchemeKind

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Relative tolerances against the reference.  Loose enough for round-off from
# a reordered or re-associated transform, far tighter than any change to a
# scheme's arithmetic.
FIELD_RTOL = 1e-9  # final energy, mass, R, xi, sav_r
L2_RTOL = 1e-7  # conv: final l2 error per step size
SLOPE_ATOL = 1e-6  # conv: fitted order against the reference
MIN_ORDER = {"1a": 0.9, "1b": 0.9, "2a": 1.9, "2b": 1.9}

RADIUS_JITTER = 0.01
DT = 1e-3
PAPER_STEPS = 20
DESK_STEPS = 60
DESK_SNAPSHOT_EVERY = 20
CONV_DTS = [0.1 * 2.0**-j for j in range(6)]

RECORD_FIELDS = ("energy", "mass", "r", "xi", "sav_r")


def _close(value, ref, rtol) -> bool:
    if value is None or ref is None:
        return value is ref
    return math.isclose(value, ref, rel_tol=rtol, abs_tol=0.0)


def _compare_record(label: str, record, ref: dict) -> list[str]:
    issues = []
    for field in RECORD_FIELDS:
        value = getattr(record, field)
        if not _close(value, ref[field], FIELD_RTOL):
            issues.append(f"{label}: final {field} {value!r} != reference {ref[field]!r}")
    return issues


def _record_values(record) -> dict:
    return {field: getattr(record, field) for field in RECORD_FIELDS}


def _jittered_radius(rng: random.Random, radius: float) -> float:
    return radius * (1.0 + RADIUS_JITTER * (2.0 * rng.random() - 1.0))


class Workload:
    """One operation of the public API, repeatable, with its output check."""

    name = ""
    # True when the seed only reorders work, so the reference holds for every seed.
    reference_any_seed = False

    def __init__(self, seed: int, workdir: Path, use_reference: bool = True) -> None:
        self.rng = random.Random(seed)
        self.reference = None
        if use_reference and (seed == DEFAULT_SEED or self.reference_any_seed):
            self.reference = json.loads(REFERENCE_PATH.read_text())[self.name]

    def prepare(self) -> None:
        """Untimed work before each operation (clearing its outputs)."""

    def run(self):
        """The timed operation; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Problems found in an operation's outputs; empty when correct."""
        raise NotImplementedError

    def reference_values(self, out) -> dict:
        raise NotImplementedError

    def grid_points(self) -> int:
        raise NotImplementedError


class Paper(Workload):
    name = "paper"

    def __init__(self, seed: int, workdir: Path, use_reference: bool = True) -> None:
        super().__init__(seed, workdir, use_reference)
        self.radius = _jittered_radius(self.rng, problems.full_scale_drop_spec().drops.radius)

    def run(self):
        # A fresh spec per operation, as `cahnpav run` builds one: nothing
        # cached on the spec or its grid carries over between operations.
        spec = problems.full_scale_drop_spec(dt=DT)
        spec = dataclasses.replace(spec, drops=dataclasses.replace(spec.drops, radius=self.radius))
        return runner.run_simulation(spec, SchemeKind.PAV_2A, n_steps=PAPER_STEPS, history_every=PAPER_STEPS)

    def check(self, result) -> list[str]:
        issues = []
        if result.diverged:
            issues.append(f"diverged at step {result.diverged_step}")
        steps = [rec.step for rec in result.history]
        if steps != [0, PAPER_STEPS]:
            issues.append(f"history steps {steps}, expected [0, {PAPER_STEPS}]")
        report = diagnostics.assert_invariants(result.history, SchemeKind.PAV_2A)
        if not report.all_passed:
            issues.append(f"invariants: {report}")
        if self.reference is not None:
            issues += _compare_record("2a", result.history[-1], self.reference["2a"])
        return issues

    def reference_values(self, result) -> dict:
        return {"2a": _record_values(result.history[-1])}

    def grid_points(self) -> int:
        grid = problems.full_scale_drop_spec().grid
        return grid.nx * grid.ny


class Desk(Workload):
    name = "desk"
    schemes = ["1a", "1b", "2a", "2b", "semi", "sav"]

    def __init__(self, seed: int, workdir: Path, use_reference: bool = True) -> None:
        super().__init__(seed, workdir, use_reference)
        self.order = list(self.schemes)
        self.rng.shuffle(self.order)
        spec = problems.desk_scale_drop_spec(dt=DT)
        self.grid = spec.grid
        radius = _jittered_radius(self.rng, spec.drops.radius)
        self.configs = {}
        for scheme in self.order:
            base = workdir / scheme
            base.mkdir(parents=True, exist_ok=True)
            config = {
                "problem": {"kind": "drop_array", "preset": "desk", "radius": radius},
                "scheme": scheme,
                "time": {"t0": 0.0, "tf": DESK_STEPS * DT, "dt": DT},
                "output": {
                    "dir": str(base / "out"),
                    "history_every": 1,
                    "snapshot_every": DESK_SNAPSHOT_EVERY,
                },
            }
            path = base / "config.json"
            path.write_text(json.dumps(config))
            self.configs[scheme] = path

    def prepare(self) -> None:
        for path in self.configs.values():
            shutil.rmtree(path.parent / "out", ignore_errors=True)

    def run(self):
        codes = {}
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            for scheme in self.order:
                codes[scheme] = cli.main(["run", "--config", str(self.configs[scheme])])
        return codes, captured.getvalue()

    def _read(self, scheme: str):
        return output.read_history_csv(self.configs[scheme].parent / "out" / "history.csv")

    def check(self, out) -> list[str]:
        codes, console = out
        issues = []
        for scheme in self.order:
            if codes[scheme] != 0:
                issues.append(f"{scheme}: exit code {codes[scheme]}: {console.strip()[-300:]}")
                continue
            history = self._read(scheme)
            if [rec.step for rec in history] != list(range(DESK_STEPS + 1)):
                issues.append(f"{scheme}: history.csv does not hold steps 0..{DESK_STEPS}")
                continue
            report = diagnostics.assert_invariants(history, SchemeKind(scheme))
            if not report.all_passed:
                issues.append(f"{scheme}: invariants: {report}")
            out_dir = self.configs[scheme].parent / "out"
            snaps = sorted(p.name for p in out_dir.glob("snapshot_*.dat"))
            expected = [f"snapshot_{s:08d}.dat" for s in range(0, DESK_STEPS + 1, DESK_SNAPSHOT_EVERY)]
            if snaps != expected:
                issues.append(f"{scheme}: snapshots {snaps}, expected {expected}")
            else:
                phi, t = output.read_snapshot(out_dir / expected[-1])
                mass = grid.integrate(phi)
                if not (_close(t, history[-1].t, 1e-12) and _close(mass, history[-1].mass, 1e-12)):
                    issues.append(f"{scheme}: final snapshot (t={t}, mass={mass}) disagrees with history.csv")
            if self.reference is not None:
                issues += _compare_record(scheme, history[-1], self.reference[scheme])
        return issues

    def reference_values(self, out) -> dict:
        return {scheme: _record_values(self._read(scheme)[-1]) for scheme in self.schemes}

    def grid_points(self) -> int:
        return self.grid.nx * self.grid.ny


class Conv(Workload):
    name = "conv"
    schemes = ["1a", "1b", "2a", "2b"]
    reference_any_seed = True

    def __init__(self, seed: int, workdir: Path, use_reference: bool = True) -> None:
        super().__init__(seed, workdir, use_reference)
        self.order = list(self.schemes)
        self.rng.shuffle(self.order)

    def run(self):
        sweeps = {}
        for scheme in self.order:
            kind = SchemeKind(scheme)
            histories = []
            for dt in CONV_DTS:
                spec = problems.manufactured_spec(dt=dt)
                n_steps = int(round((spec.tf - spec.t0) / dt))
                result = runner.run_simulation(spec, kind, history_every=n_steps, exact_history=True)
                histories.append(result.history)
            l2 = [h[-1].l2_err for h in histories]
            sweeps[scheme] = (histories, l2, diagnostics.fit_convergence_order(CONV_DTS, l2))
        return sweeps

    def check(self, sweeps) -> list[str]:
        issues = []
        for scheme in self.order:
            histories, l2, slope = sweeps[scheme]
            for dt, history in zip(CONV_DTS, histories):
                report = diagnostics.assert_invariants(history, SchemeKind(scheme))
                if not report.all_passed:
                    issues.append(f"{scheme} dt={dt:g}: invariants: {report}")
            if not slope >= MIN_ORDER[scheme]:
                issues.append(f"{scheme}: fitted order {slope:.4f} < {MIN_ORDER[scheme]}")
            if self.reference is not None:
                ref = self.reference[scheme]
                if not all(_close(a, b, L2_RTOL) for a, b in zip(l2, ref["l2_err"])):
                    issues.append(f"{scheme}: l2 errors {l2} != reference {ref['l2_err']}")
                if not abs(slope - ref["order"]) <= SLOPE_ATOL:
                    issues.append(f"{scheme}: fitted order {slope!r} != reference {ref['order']!r}")
        return issues

    def reference_values(self, sweeps) -> dict:
        return {scheme: {"l2_err": l2, "order": slope} for scheme, (_, l2, slope) in sweeps.items()}

    def grid_points(self) -> int:
        spec = problems.manufactured_spec()
        return spec.grid.nx * spec.grid.ny


WORKLOADS = {w.name: w for w in (Paper, Desk, Conv)}
