"""Simulation driver shared by the CLI and the test suites."""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral
from pathlib import Path

from .diagnostics import HistoryRecord, error_norms
from .errors import Diverged, SolverError, ValidationError
from .grid import h2_norm, integrate
from .model import potential_integral
from .output import write_snapshot
from .problems import ProblemSpec, exact_solution
from .schemes import SCHEMES, STEPPERS, Level, Scheme, SchemeKind, SchemeState, init_state, sav_energy


@dataclass(frozen=True)
class RunResult:
    history: list[HistoryRecord]
    final_state: SchemeState
    failure: SolverError | None  # raised by step final_state.step + 1; None if completed

    @property
    def diverged(self) -> bool:
        return isinstance(self.failure, Diverged)

    @property
    def diverged_step(self) -> int | None:
        return self.final_state.step + 1 if self.diverged else None


def _record(problem: ProblemSpec, row: Scheme, state: SchemeState) -> HistoryRecord:
    t = state.time()
    cur = state.cur
    phi = cur.phi
    linf = l2 = None
    if problem.has_exact:
        linf, l2 = error_norms(phi, exact_solution(t, problem.grid))
    return HistoryRecord(
        step=state.step,
        t=t,
        mass=integrate(phi),
        energy=cur.energy,
        r=cur.r if row.xi else None,
        xi=state.xi if row.xi else None,
        sav_r=cur.sav_r if row.sav else None,
        h2=h2_norm(phi),
        dissipation=cur.dissipation,
        linf_err=linf,
        l2_err=l2,
    )


def seed_exact_history(problem: ProblemSpec) -> Level:
    """The level of the exact solution at t0 - problem.dt, to replace the
    cold-start previous time level.

    Only meaningful for the manufactured problem.  The multistep schemes start
    with phi^{-1} = phi^0 by definition, an inconsistent first step whose O(dt)
    error persists to the end of the run: measured, it makes the order-2 rows
    first order, on drop runs too.  Convergence sweeps therefore seed the
    history from the known solution.
    """
    if not problem.has_exact:
        raise ValidationError("exact_history", "seeding needs a problem with an exact solution, not drops")
    return Level.from_field(exact_solution(problem.t0 - problem.dt, problem.grid), problem.params)


def run_simulation(
    problem: ProblemSpec,
    scheme: SchemeKind,
    *,
    n_steps: int | None = None,
    history_every: int = 1,
    snapshot_every: int = 0,
    output_dir: Path | None = None,
    exact_history: bool = False,
) -> RunResult:
    """Advance the problem n_steps times, collecting history records.

    Steps are of size ``problem.dt``; ``n_steps`` defaults to ``problem.n_steps``.
    ``n_steps`` and ``history_every`` must be integers >= 1, ``snapshot_every``
    an integer >= 0.  A bad argument, or an initial state the scheme cannot
    start from, raises before the first step.  A SolverError raised by a step,
    such as a Diverged baseline, is caught and reported as the result's
    ``failure``.  Completed or not, the run records its last finished step and,
    when snapshots are on, writes its snapshot, whatever the cadences.
    """
    dt = problem.dt
    if n_steps is None:
        n_steps = problem.n_steps
    counts = (("n_steps", n_steps, 1), ("history_every", history_every, 1), ("snapshot_every", snapshot_every, 0))
    for name, value, least in counts:
        if not isinstance(value, Integral) or isinstance(value, bool):  # a bool is an Integral
            raise ValidationError(name, f"must be an integer, got {value!r}")
        if value < least:
            raise ValidationError(name, f"must be >= {least}, got {value}")
    if snapshot_every and output_dir is None:
        raise ValidationError("output_dir", f"snapshot_every={snapshot_every} needs a directory to write to")
    step_fn, row = STEPPERS[scheme], SCHEMES[scheme]
    params = problem.params

    seeded = seed_exact_history(problem) if exact_history else None
    state = init_state(problem.initial_condition(), params, problem.t0)
    if row.sav:
        sav_energy(potential_integral(state.cur.phi, params), params)  # NonPositiveEnergy: sav cannot start from phi^0
    if seeded is not None:
        state = replace(state, prev=seeded, dt_prev=dt)
    source = problem.source()

    def snapshot(state: SchemeState) -> None:
        write_snapshot(state.cur.phi, state.time(), Path(output_dir) / f"snapshot_{state.step:08d}.dat")

    history = [_record(problem, row, state)]
    if snapshot_every:
        snapshot(state)

    failure = None
    for _ in range(n_steps):
        try:
            state = step_fn(state, dt, params, source)
        except SolverError as exc:
            failure = exc
            break
        if state.step % history_every == 0:
            history.append(_record(problem, row, state))
        if snapshot_every and state.step % snapshot_every == 0:
            snapshot(state)
    if history[-1].step != state.step:  # the last finished step, completed or not
        history.append(_record(problem, row, state))
    if snapshot_every and state.step % snapshot_every:
        snapshot(state)

    return RunResult(history=history, final_state=state, failure=failure)
