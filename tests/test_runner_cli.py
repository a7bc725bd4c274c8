"""End-to-end tests for the simulation driver and the command-line interface."""

import dataclasses
import json
import math

import numpy as np
import pytest

from cahnpav import (
    Diverged,
    NonPositiveEnergy,
    ProblemSpec,
    SchemeKind,
    ValidationError,
    desk_scale_drop_spec,
    manufactured_spec,
    run_simulation,
)
from cahnpav.cli import main
from cahnpav.model import potential_integral
from cahnpav.output import read_history_csv, read_snapshot
from cahnpav.problems import exact_solution
from cahnpav.runner import seed_exact_history
from cahnpav.schemes import STEPPERS, Level

DESK = desk_scale_drop_spec()
# E[phi^0] ~ 941 > 0 on the desk preset, but int H(phi^0) + c0 ~ -941
SAV_ONLY_BAD_C0 = -3015.34
# int H(phi^0) + c0 = 0.5: sav starts, and int H(phi_bar) + c0 turns negative mid-run
SAV_MID_RUN_C0 = -2073.4398171253597


def with_c0(problem, c0):
    return dataclasses.replace(problem, params=dataclasses.replace(problem.params, c0=c0))


def written(root):
    """History and snapshot files anywhere under root: an exit-2 run writes none."""
    return sorted(p.name for pattern in ("history*.csv", "snapshot_*.dat") for p in root.rglob(pattern))


class TestRunSimulation:
    def test_history_cadence_and_times(self, tmp_path):
        # a record's t and its snapshot's are exactly t0 + step * dt, not a running sum
        problem = manufactured_spec(dt=0.05)
        result = run_simulation(
            problem, SchemeKind.PAV_1A, n_steps=10, history_every=3, snapshot_every=3, output_dir=tmp_path
        )
        steps = [rec.step for rec in result.history]
        assert steps == [0, 3, 6, 9, 10]  # step 0, every 3rd, final
        for rec in result.history:
            assert rec.t == problem.t0 + rec.step * 0.05
            _, t = read_snapshot(tmp_path / f"snapshot_{rec.step:08d}.dat")
            assert t == rec.t

    @pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda k: k.value)
    def test_run_continued_by_hand_is_bit_identical(self, scheme):
        # k steps by run_simulation, then N - k by the stepper with the same
        # source, end exactly where N uninterrupted steps do
        problem, k = manufactured_spec(dt=0.05), 7
        full = run_simulation(problem, scheme, exact_history=True).final_state
        state = run_simulation(problem, scheme, n_steps=k, exact_history=True).final_state
        source = problem.source()
        for _ in range(problem.n_steps - k):
            state = STEPPERS[scheme](state, problem.dt, problem.params, source)
        assert state.step == full.step == problem.n_steps
        assert state.time() == full.time() == problem.tf
        assert state.xi == full.xi
        for mine, theirs in ((state.cur, full.cur), (state.prev, full.prev)):
            assert np.array_equal(mine.phi.values, theirs.phi.values)
            assert mine.r == theirs.r
            assert mine.sav_r == theirs.sav_r

    def test_manufactured_records_errors(self):
        result = run_simulation(manufactured_spec(), SchemeKind.PAV_2A, n_steps=4)
        assert all(rec.linf_err is not None for rec in result.history)
        assert all(rec.l2_err is not None for rec in result.history)

    def test_drop_records_have_no_errors(self):
        result = run_simulation(desk_scale_drop_spec(), SchemeKind.PAV_1A, n_steps=2)
        assert all(rec.linf_err is None for rec in result.history)

    @pytest.mark.parametrize("scheme", list(SchemeKind), ids=lambda k: k.value)
    def test_records_have_the_columns_of_their_scheme(self, scheme):
        # r and xi exactly for the PAV schemes, sav_r exactly for sav
        pav, sav = scheme.value in ("1a", "1b", "2a", "2b"), scheme.value == "sav"
        result = run_simulation(manufactured_spec(), scheme, n_steps=3)
        for rec in result.history:
            assert (rec.r is not None, rec.xi is not None, rec.sav_r is not None) == (pav, pav, sav)
        assert result.history[0].xi == (1.0 if pav else None)

    def test_deterministic(self):
        problem = manufactured_spec()
        a = run_simulation(problem, SchemeKind.PAV_2B, n_steps=6)
        b = run_simulation(problem, SchemeKind.PAV_2B, n_steps=6)
        assert a.history == b.history

    def test_early_stop_records_the_last_finished_step(self, tmp_path):
        # semi diverges at step 28, which neither cadence reaches: the history
        # and the snapshots still end at the last finished step, 27
        result = run_simulation(
            desk_scale_drop_spec(dt=0.05),
            SchemeKind.SEMI_IMPLICIT,
            n_steps=60,
            history_every=7,
            snapshot_every=5,
            output_dir=tmp_path,
        )
        assert result.diverged and result.final_state.step == 27
        assert [rec.step for rec in result.history] == [0, 7, 14, 21, 27]
        snaps = sorted(p.name for p in tmp_path.glob("snapshot_*.dat"))
        assert snaps == [f"snapshot_{step:08d}.dat" for step in (0, 5, 10, 15, 20, 25, 27)]

    def test_diverged_keeps_partial_history(self):
        # the semi-implicit baseline blows up quickly at this step size
        result = run_simulation(desk_scale_drop_spec(dt=0.05), SchemeKind.SEMI_IMPLICIT, n_steps=60)
        assert result.diverged
        assert result.diverged_step is not None
        assert len(result.history) >= 2  # step 0 plus everything before the blow-up
        assert result.history[-1].step < 60
        assert all(np.isfinite(rec.energy) for rec in result.history)

    @pytest.mark.parametrize(
        "problem,dt,kwargs",
        [
            (dataclasses.replace(manufactured_spec(), tf=0.5), 0.3, {}),  # one step would end at t = 0.4
            (desk_scale_drop_spec(), -1e-3, dict(n_steps=2)),  # would run backward
        ],
        ids=["dt-not-dividing-window", "negative-dt"],
    )
    def test_bad_dt_refused_before_stepping(self, problem, dt, kwargs):
        # the negative dt is refused by the spec itself, inside replace
        with pytest.raises(ValidationError) as excinfo:
            run_simulation(dataclasses.replace(problem, dt=dt), SchemeKind.PAV_1A, **kwargs)
        assert excinfo.value.field == "dt"

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_n_steps_below_one_refused(self, n_steps):
        with pytest.raises(ValidationError) as excinfo:
            run_simulation(manufactured_spec(), SchemeKind.PAV_1A, n_steps=n_steps)
        assert excinfo.value.field == "n_steps"

    @pytest.mark.parametrize("name,value", [("n_steps", 2.5), ("history_every", 1.5), ("snapshot_every", 2.5)])
    def test_non_integer_count_refused(self, tmp_path, name, value):
        # n_steps=2.5 raised TypeError, history_every=1.5 recorded steps 0, 3, 6, 9, 10
        # and snapshot_every=2.5 wrote snapshots 0, 5, 10
        with pytest.raises(ValidationError, match=rf"must be an integer, got {value}$") as excinfo:
            run_simulation(manufactured_spec(dt=0.1), SchemeKind.PAV_2A, output_dir=tmp_path, **{name: value})
        assert excinfo.value.field == name
        assert not written(tmp_path)

    @pytest.mark.parametrize(
        "scheme", [k for k in SchemeKind if k is not SchemeKind.SAV], ids=lambda k: k.value
    )
    def test_sav_energy_rule_does_not_apply_to_other_schemes(self, scheme):
        result = run_simulation(with_c0(DESK, SAV_ONLY_BAD_C0), scheme, n_steps=3)
        assert result.failure is None
        assert [rec.step for rec in result.history] == [0, 1, 2, 3]

    def test_sav_refused_before_first_step(self):
        with pytest.raises(NonPositiveEnergy, match="potential energy"):
            run_simulation(with_c0(DESK, SAV_ONLY_BAD_C0), SchemeKind.SAV, n_steps=3)

    def test_sav_mid_run_failure_is_reported(self):
        assert SAV_MID_RUN_C0 == pytest.approx(0.5 - potential_integral(DESK.initial_condition(), DESK.params))
        problem = dataclasses.replace(with_c0(DESK, SAV_MID_RUN_C0), dt=1e-2)
        result = run_simulation(problem, SchemeKind.SAV, n_steps=200)
        assert isinstance(result.failure, NonPositiveEnergy)
        assert 1 <= result.final_state.step < 200
        assert [rec.step for rec in result.history] == list(range(result.final_state.step + 1))

    def test_runtime_failure_keeps_partial_history(self):
        # E[phi^0] > 0 at c0 = -0.95, but the 12th 2a step drives the energy below 0
        problem = with_c0(manufactured_spec(), -0.95)
        result = run_simulation(problem, SchemeKind.PAV_2A)
        assert isinstance(result.failure, NonPositiveEnergy)
        assert not result.diverged and result.diverged_step is None
        assert [rec.step for rec in result.history] == list(range(12))
        assert result.final_state.step == 11

    def test_exact_history_changes_second_order_start(self):
        problem = manufactured_spec(dt=0.05)
        cold = run_simulation(problem, SchemeKind.PAV_2A, n_steps=1)
        seeded = run_simulation(problem, SchemeKind.PAV_2A, n_steps=1, exact_history=True)
        assert seeded.history[-1].l2_err < cold.history[-1].l2_err

    def test_real_histories_satisfy_invariant_checker(self):
        from cahnpav import assert_invariants

        problem = desk_scale_drop_spec(dt=1e-2)
        for scheme in (SchemeKind.PAV_1A, SchemeKind.PAV_2B, SchemeKind.SAV):
            result = run_simulation(problem, scheme, n_steps=30)
            assert assert_invariants(result.history, scheme).all_passed

    def test_exact_history_seeds_the_whole_previous_level(self):
        # every field of the level at t0 - dt, the SAV auxiliary r1 included
        problem = manufactured_spec(dt=0.05)
        seeded = seed_exact_history(problem)
        phi_m1 = exact_solution(problem.t0 - 0.05, problem.grid)
        assert seeded.sav_r == math.sqrt(potential_integral(phi_m1, problem.params) + problem.params.c0)
        expected = Level.from_field(phi_m1, problem.params)
        assert np.array_equal(seeded.phi.values, expected.phi.values)
        assert np.array_equal(seeded.mu.values, expected.mu.values)
        for name in ("energy", "dissipation", "r", "sav_r"):
            assert getattr(seeded, name) == getattr(expected, name), name

    def test_exact_history_rejected_for_drop_problem(self):
        # a ValidationError is a SolverError, which cli.main reports as exit 2, not a traceback
        with pytest.raises(ValidationError) as excinfo:
            run_simulation(
                desk_scale_drop_spec(), SchemeKind.PAV_2A, n_steps=1, exact_history=True
            )
        assert excinfo.value.field == "exact_history"

    def test_exact_history_refused_before_the_initial_field_is_built(self, monkeypatch):
        def fail(self):
            raise AssertionError("initial field built before the exact_history refusal")

        monkeypatch.setattr(ProblemSpec, "initial_condition", fail)
        with pytest.raises(ValidationError) as excinfo:
            run_simulation(desk_scale_drop_spec(), SchemeKind.PAV_2A, n_steps=1, exact_history=True)
        assert excinfo.value.field == "exact_history"

    def test_snapshots_written(self, tmp_path):
        run_simulation(
            manufactured_spec(),
            SchemeKind.PAV_1A,
            n_steps=4,
            snapshot_every=2,
            output_dir=tmp_path,
        )
        snaps = sorted(tmp_path.glob("snapshot_*.dat"))
        assert [s.name for s in snaps] == [
            "snapshot_00000000.dat",
            "snapshot_00000002.dat",
            "snapshot_00000004.dat",
        ]
        field, t = read_snapshot(snaps[0])
        assert field.grid.shape == (20, 20)
        assert t == pytest.approx(0.1)

    def test_negative_snapshot_every_refused(self, tmp_path):
        with pytest.raises(ValidationError) as excinfo:
            run_simulation(
                manufactured_spec(), SchemeKind.PAV_1A, n_steps=5, snapshot_every=-2, output_dir=tmp_path
            )
        assert excinfo.value.field == "snapshot_every"
        assert not written(tmp_path)

    def test_zero_history_every_refused(self):
        with pytest.raises(ValidationError, match="must be >= 1, got 0") as excinfo:
            run_simulation(manufactured_spec(), SchemeKind.PAV_1A, n_steps=5, history_every=0)
        assert excinfo.value.field == "history_every"

    def test_snapshot_every_without_output_dir_refused(self):
        # a snapshot request with nowhere to write is refused, not ignored
        with pytest.raises(ValidationError) as excinfo:
            run_simulation(manufactured_spec(), SchemeKind.PAV_1A, n_steps=2, snapshot_every=1)
        assert excinfo.value.field == "output_dir"


@pytest.fixture()
def mfg_config(tmp_path):
    def write(**overrides):
        doc = {
            "problem": {"kind": "manufactured"},
            "scheme": "2a",
            "time": {"dt": 0.05},
            "output": {"dir": str(tmp_path / "out")},
        }
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        return path

    return write


# The command-line tables: every check of the console script is a row of
# REFUSALS or RUNS. Each row runs from an empty work/ beside the CONFIGS files;
# tier-1 runs it in-process and CI through the installed console script.
#
# REFUSALS: argv, and the start of the one line it prints after "error: ": the
# field and the reason, or the reason alone for a refusal that names no field.
# The run exits 2 with nothing on stdout and nothing in work/.
REFUSALS = {
    "run-missing-config": (["run", "--config", "missing.json"], "config: cannot read"),
    "convergence-dts-not-a-number": (
        ["convergence", "--scheme", "1a", "--dts", "0.1,abc,0.05"],
        "dts: could not convert string to float: 'abc'",
    ),
    "convergence-too-few-dts": (
        ["convergence", "--scheme", "1a", "--dts", "0.1,0.05"], "dts: need at least 3 step sizes"
    ),
    "convergence-dt-not-dividing-window": (  # 0.3 does not divide [0.1, 1.1]
        ["convergence", "--scheme", "1a", "--dts", "0.3,0.1,0.05"], "dts: 0.3 does not divide"
    ),
    "convergence-unknown-scheme": (
        ["convergence", "--scheme", "xyz", "--dts", "0.1,0.05,0.025"],
        "scheme: unknown scheme 'xyz'; expected one of 1a, 1b, 2a, 2b, semi, sav",
    ),
    "compare-unknown-scheme": (
        ["compare", "--schemes", "2a,bogus", "--dt", "0.001", "--steps", "2"],
        "schemes: unknown scheme 'bogus'; expected one of 1a, 1b, 2a, 2b, semi, sav",
    ),
    "compare-empty-schemes": (
        ["compare", "--schemes", ",", "--dt", "0.001", "--steps", "2"], "schemes: empty list"
    ),
    "compare-negative-dt": (
        ["compare", "--schemes", "2a", "--dt", "-0.1", "--steps", "2"], "dt: must be positive, got -0.1"
    ),
    "compare-infinite-dt": (
        ["compare", "--schemes", "2a", "--dt", "inf", "--steps", "2"], "dt: must be finite, got inf"
    ),
    "compare-zero-steps": (
        ["compare", "--schemes", "2a", "--dt", "0.001", "--steps", "0"], "n_steps: must be >= 1, got 0"
    ),
    "compare-negative-steps": (
        ["compare", "--schemes", "2a,1a", "--dt", "0.001", "--steps", "-3"], "n_steps: must be >= 1, got -3"
    ),
    # argparse's refusals: a value of the wrong type and a missing option
    "compare-dt-not-a-number": (
        ["compare", "--schemes", "2a", "--dt", "abc", "--steps", "2"], "dt: invalid float value: 'abc'"
    ),
    "compare-steps-not-an-integer": (
        ["compare", "--schemes", "2a", "--dt", "0.001", "--steps", "2.5"], "steps: invalid int value: '2.5'"
    ),
    "compare-missing-steps": (["compare", "--schemes", "2a", "--dt", "0.001"], "steps: required"),
    "compare-repeated-scheme": (
        ["compare", "--schemes", "2a,1b,2a", "--dt", "0.001", "--steps", "2"], "schemes: repeated scheme '2a'"
    ),
    "run-invalid-json": (["run", "--config", "../bad.json"], "config: invalid JSON: Expecting property name"),
    "run-config-not-an-object": (["run", "--config", "../list.json"], "<document>: top level must be an object"),
    "run-unknown-preset": (["run", "--config", "../huge.json"], "problem.preset: unknown preset 'huge'"),
    "run-negative-snapshot-every": (["run", "--config", "../snap.json"], "output.snapshot_every: must be >= 0"),
    "run-coarse-manufactured-grid": (
        ["run", "--config", "../coarse.json"], "problem.nx: the manufactured source needs >= 8 points, got 6"
    ),
    # int H(phi^0) + c0 < 0 on the desk drops: only sav is refused, naming no field
    "run-sav-energy-rule": (["run", "--config", "../sav.json"], "potential energy + c0 = "),
    "run-sigma-and-beta": (["run", "--config", "../sigma.json"], "problem.sigma: give sigma or beta, not both"),
    "run-dt-not-dividing-window": (["run", "--config", "../tfdt.json"], "time.dt: 0.3 does not divide [0.1, 0.5]"),
    "run-eta-squared-overflows": (["run", "--config", "../eta.json"], "problem.eta: eta**2 overflows"),
    "run-drop-count-beyond-float": (
        ["run", "--config", "../count.json"],
        "problem.count_x: the drop lattice is wider than the domain length 4.0",
    ),
    "run-grid-numpy-cannot-size": (
        ["run", "--config", "../nx.json"], "problem.nx: too large: numpy cannot size an array of nx * ny points"
    ),
    "run-history-every-wrong-type": (
        ["run", "--config", "../every.json"], "output.history_every: expected int, got str"
    ),
    "run-unknown-time-key": (
        ["run", "--config", "../steps.json"], "time.steps: unknown key; expected one of t0, tf, dt"
    ),
    "run-unknown-scheme": (
        ["run", "--config", "../scheme.json"],
        "scheme: unknown scheme '9z'; expected one of 1a, 1b, 2a, 2b, semi, sav",
    ),
    "run-eta-squared-underflows": (
        ["run", "--config", "../tiny_eta.json"], "problem.eta: eta**2 underflows to 0 for eta = 1e-200"
    ),
    "run-drop-lattice-wider-than-domain": (
        ["run", "--config", "../wide.json"], "problem.count_x: the drop lattice is wider than the domain length 4.0"
    ),
    # (tf - t0) / dt is inf: round() raised an OverflowError
    "run-step-count-overflows": (
        ["run", "--config", "../span.json"], "time.dt: (tf - t0) / dt overflows for dt = 0.1"
    ),
    "convergence-step-count-overflows": (
        ["convergence", "--scheme", "2a", "--dts", "5e-324,0.1,0.05"], "dts: (tf - t0) / dt overflows for dt = 5e-324"
    ),
    # 5e8 steps or more: the whole-step test's round-off is half a step or more there
    "run-too-many-steps": (
        ["run", "--config", "../fine.json"], "time.dt: 9.999999995e-10 makes 1e+09 steps of [0.1, 1.1]"
    ),
    "convergence-too-many-steps": (
        ["convergence", "--scheme", "2a", "--dts", "1e-300,0.1,0.05"], "dts: 1e-300 makes 1e+300 steps of [0.1, 1.1]"
    ),
}


def refused_config(problem, scheme="2a", time=None, **output):
    """A config whose run would write out/ in the working directory, from its first snapshot on."""
    doc = {"problem": problem, "scheme": scheme, "output": {"snapshot_every": 1, **output}}
    if time is not None:
        doc["time"] = time
    return json.dumps(doc)


# the config files that REFUSALS and RUNS name, beside the working directory
CONFIGS = {
    "bad.json": "{oops",
    "list.json": "[]",
    "huge.json": refused_config({"kind": "drop_array", "preset": "huge"}),
    "snap.json": refused_config({"kind": "manufactured"}, snapshot_every=-1),
    "coarse.json": refused_config({"kind": "manufactured", "nx": 6, "ny": 6}),
    "sav.json": refused_config({"kind": "drop_array", "c0": SAV_ONLY_BAD_C0}, scheme="sav"),
    "sigma.json": refused_config({"kind": "drop_array", "sigma": 1e9, "beta": 0.01}),
    "tfdt.json": refused_config({"kind": "manufactured"}, time={"tf": 0.5, "dt": 0.3}),
    "eta.json": refused_config({"kind": "manufactured", "eta": 1e300}),
    "count.json": refused_config({"kind": "drop_array", "count_x": 10**400}),
    "nx.json": refused_config({"kind": "manufactured", "nx": 10**400}),
    "every.json": refused_config({"kind": "manufactured"}, history_every="7"),
    "steps.json": refused_config({"kind": "manufactured"}, time={"steps": 3}),
    "scheme.json": refused_config({"kind": "manufactured"}, scheme="9z", time={"dt": 0.05}),
    "tiny_eta.json": refused_config({"kind": "manufactured", "eta": 1e-200}, time={"dt": 0.05}),
    "wide.json": refused_config({"kind": "drop_array", "count_x": 20}),
    "span.json": refused_config({"kind": "manufactured"}, time={"t0": -1e308, "tf": 1e308, "dt": 0.1}),
    "fine.json": refused_config({"kind": "manufactured"}, time={"dt": 9.999999995e-10}),
    "mfg.json": json.dumps({"problem": {"kind": "manufactured"}, "scheme": "2a"}),
}


def workdir(root):
    """An empty root/work beside the CONFIGS files, where a row runs."""
    work = root / "work"
    work.mkdir(parents=True)
    for name, text in CONFIGS.items():
        (root / name).write_text(text)
    return work


def files(work):
    """Every file under work, by its path from there."""
    return sorted(p.relative_to(work).as_posix() for p in work.rglob("*") if p.is_file())


def converges(scheme, floor):
    """A sweep's check: both fitted slopes, linf and l2, reach floor, and the CSV has a row per dt."""

    def check(out, work):
        assert files(work) == [f"out/convergence_{scheme}.csv"], files(work)
        lines = [line for line in out.splitlines() if "fitted slope" in line]
        assert len(lines) == 1, out
        slopes = [float(part.partition("=")[2]) for part in lines[0].split()[-2:]]
        assert min(slopes) >= floor, lines[0]
        csv = (work / f"out/convergence_{scheme}.csv").read_text().splitlines()
        assert csv[0] == "dt,linf_err,l2_err" and len(csv) == 4, csv

    return check


def compares_every_scheme(out, work):
    # steps 0-3 of each scheme; r and xi filled exactly in the PAV histories, sav_r only in sav's
    assert files(work) == sorted(f"out/history_{kind.value}.csv" for kind in SchemeKind), files(work)
    for kind in SchemeKind:
        records = read_history_csv(work / f"out/history_{kind.value}.csv")
        assert [rec.step for rec in records] == [0, 1, 2, 3], kind
        filled = {(rec.r is not None, rec.xi is not None, rec.sav_r is not None) for rec in records}
        assert filled == {(kind.is_pav, kind.is_pav, kind is SchemeKind.SAV)}, (kind, filled)
    assert [line.partition(":")[0] for line in out.splitlines()] == [kind.value for kind in SchemeKind], out


def ends_at_tf(out, work):
    # step n is at t0 + n dt, not a running sum: the last of the 40 steps is at tf = 1.1
    assert files(work) == ["out/history.csv"], files(work)
    records = read_history_csv(work / "out/history.csv")
    assert [rec.step for rec in records] == list(range(41)), out
    assert records[-1].t == 1.1, records[-1].t


# RUNS: argv, and a check of what the run prints (its stdout) and writes (work/),
# which raises an AssertionError; the run exits 0 with nothing on stderr
RUNS = {
    **{
        f"convergence-{scheme}": (
            ["convergence", "--scheme", scheme, "--dts", "0.1,0.05,0.025", "--output-dir", "out"],
            converges(scheme, floor),
        )
        for scheme, floor in (("1a", 0.9), ("1b", 0.9), ("2a", 1.9), ("2b", 1.9), ("semi", 1.9), ("sav", 1.9))
    },
    "compare-every-scheme": (
        ["compare", "--schemes", "1a,1b,2a,2b,semi,sav", "--dt", "0.001", "--steps", "3", "--problem", "desk",
         "--output-dir", "out"],
        compares_every_scheme,
    ),
    "run-manufactured-to-tf": (["run", "--config", "../mfg.json"], ends_at_tf),
}


class TestCliRefusals:
    @pytest.mark.parametrize("argv,start", REFUSALS.values(), ids=REFUSALS.keys())
    def test_exits_2_writing_nothing(self, tmp_path, monkeypatch, capsys, argv, start):
        # exit 2, one stderr line naming the field, and no file or directory, not even out/
        work = workdir(tmp_path)
        monkeypatch.chdir(work)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith(f"error: {start}")
        assert not any(work.iterdir())

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["compare", "--help"])
        assert stop.value.code == 0
        assert "--steps" in capsys.readouterr().out


class TestCliRuns:
    @pytest.mark.parametrize("argv,check", RUNS.values(), ids=RUNS.keys())
    def test_exits_0_passing_its_check(self, tmp_path, monkeypatch, capsys, argv, check):
        work = workdir(tmp_path)
        monkeypatch.chdir(work)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        check(captured.out, work)


class TestCliRun:
    def test_run_determinism_byte_identical(self, mfg_config, tmp_path):
        path = mfg_config()
        main(["run", "--config", str(path)])
        first = (tmp_path / "out" / "history.csv").read_bytes()
        main(["run", "--config", str(path)])
        assert (tmp_path / "out" / "history.csv").read_bytes() == first

    def test_io_error_exits_1(self, mfg_config, tmp_path, capsys):
        # an output directory under a regular file: the run's first write raises an OSError
        (tmp_path / "file").write_text("")
        path = mfg_config(output={"dir": str(tmp_path / "file" / "out")})
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        [line] = captured.err.splitlines()
        assert line.startswith("io error: ")

    def test_sav_energy_rule_exits_2_before_writing(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "drop_array", "c0": SAV_ONLY_BAD_C0},
            "scheme": "sav",
            "time": {"tf": 0.003},
            "output": {"dir": str(tmp_path / "out"), "snapshot_every": 1},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 2
        assert "error: potential energy + c0" in capsys.readouterr().err
        assert not written(tmp_path)
        assert not (tmp_path / "out").exists()
        doc["scheme"] = "2a"  # the rule is sav's alone
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 0
        assert [rec.step for rec in read_history_csv(tmp_path / "out" / "history.csv")] == [0, 1, 2, 3]

    def test_sav_mid_run_failure_exits_4_with_partial_history(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "drop_array", "c0": SAV_MID_RUN_C0},
            "scheme": "sav",
            "time": {"dt": 1e-2, "tf": 2.0},
            "output": {"dir": str(tmp_path / "out")},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 4
        err = capsys.readouterr().err
        assert "sav failed at step" in err and "potential energy + c0" in err
        records = read_history_csv(tmp_path / "out" / "history.csv")
        assert 2 <= len(records) < 201
        assert [rec.step for rec in records] == list(range(len(records)))

    def test_runtime_failure_exits_4_with_partial_history(self, mfg_config, tmp_path, capsys):
        # a failure after the first step is not a configuration error
        path = mfg_config(problem={"kind": "manufactured", "c0": -0.95}, time={})
        assert main(["run", "--config", str(path)]) == 4
        assert "2a failed at step 12: total energy" in capsys.readouterr().err
        records = read_history_csv(tmp_path / "out" / "history.csv")
        assert [rec.step for rec in records] == list(range(12))

    def test_diverged_baseline_exits_3(self, tmp_path, capsys):
        doc = {
            "problem": {"kind": "drop_array"},
            "scheme": "semi",
            "time": {"dt": 0.05, "tf": 3.0},
            "output": {"dir": str(tmp_path / "out")},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 3
        assert "diverged" in capsys.readouterr().err
        # rows up to the divergence are all present
        records = read_history_csv(tmp_path / "out" / "history.csv")
        assert len(records) > 1

    def test_early_stop_writes_the_last_finished_step(self, tmp_path, capsys):
        # as in TestRunSimulation: semi diverges at step 28 of this run
        out = tmp_path / "out"
        doc = {
            "problem": {"kind": "drop_array"},
            "scheme": "semi",
            "time": {"dt": 0.05, "tf": 3.0},
            "output": {"dir": str(out), "history_every": 7, "snapshot_every": 5},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run", "--config", str(path)]) == 3
        assert "diverged" in capsys.readouterr().err
        assert [rec.step for rec in read_history_csv(out / "history.csv")] == [0, 7, 14, 21, 27]
        assert (out / "snapshot_00000027.dat").exists()


class TestCliConvergence:
    @staticmethod
    def sweep_stopping_at_step_3(monkeypatch, tmp_path, capsys, kind, error):
        """Run a sweep whose first run, at the largest dt, raises ``error`` at its
        third step: it writes no CSV. Returns the exit code and stderr."""
        step, calls = STEPPERS[kind], []

        def stopping(state, *args, **kwargs):
            calls.append(state.step)
            if len(calls) == 3:
                raise error
            return step(state, *args, **kwargs)

        monkeypatch.setitem(STEPPERS, kind, stopping)
        out = tmp_path / "out"
        code = main(["convergence", "--scheme", kind.value, "--dts", "0.025,0.1,0.05", "--output-dir", str(out)])
        captured = capsys.readouterr()
        assert "fitted slope" not in captured.out
        assert calls == [0, 1, 2] and not out.exists()
        return code, captured.err

    def test_failed_run_exits_4_writing_no_csv(self, tmp_path, monkeypatch, capsys):
        error = NonPositiveEnergy("energy went negative")
        assert self.sweep_stopping_at_step_3(monkeypatch, tmp_path, capsys, SchemeKind.PAV_2A, error) == (
            4, "error: dt=0.1: 2a failed at step 3: energy went negative\n"
        )

    def test_diverged_run_exits_3_writing_no_csv(self, tmp_path, monkeypatch, capsys):
        # as run and compare do: a diverged baseline is exit 3, not a runtime failure
        error = Diverged("non-finite field")
        assert self.sweep_stopping_at_step_3(monkeypatch, tmp_path, capsys, SchemeKind.SEMI_IMPLICIT, error) == (
            3, "error: dt=0.1: semi diverged at step 3: non-finite field\n"
        )


class TestCliCompare:
    def test_compare_diverging_baseline_exits_3(self, tmp_path, capsys):
        code = main(
            ["compare", "--schemes", "semi", "--dt", "0.05", "--steps", "60",
             "--problem", "desk", "--output-dir", str(tmp_path)]
        )
        assert code == 3
        assert "DIVERGED" in capsys.readouterr().out
        assert (tmp_path / "history_semi.csv").exists()
