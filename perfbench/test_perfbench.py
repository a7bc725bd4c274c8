"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from calibrate import Calibration, Loop  # noqa: E402
from spans import SpanLog, self_times, within  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_names_and_units_match_benchmark_json():
    run.load_solver()
    from workloads import WORKLOADS

    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == {k: v[0] for k, v in run.END_TO_END.items()}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == {k: v[0] for k, v in run.PER_LAYER.items()}


def test_self_time_on_nested_spans():
    # A [0,10] holds B [1,4] and D [5,9]; B holds C [2,3].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(self_times(end - start, parent), [3.0, 2.0, 1.0, 4.0])
    assert within(parent, np.array([False, True, False, False])).tolist() == [False, True, True, False]


def test_span_log_records_parents_and_raising_calls():
    log = SpanLog()

    def leaf():
        raise ValueError("boom")

    traced_leaf = log.wrap("leaf", leaf)

    def outer():
        with pytest.raises(ValueError):
            traced_leaf()
        return 7

    assert log.wrap("outer", outer)() == 7
    spans = log.arrays()
    assert [spans.names[i] for i in spans.name_id] == ["outer", "leaf"]
    assert spans.parent.tolist() == [-1, 0]
    assert np.all(spans.duration >= 0) and spans.self_time[0] <= spans.duration[0]


def test_cross_check_catches_an_unwrapped_transform():
    run.load_solver()
    from cahnpav.problems import manufactured_spec
    from cahnpav.runner import run_simulation
    from cahnpav.schemes import SchemeKind

    class Escaping:
        def prepare(self):
            pass

        def run(self):
            np.fft.fft2(np.zeros((4, 4)))  # a transform outside GridSpec
            return run_simulation(manufactured_spec(dt=0.1), SchemeKind.PAV_2A, n_steps=2)

        def check(self, out):
            return []

    instruments = run.Instruments(SpanLog())
    (op,) = run.run_ops(Escaping(), instruments, Calibration(Loop(n=8, iterations=2, reference_s=1.0)), 0.0, full=True)
    assert any("transform cross-check" in issue for issue in op.issues)


def test_calibration_scales_times_by_the_loop_speed():
    calibration = Calibration(Loop(n=20, iterations=5, reference_s=0.5))
    assert calibration.times == []
    assert calibration.run_loop() > 0 and len(calibration.times) == 1
    # A loop twice as slow as the reference halves the times.
    assert calibration.scale(0.8, 1.2) == pytest.approx(0.5)

    log = SpanLog()
    step = log.wrap(run.STEP + ".1a", lambda: None)
    for _ in range(4):
        step()
    op = run.Op(wall=2.0, lo=0, hi=len(log), issues=[], scale=0.5)
    scaled, _ = run.end_to_end(log, [op])
    raw, _ = run.end_to_end(log, [op], scaled=False)
    assert scaled["wall_s"] == pytest.approx(1.0) and raw["wall_s"] == pytest.approx(2.0)
    assert scaled["steps_per_s"] == pytest.approx(4.0) and raw["steps_per_s"] == pytest.approx(2.0)
    assert scaled["step_ms_p50"] == pytest.approx(0.5 * raw["step_ms_p50"])


def test_refuses_to_run_without_solver_source(monkeypatch):
    monkeypatch.setattr(run, "ROOT", HERE / "no-such-checkout")
    with pytest.raises(SystemExit):
        run.load_solver()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_short_traced_run_has_no_failures(workload):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    if workload == "paper":
        assert result["metrics"]["grid.transforms_per_step"]["value"] == 9


def test_short_untraced_run_reports_end_to_end_metrics():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "conv", "--seconds", "0", "--seed", "5"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
