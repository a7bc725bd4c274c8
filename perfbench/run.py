"""Benchmark of the cahnpav solver.

    python3 perfbench/run.py --workload {paper,desk,conv} [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout: the solver is imported from the
checkout's ``src`` directory.  One process, one workload, one caller in a
closed loop: the next operation starts when the previous one returns, and no
worker threads are started.  After one warm-up operation, operations repeat
until ``--seconds`` have passed.  Every operation's outputs are checked
(see ``workloads.py``); an operation that raises or fails its check counts
as failed.

``--trace 0`` reports the end-to-end metrics.  Only set-up calls and the
stepper entries in ``schemes.STEPPERS`` are timed, two clock reads each.
Their times are scaled to a reference host speed by a fixed loop timed
before the first operation and after each one (see ``calibrate.py``); the
raw times are printed and recorded beside them.

``--trace 1`` reports the per-layer metrics.  Operations alternate between
the light timing above and a span around every function listed in
``Instruments``; the spans are kept in memory and written to
``out/<workload>-spans.npz`` at the end.  ``trace.overhead_pct`` compares
the steps/s of the two kinds of operation.
Counts (unit ``count``) cover calls inside the steppers only; times and
bytes cover every call outside set-up, ``problems.ic_s`` aside.  Each
description in ``PER_LAYER`` says whether a time is self time (the span
minus its child spans) or inclusive.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, ``fail_frac``, and the environment.
The full record goes to ``out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import pkgutil
import platform
import resource
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from calibrate import LOOPS, Calibration
from spans import SpanLog, instrument

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Every time below is scaled to the reference host speed per operation.
END_TO_END = {
    "wall_s": ("s", "wall time of one operation (median over operations)"),
    "setup_s": ("s", "initial condition, init_state, exact-history seeding and config parsing per operation (median)"),
    "steps_per_s": ("1/s", "steps per second of operation time excluding set-up (median over operations)"),
    "step_ms_p50": ("ms", "median time of one stepper call: per scheme, mean over schemes, median over operations"),
    "step_ms_p90": ("ms", "90th percentile time of one stepper call: per scheme, mean over schemes, median over operations"),
    "peak_rss_mb": ("MB", "peak resident set size of the benchmark process"),
}

PER_LAYER = {
    "grid.transforms_per_step": ("count", "GridSpec.fft + GridSpec.ifft calls inside steppers, per step"),
    "grid.fft_ms_per_step": ("ms", "GridSpec.fft/ifft self time per step"),
    "grid.fft_bytes_per_step": ("bytes", "computed: input + output array bytes of GridSpec.fft/ifft per step"),
    "grid.reduce_ms_per_step": ("ms", "integrate, grad_sq_integral, h2_norm self time per step"),
    "model.h_ms_per_step": ("ms", "potential_h time (no child spans) per step"),
    "model.energy_calls_per_step": ("count", "energy_total + dissipation calls inside steppers, per step"),
    "model.energy_ms_per_step": ("ms", "energy_total + dissipation time (inclusive) per step"),
    "schemes.step_self_ms": ("ms", "stepper self time per step"),
    "schemes.solve_ms_per_step": ("ms", "solve_linear_step self time per step"),
    "schemes.solves_per_step": ("count", "solve_linear_step calls inside steppers, per step"),
    "problems.ic_s": ("s", "ProblemSpec.initial_condition time (inclusive) per call"),
    "problems.source_ms_per_step": ("ms", "source_term time (inclusive) per step"),
    "runner.self_ms_per_step": ("ms", "run_simulation self time per step"),
    "runner.record_ms_per_step": ("ms", "record calls (energy, h2, mass, error) made by run_simulation itself, inclusive, per step"),
    "output.snapshot_ms": ("ms", "write_snapshot time (inclusive) per operation"),
    "output.snapshot_bytes": ("bytes", "snapshot bytes written per operation"),
    "output.csv_ms": ("ms", "write_history_csv time (inclusive) per operation"),
    "output.csv_bytes": ("bytes", "history.csv bytes written per operation"),
    "trace.overhead_pct": ("%", "untraced steps/s over traced steps/s, minus one"),
}

STEP = "schemes.step"  # stepper spans are named schemes.step.<scheme>
SETUP = ("cli.parse_config", "problems.initial_condition", "schemes.init_state", "runner.seed_exact_history")
FFT = ("grid.fft", "grid.ifft")
REDUCE = ("grid.integrate", "grid.grad_sq_integral", "grid.h2_norm")
ENERGY = ("model.energy_total", "model.dissipation")
RECORD = ENERGY + ("grid.integrate", "grid.h2_norm", "diagnostics.error_norms", "problems.exact_solution")
NUMPY_TRANSFORMS = ("fft2", "ifft2", "rfft2", "irfft2", "fftn", "ifftn", "rfftn", "irfftn")


def load_solver():
    """Import every cahnpav module from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "cahnpav" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no solver source at {src / 'cahnpav'}")
    sys.path.insert(0, str(src))
    import cahnpav

    if Path(cahnpav.__file__).resolve().parent != (src / "cahnpav").resolve():
        raise SystemExit(f"perfbench: imported cahnpav from {cahnpav.__file__}, not from {src}")
    for info in pkgutil.iter_modules(cahnpav.__path__):
        importlib.import_module(f"cahnpav.{info.name}")


def _written_bytes(args, kwargs, result) -> float:
    return float(os.path.getsize(kwargs.get("path", args[-1])))


def _fft_bytes(args, kwargs, result) -> float:
    return float(np.asarray(args[1]).nbytes + result.nbytes)


MEASURES = {
    "grid.fft": _fft_bytes,
    "grid.ifft": _fft_bytes,
    "output.write_snapshot": _written_bytes,
    "output.write_history_csv": _written_bytes,
}


class Instruments:
    """The wrappers of one run: light (set-up and steppers) or full (every layer).

    Full instrumentation also counts calls of numpy's 2-D and n-D transforms,
    whoever makes them, for the cross-check against the GridSpec spans.
    """

    def __init__(self, log: SpanLog) -> None:
        from cahnpav import cli, diagnostics, grid, model, output, problems, runner, schemes

        self.log = log
        light = {
            cli.parse_config: "cli.parse_config",
            schemes.init_state: "schemes.init_state",
            runner.seed_exact_history: "runner.seed_exact_history",
            **{fn: f"{STEP}.{kind.value}" for kind, fn in schemes.STEPPERS.items()},
        }
        layers = {
            runner.run_simulation: "runner.run_simulation",
            problems.source_term: "problems.source_term",
            problems.exact_solution: "problems.exact_solution",
            grid.integrate: "grid.integrate",
            grid.grad_sq_integral: "grid.grad_sq_integral",
            grid.h2_norm: "grid.h2_norm",
            model.potential_h: "model.potential_h",
            model.energy_total: "model.energy_total",
            model.dissipation: "model.dissipation",
            schemes.solve_linear_step: "schemes.solve_linear_step",
            diagnostics.error_norms: "diagnostics.error_norms",
            output.write_snapshot: "output.write_snapshot",
            output.write_history_csv: "output.write_history_csv",
        }
        light_methods = [self._method(problems.ProblemSpec, "initial_condition", SETUP[1])]
        self.light = self._wrapped(light), light_methods
        self.full = (
            {**self.light[0], **self._wrapped(layers), **self._counters()},
            light_methods + [self._method(grid.GridSpec, "fft", "grid.fft"), self._method(grid.GridSpec, "ifft", "grid.ifft")],
        )
        self.numpy_transforms = 0

    def _wrapped(self, named: dict) -> dict:
        return {id(fn): (fn, self.log.wrap(name, fn, MEASURES.get(name))) for fn, name in named.items()}

    def _method(self, cls, attr: str, name: str):
        return cls, attr, self.log.wrap(name, cls.__dict__[attr], MEASURES.get(name))

    def _counters(self) -> dict:
        table = {}
        for name in NUMPY_TRANSFORMS:
            fn = getattr(np.fft, name)

            def counted(*args, _fn=fn, **kwargs):
                self.numpy_transforms += 1
                return _fn(*args, **kwargs)

            table[id(fn)] = (fn, counted)
        return table

    def active(self, full: bool):
        table, methods = self.full if full else self.light
        return instrument(table, methods, extra_modules=(np.fft,) if full else ())


@dataclass
class Op:
    """One operation: its wall time, its span range in the log, what went wrong.

    ``scale`` turns its raw times into times at the reference host speed.
    """

    wall: float
    lo: int
    hi: int
    issues: list[str]
    scale: float = 1.0


def run_ops(workload, instruments: Instruments, calibration: Calibration, seconds: float, full: bool) -> list[Op]:
    """Closed loop: start operations until ``seconds`` have passed (at least one).

    The calibration loop runs after each operation; its last timing, taken
    just before, serves as the first operation's "before".
    """
    log = instruments.log
    ops = []
    deadline = perf_counter() + seconds
    loop_before = calibration.times[-1] if calibration.times else calibration.run_loop()
    while not ops or perf_counter() < deadline:
        workload.prepare()
        lo = len(log)
        before = instruments.numpy_transforms
        out = error = None
        with instruments.active(full):
            t0 = perf_counter()
            try:
                out = workload.run()
            except Exception:  # an operation that raises is a failed operation
                error = traceback.format_exc()
            t1 = perf_counter()
        op = Op(t1 - t0, lo, len(log), [error] if error else [])
        if error is None:
            try:
                op.issues += workload.check(out)
            except Exception:
                op.issues.append(traceback.format_exc())
        if full:
            numpy_calls = instruments.numpy_transforms - before
            grid_calls = int(log.arrays([(op.lo, op.hi)]).is_named(*FFT).sum())
            if grid_calls != numpy_calls:
                op.issues.append(
                    f"transform cross-check: numpy.fft saw {numpy_calls} calls, GridSpec.fft/ifft spans {grid_calls}"
                )
        for issue in op.issues:
            print(f"perfbench: operation {len(ops)} failed: {issue}", file=sys.stderr)
        loop_after = calibration.run_loop()
        op.scale = calibration.scale(loop_before, loop_after)
        loop_before = loop_after
        ops.append(op)
    return ops


def _step_mask(spans) -> np.ndarray:
    return spans.is_named(*[name for name in spans.names if name.startswith(STEP + ".")])


def _setup_mask(spans) -> np.ndarray:
    """Outermost set-up spans (a set-up call made inside another is not counted twice)."""
    is_setup = spans.is_named(*SETUP)
    return is_setup & ~spans.parent_in(spans.within(is_setup))


def end_to_end(log: SpanLog, ops: list[Op], scaled: bool = True) -> tuple[dict, dict]:
    """End-to-end metric values and their sample counts; raw times when not ``scaled``."""
    walls, setups, rates, percentiles = [], [], [], []
    step_counts = {}  # scheme -> stepper calls over all operations
    for op in ops:
        scale = op.scale if scaled else 1.0
        spans = log.arrays([(op.lo, op.hi)])
        setup = float(spans.duration[_setup_mask(spans)].sum())
        steps = _step_mask(spans)
        walls.append(op.wall * scale)
        setups.append(setup * scale)
        rates.append(int(steps.sum()) / ((op.wall - setup) * scale))
        # Percentiles within each scheme, then the mean over schemes: a pooled
        # percentile would fall between the schemes' groups of step times.
        per_scheme = []
        for nid in np.unique(spans.name_id[steps]):
            times = spans.duration[spans.name_id == nid] * 1e3
            per_scheme.append(np.percentile(times, [50, 90]))
            scheme = spans.names[nid].removeprefix(STEP + ".")
            step_counts[scheme] = step_counts.get(scheme, 0) + len(times)
        percentiles.append(np.mean(per_scheme, axis=0) * scale)
    # The median over operations, as for the other times: on a host whose
    # speed switches between two levels, one percentile over all step times
    # of a run jumps between the levels, while this one moves with the share
    # of time spent at each.
    p50, p90 = np.median(percentiles, axis=0)
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "steps_per_s": statistics.median(rates),
        "step_ms_p50": float(p50),
        "step_ms_p90": float(p90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = dict.fromkeys(["wall_s", "setup_s", "steps_per_s"], len(ops))
    samples.update(step_ms_p50=step_counts, step_ms_p90=step_counts, peak_rss_mb=1)
    return values, samples


def per_layer(spans, n_ops: int, overhead_pct: float) -> dict:
    """Per-layer metrics over the spans of ``n_ops`` traced operations."""
    step = _step_mask(spans)
    in_step = spans.within(step)
    live = ~spans.within(_setup_mask(spans))
    from_runner = spans.parent_in(spans.is_named("runner.run_simulation"))
    n_steps = int(step.sum())

    def per_step_in_steppers(*names):
        return float((spans.is_named(*names) & in_step).sum()) / n_steps

    def total(column, *names, where=live):
        return float(column[spans.is_named(*names) & where].sum())

    ms = 1e3 / n_steps
    ic = spans.is_named(SETUP[1])
    return {
        "grid.transforms_per_step": per_step_in_steppers(*FFT),
        "grid.fft_ms_per_step": total(spans.self_time, *FFT) * ms,
        "grid.fft_bytes_per_step": total(spans.amount, *FFT) / n_steps,
        "grid.reduce_ms_per_step": total(spans.self_time, *REDUCE) * ms,
        "model.h_ms_per_step": total(spans.duration, "model.potential_h") * ms,
        "model.energy_calls_per_step": per_step_in_steppers(*ENERGY),
        "model.energy_ms_per_step": total(spans.duration, *ENERGY) * ms,
        "schemes.step_self_ms": float(spans.self_time[step].sum()) * ms,
        "schemes.solve_ms_per_step": total(spans.self_time, "schemes.solve_linear_step") * ms,
        "schemes.solves_per_step": per_step_in_steppers("schemes.solve_linear_step"),
        "problems.ic_s": float(spans.duration[ic].sum()) / int(ic.sum()),
        "problems.source_ms_per_step": total(spans.duration, "problems.source_term") * ms,
        "runner.self_ms_per_step": total(spans.self_time, "runner.run_simulation") * ms,
        "runner.record_ms_per_step": total(spans.duration, *RECORD, where=from_runner) * ms,
        "output.snapshot_ms": total(spans.duration, "output.write_snapshot") * 1e3 / n_ops,
        "output.snapshot_bytes": total(spans.amount, "output.write_snapshot") / n_ops,
        "output.csv_ms": total(spans.duration, "output.write_history_csv") * 1e3 / n_ops,
        "output.csv_bytes": total(spans.amount, "output.write_history_csv") / n_ops,
        "trace.overhead_pct": overhead_pct,
    }


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _cache_bytes(text: str) -> int:
    text = text.strip()
    scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(text[-1:], 1)
    return int(text.rstrip("KMG") or 0) * scale


def environment(workload) -> dict:
    cpuinfo = _read("/proc/cpuinfo")
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines() if line.startswith("model name")), platform.processor())
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    llc_level, llc = max(((int(_read(c / "level") or 0), _cache_bytes(_read(c / "size"))) for c in caches), default=(0, 0))
    status = _read("/proc/self/status")
    os_threads = next((int(line.split()[1]) for line in status.splitlines() if line.startswith("Threads:")), None)
    fft_backend = "numpy.fft (pocketfft)" if importlib.util.find_spec("numpy.fft._pocketfft_umath") else "numpy.fft"
    complex_bytes = workload.grid_points() * 16
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "cahnpav").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "llc_level": llc_level,
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "fft_backend": fft_backend,
        "python_threads": threading.active_count(),
        "os_threads": os_threads,
        "complex_array_bytes": complex_bytes,
        "complex_array_over_llc": complex_bytes / llc if llc else None,
        "cahnpav_src_lines": src_lines,
    }


def main(argv: list[str] | None = None) -> int:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, workdir)
    log = SpanLog()
    instruments = Instruments(log)
    calibration = Calibration(LOOPS[args.workload])

    warmup = run_ops(workload, instruments, calibration, 0.0, full=False)
    if args.trace:
        # Alternate untraced and traced operations so that drift in the
        # machine's speed does not masquerade as tracing overhead.
        plain, traced = [], []
        deadline = perf_counter() + args.seconds
        while not traced or perf_counter() < deadline:
            plain += run_ops(workload, instruments, calibration, 0.0, full=False)
            traced += run_ops(workload, instruments, calibration, 0.0, full=True)
        plain_rate = end_to_end(log, plain)[0]["steps_per_s"]
        traced_rate = end_to_end(log, traced)[0]["steps_per_s"]
        spans = log.arrays([(op.lo, op.hi) for op in traced])
        values = per_layer(spans, len(traced), (plain_rate / traced_rate - 1.0) * 100.0)
        samples = dict.fromkeys(values, len(traced))
        table, measured, raw = PER_LAYER, plain + traced, {}
        spans.save(OUT / f"{args.workload}-spans.npz", np.cumsum([0] + [op.hi - op.lo for op in traced[:-1]]))
    else:
        measured = run_ops(workload, instruments, calibration, args.seconds, full=False)
        values, samples = end_to_end(log, measured)
        raw = end_to_end(log, measured, scaled=False)[0]
        table = END_TO_END

    ops = warmup + measured
    failed = sum(1 for op in ops if op.issues)
    env = environment(workload)
    loop = calibration.loop
    env["calibration"] = {"n": loop.n, "iterations": loop.iterations, "reference_s": loop.reference_s,
                          "median_s": statistics.median(calibration.times), "timings": len(calibration.times)}
    for name, (unit, meaning) in table.items():
        n = samples[name]
        n = " ".join(f"{key}:{count}" for key, count in n.items()) if isinstance(n, dict) else str(n)
        raw_value = f"raw={raw[name]:<10.6g}" if name in raw else ""
        print(f"{args.workload:6s} {name:28s} {values[name]:14.6g} {unit:6s} {raw_value} n={n:<6s} {meaning}")
    print(f"{args.workload:6s} {'fail_frac':28s} {failed / len(ops):14.6g} {'1':6s} n={len(ops):<6d} operations that raised or failed their check")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": table[name][0]} for name in table},
    }
    record = {**result, "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "samples": samples, "fail_frac": failed / len(ops), "raw": raw, "op_wall_s": [op.wall for op in ops],
              "op_scale": [op.scale for op in ops], "calibration_s": calibration.times, "env": env,
              "issues": [issue for op in ops for issue in op.issues]}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    load_solver()
    sys.exit(main())
