"""Command-line interface: single runs, convergence sweeps, scheme comparisons.

Exit codes: 0 success, 2 configuration error, 3 a baseline scheme diverged
(an expected physical outcome for the conditionally stable baselines, not a
tool failure), 4 a runtime failure: a step raised a solver error after the
run started.  Runs that stop early still write their history.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import parse_config, parse_scheme
from .diagnostics import fit_convergence_order
from .errors import SolverError, ValidationError
from .output import write_history_csv
from .problems import PRESETS, manufactured_spec
from .runner import run_simulation
from .schemes import SchemeKind

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_RUNTIME = 4

ALL_NAMES = [k.value for k in SchemeKind]


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except SolverError as exc:  # a refusal (a ValidationError) is raised before anything is written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """An argument parser that refuses a command line with a ValidationError naming
    the option (its name without dashes), in place of argparse's usage block;
    its subcommands' parsers are of this class too."""

    def error(self, message: str):
        head, _, reason = message.partition(": ")
        if head.startswith("argument "):  # a bad value: "argument --dt: invalid float value: 'abc'"
            field = head.removeprefix("argument ")
        elif head == "the following arguments are required":
            field, reason = reason.split(", ")[0], "required"
        elif head == "unrecognized arguments":
            field, reason = reason.split()[0], "unrecognized argument"
        elif head == "ambiguous option":  # "--s could match --schemes, --steps"
            field, _, reason = reason.partition(" ")
        else:
            field, reason = self.prog, message
        raise ValidationError(field.lstrip("-"), reason)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cahnpav",
        description="Energy-stable pseudo-spectral Cahn-Hilliard solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single simulation from a JSON config")
    p_run.add_argument("--config", required=True, type=Path, help="path to the JSON config")
    p_run.set_defaults(handler=cmd_run)

    p_conv = sub.add_parser("convergence", help="manufactured-solution time-step sweep")
    p_conv.add_argument("--scheme", required=True, help=f"one of {','.join(ALL_NAMES)}")
    p_conv.add_argument("--dts", required=True, help="comma-separated step sizes, e.g. 0.1,0.05,0.025")
    p_conv.add_argument("--output-dir", type=Path, default=Path("out"))
    p_conv.set_defaults(handler=cmd_convergence)

    p_cmp = sub.add_parser("compare", help="run several schemes on the drop benchmark")
    p_cmp.add_argument("--schemes", required=True, help=f"comma-separated subset of {','.join(ALL_NAMES)}")
    p_cmp.add_argument("--dt", required=True, type=float)
    p_cmp.add_argument("--steps", required=True, type=int)
    p_cmp.add_argument("--problem", choices=list(PRESETS), default="desk")
    p_cmp.add_argument("--output-dir", type=Path, default=Path("out"))
    p_cmp.set_defaults(handler=cmd_compare)

    return parser


def cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError("config", f"cannot read: {exc}") from exc
    config = parse_config(text)

    out = Path(config.output_dir)  # made by the first write: a refused run leaves no directory
    result = run_simulation(
        config.problem,
        config.scheme,
        history_every=config.history_every,
        snapshot_every=config.snapshot_every,
        output_dir=out,
        dealias=config.dealias,
    )
    write_history_csv(result.history, out / "history.csv")
    if result.failure is not None:
        print(f"{_stopped(config.scheme, result)}; history written to {out / 'history.csv'}", file=sys.stderr)
        return EXIT_DIVERGED if result.diverged else EXIT_RUNTIME
    print(f"completed {result.final_state.step} steps; history in {out / 'history.csv'}")
    return EXIT_OK


def _stopped(scheme: SchemeKind, result) -> str:
    """Why a run stopped before its last step, naming the failing step."""
    verb = "diverged" if result.diverged else "failed"
    return f"{scheme.value} {verb} at step {result.final_state.step + 1}: {result.failure}"


def cmd_convergence(args) -> int:
    scheme = parse_scheme(args.scheme, "scheme")
    try:  # refuse every bad dt before the first run
        dts = sorted({float(v) for v in args.dts.split(",") if v.strip()}, reverse=True)
        if len(dts) < 3:
            raise ValidationError("dts", "need at least 3 step sizes")
        specs = [manufactured_spec(dt=dt) for dt in dts]
        for spec in specs:
            spec.n_steps
    except ValidationError as exc:  # a ValueError too, so caught first
        raise ValidationError("dts", exc.reason) from exc
    except ValueError as exc:  # not a number
        raise ValidationError("dts", str(exc)) from exc
    rows = []
    for spec in specs:
        dt = spec.dt
        # the final record is always kept; only it and the initial one matter
        result = run_simulation(spec, scheme, history_every=spec.n_steps, exact_history=True)
        if result.failure is not None:
            print(f"error: dt={dt:.6g}: {_stopped(scheme, result)}", file=sys.stderr)
            return EXIT_RUNTIME
        final = result.history[-1]
        rows.append((dt, final.linf_err, final.l2_err))
        print(f"dt={dt:.6g}  linf={final.linf_err:.6e}  l2={final.l2_err:.6e}")

    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"convergence_{scheme.value}.csv"
    lines = ["dt,linf_err,l2_err"]
    lines += [f"{format(dt, '.17g')},{format(li, '.17g')},{format(l2, '.17g')}" for dt, li, l2 in rows]
    csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    slope_linf = fit_convergence_order([r[0] for r in rows], [r[1] for r in rows])
    slope_l2 = fit_convergence_order([r[0] for r in rows], [r[2] for r in rows])
    print(f"scheme {scheme.value}: fitted slope linf={slope_linf:.3f} l2={slope_l2:.3f}")
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_compare(args) -> int:
    schemes = [parse_scheme(s.strip(), "schemes") for s in args.schemes.split(",") if s.strip()]
    if not schemes:
        raise ValidationError("schemes", "empty list")
    repeated = [s.value for i, s in enumerate(schemes) if s in schemes[:i]]
    if repeated:
        raise ValidationError("schemes", f"repeated scheme {repeated[0]!r}")
    problem = PRESETS[args.problem](dt=args.dt)
    out = Path(args.output_dir)  # made by the first write, as in cmd_run

    code = EXIT_OK
    for scheme in schemes:
        # --steps below 1 is refused by the first run, before it writes
        result = run_simulation(problem, scheme, n_steps=args.steps)
        path = out / f"history_{scheme.value}.csv"
        write_history_csv(result.history, path)
        if result.failure is not None:
            verb = "DIVERGED" if result.diverged else "FAILED"
            print(f"{scheme.value}: {verb} at step {result.final_state.step + 1}: {result.failure} ({path})")
            # a runtime failure outranks a diverged baseline
            code = max(code, EXIT_DIVERGED if result.diverged else EXIT_RUNTIME)
        else:
            final = result.history[-1]
            print(f"{scheme.value}: {final.step} steps, E={final.energy:.6g} ({path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
