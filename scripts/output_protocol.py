"""Write the outputs of the byte-identity protocol: ``cahnpav run`` for each of
the six schemes on five problems, dealias off and on, with a snapshot every
10 steps.

    PYTHONPATH=src python3 scripts/output_protocol.py OUT

The problems are the desk drop array (``tf = 0.05``, ``dt = 1e-3``), the same
on a 130^2 grid (the smallest square whose steps run their array work as two
row halves), the paper preset at 512^2 for 3 steps (``tf = 0.003``,
``dt = 1e-3``), the manufactured problem (``dt = 0.1``) and the manufactured
problem with ``lambda = 0.6`` (``dt = 0.05``).  Each of the 60 runs writes its
``history.csv`` and snapshots to ``OUT/<problem>-<scheme>-<dealias>/``: 288
files in all.  To compare two checkouts, or one checkout under two BLAS
thread counts or CPU sets, run the script under each and then ``diff -r`` the
output directories.  The exit code is 1 if a run did not complete, and 2 if
OUT already exists.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from cahnpav.cli import main as cahnpav_main
from cahnpav.schemes import SchemeKind

PROBLEMS = {
    "drop": ({"kind": "drop_array", "preset": "desk"}, {"t0": 0.0, "tf": 0.05, "dt": 1e-3}),
    "drop-130": ({"kind": "drop_array", "preset": "desk", "nx": 130, "ny": 130}, {"t0": 0.0, "tf": 0.05, "dt": 1e-3}),
    "paper": ({"kind": "drop_array", "preset": "paper"}, {"t0": 0.0, "tf": 0.003, "dt": 1e-3}),
    "mfg": ({"kind": "manufactured"}, {"t0": 0.1, "tf": 1.1, "dt": 0.1}),
    "mfg-lam": ({"kind": "manufactured", "lambda": 0.6}, {"t0": 0.1, "tf": 1.1, "dt": 0.05}),
}


def main(out: Path) -> int:
    if out.exists():
        print(f"{out} exists; give a new directory", file=sys.stderr)
        return 2
    failed = []
    with tempfile.TemporaryDirectory() as configs:
        for name, (problem, time) in PROBLEMS.items():
            for scheme in SchemeKind:
                for dealias in (False, True):
                    run = f"{name}-{scheme.value}-{'dealias' if dealias else 'plain'}"
                    config = {
                        "problem": problem,
                        "scheme": scheme.value,
                        "time": time,
                        "output": {"dir": str(out / run), "history_every": 1, "snapshot_every": 10},
                        "dealias": dealias,
                    }
                    path = Path(configs) / f"{run}.json"
                    path.write_text(json.dumps(config), encoding="utf-8")
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cahnpav_main(["run", "--config", str(path)])
                    if code:
                        failed.append(f"{run} (exit {code})")
    n_files = sum(1 for f in out.rglob("*") if f.is_file())
    print(f"{n_files} files in {out}" + (f"; not completed: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: {sys.argv[0]} OUT")
    sys.exit(main(Path(sys.argv[1])))
