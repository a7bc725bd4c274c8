"""Record the default-seed reference values that every later run is checked against.

    python3 perfbench/make_reference.py

Runs one operation of each workload with the default seed, requires it to pass
the seed-independent checks, and writes ``reference.json`` beside this file.
Run it only when the solver's results are meant to change; the point of the
file is that a faster solver must still reproduce it.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    from workloads import DEFAULT_SEED, REFERENCE_PATH, WORKLOADS

    values = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, run.OUT / name, use_reference=False)
        workload.prepare()
        out = workload.run()
        issues = workload.check(out)
        if issues:
            print(f"{name}: {issues}", file=sys.stderr)
            return 1
        values[name] = workload.reference_values(out)
    REFERENCE_PATH.write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    run.load_solver()
    sys.exit(main())
