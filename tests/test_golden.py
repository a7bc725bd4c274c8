"""Golden histories: the steppers reproduce recorded runs to round-off.

``tests/data/golden_histories.json`` holds the middle and final history
record of short runs recorded with an earlier version of the steppers:
all six schemes on the desk drop array (30 steps), and the four PAV schemes
on the manufactured problem (source term, exact history seeding) with
dealiasing off and on.  A refactor of the time stepping must reproduce them.

Re-record (only when a change of results is intended)::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from cahnpav import SchemeKind, desk_scale_drop_spec, manufactured_spec, run_simulation

GOLDEN_PATH = Path(__file__).with_name("data") / "golden_histories.json"
FIELDS = ("energy", "mass", "r", "xi", "sav_r", "h2", "dissipation", "l2_err")
RTOL = 1e-12
DESK_STEPS = 30
PAV = ("1a", "1b", "2a", "2b")


def _cases() -> dict:
    cases = {f"desk-{s.value}": (s.value, "desk", False) for s in SchemeKind}
    for dealias in (False, True):
        for name in PAV:
            cases[f"manufactured-{name}-dealias{int(dealias)}"] = (name, "manufactured", dealias)
    return cases


CASES = _cases()


def run_case(scheme: str, problem: str, dealias: bool) -> dict:
    """The middle and final records of one case, keyed by step."""
    if problem == "desk":
        result = run_simulation(
            desk_scale_drop_spec(), SchemeKind(scheme), n_steps=DESK_STEPS, dealias=dealias
        )
    else:
        result = run_simulation(
            manufactured_spec(), SchemeKind(scheme), dealias=dealias, exact_history=True
        )
    history = result.history
    picked = (history[len(history) // 2], history[-1])
    return {str(rec.step): {f: getattr(rec, f) for f in FIELDS} for rec in picked}


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_golden_history(case):
    expected = _golden()[case]
    actual = run_case(*CASES[case])
    assert sorted(actual) == sorted(expected)
    for step, record in expected.items():
        for field, value in record.items():
            got = actual[step][field]
            if value is None:
                assert got is None, f"step {step} {field}"
            else:
                assert math.isclose(got, value, rel_tol=RTOL, abs_tol=0.0), (
                    f"step {step} {field}: {got!r} != {value!r}"
                )


def _max_deviation() -> None:
    """Print the largest relative deviation from the golden file and the bit-identical count."""
    golden = _golden()
    worst, same, total = 0.0, 0, 0
    for case, args in sorted(CASES.items()):
        actual = run_case(*args)
        for step, record in golden[case].items():
            for field, value in record.items():
                if value is None:
                    continue
                got = actual[step][field]
                total += 1
                same += got == value
                worst = max(worst, abs(got - value) / abs(value) if value else abs(got))
    print(f"{same}/{total} values bit-identical; max relative deviation {worst:.3e}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--write"]:
        data = {case: run_case(*args) for case, args in sorted(CASES.items())}
        GOLDEN_PATH.parent.mkdir(exist_ok=True)
        GOLDEN_PATH.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(data)} cases to {GOLDEN_PATH}")
    else:
        _max_deviation()
