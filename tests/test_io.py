"""Tests for config parsing, history CSV and snapshot serialization."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from cahnpav import GridSpec, RealField, SchemeKind, ValidationError
from cahnpav.config import OUTPUT, PROBLEMS, TIME, TOP, parse_config
from cahnpav.diagnostics import HistoryRecord
from cahnpav.output import (
    CSV_HEADER,
    read_history_csv,
    read_snapshot,
    write_history_csv,
    write_snapshot,
)

from helpers import constant, n_drops

MINIMAL = {"problem": {"kind": "manufactured"}, "scheme": "2a"}
README = Path(__file__).resolve().parent.parent / "README.md"


class TestParseConfig:
    def test_minimal_manufactured_defaults(self):
        config = parse_config(json.dumps(MINIMAL))
        assert config.scheme is SchemeKind.PAV_2A
        assert config.problem.grid.shape == (20, 20)
        assert config.problem.grid.lx == 2.0
        assert config.problem.params.c0 == 1.0
        assert config.problem.params.lam == 0.0
        assert config.problem.params.m0 == 0.01
        assert config.problem.t0 == 0.1
        assert config.problem.tf == 1.1
        assert config.dealias is False
        assert config.history_every == 1
        assert config.snapshot_every == 0
        assert str(config.output_dir) == "out"

    def test_readme_schema_section_matches_the_tables(self):
        # its JSON example parses, and its text names every key the tables accept
        text = README.read_text(encoding="utf-8")
        section = re.search(r"^### Config schema\n(.*?)^#", text, re.S | re.M).group(1)
        example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert parse_config(example).scheme is SchemeKind.PAV_2A
        keys = set().union(TOP, TIME, OUTPUT, *PROBLEMS.values())
        assert sorted(key for key in keys if not re.search(rf"[`\".]{key}[`\"]", section)) == []

    def test_unknown_scheme_names_field(self):
        doc = dict(MINIMAL, scheme="3c")
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.field == "scheme"

    def test_negative_dt_names_field(self):
        doc = dict(MINIMAL, time={"dt": -0.1})
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert "dt" in excinfo.value.field

    def test_malformed_json(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config("{not json")
        assert excinfo.value.field == "config"
        assert excinfo.value.reason.startswith("invalid JSON: ")

    def test_missing_problem(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps({"scheme": "1a"}))
        assert excinfo.value.field == "problem"

    def test_missing_scheme(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps({"problem": {"kind": "manufactured"}}))
        assert excinfo.value.field == "scheme"

    def test_unknown_problem_kind(self):
        doc = {"problem": {"kind": "vortex"}, "scheme": "1a"}
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.field == "problem.kind"

    def test_type_mismatch_names_field(self):
        doc = {"problem": {"kind": "manufactured", "nx": "twenty"}, "scheme": "1a"}
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.field == "problem.nx"

    def test_drop_desk_preset(self):
        doc = {"problem": {"kind": "drop_array"}, "scheme": "2b"}
        config = parse_config(json.dumps(doc))
        assert config.problem.grid.shape == (128, 128)
        assert n_drops(config.problem.drops) == 25

    def test_drop_paper_preset(self):
        doc = {"problem": {"kind": "drop_array", "preset": "paper"}, "scheme": "2a"}
        config = parse_config(json.dumps(doc))
        assert config.problem.grid.shape == (512, 512)
        assert n_drops(config.problem.drops) == 361

    def test_drop_overrides(self):
        doc = {
            "problem": {
                "kind": "drop_array",
                "nx": 64,
                "ny": 64,
                "eta": 0.04,
                "count_x": 3,
                "count_y": 3,
                "m0": 1e-5,
            },
            "scheme": "sav",
            "time": {"t0": 0.0, "tf": 0.5, "dt": 0.01},
            "output": {"dir": "runs/x", "history_every": 5, "snapshot_every": 100},
            "dealias": True,
        }
        config = parse_config(json.dumps(doc))
        assert config.problem.grid.shape == (64, 64)
        assert config.problem.params.eta == 0.04
        assert config.problem.params.m0 == 1e-5
        # beta recomputed from the preset surface tension at the new eta
        assert config.problem.params.beta == pytest.approx(3 / (2 * math.sqrt(2)) * 151.15 * 0.04)
        assert n_drops(config.problem.drops) == 9
        assert config.problem.dt == 0.01
        assert config.history_every == 5
        assert config.snapshot_every == 100
        assert config.dealias is True
        assert str(config.output_dir) == "runs/x"

    def test_explicit_zero_c0_respected(self):
        doc = {"problem": {"kind": "manufactured", "c0": 0.5}, "scheme": "1a"}
        assert parse_config(json.dumps(doc)).problem.params.c0 == 0.5

    def test_bad_history_every(self):
        doc = dict(MINIMAL, output={"history_every": 0})
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert "history_every" in excinfo.value.field

    def test_inverted_time_window(self):
        doc = dict(MINIMAL, time={"t0": 2.0, "tf": 1.0})
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.field == "time"

    def test_odd_grid_names_field(self):
        doc = {"problem": {"kind": "manufactured", "nx": 21}, "scheme": "1a"}
        with pytest.raises(ValidationError):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc,field",
        [
            (dict(MINIMAL, dealais=True), "dealais"),
            (dict(MINIMAL, seed=0), "seed"),
            ({"problem": {"kind": "manufactured", "lx": 3.0}, "scheme": "1a"}, "problem.lx"),
            ({"problem": {"kind": "drop_array", "radiuss": 0.1}, "scheme": "1a"}, "problem.radiuss"),
            (dict(MINIMAL, time={"dt": 0.01, "steps": 3}), "time.steps"),
            (dict(MINIMAL, output={"every": 3}), "output.every"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_unknown_key_rejected_with_dotted_name(self, doc, field):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.field == field

    @pytest.mark.parametrize(
        "problem",
        [
            {"kind": "manufactured", "nx": 16, "ny": 16, "m0": 0.02, "beta": 0.02, "eta": 0.2,
             "lambda": 0.1, "c0": 2.0},
            {"kind": "drop_array", "preset": "desk", "nx": 32, "ny": 32, "lx": 2.0, "ly": 2.0,
             "m0": 1e-5, "sigma": 100.0, "eta": 0.05, "lambda": 0.0, "c0": 1.0,
             "count_x": 2, "count_y": 2, "spacing": 0.6, "radius": 0.2},
            {"kind": "drop_array", "preset": "desk", "nx": 32, "ny": 32, "lx": 2.0, "ly": 2.0,
             "m0": 1e-5, "beta": 0.01, "eta": 0.05, "lambda": 0.0, "c0": 1.0,
             "count_x": 2, "count_y": 2, "spacing": 0.6, "radius": 0.2},
        ],
        ids=["manufactured", "drop_array", "drop_array-beta"],
    )
    def test_every_schema_key_accepted(self, problem):
        doc = {
            "problem": problem,
            "scheme": "1a",
            "time": {"t0": 0.0, "tf": 0.1, "dt": 0.01},
            "output": {"dir": "o", "history_every": 2, "snapshot_every": 5},
            "dealias": True,
        }
        assert parse_config(json.dumps(doc)).problem.grid.shape == (problem["nx"], problem["ny"])

    @pytest.mark.parametrize(
        "literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
        ids=["nan", "inf", "-inf", "overflow", "huge-int"],
    )
    @pytest.mark.parametrize(
        "field,template",
        [
            ("problem.c0", '{"problem": {"kind": "manufactured", "c0": %s}, "scheme": "1a"}'),
            ("problem.lambda", '{"problem": {"kind": "manufactured", "lambda": %s}, "scheme": "1a"}'),
            ("problem.m0", '{"problem": {"kind": "manufactured", "m0": %s}, "scheme": "1a"}'),
            ("time.tf", '{"problem": {"kind": "manufactured"}, "time": {"tf": %s}, "scheme": "1a"}'),
        ],
        ids=["c0", "lambda", "m0", "tf"],
    )
    def test_non_finite_number_names_field(self, field, template, literal):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(template % literal)
        assert excinfo.value.field == field
        assert "finite" in str(excinfo.value)

    @pytest.mark.parametrize(
        "doc,field",
        [
            ({"problem": {"kind": "manufactured", "c0": None}, "scheme": "1a"}, "problem.c0"),
            ({"problem": {"kind": "manufactured", "m0": None}, "scheme": "1a"}, "problem.m0"),
            ({"problem": {"kind": "manufactured", "nx": None}, "scheme": "1a"}, "problem.nx"),
            ({"problem": {"kind": "drop_array", "beta": None}, "scheme": "1a"}, "problem.beta"),
            ({"problem": {"kind": "drop_array", "preset": None}, "scheme": "1a"}, "problem.preset"),
            ({"problem": None, "scheme": "1a"}, "problem"),
            (dict(MINIMAL, scheme=None), "scheme"),
            (dict(MINIMAL, dealias=None), "dealias"),
            (dict(MINIMAL, time=None), "time"),
            (dict(MINIMAL, time={"dt": None}), "time.dt"),
            (dict(MINIMAL, output={"dir": None}), "output.dir"),
        ],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_null_rejected_names_field(self, doc, field):
        # a key that is present must not silently mean "use the default"
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(doc))
        assert excinfo.value.field == field
        assert "null" in str(excinfo.value)

    @pytest.mark.parametrize(
        "problem,field",
        [
            ({"kind": "manufactured", "ny": 7}, "problem.ny"),
            ({"kind": "manufactured", "eta": 1e-200}, "problem.eta"),
            ({"kind": "manufactured", "lambda": -1.0}, "problem.lambda"),
            ({"kind": "drop_array", "count_y": 0}, "problem.count_y"),
            ({"kind": "drop_array", "sigma": -1.0}, "problem.sigma"),
            ({"kind": "drop_array", "eta": 0.0}, "problem.eta"),
            ({"kind": "drop_array", "ly": 0.0}, "problem.ly"),
            ({"kind": "manufactured", "beta": 1e300, "eta": 1e-10}, "problem"),  # well_amp
            ({"kind": "drop_array", "sigma": 1e9, "beta": 0.01}, "problem.sigma"),  # not both
            ({"kind": "drop_array", "count_x": 20}, "problem.count_x"),  # lattice wider than lx
            ({"kind": "drop_array", "count_y": 11}, "problem.count_y"),  # 10 * 0.4 = ly
            ({"kind": "manufactured", "eta": 1e300}, "problem.eta"),  # eta**2 overflows
            ({"kind": "drop_array", "count_x": 10**400}, "problem.count_x"),  # beyond the float range
            ({"kind": "manufactured", "nx": 10**400}, "problem.nx"),  # beyond any numpy array
        ],
        ids=["ny", "eta-underflow", "lambda", "count_y", "sigma", "drop-eta", "ly", "well_amp",
             "sigma-and-beta", "count_x-wide", "count_y-wide", "eta-overflow", "count_x-huge", "nx-huge"],
    )
    def test_out_of_range_value_names_field(self, problem, field):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps({"problem": problem, "scheme": "1a"}))
        assert excinfo.value.field == field

    @pytest.mark.parametrize(
        "time",
        [{"t0": 0.0, "tf": 1.0, "dt": 0.3}, {"t0": 0.0, "tf": 0.05, "dt": 0.1}, {"dt": 0.024}],
        ids=["short-last-step", "window-below-one-step", "default-window"],
    )
    def test_dt_not_dividing_window_rejected(self, time):
        with pytest.raises(ValidationError) as excinfo:
            parse_config(json.dumps(dict(MINIMAL, time=time)))
        assert excinfo.value.field == "time.dt"

    @pytest.mark.parametrize(
        "time",
        [
            {"t0": 0.0, "tf": 60 * 0.001, "dt": 0.001},  # 59.999999999999993 steps
            {"t0": 0.1, "tf": 1.1, "dt": 0.025},
            {"t0": 0.0, "tf": 1.0, "dt": 1.0},
        ],
        ids=["round-off", "manufactured", "single-step"],
    )
    def test_dt_dividing_window_up_to_round_off_accepted(self, time):
        doc = {"problem": {"kind": "drop_array", "preset": "desk"}, "scheme": "2a", "time": time}
        assert parse_config(json.dumps(doc)).problem.dt == time["dt"]


def sample_records():
    return [
        HistoryRecord(
            step=0, t=0.1, mass=-11.357, energy=3957.7368837341751, r=62.91,
            xi=1.0, sav_r=None, h2=1191.6, dissipation=0.0,
            linf_err=None, l2_err=None,
        ),
        HistoryRecord(
            step=1, t=0.10125, mass=-11.357, energy=3950.0, r=62.90,
            xi=0.99991515234567891, sav_r=None, h2=1190.0, dissipation=35.2,
            linf_err=1.234e-05, l2_err=6.7e-06,
        ),
    ]


class TestHistoryCsv:
    def test_header_literal(self):
        assert CSV_HEADER == "step,t,mass,energy,r,xi,sav_r,h2,dissipation,linf_err,l2_err"

    def test_empty_history_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_single_record_two_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history_csv(sample_records()[:1], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER

    def test_absent_values_empty_cells(self, tmp_path):
        path = tmp_path / "h.csv"
        write_history_csv(sample_records()[:1], path)
        row = path.read_text().splitlines()[1].split(",")
        assert row[6] == ""  # sav_r
        assert row[9] == "" and row[10] == ""  # error norms

    def test_round_trip_byte_identical(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_history_csv(sample_records(), first)
        parsed = read_history_csv(first)
        write_history_csv(parsed, second)
        assert first.read_bytes() == second.read_bytes()

    def test_parse_recovers_floats_exactly(self, tmp_path):
        path = tmp_path / "h.csv"
        records = sample_records()
        write_history_csv(records, path)
        parsed = read_history_csv(path)
        assert parsed[1].xi == records[1].xi
        assert parsed[1].energy == records[1].energy
        assert parsed[0].sav_r is None

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_history_csv(path)

    @pytest.mark.parametrize("edit", [lambda row: row + ",7", lambda row: row.rsplit(",", 4)[0]], ids=["long", "short"])
    def test_row_of_wrong_length_refused(self, tmp_path, edit):
        # a long row lost its extra cells without a word, a short one raised TypeError
        path = tmp_path / "h.csv"
        write_history_csv(sample_records(), path)
        lines = path.read_text().splitlines()
        lines[2] = edit(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"h\.csv: line 3 has (12|7) cells, expected 11"):
            read_history_csv(path)


    @pytest.mark.parametrize("column,cell,kind", [("step", "3.0", "int"), ("h2", "", "float")], ids=["step", "h2"])
    def test_cell_not_a_number_refused(self, tmp_path, column, cell, kind):
        # int() or float() raised a bare ValueError that named neither the file, the line nor the column
        path = tmp_path / "h.csv"
        write_history_csv(sample_records(), path)
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[CSV_HEADER.split(",").index(column)] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"h\.csv: line 3, column {column}: '{re.escape(cell)}' is not {kind}$"):
            read_history_csv(path)


class TestSnapshot:
    def test_zero_field_layout(self, tmp_path):
        grid = GridSpec(4, 4, 2.0, 2.0)
        path = tmp_path / "snap.dat"
        write_snapshot(constant(grid, 0.0), 0.5, path)
        raw = path.read_bytes()
        head, _, payload = raw.partition(b"\n\n")
        assert head.decode("ascii").splitlines() == ["nx 4", "ny 4", "lx 2", "ly 2", "t 0.5"]
        assert len(payload) == 4 * 4 * 8

    def test_round_trip_bit_exact(self, tmp_path):
        grid = GridSpec(12, 8, 2.0, 3.0)
        rng = np.random.default_rng(5)
        field = RealField(grid, rng.standard_normal(grid.shape))
        path = tmp_path / "snap.dat"
        write_snapshot(field, math.pi, path)
        back, t = read_snapshot(path)
        assert t == math.pi  # full precision echo
        assert back.grid == grid
        assert np.array_equal(back.values, field.values)

    def test_row_major_payload(self, tmp_path):
        grid = GridSpec(4, 6, 1.0, 1.0)
        values = np.arange(24, dtype=float).reshape(4, 6)
        path = tmp_path / "snap.dat"
        write_snapshot(RealField(grid, values), 0.0, path)
        payload = path.read_bytes().partition(b"\n\n")[2]
        assert np.frombuffer(payload, dtype="<f8")[6] == values[1, 0]

    @pytest.mark.parametrize("extra", [8, -8], ids=["trailing", "short"])
    def test_payload_of_wrong_size_refused(self, tmp_path, extra):
        # 4 x 6 doubles are 192 bytes; 8 more or 8 fewer is refused, naming the file
        grid = GridSpec(4, 6, 1.0, 1.0)
        path = tmp_path / "snap.dat"
        write_snapshot(constant(grid, 1.0), 0.0, path)
        raw = path.read_bytes()
        path.write_bytes(raw + bytes(8) if extra > 0 else raw[:-8])
        size = 192 + extra
        with pytest.raises(ValueError, match=rf"snap\.dat.*\b{size}\b.*\b192\b"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "header,key",
        [(b"nx 4\nny 6\nlx 1\nly 1\n", "t"), (b"nx 4\nny\nlx 1\nly 1\nt 0\n", "ny")],
        ids=["missing-key", "key-without-value"],
    )
    def test_header_without_a_value_refused(self, tmp_path, header, key):
        # a missing key raised a bare KeyError, a key with no value an unpacking error
        path = tmp_path / "snap.dat"
        path.write_bytes(header + b"\n" + bytes(192))
        with pytest.raises(ValueError, match=rf"snap\.dat: header has no value for {key}$"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "header,key,value",
        [(b"nx abc\nny 6\nlx 1\nly 1\nt 0\n", "nx", "abc"), (b"nx 4\nny 6\nlx 1\nly 1x\nt 0\n", "ly", "1x")],
        ids=["int", "float"],
    )
    def test_header_value_not_a_number_refused(self, tmp_path, header, key, value):
        # int() or float() raised a bare ValueError that named neither the file nor the key
        path = tmp_path / "snap.dat"
        path.write_bytes(header + b"\n" + bytes(192))
        with pytest.raises(ValueError, match=rf"snap\.dat: header value '{value}' for {key} is not (int|float)$"):
            read_snapshot(path)

    @pytest.mark.parametrize(
        "header,field,reason",
        [
            (b"nx 3\nny 6\nlx 1\nly 1\nt 0\n", "nx", "must be an even integer >= 4, got 3"),
            (b"nx 4\nny 6\nlx nan\nly 1\nt 0\n", "lx", "must be positive and finite, got nan"),
        ],
        ids=["odd-nx", "nan-lx"],
    )
    def test_header_grid_refused_naming_the_file(self, tmp_path, header, field, reason):
        # GridSpec's ValidationError named the field but not the file
        path = tmp_path / "snap.dat"
        path.write_bytes(header + b"\n" + bytes(192))
        with pytest.raises(ValueError, match=rf"snap\.dat: header {field}: {reason}$"):
            read_snapshot(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_header_time_not_finite_refused(self, tmp_path, value):
        # t nan was read back as a snapshot time
        path = tmp_path / "snap.dat"
        path.write_bytes(f"nx 4\nny 6\nlx 1\nly 1\nt {value}\n".encode() + b"\n" + bytes(192))
        with pytest.raises(ValueError, match=rf"snap\.dat: header value {value} for t is not finite$"):
            read_snapshot(path)

    def test_header_not_ascii_refused(self, tmp_path):
        # decode raised a UnicodeDecodeError that did not name the file
        path = tmp_path / "snap.dat"
        path.write_bytes("nx 4\nny 6\nlx 1\nly 1\nt 0\u00e9\n".encode() + b"\n" + bytes(192))
        with pytest.raises(ValueError, match=r"snap\.dat: header is not ASCII: byte 23 is 0xc3$"):
            read_snapshot(path)
