"""The committed scan grids and the simplex grid mode."""

import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

import xree.cli as cli
from xree.cli import EXIT_INVALID, EXIT_OK, SCAN_CAP_DEFAULT, _grid_points, _schema, main

GRIDS = Path(__file__).resolve().parent.parent / "grids"
FAILURE_REGION = str(GRIDS / "failure_region.json")


def scan(capsys, *argv):
    code = main(["scan", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_grid(tmp_path, doc):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(doc))
    return str(path)


# sha256 of the scan CSV of each committed grid; every speed-up of the
# solver must keep these bytes
SCAN_SHA256 = {
    "baseline_line.json": "c1832ac2f2b0dadf7211bc838a6919536c4361b58c5b2c9571883bc1e5d972f7",
    "failure_region.json": "cf0547c160e35e049dbb092c40db14994cd6e7146226d34f418a35555a2465b3",
}


@pytest.mark.parametrize("name", sorted(SCAN_SHA256))
def test_committed_grid_scan_bytes_are_pinned(capsys, name):
    code, out, err = scan(capsys, "--grid", str(GRIDS / name))
    assert code == EXIT_OK and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_SHA256[name]


def test_committed_grids_validate_and_fit_under_the_cap():
    paths = sorted(GRIDS.glob("*.json"))
    assert {p.name for p in paths} >= {"baseline_line.json", "failure_region.json"}
    validator = jsonschema.Draft7Validator(_schema("scan_grid.schema.json"))
    for path in paths:
        doc = json.loads(path.read_text(encoding="utf-8"))
        validator.validate(doc)
        _grid_points(doc, SCAN_CAP_DEFAULT)  # raises above the cap


class TestSimplex:
    def test_failure_region_rows_follow_the_slice_formula(self, capsys):
        code, out, _ = scan(capsys, "--grid", FAILURE_REGION)
        assert code == EXIT_OK
        lines = out.split("\n")
        assert lines[-1] == ""
        assert lines[0] == "p,q1,q2,q3,q4,branch,ree,residual_max"
        rows = lines[1:-1]
        assert len(rows) == 351
        assert rows[0] == "0.66,0.136,0.204,0,0,theorem1,0.237727944516,2.22044604925e-16"
        p, split, steps = 0.66, 0.4, 25
        rest = 1.0 - p
        want = []
        for i in range(steps + 1):
            for j in range(steps + 1 - i):
                q3, q4 = rest * i / steps, rest * j / steps
                left = max(0.0, rest - q3 - q4)
                want.append(
                    ",".join(f"{v:.12g}" for v in (p, left * split, left * (1.0 - split), q3, q4))
                )
        assert [",".join(row.split(",")[:5]) for row in rows] == want

    def test_rerun_byte_identical(self, capsys):
        code1, out1, _ = scan(capsys, "--grid", FAILURE_REGION)
        code2, out2, _ = scan(capsys, "--grid", FAILURE_REGION)
        assert code1 == code2 == EXIT_OK
        assert out1.count("\n") == 352 and out1 == out2

    @pytest.mark.parametrize(
        "doc",
        [
            pytest.param({"p": 0.66, "split": 1.5, "steps": 25}, id="split-above-1"),
            pytest.param({"p": -0.1, "split": 0.4, "steps": 25}, id="negative-p"),
            pytest.param({"p": 0.66, "split": 0.4, "steps": 0}, id="zero-steps"),
            pytest.param({"p": 0.66, "split": 0.4}, id="missing-steps"),
            pytest.param({"p": 0.66, "split": 0.4, "steps": 25, "x": 1}, id="extra-key"),
        ],
    )
    def test_schema_rejects(self, tmp_path, capsys, doc):
        code, out, err = scan(capsys, "--grid", write_grid(tmp_path, {"mode": "simplex", **doc}))
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error: field ") and err.count("\n") == 1

    def test_cap_checked_before_any_point(self, tmp_path, capsys, monkeypatch):
        def never(*args):
            raise AssertionError("points built past the cap")

        monkeypatch.setattr(cli, "_simplex_points", never)
        grid = write_grid(tmp_path, {"mode": "simplex", "p": 0.5, "split": 0.5, "steps": 10**6})
        code, out, err = scan(capsys, "--grid", grid, "--cap", "1000")
        assert code == EXIT_INVALID
        assert out == ""
        assert "cap of 1000" in err and err.count("\n") == 1


AXES = {name: 0.1 for name in ("a1", "a2", "a3", "a4", "d")}


@pytest.mark.parametrize(
    "doc, field",
    [
        pytest.param({"mode": "simplex", "p": 0.66, "split": 1.5, "steps": 25}, "split", id="simplex-split"),
        pytest.param(
            {"mode": "raw", "axes": {**AXES, "a1": {"start": 0.0, "stop": 1.0, "count": 0}}},
            "axes/a1",
            id="raw-axis-count-0",
        ),
        pytest.param({"mode": "bogus"}, "mode", id="unknown-mode"),
        pytest.param(
            {"mode": "line", "family": "theorem3_example", "from": [0.5] * 5, "to": [0.5] * 4, "count": 3},
            "to",
            id="line-short-to",
        ),
    ],
)
def test_schema_error_names_the_bad_field(tmp_path, capsys, doc, field):
    code, out, err = scan(capsys, "--grid", write_grid(tmp_path, doc))
    assert code == EXIT_INVALID
    assert out == ""
    assert err.startswith(f"error: field {field}: ") and err.count("\n") == 1


def with_float_count(doc, *keys):
    """doc with the integer at doc[keys[0]][keys[1]]... as the equal float."""
    doc = json.loads(json.dumps(doc))
    inner = doc
    for key in keys[:-1]:
        inner = inner[key]
    inner[keys[-1]] = float(inner[keys[-1]])
    return doc


BASELINE_LINE = json.loads((GRIDS / "baseline_line.json").read_text(encoding="utf-8"))
RAW_AXES = {"a1": 0.1, "a2": 0.4, "a3": 0.3, "a4": 0.2, "d": {"start": 0.0, "stop": 0.3, "count": 3}}


@pytest.mark.parametrize(
    "doc, keys",
    [
        pytest.param({**BASELINE_LINE, "count": 3}, ("count",), id="line-count"),
        pytest.param({"mode": "simplex", "p": 0.66, "split": 0.4, "steps": 2}, ("steps",), id="simplex-steps"),
        pytest.param({"mode": "raw", "axes": RAW_AXES}, ("axes", "d", "count"), id="range-axis-count"),
    ],
)
def test_integral_float_counts_scan_as_their_integer(tmp_path, capsys, doc, keys):
    # Draft 7 counts 3.0 as an integer, so the schema passes both forms
    code, want, err = scan(capsys, "--grid", write_grid(tmp_path, doc))
    assert code == EXIT_OK and err == ""
    code, got, err = scan(capsys, "--grid", write_grid(tmp_path, with_float_count(doc, *keys)))
    assert code == EXIT_OK and err == ""
    assert got == want and want.count("\n") > 2
