"""CLI contract: exit codes, schemas, determinism, scan behavior."""

import copy
import hashlib
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import xree.cli as cli
from xree.cli import EXIT_ANSATZ_FAILURE, EXIT_INVALID, EXIT_OK, main, _accepts, _schema


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate_output(doc, schema_name):
    jsonschema.Draft7Validator(_schema(schema_name)).validate(doc)


class TestCompute:
    def test_rains_family(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "rains")
        assert code == EXIT_OK
        doc = json.loads(out)
        validate_output(doc, "compute_output.schema.json")
        assert doc["branch"] == "theorem3"
        assert abs(doc["css"]["r1"] - 1 / 6) < 1e-9
        assert doc["edge_min_eig"] == pytest.approx(0.0, abs=1e-9)

    def test_diagonal_params_separable(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--params", "0.4,0.3,0.2,0.1,0")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["branch"] == "separable"
        assert doc["ree_nats"] == 0.0

    def test_failure_family_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "theorem3_example:0.66,0.05,0.07,0.04,0.18"
        )
        assert code == EXIT_ANSATZ_FAILURE
        doc = json.loads(out)
        validate_output(doc, "compute_output.schema.json")
        assert doc["branch"] == "ansatz_failure"
        assert doc["ree_nats"] is None
        assert doc["css"] is None

    @pytest.mark.parametrize("params", ["0,1,0,0,5e-7", "0,0,1,0,5e-7"])
    def test_zero_middle_population_exits_failure(self, capsys, params):
        code, out, err = run_cli(capsys, "compute", "--params", params)
        assert code == EXIT_ANSATZ_FAILURE and err == ""
        doc = json.loads(out)
        validate_output(doc, "compute_output.schema.json")
        assert doc["branch"] == "ansatz_failure"
        assert "ln(a2/a3) undefined" in doc["diagnostics"]

    def test_bits_flag(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "vp:1,0,0", "--bits")
        doc = json.loads(out)
        assert doc["ree_nats"] == pytest.approx(math.log(2.0), abs=1e-12)
        assert doc["ree_bits"] == pytest.approx(1.0, abs=1e-12)

    def test_input_document_params(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(
            json.dumps({"params": {"A1": 0.06, "A2": 0.49, "A3": 0.36, "A4": 0.09, "D": 0.33}})
        )
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["branch"] == "theorem3"

    def test_input_document_matrix_roundtrip(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "compute", "--family", "rains")
        css_matrix = json.loads(out)["css_matrix"]
        path = tmp_path / "css.json"
        path.write_text(json.dumps({"matrix": css_matrix}))
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["branch"] == "separable"

    def test_input_document_bloch(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"bloch": {"r": 0.0, "s": 0.0, "gx": 1.0, "gz": -1.0}}))
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ree_nats"] == pytest.approx(math.log(2.0), abs=1e-12)

    def test_malformed_document_names_field(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"params": {"A1": 0.5, "A2": 0.5}}))
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_INVALID
        assert "params" in err

    def test_not_in_family_matrix_lists_entries(self, tmp_path, capsys):
        entry = lambda v: [v, 0.0]
        m = [[entry(0.0)] * 4 for _ in range(4)]
        for i, v in enumerate((0.4, 0.1, 0.3, 0.2)):
            m[i][i] = entry(v)
        m[0][3] = entry(0.15)
        m[3][0] = entry(0.15)
        path = tmp_path / "corner.json"
        path.write_text(json.dumps({"matrix": m}))
        code, _, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_INVALID
        assert "(0,3)" in err

    def test_matrix_populations_print_as_plain_floats(self, tmp_path, capsys):
        entry = lambda v: [v, 0.0]
        m = [[entry(0.0)] * 4 for _ in range(4)]
        for i, v in enumerate((-1e-11, 0.5, 0.5, 1e-11)):
            m[i][i] = entry(v)
        m[1][2] = m[2][1] = entry(0.3)
        path = tmp_path / "negative.json"
        path.write_text(json.dumps({"matrix": m}))
        code, out, err = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "error: negative population in (-1e-11, 0.5, 0.5, 1e-11)\n"

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "compute", "--family", "rains", "--params", "0,0.5,0.5,0,0.5")
        assert code == EXIT_INVALID

    def test_oracle_fallback_on_failure_keeps_exit_2(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--family", "theorem3_example:0.66,0.05,0.07,0.04,0.18",
            "--oracle", "--seed", "5", "--restarts", "2", "--terms", "8",
            "--iterations", "300",
        )
        assert code == EXIT_ANSATZ_FAILURE
        doc = json.loads(out)
        assert doc["branch"] == "ansatz_failure"
        assert doc["oracle"]["ree_upper_bound"] > 0.0
        validate_output(doc["oracle"], "oracle_output.schema.json")


class TestSelftest:
    def test_passes_and_deterministic(self, capsys):
        code, out1, _ = run_cli(capsys, "selftest")
        assert code == EXIT_OK
        assert "checks passed" in out1
        code, out2, _ = run_cli(capsys, "selftest")
        assert out1 == out2

    def test_table_bytes_are_pinned(self, capsys):
        # every speed-up of the solver must keep these bytes
        _, out, _ = run_cli(capsys, "selftest")
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "1d1208a0a267c6e3843e023f5ea030303b254fb386ab827749fb30b7b3efa682"

    def test_mentions_rains_expected_value(self, capsys):
        _, out, _ = run_cli(capsys, "selftest")
        assert "0.381944444444" in out  # 55/144

    def test_failed_check_is_reported_and_exits_invalid(self, capsys, monkeypatch):
        rows = [("off by one", 1.0, 2.0, 1e-12), ("branch label", "theorem1", "theorem1", 0.0)]
        monkeypatch.setattr(cli, "_selftest_rows", lambda: rows)
        code, out, _ = run_cli(capsys, "selftest")
        assert code == EXIT_INVALID
        lines = out.splitlines()
        assert lines[2].startswith("off by one") and lines[2].endswith("FAIL")
        assert lines[3].startswith("branch label") and lines[3].endswith("pass")
        assert lines[-1] == "1/2 checks passed"


class TestOracleCommand:
    def test_rains_comparison_and_determinism(self, capsys):
        args = (
            "oracle", "--family", "rains", "--seed", "7",
            "--restarts", "2", "--terms", "8", "--iterations", "300",
        )
        code, out1, _ = run_cli(capsys, *args)
        assert code == EXIT_OK
        doc = json.loads(out1)
        validate_output(doc, "oracle_output.schema.json")
        assert doc["abs_difference"] < 5e-4
        code, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    @pytest.mark.parametrize(
        "state, terms",
        [
            (("--family", "rains"), "4"),
            (("--family", "horodecki:0.6,0.25,0.15"), "5"),
            (("--family", "theorem3_example:0.66,0.05,0.07,0.04,0.18"), "4"),
            (("--params", "0.3,0.2,0.2,0.3,0.1"), "7"),
        ],
        ids=["rains", "horodecki", "failure", "separable"],
    )
    def test_any_legal_mixture_size_runs(self, capsys, state, terms):
        code, out, err = run_cli(
            capsys, "oracle", *state, "--terms", terms, "--restarts", "1", "--iterations", "100"
        )
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        validate_output(doc, "oracle_output.schema.json")
        assert len(doc["weights"]) == int(terms)

    def test_state_inside_the_ppt_slack_runs(self, capsys):
        # compute calls it separable with d^2 = 1e-14 against a1 a4 = 0
        code, out, err = run_cli(
            capsys, "oracle", "--params", "0.5,0.25,0.25,0,1e-7",
            "--restarts", "1", "--terms", "8", "--iterations", "100",
        )
        assert (code, err) == (EXIT_OK, "")
        doc = json.loads(out)
        validate_output(doc, "oracle_output.schema.json")
        assert doc["closed"]["branch"] == "separable"

    def test_bell_close_to_ln2(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--family", "vp:1,0,0", "--seed", "3",
            "--restarts", "2", "--terms", "8", "--iterations", "300",
        )
        doc = json.loads(out)
        assert abs(doc["ree_upper_bound"] - math.log(2.0)) < 5e-4


class TestScan:
    def line_grid(self, tmp_path, count=5):
        path = tmp_path / "grid.json"
        path.write_text(
            json.dumps(
                {
                    "mode": "line",
                    "family": "theorem3_example",
                    "from": [0.66, 0.16, 0.03, 0.06, 0.09],
                    "to": [0.66, 0.05, 0.07, 0.04, 0.18],
                    "count": count,
                }
            )
        )
        return str(path)

    def test_line_flips_branch_inside(self, tmp_path, capsys):
        code, out, _ = run_cli(capsys, "scan", "--grid", self.line_grid(tmp_path))
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0] == "p,q1,q2,q3,q4,branch,ree,residual_max"
        branches = [line.split(",")[5] for line in lines[1:]]
        assert branches[0] == "theorem3"
        assert branches[-1] == "ansatz_failure"
        assert "theorem3" in branches[1:-1] or "ansatz_failure" in branches[1:-1]
        flip = next(i for i, b in enumerate(branches) if b == "ansatz_failure")
        assert 0 < flip < len(branches)

    def test_rerun_byte_identical(self, tmp_path, capsys):
        grid = self.line_grid(tmp_path)
        _, out1, _ = run_cli(capsys, "scan", "--grid", grid)
        _, out2, _ = run_cli(capsys, "scan", "--grid", grid)
        assert out1 == out2

    def test_raw_grid_d_zero_slice_separable(self, tmp_path, capsys):
        path = tmp_path / "raw.json"
        path.write_text(
            json.dumps(
                {
                    "mode": "raw",
                    "axes": {
                        "a1": 0.4,
                        "a2": 0.3,
                        "a3": 0.2,
                        "a4": 0.1,
                        "d": [0.0, 0.1, 0.21],
                    },
                }
            )
        )
        code, out, err = run_cli(capsys, "scan", "--grid", str(path))
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        rows = [line.split(",") for line in lines[1:]]
        d_zero = next(r for r in rows if r[4] == "0")
        assert d_zero[5] == "separable" and d_zero[6] == "0"

    def test_infeasible_points_skipped_with_warning(self, tmp_path, capsys):
        path = tmp_path / "raw.json"
        path.write_text(
            json.dumps(
                {
                    "mode": "raw",
                    "axes": {
                        "a1": [0.4, 0.9],
                        "a2": 0.3,
                        "a3": 0.2,
                        "a4": 0.1,
                        "d": 0.1,
                    },
                }
            )
        )
        code, out, err = run_cli(capsys, "scan", "--grid", str(path))
        assert code == EXIT_OK
        assert "skipped 1 infeasible" in err
        assert len(out.strip().split("\n")) == 2  # header + one feasible row

    def test_cap_enforced(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        # 10^15 points must be refused from the document, before any is built
        for count in (10, 1000):
            axes = {k: {"start": 0.0, "stop": 1.0, "count": count} for k in ("a1", "a2", "a3", "a4", "d")}
            path.write_text(json.dumps({"mode": "raw", "axes": axes}))
            code, _, err = run_cli(capsys, "scan", "--grid", str(path), "--cap", "1000")
            assert code == EXIT_INVALID
            assert "cap" in err


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            ("compute", "--bogus"),
            ("compute", "--seed", "x"),
            ("scan",),
            ("scan", "--grid", "grid.json", "--threads", "4"),
        ],
        ids=["unknown-flag", "bad-int", "missing-grid", "removed-threads"],
    )
    def test_usage_error_exits_invalid(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: xree ")
        assert captured.err.count("error:") == 1 and captured.err.endswith("\n")

    @pytest.mark.parametrize(
        "argv, prog, unknown",
        [
            (("compute", "--bogus"), "xree compute", "--bogus"),
            (("scan", "--grid", "grid.json", "--threads", "4"), "xree scan", "--threads 4"),
            (("--bogus", "compute", "--family", "rains"), "xree", "--bogus"),
        ],
        ids=["compute", "scan", "top-level"],
    )
    def test_unknown_flag_gets_its_own_parsers_usage(self, capsys, argv, prog, unknown):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith(f"usage: {prog} [-h] ")
        assert err.count("error:") == 1
        assert err.endswith(f"{prog}: error: unrecognized arguments: {unknown}\n")

    @pytest.mark.parametrize("argv", [("--help",), ("compute", "--help")])
    def test_help_exits_ok(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: xree")

    def test_help_states_the_exit_codes(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "exit codes: 0 success; 1 invalid input" in text
        assert "2 ansatz failure" in text


class TestToleranceOverride:
    def test_env_override_is_honored(self, tmp_path, monkeypatch, capsys):
        import xree.config as config

        override = tmp_path / "tols.json"
        override.write_text(json.dumps({"root_grid_points": 20000}))
        monkeypatch.setenv("REE_TOL_OVERRIDE", str(override))
        config.reset_tolerance_cache()
        try:
            assert config.default_tolerances().root_grid_points == 20000
            # at 10x grid resolution the narrow general-branch root of the
            # reference failure state becomes resolvable
            code, out, _ = run_cli(
                capsys, "compute", "--family", "theorem3_example:0.66,0.05,0.07,0.04,0.18"
            )
            assert code == EXIT_OK
            doc = json.loads(out)
            assert doc["branch"] == "theorem3"
            assert doc["ree_nats"] == pytest.approx(0.123080043672, abs=1e-9)
        finally:
            monkeypatch.delenv("REE_TOL_OVERRIDE")
            config.reset_tolerance_cache()

    def test_unknown_field_rejected(self, tmp_path):
        from xree.config import Tolerances

        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nonsense": 1}))
        with pytest.raises(ValueError):
            Tolerances.from_file(str(bad))

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(json.dumps({"eig_max_sweeps": 50}), id="unknown-field"),
            pytest.param("{not json", id="malformed"),
            pytest.param(json.dumps([1, 2]), id="list"),
        ],
    )
    def test_bad_override_file_exits_invalid(self, tmp_path, monkeypatch, capsys, text):
        import xree.config as config

        bad = tmp_path / "tols.json"
        bad.write_text(text)
        monkeypatch.setenv("REE_TOL_OVERRIDE", str(bad))
        config.reset_tolerance_cache()
        try:
            code, out, err = run_cli(capsys, "compute", "--params", "0.1,0.4,0.3,0.2,0.1")
        finally:
            monkeypatch.delenv("REE_TOL_OVERRIDE")
            config.reset_tolerance_cache()
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_list_override_is_value_error(self, tmp_path):
        from xree.config import Tolerances

        bad = tmp_path / "list.json"
        bad.write_text(json.dumps([{"root_grid_points": 20000}]))
        with pytest.raises(ValueError, match="JSON object"):
            Tolerances.from_file(str(bad))


class TestOracleBudgets:
    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--iterations", "0", "max_iterations"),
            ("--restarts", "-3", "restarts"),
            ("--seed", "-1", "rng_seed"),
        ],
    )
    def test_meaningless_budget_exits_invalid(self, capsys, flag, value, field):
        code, out, err = run_cli(capsys, "oracle", "--family", "rains", flag, value)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith(f"error: {field}") and err.count("\n") == 1

    @pytest.mark.parametrize("terms", ["17", "100000000000"])
    def test_terms_above_sixteen_exit_invalid(self, capsys, terms):
        # no array of that many terms is allocated
        code, out, err = run_cli(capsys, "oracle", "--family", "rains", "--terms", terms)
        assert (code, out) == (EXIT_INVALID, "")
        assert err.startswith("error: num_product_terms") and err.count("\n") == 1


class TestUnreadablePaths:
    """A path that cannot be read or written gives one error line, not a traceback."""

    @staticmethod
    def assert_one_error_line(code, err):
        assert code == EXIT_INVALID
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("scan", "--grid", "{dir}"), id="grid-directory"),
            pytest.param(("compute", "--input", "{dir}"), id="input-directory"),
            pytest.param(("compute", "--family", "rains", "--out", "{dir}"), id="compute-out-directory"),
            pytest.param(("selftest", "--out", "{dir}"), id="selftest-out-directory"),
        ],
    )
    def test_directory_path(self, tmp_path, capsys, argv):
        code, out, err = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert out == ""
        self.assert_one_error_line(code, err)

    @pytest.mark.parametrize("command, flag", [("compute", "--input"), ("scan", "--grid")])
    def test_non_utf8_document(self, tmp_path, capsys, command, flag):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"family": {"name": "r\xe4ins"}}')
        code, out, err = run_cli(capsys, command, flag, str(path))
        assert out == ""
        self.assert_one_error_line(code, err)
        assert "not valid JSON" in err

    def test_tolerance_override_directory(self, tmp_path, monkeypatch, capsys):
        import xree.config as config

        monkeypatch.setenv("REE_TOL_OVERRIDE", str(tmp_path))
        config.reset_tolerance_cache()
        try:
            code, out, err = run_cli(capsys, "compute", "--family", "rains")
        finally:
            monkeypatch.delenv("REE_TOL_OVERRIDE")
            config.reset_tolerance_cache()
        assert out == ""
        self.assert_one_error_line(code, err)
        assert "REE_TOL_OVERRIDE" in err


class TestInputPaths:
    @pytest.mark.parametrize(
        "family, branch",
        [({"name": "vp", "weights": [0.5, 0.3, 0.2]}, "theorem1"), ({"name": "rains"}, "theorem3")],
    )
    def test_input_document_family(self, tmp_path, capsys, family, branch):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"family": family}))
        code, out, _ = run_cli(capsys, "compute", "--input", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["branch"] == branch

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--params", "0.4,0.3,0.3"), "error: --params expects a1,a2,a3,a4,d[,phi]"),
            (("--params", "0.1,0.4,x,0.2,0.1"), "error: --params: could not convert"),
            (("--family", "vp:0.5,abc,0.2"), "error: --family weights: could not convert"),
        ],
    )
    def test_unparsable_flag_exits_invalid(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "compute", *argv)
        assert code == EXIT_INVALID
        assert out == ""
        assert err.startswith(message) and err.count("\n") == 1

    def test_oracle_bits(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--family", "rains", "--bits",
            "--seed", "7", "--restarts", "2", "--terms", "8", "--iterations", "300",
        )
        assert code == EXIT_OK
        doc = json.loads(out)
        validate_output(doc, "oracle_output.schema.json")
        assert doc["ree_upper_bound_bits"] == doc["ree_upper_bound"] / math.log(2.0)

    def test_compute_out_file(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        code, out, _ = run_cli(capsys, "compute", "--family", "rains", "--out", str(path))
        assert code == EXIT_OK and out == ""
        written = json.loads(path.read_text(encoding="utf-8"))
        _, out, _ = run_cli(capsys, "compute", "--family", "rains")
        printed = json.loads(out)
        del written["elapsed"], printed["elapsed"]
        assert written == printed

    def test_selftest_out_file(self, tmp_path, capsys):
        path = tmp_path / "table.txt"
        code, out, _ = run_cli(capsys, "selftest", "--out", str(path))
        assert code == EXIT_OK and out == ""
        _, printed, _ = run_cli(capsys, "selftest")
        assert path.read_text(encoding="utf-8") == printed

    def test_scan_range_axes(self, tmp_path, capsys):
        axes = {
            "a1": {"start": 0.1, "stop": 0.9, "count": 1},  # one value: the start
            "a2": 0.4,
            "a3": 0.3,
            "a4": 0.2,
            "d": {"start": 0.0, "stop": 0.3, "count": 4},
        }
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"mode": "raw", "axes": axes}))
        code, out, err = run_cli(capsys, "scan", "--grid", str(path))
        assert code == EXIT_OK and err == ""
        rows = out.splitlines()
        assert rows[0] == "a1,a2,a3,a4,d,branch,ree,residual_max"
        assert [row.split(",")[:5] for row in rows[1:]] == [
            ["0.1", "0.4", "0.3", "0.2", d] for d in ("0", "0.1", "0.2", "0.3")
        ]


GRID, STATE = "scan_grid.schema.json", "state_input.schema.json"
SCHEMAS = {name: _schema(name) for name in (GRID, STATE)}
GRIDS = Path(__file__).resolve().parent.parent / "grids"
LINE = json.loads((GRIDS / "baseline_line.json").read_text())
SIMPLEX = json.loads((GRIDS / "failure_region.json").read_text())
RANGE_AXIS = {"start": 0.0, "stop": 0.3, "count": 4}
RAW = {"mode": "raw", "axes": {"a1": 0.1, "a2": [0.4, 0.5], "a3": 0.3, "a4": 0.2, "d": RANGE_AXIS}}
EXAMPLE = {
    "mode": "theorem3_example",
    "axes": {"p": 0.66, "q1": 0.1, "q2": [0.1], "q3": RANGE_AXIS, "q4": 0},
}
PARAMS = {"params": {"A1": 0.06, "A2": 0.49, "A3": 0.36, "A4": 0.09, "D": 0.33, "phi": 0.5}}
# one document of each grid mode and of each state kind, all valid
SEED_DOCUMENTS = [
    (GRID, LINE),
    (GRID, SIMPLEX),
    (GRID, RAW),
    (GRID, EXAMPLE),
    (STATE, {"matrix": [[[0.25 * (i == j), 0.0] for j in range(4)] for i in range(4)]}),
    (STATE, PARAMS),
    (STATE, {"bloch": {"r": 0.0, "s": 0.0, "gx": 1.0, "gz": -1.0}}),
    (STATE, {"family": {"name": "rains", "weights": []}}),
]


def containers(node, found):
    """Every list and dict in `node`, `node` itself first."""
    found.append(node)
    for child in node.values() if isinstance(node, dict) else node:
        if isinstance(child, (dict, list)):
            containers(child, found)
    return found


KEYS = sorted(
    {"x"}
    | {key for _, doc in SEED_DOCUMENTS for n in containers(doc, []) if isinstance(n, dict) for key in n}
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 3),
    st.floats(),
    st.sampled_from([2.0, 0.5, "line", "raw", "simplex", "theorem3_example", "rains", ""]),
)
NUMBERS = st.floats(0, 1) | st.integers(1, 5) | st.sampled_from([0, 2.0, -0.5, 1.5, math.inf, math.nan])
LIKE = {
    int: NUMBERS,
    float: NUMBERS,
    str: st.sampled_from(["line", "raw", "simplex", "theorem3_example", "rains", "vp", "x"]),
    list: st.lists(NUMBERS, max_size=6),
}
# deeper values grow by insertion into an inserted container
VALUES = LEAVES | st.lists(LEAVES, max_size=5) | st.dictionaries(st.sampled_from(KEYS), LEAVES)


def mutate(data, doc):
    """Replace, retype, delete or insert one value somewhere in `doc`."""
    parent = data.draw(st.sampled_from(containers(doc, [])))
    keys = list(parent) if isinstance(parent, dict) else list(range(len(parent)))
    op = data.draw(st.sampled_from(["like", "like", "replace", "delete", "insert"]))
    if op == "insert" or not keys:
        if isinstance(parent, dict):
            parent[data.draw(st.sampled_from(KEYS))] = data.draw(VALUES)
        else:
            parent.append(data.draw(VALUES))
        return
    key = data.draw(st.sampled_from(keys))
    if op == "delete":
        del parent[key]
    elif op == "like":  # a value of the same kind, so the document often stays valid
        parent[key] = data.draw(LIKE.get(type(parent[key]), VALUES))
    else:
        parent[key] = data.draw(VALUES)


SUBSCHEMAS = {
    "properties": dict.values,
    "definitions": dict.values,
    "allOf": list,
    "oneOf": list,
    "items": lambda value: [value],
    "if": lambda value: [value],
    "then": lambda value: [value],
}


def schema_keywords(schema):
    """(keyword, value) for every keyword of `schema` and of its subschemas."""
    for key, value in schema.items():
        yield key, value
        for sub in SUBSCHEMAS.get(key, lambda value: [])(value):
            if isinstance(sub, dict):
                yield from schema_keywords(sub)


def with_edit(doc, path, value):
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


class TestSchemaFastCheck:
    """`_accepts` answers for jsonschema on every valid document, and never wrongly."""

    @settings(max_examples=500, deadline=None)
    @given(data=st.data())
    def test_agrees_with_jsonschema_on_mutated_documents(self, data):
        _, seed = data.draw(st.sampled_from(SEED_DOCUMENTS))
        doc = copy.deepcopy(seed)
        for _ in range(data.draw(st.integers(1, 3))):
            mutate(data, doc)
        for name, schema in SCHEMAS.items():
            valid = jsonschema.Draft7Validator(schema).is_valid(doc)
            fast = _accepts(doc, schema)
            assert valid or not fast, f"accepted a document jsonschema rejects under {name}"
            assert fast or not valid, f"sent a valid document to jsonschema under {name}"

    @pytest.mark.parametrize(
        "name, doc, valid",
        [
            pytest.param(GRID, with_edit(SIMPLEX, ["p"], True), False, id="bool-number"),
            pytest.param(GRID, with_edit(SIMPLEX, ["split"], False), False, id="false-number"),
            pytest.param(GRID, with_edit(SIMPLEX, ["steps"], True), False, id="bool-integer"),
            pytest.param(GRID, with_edit(SIMPLEX, ["steps"], 2.0), True, id="steps-2.0"),
            pytest.param(GRID, with_edit(LINE, ["count"], 2.0), True, id="count-2.0"),
            pytest.param(GRID, with_edit(LINE, ["count"], 2.5), False, id="count-2.5"),
            pytest.param(GRID, with_edit(LINE, ["count"], math.inf), False, id="count-inf"),
            pytest.param(GRID, with_edit(SIMPLEX, ["p"], math.nan), True, id="nan-in-range"),
            pytest.param(GRID, with_edit(LINE, ["from", 0], True), False, id="bool-item"),
            pytest.param(GRID, with_edit(LINE, ["mode"], 1), False, id="enum-1"),
            pytest.param(GRID, with_edit(LINE, ["family"], True), False, id="const-true"),
            pytest.param(GRID, with_edit(RAW, ["axes", "a1"], None), False, id="null-axis"),
            pytest.param(GRID, with_edit(RAW, ["axes", "a1"], []), False, id="empty-axis"),
            pytest.param(GRID, with_edit(RAW, ["axes", "a1"], True), False, id="bool-axis"),
            pytest.param(GRID, with_edit(RAW, ["axes", "a1"], 1), True, id="int-axis"),
            pytest.param(GRID, with_edit(RAW, ["axes", "d", "count"], 1.0), True, id="axis-count"),
            pytest.param(GRID, with_edit(LINE, ["x"], 1), False, id="extra-key"),
            pytest.param(GRID, with_edit(EXAMPLE, ["axes", "a1"], 1), False, id="extra-axis"),
            pytest.param(GRID, with_edit(RAW, ["axes", "d", "x"], 1), False, id="extra-range-key"),
            pytest.param(STATE, with_edit(PARAMS, ["params", "A1"], True), False, id="bool-param"),
            pytest.param(STATE, with_edit(PARAMS, ["params", "A1"], 0), True, id="int-param"),
            pytest.param(STATE, with_edit(PARAMS, ["params", "x"], 0), False, id="extra-param"),
            pytest.param(STATE, {"family": {"name": 1}}, False, id="name-1"),
            pytest.param(STATE, {"family": {"name": True}}, False, id="name-true"),
            pytest.param(STATE, {}, False, id="min-properties"),
            pytest.param(STATE, [PARAMS], False, id="array-root"),
            pytest.param(GRID, None, False, id="null-root"),
            pytest.param(STATE, {**PARAMS, "family": {"name": "vp"}}, False, id="max-properties"),
        ],
    )
    def test_type_edges_match_jsonschema(self, name, doc, valid):
        schema = _schema(name)
        assert jsonschema.Draft7Validator(schema).is_valid(doc) is valid
        assert _accepts(doc, schema) is valid

    @pytest.mark.parametrize(
        "schema, doc, valid",
        [
            pytest.param({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 1, False, id="one-of-two"),
            pytest.param({"oneOf": [{"type": "number"}, {"type": "integer"}]}, 0.5, True, id="one-of-one"),
            pytest.param({"if": {"const": "a"}, "then": {"type": "number"}}, "b", True, id="if-false"),
            pytest.param({"if": {"const": "a"}, "then": {"type": "number"}}, "a", False, id="if-then"),
            pytest.param({"then": {"type": "number"}}, "a", True, id="then-alone"),
            pytest.param(
                {"$ref": "#/definitions/n", "type": "string", "definitions": {"n": {"type": "number"}}},
                1,
                True,
                id="ref-ignores-siblings",
            ),
        ],
    )
    def test_keyword_semantics_match_jsonschema(self, schema, doc, valid):
        assert jsonschema.Draft7Validator(schema).is_valid(doc) is valid
        assert _accepts(doc, schema) is valid

    @pytest.mark.parametrize("name", [GRID, STATE])
    def test_shipped_schemas_use_only_checked_keywords(self, name):
        used = list(schema_keywords(_schema(name)))
        checked = {"$ref", *cli._KEYWORDS, *cli._ANNOTATIONS}
        assert {key for key, _ in used} - checked == set()
        # _same checks string values only
        values = [v for key, v in used if key == "const"]
        values += [v for key, vs in used if key == "enum" for v in vs]
        assert values and all(isinstance(v, str) for v in values)
        assert all(_accepts(doc, SCHEMAS[name]) for kind, doc in SEED_DOCUMENTS if kind == name)

    @pytest.mark.parametrize(
        "keyword, value",
        [
            ("pattern", "^r"),
            ("anyOf", [{"type": "string"}]),
            ("not", {"type": "null"}),
            ("else", {}),
            ("format", "date"),
            ("additionalProperties", True),
            ("type", ["string", "null"]),
        ],
    )
    def test_unchecked_keyword_leaves_the_verdict_to_jsonschema(self, keyword, value):
        schema = _schema(STATE)
        schema["properties"]["family"]["properties"]["name"][keyword] = value
        doc = {"family": {"name": "rains"}}
        assert jsonschema.Draft7Validator(schema).is_valid(doc)
        assert not _accepts(doc, schema)

    @pytest.mark.parametrize(
        "schema, doc",
        [
            pytest.param({"items": True}, [1], id="boolean-subschema"),
            pytest.param({"properties": {"a": {"$ref": "#"}}}, {"a": {}}, id="ref-to-root"),
        ],
    )
    def test_unchecked_form_leaves_the_verdict_to_jsonschema(self, schema, doc):
        assert jsonschema.Draft7Validator(schema).is_valid(doc)
        assert not _accepts(doc, schema)

    def test_unchecked_keyword_inside_if_leaves_the_verdict_to_jsonschema(self):
        schema = _schema(GRID)
        schema["allOf"][0]["if"]["properties"]["mode"]["pattern"] = "^t"
        assert jsonschema.Draft7Validator(schema).is_valid(EXAMPLE)
        assert not _accepts(EXAMPLE, schema)
        assert _accepts(LINE, schema)  # the failed const decides alone

    def test_jsonschema_decides_where_the_check_is_unsure(self, monkeypatch):
        schema = _schema(STATE)
        schema["properties"]["family"]["properties"]["name"]["pattern"] = "^r"
        monkeypatch.setattr(cli, "_schema", lambda name: schema)
        cli._validate_document({"family": {"name": "rains"}}, STATE)
        with pytest.raises(cli.InvalidStateError, match="^field family/name: 'vp' does not match"):
            cli._validate_document({"family": {"name": "vp"}}, STATE)
