"""CLI contract: exit codes, schemas, determinism, scan behavior."""

import json
import math

import jsonschema
import pytest

from xree.cli import EXIT_ANSATZ_FAILURE, EXIT_INVALID, EXIT_OK, main, _schema


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

    def test_mentions_rains_expected_value(self, capsys):
        _, out, _ = run_cli(capsys, "selftest")
        assert "0.381944444444" in out  # 55/144


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

    def test_threads_do_not_change_output(self, tmp_path, capsys):
        grid = self.line_grid(tmp_path)
        _, out1, _ = run_cli(capsys, "scan", "--grid", grid)
        _, out2, _ = run_cli(capsys, "scan", "--grid", grid, "--threads", "4")
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
