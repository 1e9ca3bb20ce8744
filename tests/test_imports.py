"""Import graph: each entry point loads only the libraries its code path runs."""

import ast
import json
import math
import os
import subprocess
import sys

import xree
import xree.oracle
from xree import OracleConfig, named_state, oracle_ree

SRC = os.path.dirname(os.path.dirname(os.path.abspath(xree.__file__)))
HEAVY = ("scipy.optimize", "jsonschema")


def run_fresh(code: str) -> dict:
    """Run `code` in a new interpreter and parse the JSON line it prints."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


PRELUDE = f"""
import contextlib, io, json, sys
import xree, xree.cli

def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = xree.cli.main(list(argv))
    return code, err.getvalue()

def loaded():
    return [m for m in {HEAVY!r} if m in sys.modules]
"""


def test_compute_loads_neither_scipy_optimize_nor_jsonschema():
    got = run_fresh(
        PRELUDE
        + """
after_import = loaded()
code, _ = call("compute", "--params", "0.1,0.4,0.3,0.2,0.3")
print(json.dumps({"code": code, "after_import": after_import, "after_compute": loaded()}))
"""
    )
    assert got == {"code": 0, "after_import": [], "after_compute": []}


def test_documents_still_load_and_enforce_the_schema(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"params": {"A1": 0.1}}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"mode": "line", "count": 5}))
    got = run_fresh(
        PRELUDE
        + f"""
state = call("compute", "--input", {str(state)!r})
grid = call("scan", "--grid", {str(grid)!r})
print(json.dumps({{"state": state, "grid": grid, "loaded": loaded()}}))
"""
    )
    assert got["loaded"] == []
    for code, err in (got["state"], got["grid"]):
        assert code == 1
        assert err.startswith("error: field")


def test_xree_runs_without_jsonschema(tmp_path):
    # jsonschema is the tests' reference for the document check, not a dependency
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps({"params": {"A1": 0.1, "A2": 0.4, "A3": 0.3, "A4": 0.2, "D": 0.3}}))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"params": {"A1": 0.1}}))
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"mode": "simplex", "p": 0.5, "split": 1.5, "steps": 3}))
    line = os.path.join(os.path.dirname(SRC), "grids", "baseline_line.json")
    got = run_fresh(
        'import sys\nsys.modules["jsonschema"] = None\n'
        + PRELUDE
        + f"""
print(json.dumps([
    call("compute", "--params", "0.1,0.4,0.3,0.2,0.3"),
    call("compute", "--input", {str(valid)!r}),
    call("scan", "--grid", {line!r}),
    call("compute", "--input", {str(state)!r}),
    call("scan", "--grid", {str(grid)!r}),
]))
"""
    )
    assert got == [
        [0, ""],
        [0, ""],
        [0, ""],
        [1, "error: field params: 'A2' is a required property\n"],
        [1, "error: field split: 1.5 is greater than the maximum of 1\n"],
    ]


def test_valid_documents_load_without_jsonschema(tmp_path):
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"params": {"A1": 0.1, "A2": 0.4, "A3": 0.3, "A4": 0.2, "D": 0.3}}))
    grid = os.path.join(os.path.dirname(SRC), "grids", "baseline_line.json")
    got = run_fresh(
        PRELUDE
        + f"""
state = call("compute", "--input", {str(state)!r})
grid = call("scan", "--grid", {grid!r})
print(json.dumps({{"codes": [state[0], grid[0]], "loaded": loaded()}}))
"""
    )
    assert got == {"codes": [0, 0], "loaded": []}


def test_compute_and_scan_leave_the_oracle_and_numpy_ma_unloaded():
    grid = os.path.join(os.path.dirname(SRC), "grids", "baseline_line.json")
    got = run_fresh(
        PRELUDE
        + f"""
compute = call("compute", "--params", "0.1,0.4,0.3,0.2,0.3")
scan = call("scan", "--grid", {grid!r})
# numpy.ma is what np.unique imports on first use
unloaded = [m for m in ("xree.oracle", "numpy.ma") if m in sys.modules]
from xree import oracle_ree, OracleConfig
print(json.dumps({{
    "codes": [compute[0], scan[0]],
    "unloaded": unloaded,
    "names": [oracle_ree.__module__, OracleConfig.__module__, xree.OracleResult.__module__],
    "module": xree.oracle is sys.modules["xree.oracle"],
}}))
"""
    )
    assert got == {
        "codes": [0, 0],
        "unloaded": [],
        "names": ["xree.oracle"] * 3,
        "module": True,
    }


def test_oracle_minimizer_is_a_wrappable_module_attribute(monkeypatch):
    assert callable(xree.oracle.minimize)
    assert xree.oracle.minimize.__module__ == "xree.oracle"
    calls = 0
    forward = xree.oracle.minimize

    def counting(*args, **kwargs):
        nonlocal calls
        calls += 1
        return forward(*args, **kwargs)

    monkeypatch.setattr(xree.oracle, "minimize", counting)
    cfg = OracleConfig(num_product_terms=4, restarts=1, max_iterations=200)
    res = oracle_ree(named_state("vp", 1.0, 0.0, 0.0), cfg)
    assert calls > 0
    assert math.log(2.0) - 1e-9 <= res.ree_upper_bound < math.log(2.0) + 1e-6


def test_oracle_runs_without_scipy():
    got = run_fresh(
        """
import json, sys
from xree import OracleConfig, named_state, oracle_ree
cfg = OracleConfig(num_product_terms=4, restarts=1, max_iterations=50)
oracle_ree(named_state("vp", 1.0, 0.0, 0.0), cfg)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    )
    assert got == []


def test_bad_override_is_not_read_at_import():
    # a tolerance read during import would die with a traceback before
    # cli.main could report the bad override file
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, REE_TOL_OVERRIDE="/nonexistent")
    imported = subprocess.run(
        [sys.executable, "-c", "import xree"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert imported.returncode == 0, imported.stderr
    proc = subprocess.run(
        [sys.executable, "-m", "xree.cli", "compute", "--params", "0.1,0.4,0.3,0.2,0.1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: REE_TOL_OVERRIDE:")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


def module_imports_never_used(source: str) -> list[str]:
    """Names bound by the module's top-level imports that no Name node reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in read]


def test_module_imports_never_used_finds_a_dead_name():
    source = "import math, os.path\nfrom x import y as z, w\nprint(os.sep, w)\n"
    assert module_imports_never_used(source) == ["math", "z"]


def test_no_module_import_is_left_unused():
    # the package re-exports its API from __init__.py, so that file is skipped
    package = os.path.dirname(os.path.abspath(xree.__file__))
    unused = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "__init__.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                dead = module_imports_never_used(fh.read())
            if dead:
                unused[name] = dead
    assert unused == {}
