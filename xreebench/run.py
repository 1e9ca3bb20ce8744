#!/usr/bin/env python3
"""Benchmark of the xree package: seeded workloads with checked outputs.

Run from the repository root:

    python3 xreebench/run.py --workload closed_form --seed 1 --seconds 25 --trace 0

Workloads (see README.md for why each was chosen):
  closed_form   in-process compute_ree on theorem1/theorem2/separable draws
                and the vp, horodecki and Bell-diagonal families;
  cli_session   cold `python -m xree.cli compute` processes and cold scans
                of the 400-point baseline line;
  oracle_check  oracle_validate with the CLI's default OracleConfig.

With --trace 0 the run is untraced and reports the end-to-end metrics;
with --trace 1 it runs the traced layer pass and reports the per-layer
metrics. Both print a table, then one JSON object as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}. The program is
imported from ./src only; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import types
from importlib import metadata
from pathlib import Path

import gauge
import inputs
import spans
from spans import END, NAME, PARENT, START, TAG

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOADS = ("closed_form", "cli_session", "oracle_check")
SETUP_SAMPLES = 3  # setup_s is the median of this many set-ups
CHILD_TIMEOUT_S = 60.0
# optimizer gauge sizes: about one closed_form pass (144 calls), and a
# seventh of an oracle_validate call
CLOSED_GAUGE_FEV = 700
ORACLE_GAUGE_FEV = 5000
TRACED_PASSES = 16  # closed_form passes in the traced layer pass, each also run untraced
SCAN_HEADER = "p,q1,q2,q3,q4,branch,ree,residual_max"
SCAN_DIGESTS = OUT_DIR / "scan_digests.json"
BLAS_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# One BLAS thread: 4x4 problems gain nothing from a pool, and on a 2-core
# machine the pool's idle threads made cold processes slower and noisier.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MAX_REPORTED_PROBLEMS = 20


class Tally:
    """Operations attempted and failed; the first few failures go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.failed <= MAX_REPORTED_PROBLEMS:
                print(f"check failed: {problem}", file=sys.stderr)


def guarded(fn, *args):
    """Run one operation; an exception becomes a failure reason."""
    try:
        return fn(*args)
    except Exception as exc:  # the benchmark counts the failure and goes on
        return f"{type(exc).__name__}: {exc}"


def environment() -> dict:
    """The facts about this machine that the numbers depend on."""
    versions = {}
    for dist in ("numpy", "scipy", "jsonschema"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = None
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        **versions,
        "blas_threads_found": {name: os.environ.get(name) for name in BLAS_VARS},
        "blas_threads_set": BLAS_PIN,
    }


def child_env() -> dict:
    """Environment of every child: the checkout's sources, bytecode caching on."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("REE_TOL_OVERRIDE", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclasses.dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child to completion and measure its wall time and peak RSS.

    The child is reaped with os.wait4 so its own resource usage is read;
    a child still running after `timeout` seconds is killed.
    """
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT_DIR) as out, tempfile.TemporaryFile(dir=OUT_DIR) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode,
            wall,
            usage.ru_maxrss / 1024.0,
            out.read().decode("utf-8", "replace"),
            err.read().decode("utf-8", "replace"),
        )


def load_program():
    """Import xree from ./src (and the numpy-based helpers) inside set-up."""
    sys.path.insert(0, str(SRC))
    import checker
    import xree

    if not Path(xree.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported xree from {xree.__file__}, not from {SRC}")
    return types.SimpleNamespace(xree=xree, checker=checker)


def answer(result):
    """(branch, ree, css) of a ReeResult; css is (r1, r2, r3, r4, y, phi)."""
    c = result.css
    css = None if c is None else (c.r1, c.r2, c.r3, c.r4, c.y, c.phi)
    return result.branch, result.ree, css


def no_span(name):
    return contextlib.nullcontext()


def median(values):
    return statistics.median(values) if values else 0.0


# -- closed_form -----------------------------------------------------------


def setup_closed_form(ctx, seed: int) -> None:
    """Build the states, run one checked warm-up pass, keep its answers."""
    ctx.closed_cases = inputs.closed_form_cases(seed)
    ctx.closed_states = [ctx.xree.x_state(*c.params) for c in ctx.closed_cases]
    ctx.closed_expected = []
    for case, state in zip(ctx.closed_cases, ctx.closed_states):
        got = guarded(lambda s: answer(ctx.xree.compute_ree(s)), state)
        if isinstance(got, str):
            ctx.tally.record(f"{case.label}: {got}")
            got = None
        else:
            ctx.tally.record(ctx.checker.check_answer(case, *got))
        ctx.closed_expected.append(got)


def closed_pass(ctx, span=no_span) -> list[int]:
    """One pass over the states; returns each compute_ree call's time in ns.

    Every answer must equal the checked warm-up answer for the same state.
    """
    compute = ctx.xree.compute_ree
    times = []
    for case, state, want in zip(ctx.closed_cases, ctx.closed_states, ctx.closed_expected):
        with span("closed_form"):
            start = time.perf_counter_ns()
            try:
                result = compute(state)
            except Exception as exc:  # counted below as a failed operation
                result = exc
            times.append(time.perf_counter_ns() - start)
        if isinstance(result, Exception):
            ctx.tally.record(f"{case.label}: {type(result).__name__}: {result}")
        else:
            got = answer(result)
            ctx.tally.record(None if got == want else f"{case.label}: answer {got!r} != {want!r}")
    return times


def run_closed_form(ctx, seconds: float) -> dict:
    # every pass holds the same 144-state mix, so passes are comparable
    # samples; only their summaries are kept, so the benchmark's own memory
    # does not grow with the number of calls. Each pass runs between two
    # optimizer gauges of about its own length.
    p50s, p90s, pass_s = [], [], []
    calls = 0
    gauges = [ctx.optimizer_gauge(CLOSED_GAUGE_FEV)]
    deadline = time.perf_counter() + seconds
    while not pass_s or time.perf_counter() < deadline:
        times = closed_pass(ctx)
        gauges.append(ctx.optimizer_gauge(CLOSED_GAUGE_FEV))
        p50s.append(statistics.median(times) / 1e9)
        p90s.append(statistics.quantiles(times, n=10)[8] / 1e9)
        pass_s.append(sum(times) / 1e9)
        calls += len(times)
    nominal = ctx.optimizer_gauge.nominal_s(CLOSED_GAUGE_FEV)
    p50 = median(gauge.paired_ratios(gauges, p50s)) * nominal * 1e3
    p90 = median(gauge.paired_ratios(gauges, p90s)) * nominal * 1e3
    rate = len(ctx.closed_cases) / (median(gauge.paired_ratios(gauges, pass_s)) * nominal)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "compute_p50_ms": (p50, "ms"),
        "compute_p90_ms": (p90, "ms"),
        "compute_calls": (calls, "count"),
        "raw_compute_p50_ms": (median(p50s) * 1e3, "ms"),
        "raw_gauge_ms": (median(gauges) * 1e3, "ms"),
    }
    return {"latency_ms": (p50, "ms"), "states_per_s": (rate, "1/s"), "peak_rss_mb": (rss, "MB")}, report


# -- cli_session -----------------------------------------------------------


def check_compute_doc(ctx, case, code: int, text: str) -> str | None:
    """Check the exit code and JSON document of one `xree compute` run."""
    want_code = 2 if case.expect == "ansatz_failure" else 0
    if code != want_code:
        return f"{case.label}: exit code {code}, expected {want_code}"
    try:
        doc = json.loads(text)
        css = doc["css"]
        css = None if css is None else tuple(css[k] for k in ("r1", "r2", "r3", "r4", "y", "phi"))
        return ctx.checker.check_answer(case, doc["branch"], doc["ree_nats"], css)
    except (ValueError, KeyError, TypeError) as exc:
        return f"{case.label}: unreadable compute document: {exc}"


def source_digest() -> str:
    """sha256 over the package sources: runs with equal digests run the same code."""
    h = hashlib.sha256()
    for path in sorted((SRC / "xree").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def setup_cli_session(ctx, seed: int) -> None:
    """Reference answers, the scan grid file, checked sample rows and a warm-up child."""
    xree, checker = ctx.xree, ctx.checker
    ctx.cli_cases = inputs.cli_cases(seed)
    for case in ctx.cli_cases:
        got = guarded(lambda c: answer(xree.compute_ree(xree.x_state(*c.params))), case)
        ctx.tally.record(f"{case.label}: {got}" if isinstance(got, str) else checker.check_answer(case, *got))

    OUT_DIR.mkdir(exist_ok=True)
    ctx.grid_path = OUT_DIR / "scan_line.json"
    ctx.grid_path.write_text(json.dumps(inputs.SCAN_LINE), encoding="utf-8")
    points = inputs.scan_points()
    ctx.scan_rows = {}
    for i in inputs.scan_sample(seed):
        params = inputs.theorem3_example_params(*points[i])
        result = xree.compute_ree(xree.x_state(*params))
        case = inputs.Case(f"scan row {i}", params, result.branch)
        if result.branch not in ("theorem3", "ansatz_failure"):
            ctx.tally.record(f"{case.label}: branch {result.branch!r} on the theorem3 line")
        else:
            ctx.tally.record(checker.check_answer(case, *answer(result)))
        cells = [f"{v:.12g}" for v in points[i]] + [result.branch]
        cells.append("" if result.ree is None else f"{result.ree:.12g}")
        cells.append("" if result.residual_max is None else f"{result.residual_max:.12g}")
        ctx.scan_rows[i] = ",".join(cells)
    ctx.scan_bytes = None
    ctx.source_digest = source_digest()
    # the first cold process writes the package's bytecode cache
    warm = ctx.cli_cases[0]
    child = run_child(compute_argv(warm))
    ctx.tally.record(check_compute_doc(ctx, warm, child.code, child.stdout))


def compute_argv(case) -> list[str]:
    return [sys.executable, "-m", "xree.cli", "compute", *case.cli_args()]


def check_scan(ctx, code: int, data: bytes) -> str | None:
    """Exit code, the rows, and byte identity within and across runs."""
    if code != 0:
        return f"scan exit code {code}"
    if ctx.scan_bytes is not None:
        return None if data == ctx.scan_bytes else "scan CSV bytes differ between two scans of one run"
    problem = check_scan_rows(ctx, data)
    if problem is None:
        ctx.scan_bytes = data
        problem = check_scan_digest(ctx.source_digest, hashlib.sha256(data).hexdigest())
    return problem


def check_scan_rows(ctx, data: bytes) -> str | None:
    """Header, row count and shape, and the recomputed sample rows."""
    lines = data.decode("utf-8", "replace").split("\n")
    if lines[0] != SCAN_HEADER or lines[-1] != "":
        return f"scan header {lines[0]!r} or trailing newline wrong"
    rows = lines[1:-1]
    if len(rows) != inputs.SCAN_LINE["count"]:
        return f"scan gave {len(rows)} rows, expected {inputs.SCAN_LINE['count']}"
    for i, row in enumerate(rows):
        cells = row.split(",")
        if len(cells) != 8 or cells[5] not in ("theorem3", "ansatz_failure"):
            return f"scan row {i} malformed: {row!r}"
        if (cells[5] == "theorem3") == (cells[6] == ""):
            return f"scan row {i} has branch {cells[5]} and REE {cells[6]!r}"
    for i, want in ctx.scan_rows.items():
        if rows[i] != want:
            return f"scan row {i} is {rows[i]!r}, recomputed {want!r}"
    return None


def check_scan_digest(source: str, scan: str) -> str | None:
    """Scan bytes must repeat across runs of the same sources."""
    try:
        known = json.loads(SCAN_DIGESTS.read_text(encoding="utf-8"))
    except (FileNotFoundError, ValueError):
        known = {}
    if source in known:
        return None if known[source] == scan else "scan CSV bytes differ from an earlier run of the same sources"
    known[source] = scan
    SCAN_DIGESTS.write_text(json.dumps(known, indent=1), encoding="utf-8")
    return None


def run_cli_session(ctx, seconds: float) -> dict:
    # computes and scans alternate, each between two import gauges
    kinds, walls, rss = [], [], []
    gauges = [gauge.import_gauge(run_child)]
    scan_argv = [sys.executable, "-m", "xree.cli", "scan", "--grid", str(ctx.grid_path)]
    deadline = time.perf_counter() + seconds
    while len(kinds) < 2 or time.perf_counter() < deadline:
        if len(kinds) % 2:
            child = run_child(scan_argv)
            ctx.tally.record(check_scan(ctx, child.code, child.stdout.encode("utf-8")))
        else:
            case = ctx.cli_cases[len(kinds) // 2 % len(ctx.cli_cases)]
            child = run_child(compute_argv(case))
            ctx.tally.record(check_compute_doc(ctx, case, child.code, child.stdout))
        gauges.append(gauge.import_gauge(run_child))
        kinds.append("scan" if len(kinds) % 2 else "compute")
        walls.append(child.wall_s)
        rss.append(child.peak_rss_mb)
    ratios = gauge.paired_ratios(gauges, walls)
    compute_s = median([r for k, r in zip(kinds, ratios) if k == "compute"]) * gauge.IMPORT_NOMINAL_S
    scan_s = median([r for k, r in zip(kinds, ratios) if k == "scan"]) * gauge.IMPORT_NOMINAL_S
    rows_per_s = inputs.SCAN_LINE["count"] / scan_s
    report = {
        "cli_compute_p50_s": (compute_s, "s"),
        "scan_rows_per_s": (rows_per_s, "1/s"),
        "cold_computes": (kinds.count("compute"), "count"),
        "cold_scans": (kinds.count("scan"), "count"),
        "raw_cli_compute_p50_s": (median([w for k, w in zip(kinds, walls) if k == "compute"]), "s"),
        "raw_gauge_s": (median(gauges), "s"),
    }
    metrics = {"latency_ms": (compute_s * 1e3, "ms"), "states_per_s": (rows_per_s, "1/s"), "peak_rss_mb": (max(rss), "MB")}
    return metrics, report


# -- oracle_check ------------------------------------------------------------


def setup_oracle_check(ctx, seed: int) -> None:
    """Closed-form answers the oracle is given, and the reference REE of each state.

    The failure state's reference comes from a 100x finer root grid, where
    it validates as theorem3.
    """
    xree, checker = ctx.xree, ctx.checker
    ctx.oracle_cfg = xree.OracleConfig()  # equal to the CLI's default flags
    ctx.oracle_items = []
    for case in inputs.oracle_cases(seed):
        state = xree.x_state(*case.params)
        closed = xree.compute_ree(state)
        ctx.tally.record(checker.check_answer(case, *answer(closed)))
        reference = closed
        if case.expect == "ansatz_failure":
            fine = xree.Tolerances(root_grid_points=inputs.FAILURE_REFERENCE_GRID)
            reference = xree.compute_ree(state, fine)
            problem = checker.check_answer(dataclasses.replace(case, expect="theorem3"), *answer(reference))
            if problem is None and abs(reference.ree - inputs.FAILURE_REFERENCE_REE) > checker.REE_TOL:
                problem = f"failure-state reference REE {reference.ree!r}, expected {inputs.FAILURE_REFERENCE_REE}"
            ctx.tally.record(problem)
        ref_ree = reference.ree if reference.ree is not None else float("nan")
        ctx.oracle_items.append((case, state, closed, ref_ree))


def oracle_call(ctx, item, span=no_span):
    """One oracle_validate call: returns (seconds, gap) or None if it failed."""
    case, state, closed, reference = item
    with span("oracle_check"):
        start = time.perf_counter()
        val = guarded(ctx.xree.oracle_validate, state, closed, ctx.oracle_cfg)
        elapsed = time.perf_counter() - start
    if isinstance(val, str):
        ctx.tally.record(f"{case.label}: {val}")
        return None
    bound = val.oracle.ree_upper_bound
    ctx.tally.record(ctx.checker.check_oracle(case, bound, val.oracle.sigma.matrix, reference))
    return elapsed, bound - reference


def run_oracle_check(ctx, seconds: float) -> dict:
    # Warm-started states all spend the oracle's full evaluation budget, so
    # their calls are samples of one cost; the cold start is a group of its
    # own. Each call runs between two optimizer gauges.
    warm, cold, gaps, raw_warm = [], [], [], []
    gauges = [ctx.optimizer_gauge(ORACLE_GAUGE_FEV)]
    deadline = time.perf_counter() + seconds
    calls = 0
    while calls < len(ctx.oracle_items) or time.perf_counter() < deadline:
        item = ctx.oracle_items[calls % len(ctx.oracle_items)]
        out = oracle_call(ctx, item)
        gauges.append(ctx.optimizer_gauge(ORACLE_GAUGE_FEV))
        if out:
            ratio = gauge.paired_ratios(gauges[-2:], [out[0]])[0]
            (cold if item[0].expect == "ansatz_failure" else warm).append(ratio)
            if item[0].expect != "ansatz_failure":
                raw_warm.append(out[0])
            gaps.append(out[1])
        calls += 1
    nominal = ctx.optimizer_gauge.nominal_s(ORACLE_GAUGE_FEV)
    n_cold = sum(1 for item in ctx.oracle_items if item[0].expect == "ansatz_failure")
    n_warm = len(ctx.oracle_items) - n_cold
    per_state = median(warm) * nominal
    round_s = n_warm * per_state + n_cold * median(cold) * nominal
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report = {
        "oracle_s_per_state": (per_state, "s"),
        "oracle_gap": (max(gaps) if gaps else float("nan"), "nats"),
        "oracle_calls": (len(warm) + len(cold), "count"),
        "raw_oracle_s_per_state": (median(raw_warm), "s"),
        "raw_gauge_s": (median(gauges), "s"),
    }
    metrics = {
        "latency_ms": (per_state * 1e3, "ms"),
        "states_per_s": (len(ctx.oracle_items) / round_s if round_s else 0.0, "1/s"),
        "peak_rss_mb": (rss, "MB"),
    }
    return metrics, report


# -- traced layer pass -----------------------------------------------------


class MinimizeTag:
    """Tag scipy minimize calls with (nfev, success, continues the previous seed).

    The oracle restarts Nelder-Mead from the previous result's x while it
    keeps improving, so a call whose x0 is not that array starts a new seed.
    """

    def __init__(self):
        self.last_x = None

    def __call__(self, args, kwargs, out):
        x0 = args[1] if len(args) > 1 else kwargs.get("x0")
        continues = x0 is self.last_x
        self.last_x = out.x
        return (int(out.nfev), bool(out.success), continues)


def trace_targets(xree):
    import xree.cli  # only the traced pass drives the CLI in this process

    def branch(args, kwargs, out):
        return out.branch

    s, q, r, o = xree.states, xree.qmath, xree.ree, xree.oracle
    return [
        ("states.x_state", s, "x_state", None),
        ("states.to_density_matrix", s, "to_density_matrix", None),
        ("states.from_density_matrix", s, "from_density_matrix", None),
        ("qmath.hermitian_eig", q, "hermitian_eig", None),
        ("qmath.from_matrix", q.DensityMatrix, "from_matrix", None),
        ("qmath.relative_entropy", q, "relative_entropy", None),
        ("qmath.min_eig_pt", q, "min_eig_pt", None),
        ("ree.compute_ree", r, "compute_ree", branch),
        ("ree.solve_theorem1", r, "solve_theorem1", branch),
        ("ree.solve_theorem2", r, "solve_theorem2", branch),
        ("ree.solve_theorem3", r, "solve_theorem3", branch),
        ("oracle.oracle_validate", o, "oracle_validate", None),
        ("oracle.oracle_ree", o, "oracle_ree", None),
        ("oracle.minimize", o, "minimize", MinimizeTag()),
        ("cli.main", xree.cli, "main", None),
    ]


def setup_traced(ctx, seed: int) -> None:
    setup_closed_form(ctx, seed)
    setup_cli_session(ctx, seed)
    setup_oracle_check(ctx, seed)


def main_in_process(ctx, argv: list[str]) -> tuple[int, str]:
    """Call xree.cli.main in this process and capture what it prints."""
    import xree.cli  # loads the CLI module, reached below as ctx.xree.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = ctx.xree.cli.main(argv)
    return code, out.getvalue()


def main_compute(ctx, case, span=no_span) -> float:
    with span("cli_compute"):
        start = time.perf_counter()
        out = guarded(main_in_process, ctx, ["compute", *case.cli_args()])
        elapsed = time.perf_counter() - start
    ctx.tally.record(f"{case.label}: {out}" if isinstance(out, str) else check_compute_doc(ctx, case, *out))
    return elapsed


def import_probes(reps: int = 3) -> dict:
    """Cold interpreter, cold `import xree` and the -X importtime breakdown."""
    py = sys.executable
    bare = [run_child([py, "-c", "pass"]).wall_s for _ in range(reps)]
    imports = [run_child([py, "-c", "import xree"]).wall_s for _ in range(reps)]
    child = run_child([py, "-X", "importtime", "-c", "import xree.cli"])
    cumulative = {}
    for line in child.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            try:
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
            except ValueError:
                continue  # the column header line
    return {
        "cli.bare_python_s": (median(bare), "s"),
        "cli.import_s": (median(imports), "s"),
        "cli.scipy_import_s": (cumulative.get("scipy.optimize", 0.0), "s"),
        "cli.jsonschema_import_s": (cumulative.get("jsonschema", 0.0), "s"),
        "cli.xree_cli_importtime_s": (cumulative.get("xree.cli", 0.0), "s"),
    }


def run_traced(ctx, workload: str) -> dict:
    """Traced layer pass over all three workloads' operations (15 to 20 s).

    The pass is the same whichever workload it is named for; only the
    tracing overhead is measured on the named workload's operation, as
    traced minus untraced time on the same inputs.
    """
    tracer = spans.Tracer()
    targets = trace_targets(ctx.xree)

    def alternate(measure, reps):
        """(untraced, traced) results of `measure`, run in turn."""
        plain, traced = [], []
        for _ in range(reps):
            plain.append(measure(no_span))
            with tracer.installed("xree", targets):
                traced.append(measure(tracer.op))
        return plain, traced

    overhead = {"closed_form": alternate(lambda span: statistics.median(closed_pass(ctx, span)), TRACED_PASSES)}

    plain, traced = [], []
    for case in ctx.cli_cases:
        pair = alternate(lambda span: main_compute(ctx, case, span), 3)
        plain += pair[0]
        traced += pair[1]
    overhead["cli_session"] = (plain, traced)
    with tracer.installed("xree", targets), tracer.op("cli_scan"):
        out = guarded(main_in_process, ctx, ["scan", "--grid", str(ctx.grid_path)])
    ctx.tally.record(out if isinstance(out, str) else check_scan(ctx, out[0], out[1].encode("utf-8")))
    probes = import_probes()

    warm, failure = ctx.oracle_items[0], ctx.oracle_items[-1]
    with tracer.installed("xree", targets):
        calls = [oracle_call(ctx, item, tracer.op) for item in (warm, failure)]
    gaps = [out[1] for out in calls if out]
    if workload == "oracle_check" and calls[0]:
        out = oracle_call(ctx, warm)
        overhead["oracle_check"] = ([out[0]] if out else [], [calls[0][0]])

    plain, traced = overhead.get(workload, ([], []))
    overhead_pct = 100.0 * (median(traced) / median(plain) - 1.0) if plain and traced else float("nan")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"trace_{workload}_seed{ctx.seed}.json")
    return layer_metrics(tracer, probes, max(gaps) if gaps else float("nan"), overhead_pct)


def layer_metrics(tracer, probes: dict, oracle_gap: float, overhead_pct: float) -> dict:
    spans_ = tracer.spans
    groups = tracer.by_op()
    roots = tracer.roots()

    def dur(i):
        return spans_[i][END] - spans_[i][START]

    def med(op, name, scale):
        return median([dur(i) for i in groups[(op, name)]]) / scale

    # compute_ree minus its solver child: the validation after solving
    solver_ns = {}
    for i, rec in enumerate(spans_):
        if rec[NAME].startswith("ree.solve_theorem") and rec[PARENT] >= 0:
            solver_ns[rec[PARENT]] = solver_ns.get(rec[PARENT], 0) + dur(i)
    computes = groups[("closed_form", "ree.compute_ree")]
    validated = [i for i in computes if spans_[i][TAG] in ("theorem1", "theorem2")]
    validate_ns = [dur(i) - solver_ns.get(i, 0) for i in validated]
    validated_ops = {roots[i] for i in validated}
    eigs = sum(1 for i in groups[("closed_form", "qmath.hermitian_eig")] if roots[i] in validated_ops)

    scan_tags = [spans_[i][TAG] for i in groups[("cli_scan", "ree.compute_ree")]]
    t3_calls = len(groups[("cli_scan", "ree.solve_theorem3")])

    oracle_runs = groups[("oracle_check", "oracle.oracle_ree")]
    minimize = groups[("oracle_check", "oracle.minimize")]
    nfev = sum(spans_[i][TAG][0] for i in minimize)
    seeds = []
    for i in minimize:
        _, success, continues = spans_[i][TAG]
        if continues and seeds:
            seeds[-1] = success
        else:
            seeds.append(success)

    us, ms, s = 1e3, 1e6, 1e9
    return {
        "states.x_state_us": (med("closed_form", "states.x_state", us), "us"),
        "states.to_density_matrix_us": (med("closed_form", "states.to_density_matrix", us), "us"),
        "states.from_density_matrix_us": (med("cli_compute", "states.from_density_matrix", us), "us"),
        "qmath.hermitian_eig_us": (med("closed_form", "qmath.hermitian_eig", us), "us"),
        "qmath.eig_calls_per_compute": (eigs / len(validated_ops) if validated_ops else 0.0, "count"),
        "qmath.from_matrix_us": (med("closed_form", "qmath.from_matrix", us), "us"),
        "qmath.relative_entropy_us": (med("closed_form", "qmath.relative_entropy", us), "us"),
        "qmath.min_eig_pt_us": (med("closed_form", "qmath.min_eig_pt", us), "us"),
        "ree.solve_theorem1_us": (med("closed_form", "ree.solve_theorem1", us), "us"),
        "ree.solve_theorem2_us": (med("closed_form", "ree.solve_theorem2", us), "us"),
        "ree.validate_us": (median(validate_ns) / us, "us"),
        "ree.solve_theorem3_ms": (med("cli_scan", "ree.solve_theorem3", ms), "ms"),
        "ree.theorem3_validated_share": (scan_tags.count("theorem3") / t3_calls if t3_calls else 0.0, "share"),
        "ree.ansatz_failure_count": (scan_tags.count("ansatz_failure"), "count"),
        "oracle.oracle_ree_s": (med("oracle_check", "oracle.oracle_ree", s), "s"),
        "oracle.nfev_per_state": (nfev / len(oracle_runs) if oracle_runs else 0.0, "count"),
        "oracle.objective_us": (sum(dur(i) for i in minimize) / nfev / us if nfev else 0.0, "us"),
        "oracle.converged_share": (sum(seeds) / len(seeds) if seeds else 0.0, "share"),
        "oracle.gap": (oracle_gap, "nats"),
        **probes,
        "cli.main_compute_ms": (med("cli_compute", "cli.main", ms), "ms"),
        "cli.main_scan_s": (med("cli_scan", "cli.main", s), "s"),
        "trace.overhead_pct": (overhead_pct, "%"),
    }


# -- command line ------------------------------------------------------------

SETUP = {
    "closed_form": setup_closed_form,
    "cli_session": setup_cli_session,
    "oracle_check": setup_oracle_check,
}
RUN = {
    "closed_form": run_closed_form,
    "cli_session": run_cli_session,
    "oracle_check": run_oracle_check,
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="time one set-up and exit")
    return parser.parse_args(argv)


def setup_sample(workload: str, seed: int) -> float | None:
    """Seconds one fresh process spends in set-up, or None if it failed."""
    child = run_child(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--setup-only"]
    )
    try:
        return float(json.loads(child.stdout.strip().splitlines()[-1])["setup_s"]) if child.code == 0 else None
    except (ValueError, KeyError, IndexError):
        return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "xree" / "__init__.py").is_file():
        print(f"error: no xree package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(environment(), sort_keys=True)}", file=sys.stderr)
    os.environ.pop("REE_TOL_OVERRIDE", None)
    os.environ.update(BLAS_PIN)  # before numpy loads, and inherited by every child
    sys.dont_write_bytecode = False

    gauges = [] if args.setup_only or args.trace else [gauge.import_gauge(run_child)]
    start = time.perf_counter()
    ctx = load_program()
    ctx.tally, ctx.seed = Tally(), args.seed
    (setup_traced if args.trace else SETUP[args.workload])(ctx, args.seed)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0 if ctx.tally.failed == 0 else 1

    if args.trace:
        metrics = run_traced(ctx, args.workload)
        report = {}
    else:
        # each set-up runs between two import gauges, like a cold process
        samples = [setup_s]
        gauges.append(gauge.import_gauge(run_child))
        for _ in range(SETUP_SAMPLES - 1):
            sample = setup_sample(args.workload, args.seed)
            ctx.tally.record(None if sample is not None else "set-up in a fresh process failed")
            if sample is not None:
                samples.append(sample)
                gauges.append(gauge.import_gauge(run_child))
        ctx.optimizer_gauge = gauge.OptimizerGauge()
        ctx.optimizer_gauge(CLOSED_GAUGE_FEV)  # warm-up
        metrics, report = RUN[args.workload](ctx, args.seconds)
        metrics["setup_s"] = (median(gauge.paired_ratios(gauges, samples)) * gauge.IMPORT_NOMINAL_S, "s")
        report["raw_setup_s"] = (median(samples), "s")
        report["failed_share"] = (ctx.tally.failed / ctx.tally.attempted, "share")

    for name, (value, unit) in {**report, **metrics}.items():
        print(f"{args.workload:<13} {name:<30} {value:>14.6g} {unit}")
    result = {
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
