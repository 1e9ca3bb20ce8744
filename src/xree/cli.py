"""Command-line front end: compute, selftest, oracle, and scan subcommands.

Exit codes: 0 success, 1 invalid input (usage errors included, and a failed
selftest check), 2 ansatz failure (compute only).
All REE values are emitted in nats; --bits adds a display conversion.
Input documents are JSON validated against the schemas under xree/schemas, reporting
the first error by path as jsonschema (the tests' reference) words it; output documents
are JSON the tests check against the output schemas. scan output is CSV with a fixed header.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import numbers
import sys
import time
from importlib import resources

import numpy as np

from .config import default_tolerances
from .errors import InvalidStateError, XreeError
from .qmath import DensityMatrix, LN2, min_eig_pt, relative_entropy
from .ree import (
    BRANCH_FAILURE,
    ReeResult,
    closed_form_family_ree,
    compute_ree,
    compute_ree_many,
    css_to_density_matrix,
    ree_from_css,
)
from .states import (
    RAINS_PARAMS,
    BlochZParams,
    XStateParams,
    from_density_matrix,
    named_state,
    to_density_matrix,
    x_state,
    x_state_from_bloch,
)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_ANSATZ_FAILURE = 2

SCAN_CAP_DEFAULT = 100000


def _schema(name: str) -> dict:
    text = resources.files("xree.schemas").joinpath(name).read_text(encoding="utf-8")
    return json.loads(text)


def _number(x) -> bool:  # a bool is not a number to jsonschema
    return isinstance(x, numbers.Number) and not isinstance(x, bool)


_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "number": _number,
    "integer": lambda x: _number(x)
    and (isinstance(x, int) or isinstance(x, float) and x.is_integer()),
}
# keyword -> the words of its error for (value, instance), or a false value where it holds
_LEAVES = {
    "type": lambda v, x: not _TYPES[v](x) and f"{x!r} is not of type {v!r}",
    "enum": lambda v, x: x not in v and f"{x!r} is not one of {v!r}",
    "const": lambda v, x: x != v and f"{v!r} was expected",
    "minimum": lambda v, x: _number(x) and x < v and f"{x!r} is less than the minimum of {v!r}",
    "maximum": lambda v, x: _number(x) and x > v and f"{x!r} is greater than the maximum of {v!r}",
    "minProperties": lambda v, x: isinstance(x, dict) and len(x) < v
    and f"{x!r} " + ("should be non-empty" if v == 1 else "does not have enough properties"),
    "maxProperties": lambda v, x: isinstance(x, dict) and len(x) > v
    and f"{x!r} " + ("is expected to be empty" if v == 0 else "has too many properties"),
    "minItems": lambda v, x: isinstance(x, list) and len(x) < v
    and f"{x!r} " + ("should be non-empty" if v == 1 else "is too short"),
    "maxItems": lambda v, x: isinstance(x, list) and len(x) > v
    and f"{x!r} " + ("is expected to be empty" if v == 0 else "is too long"),
}
_ANNOTATIONS = ("$schema", "title", "description", "definitions", "then")  # "if" reads "then"


def _errors(x, schema, root: dict, path: tuple = ()):
    """(path, message) for each Draft-7 error of `x`, as jsonschema's iter_errors yields them,
    for the keywords of the shipped input schemas; any other keyword or form raises LookupError.
    """
    if not isinstance(schema, dict):
        raise LookupError(f"schema {schema!r} is not checked here")
    members = x if isinstance(x, dict) else {}
    # Draft 7 ignores the siblings of $ref
    for key, v in [("$ref", schema["$ref"])] if "$ref" in schema else schema.items():
        # jsonschema compares only a string by ==: other type/enum/const values reach the raise
        strings = v if key == "enum" else [v] if key in ("type", "const") else []
        if key in _LEAVES and all(isinstance(s, str) for s in strings):
            if words := _LEAVES[key](v, x):
                yield path, words
        elif key == "required":
            missing = [k for k in v if k not in x] if isinstance(x, dict) else []
            yield from ((path, f"{k!r} is a required property") for k in missing)
        elif key == "properties":
            for k in [k for k in v if k in members]:
                yield from _errors(x[k], v[k], root, (*path, k))
        elif key == "additionalProperties" and v is False:
            if extras := sorted(k for k in members if k not in schema.get("properties", {})):
                names = ", ".join(repr(k) for k in extras)
                verb = "was" if len(extras) == 1 else "were"
                yield path, f"Additional properties are not allowed ({names} {verb} unexpected)"
        elif key == "items":
            for i, item in enumerate(x if isinstance(x, list) else []):
                yield from _errors(item, v, root, (*path, i))
        elif key == "allOf":
            for sub in v:
                yield from _errors(x, sub, root, path)
        elif key == "oneOf":
            valid = [sub for sub in v if not any(_errors(x, sub, root, path))]
            if not valid:
                yield path, f"{x!r} is not valid under any of the given schemas"
            elif len(valid) > 1:  # jsonschema names the first valid one last
                reprs = ", ".join(repr(sub) for sub in valid[1:] + valid[:1])
                yield path, f"{x!r} is valid under each of {reprs}"
        elif key == "if":
            if not any(_errors(x, v, root, path)) and "then" in schema:
                yield from _errors(x, schema["then"], root, path)
        elif key == "$ref" and isinstance(v, str) and v.startswith("#/definitions/"):
            target = root["definitions"][v.removeprefix("#/definitions/")]
            yield from _errors(x, target, root, path)
        elif key not in _ANNOTATIONS:
            raise LookupError(f"{key} {v!r} is not checked here")


def _validate_document(doc, schema_name: str) -> None:
    """Raise InvalidStateError for the first error by path, the one jsonschema sorts first."""
    schema = _schema(schema_name)
    first = min(_errors(doc, schema, schema), key=lambda error: error[0], default=None)
    if first is not None:
        field = "/".join(str(x) for x in first[0]) or "(document root)"
        raise InvalidStateError(f"field {field}: {first[1]}")


def _matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def _pairs_to_matrix(doc) -> np.ndarray:
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in doc], dtype=complex
    )


def load_state_document(doc: dict) -> XStateParams:
    """Parse a validated state-input document into family parameters."""
    _validate_document(doc, "state_input.schema.json")
    if "matrix" in doc:
        rho = DensityMatrix.from_matrix(_pairs_to_matrix(doc["matrix"]))
        return from_density_matrix(rho)
    if "params" in doc:
        p = doc["params"]
        return x_state(
            p["A1"], p["A2"], p["A3"], p["A4"], p["D"], p.get("phi", 0.0)
        )
    if "bloch" in doc:
        b = doc["bloch"]
        return x_state_from_bloch(
            BlochZParams(b["r"], b["s"], b["gx"], b["gz"], b.get("phi", 0.0))
        )
    fam = doc["family"]
    return _family_state(fam["name"], *fam.get("weights", []))


def _parse_params_flag(text: str) -> XStateParams:
    parts = text.split(",")
    if len(parts) not in (5, 6):
        raise InvalidStateError(
            "--params expects a1,a2,a3,a4,d[,phi] (5 or 6 comma-separated numbers)"
        )
    try:
        vals = [float(v) for v in parts]
    except ValueError as exc:
        raise InvalidStateError(f"--params: {exc}") from exc
    return x_state(*vals)


def _family_state(name: str, *weights: float) -> XStateParams:
    """The family parameters of the named reference state."""
    return from_density_matrix(named_state(name, *weights))


def _parse_family_flag(text: str) -> XStateParams:
    name, _, tail = text.partition(":")
    weights = []
    if tail:
        try:
            weights = [float(v) for v in tail.split(",")]
        except ValueError as exc:
            raise InvalidStateError(f"--family weights: {exc}") from exc
    return _family_state(name, *weights)


def _read_json(path: str, what: str):
    """Load the JSON document at `path`; undecodable text is invalid input.

    So is a number no double holds: json reads NaN, +-Infinity, 1e999 and
    400-digit integers, and the schema's range tests pass NaN.
    """

    def finite(text: str) -> float:
        if not math.isfinite(value := float(text)):
            raise InvalidStateError(f"{what} document holds the non-finite number {text}")
        return value

    def integer(text: str) -> int:
        finite(text)  # float() reads any number of digits, int() at most 4300
        return int(text)

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=finite, parse_int=integer, parse_constant=finite)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidStateError(f"{what} document is not valid JSON: {exc}") from exc


def _state_from_args(args) -> XStateParams:
    given = [
        flag
        for flag, value in (
            ("--input", args.input),
            ("--params", args.params),
            ("--family", args.family),
        )
        if value
    ]
    if len(given) != 1:
        raise InvalidStateError(
            f"exactly one of --input/--params/--family required, got {given or 'none'}"
        )
    if args.input:
        return load_state_document(_read_json(args.input, "input"))
    if args.params:
        return _parse_params_flag(args.params)
    return _parse_family_flag(args.family)


def _oracle_document(args, params: XStateParams, closed: ReeResult) -> dict:
    """Run the oracle on params with the flags' config and report it against closed."""
    from .oracle import OracleConfig, oracle_validate  # only the oracle paths load it

    cfg = OracleConfig(
        num_product_terms=args.terms,
        restarts=args.restarts,
        max_iterations=args.iterations,
        rng_seed=args.seed,
    )
    val = oracle_validate(params, closed, cfg)
    res = val.oracle
    doc = {
        "ree_upper_bound": float(res.ree_upper_bound),
        "converged": bool(res.converged),
        "iterations_used": int(res.iterations_used),
        "restart_best_index": int(res.restart_best_index),
        "sigma_matrix": _matrix_to_pairs(res.sigma.matrix),
        "weights": [float(w) for w in res.weights],
        "structure": {
            "off_pattern_max": val.off_pattern_max,
            "bloch_xy_max": val.bloch_xy_max,
        },
        "config": {
            "seed": cfg.rng_seed,
            "restarts": cfg.restarts,
            "terms": cfg.num_product_terms,
            "max_iterations": cfg.max_iterations,
        },
        "closed": {
            "ree_nats": closed.ree,
            "branch": closed.branch,
        },
        "abs_difference": val.abs_difference,
    }
    if args.bits:
        doc["ree_upper_bound_bits"] = float(res.ree_upper_bound / LN2)
    return doc


def _emit(doc_text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(doc_text)
    else:
        sys.stdout.write(doc_text)


def cmd_compute(args) -> int:
    params = _state_from_args(args)
    t0 = time.perf_counter()
    result = compute_ree(params)
    elapsed = time.perf_counter() - t0
    doc = {
        "ree_nats": result.ree,
        "branch": result.branch,
        "css": None,
        "css_matrix": None,
        "residual_max": result.residual_max,
        "edge_min_eig": result.edge_min_eig,
        "diagnostics": result.diagnostics,
        "elapsed": elapsed,
    }
    if args.bits:
        doc["ree_bits"] = None if result.ree is None else result.ree / LN2
    if result.css is not None:
        doc["css"] = dataclasses.asdict(result.css)
        doc["css_matrix"] = _matrix_to_pairs(css_to_density_matrix(result.css).matrix)
    if args.oracle:
        doc["oracle"] = _oracle_document(args, params, result)
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_ANSATZ_FAILURE if result.branch == BRANCH_FAILURE else EXIT_OK


def cmd_oracle(args) -> int:
    params = _state_from_args(args)
    doc = _oracle_document(args, params, compute_ree(params))
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return EXIT_OK


def _selftest_rows() -> list[tuple[str, float | str, float | str, float]]:
    """(name, expected, computed, tolerance) for every fixed regression."""
    rows: list[tuple[str, float | str, float | str, float]] = []

    bell = _family_state("vp", 1.0, 0.0, 0.0)
    rows.append(("bell |b3> REE = ln 2", math.log(2.0), compute_ree(bell).ree, 1e-12))
    rows.append(
        (
            "bell-diagonal closed form at (0,0,1,0)",
            math.log(2.0),
            closed_form_family_ree("bell_diagonal", (0.0, 0.0, 1.0, 0.0)),
            1e-12,
        )
    )

    vp_w = (0.5, 0.3, 0.2)
    vp_result = compute_ree(_family_state("vp", *vp_w))
    rows.append(("vp(0.5,0.3,0.2) routed to theorem1", "theorem1", vp_result.branch, 0.0))
    rows.append(
        (
            "vp(0.5,0.3,0.2) vs closed form",
            closed_form_family_ree("vp", vp_w),
            vp_result.ree,
            1e-10,
        )
    )

    t1 = _family_state("theorem1_example", 0.5, 1 / math.sqrt(2), 1 / math.sqrt(2), 0.3, 0.2)
    t1_result = compute_ree(t1)
    rows.append(("theorem1 example CSS r2", 0.55, t1_result.css.r2, 1e-12))
    rows.append(("theorem1 example CSS r3", 0.45, t1_result.css.r3, 1e-12))
    lam = 0.5 * (1.0 + math.sqrt(0.25 + 0.01))
    expected = -(0.55 * math.log(0.55) + 0.45 * math.log(0.45)) + (
        lam * math.log(lam) + (1 - lam) * math.log(1 - lam)
    )
    rows.append(("theorem1 example REE", expected, t1_result.ree, 1e-12))

    hor_w = (0.6, 0.25, 0.15)
    hor_result = compute_ree(_family_state("horodecki", *hor_w))
    rows.append(("horodecki(0.6,0.25,0.15) routed to theorem2", "theorem2", hor_result.branch, 0.0))
    rows.append(
        (
            "horodecki theorem2 vs closed form",
            closed_form_family_ree("horodecki", hor_w),
            hor_result.ree,
            1e-10,
        )
    )
    red = compute_ree(_family_state("theorem2_example", 0.6, 0.0, 0.25, 0.15))
    rows.append(
        (
            "theorem2_example(0.6,0,0.25,0.15) reduction",
            closed_form_family_ree("horodecki", hor_w),
            red.ree,
            1e-10,
        )
    )
    swap_a = compute_ree(_family_state("theorem2_example", 0.5, 0.1, 0.25, 0.15))
    swap_b = compute_ree(_family_state("theorem2_example", 0.5, 0.1, 0.15, 0.25))
    rows.append(("outer-population swap invariance", swap_a.ree, swap_b.ree, 1e-10))

    rains = compute_ree(RAINS_PARAMS)
    rows.append(("rains routed to theorem3", "theorem3", rains.branch, 0.0))
    rows.append(("rains r1 = 1/6", 1.0 / 6.0, rains.css.r1, 1e-9))
    rows.append(("rains r2 = 55/144", 55.0 / 144.0, rains.css.r2, 1e-9))
    rows.append(("rains r3 = 41/144", 41.0 / 144.0, rains.css.r3, 1e-9))
    rows.append(("rains y = 1/6", 1.0 / 6.0, rains.css.y, 1e-9))
    pi = css_to_density_matrix(rains.css)
    rows.append(("rains CSS is an edge state", 0.0, min_eig_pt(pi), 1e-12))
    rows.append(
        (
            "rains REE dual path (formula vs spectral)",
            ree_from_css(RAINS_PARAMS, rains.css),
            relative_entropy(to_density_matrix(RAINS_PARAMS), pi),
            1e-10,
        )
    )

    six = compute_ree(_family_state("theorem3_example", 0.66, 0.16, 0.03, 0.06, 0.09))
    for name, want, got in (
        ("six-digit CSS r1", 0.139198, six.css.r1),
        ("six-digit CSS r2", 0.405896, six.css.r2),
        ("six-digit CSS r3", 0.285707, six.css.r3),
        ("six-digit CSS r4", 0.169198, six.css.r4),
        ("six-digit CSS y", 0.153467, six.css.y),
    ):
        rows.append((name, want, got, 1e-5))

    failure = compute_ree(_family_state("theorem3_example", 0.66, 0.05, 0.07, 0.04, 0.18))
    rows.append(("failure case detected", BRANCH_FAILURE, failure.branch, 0.0))
    return rows


def cmd_selftest(args) -> int:
    rows = _selftest_rows()
    lines = []
    header = f"{'check':<44} {'expected':>20} {'computed':>20} {'|diff|':>10} {'tol':>8} {'status':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    failures = 0
    for name, expected, computed, tolerance in rows:
        if isinstance(expected, str):
            ok = expected == computed
            diff_text = "-"
            exp_text, got_text = expected, str(computed)
        else:
            diff = abs(expected - computed)
            ok = diff <= tolerance
            diff_text = f"{diff:.2e}"
            exp_text, got_text = f"{expected:.12g}", f"{computed:.12g}"
        if not ok:
            failures += 1
        lines.append(
            f"{name:<44} {exp_text:>20} {got_text:>20} {diff_text:>10} "
            f"{tolerance:>8.0e} {'pass' if ok else 'FAIL':>7}"
        )
    lines.append("-" * len(header))
    lines.append(f"{len(rows) - failures}/{len(rows)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if failures == 0 else EXIT_INVALID


def _axis_count(spec) -> int:
    """The points of an axis; a range is counted before it is built."""
    return int(spec["count"]) if isinstance(spec, dict) else len(_axis_values(spec))


def _axis_values(spec) -> list[float]:
    if isinstance(spec, (int, float)):
        return [float(spec)]
    if isinstance(spec, list):
        return [float(v) for v in spec]
    count = int(spec["count"])
    if count == 1:
        return [float(spec["start"])]
    step = (spec["stop"] - spec["start"]) / (count - 1)
    return [spec["start"] + i * step for i in range(count)]


_SCAN_COLUMNS = {
    "theorem3_example": ("p", "q1", "q2", "q3", "q4"),
    "raw": ("a1", "a2", "a3", "a4", "d"),
}


def _simplex_points(p: float, split: float, steps: int) -> list[tuple[float, ...]]:
    """Points (p, q1, q2, q3, q4) of the simplex slice at fixed p.

    (q3, q4) = (i, j) (1 - p) / steps over i + j <= steps, i outer; q1 and q2
    share the leftover weight in the ratio split : 1 - split.
    """
    rest = 1.0 - p
    points = []
    for i in range(steps + 1):
        for j in range(steps + 1 - i):
            q3 = rest * i / steps
            q4 = rest * j / steps
            leftover = rest - q3 - q4
            q1 = max(0.0, leftover) * split
            q2 = max(0.0, leftover) * (1.0 - split)
            points.append((p, q1, q2, q3, q4))
    return points


def _grid_points(doc: dict, cap: int) -> tuple[str, list[tuple[float, ...]]]:
    """Validate a grid document and list its points, refusing more than `cap`.

    The count is taken from the document before any point is built, so an
    oversized grid fails fast instead of exhausting memory.
    """
    _validate_document(doc, "scan_grid.schema.json")
    mode = doc["mode"]
    # the schema counts an integral float such as 3.0 as an integer
    if mode == "line":
        count = int(doc["count"])
    elif mode == "simplex":
        steps = int(doc["steps"])
        count = (steps + 1) * (steps + 2) // 2
    else:
        count = math.prod(_axis_count(doc["axes"][n]) for n in _SCAN_COLUMNS[mode])
    if count > cap:
        raise InvalidStateError(f"grid has {count} points, above the cap of {cap}")
    if mode == "line":
        frm, to = doc["from"], doc["to"]
        pts = [
            tuple(
                frm[k] + (to[k] - frm[k]) * i / (count - 1) for k in range(len(frm))
            )
            for i in range(count)
        ]
    elif mode == "simplex":
        pts = _simplex_points(doc["p"], doc["split"], steps)
    else:
        axes = [_axis_values(doc["axes"][n]) for n in _SCAN_COLUMNS[mode]]
        return mode, [tuple(p) for p in itertools.product(*axes)]
    return "theorem3_example", pts


def _scan_state(mode: str, point: tuple[float, ...]) -> XStateParams | None:
    """Map a grid point to parameters; None if infeasible."""
    try:
        if mode == "theorem3_example":
            p, q1, q2, q3, q4 = point
            return x_state(q3, p / 2.0 + q1, p / 2.0 + q2, q4, p / 2.0)
        a1, a2, a3, a4, d = point
        return x_state(a1, a2, a3, a4, d)
    except InvalidStateError:
        return None


def _scan_row(point: tuple[float, ...], result: ReeResult) -> str:
    cells = [f"{v:.12g}" for v in point]
    cells.append(result.branch)
    cells.append("" if result.ree is None else f"{result.ree:.12g}")
    cells.append("" if result.residual_max is None else f"{result.residual_max:.12g}")
    return ",".join(cells)


def cmd_scan(args) -> int:
    mode, points = _grid_points(_read_json(args.grid, "grid"), args.cap)
    states = [_scan_state(mode, pt) for pt in points]
    kept = [(pt, state) for pt, state in zip(points, states) if state is not None]
    results = compute_ree_many([state for _, state in kept])
    rows = [_scan_row(pt, result) for (pt, _), result in zip(kept, results)]
    skipped = len(points) - len(kept)
    header = ",".join(_SCAN_COLUMNS[mode] + ("branch", "ree", "residual_max"))
    body = "\n".join([header] + rows) + "\n"
    _emit(body, args.out)
    if skipped:
        print(f"warning: skipped {skipped} infeasible grid points", file=sys.stderr)
    return EXIT_OK


def _add_state_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--input", help="JSON state document (see state_input schema)")
    parser.add_argument("--params", help="a1,a2,a3,a4,d[,phi] family parameters")
    parser.add_argument("--family", help="NAME[:w1,w2,...] named reference state")


def _add_oracle_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="oracle RNG seed")
    parser.add_argument("--restarts", type=int, default=8, help="random restarts")
    parser.add_argument("--terms", type=int, default=16, help="product terms K, 4 to 16")
    parser.add_argument(
        "--iterations", type=int, default=2000, help="objective evaluations per seed"
    )


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error is invalid input: EXIT_INVALID, not 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_INVALID, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand's parser runs this too: each reports its unknowns with its usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="xree",
        description="REE and closest separable states for two-qubit X-like states",
        epilog="exit codes: 0 success; 1 invalid input, usage errors included, "
        "or a failed selftest check; 2 ansatz failure (compute only)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="closed-form REE and CSS")
    _add_state_flags(p_compute)
    p_compute.add_argument("--oracle", action="store_true", help="attach oracle cross-check")
    _add_oracle_flags(p_compute)
    p_compute.add_argument("--bits", action="store_true", help="also report REE in bits")
    p_compute.add_argument("--out", help="write the document here instead of stdout")
    p_compute.set_defaults(func=cmd_compute)

    p_self = sub.add_parser("selftest", help="run the fixed regression table")
    p_self.add_argument("--out", help="write the table here instead of stdout")
    p_self.set_defaults(func=cmd_selftest)

    p_oracle = sub.add_parser("oracle", help="brute-force separable minimization")
    _add_state_flags(p_oracle)
    _add_oracle_flags(p_oracle)
    p_oracle.add_argument("--bits", action="store_true", help="also report the bound in bits")
    p_oracle.add_argument("--out", help="write the document here instead of stdout")
    p_oracle.set_defaults(func=cmd_oracle)

    p_scan = sub.add_parser("scan", help="sweep a parameter grid to CSV")
    p_scan.add_argument("--grid", required=True, help="JSON grid specification")
    p_scan.add_argument("--out", help="write CSV here instead of stdout")
    p_scan.add_argument("--cap", type=int, default=SCAN_CAP_DEFAULT, help="max grid points")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        default_tolerances()
    except (OSError, ValueError) as exc:
        print(f"error: REE_TOL_OVERRIDE: {exc}", file=sys.stderr)
        return EXIT_INVALID
    try:
        return args.func(args)
    except (XreeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
