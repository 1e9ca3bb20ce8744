#!/usr/bin/env python3
"""Self-test of the xree benchmark's generator and output checks.

Run from the repository root:

    python3 xreebench/selfcheck.py

It shows that the generator gives identical inputs for the same seed, and
that the checks the workloads use count wrong answers as failed: an REE
off by 1e-6 (in-process and in a `compute` document), a wrong exit code,
an oracle bound below the reference, and a changed scan row. Exits 0 when
every check behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

import inputs
import run

PERTURBATION = 1e-6
failures = []


def expect(name: str, ok: bool) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}")
    if not ok:
        failures.append(name)


def counts_as_failed(problem) -> bool:
    tally = run.Tally()
    tally.record(problem)
    return tally.failed == 1


def generator_checks() -> None:
    for name in ("closed_form_cases", "cli_cases", "oracle_cases", "scan_sample"):
        make = getattr(inputs, name)
        expect(f"{name}: same seed, same inputs", make(7) == make(7))
        expect(f"{name}: another seed, other inputs", make(7) != make(8))
    expect("scan line is fixed", inputs.scan_points() == inputs.scan_points())


def answer_checks(ctx) -> None:
    xree, checker = ctx.xree, ctx.checker
    cases = inputs.closed_form_cases(3)
    picks = [next(c for c in cases if c.label == label) for label in ("theorem1", "theorem2", "vp", "horodecki", "bell_diagonal")]
    picks += [c for c in inputs.cli_cases(3) if c.label in ("rains", "six_digit")]
    for case in picks:
        branch, ree, css = run.answer(xree.compute_ree(xree.x_state(*case.params)))
        expect(f"{case.label}: true answer passes", checker.check_answer(case, branch, ree, css) is None)
        bad = checker.check_answer(case, branch, ree + PERTURBATION, css)
        expect(f"{case.label}: REE + 1e-6 counts as failed", counts_as_failed(bad))

    rains = next(c for c in inputs.cli_cases(3) if c.label == "rains")
    code, text = run.main_in_process(ctx, ["compute", *rains.cli_args()])
    expect("rains compute document passes", run.check_compute_doc(ctx, rains, code, text) is None)
    doc = json.loads(text)
    doc["ree_nats"] += PERTURBATION
    bad = run.check_compute_doc(ctx, rains, code, json.dumps(doc))
    expect("rains compute document with REE + 1e-6 counts as failed", counts_as_failed(bad))

    failure = next(c for c in inputs.cli_cases(3) if c.label == "failure")
    code, text = run.main_in_process(ctx, ["compute", *failure.cli_args()])
    expect("failure state: ansatz_failure with exit 2 passes", code == 2 and run.check_compute_doc(ctx, failure, code, text) is None)
    expect("failure state: exit 0 counts as failed", counts_as_failed(run.check_compute_doc(ctx, failure, 0, text)))


def oracle_checks(ctx) -> None:
    xree, checker = ctx.xree, ctx.checker
    case = inputs.oracle_cases(3)[0]
    state = xree.x_state(*case.params)
    closed = xree.compute_ree(state)
    cfg = xree.OracleConfig(restarts=0, max_iterations=200)
    val = xree.oracle_validate(state, closed, cfg)
    bound, sigma = val.oracle.ree_upper_bound, val.oracle.sigma.matrix
    expect("oracle bound above the reference passes", checker.check_oracle(case, bound, sigma, closed.ree) is None)
    bad = checker.check_oracle(case, bound, sigma, bound + PERTURBATION)
    expect("oracle bound below the reference counts as failed", counts_as_failed(bad))
    bad = checker.check_oracle(case, bound + PERTURBATION, sigma, closed.ree)
    expect("oracle bound off S(rho||sigma) by 1e-6 counts as failed", counts_as_failed(bad))


def scan_checks(ctx) -> None:
    run.setup_cli_session(ctx, 3)
    code, text = run.main_in_process(ctx, ["scan", "--grid", str(ctx.grid_path)])
    expect("scan output passes", run.check_scan(ctx, code, text.encode("utf-8")) is None)
    row = next(i for i, want in ctx.scan_rows.items() if ",theorem3," in want)
    lines = text.split("\n")
    cells = lines[1 + row].split(",")
    cells[6] = f"{float(cells[6]) + PERTURBATION:.12g}"
    lines[1 + row] = ",".join(cells)
    changed = "\n".join(lines).encode("utf-8")
    expect("scan row with REE + 1e-6 counts as failed", counts_as_failed(run.check_scan_rows(ctx, changed)))
    expect("second scan with other bytes counts as failed", counts_as_failed(run.check_scan(ctx, code, changed)))


def main() -> int:
    if not (run.SRC / "xree" / "__init__.py").is_file():
        print(f"error: no xree package under {run.SRC}", file=sys.stderr)
        return 2
    ctx = run.load_program()
    ctx.tally, ctx.seed = run.Tally(), 3
    generator_checks()
    answer_checks(ctx)
    oracle_checks(ctx)
    scan_checks(ctx)
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} of the checks above failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
