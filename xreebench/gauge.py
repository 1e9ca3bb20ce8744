"""Machine-speed gauges: fixed work, independent of xree, timed beside each operation.

The shared 2-vCPU machine the benchmark was defined on changes speed by up
to 2x within seconds and drifts by 65% over an hour, for CPU time as much
as for wall time, so a run's raw times depend on when it ran. Each timed
operation is therefore run between two gauge runs of fixed work of the
same kind, and reported as

    wall time of the operation / mean wall time of the two gauges * NOMINAL

that is, in seconds of a machine on which the gauge takes its nominal
time. A change to xree moves the operation and not the gauge; a change of
machine speed moves both. Two gauges:

  import_gauge     a cold interpreter importing numpy, scipy.optimize and
                   jsonschema, the third-party imports of `xree.cli`: the
                   gauge of cold processes and of set-up;
  optimizer_gauge  Nelder-Mead over a relative-entropy-like objective of
                   4x4 Hermitian matrices (numpy eigh, exp, traces): the
                   gauge of in-process compute_ree and oracle calls.

The nominal times are this machine's fast-phase readings; they only set
the scale of the numbers.
"""

from __future__ import annotations

import sys
import time

IMPORT_ARGV = ["-c", "import numpy, scipy.optimize, jsonschema"]
IMPORT_NOMINAL_S = 0.60
OPTIMIZER_NOMINAL_S_PER_FEV = 55e-6


def import_gauge(run_child) -> float:
    """Wall seconds of one cold gauge interpreter, started by `run_child`."""
    child = run_child([sys.executable, *IMPORT_ARGV])
    if child.code != 0:
        raise RuntimeError(f"import gauge exited with code {child.code}: {child.stderr.strip()}")
    return child.wall_s


class OptimizerGauge:
    """Nelder-Mead with a fixed evaluation budget on a fixed objective."""

    def __init__(self):
        import numpy as np
        from scipy.optimize import minimize

        self._np, self._minimize = np, minimize
        rng = np.random.default_rng(20100527)
        raw = rng.standard_normal((8, 4, 4)) + 1j * rng.standard_normal((8, 4, 4))
        self._basis = raw + raw.conj().transpose(0, 2, 1)
        self._rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        self._x0 = np.linspace(0.1, 0.8, 8)

    def _objective(self, x) -> float:
        np = self._np
        vals, vecs = np.linalg.eigh(np.tensordot(x, self._basis, axes=1))
        w = np.exp(vals - vals.max())
        sigma = (vecs * (w / w.sum())) @ vecs.conj().T
        return float(np.real(np.trace(self._rho @ sigma)))

    def __call__(self, fev: int) -> float:
        """Seconds the gauge takes, scaled to exactly `fev` evaluations."""
        start = time.perf_counter()
        res = self._minimize(
            self._objective, self._x0, method="Nelder-Mead",
            options={"maxfev": fev, "maxiter": fev, "xatol": 0.0, "fatol": 0.0},
        )
        return (time.perf_counter() - start) * fev / res.nfev

    def nominal_s(self, fev: int) -> float:
        return fev * OPTIMIZER_NOMINAL_S_PER_FEV


def paired_ratios(gauges: list[float], ops: list[float]) -> list[float]:
    """ops[i] over the mean of gauges[i] and gauges[i + 1], the gauges on either side."""
    if len(gauges) != len(ops) + 1:
        raise ValueError(f"{len(ops)} operations need {len(ops) + 1} gauges, got {len(gauges)}")
    return [op * 2.0 / (gauges[i] + gauges[i + 1]) for i, op in enumerate(ops)]
