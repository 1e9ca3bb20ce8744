"""Shared fixtures: independent eigenvalue oracle and random family sampling."""

import math
import os

import numpy as np
import pytest
from hypothesis import settings

from xree import compute_ree, is_entangled, x_state
from xree.ree import BRANCH_FAILURE

# HYPOTHESIS_PROFILE=ci runs the properties that leave max_examples to the
# profile (the slack-edge fuzz) on 5000 examples instead of 100. It builds on
# the "ci" profile that Hypothesis itself loads on a CI runner.
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.register_profile("ci", settings.get_profile("ci"), max_examples=5000)
    settings.load_profile("ci")


def charpoly_eigenvalues(m) -> np.ndarray:
    """Eigenvalues via Faddeev-LeVerrier coefficients and polynomial roots.

    Deliberately independent of the package's eigensolver: builds the
    characteristic polynomial det(lambda I - M) and solves the quartic.
    Runs in 50-digit arithmetic because double roots (which this family
    has) are sqrt(eps)-sensitive to coefficient rounding.
    """
    import mpmath as mp

    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    n = a.shape[0]
    with mp.workdps(50):
        am = mp.matrix(n, n)
        for i in range(n):
            for j in range(n):
                am[i, j] = mp.mpc(a[i, j].real, a[i, j].imag)
        coeffs = [mp.mpf(1)]
        nk = mp.eye(n)
        for k in range(1, n + 1):
            mk = am * nk
            ck = -sum(mk[i, i] for i in range(n)) / k
            coeffs.append(ck)
            nk = mk + ck * mp.eye(n)
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=120)
    return np.sort([float(mp.re(r)) for r in roots])


def random_entangled_params(rng: np.random.Generator, kind: str = "any"):
    """Draw an entangled family member of the requested branch kind."""
    if kind == "any":
        kind = ("theorem1", "theorem2", "theorem3")[rng.integers(0, 3)]
    phi = float(rng.uniform(-math.pi, math.pi)) if rng.random() < 0.5 else 0.0
    while True:
        if kind == "theorem1":
            a2 = float(rng.uniform(0.05, 0.95))
            a3 = 1.0 - a2
            d = float(rng.uniform(0.05, 0.98)) * math.sqrt(a2 * a3)
            return x_state(0.0, a2, a3, 0.0, d, phi)
        if kind == "theorem2":
            raw = rng.dirichlet((1.0, 2.0, 1.0))
            a1, mid, a4 = (float(v) for v in raw)
            a2 = a3 = mid / 2.0
            lo, hi = math.sqrt(a1 * a4), math.sqrt(a2 * a3)
            if hi <= lo * 1.05 + 1e-6:
                continue
            d = lo + float(rng.uniform(0.05, 0.95)) * (hi - lo)
            return x_state(a1, a2, a3, a4, d, phi)
        raw = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        a1, a2, a3, a4 = (float(v) for v in raw)
        if abs(a2 - a3) < 1e-4:
            continue
        lo, hi = math.sqrt(a1 * a4), math.sqrt(a2 * a3)
        if hi <= lo * 1.05 + 1e-6:
            continue
        d = lo + float(rng.uniform(0.05, 0.95)) * (hi - lo)
        return x_state(a1, a2, a3, a4, d, phi)


def random_separable_params(rng: np.random.Generator):
    while True:
        raw = rng.dirichlet((1.0, 1.0, 1.0, 1.0))
        a1, a2, a3, a4 = (float(v) for v in raw)
        cap = min(math.sqrt(a1 * a4), math.sqrt(a2 * a3))
        d = float(rng.uniform(0.0, 1.0)) * cap
        p = x_state(a1, a2, a3, a4, d, float(rng.uniform(-math.pi, math.pi)))
        if not is_entangled(p):
            return p


@pytest.fixture(scope="session")
def validated_batch():
    """1000 random entangled members whose branch solution validates.

    Returns a list of (params, ReeResult); ansatz failures are resampled
    (they are rare and exercised by their own dedicated tests).
    """
    rng = np.random.default_rng(20240817)
    batch = []
    kinds = ("theorem1", "theorem2", "theorem3")
    attempts = 0
    while len(batch) < 1000:
        params = random_entangled_params(rng, kinds[len(batch) % 3])
        result = compute_ree(params)
        attempts += 1
        if result.branch == BRANCH_FAILURE:
            continue
        batch.append((params, result))
        if attempts > 5000:
            raise RuntimeError("sampler failed to reach 1000 validated solutions")
    return batch
