"""Linear-algebra layer: eigensolver, entropies, partial transpose."""

import inspect
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xree import (
    DensityMatrix,
    binary_entropy,
    hermitian_eig,
    min_eig_pt,
    partial_transpose,
    relative_entropy,
    von_neumann_entropy,
)
from xree import qmath
from xree.errors import InvalidStateError
from xree.qmath import _relative_entropy_eig, _xlnx
from xree.ree import compute_ree, css_to_density_matrix, ree_from_css
from xree.states import RAINS_PARAMS, bell_ket, named_state, to_density_matrix, x_state

from conftest import charpoly_eigenvalues, random_entangled_params

LN2 = math.log(2.0)


def bell3_projector() -> DensityMatrix:
    k = bell_ket(3)
    return DensityMatrix.from_matrix(np.outer(k, k.conj()))


def maximally_mixed() -> DensityMatrix:
    return DensityMatrix.from_matrix(np.eye(4) / 4.0)


def random_hermitian(rng) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return 0.5 * (a + a.conj().T)


def random_density(rng) -> DensityMatrix:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return DensityMatrix.from_matrix(m / np.trace(m).real)


class TestHermitianEig:
    def test_identity_quarter(self):
        eig = hermitian_eig(np.eye(4) / 4.0)
        assert np.allclose(eig.values, 0.25, atol=1e-14)

    def test_bell_projector_spectrum(self):
        eig = hermitian_eig(bell3_projector())
        assert np.allclose(eig.values, [0.0, 0.0, 0.0, 1.0], atol=1e-12)

    def test_rains_matches_charpoly_oracle(self):
        rho = to_density_matrix(RAINS_PARAMS)
        mine = hermitian_eig(rho).values
        oracle = charpoly_eigenvalues(rho)
        assert np.max(np.abs(mine - oracle)) < 1e-10

    def test_reconstruction_on_1000_random_inputs(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(1000):
            m = random_hermitian(rng)
            eig = hermitian_eig(m)
            rebuilt = (eig.vectors * eig.values) @ eig.vectors.conj().T
            worst = max(worst, float(np.max(np.abs(rebuilt - m))))
        assert worst < 1e-10

    def test_eigenvector_orthonormality(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            eig = hermitian_eig(random_hermitian(rng))
            gram = eig.vectors.conj().T @ eig.vectors
            assert np.max(np.abs(gram - np.eye(4))) < 1e-10

    def test_rejects_non_hermitian(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = 1.0
        with pytest.raises(InvalidStateError):
            hermitian_eig(m)

    def test_huge_rotation_angle_no_overflow_warning(self):
        # the (2, 3) rotation has tau = 0.5 / 1e-200, whose square overflows
        m = np.diag([0.0, 1.0, 0.0, 1.0]).astype(complex)
        m[0, 1] = m[1, 0] = 0.5
        m[2, 3] = m[3, 2] = 1e-200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eig = hermitian_eig(m)
        assert np.max(np.abs(eig.values - np.linalg.eigvalsh(m))) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=16, max_size=16))
    def test_ascending_order(self, values):
        a = np.array(values).reshape(4, 4)
        eig = hermitian_eig(0.5 * (a + a.T))
        assert all(eig.values[i] <= eig.values[i + 1] for i in range(3))


class TestStackedHermitianEig:
    def stack(self):
        rng = np.random.default_rng(9)
        mats = [random_hermitian(rng) for _ in range(5)]
        mats += [to_density_matrix(RAINS_PARAMS).matrix, bell3_projector().matrix]
        return np.array(mats)

    def test_each_matrix_as_in_its_own_call(self):
        stack = self.stack()
        eig = hermitian_eig(stack)
        assert eig.values.shape == (len(stack), 4)
        assert eig.vectors.shape == (len(stack), 4, 4)
        for m, values, vectors in zip(stack, eig.values, eig.vectors):
            alone = hermitian_eig(m)
            assert alone.values.shape == (4,)
            assert values.tobytes() == alone.values.tobytes()
            assert vectors.tobytes() == alone.vectors.tobytes()

    @pytest.mark.parametrize(
        "entry, value",
        [((1, 2), complex(math.nan, 0.0)), ((0, 3), complex(0.0, math.inf)), ((2, 1), 1e-6)],
        ids=["nan", "inf", "not-hermitian"],
    )
    def test_bad_member_raises_its_own_message(self, entry, value):
        stack = self.stack()
        stack[3][entry] += value
        with pytest.raises(InvalidStateError) as alone:
            hermitian_eig(stack[3])
        with pytest.raises(InvalidStateError) as stacked:
            hermitian_eig(stack)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 4, 3), (2, 2, 4, 4)])
    def test_wrong_shape(self, shape):
        with pytest.raises(InvalidStateError, match="expected a 4x4 matrix"):
            hermitian_eig(np.zeros(shape))


class TestVonNeumannEntropy:
    def test_pure_state_is_zero(self):
        assert von_neumann_entropy(bell3_projector()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_is_ln4(self):
        assert von_neumann_entropy(maximally_mixed()) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_vp_entropy_vs_charpoly_spectrum(self):
        rho = named_state("vp", 0.5, 0.3, 0.2)
        spectrum = charpoly_eigenvalues(rho)
        expected = -sum(v * math.log(v) for v in spectrum if v > 1e-15)
        assert von_neumann_entropy(rho) == pytest.approx(expected, abs=1e-12)

    def test_returns_a_python_float(self):
        # a float's repr enters JSON and diagnostics; np.float64's differs
        assert type(von_neumann_entropy(named_state("vp", 0.5, 0.3, 0.2))) is float

    def test_range_on_random_states(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            s = von_neumann_entropy(random_density(rng))
            assert -1e-12 <= s <= math.log(4.0) + 1e-12


class TestRelativeEntropy:
    def test_self_distance_is_zero(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density(rng)
            assert relative_entropy(rho, rho) == pytest.approx(0.0, abs=1e-11)

    def test_pure_vs_maximally_mixed(self):
        assert relative_entropy(bell3_projector(), maximally_mixed()) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_support_violation_returns_inf(self):
        sigma = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0]))
        rho = DensityMatrix.from_matrix(np.diag([0.25, 0.25, 0.25, 0.25]))
        assert relative_entropy(rho, sigma) == math.inf

    def test_klein_inequality_on_random_pairs(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            rho, sigma = random_density(rng), random_density(rng)
            val = relative_entropy(rho, sigma)
            assert val >= -1e-10
            if val < 1e-8:
                assert np.max(np.abs(rho.matrix - sigma.matrix)) < 1e-3

    def test_zero_iff_equal(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng)
        sigma = random_density(rng)
        assert relative_entropy(rho, sigma) > 1e-6
        assert np.max(np.abs(rho.matrix - sigma.matrix)) > 1e-8


def loop_relative_entropy(rm, rho_values, eig_s):
    """The spectral dual path with one product per eigenvector of sigma."""
    tr_rho_ln_rho = sum(_xlnx(lam) for lam in rho_values if lam > qmath._EIGENVALUE_CLAMP)
    cross = 0.0
    for j in range(4):
        lam = eig_s.values[j]
        vec = eig_s.vectors[:, j]
        weight = float(np.real(vec.conj() @ rm @ vec))
        if lam < qmath._SUPPORT_EIGENVALUE:
            if weight >= qmath._SUPPORT_LEAK:
                return math.inf
        else:
            cross += weight * math.log(lam)
    return float(tr_rho_ln_rho - cross)


class TestRelativeEntropyOneProduct:
    """The weights from one V^dag rho V product against the per-vector loop."""

    def assert_as_loop(self, rho, sigma):
        rm = np.asarray(getattr(rho, "matrix", rho), dtype=complex)
        rho_values = hermitian_eig(rm).values
        eig_s = hermitian_eig(sigma)
        got = _relative_entropy_eig(rm, rho_values, eig_s)
        want = loop_relative_entropy(rm, rho_values, eig_s)
        # bit for bit, and of the same type: a float's repr enters diagnostics
        assert type(got) is type(want)
        assert struct.pack("<d", got) == struct.pack("<d", want)
        return got

    @pytest.mark.parametrize("kind", ["theorem1", "theorem2", "theorem3"])
    def test_family_pairs_of_every_branch(self, kind):
        rng = np.random.default_rng(20261019)
        checked = 0
        for _ in range(60):
            p = random_entangled_params(rng, kind)
            result = compute_ree(p)
            if result.css is None:
                continue
            got = self.assert_as_loop(to_density_matrix(p), css_to_density_matrix(result.css))
            assert got == pytest.approx(result.ree, abs=1e-9)
            checked += 1
        assert checked >= 40

    def test_rank_deficient_theorem1_css(self):
        # the CSS diag(0, a2, a3, 0) has two zero eigenvalues: the support rule
        # skips them because rho has no weight there
        p = x_state(0.0, 0.6, 0.4, 0.0, 0.3)
        sigma = css_to_density_matrix(compute_ree(p).css)
        assert np.sum(hermitian_eig(sigma).values < qmath._SUPPORT_EIGENVALUE) == 2
        assert math.isfinite(self.assert_as_loop(to_density_matrix(p), sigma))

    def test_dense_random_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            self.assert_as_loop(random_density(rng), random_density(rng))

    def test_support_leak_is_inf(self):
        sigma = DensityMatrix.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0]))
        rho = DensityMatrix.from_matrix(np.diag([0.25, 0.25, 0.25, 0.25]))
        assert self.assert_as_loop(rho, sigma) == math.inf


class TestPartialTranspose:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1, 1), min_size=32, max_size=32))
    def test_involution_and_trace(self, values):
        raw = np.array(values)
        m = (raw[:16] + 1j * raw[16:]).reshape(4, 4)
        pt = partial_transpose(m)
        assert np.array_equal(partial_transpose(pt), m)
        assert np.trace(pt) == np.trace(m)

    def test_bell_state_npt_spectrum(self):
        pt = partial_transpose(bell3_projector())
        eig = hermitian_eig(pt)
        assert np.allclose(eig.values, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_product_state_is_ppt(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        ket = np.kron(np.array([1.0, 0.0]), plus)
        rho = DensityMatrix.from_matrix(np.outer(ket, ket.conj()))
        assert min_eig_pt(rho) >= -1e-12


class TestStackedPartialTranspose:
    def stack(self):
        rng = np.random.default_rng(31)
        mats = [random_hermitian(rng) for _ in range(3)]
        mats.append(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        mats += [to_density_matrix(x_state(0.1, 0.4, 0.3, 0.2, 0.25, -2.0)).matrix]
        mats += [to_density_matrix(RAINS_PARAMS).matrix, bell3_projector().matrix]
        return np.array(mats)

    def test_each_matrix_as_in_its_own_call(self):
        stack = self.stack()
        pt = partial_transpose(stack)
        assert pt.shape == stack.shape
        for m, got in zip(stack, pt):
            alone = partial_transpose(m)
            assert alone.shape == (4, 4)
            assert got.tobytes() == alone.tobytes()
        assert partial_transpose(pt).tobytes() == stack.tobytes()

    def test_matrix_input_gives_a_matrix(self):
        assert partial_transpose(bell3_projector()).shape == (4, 4)
        assert partial_transpose(self.stack()[:1]).shape == (1, 4, 4)

    @pytest.mark.parametrize(
        "entry, value",
        [((1, 2), complex(math.nan, 0.0)), ((0, 3), complex(0.0, math.inf))],
        ids=["nan", "inf"],
    )
    def test_non_finite_member_raises_its_own_message(self, entry, value):
        stack = self.stack()
        stack[3][entry] += value
        with pytest.raises(InvalidStateError) as alone:
            partial_transpose(stack[3])
        with pytest.raises(InvalidStateError) as stacked:
            partial_transpose(stack)
        assert str(stacked.value) == str(alone.value)

    @pytest.mark.parametrize("shape", [(4,), (4, 3), (2, 4, 3), (2, 2, 4, 4)])
    def test_wrong_shape(self, shape):
        with pytest.raises(InvalidStateError, match="expected a 4x4 matrix"):
            partial_transpose(np.zeros(shape))


class TestMinEigPt:
    def test_maximally_mixed(self):
        assert min_eig_pt(maximally_mixed()) == pytest.approx(0.25, abs=1e-12)

    def test_bell(self):
        assert min_eig_pt(bell3_projector()) == pytest.approx(-0.5, abs=1e-12)

    def test_rains_css_is_edge_state(self):
        from xree import compute_ree, css_to_density_matrix

        result = compute_ree(RAINS_PARAMS)
        assert abs(min_eig_pt(css_to_density_matrix(result.css))) < 1e-12


class TestBinaryEntropy:
    def test_half_is_ln2(self):
        assert binary_entropy(0.5) == pytest.approx(LN2, abs=1e-15)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_direct_value(self):
        expected = -0.55 * math.log(0.55) - 0.45 * math.log(0.45)
        assert binary_entropy(0.55) == pytest.approx(expected, abs=1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            binary_entropy(1.5)
        with pytest.raises(ValueError):
            binary_entropy(-0.2)

    @given(st.floats(0.0, 1.0))
    def test_symmetry(self, p):
        assert binary_entropy(p) == binary_entropy(1.0 - p)


def test_spectral_core_takes_no_tolerances():
    # its cut-offs are qmath constants that nothing sets
    core = (
        qmath.hermitian_eig,
        qmath.von_neumann_entropy,
        qmath.relative_entropy,
        qmath.min_eig_pt,
        qmath._relative_entropy_eig,
        ree_from_css,
    )
    assert [f.__name__ for f in core if "tol" in inspect.signature(f).parameters] == []
