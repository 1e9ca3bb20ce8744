"""Family construction, Bloch conversion, classification, named states."""

import cmath
import math
import random
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xree import (
    BlochZParams,
    DensityMatrix,
    from_density_matrix,
    hermitian_eig,
    is_entangled,
    min_eig_pt,
    named_state,
    to_density_matrix,
    x_state,
    x_state_from_bloch,
)
from xree.errors import InvalidStateError, NotInFamilyError, SingularPhaseError
from xree.states import RAINS_PARAMS, bell_ket

from conftest import random_entangled_params, random_separable_params


class TestBlochConversion:
    def test_bell3_correlations(self):
        p = x_state_from_bloch(BlochZParams(r=0.0, s=0.0, g_x=1.0, g_z=-1.0))
        assert p.a1 == pytest.approx(0.0, abs=1e-15)
        assert p.a4 == pytest.approx(0.0, abs=1e-15)
        assert p.a2 == pytest.approx(0.5, abs=1e-15)
        assert p.a3 == pytest.approx(0.5, abs=1e-15)
        assert p.d == pytest.approx(0.5, abs=1e-15)
        rho = to_density_matrix(p)
        bell = np.outer(bell_ket(3), bell_ket(3).conj())
        assert np.max(np.abs(rho.matrix - bell)) < 1e-14

    def test_diagonal_state(self):
        p = x_state_from_bloch(BlochZParams(r=0.0, s=0.0, g_x=0.0, g_z=1.0))
        assert (p.a1, p.a2, p.a3, p.a4) == pytest.approx((0.5, 0.0, 0.0, 0.5))
        assert p.d == 0.0

    def test_singular_phase(self):
        with pytest.raises(SingularPhaseError):
            x_state_from_bloch(BlochZParams(r=0.0, s=0.0, g_x=0.4, g_z=0.0, phi=math.pi / 2))

    def test_invalid_populations(self):
        with pytest.raises(InvalidStateError):
            x_state_from_bloch(BlochZParams(r=1.5, s=1.5, g_x=0.0, g_z=0.0))

    def test_normalised_by_the_left_to_right_total(self):
        # sum() compensates on Python >= 3.12; these draws are those whose
        # correctly rounded total differs from the left-to-right one
        rng = random.Random(12)
        draws = []
        while len(draws) < 24:
            r, s, g_z = (rng.uniform(-0.3, 0.3) for _ in range(3))
            pops = [
                (1.0 + r + s + g_z) / 4.0,
                (1.0 + r - s - g_z) / 4.0,
                (1.0 - r + s - g_z) / 4.0,
                (1.0 - r - s + g_z) / 4.0,
            ]
            total = ((pops[0] + pops[1]) + pops[2]) + pops[3]
            if math.fsum(pops) != total:
                draws.append((r, s, g_z, pops, total))
        moved = 0
        for r, s, g_z, pops, total in draws:
            p = x_state_from_bloch(BlochZParams(r=r, s=s, g_x=0.0, g_z=g_z))
            assert p.diag() == tuple(a / total for a in pops)
            moved += p.diag() != tuple(a / math.fsum(pops) for a in pops)
        assert moved > 0


class TestDensityMatrixRoundTrip:
    def test_bell_projector_exact(self):
        p = x_state(0.0, 0.5, 0.5, 0.0, 0.5)
        rho = to_density_matrix(p)
        bell = np.zeros((4, 4), dtype=complex)
        bell[1:3, 1:3] = 0.5
        assert np.array_equal(rho.matrix, bell)

    def test_rains_matrix_entries(self):
        rho = to_density_matrix(RAINS_PARAMS)
        xi = 1.0 / math.log(73.0 / 23.0)
        assert rho.matrix[0, 0] == pytest.approx(1 / 12, abs=1e-15)
        assert rho.matrix[3, 3] == pytest.approx(1 / 12, abs=1e-15)
        assert rho.matrix[1, 1].real == pytest.approx(45907 / 90000 - 7 * xi / 150, abs=1e-15)
        assert rho.matrix[2, 2].real == pytest.approx(29093 / 90000 + 7 * xi / 150, abs=1e-15)
        assert rho.matrix[1, 2].real == pytest.approx(1201 / 3750 + 49 * xi / 3600, abs=1e-15)
        assert rho.matrix[1, 2].imag == 0.0

    def test_rains_parameters_read_back(self):
        p = from_density_matrix(named_state("rains"))
        assert p.a1 == pytest.approx(RAINS_PARAMS.a1, abs=1e-15)
        assert p.d == pytest.approx(RAINS_PARAMS.d, abs=1e-15)

    def test_parameters_read_back_are_python_floats(self):
        p = from_density_matrix(named_state("vp", 0.5, 0.3, 0.2))
        assert all(type(v) is float for v in astuple(p))

    def test_general_bell_diagonal_rejected(self):
        rho = named_state("bell_diagonal", 0.4, 0.1, 0.3, 0.2)
        with pytest.raises(NotInFamilyError) as err:
            from_density_matrix(rho)
        corners = {(i, j) for i, j, _ in err.value.entries}
        assert (0, 3) in corners and (3, 0) in corners

    def test_rejected_entries_are_python_floats(self):
        rho = named_state("bell_diagonal", 0.4, 0.1, 0.3, 0.2)
        with pytest.raises(NotInFamilyError) as err:
            from_density_matrix(rho)
        assert err.value.entries == [(0, 3, 0.14999999999999997), (3, 0, 0.14999999999999997)]
        assert all(type(mag) is float for _, _, mag in err.value.entries)
        assert "(0,3)=1.500e-01, (3,0)=1.500e-01" in str(err.value)

    def test_balanced_bell_diagonal_accepted(self):
        rho = named_state("bell_diagonal", 0.25, 0.25, 0.3, 0.2)
        p = from_density_matrix(rho)
        assert p.a1 == pytest.approx(0.25, abs=1e-14)
        assert p.d == pytest.approx(0.05, abs=1e-14)

    def test_psd_of_generated_members(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = random_entangled_params(rng)
            eig = hermitian_eig(to_density_matrix(p))
            assert eig.values[0] > -1e-12

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
        st.floats(0.01, 1.0),
        st.floats(0.0, 1.0),
        st.floats(-math.pi, math.pi),
    )
    def test_round_trip(self, w1, w2, w3, w4, dfrac, phi):
        total = w1 + w2 + w3 + w4
        a1, a2, a3, a4 = w1 / total, w2 / total, w3 / total, w4 / total
        d = dfrac * math.sqrt(a2 * a3) * 0.999
        p = x_state(a1, a2, a3, a4, d, phi)
        q = from_density_matrix(to_density_matrix(p))
        assert q.a1 == pytest.approx(p.a1, abs=1e-12)
        assert q.a2 == pytest.approx(p.a2, abs=1e-12)
        assert q.a3 == pytest.approx(p.a3, abs=1e-12)
        assert q.a4 == pytest.approx(p.a4, abs=1e-12)
        assert q.d == pytest.approx(p.d, abs=1e-12)
        if p.d > 1e-12:
            assert cmath.exp(1j * q.phi) == pytest.approx(cmath.exp(1j * p.phi), abs=1e-10)


class TestEntanglementClassification:
    def test_rains_is_entangled(self):
        assert is_entangled(RAINS_PARAMS)

    def test_zero_coherence_separable(self):
        assert not is_entangled(x_state(0.4, 0.3, 0.2, 0.1, 0.0))

    def test_boundary_is_separable(self):
        a1, a4 = 0.3, 0.12
        d = math.sqrt(a1 * a4)
        p = x_state(a1, 0.4, 0.18, a4, d)
        assert not is_entangled(p)

    def test_ppt_equivalence_on_1000_members(self):
        rng = np.random.default_rng(29)
        for i in range(1000):
            p = random_entangled_params(rng) if i % 2 else random_separable_params(rng)
            lam = min_eig_pt(to_density_matrix(p))
            if is_entangled(p):
                assert lam < -1e-12
            else:
                assert lam > -1e-10


class TestPhaseInvariance:
    def test_spectrum_independent_of_phase(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            p = random_entangled_params(rng)
            base = hermitian_eig(to_density_matrix(p)).values
            rotated = x_state(p.a1, p.a2, p.a3, p.a4, p.d, p.phi + 1.234)
            vals = hermitian_eig(to_density_matrix(rotated)).values
            assert np.max(np.abs(base - vals)) < 1e-12
            assert abs(
                min_eig_pt(to_density_matrix(p)) - min_eig_pt(to_density_matrix(rotated))
            ) < 1e-12


class TestNamedStates:
    def test_rains_uses_transcendental_weight(self):
        rho = named_state("rains")
        xi = 1.0 / math.log(73.0 / 23.0)
        assert rho.matrix[1, 2].real == pytest.approx(1201 / 3750 + 49 * xi / 3600, abs=1e-15)

    def test_vp_mixture(self):
        rho = named_state("vp", 0.5, 0.3, 0.2)
        bell = np.outer(bell_ket(3), bell_ket(3).conj())
        expected = 0.5 * bell
        expected[1, 1] += 0.3
        expected[2, 2] += 0.2
        assert np.max(np.abs(rho.matrix - expected)) < 1e-15

    def test_theorem3_example_parameters(self):
        rho = named_state("theorem3_example", 0.66, 0.16, 0.03, 0.06, 0.09)
        p = from_density_matrix(rho)
        assert p.a1 == pytest.approx(0.06, abs=1e-15)
        assert p.a2 == pytest.approx(0.49, abs=1e-15)
        assert p.a3 == pytest.approx(0.36, abs=1e-15)
        assert p.a4 == pytest.approx(0.09, abs=1e-15)
        assert p.d == pytest.approx(0.33, abs=1e-15)

    def test_theorem2_example_parameters(self):
        rho = named_state("theorem2_example", 0.5, 0.1, 0.25, 0.15)
        p = from_density_matrix(rho)
        assert p.a1 == pytest.approx(0.25, abs=1e-15)
        assert p.a2 == pytest.approx(0.3, abs=1e-15)
        assert p.a3 == pytest.approx(0.3, abs=1e-15)
        assert p.d == pytest.approx(0.2, abs=1e-15)

    def test_theorem1_example_parameters(self):
        inv = 1.0 / math.sqrt(2.0)
        rho = named_state("theorem1_example", 0.5, inv, inv, 0.3, 0.2)
        p = from_density_matrix(rho)
        assert p.a2 == pytest.approx(0.55, abs=1e-15)
        assert p.a3 == pytest.approx(0.45, abs=1e-15)
        assert p.d == pytest.approx(0.25, abs=1e-15)

    def test_weights_off_simplex_rejected(self):
        with pytest.raises(InvalidStateError):
            named_state("vp", 0.5, 0.3, 0.3)
        with pytest.raises(InvalidStateError):
            named_state("bell_diagonal", 0.5, 0.5, 0.5, -0.5)

    def test_unknown_family(self):
        with pytest.raises(InvalidStateError):
            named_state("werner", 0.5)

    @pytest.mark.parametrize(
        "family, params, message",
        [
            ("rains", (0.1,), "takes no parameters"),
            ("theorem1_example", (0.5, 0.6, 0.8), "requires"),
            ("theorem1_example", (0.5, 0.6, 0.6, 0.3, 0.2), "alpha\\^2 \\+ beta\\^2"),
        ],
    )
    def test_bad_parameters_rejected(self, family, params, message):
        with pytest.raises(InvalidStateError, match=message):
            named_state(family, *params)


class TestValidation:
    def test_coherence_cap(self):
        with pytest.raises(InvalidStateError):
            x_state(0.25, 0.25, 0.25, 0.25, 0.5)

    def test_simplex_violation(self):
        with pytest.raises(InvalidStateError):
            x_state(0.5, 0.5, 0.5, 0.5, 0.0)

    def test_density_matrix_validation(self):
        bad = np.eye(4, dtype=complex)
        with pytest.raises(InvalidStateError):
            DensityMatrix.from_matrix(bad)  # trace 4

    def test_non_hermitian_matrix_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = 0.1
        with pytest.raises(InvalidStateError, match="not Hermitian"):
            DensityMatrix.from_matrix(m)

    def test_negative_coherence_rejected(self):
        with pytest.raises(InvalidStateError, match="coherence magnitude .* is negative"):
            x_state(0.25, 0.25, 0.25, 0.25, -0.1)

    def test_negative_bloch_coherence_rejected(self):
        with pytest.raises(InvalidStateError, match="shift phi by pi"):
            x_state_from_bloch(BlochZParams(r=0.0, s=0.0, g_x=-0.2, g_z=0.0))
