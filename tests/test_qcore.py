import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasergate.qcore import (
    DensityMatrix,
    InvalidStateError,
    PureState,
    check_densities,
    fidelity_pure,
    make_operator,
    min_eigenvalue,
)


def ginibre_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


class TestOperators:
    def test_sigma_minus_matrix(self):
        assert np.array_equal(make_operator("sigma_minus", 2), [[0, 1], [0, 0]])

    def test_sigma_plus_matrix(self):
        assert np.array_equal(make_operator("sigma_plus", 2), [[0, 0], [1, 0]])

    def test_identity(self):
        assert np.array_equal(make_operator("identity", 2), np.eye(2))
        assert np.array_equal(make_operator("identity", 5), np.eye(5))

    def test_raising_times_lowering_is_excited_projector(self):
        sp = make_operator("sigma_plus", 2)
        sm = make_operator("sigma_minus", 2)
        assert np.array_equal(sp @ sm, make_operator("projector_excited", 2))

    def test_sigma_x_is_sum(self):
        assert np.array_equal(
            make_operator("sigma_x", 2),
            make_operator("sigma_plus", 2) + make_operator("sigma_minus", 2),
        )

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidStateError):
            make_operator("sigma_y", 2)

    def test_atomic_operator_needs_dim_2(self):
        with pytest.raises(InvalidStateError):
            make_operator("sigma_minus", 3)

    def test_identity_needs_positive_dim(self):
        with pytest.raises(InvalidStateError):
            make_operator("identity", 0)


class TestFidelity:
    def test_matching_pure_states(self):
        assert fidelity_pure(PureState.excited().to_density(), PureState.excited()) == 1.0

    def test_orthogonal_pure_states(self):
        assert fidelity_pure(PureState.excited().to_density(), PureState.ground()) == 0.0

    def test_maximally_mixed_against_anything(self):
        rho = DensityMatrix.maximally_mixed(2)
        for target in (PureState.ground(), PureState.excited(), PureState.superposition(1, 1j)):
            assert fidelity_pure(rho, target) == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        fock_state = PureState(np.array([1, 0, 0, 0]))
        with pytest.raises(InvalidStateError):
            fidelity_pure(DensityMatrix.maximally_mixed(2), fock_state)

    def test_result_is_clamped(self):
        # a state built from slightly noisy amplitudes still lands in [0, 1]
        rho = PureState.superposition(1.0, 1.0).to_density()
        f = fidelity_pure(rho, PureState.superposition(1.0, 1.0))
        assert 0.0 <= f <= 1.0


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix(np.array([[0.5, 0.1], [0.3, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError, match="positive"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_stack_check_names_the_first_bad_matrix(self):
        half = np.eye(2) / 2
        stack = np.array([half, half, np.diag([1.5, -0.5]), np.diag([2.0, -1.0])])
        check_densities(stack[:2])
        with pytest.raises(InvalidStateError, match="state 2: .*positive"):
            check_densities(stack)

    def test_rejects_non_square(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.ones((2, 3)))

    def test_matrix_is_frozen(self):
        rho = DensityMatrix.maximally_mixed(2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 3.0

    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3, 5, 17]))
    @settings(max_examples=40, deadline=None)
    def test_random_states_are_valid(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = ginibre_density(rng, dim)
        assert rho.dim == dim
        assert 1.0 / dim - 1e-9 <= rho.purity() <= 1.0 + 1e-9


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError, match="normalized"):
            PureState(np.array([1.0, 1.0]))

    def test_superposition_normalizes(self):
        psi = PureState.superposition(3.0, 4.0j)
        assert np.vdot(psi.amplitudes, psi.amplitudes) == pytest.approx(1.0, abs=1e-14)

    def test_to_density_roundtrip(self):
        psi = PureState.superposition(1.0, 1j)
        rho = psi.to_density()
        assert fidelity_pure(rho, psi) == pytest.approx(1.0)


class TestEigensystem:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_min_eigenvalue_2x2_closed_form_matches_solver(self, seed):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h = g + g.conj().T
        assert min_eigenvalue(h) == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)
