import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from lasergate import lindblad
from lasergate.lindblad import EXACT, IntegratorConfig, evolve
from lasergate.qcore import (
    DensityMatrix,
    InvalidStateError,
    PureState,
    Record,
    check_densities,
    check_density_columns,
    fidelity_pure,
    psi_perp,
    rotation,
)


def ginibre_density(rng: np.random.Generator, dim: int) -> DensityMatrix:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def refusal(check, *args):
    """The error ``check(*args)`` raises, or None if it passes."""
    try:
        check(*args)
    except InvalidStateError as exc:
        return str(exc)
    return None


def named(message, count: int):
    """(invariant, i) of a refusal of a stack of ``count`` matrices, in the
    names of ``oracles.DENSITY_INVARIANTS``; None for no refusal."""
    if message is None:
        return None
    index, text = message.split(": ", 1) if count > 1 else ("state 0", message)
    name = next(name for name, _ in oracles.DENSITY_INVARIANTS if name in text)
    return name, int(index.removeprefix("state "))


@st.composite
def bloch_row(draw):
    """(rho_bb, rho_aa, Re rho_ab, Im rho_ab) of a Bloch vector inside the
    unit ball, within 3e-9 of its surface or outside it, converted as
    lindblad.evolve converts the vectors it propagates; some with a trace
    within 2e-10 of 1, and half of them with one entry NaN."""
    x, y, z = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    norm = math.hypot(x, y, z) or 1.0
    near_surface = st.integers(-30, 30).map(lambda k: 1.0 + k * 1e-10)
    radius = draw(st.floats(0.0, 1.0) | near_surface | st.floats(1.0, 1e9))
    columns = lindblad._columns([x / norm * radius], [y / norm * radius], [z / norm * radius])
    row = tuple(column[0] for column in columns)
    row = (row[0] + draw(st.just(0.0) | st.floats(-2e-10, 2e-10)), *row[1:])
    if draw(st.booleans()):  # one entry NaN, as an unstable step leaves it
        k = draw(st.integers(0, 3))
        row = (*row[:k], math.nan, *row[k + 1:])
    return row


@st.composite
def near_hermitian_matrix(draw):
    """The matrix of a bloch_row with its upper-right entry and the imaginary
    parts of its diagonal drawn on their own: each part exact, within 3e-12
    of exact, about HERMITICITY_TOL, or any finite float or NaN."""
    (a, b), (c, d) = lindblad._matrix(*draw(bloch_row()))

    def part(exact):
        return draw(st.just(exact) | st.floats(-3e-12, 3e-12).map(lambda e: exact + e)
                    | st.floats(allow_infinity=False))

    return ((complex(a.real, part(0.0)), complex(part(b.real), part(b.imag))),
            (c, complex(d.real, part(0.0))))


class TestOperators:
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 2 * math.pi, 11.0])
    def test_rotation_matches_expm(self, theta):
        sigma_x = np.array([[0, 1], [1, 0]], dtype=complex)
        want = expm(-0.5j * theta * sigma_x)
        assert np.max(np.abs(rotation(theta) - want)) <= 1e-15

    def test_identity(self):
        assert np.array_equal(rotation(0.0), np.eye(2))
        assert np.max(np.abs(rotation(4 * math.pi) - np.eye(2))) <= 1e-15

    def test_sigma_x_is_sum(self):
        # a pi pulse is -i sigma_x, with sigma_x = sigma_+ + sigma_-
        sigma_x = oracles.SIGMA_PLUS + oracles.SIGMA_MINUS
        assert np.max(np.abs(rotation(math.pi) + 1j * sigma_x)) <= 1e-15

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 11.0])
    @pytest.mark.parametrize("psi", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)])
    def test_psi_perp_is_orthogonal_to_the_target(self, theta, psi):
        target = expm(-0.5j * theta * np.array([[0, 1], [1, 0]], dtype=complex)) @ psi
        perp = np.array(psi_perp(theta, psi))
        assert abs(np.vdot(perp, target)) <= 1e-15
        assert np.linalg.norm(perp) == pytest.approx(1.0, abs=1e-15)


class TestFidelity:
    def test_matching_pure_states(self):
        assert fidelity_pure(PureState.excited().to_density(), PureState.excited()) == 1.0

    def test_orthogonal_pure_states(self):
        assert fidelity_pure(PureState.excited().to_density(), PureState.ground()) == 0.0

    def test_maximally_mixed_against_anything(self):
        rho = DensityMatrix(np.eye(2) / 2)
        for target in (PureState.ground(), PureState.excited(), PureState.superposition(1, 1j)):
            assert fidelity_pure(rho, target) == pytest.approx(0.5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidStateError, match="expected 2 amplitudes"):
            fidelity_pure(DensityMatrix(np.eye(2) / 2), PureState(np.array([1, 0, 0, 0])))

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

    @given(rows=st.lists(bloch_row() | st.tuples(*[st.floats()] * 4), min_size=1, max_size=6))
    @settings(max_examples=500, deadline=None)
    def test_column_check_is_the_stack_check(self, rows):
        # st.floats() adds NaN, inf, +-0 and rows whose trace is not 1
        matrices = [lindblad._matrix(*row) for row in rows]
        assume(not oracles.near_tolerance_edge(matrices))
        columns = refusal(check_density_columns, *zip(*rows))
        assert named(columns, len(rows)) == oracles.first_broken_invariant(matrices,
                                                                           hermitian=True)
        # a NaN or infinite coherence leaves b - c* NaN, a residue the stack
        # check refuses; short of one, it refuses as the columns do
        stack = refusal(check_densities, matrices)
        want = oracles.first_broken_invariant(matrices)
        assert named(stack, len(rows)) == want
        if want is None or want[0] != "Hermitian":
            assert stack == columns

    @given(stack=st.lists(near_hermitian_matrix(), min_size=1, max_size=4))
    @settings(max_examples=500, deadline=None)
    def test_stack_check_matches_the_oracle_off_hermitian(self, stack):
        assume(not oracles.near_tolerance_edge(stack))
        message = refusal(check_densities, stack)
        want = oracles.first_broken_invariant(stack)
        assert named(message, len(stack)) == want
        if want is not None and want[0] == "Hermitian":
            residue = oracles.density_invariants(stack[want[1]])[0]
            assert message.endswith(f"not Hermitian: residue {residue:.3e}")

    @pytest.mark.parametrize("matrix", [
        [[0.5, math.nan], [0.0, 0.5]], [[complex(0.5, math.nan), 0.0], [0.0, 0.5]],
        [[0.5, 0.0], [0.0, complex(0.5, math.nan)]], [[0.5, 0.0], [math.nan, 0.5]],
    ], ids=["upper-right", "imag-ground", "imag-excited", "lower-left"])
    def test_nan_residue_is_refused(self, matrix):
        # the columns read neither the upper-right entry nor the diagonal's
        # imaginary parts: a NaN there must fail as the residue it leaves
        with pytest.raises(InvalidStateError, match="^density matrix not Hermitian: residue nan$"):
            DensityMatrix(matrix)
        with pytest.raises(InvalidStateError, match="^state 1: density matrix not Hermitian"):
            check_densities([np.eye(2) / 2, matrix])

    def test_hermitian_within_tolerance_validates_as_its_hermitian_form(self):
        # the stack check reads the diagonal's real part and the lower-left entry
        rho = DensityMatrix([[0.6, 0.2 + 1e-13j], [0.2, 0.4]])
        assert rho.purity() == DensityMatrix([[0.6, 0.2], [0.2, 0.4]]).purity()
        assert rho.purity() == pytest.approx(oracles.density_invariants(rho.matrix)[3], abs=1e-15)
        # its trace is that of the real diagonal: no imaginary part is printed
        with pytest.raises(InvalidStateError, match=r"^density matrix trace 1\.5\+0j != 1$"):
            DensityMatrix([[1.0 + 4e-13j, 0.0], [0.0, 0.5]])

    def test_residue_is_refused_before_every_other_invariant(self):
        # each matrix also breaks the trace; the residue is named all the same
        with pytest.raises(InvalidStateError, match="^density matrix not Hermitian: residue 1"):
            DensityMatrix([[1.5, 1e-11], [0.0, 0.5]])
        stack = [np.diag([1.5, 0.5]), np.eye(2) / 2, [[0.5, 2e-12j], [0.0, 0.5]]]
        with pytest.raises(InvalidStateError, match="^state 2: density matrix not Hermitian"):
            check_densities(stack)

    # |rho_ab| = 1.84e308 leaves the double range though both its parts are finite
    def test_overflowing_coherence_refused_by_the_constructor(self):
        with pytest.raises(InvalidStateError, match="min eigenvalue -inf"):
            DensityMatrix([[0.5, 1.3e308 - 1.3e308j], [1.3e308 + 1.3e308j, 0.5]])

    def test_overflowing_residue_refused_by_the_stack_check(self):
        with pytest.raises(InvalidStateError, match="not Hermitian: residue inf"):
            check_densities([((0.5, 1.3e308 + 1.3e308j), (0.0, 0.5))])

    def test_overflowing_coherence_refused_by_the_column_check(self):
        with pytest.raises(InvalidStateError, match="trace 0"):
            check_density_columns((0.0,), (0.0,), (1.3e308,), (1.3e308,))
        with pytest.raises(InvalidStateError, match="min eigenvalue -inf"):
            check_density_columns((0.5,), (0.5,), (1.3e308,), (1.3e308,))

    def test_rejects_non_square(self):
        with pytest.raises(InvalidStateError):
            DensityMatrix(np.ones((2, 3)))

    @pytest.mark.parametrize("build,entries", [
        (PureState, [1.0]), (PureState, [1.0, 0.0, 0.0]), (PureState, [0.5] * 4),
        (DensityMatrix, np.eye(1)), (DensityMatrix, np.eye(3) / 3),
        (DensityMatrix, np.ones((2, 3)) / 2),
    ], ids=["pure-1", "pure-3", "pure-4", "density-1x1", "density-3x3", "density-2x3"])
    def test_only_the_two_level_atom_is_accepted(self, build, entries):
        # each input is otherwise valid: normalized, or unit-trace and positive
        with pytest.raises(InvalidStateError, match="expected (2 amplitudes|a 2x2 matrix)"):
            build(entries)

    def test_matrix_is_frozen(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(TypeError):
            rho.matrix[0][0] = 3.0
        with pytest.raises(TypeError):
            rho.matrix[0] = (3.0, 0.0)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_states_are_valid(self, seed):
        rng = np.random.default_rng(seed)
        rho = ginibre_density(rng, 2)
        assert np.shape(rho.matrix) == (2, 2)
        assert 0.5 - 1e-9 <= rho.purity() <= 1.0 + 1e-9


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidStateError, match="normalized"):
            PureState(np.array([1.0, 1.0]))

    @pytest.mark.parametrize("amplitudes", [(math.nan, 0.0), (math.nan, 1.0)],
                             ids=["nan-zero", "nan-one"])
    def test_rejects_nan_amplitudes(self, amplitudes):
        # |psi|^2 is NaN, and NaN - 1 compares False with any tolerance
        with pytest.raises(InvalidStateError, match="normalized"):
            PureState(amplitudes)

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
        # a unit-trace matrix of random eigenvectors whose smallest eigenvalue
        # lies in [-1e-8, -1e-9), where the refusal's "%.3e" prints it to 1e-12
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        low = rng.uniform(-9.9e-9, -1.1e-9)
        h = u @ np.diag([low, 1.0 - low]) @ u.conj().T
        h = (h + h.conj().T) / 2
        message = refusal(DensityMatrix, h)
        assert message.startswith("density matrix not positive: min eigenvalue ")
        printed = float(message.rsplit(" ", 1)[1])
        assert printed == pytest.approx(float(np.linalg.eigvalsh(h)[0]), abs=1e-12)


class Estimate(Record):
    """A record of three required floats and one defaulted bool."""

    coefficient_vs_ratio: float
    coefficient_vs_photons: float
    fit_residual: float
    degraded_fit: bool = False

    @property
    def photons_per_ratio(self) -> float:
        return self.coefficient_vs_photons / self.coefficient_vs_ratio


class TestRecord:
    """The record base keeps what the frozen dataclasses it replaced did."""

    def test_positional_and_keyword_construction_agree(self):
        by_position = Estimate(0.5, 1.5, 1e-6, True)
        by_keyword = Estimate(degraded_fit=True, fit_residual=1e-6,
                              coefficient_vs_photons=1.5, coefficient_vs_ratio=0.5)
        mixed = Estimate(0.5, 1.5, fit_residual=1e-6, degraded_fit=True)
        assert by_position == by_keyword == mixed

    def test_defaults_hold(self):
        config = IntegratorConfig()
        assert (config.method, config.step_count, config.sample_count) == (EXACT, 1000, 1)
        assert Estimate(1.0, 2.0, 0.0).degraded_fit is False
        # a property derived from the fields
        assert Estimate(0.5, 1.5, 0.0).photons_per_ratio == 3.0

    @pytest.mark.parametrize("args,kwargs,message", [
        ((1.0, 2.0), {}, "missing field 'fit_residual'"),
        ((1.0, 2.0, 0.0), {"residual": 0.0}, "no field 'residual'"),
        ((1.0, 2.0, 0.0), {"coefficient_vs_ratio": 1.0}, "field 'coefficient_vs_ratio' twice"),
        ((1.0, 2.0, 0.0, False, 5), {}, "takes 4 fields"),
    ])
    def test_bad_fields_raise_type_error(self, args, kwargs, message):
        with pytest.raises(TypeError, match=message):
            Estimate(*args, **kwargs)

    def test_fields_cannot_be_assigned_or_deleted(self):
        config = IntegratorConfig()
        with pytest.raises(AttributeError):
            config.step_count = 5
        with pytest.raises(AttributeError):
            del config.method
        with pytest.raises(AttributeError):
            config.extra = 1
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(AttributeError):
            rho.matrix = np.eye(2)
        assert config == IntegratorConfig() and "extra" not in vars(config)

    def test_eq_hash_and_repr_are_field_wise(self):
        a, b = Estimate(1.0, 2.0, 3.0), Estimate(1.0, 2.0, 3.0)
        assert a == b and hash(a) == hash(b) == hash((1.0, 2.0, 3.0, False))
        assert a != Estimate(1.0, 2.0, 3.0, True)
        assert len({a, b, Estimate(1.0, 2.0, 4.0)}) == 2
        assert repr(a) == ("Estimate(coefficient_vs_ratio=1.0, coefficient_vs_photons=2.0,"
                           " fit_residual=3.0, degraded_fit=False)")
        config = IntegratorConfig(step_count=7)
        assert config == IntegratorConfig(EXACT, 7) and hash(config) == hash(IntegratorConfig(EXACT, 7))
        assert config != IntegratorConfig() and config != (EXACT, 7, 1)
        assert repr(config) == "IntegratorConfig(method='exact', step_count=7, sample_count=1)"

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda record: pickle.loads(pickle.dumps(record))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_their_storage_immutable(self, clone):
        rho = DensityMatrix(np.eye(2) / 2)
        psi = PureState.superposition(1.0, 1j)
        config = IntegratorConfig(sample_count=4)
        trajectory = evolve(rho, 1.0, 0.1, config).trajectory
        for record, storage in ((rho, "matrix"), (psi, "amplitudes"),
                                (trajectory, "times"), (trajectory, "states")):
            twin = clone(record)
            assert twin == record
            with pytest.raises(TypeError):
                getattr(twin, storage)[0] = 5.0
            with pytest.raises(AttributeError):
                setattr(twin, storage, ())
        with pytest.raises(TypeError):
            clone(rho).matrix[0][0] = 5.0
        with pytest.raises(TypeError):
            clone(trajectory).states[-1][1][1] = 5.0
        assert clone(rho).matrix == ((0.5, 0.0), (0.0, 0.5))
