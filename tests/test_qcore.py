import copy
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from lasergate.gates import sweep_failure_probabilities
from lasergate.budget import (
    RamanReport,
    fixed_intensity_area_sweep,
    pi_pulse_budget,
    raman_constraint,
)
from lasergate.cli import START_STATES
from lasergate.jc import jc_gate_error
from lasergate.lindblad import evolve
from lasergate.qcore import (
    BLOCH_SLACK,
    InvalidStateError,
    _amplitudes,
    check_bloch,
    check_pure_start,
    check_start,
    density_columns,
)


def ginibre_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m)


def evolve_start(s0):
    """A trajectory of one short pulse from the Bloch vector ``s0``."""
    return evolve(s0, 1.0, 0.0)


def population(s, psi) -> float:
    """<psi| rho |psi> of the Bloch vector ``s`` for the amplitudes ``psi``,
    its matrix read from :func:`qcore.density_columns`."""
    (rho_bb,), (rho_aa,), (re,), (im,), _ = density_columns(*([value] for value in s))
    t = np.asarray(psi)
    return np.vdot(t, np.array([[rho_bb, complex(re, -im)], [complex(re, im), rho_aa]]) @ t).real


def decay_free_bloch(psi, theta: float) -> np.ndarray:
    """The final Bloch vector of a decay-free pulse of area ``theta`` from the
    amplitudes ``psi``."""
    trajectory = evolve(oracles.pure_bloch(psi), theta, 0.0)
    return np.array([trajectory.x[-1], trajectory.y[-1], trajectory.z[-1]])


def expm_bloch(psi, theta: float) -> np.ndarray:
    """The Bloch vector of exp(-i theta sigma_x / 2) psi, from scipy's expm."""
    t = expm(-0.5j * theta * np.array([[0, 1], [1, 0]], dtype=complex)) @ psi
    return np.array(oracles.density_bloch(np.outer(t, t.conj())))


def refusal(check, *args):
    """The error ``check(*args)`` raises, or None if it passes."""
    try:
        check(*args)
    except InvalidStateError as exc:
        return str(exc)
    return None


def refused_index(message, count: int):
    """The index of the vector a refusal of a stack of ``count`` names, or
    None for no refusal."""
    if message is None:
        return None
    if count == 1:
        return 0
    return int(message.split(": ", 1)[0].removeprefix("state "))


@st.composite
def bloch_vector(draw):
    """A Bloch vector inside the unit ball, within 3e-9 of its surface or far
    outside it, in a random direction, or three arbitrary floats: NaN, inf,
    +-0 and lengths that overflow included."""
    if draw(st.booleans()):
        return tuple(draw(st.floats()) for _ in range(3))
    x, y, z = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    norm = math.hypot(x, y, z) or 1.0
    near_surface = st.integers(-30, 30).map(lambda k: 1.0 + k * 1e-10)
    radius = draw(st.floats(0.0, 1.0) | near_surface | st.floats(1.0 - 3e-9, 1.0 + 3e-9)
                  | st.floats(1.0, 1e9))
    return x / norm * radius, y / norm * radius, z / norm * radius


class TestOperators:
    """The decay-free pulse is the rotation exp(-i theta sigma_x / 2)."""

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 2 * math.pi, 11.0])
    def test_rotation_matches_expm(self, theta):
        for psi in ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)):
            got = decay_free_bloch(psi, theta)
            assert np.max(np.abs(got - expm_bloch(np.asarray(psi), theta))) <= 4e-15

    def test_identity(self):
        psi = (0.6, 0.8j)
        start = oracles.pure_bloch(psi)
        assert tuple(decay_free_bloch(psi, 0.0)) == start
        assert np.max(np.abs(decay_free_bloch(psi, 4 * math.pi) - start)) <= 4e-15

    def test_sigma_x_is_sum(self):
        # a pi pulse is -i sigma_x, with sigma_x = sigma_+ + sigma_-
        sigma_x = oracles.SIGMA_PLUS + oracles.SIGMA_MINUS
        psi = np.array([0.6, 0.8j])
        t = sigma_x @ psi
        want = oracles.density_bloch(np.outer(t, t.conj()))
        assert np.max(np.abs(decay_free_bloch(tuple(psi), math.pi) - want)) <= 1e-15

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, math.pi, 11.0])
    @pytest.mark.parametrize("psi", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8j)])
    def test_psi_perp_is_orthogonal_to_the_target(self, theta, psi):
        # gates reads p on the state orthogonal to the decay-free output: none
        # without decay, and with it the final state's population there
        target = expm(-0.5j * theta * np.array([[0, 1], [1, 0]], dtype=complex)) @ psi
        perp = np.array([-np.conj(target[1]), np.conj(target[0])])
        assert abs(np.vdot(perp, target)) <= 1e-15
        s0 = oracles.pure_bloch(psi)
        assert sweep_failure_probabilities(theta, s0, [0.0]) == (0.0,)
        (p,) = sweep_failure_probabilities(theta, s0, [0.3])
        final = oracles.sample_matrices(evolve(s0, theta, 0.3))[-1]
        assert abs(p - np.vdot(perp, final @ perp).real) <= 4e-15


class TestFailurePopulation:
    """The population gates reads as p, and the matrix entries a final state
    is read as: <psi| rho |psi> of a Bloch vector's matrix."""

    def test_orthogonal_pure_states(self):
        # overwhelming decay holds the ground state, orthogonal to the pi
        # pulse's target, the excited state: all of it fails
        assert sweep_failure_probabilities(math.pi, START_STATES["ground"], [1e10]) == (1.0,)

    def test_maximally_mixed_against_anything(self):
        for target in (oracles.GROUND, oracles.EXCITED, np.array([1.0, 1.0j]) / math.sqrt(2.0)):
            assert population((0.0, 0.0, 0.0), target) == pytest.approx(0.5)

    def test_result_is_clamped(self):
        # p of a start on the unit sphere still lands in [0, 1]
        for p in sweep_failure_probabilities(math.pi, START_STATES["plus"],
                                             [0.0, 1e-3, 1.0, 30.0, 1e10]):
            assert 0.0 <= p <= 1.0


class TestBlochCheck:
    def test_stack_check_names_the_first_bad_matrix(self):
        # the maximally mixed state twice, then diag(1.5, -0.5) and diag(2, -1)
        xs, ys, zs = (0.0,) * 4, (0.0,) * 4, (0.0, 0.0, -2.0, -3.0)
        check_bloch(xs[:2], ys[:2], zs[:2])
        with pytest.raises(InvalidStateError, match=r"state 2: Bloch vector \|s\| = 2 lies"):
            check_bloch(xs, ys, zs)

    @given(vectors=st.lists(bloch_vector(), min_size=1, max_size=6))
    @settings(max_examples=500, deadline=None)
    def test_column_check_is_the_stack_check(self, vectors):
        # the one check of a stack of Bloch vectors, held as columns, against
        # LAPACK's smallest eigenvalue of each matrix of the stack: (I + s.sigma)
        # / 2 has eigenvalues (1 -+ |s|) / 2, so |s| <= 1 + BLOCH_SLACK is that
        # eigenvalue >= -BLOCH_SLACK / 2; vectors within 1e-12 of that edge,
        # where rounding decides, are skipped
        lowest = [oracles.lowest_eigenvalue(s) for s in vectors]
        assume(not any(abs(2.0 * value + BLOCH_SLACK) < 1e-12 for value in lowest))
        bad = [i for i, value in enumerate(lowest) if not value >= -BLOCH_SLACK / 2]
        message = refusal(check_bloch, *zip(*vectors))
        assert refused_index(message, len(vectors)) == (bad[0] if bad else None)

    def test_overflowing_coherence_refused_by_the_constructor(self):
        # evolve's start check: x = y = 1.7e308 is a coherence of |rho_ab| =
        # 1.2e308, and |s| overflows to inf
        with pytest.raises(InvalidStateError, match=r"\|s\| = inf lies outside"):
            evolve((1.7e308, 1.7e308, 0.0), 1.0, 0.0)

    # |s| = 1.84e308 leaves the double range though both its parts are finite
    def test_overflowing_coherence_refused_by_the_column_check(self):
        with pytest.raises(InvalidStateError, match=r"\|s\| = inf lies outside"):
            check_bloch((1.3e308,), (1.3e308,), (0.0,))
        with pytest.raises(InvalidStateError, match=r"state 1: Bloch vector \|s\| = inf"):
            check_bloch((0.0, 1.3e308), (0.0, 1.3e308), (0.0, 0.0))

    def test_rejects_non_square(self):
        # a 2x3 matrix is no state: no Bloch vector, pure or mixed
        with pytest.raises(InvalidStateError):
            check_pure_start(np.ones((2, 3)))
        with pytest.raises(InvalidStateError):
            evolve(np.ones((2, 3)), 1.0, 0.0)

    # a d-level state has d^2 - 1 Bloch components: 0 for one level, 8 for
    # three, 15 for four; a 2x3 "state" is given as its 6 entries
    @pytest.mark.parametrize("build,entries", [
        (check_pure_start, []), (check_pure_start, [1.0] + [0.0] * 7),
        (check_pure_start, [1.0] + [0.0] * 14),
        (evolve_start, []), (evolve_start, [0.0] * 8), (evolve_start, [0.0] * 15),
        (evolve_start, [0.0] * 6),
    ], ids=["pure-1", "pure-3", "pure-4", "density-1x1", "density-3x3", "density-4x4",
            "density-2x3"])
    def test_only_the_two_level_atom_is_accepted(self, build, entries):
        # each input is otherwise valid: a unit vector for a pure start, or
        # inside the ball
        with pytest.raises(InvalidStateError, match="expected a Bloch vector of 3 numbers"):
            build(entries)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_states_are_valid(self, seed):
        rng = np.random.default_rng(seed)
        vector = oracles.density_bloch(ginibre_density(rng, 2))
        check_bloch(*zip(vector))
        assert 0.5 - 1e-9 <= density_columns(*zip(vector))[4][0] <= 1.0 + 1e-9


class TestPureStartAndAmplitudes:
    """A pure start is a Bloch vector on the unit sphere, ||s| - 1| <=
    BLOCH_SLACK (:func:`qcore.check_pure_start`); ``jc`` alone turns it into
    amplitudes (:func:`qcore._amplitudes`)."""

    def test_rejects_unnormalized(self):
        # the vector of a mixed state lies inside the sphere, and past the slack
        # outside it lies no state at all; both refusals print |s|
        for s, message in (((0.5, 0.0, 0.0), r"not pure: Bloch vector \|s\| = 0.5$"),
                           ((0.0, 0.0, 1.0 - 2 * BLOCH_SLACK), r"\|s\| = 0.999999998$"),
                           ((1.0, 1.0, 0.0), r"\|s\| = 1.41421356237 lies outside")):
            with pytest.raises(InvalidStateError, match=message):
                check_pure_start(s)
            with pytest.raises(InvalidStateError, match=message):
                jc_gate_error(math.pi, s, 100.0)
        for radius in (1.0 - BLOCH_SLACK, 1.0, 1.0 + BLOCH_SLACK):
            assert check_pure_start((0.0, 0.0, radius)) == (0.0, 0.0, radius)

    @pytest.mark.parametrize("amplitudes", [(math.nan, 0.0, 0.0), (math.nan, 0.0, 1.0)],
                             ids=["nan-zero", "nan-one"])
    def test_rejects_nan_amplitudes(self, amplitudes):
        # a NaN component makes |s| NaN, which compares False with any
        # tolerance: it is refused before jc builds amplitudes from it
        with pytest.raises(InvalidStateError, match=r"\|s\| = nan lies outside"):
            check_pure_start(amplitudes)
        with pytest.raises(InvalidStateError, match=r"\|s\| = nan lies outside"):
            jc_gate_error(math.pi, amplitudes, 100.0)

    def test_superposition_normalizes(self):
        # (3 |b> + 4i |a>) / 5 as its vector: the amplitudes jc builds have unit
        # norm; z > 0, so the northern chart gives them times the phase -i
        psi = _amplitudes((0.0, 0.96, 0.28))
        assert np.vdot(psi, psi) == pytest.approx(1.0, abs=1e-14)
        assert np.max(np.abs(np.subtract(psi, (-0.6j, 0.8)))) <= 1e-15

    def test_bloch_roundtrip(self):
        # vector -> amplitudes -> vector, and the state has all its population on itself
        near_pole = 1.0 - 2.0 ** -40
        for s in ((0.0, 1.0, 0.0), *START_STATES.values(), (-0.6, 0.0, 0.8),
                  (0.0, math.sqrt((1.0 - near_pole) * (1.0 + near_pole)), near_pole)):
            psi = _amplitudes(s)
            assert np.max(np.abs(np.subtract(oracles.pure_bloch(psi), s))) <= 1e-15
            assert population(s, psi) == pytest.approx(1.0)

    @pytest.mark.parametrize("amplitudes", [(1.0, 0.0), (0.0, 1.0), (0.6, 0.8j), (0.28, -0.96)])
    def test_bloch_vector_is_that_of_the_projector(self, amplitudes):
        # the vector of |psi><psi| gives back amplitudes of the same projector:
        # psi up to a global phase
        psi = _amplitudes(oracles.pure_bloch(amplitudes))
        want = np.outer(amplitudes, np.conj(amplitudes))
        assert np.max(np.abs(np.outer(psi, np.conj(psi)) - want)) <= 1e-15

    def test_excited_state_is_read_at_the_pole(self):
        # the northern chart (x - i y, 1 + z) reads the excited pole, and
        # vectors within the slack of it, as |a>; the southern chart would
        # divide 1 - z ~ 5e-10 by a norm of the same size there
        for z in (1.0, 1.0 - BLOCH_SLACK / 2, 1.0 + BLOCH_SLACK):
            assert _amplitudes((0.0, 0.0, z)) == (0j, 1 + 0j)
        x_b, x_a = _amplitudes((0.0, 1e-16, 1.0 - 1e-16))
        assert abs(x_b) <= 1e-16 and x_a == 1.0


class TestStartVector:
    """evolve takes any start in the ball, pure or mixed; gates and jc a pure one."""

    @pytest.mark.parametrize("s0", [(0.0, 0.0, 0.0), (0.3, -0.2, 0.1), (0.0, 0.0, -0.999),
                                    np.array([0.0, 0.6, 0.0]), [1, 0, 0]],
                             ids=["centre", "mixed", "near-ground", "numpy", "ints"])
    def test_evolve_accepts_any_start_in_the_ball(self, s0):
        start = check_start(s0)
        assert all(type(value) is float for value in start)
        trajectory = evolve(s0, 1.0, 0.5, samples=2)
        assert (trajectory.x[0], trajectory.y[0], trajectory.z[0]) == start

    @pytest.mark.parametrize("s0, message", [
        ((0.0, 0.0, -2.0), "Bloch vector |s| = 2 lies outside the unit ball"),
        ((0.0, 0.0), "expected a Bloch vector of 3 numbers: "),
        ((0.4, -0.2j, 0.0), "expected a Bloch vector of 3 numbers: "),
        (5.0, "expected a Bloch vector of 3 numbers: "),
    ], ids=["outside", "two", "complex", "scalar"])
    def test_one_check_and_one_message_for_every_start(self, s0, message):
        # evolve and the pure-start check refuse a bad vector alike
        refusals = {refusal(check, s0)
                    for check in (check_start, check_pure_start, lambda s: evolve(s, 1.0, 0.0))}
        assert len(refusals) == 1 and refusals.pop().startswith(message)


class TestEigensystem:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_min_eigenvalue_2x2_closed_form_matches_solver(self, seed):
        # a unit-trace matrix of random eigenvectors whose smallest eigenvalue
        # lies in [-1e-8, -1e-9): its Bloch vector lies just outside the ball,
        # and the closed form (1 - |s|) / 2 of the |s| the refusal prints, to 12
        # digits and so to 5e-12, is that eigenvalue to 2.5e-12
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        low = rng.uniform(-9.9e-9, -1.1e-9)
        h = u @ np.diag([low, 1.0 - low]) @ u.conj().T
        h = (h + h.conj().T) / 2
        message = refusal(check_bloch, *zip(oracles.density_bloch(h)))
        assert message.startswith("Bloch vector |s| = ")
        printed = float(message.split(" = ", 1)[1].split(" ", 1)[0])
        assert (1.0 - printed) / 2.0 == pytest.approx(float(np.linalg.eigvalsh(h)[0]),
                                                      abs=2.5e-12 + 1e-15)

def records() -> list:
    """One record of each type the package returns."""
    beam = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5)
    return [evolve((0.0, 0.0, 0.0), 1.0, 0.1, samples=4), beam,
            raman_constraint(beam._replace(rabi_frequency_rad_per_s=1e9, gamma_per_s=1e6), 1e11),
            fixed_intensity_area_sweep(beam, 3)]


class TestRecord:
    """Every record type is a named tuple with no instance dict: immutable,
    field-wise, copyable and picklable."""

    def test_positional_and_keyword_construction_agree(self):
        for record in records():
            cls, fields = type(record), record._fields
            mixed = cls(*record[:2], **dict(zip(fields[2:], record[2:])))
            assert cls(*record) == cls(**record._asdict()) == mixed == record, cls.__name__

    def test_defaults_hold(self):
        # a property derived from the fields
        _, beam, raman, _ = records()
        for margin in (0.5, 1.0, 2.0):
            assert beam._replace(constraint_margin=margin).satisfied == (margin > 1.0)
            assert raman._replace(margin=margin).satisfied == (margin > 1.0)

    def test_fields_cannot_be_assigned_or_deleted(self):
        for record, fresh in zip(records(), records()):
            cls, name = type(record), record._fields[-1]
            assert cls.__slots__ == () and not hasattr(record, "__dict__"), cls.__name__
            with pytest.raises(AttributeError):
                setattr(record, name, 5.0)
            with pytest.raises(AttributeError):
                delattr(record, name)
            with pytest.raises(AttributeError):
                record.extra = 1
            assert record == fresh

    def test_eq_hash_and_repr_are_field_wise(self):
        values = (1e11, 1e7, 3.0, 1e-5, 10.0)
        report = RamanReport(1e11, 1e7, 3.0, 1e-5, margin=10.0)
        assert report == RamanReport(*values)
        assert hash(report) == hash(RamanReport(*values))
        assert report != RamanReport(*values[:3], 2e-5, *values[4:])
        assert len({report, RamanReport(*values), RamanReport(*values[:4], 7.0)}) == 2
        assert repr(report) == ("RamanReport(detuning_rad_per_s=100000000000.0,"
                                " effective_rabi_rad_per_s=10000000.0, duration_s=3.0,"
                                " purity_loss=1e-05, margin=10.0)")
        trajectory = evolve((0.0, 0.0, 0.0), 1.0, 0.1, samples=2)
        assert trajectory == evolve((0.0, 0.0, 0.0), 1.0, 0.1, samples=2)
        assert hash(trajectory) == hash(evolve((0.0, 0.0, 0.0), 1.0, 0.1, samples=2))
        assert trajectory != evolve((0.0, 0.0, 0.0), 1.0, 0.1, samples=3)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda record: pickle.loads(pickle.dumps(record))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_keep_their_storage_immutable(self, clone):
        for record in records():
            twin = clone(record)
            assert type(twin) is type(record) and twin == record, type(record).__name__
            assert not hasattr(twin, "__dict__")
            for name, value in zip(record._fields, twin):
                with pytest.raises(AttributeError):
                    setattr(twin, name, ())
                if isinstance(value, tuple):  # a column
                    with pytest.raises(TypeError):
                        value[0] = 5.0
