import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lasergate import lindblad
from lasergate.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, main
from lasergate.gates import sweep_failure_probabilities
from lasergate.lindblad import RK4_FIXED, IntegrationError, IntegratorConfig, evolve
from lasergate.qcore import DensityMatrix, InvalidStateError, PureState

RK4 = IntegratorConfig(method=RK4_FIXED, step_count=400)


def random_density(rng: np.random.Generator) -> DensityMatrix:
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return DensityMatrix(m / np.trace(m))


def lindblad_rhs(rho: DensityMatrix, g: float, kappa: float) -> np.ndarray:
    """drho/dt from the solver's Bloch generator g B_drive + kappa B_decay."""
    gen = g * np.array(lindblad._B_DRIVE) + kappa * np.array(lindblad._B_DECAY)
    w, x, y, z = gen @ lindblad._bloch(rho.matrix)
    return np.array([[w - z, x - 1j * y], [x + 1j * y, w + z]]) / 2.0


def ground_trajectory(theta: float):
    """16-sample trajectory of the ground state through a pulse of area
    ``theta``, without decay."""
    config = IntegratorConfig(sample_count=16)
    return evolve(PureState.ground().to_density(), theta, 0.0, config).trajectory


class TestSpecs:
    def test_pi_pulse_duration(self):
        # theta = pi is exactly T = pi / (2 g alpha), times in units of 1/g alpha
        assert ground_trajectory(math.pi).times[-1] == math.pi / 2
        assert ground_trajectory(5.0).times[-1] == 2.5

    def test_rabi_frequency_is_twice_coupling(self):
        # from the ground state rho_aa(t) = (1 - cos(Omega_R t)) / 2, Omega_R = 2 g,
        # with t in units of 1/g
        traj = ground_trajectory(5.0)
        want = (1.0 - np.cos(2.0 * np.array(traj.times))) / 2.0
        assert np.max(np.abs(np.array(traj.states)[:, 1, 1].real - want)) <= 1e-12

    def test_zero_area_zero_duration(self):
        assert np.array_equal(ground_trajectory(0.0).times, np.zeros(17))

    def test_negative_inputs_rejected(self):
        rho0 = PureState.ground().to_density()
        with pytest.raises(InvalidStateError, match="theta must be"):
            evolve(rho0, -1.0, 0.0)
        with pytest.raises(InvalidStateError, match="kappa/g_alpha must be"):
            evolve(rho0, 1.0, -0.1)

    def test_rk4_needs_enough_steps(self):
        with pytest.raises(InvalidStateError):
            IntegratorConfig(method=RK4_FIXED, step_count=50)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_inputs_rejected(self, bad):
        rho0 = PureState.ground().to_density()
        with pytest.raises(InvalidStateError, match="theta must be"):
            evolve(rho0, bad, 0.0)
        with pytest.raises(InvalidStateError, match="kappa/g_alpha must be"):
            evolve(rho0, 1.0, bad)


class TestRhs:
    def test_ground_state_no_decay(self):
        # only the drive acts: populations stationary, coherence slope of unit magnitude
        drho = lindblad_rhs(PureState.ground().to_density(), 1.0, 0.0)
        assert drho[1, 1] == 0.0
        assert drho[0, 0] == 0.0
        assert abs(drho[1, 0]) == pytest.approx(1.0)
        assert drho[1, 0].real == pytest.approx(0.0)

    def test_pure_decay_from_excited(self):
        drho = lindblad_rhs(PureState.excited().to_density(), 0.0, 1.0)
        assert drho[1, 1].real == pytest.approx(-1.0)
        assert drho[0, 0].real == pytest.approx(1.0)

    def test_traceless_and_hermitian_on_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            drho = lindblad_rhs(random_density(rng), 1.0, float(rng.uniform(0, 2)))
            assert abs(np.trace(drho)) <= 1e-12
            assert np.max(np.abs(drho - drho.conj().T)) <= 1e-12

    def test_matches_superoperator_generator(self):
        rng = np.random.default_rng(3)
        for ratio in (0.0, 0.3, 1.7):
            rho = random_density(rng)
            drho = lindblad_rhs(rho, 1.0, ratio)
            expected = (oracles.liouvillian(ratio) @ np.ravel(rho.matrix)).reshape(2, 2)
            assert np.max(np.abs(drho - expected)) <= 1e-13


class TestEvolve:
    def test_unitary_pi_pulse_flips_ground(self):
        result = evolve(
            PureState.ground().to_density(), math.pi, 0.0
        )
        assert result.final.matrix[1][1].real == pytest.approx(1.0, abs=1e-8)

    def test_zero_area_is_identity(self):
        rho0 = PureState.superposition(1.0, 1j).to_density()
        result = evolve(rho0, 0.0, 0.3)
        assert np.array_equal(result.final.matrix, rho0.matrix)

    @pytest.mark.parametrize("theta", [0.0, 1e-300], ids=["zero", "tiny"])
    def test_final_state_is_the_last_sample(self, theta):
        # rho0 is Hermitian only within the tolerance; both areas read it as
        # its lower-left coherence, 0.2, not as the upper-right 0.2 + 1e-13j
        rho0 = DensityMatrix([[0.6, 0.2 + 1e-13j], [0.2, 0.4]])
        config = IntegratorConfig(sample_count=3)
        result = evolve(rho0, theta, 0.3, config)
        assert result.final.matrix == result.trajectory.states[-1]
        assert abs(result.final.matrix[0][1] - 0.2) < 1e-14

    @pytest.mark.parametrize("config", [IntegratorConfig(), RK4], ids=["exact", "rk4"])
    def test_against_superoperator_exponential(self, config):
        rng = np.random.default_rng(5)
        for theta, ratio in [(math.pi, 1e-3), (math.pi / 2, 0.2), (2.1, 0.8), (5.0, 0.05)]:
            rho0 = random_density(rng)
            got = evolve(rho0, theta, ratio, config).final
            want = oracles.evolve_superop(rho0.matrix, theta, ratio)
            assert np.max(np.abs(got.matrix - want)) <= 1e-9

    def test_excited_population_deficit_first_order(self):
        # 1 - rho_aa(T) = (3 pi / 16) * kappa/g_alpha to first order, here
        # checked at 1% and 0.2% relative for ratios 1e-3 and 1e-4
        rho0 = PureState.ground().to_density()
        for ratio, rel in [(1e-3, 0.01), (1e-4, 0.002)]:
            final = evolve(rho0, math.pi, ratio).final
            deficit = 1.0 - final.matrix[1][1].real
            expected = (3.0 * math.pi / 16.0) * ratio
            assert deficit == pytest.approx(expected, rel=rel)

    def test_trajectory_sampling(self):
        result = evolve(
            PureState.ground().to_density(), math.pi, 0.1, IntegratorConfig(sample_count=16)
        )
        assert len(result.trajectory) == 17
        times = result.trajectory.times
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(math.pi / 2)
        assert all(b > a for a, b in zip(times, times[1:]))
        # every sample is validated when the trajectory is built; spot-check trace
        for m in result.trajectory.states:
            assert abs(np.trace(m) - 1.0) <= 1e-9
        with pytest.raises(TypeError):
            result.trajectory.states[0][0][0] = 1.0


class TestConservationLaws:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_purity_conserved_without_decay(self, seed):
        rng = np.random.default_rng(seed)
        rho0 = random_density(rng)
        theta = float(rng.uniform(0.1, 2 * math.pi))
        final = evolve(rho0, theta, 0.0, RK4).final
        assert abs(final.purity() - rho0.purity()) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_trajectory_invariants(self, seed):
        rng = np.random.default_rng(seed)
        rho0 = random_density(rng)
        theta = float(rng.uniform(0.1, 2 * math.pi))
        ratio = float(rng.uniform(0.0, 1.0))
        config = IntegratorConfig(method=RK4_FIXED, step_count=200, sample_count=8)
        result = evolve(rho0, theta, ratio, config)
        for m in map(np.asarray, result.trajectory.states):
            assert abs(np.trace(m) - 1.0) <= 1e-9
            assert np.max(np.abs(m - m.conj().T)) <= 1e-9
            # DensityMatrix construction already enforces eigenvalues >= -1e-9

    def test_linearity_in_the_initial_state(self):
        rng = np.random.default_rng(23)
        rho1, rho2 = random_density(rng), random_density(rng)
        theta, ratio = 2.5, 0.15
        out1 = np.asarray(evolve(rho1, theta, ratio, RK4).final.matrix)
        out2 = np.asarray(evolve(rho2, theta, ratio, RK4).final.matrix)
        for a in (0.25, 0.5, 0.75):
            mixed = DensityMatrix(a * np.asarray(rho1.matrix) + (1 - a) * np.asarray(rho2.matrix))
            got = evolve(mixed, theta, ratio, RK4).final.matrix
            assert np.max(np.abs(got - (a * out1 + (1 - a) * out2))) <= 1e-8


class TestConvergenceOrder:
    def test_rk4_error_scales_as_h4(self):
        # halving h should shrink the final-state error by ~2^4 against a
        # reference 10x finer than the finer run
        rho0 = PureState.superposition(1.0, 0.6 + 0.2j).to_density()
        theta, ratio = 3 * math.pi / 2, 0.3

        def final_with(steps):
            cfg = IntegratorConfig(method=RK4_FIXED, step_count=steps)
            return np.asarray(evolve(rho0, theta, ratio, cfg).final.matrix)

        reference = final_with(2000)
        err_coarse = np.max(np.abs(final_with(100) - reference))
        err_fine = np.max(np.abs(final_with(200) - reference))
        assert err_fine > 0
        assert 12.0 <= err_coarse / err_fine <= 20.0

    @pytest.mark.parametrize("step_count,samples", [(1000, 2000), (100, 5), (400, 8), (1000, 1)])
    def test_rk4_matches_classical_stepper(self, step_count, samples):
        # one Taylor step matrix per sample interval (k = 1 and k > 1) against
        # a plain RK4 loop on the kron-form superoperator
        rho0 = PureState.superposition(1.0, 0.6 + 0.2j).to_density()
        theta, ratio = 3 * math.pi / 2, 0.3
        config = IntegratorConfig(method=RK4_FIXED, step_count=step_count, sample_count=samples)
        got = evolve(rho0, theta, ratio, config).trajectory.states
        want = oracles.rk4_trajectory(rho0.matrix, theta, ratio, step_count, samples)
        assert np.max(np.abs(got - want)) <= 1e-12


class TestExactPropagator:
    STARTS = {
        "ground": PureState.ground(),
        "excited": PureState.excited(),
        "plus": PureState.superposition(1.0, 1.0),
        "tilted": PureState.superposition(0.3, 0.8 - 0.5j),
    }

    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi, 4 * math.pi])
    def test_final_state_matches_scipy_expm(self, theta):
        # 7.9, 8 and 8.1 bracket the exceptional point of the Bloch generator
        ratios = [0.0, 1e-9, 1e-5, 7.9, 8.0, 8.1, 30.0, 1e3]
        rho0 = PureState.superposition(1.0, 0.6 + 0.2j).to_density()
        for ratio in ratios:
            want = oracles.evolve_superop(rho0.matrix, theta, ratio)
            single = evolve(rho0, theta, ratio).final
            assert np.max(np.abs(single.matrix - want)) <= 1e-12

    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi, 4 * math.pi])
    def test_final_state_matches_50_digit_exponential(self, theta):
        # the closed-form map on both sides of the exceptional point r = 8 and
        # deep in the strongly damped regime, against mpmath on the kron form
        ratios = [0.0, 1e-9, 1e-3, 1.0, 7.9, 8.0 - 1e-6, 8.0, 8.0 + 1e-6, 8.1, 30.0, 1e3, 1e6]
        for start in ("ground", "tilted"):
            rho0 = self.STARTS[start].to_density()
            for ratio in ratios:
                got = evolve(rho0, theta, ratio).final.matrix
                want = oracles.evolve_mp(rho0.matrix, theta, ratio)
                assert np.max(np.abs(got - want)) <= 1e-14, (start, ratio)

    @pytest.mark.parametrize("ratio", [1e6, 1e10, 1e20, 1e200, 1e308])
    def test_large_ratio_reaches_the_steady_state(self, tmp_path, ratio):
        # every transient of a pi pulse decays at least as exp(-pi r / 4), 0 in
        # double precision from r = 1e6, so the final state is the driven
        # steady state, rho_aa = 4 / (8 + r^2) and rho_ab = -2i r / (8 + r^2)
        r = Fraction(ratio)
        rho_aa, im_rho_ab = float(4 / (8 + r * r)), float(-2 * r / (8 + r * r))
        want = [[1.0 - rho_aa, -1j * im_rho_ab], [1j * im_rho_ab, rho_aa]]
        final = evolve(PureState.ground().to_density(), math.pi, ratio).final.matrix
        assert np.max(np.abs(np.subtract(final, want))) <= 1e-15
        if ratio == 1e6:
            want = oracles.evolve_mp(PureState.ground().to_density().matrix, math.pi, ratio)
            assert np.max(np.abs(final - want)) <= 1e-15
        argv = ["simulate", "--ratio", repr(ratio), "--samples", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_OK

    # a sweep is one exact evolve per ratio: the grid around a ratio does not
    # change its p, and the final state is the trajectory's last sample
    @pytest.mark.parametrize("config", [IntegratorConfig()], ids=["exact"])
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, 2.1])
    def test_sweep_equals_single_ratios_bit_for_bit(self, config, theta):
        rates = np.random.default_rng(17).uniform(0.0, 30.0, 16)
        rates[0] = 0.0
        psi0 = PureState.superposition(1.0, 0.6 + 0.2j)
        swept = sweep_failure_probabilities(theta, psi0, rates)
        assert len(swept) == 16
        with pytest.raises(TypeError):
            swept[0] = 1.0
        for rate, p in zip(rates, swept):
            assert p == sweep_failure_probabilities(theta, psi0, [rate])[0]
            result = evolve(psi0.to_density(), theta, rate / 1.7, config)
            assert np.array_equal(result.final.matrix, result.trajectory.states[-1])

    @pytest.mark.parametrize("theta", [math.pi, math.pi / 2], ids=["pi", "pi2"])
    @pytest.mark.parametrize("start", sorted(STARTS))
    def test_no_decay_means_no_failure(self, theta, start):
        assert sweep_failure_probabilities(theta, self.STARTS[start], [0.0])[0] <= 1e-14

    def test_trajectory_applies_one_step_propagator(self):
        rho0 = PureState.excited().to_density()
        config = IntegratorConfig(sample_count=64)
        result = evolve(rho0, 3.0, 0.25, config)
        for t, m in zip(result.trajectory.times, result.trajectory.states):
            # the area reached at time t (in units of 1/g alpha) is Omega_R t = 2 t
            want = oracles.evolve_superop(rho0.matrix, 2.0 * t, 0.25)
            assert np.max(np.abs(m - want)) <= 1e-12
        assert np.array_equal(result.final.matrix, result.trajectory.states[-1])

    def test_non_finite_propagator_is_integration_error(self, tmp_path):
        # kappa/g_alpha * tau = 1.7e308 * pi/2 overflows the generator itself;
        # 1e308 does not, and gives the finite Zeno-limit propagator
        rho0 = PureState.ground().to_density()
        with pytest.raises(IntegrationError):
            evolve(rho0, math.pi, 1.7e308)
        argv = ["simulate", "--ratio", "1.7e308", "--samples", "1", "--out", str(tmp_path / "o")]
        assert main(argv) == EXIT_NUMERIC

    @pytest.mark.parametrize(
        "argv",
        [["simulate", "--method", "rk45_adaptive"], ["sweep", "--rtol", "1e-10"],
         ["compare", "--rtol", "1e-8"]],
        ids=["method", "rtol-sweep", "rtol-compare"],
    )
    def test_cli_rejects_removed_solver_keys(self, tmp_path, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == EXIT_CONFIG


class TestValidation:
    def test_fock_dimension_rejected(self):
        with pytest.raises(InvalidStateError, match="expected a 2x2 matrix"):
            evolve(DensityMatrix(np.eye(4) / 4), math.pi, 0.0)
