import itertools
import math
import re
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from lasergate import lindblad
from lasergate.cli import START_STATES
from lasergate.gates import coefficients, sweep_failure_probabilities
from lasergate.lindblad import EXACT, MAX_RATIO, MAX_THETA, RK4_FIXED, evolve
from lasergate.qcore import BLOCH_SLACK, InvalidStateError
from oracles import bloch_density, sample_matrices

GROUND, EXCITED = START_STATES["ground"], START_STATES["excited"]
# a pure start off every axis: its amplitudes, and its Bloch vector
TILTED_AMPLITUDES = np.array([1.0, 0.6 + 0.2j]) / math.hypot(1.0, 0.6, 0.2)
TILTED = oracles.pure_bloch(TILTED_AMPLITUDES)


def random_bloch(rng: np.random.Generator) -> tuple:
    """The Bloch vector of a random mixed state, from a Ginibre matrix."""
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    m = g @ g.conj().T
    return oracles.density_bloch(m / np.trace(m))


def in_the_ball(s0) -> bool:
    """Whether ``evolve`` takes ``s0`` as a start."""
    return math.hypot(*s0) <= 1.0 + BLOCH_SLACK


def final_matrix(s0, theta: float, ratio: float) -> np.ndarray:
    """The final state of ``evolve``, its trajectory's last sample, as a 2x2 matrix."""
    return sample_matrices(evolve(s0, theta, ratio))[-1]


def rk4(s0, theta: float, ratio: float, samples: int = 1, steps: int = 400):
    """``evolve`` by ``rk4_fixed`` with ``steps`` RK4 steps per pulse."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "RK4_STEPS", steps)
        return evolve(s0, theta, ratio, samples, RK4_FIXED)


def ground_trajectory(theta: float):
    """16-sample trajectory of the ground state through a pulse of area
    ``theta``, without decay."""
    return evolve(GROUND, theta, 0.0, samples=16)


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
        assert np.max(np.abs(sample_matrices(traj)[:, 1, 1].real - want)) <= 1e-12

    # the counts are refused, samples first, then method, as InvalidStateError
    # rather than a TypeError from range or from the stepper
    @pytest.mark.parametrize("keywords,message", [
        ({"samples": 2.5}, "samples must be an integer, got 2.5"),
        ({"samples": math.nan}, "samples must be an integer, got nan"),
        ({"samples": 2.0}, "samples must be an integer, got 2.0"),
        ({"samples": "3"}, "samples must be an integer, got '3'"),
        ({"samples": 2.5, "method": "bogus"}, "samples must be an integer, got 2.5"),
        ({"method": "bogus"}, "unknown integrator method 'bogus'"),
        ({"samples": 0, "method": RK4_FIXED}, "samples must be >= 1"),
    ], ids=["samples-half", "samples-nan", "samples-float", "samples-text",
            "samples-before-method", "method-before-pulse", "samples-before-rk4"])
    def test_non_integer_counts_are_refused(self, keywords, message):
        with pytest.raises(InvalidStateError, match=re.escape(message)):
            evolve((0.0, 0.0, -1.0), 1.0, 0.1, **keywords)

    def test_integer_counts_of_any_type_are_read(self):
        # numpy integers are integers
        s0 = GROUND
        want = evolve(s0, 1.0, 0.1, samples=3, method=RK4_FIXED)
        assert evolve(s0, 1.0, 0.1, samples=np.int64(3), method=RK4_FIXED) == want

class TestEvolve:
    # at theta 0 the step is 0, so each segment's map is the identity, up to
    # MAX_RATIO, where rk4_fixed's N^2 is at its greatest (6.25e298)
    @given(start=st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(in_the_ball),
           ratio=st.one_of(st.floats(0.0, MAX_RATIO), st.sampled_from([0.0, 8.0, MAX_RATIO])),
           method=st.sampled_from([EXACT, RK4_FIXED]), samples=st.sampled_from([1, 2, 7, 64]),
           theta=st.sampled_from([0.0, -0.0]))
    @settings(max_examples=200, deadline=None)
    @example(start=GROUND, ratio=0.0, method=EXACT, samples=16, theta=0.0)
    @example(start=(0.0, 1.0, 0.0), ratio=0.3, method=EXACT, samples=1, theta=0.0)
    @example(start=(0.0, 1.0, 0.0), ratio=1e20, method=EXACT, samples=1, theta=0.0)
    @example(start=(0.0, 1.0, 0.0), ratio=MAX_RATIO, method=EXACT, samples=1, theta=0.0)
    @example(start=(0.0, 1.0, 0.0), ratio=0.3, method=RK4_FIXED, samples=1, theta=0.0)
    @example(start=(0.0, 1.0, 0.0), ratio=1e20, method=RK4_FIXED, samples=1, theta=0.0)
    @example(start=(0.0, 1.0, 0.0), ratio=MAX_RATIO, method=RK4_FIXED, samples=1, theta=0.0)
    def test_zero_area_returns_the_start_at_every_sample(self, start, ratio, method, samples,
                                                         theta):
        trajectory = evolve(start, theta, ratio, samples, method)
        # every time is +0.0, at theta = -0.0 too, so the CSV prints no "-0"
        signs = [(t, math.copysign(1.0, t)) for t in trajectory.times]
        assert signs == [(0.0, 1.0)] * (samples + 1)
        assert list(zip(trajectory.x, trajectory.y, trajectory.z)) == [start] * (samples + 1)

    @pytest.mark.parametrize("theta", [0.0, 1e-300], ids=["zero", "tiny"])
    def test_final_state_is_the_last_sample(self, theta):
        # the final state is the last of the samples + 1 samples; at
        # both areas it is the mixed start ((0.6, 0.2), (0.2, 0.4))
        trajectory = evolve((0.4, 0.0, -0.2), theta, 0.3, samples=3)
        assert len(trajectory.times) == 4 and trajectory.times[-1] == theta / 2.0
        final = sample_matrices(trajectory)[-1]
        assert np.max(np.abs(final - [[0.6, 0.2], [0.2, 0.4]])) < 1e-14

    @pytest.mark.parametrize("propagate", [evolve, rk4], ids=["exact", "rk4"])
    def test_against_superoperator_exponential(self, propagate):
        rng = np.random.default_rng(5)
        for theta, ratio in [(math.pi, 1e-3), (math.pi / 2, 0.2), (2.1, 0.8), (5.0, 0.05)]:
            s0 = random_bloch(rng)
            got = sample_matrices(propagate(s0, theta, ratio))[-1]
            want = oracles.evolve_superop(bloch_density(s0), theta, ratio)
            assert np.max(np.abs(got - want)) <= 1e-9

    def test_trajectory_sampling(self):
        trajectory = evolve(GROUND, math.pi, 0.1, samples=16)
        assert len(trajectory.times) == 17
        times = trajectory.times
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(math.pi / 2)
        assert all(b > a for a, b in zip(times, times[1:]))
        # every sample is validated when the trajectory is built; spot-check trace
        for m in sample_matrices(trajectory):
            assert abs(np.trace(m) - 1.0) <= 1e-9
        with pytest.raises(TypeError):
            trajectory.z[0] = 1.0


class TestConservationLaws:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_purity_conserved_without_decay(self, seed):
        rng = np.random.default_rng(seed)
        s0 = random_bloch(rng)
        theta = float(rng.uniform(0.1, 2 * math.pi))
        final = sample_matrices(rk4(s0, theta, 0.0))[-1]
        start = bloch_density(s0)
        assert abs(np.trace(final @ final) - np.trace(start @ start)) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_trajectory_invariants(self, seed):
        rng = np.random.default_rng(seed)
        s0 = random_bloch(rng)
        theta = float(rng.uniform(0.1, 2 * math.pi))
        ratio = float(rng.uniform(0.0, 1.0))
        for m in sample_matrices(rk4(s0, theta, ratio, 8, steps=200)):
            assert abs(np.trace(m) - 1.0) <= 1e-9
            assert np.linalg.eigvalsh(m)[0] >= -1e-9

    def test_linearity_in_the_initial_state(self):
        rng = np.random.default_rng(23)
        s1, s2 = random_bloch(rng), random_bloch(rng)
        theta, ratio = 2.5, 0.15
        out1, out2 = (sample_matrices(rk4(s, theta, ratio))[-1] for s in (s1, s2))
        for a in (0.25, 0.5, 0.75):
            mixed = a * np.asarray(s1) + (1 - a) * np.asarray(s2)
            got = sample_matrices(rk4(mixed, theta, ratio))[-1]
            assert np.max(np.abs(got - (a * out1 + (1 - a) * out2))) <= 1e-8


class TestConvergenceOrder:
    # ratio 0 has the steady state w* = 0, and 8 is the exceptional point,
    # where N^2 = 0
    @pytest.mark.parametrize("steps,samples,ratio", [
        (1000, 2000, 0.3), (100, 5, 0.3), (400, 8, 0.3), (1000, 1, 0.3),
        (400, 8, 0.0), (400, 8, 8.0), (400, 8, 30.0),
    ], ids=["1000-2000", "100-5", "400-8", "1000-1", "ratio-0", "ratio-8", "ratio-30"])
    def test_rk4_matches_classical_stepper(self, steps, samples, ratio):
        # one RK4 increment per sample interval (k = 1 and k > 1) against
        # a plain RK4 loop on the kron-form superoperator
        s0 = TILTED
        theta = 3 * math.pi / 2
        got = sample_matrices(rk4(s0, theta, ratio, samples, steps))
        want = oracles.rk4_trajectory(bloch_density(s0), theta, ratio, steps, samples)
        assert np.max(np.abs(got - want)) <= 1e-12

    @pytest.mark.parametrize("ratio", [0.0, 0.3, 8.0, 30.0])
    @pytest.mark.parametrize("steps,samples", [(100, 100), (400, 8)], ids=["k-1", "k-50"])
    def test_rk4_samples_are_the_40_digit_rk4_map_applied(self, steps, samples, ratio):
        # each sample is the previous one moved by the map of k RK4 steps; with
        # that map and its application in 40 digits, only rounding is left
        s0 = TILTED
        theta = 3 * math.pi / 2
        got = sample_matrices(rk4(s0, theta, ratio, samples, steps))
        got = got.reshape(-1, 4)
        step = oracles.rk4_map_mp(ratio, theta / 2.0 / samples, -(-steps // samples))
        with mpmath.workdps(40):
            x, y, z = map(mpmath.mpf, s0)
            rho = mpmath.matrix([(1 - z) / 2, (x - 1j * y) / 2, (x + 1j * y) / 2, (1 + z) / 2])
            for i, sample in enumerate(got):
                error = max(abs(mpmath.mpc(complex(v)) - rho[j]) for j, v in enumerate(sample))
                assert error <= 1e-15, i
                rho = step * rho


class TestExactPropagator:
    STARTS = {
        "ground": GROUND,
        "tilted": TILTED,
        "off-axis": oracles.pure_bloch((0.3, 0.8 - 0.5j)),
    }

    @pytest.mark.parametrize("theta", [math.pi / 2, math.pi, 4 * math.pi])
    def test_final_state_matches_50_digit_exponential(self, theta):
        # the closed-form map on both sides of the exceptional point r = 8 and
        # deep in the strongly damped regime, against mpmath on the kron form
        ratios = [0.0, 1e-9, 1e-5, 1e-3, 1.0, 7.9, 8.0 - 1e-6, 8.0, 8.0 + 1e-6, 8.1, 30.0, 1e3,
                  1e6]
        for start, s0 in self.STARTS.items():
            for ratio in ratios:
                got = final_matrix(s0, theta, ratio)
                want = oracles.evolve_mp(bloch_density(s0), theta, ratio)
                assert np.max(np.abs(got - want)) <= 1e-14, (start, ratio)

    @pytest.mark.parametrize("ratio", [1e6, 1e10, 1e20, 1e100, MAX_RATIO])
    def test_large_ratio_reaches_the_steady_state(self, ratio):
        # every transient of a pi pulse decays at least as exp(-pi r / 4), 0 in
        # double precision from r = 1e6, so the final state is the driven
        # steady state, rho_aa = 4 / (8 + r^2) and rho_ab = -2i r / (8 + r^2)
        r = Fraction(ratio)
        rho_aa, im_rho_ab = float(4 / (8 + r * r)), float(-2 * r / (8 + r * r))
        want = [[1.0 - rho_aa, -1j * im_rho_ab], [1j * im_rho_ab, rho_aa]]
        final = final_matrix(GROUND, math.pi, ratio)
        assert np.max(np.abs(np.subtract(final, want))) <= 1e-15
        if ratio == 1e6:
            want = oracles.evolve_mp(bloch_density(GROUND), math.pi, ratio)
            assert np.max(np.abs(final - want)) <= 1e-15

    # a sweep reads each ratio's p from that ratio's map alone, so the grid
    # around it does not change it, and p is the final state's population
    # orthogonal to the oracle's decay-free output
    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, 2.1])
    def test_sweep_equals_single_ratios_bit_for_bit(self, theta):
        rates = np.random.default_rng(17).uniform(0.0, 30.0, 16)
        rates[0] = 0.0
        swept = sweep_failure_probabilities(theta, TILTED, rates)
        assert len(swept) == 16
        with pytest.raises(TypeError):
            swept[0] = 1.0
        target = oracles.ideal_state(TILTED_AMPLITUDES, theta)
        perp = np.array([-np.conj(target[1]), np.conj(target[0])])
        for rate, p in zip(rates, swept):
            assert p == sweep_failure_probabilities(theta, TILTED, [rate])[0]
            final = final_matrix(TILTED, theta, rate)
            assert abs(p - np.vdot(perp, final @ perp).real) <= 1e-15

    def test_trajectory_applies_one_step_propagator(self):
        s0 = EXCITED
        trajectory = evolve(s0, 3.0, 0.25, samples=64)
        for t, m in zip(trajectory.times, sample_matrices(trajectory)):
            # the area reached at time t (in units of 1/g alpha) is Omega_R t = 2 t
            want = oracles.evolve_superop(bloch_density(s0), 2.0 * t, 0.25)
            assert np.max(np.abs(m - want)) <= 1e-12

    def test_ratio_past_max_ratio_is_refused_at_any_samples(self):
        # at 1e200 rk4_fixed's N^2 = (q - 2)(q + 2) is inf, whatever the step:
        # the ratio is refused before either map is formed, at any sample count
        for method, samples in itertools.product((EXACT, RK4_FIXED), (1, 200)):
            with pytest.raises(InvalidStateError,
                               match=r"^kappa/g_alpha must be in \[0, 1e\+150\], got 1e\+200$"):
                evolve(GROUND, math.pi, 1e200, samples, method)

    def test_a_short_rk4_pulse_at_max_ratio_runs(self):
        # r h = 1e150 * 5e-304: far inside RK4's stable region, and N^2 =
        # 6.25e298 is a double, so the pulse leaves the start where it was
        trajectory = evolve(GROUND, 1e-300, MAX_RATIO, 1, RK4_FIXED)
        assert trajectory.z == (-1.0, -1.0)

    @pytest.mark.parametrize("start", sorted(START_STATES))
    def test_the_greatest_pulse_runs_in_one_segment(self, start):
        # theta = MAX_THETA and kappa/g_alpha = MAX_RATIO in one segment: r * tau
        # = 5e153, the largest product the ranges allow.  Every transient has
        # decayed, so the pulse ends in the driven steady state, the ground
        # state to double precision
        s0 = START_STATES[start]
        trajectory = evolve(s0, MAX_THETA, MAX_RATIO, samples=1)
        columns = (trajectory.x, trajectory.y, trajectory.z)
        assert all(map(math.isfinite, itertools.chain(*columns)))
        assert max(map(math.hypot, *columns)) <= 1.0
        assert trajectory.x[-1] == 0.0
        assert trajectory.y[-1] == pytest.approx(-4.0 / MAX_RATIO, rel=1e-15)
        assert trajectory.z[-1] == pytest.approx(-1.0, abs=2e-16)
        (p,) = sweep_failure_probabilities(MAX_THETA, s0, [MAX_RATIO])
        assert 0.0 <= p <= 1.0

    def test_the_next_double_past_each_greatest_is_refused(self):
        past_theta, past_ratio = (math.nextafter(v, math.inf) for v in (MAX_THETA, MAX_RATIO))
        theta_refusal = re.escape(f"theta must be in [0, 10000], got {past_theta}")
        ratio_refusal = re.escape(f"kappa/g_alpha must be in [0, 1e+150], got {past_ratio}")
        for call, message in [(lambda: evolve(GROUND, past_theta, 0.0), theta_refusal),
                              (lambda: evolve(GROUND, MAX_THETA, past_ratio), ratio_refusal),
                              (lambda: sweep_failure_probabilities(past_theta, GROUND, []),
                               theta_refusal),
                              (lambda: sweep_failure_probabilities(MAX_THETA, GROUND,
                                                                   [MAX_RATIO, past_ratio]),
                               ratio_refusal),
                              (lambda: coefficients(((past_theta, 0.0),), GROUND),
                               theta_refusal)]:
            with pytest.raises(InvalidStateError, match=f"^{message}$"):
                call()


class TestValidation:
    @pytest.mark.parametrize("s0", [
        (0.0, 0.0, 1.0 + 4 * BLOCH_SLACK), (0.6, 0.8, 0.1), (2.0, 0.0, 0.0),
        (math.nan, 0.0, 0.0), (0.0, math.nan, 0.0), (0.0, 0.0, math.nan),
        (0.0, 0.0, 0.0, 0.0), ("x", 0.0, 0.0), (1j, 0.0, 0.0),
    ], ids=["past-slack", "outside", "far-outside", "nan-x", "nan-y", "nan-z", "length-4",
            "text", "complex"])
    def test_start_that_is_not_a_bloch_vector_is_refused(self, s0):
        with pytest.raises(InvalidStateError):
            evolve(s0, math.pi, 0.0)

    def test_start_on_the_surface_within_the_slack_is_accepted(self):
        trajectory = evolve((0.0, 0.0, 1.0 + BLOCH_SLACK / 4), math.pi, 0.0)
        assert trajectory.z[-1] == pytest.approx(-1.0, abs=2e-9)

    @pytest.mark.parametrize("ratio", [1e-3, 30.0])
    def test_mixed_start_matches_50_digit_exponential(self, ratio):
        s0 = (0.2, -0.4, 0.4)  # |s| = 0.6
        want = oracles.evolve_mp(bloch_density(s0), math.pi, ratio)
        assert np.max(np.abs(final_matrix(s0, math.pi, ratio) - want)) <= 1e-14
