import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import oracles
from lasergate import gates, lindblad
from lasergate.budget import pi_pulse_budget
from lasergate.cli import GATE_AREAS, START_STATES
from lasergate.gates import coefficients, ratio_grid, sweep_failure_probabilities
from lasergate.jc import jc_gate_error
from lasergate.lindblad import RK4_FIXED, _apply, _propagator, evolve
from lasergate.qcore import InvalidStateError, _amplitudes, logspace
from oracles import density_bloch, sample_matrices

# the Bloch vectors of the named starts
GROUND, EXCITED, PLUS = (START_STATES[name] for name in ("ground", "excited", "plus"))

# (theta, s0) of the three gates the paper quotes
PI_FROM_GROUND = (math.pi, GROUND)
HALF_FROM_GROUND = (math.pi / 2, GROUND)
HALF_FROM_EXCITED = (math.pi / 2, EXCITED)

# First-order slopes of p versus kappa/g_alpha, in closed form from the
# toggling-frame integrals (sin^4 / cos^4 over the pulse):
#   pi   from ground:  3 pi/16
#   pi/2 from ground:  3 pi/32 - 1/4
#   pi/2 from excited: 3 pi/32 + 1/4
SLOPE_PI_GROUND = 3 * math.pi / 16
SLOPE_HALF_GROUND = 3 * math.pi / 32 - 0.25
SLOPE_HALF_EXCITED = 3 * math.pi / 32 + 0.25

# The five (gate, start) cases of the coefficient-table benchmark workload.
TABLE_CASES = [("pi", "ground"), ("pi", "excited"), ("pi", "plus"),
               ("pi2", "ground"), ("pi2", "excited")]

# The perturbative sweep grid of the README's coefficient table.
SWEEP_GRID = logspace(-5.0, -3.0, 8)


def _no_grid(*args):
    raise AssertionError("a sweep grid was formed from refused inputs")


# The exact failure probability of a pi pulse from ground at ratio 1e-3,
# frozen from the superoperator exponential in oracles.py.
P_PI_GROUND_1E3 = 5.888267114796e-04


def square_c(theta: float, s0) -> float:
    """c of one square pulse of area ``theta`` from ``s0``, read from its record."""
    return coefficients(((theta, 0.0),), s0).c


class TestFailureProbability:
    def test_monotone_in_decay(self):
        ratios = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5]
        ps = sweep_failure_probabilities(*PI_FROM_GROUND, ratios)
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_every_ratio_is_checked_before_any_pulse(self, monkeypatch):
        # the first ratio past MAX_RATIO, the next double after it, is named,
        # and no map is formed, not even that of the good ratio before it
        calls = []
        monkeypatch.setattr(gates, "_propagator", lambda *args: calls.append(args))
        with pytest.raises(InvalidStateError, match=r"^kappa/g_alpha must be in \[0, 1e\+150\],"
                                                    r" got 1\.0000000000000002e\+150$"):
            sweep_failure_probabilities(*PI_FROM_GROUND, [1e-3, math.nextafter(1e150, math.inf),
                                                          1.7e308, math.inf])
        assert calls == []

    @pytest.mark.parametrize("bad", [math.nan, -1e-3, math.inf])
    def test_bad_last_ratio_is_refused_before_any_evolve(self, monkeypatch, bad):
        # no pulse map is formed for a grid with a bad ratio anywhere in it
        calls = []

        def counting_propagator(*args):
            calls.append(args)
            return _propagator(*args)

        monkeypatch.setattr(gates, "_propagator", counting_propagator)
        with pytest.raises(InvalidStateError, match=r"kappa/g_alpha must be in \[0, 1e\+150\]"):
            sweep_failure_probabilities(*PI_FROM_GROUND, [0.0, 1e-4, 1e-3, bad])
        assert calls == []
        sweep_failure_probabilities(*PI_FROM_GROUND, [0.0, 1e-4])
        assert len(calls) == 2

    def test_rk4_and_exact_agree(self, monkeypatch):
        # the exact p against an independent 2000-step RK4 run of the same pulse
        theta, s0 = HALF_FROM_EXCITED
        monkeypatch.setattr(lindblad, "RK4_STEPS", 2000)
        final = sample_matrices(evolve(s0, theta, 1e-3, method=RK4_FIXED))[-1]
        target = oracles.ideal_state(oracles.EXCITED, theta)
        rk4 = 1.0 - np.vdot(target, final @ target).real
        (p,) = sweep_failure_probabilities(*HALF_FROM_EXCITED, [1e-3])
        assert p == pytest.approx(rk4, abs=1e-9)


def oracle_starts() -> dict:
    """Pure starts for the oracle bounds, as (Bloch vector, amplitudes): the
    four named ones and two random."""
    starts = {name: (s0, oracles.STARTS[name]) for name, s0 in START_STATES.items()}
    starts["plus-i"] = ((0.0, 1.0, 0.0), np.array([1.0, 1.0j]) / math.sqrt(2.0))
    rng = np.random.default_rng(28)
    for i in range(2):
        amplitudes = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = amplitudes / np.linalg.norm(amplitudes)
        starts[f"random-{i}"] = (oracles.pure_bloch(psi), psi)
    return starts


ORACLE_STARTS = oracle_starts()

# kappa/g_alpha from 1e-14 to just below the exceptional point r = 8, log-spaced
ORACLE_RATIOS = logspace(-14.0, math.log10(7.9), 12)


class TestAgainstMultiprecision:
    @pytest.mark.parametrize("gate, start", TABLE_CASES)
    def test_sweep_is_within_roundoff_of_40_digit_expm(self, gate, start):
        theta = GATE_AREAS[gate]
        got = sweep_failure_probabilities(theta, START_STATES[start], SWEEP_GRID)
        for ratio, p in zip(SWEEP_GRID, got):
            want = oracles.failure_mp(oracles.STARTS[start], theta, ratio)
            assert abs(float(p - want)) <= 1e-15

    @pytest.mark.parametrize("theta", [0.5, 0.7, math.pi / 2, math.pi, 2 * math.pi, 4 * math.pi])
    def test_p_is_relatively_exact_down_to_the_smallest_ratio(self, theta):
        # p is read from the deviation of the map, so it keeps its relative
        # precision as it falls with the ratio, 1e-14 included
        for name, (s0, psi) in ORACLE_STARTS.items():
            got = sweep_failure_probabilities(theta, s0, ORACLE_RATIOS)
            for ratio, p in zip(ORACLE_RATIOS, got):
                want = float(oracles.failure_mp(psi, theta, ratio))
                assert abs(p - want) <= 1e-13 * want, (name, ratio)

    @pytest.mark.parametrize("theta", [1e-3, 1e-2, 0.1, 0.3, math.pi, 4 * math.pi])
    def test_short_pulses_and_strong_decay(self, theta):
        # a short pulse from the ground state fails with p ~ ratio theta^5 / 160,
        # so an absolute 2e-16 is allowed; above r = 8 the map is hyperbolic
        ratios = (*(ORACLE_RATIOS[::3] if theta < 0.5 else ()), 8.0, 8.5, 30.0)
        for name, (s0, psi) in ORACLE_STARTS.items():
            got = sweep_failure_probabilities(theta, s0, ratios)
            for ratio, p in zip(ratios, got):
                want = float(oracles.failure_mp(psi, theta, ratio))
                assert abs(p - want) <= max(1e-13 * want, 2e-16), (name, ratio)

    @pytest.mark.parametrize("theta", [1e-3, 1e-2, 0.1, 0.3, 0.5, 1.0, 1.9])
    def test_short_pulses_below_the_exceptional_point(self, theta):
        # from r = 4 to 8, D is E - R but for g, which a pulse with r tau < 1
        # takes from the series, so p keeps its relative precision there too
        ratios = (3.9, 4.0, 4.5, 5.0, 6.0, 7.0, 7.5, 7.9, 7.99)
        for name, (s0, psi) in ORACLE_STARTS.items():
            got = sweep_failure_probabilities(theta, s0, ratios)
            for ratio, p in zip(ratios, got):
                want = float(oracles.failure_mp(psi, theta, ratio))
                assert abs(p - want) <= 2e-12 * want, (name, ratio)

    def test_no_decay_is_positive_zero(self):
        off_axis = oracles.pure_bloch((0.3, 0.8 - 0.5j))
        starts = [*(s0 for s0, _ in ORACLE_STARTS.values()), off_axis]
        for theta in (0.0, 0.5, math.pi / 2, math.pi, 11.0):
            for s0 in starts:
                (p,) = sweep_failure_probabilities(theta, s0, [0.0])
                assert p == 0.0 and math.copysign(1.0, p) == 1.0

    @pytest.mark.parametrize("gate, c_prime", [
        ("pi", oracles.PI_PULSE_PHOTON_COEFFICIENT),
        ("pi2", (3 * math.pi / 32 - 0.25) * math.pi / 4),
    ])
    def test_markov_photon_coefficient_is_approached_as_one_over_nbar(self, gate, c_prime):
        # p nbar = c'_M + b / nbar + O(1/nbar^2) from the ground state, with b
        # read at nbar = 1e6; the gap to c'_M shrinks as b / nbar up to 1e14
        assert f"{oracles.PI_PULSE_PHOTON_COEFFICIENT:.11e}" == "9.25275412602e-01"
        assert f"{(3 * math.pi / 32 - 0.25) * math.pi / 4:.11e}" == "3.49693123012e-02"
        theta = GATE_AREAS[gate]
        n_bars = [10.0 ** k for k in range(6, 15)]
        ps = sweep_failure_probabilities(theta, GROUND, [theta / (2 * n) for n in n_bars])
        b = (ps[0] * n_bars[0] - c_prime) * n_bars[0]
        for n_bar, p in zip(n_bars, ps):
            gap = p * n_bar - c_prime
            assert abs(gap - b / n_bar) <= 1e-6 * abs(b) / n_bar + 2e-15 * c_prime, n_bar


class TestOneClosedForm:
    """A trajectory and a gate error come from one map, E = R + D."""

    def test_final_state_is_the_ideal_output_plus_the_deviation(self):
        rng = np.random.default_rng(2802)
        for _ in range(200):
            theta, ratio = rng.uniform(0.0, 4 * math.pi), 10.0 ** rng.uniform(-14.0, 1.5)
            amplitudes = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi = amplitudes / np.linalg.norm(amplitudes)
            # s_0 rotated by theta about x: the oracle's decay-free output, read
            # with cos theta and sin theta rather than its half-angle products
            x, y, z = oracles.pure_bloch(psi)
            rotation = np.array([[1.0, 0.0, 0.0], [0.0, np.cos(theta), np.sin(theta)],
                                 [0.0, -np.sin(theta), np.cos(theta)]])
            ideal = rotation @ (x, y, z)
            target = oracles.ideal_state(psi, theta)
            bloch_target = density_bloch(np.outer(target, target.conj()))
            assert np.max(np.abs(ideal - bloch_target)) <= (2.0 + theta) * 2.2e-16
            delta = _apply(_propagator(ratio, theta / 2.0)[1], x, y, 1.0 + z)
            trajectory = evolve((x, y, z), theta, ratio)
            final = np.array([trajectory.x[-1], trajectory.y[-1], trajectory.z[-1]])
            assert np.max(np.abs(final - (ideal + delta))) <= 1e-15, (theta, ratio)
            (p,) = sweep_failure_probabilities(theta, (x, y, z), [ratio])
            assert abs((1.0 - ideal @ final) / 2.0 - p) <= 1e-15, (theta, ratio)


class TestDecayFreeOutput:
    # the decay-free output exp(-i theta sigma_x / 2) |psi0> that p is measured
    # against, from the oracle: the package's decay-free pulse reaches it
    @staticmethod
    def decay_free_output(theta):
        target = oracles.ideal_state(oracles.GROUND, theta)
        final = sample_matrices(evolve(GROUND, theta, 0.0))[-1]
        assert np.max(np.abs(final - np.outer(target, target.conj()))) <= 1e-15
        return target

    def test_pi_from_ground_targets_excited(self):
        assert abs(self.decay_free_output(math.pi)[1]) == pytest.approx(1.0)

    def test_half_pulse_makes_equal_superposition(self):
        target = self.decay_free_output(math.pi / 2)
        assert abs(target[0]) == pytest.approx(1 / math.sqrt(2))
        assert abs(target[1]) == pytest.approx(1 / math.sqrt(2))


class TestSlopeAndRatioGrid:
    """The first-order coefficient c in closed form, its photon form, and the
    ratio grid a sweep accepts."""

    def test_closed_form_matches_quadrature(self):
        # the benchmark's five gates, then 40 random (theta, s0, psi0)
        cases = [(GATE_AREAS[gate], START_STATES[start], oracles.STARTS[start])
                 for gate, start in TABLE_CASES]
        rng = np.random.default_rng(2002)
        for _ in range(40):
            psi0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            psi0 = psi0 / np.linalg.norm(psi0)
            cases.append((rng.uniform(0.1, 4 * math.pi), oracles.pure_bloch(psi0), psi0))
        for theta, s0, psi0 in cases:
            got = square_c(theta, s0)
            assert got == pytest.approx(oracles.first_order_coefficient(psi0, theta), rel=1e-13)

    @pytest.mark.parametrize("gate, start", TABLE_CASES)
    def test_dynamics_approach_the_closed_form(self, gate, start):
        # p/r - c is the second-order term: measured (p/r - c)/(r c) lies in
        # [-0.81, 0.07] on these cases
        theta, psi = GATE_AREAS[gate], START_STATES[start]
        c = square_c(theta, psi)
        ratios = (1e-6, 1e-5, 1e-4)
        for ratio, p in zip(ratios, sweep_failure_probabilities(theta, psi, ratios)):
            assert abs(p / ratio - c) <= ratio * c

    def test_photon_conversion_is_half_theta(self):
        # a budget's pi pulse has kappa / g_alpha = 2 kappa / Omega_R = theta / (2 nbar),
        # so p = c * kappa / g_alpha is c' / nbar with c' = c * theta / 2
        report = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5)
        ratio = 2 * report.kappa_per_s / report.rabi_frequency_rad_per_s
        assert ratio == pytest.approx(math.pi / (2 * report.n_bar), rel=1e-12)
        c = square_c(*PI_FROM_GROUND)
        assert c * ratio == pytest.approx(c * math.pi / 2 / report.n_bar, rel=1e-12)

    def test_pointwise_slopes_stay_within_two_percent(self):
        ps = sweep_failure_probabilities(*PI_FROM_GROUND, SWEEP_GRID)
        slopes = np.asarray(ps) / np.asarray(SWEEP_GRID)
        assert np.max(np.abs(slopes - SLOPE_PI_GROUND)) <= 0.02 * SLOPE_PI_GROUND

    def test_grid_validation(self):
        with pytest.raises(InvalidStateError, match="at least 4"):
            ratio_grid(1e-4, 1e-3, 2)
        with pytest.raises(InvalidStateError, match="perturbative"):
            ratio_grid(1e-4, 1e-1, 4)
        with pytest.raises(InvalidStateError, match="increasing"):
            ratio_grid(1e-3, 1e-6, 4)
        with pytest.raises(InvalidStateError, match="points must be an integer, got 4.0"):
            ratio_grid(1e-4, 1e-3, 4.0)
        assert ratio_grid(1e-10, 1e-2, 5) == (1e-10, 1e-8, 1e-6, 1e-4, 1e-2)
        # the least ratio 1e-300 is taken; the next double below it, the
        # smallest normal double and a subnormal one are refused
        assert ratio_grid(1e-300, 1e-2, 4)[0] == 1e-300
        for small in (math.nextafter(1e-300, 0.0), sys.float_info.min, 5e-324):
            with pytest.raises(InvalidStateError,
                               match=re.escape(f"ratio {small} is below the least sweep ratio"
                                               " 1e-300")):
                ratio_grid(small, 1e-2, 4)

    @given(least=st.floats(1e-300, 1e-2), greatest=st.floats(1e-300, 1e-2),
           ulps=st.one_of(st.none(), st.integers(1, 64)), points=st.integers(4, 200))
    @settings(max_examples=300, deadline=None)
    def test_grid_is_the_logspace_of_its_ends_or_refused(self, least, greatest, ulps, points):
        # ends drawn freely, or a few ulps apart, where rounding can make two
        # neighbours equal: the grid is logspace of the ends, every ratio in
        # [1e-300, 1e-2], or it is refused as not strictly increasing
        if ulps is not None:
            greatest = least
            for _ in range(ulps):
                greatest = math.nextafter(greatest, 1e-2)
        try:
            ratios = ratio_grid(least, greatest, points)
        except InvalidStateError as exc:
            assert str(exc).startswith("sweep ratios must be strictly increasing, got ")
            return
        assert ratios == logspace(math.log10(least), math.log10(greatest), points)
        assert all(1e-300 <= ratio <= 1e-2 for ratio in ratios)
        assert all(a < b for a, b in zip(ratios, ratios[1:]))

    @pytest.mark.parametrize("gate, start", TABLE_CASES)
    def test_tiny_ratios_resolve_the_coefficient(self, gate, start):
        # no grid is too small to resolve: at 1e-14 .. 1e-12, p/ratio is c to
        # within the second-order term (at most 1e-12 c) and p's rounding
        ratios = ratio_grid(1e-14, 1e-12, 8)
        theta, psi = GATE_AREAS[gate], START_STATES[start]
        c = square_c(theta, psi)
        for ratio, p in zip(ratios, sweep_failure_probabilities(theta, psi, ratios)):
            assert abs(p / ratio - c) <= 1e-10 * c

    # the grid is given by its ends, so a NaN can stand only at one of them
    @pytest.mark.parametrize("least, greatest", [
        (math.nan, 1e-2), (1e-5, math.nan), (1e-5, math.inf), (-math.inf, 1e-2),
    ], ids=["nan-first", "nan-last", "inf", "minus-inf"])
    def test_grid_refuses_non_finite_ends(self, monkeypatch, least, greatest):
        monkeypatch.setattr(gates, "logspace", _no_grid)
        with pytest.raises(InvalidStateError):
            ratio_grid(least, greatest, 8)


def bb1(theta: float) -> tuple:
    """The BB1 sequence of area theta (Wimperis 1994): theta at phase 0, then
    pi at phi_1, 2 pi at 3 phi_1 and pi at phi_1, phi_1 = arccos(-theta / (4 pi))."""
    phi_1 = math.acos(-theta / (4.0 * math.pi))
    return (theta, 0.0), (math.pi, phi_1), (2.0 * math.pi, 3.0 * phi_1), (math.pi, phi_1)


# the six axis states +-x, +-y, +-z
SIX_STATES = [(1.0, 0.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, -1.0, 0.0),
              (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]

# a sequence that no phase mirror phi -> -phi maps to itself, and a start off
# every axis, where the sign of phi in the error amplitude shows
ASYMMETRIC = ((math.pi / 2, 0.0), (1.1, 0.7), (0.6, -2.0))
TILTED = (0.48, 0.6, -0.64)

unit_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda v: math.hypot(*v) > 0.1).map(lambda v: tuple(c / math.hypot(*v) for c in v))
segment_lists = st.lists(st.tuples(st.floats(0.01, 2 * math.pi), st.floats(-math.pi, math.pi)),
                         min_size=1, max_size=4)


def assert_chain(segments, s0):
    # c'_JC <= c'_shaped <= c'_markov, up to rounding: each integral sums terms
    # as large as the area, so near an equality, where a start on the great
    # circle meets it, each c' may round by about eps * area^2
    record = coefficients(segments, s0)
    slack = 1e-12 * record.c_prime_markov + 1e-15 * math.fsum(t for t, _ in segments) ** 2
    assert record.c_prime_jc <= record.c_prime_shaped + slack
    assert record.c_prime_shaped <= record.c_prime_markov + slack


class TestCoefficients:
    """One error amplitude f gives every first-order coefficient, of a square
    pulse or of a sequence: c and c'_markov from int |f|^2, c'_shaped from
    int |f| and c'_JC from int f."""

    # (theta, start): (c'_markov, c'_shaped, c'_JC) of a square pulse in closed form
    SQUARE = {
        PI_FROM_GROUND: (3 * math.pi ** 2 / 32, math.pi ** 2 / 16, math.pi ** 2 / 16),
        HALF_FROM_GROUND: (SLOPE_HALF_GROUND * math.pi / 4, (math.pi / 8 - 0.25) ** 2,
                           (math.pi / 8 - 0.25) ** 2),
        HALF_FROM_EXCITED: (SLOPE_HALF_EXCITED * math.pi / 4, (math.pi / 8 + 0.25) ** 2,
                            (math.pi / 8 + 0.25) ** 2),
        (math.pi, PLUS): (math.pi ** 2 / 16, math.pi ** 2 / 16, 0.25),
    }

    @pytest.mark.parametrize("gate", list(SQUARE), ids=["pi-ground", "pi2-ground",
                                                         "pi2-excited", "pi-plus"])
    def test_square_pulse_table(self, gate):
        record = coefficients(((gate[0], 0.0),), gate[1])
        assert record[1:] == pytest.approx(self.SQUARE[gate], rel=1e-13)

    def test_markov_photon_form_is_half_the_area_times_c(self):
        for segments in (((math.pi, 0.0),), ASYMMETRIC, bb1(math.pi)):
            record = coefficients(segments, TILTED)
            area = math.fsum(theta for theta, _ in segments)
            assert record.c_prime_markov == pytest.approx(area / 2.0 * record.c, rel=1e-15)

    @pytest.mark.parametrize("gate, start", TABLE_CASES)
    def test_single_mode_coefficient_is_the_jc_limit(self, gate, start):
        # p nbar = c'_JC + b / nbar with |b| < 1 on these gates, so at nbar = 1e6
        # the gap is below 1e-6
        theta, s0 = GATE_AREAS[gate], START_STATES[start]
        c_prime = coefficients(((theta, 0.0),), s0).c_prime_jc
        assert abs(jc_gate_error(theta, s0, 1e6) * 1e6 - c_prime) <= 1e-6

    def test_single_mode_coefficient_on_random_gates(self):
        # p nbar - c'_JC falls as b / nbar: the Richardson value of p nbar at
        # nbar = 1e6 and 4e6 is c'_JC to within 3.6e-12 on 200 such gates, though
        # |b| reaches 8.9 where c'_JC is small
        rng = np.random.default_rng(58)
        for _ in range(20):
            theta, v = rng.uniform(0.01, 2 * math.pi), rng.normal(size=3)
            s0 = tuple(v / np.linalg.norm(v))
            c_prime = coefficients(((theta, 0.0),), s0).c_prime_jc
            near, far = (jc_gate_error(theta, s0, n) * n for n in (1e6, 4e6))
            assert abs((4.0 * far - near) / 3.0 - c_prime) <= 1e-10, (theta, s0)

    @given(theta=st.floats(0.01, 4 * math.pi), s0=unit_vectors)
    @settings(max_examples=200, deadline=None)
    def test_chain_on_square_pulses(self, theta, s0):
        assert_chain(((theta, 0.0),), s0)

    @given(segments=segment_lists, s0=unit_vectors)
    @settings(max_examples=200, deadline=None)
    def test_chain_on_sequences(self, segments, s0):
        assert_chain(segments, s0)

    @given(theta=st.floats(0.01, 2 * math.pi), phi=st.floats(-math.pi, math.pi),
           beta=st.floats(-math.pi, math.pi), sign=st.sampled_from((1.0, -1.0)))
    @settings(max_examples=200, deadline=None)
    def test_equality_cases(self, theta, phi, beta, sign):
        # a start on the rotation's axis (cos phi, sin phi, 0) keeps P = 1/2,
        # so |f| is constant: c'_shaped = c'_markov; one on the great circle
        # about that axis keeps f of one phase: c'_JC = c'_shaped
        axis = (sign * math.cos(phi), sign * math.sin(phi), 0.0)
        record = coefficients(((theta, phi),), axis)
        assert record.c_prime_shaped == pytest.approx(record.c_prime_markov, rel=1e-12)
        assert record.c_prime_markov == pytest.approx(theta ** 2 / 16, rel=1e-12)
        circle = (-math.sin(beta) * math.sin(phi), math.sin(beta) * math.cos(phi), math.cos(beta))
        record = coefficients(((theta, phi),), circle)
        assert record.c_prime_jc == pytest.approx(record.c_prime_shaped, rel=1e-12, abs=1e-15)

    def test_bb1_is_the_ideal_rotation(self):
        # the product of BB1's segments is R_x(theta), to rounding
        for theta in (math.pi, math.pi / 2):
            product = np.eye(2)
            for area, phi in bb1(theta):
                product = expm(-0.5j * area * oracles.drive(phi)) @ product
            want = expm(-0.5j * theta * oracles.SIGMA_X)
            assert np.max(np.abs(product - want)) <= 1e-15

    def test_bb1_rows(self):
        # the Markov error grows 25-fold under BB1, and the single-mode one
        # falls to its conservation floor: 0 from ground, a six-state mean of 1/6
        record = coefficients(bb1(math.pi), GROUND)
        assert record.c == pytest.approx(15 * math.pi / 16, rel=1e-13)
        assert record.c_prime_markov == pytest.approx(75 * math.pi ** 2 / 32, rel=1e-13)
        assert record.c_prime_jc <= 1e-28
        six = [coefficients(bb1(math.pi), s0) for s0 in SIX_STATES]
        assert f"{math.fsum(r.c_prime_markov for r in six) / 6:.2f}" == "20.56"
        assert math.fsum(r.c_prime_jc for r in six) / 6 == pytest.approx(1 / 6, rel=1e-13)
        assert max(r.c_prime_jc for r in six) == pytest.approx(1 / 4, rel=1e-13)
        half = [coefficients(bb1(math.pi / 2), s0) for s0 in SIX_STATES]
        assert math.fsum(r.c_prime_jc for r in half) / 6 == pytest.approx(1 / 12, rel=1e-13)
        assert coefficients(bb1(math.pi / 2), GROUND).c_prime_jc == pytest.approx(1 / 16,
                                                                                  rel=1e-13)

    @pytest.mark.parametrize("segments", [ASYMMETRIC, bb1(math.pi / 2)], ids=["asymmetric", "bb1"])
    @pytest.mark.parametrize("s0", [GROUND, PLUS, TILTED], ids=["ground", "plus", "tilted"])
    def test_sequences_against_the_oracles(self, segments, s0):
        # Markov: p / r at r = 1e-12 from the 40-digit Liouvillian, c to its
        # second-order term; single mode: the Richardson value of p nbar from
        # the joint evolution at nbar = 1e5 and 4e5, within 1e-9 of c'_JC
        psi = np.array(_amplitudes(s0))
        record = coefficients(segments, s0)
        markov = float(oracles.failure_sequence_mp(psi, segments, 1e-12)) / 1e-12
        assert record.c == pytest.approx(markov, rel=1e-10)
        near, far = (oracles.jc_sequence_error(psi, segments, n) * n for n in (1e5, 4e5))
        assert abs((4.0 * far - near) / 3.0 - record.c_prime_jc) <= 1e-9 * max(record.c_prime_jc, 1.0)

    def test_the_asymmetric_sequence_shows_the_sign_of_phi(self):
        # mirrored phases give other coefficients from the tilted start, so the
        # oracle test above fixes the sign of phi in f
        mirrored = tuple((theta, -phi) for theta, phi in ASYMMETRIC)
        record, other = coefficients(ASYMMETRIC, TILTED), coefficients(mirrored, TILTED)
        assert abs(record.c - other.c) > 0.1 * record.c
        assert abs(record.c_prime_jc - other.c_prime_jc) > 0.5 * record.c_prime_jc

    def test_one_segment_jc_oracle_is_jc_gate_error(self):
        # the sequence oracle's conventions, checked on one segment
        for theta, s0 in ((math.pi, GROUND), (1.3, TILTED)):
            want = jc_gate_error(theta, s0, 400.0)
            got = oracles.jc_sequence_error(np.array(_amplitudes(s0)), ((theta, 0.0),), 400.0)
            assert got == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("phi", [math.nan, math.inf, -math.inf])
    def test_non_finite_phase_is_refused(self, phi):
        with pytest.raises(InvalidStateError, match="phase must be finite"):
            coefficients(((math.pi, 0.0), (math.pi, phi)), GROUND)

    def test_every_segment_area_is_checked(self):
        with pytest.raises(InvalidStateError, match=r"theta must be in \[0, 10000\], got -1.0"):
            coefficients(((math.pi, 0.0), (-1.0, 0.0)), GROUND)


class TestPulseValidation:
    """Both gate functions refuse a pulse area outside [0, MAX_THETA] before
    any pulse is propagated, with no ratio at all too."""

    @staticmethod
    def assert_refused(monkeypatch, area):
        calls = []
        monkeypatch.setattr(gates, "_propagator", lambda *args: calls.append(args))
        for ratios in ([], [0.0, 1e-3]):
            with pytest.raises(InvalidStateError, match=r"theta must be in \[0, 10000\]"):
                sweep_failure_probabilities(area, GROUND, ratios)
        with pytest.raises(InvalidStateError, match=r"theta must be in \[0, 10000\]"):
            square_c(area, GROUND)
        assert calls == []

    def test_negative_area_rejected(self, monkeypatch):
        self.assert_refused(monkeypatch, -1.0)

    @pytest.mark.parametrize("area", [math.inf, math.nan, -math.inf])
    def test_non_finite_area_rejected(self, monkeypatch, area):
        self.assert_refused(monkeypatch, area)

    def test_fock_state_rejected(self):
        # |n = 1> of a 4-level system is no Bloch vector of one qubit
        for gate in (lambda s: square_c(math.pi, s),
                     lambda s: sweep_failure_probabilities(math.pi, s, [1e-3])):
            with pytest.raises(InvalidStateError, match="expected a Bloch vector of 3 numbers"):
                gate(np.array([0, 1, 0, 0]))


class TestStartValidation:
    """Both gate functions take a pure start, a Bloch vector on the unit
    sphere, and refuse anything else before any pulse is propagated."""

    @pytest.mark.parametrize("s0, message", [
        ((0.0, 0.0, 0.0), r"not pure: Bloch vector \|s\| = 0$"),
        ((0.6, 0.0, 0.0), r"not pure: Bloch vector \|s\| = 0.6$"),
        ((0.0, 0.0, -(1.0 - 2e-9)), r"not pure: Bloch vector \|s\| = 0.999999998$"),
        ((0.0, 0.0, -(1.0 + 2e-9)), r"\|s\| = 1.000000002 lies outside the unit ball"),
        ((math.nan, 0.0, 1.0), r"\|s\| = nan lies outside"),
        ((0.0, 0.0, math.inf), r"\|s\| = inf lies outside"),
        ((0.0, -1.0), "expected a Bloch vector of 3 numbers"),
        ((0.0, 1j, 0.0), "expected a Bloch vector of 3 numbers"),
        (("ground", 0.0, 0.0), "expected a Bloch vector of 3 numbers"),
        (None, "expected a Bloch vector of 3 numbers"),
    ], ids=["centre", "mixed", "inside-past-the-slack", "outside-past-the-slack", "nan", "inf",
            "two", "complex", "string", "none"])
    def test_only_a_pure_qubit_start_is_accepted(self, monkeypatch, s0, message):
        calls = []
        monkeypatch.setattr(gates, "_propagator", lambda *args: calls.append(args))
        with pytest.raises(InvalidStateError, match=message):
            square_c(math.pi, s0)
        with pytest.raises(InvalidStateError, match=message):
            sweep_failure_probabilities(math.pi, s0, [1e-3])
        assert calls == []

    @pytest.mark.parametrize("radius", [1.0 - 1e-9, 1.0 + 1e-9])
    def test_a_start_within_the_slack_is_pure(self, radius):
        # the Bloch slack is the one tolerance on both sides of the sphere
        s0 = (0.0, 0.0, -radius)
        assert square_c(math.pi, s0) == pytest.approx(SLOPE_PI_GROUND, rel=1e-8)
        assert sweep_failure_probabilities(math.pi, s0, [1e-3])[0] == pytest.approx(
            P_PI_GROUND_1E3, rel=1e-8)
