import math
import sys
import time

import numpy as np
import pytest
from scipy.stats import poisson

import oracles
from lasergate import jc
from lasergate.cli import START_STATES
from lasergate.gates import coefficients
from lasergate.jc import (
    MAX_N_BAR,
    _poisson_weight,
    _population,
    _window,
    check_photon_numbers,
    jc_gate_error,
)
from lasergate.qcore import InvalidStateError, _amplitudes

# the Bloch vectors of the named starts, and their amplitudes for the oracles
GROUND, EXCITED, PLUS = (START_STATES[name] for name in ("ground", "excited", "plus"))
PLUS_I = (0.0, 1.0, 0.0)
AMPLITUDES = {GROUND: oracles.GROUND, EXCITED: oracles.EXCITED, PLUS: oracles.PLUS,
              PLUS_I: np.array([1.0, 1.0j]) / math.sqrt(2.0)}

# p * nbar for a pi pulse from the ground state, frozen from the Poisson sum
# over sector rotations (asymptotically pi^2/16 ~ 0.617).
P_TIMES_NBAR = {100: 0.61574343, 400: 0.61657366, 1600: 0.61678113}

# 201 photon numbers spread evenly in log over [25, 2e5], plus values at which
# a tail estimated as 1 - sum(weights) exceeds 1e-10 from rounding alone
DENSE_N_BARS = sorted(set(np.geomspace(25.0, 2e5, 201).tolist()) | {6400.0, 30000.0, 40000.0})

# photon numbers at which the window's outside mass is pinned, from 0 to
# the cap.  Each tail is largest where its window edge steps up: where nbar + 10 sqrt(nbar) is an integer for n_max, and where
# nbar - 10 sqrt(nbar) is one for n_min; those points are taken to well past
# the peak near nbar = 24.  Also: the semiclassical floor 25, the stride step
# at 64, n_min leaving 0 above 100, the benchmark's 1-2-5 compare grid, the
# photon numbers at and just below 1e10, and up to the cap MAX_N_BAR = 1e14.
TAIL_N_BARS = sorted(
    set(np.linspace(0.0, 130.0, 131).tolist())
    | set(np.geomspace(130.0, 9.99986e9, 100).tolist())
    | {(math.sqrt(25.0 + k) - 5.0) ** 2 for k in range(1, 150)}
    | {(math.sqrt(25.0 + k) + 5.0) ** 2 for k in range(60)}
    | {0.5, 24.5, 25.5, 121.0, 6400.0, 30000.0}
    | {1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6}
    | {9.9e9, 9999860000.0, 9999860001.0, 9999869999.5, 9999999999.0, 1e10}
    | set(np.geomspace(1e10, 1e14, 9).tolist()) | {99999999999999.0}
)

# the largest photon numbers, near 1e10 and up to the cap itself: windows of
# 2e6 to 2e8 levels, ceil(nbar + 10 sqrt(nbar)) + 12 - floor(nbar - 10 sqrt(nbar)) + 1
CAP_N_BARS = [9999860001.0, 9999999999.0, 1e10, 99999999999999.0, MAX_N_BAR]

GATE_CASES = {
    "pi-ground": (math.pi, GROUND),
    "pi2-ground": (math.pi / 2, GROUND),
    "pi2-excited": (math.pi / 2, EXCITED),
}

# the plus start and areas other than pi and pi/2
MORE_GATE_CASES = {
    "pi-plus": (math.pi, PLUS),
    "pi2-plus": (math.pi / 2, PLUS),
    "0.7-ground": (0.7, GROUND),
    "0.7-plus": (0.7, PLUS),
    "2pi-excited": (2 * math.pi, EXCITED),
    "2pi-plus": (2 * math.pi, PLUS),
}

# (p nbar - pi^2/16) nbar for a pi pulse from the ground state, frozen from
# oracles.jc_gate_error_mp at nbar = 1e5 (-0.110632795 at 1e4, so the next
# order moves it by about 5e-8 from 1e5 on)
PI_GROUND_NEXT_ORDER = -0.110632319333919


class TestCoherentField:
    """The coherent field enters as its mean photon number nbar = alpha^2,
    kept on the Fock window of ``_window``."""

    def test_mean_photons(self):
        # the window is centred on nbar, 12 levels of headroom aside
        n_min, n_max = _window(400.0)
        assert (n_min + n_max - 12) / 2 == 400.0

    def test_default_truncation_is_generous(self):
        assert _window(400.0)[1] >= 400 + 10 * 20

    def test_weights_normalized_after_truncation(self):
        # the window holds all but 1e-10 of the Poisson mass
        n_min, n_max = _window(400.0)
        weights = [_poisson_weight(n, 400.0) for n in range(n_min, n_max + 1)]
        assert abs(math.fsum(weights) / math.sqrt(2.0 * math.pi) - 1.0) <= 1e-10

    def test_window_starts_ten_deviations_below_the_mean(self):
        n_min, n_max = _window(400.0)
        assert n_min == 200
        window = [oracles.poisson_weight_mp(n, 400.0) for n in range(n_min, n_max + 1)]
        assert len(window) == n_max - n_min + 1
        assert abs(float(sum(window)) / math.sqrt(2.0 * math.pi) - 1.0) <= 1e-10
        assert _window(100.0) == (0, 212)
        assert _window(0.0) == (0, 12)

    @pytest.mark.parametrize("n_bar", TAIL_N_BARS)
    def test_tail_bound_covers_the_exact_tail(self, n_bar):
        # the window is fixed, so the mass it leaves out is checked here, not at run time
        n_min, n_max = _window(n_bar)
        exact = poisson.cdf(n_min - 1, n_bar) + poisson.sf(n_max, n_bar)
        assert exact <= 2e-21

    def test_fock_window_capped(self):
        # the widest window, about 2e8 levels at the cap, of which a gate error
        # reads about 80; a field above the cap is refused before any is read
        assert _window(MAX_N_BAR) == (MAX_N_BAR - 1e8, MAX_N_BAR + 1e8 + 12)
        for n_bar in (math.nextafter(MAX_N_BAR, math.inf), 1e15, 1e34, 1e308):
            with pytest.raises(InvalidStateError, match=r"in \[25, MAX_N_BAR = 1e\+14\]"):
                jc_gate_error(math.pi, GROUND, n_bar)

    def test_negative_alpha_rejected(self):
        # nbar = alpha^2 cannot be negative
        with pytest.raises(InvalidStateError, match="nbar"):
            jc_gate_error(math.pi, GROUND, -1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidStateError, match="nbar"):
            jc_gate_error(math.pi, GROUND, alpha ** 2)


class TestPhotonNumbers:
    def test_domain_is_25_to_the_cap(self):
        n_bars = [25, 25.0, 400, 9.9e9, *CAP_N_BARS]
        assert check_photon_numbers(n_bars) == tuple(map(float, n_bars))
        assert check_photon_numbers(()) == ()

    @pytest.mark.parametrize("n_bar", [24.999999999999996, 0.0, -400.0, math.nan])
    def test_below_the_semiclassical_floor_refused(self, n_bar):
        with pytest.raises(InvalidStateError, match="semiclassical"):
            check_photon_numbers([400.0, n_bar])

    @pytest.mark.parametrize("n_bar", [math.nextafter(MAX_N_BAR, math.inf), 1e15, 1e300, math.inf])
    def test_above_the_cap_refused(self, n_bar):
        with pytest.raises(InvalidStateError, match=r"in \[25, MAX_N_BAR = 1e\+14\]"):
            check_photon_numbers([400.0, n_bar])
        with pytest.raises(InvalidStateError, match="MAX_N_BAR"):
            jc_gate_error(math.pi, GROUND, n_bar)


class TestPoissonWeight:
    @pytest.mark.parametrize("n_bar", [25.0, 64.0, 100.0, 1e3, 1e6, 9.9e9])
    def test_weight_matches_40_digit_pmf(self, n_bar):
        n_min, n_max = _window(n_bar)
        h = max(1, int(math.sqrt(n_bar) / 4.0))
        # the exact P_0, the table and the first series value of stirlerr, both
        # window edges, and every level the gate error samples
        levels = {*range(17), n_min, n_max, *range(n_min, n_max + 2, h)}
        # bd0 is a series for |m - nbar| < 0.1 (m + nbar), direct outside it
        for edge in (n_bar * 9 / 11, n_bar * 11 / 9):
            levels |= {math.floor(edge), math.floor(edge) + 1}
        for m in sorted(levels):
            want = float(oracles.poisson_weight_mp(m, n_bar))
            got = _poisson_weight(m, n_bar)
            if want < sys.float_info.min:  # e^-nbar at m = 0 and the far tails underflow
                assert got < sys.float_info.min, m
            else:
                assert abs(got - want) <= 1e-12 * want, m

    def test_amplitudes_are_the_normalized_weights(self):
        # the Fock amplitudes sqrt(P_n) renormalized on the window, from the
        # closed-form weights and from the 40-digit pmf
        n_min, n_max = _window(400.0)
        levels = range(n_min, n_max + 1)

        def amplitudes(weights):
            total = sum(weights)
            return [math.sqrt(w / total) for w in weights]

        got = amplitudes([_poisson_weight(m, 400.0) for m in levels])
        want = amplitudes([float(oracles.poisson_weight_mp(m, 400.0)) for m in levels])
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


def bruteforce_gate_error(theta, state, n_bar, g=1.0):
    """p = <psi_perp| rho |psi_perp> of the reduced state that the full joint
    exponential on levels 0..n_max gives for a theta pulse of duration
    theta / (2 g sqrt(nbar)) from the start of Bloch vector ``state``."""
    psi = AMPLITUDES[state]
    root = math.sqrt(n_bar)
    rho = oracles.jc_bruteforce(psi, root, _window(n_bar)[1], g, theta / (2.0 * g * root))
    target = oracles.ideal_state(psi, theta)
    perp = np.array([-np.conj(target[1]), np.conj(target[0])])
    return float(np.real(perp.conj() @ rho @ perp))


BRUTEFORCE_AREAS = (0.7, math.pi / 2, math.pi, 2 * math.pi)
BRUTEFORCE_STARTS = {
    "ground": GROUND,
    "excited": EXCITED,
    "plus": PLUS,
    "plus-i": PLUS_I,
}


class TestAgainstJointExponential:
    @pytest.mark.parametrize("start", sorted(BRUTEFORCE_STARTS))
    def test_reduced_state_matches_bruteforce(self, start):
        # nbar = 25: the window is 0..n_max, as in the oracle
        state = BRUTEFORCE_STARTS[start]
        for theta in BRUTEFORCE_AREAS:
            want = bruteforce_gate_error(theta, state, 25.0)
            assert abs(jc_gate_error(theta, state, 25.0) - want) <= 1e-10 * want, theta

    def test_window_above_vacuum_matches_bruteforce(self):
        # nbar = 121: the window starts at n_min = 11, the oracle keeps 0..n_max
        assert _window(121.0)[0] == 11
        for state in BRUTEFORCE_STARTS.values():
            for theta in BRUTEFORCE_AREAS:
                want = bruteforce_gate_error(theta, state, 121.0)
                assert abs(jc_gate_error(theta, state, 121.0) - want) <= 1e-10 * want


class TestAgainstMultiprecision:
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    @pytest.mark.parametrize("n_bar", [100.0, 1000.0, 6400.0])
    def test_gate_error_matches_40_digit_sum(self, case, n_bar):
        theta, state = GATE_CASES[case]
        n_max = _window(n_bar)[1]
        want = oracles.jc_gate_error_mp(theta, AMPLITUDES[state], n_bar, n_max)
        got = jc_gate_error(theta, state, n_bar)
        assert abs(got - float(want)) <= 1e-14 * float(want)

    @pytest.mark.parametrize("case", sorted(MORE_GATE_CASES))
    @pytest.mark.parametrize("n_bar", [25.0, 64.0, 1000.0])
    def test_any_area_and_plus_start_match_40_digit_sum(self, case, n_bar):
        # nbar = 25 is summed level by level, 64 and 1000 every 2nd and 7th level
        theta, state = MORE_GATE_CASES[case]
        n_max = _window(n_bar)[1]
        want = oracles.jc_gate_error_mp(theta, AMPLITUDES[state], n_bar, n_max)
        got = jc_gate_error(theta, state, n_bar)
        assert abs(got - float(want)) <= 1e-14 * float(want)

    @pytest.mark.parametrize("n_bar", [1e8, 1e9, 9.9e9])
    def test_next_order_holds_up_to_the_level_cap(self, n_bar):
        start = time.perf_counter()
        p = jc_gate_error(math.pi, GROUND, n_bar)
        assert time.perf_counter() - start < 0.1
        assert abs((p * n_bar - math.pi**2 / 16) * n_bar - PI_GROUND_NEXT_ORDER) <= 2e-6

    @pytest.mark.parametrize("n_bar", CAP_N_BARS)
    def test_next_order_holds_at_the_cap(self, n_bar):
        # (p nbar - pi^2/16) nbar is at the double-precision floor here (about
        # 2e-6 at 9999860001), so p itself is checked, to 1e-15 relative
        start = time.perf_counter()
        p = jc_gate_error(math.pi, GROUND, n_bar)
        assert time.perf_counter() - start < 0.1
        want = (math.pi**2 / 16 + PI_GROUND_NEXT_ORDER / n_bar) / n_bar
        assert abs(p - want) <= 1e-15 * want


    @pytest.mark.parametrize("theta, start, b", [
        (math.pi, PLUS, 1.0 / 16.0),
        (math.pi / 2, GROUND, None), (math.pi / 2, EXCITED, None),
    ], ids=["pi-plus", "pi2-ground", "pi2-excited"])
    def test_second_order_holds_up_to_the_cap(self, theta, start, b):
        # p = (c'_JC + b / nbar) / nbar, with c'_JC from the gate's coefficient
        # record and b read at nbar = 1e7 where it is not given; from 1e10 to the cap
        c_prime = coefficients(((theta, 0.0),), start).c_prime_jc
        if b is None:
            b = (jc_gate_error(theta, start, 1e7) * 1e7 - c_prime) * 1e7
        for n_bar in (1e10, 1e11, 1e12, 1e13, MAX_N_BAR):
            p = jc_gate_error(theta, start, n_bar)
            assert abs(p - (c_prime + b / n_bar) / n_bar) <= 1e-15 * p, n_bar

    @pytest.mark.parametrize("n_bar", [1e8, 1e9, 1e10])
    def test_plus_start_meets_its_asymptote_at_large_photon_numbers(self, n_bar):
        # a pi pulse from (|b> + |a>) / sqrt(2) fails with p = (1/4 + 1/(16 nbar)) / nbar;
        # the window edges add nothing to p, which stays within rounding of it
        p = jc_gate_error(math.pi, PLUS, n_bar)
        want = (0.25 + 1.0 / (16.0 * n_bar)) / n_bar
        assert abs(p - want) <= 1e-15 * want


class TestGateError:
    def test_pi_from_ground_reference_values(self):
        for n_bar, frozen in P_TIMES_NBAR.items():
            p = jc_gate_error(math.pi, GROUND, n_bar)
            assert p * n_bar == pytest.approx(frozen, abs=1e-7)

    def test_one_over_nbar_scaling(self):
        p100 = jc_gate_error(math.pi, GROUND, 100)
        p400 = jc_gate_error(math.pi, GROUND, 400)
        assert abs(p100 * 100 - p400 * 400) / (p100 * 100) <= 0.10

    def test_truncation_robustness(self):
        # the fixed window against the 40-digit sum on a window twice as wide
        base = jc_gate_error(math.pi, GROUND, 400)
        doubled = oracles.jc_gate_error_mp(math.pi, oracles.GROUND, 400.0,
                                           2 * _window(400.0)[1])
        assert abs(base - float(doubled)) <= 1e-14 * float(doubled)

    def test_half_pulse_from_superposition_order_of_magnitude(self):
        # phase-fluctuation error of the superposition gate: loose band only
        p = jc_gate_error(math.pi / 2, PLUS, 400)
        assert 0.05 <= p * 400 <= 1.0

    def test_semiclassical_floor(self):
        with pytest.raises(InvalidStateError, match="semiclassical"):
            jc_gate_error(math.pi, GROUND, 9.0)

    def test_supported_areas_only(self):
        # any area in (0, 2 pi] is summed; the rest is refused
        for theta in (0.0, -math.pi, 2 * math.pi + 1e-9, math.nan, math.inf):
            with pytest.raises(InvalidStateError, match="pulse area"):
                jc_gate_error(theta, GROUND, 400)

    def test_non_finite_photon_number_rejected(self):
        with pytest.raises(InvalidStateError, match="nbar"):
            jc_gate_error(math.pi, GROUND, math.nan)
        # inf is refused by the cap on nbar, before any field is built
        with pytest.raises(InvalidStateError, match=r"MAX_N_BAR = 1e\+14\].*got inf$"):
            jc_gate_error(math.pi, GROUND, math.inf)

    @pytest.mark.parametrize("n_bar", DENSE_N_BARS)
    def test_every_photon_number_from_25_is_accepted(self, n_bar):
        p = jc_gate_error(math.pi, GROUND, n_bar)
        assert abs(p * n_bar - 0.62) <= 0.10

    def test_hundred_million_photons_is_cheap_and_asymptotic(self):
        start = time.perf_counter()
        p = jc_gate_error(math.pi, GROUND, 1e8)
        assert time.perf_counter() - start < 1.0
        assert abs(p * 1e8 - math.pi**2 / 16) <= 1e-6

    def test_coupling_drops_out(self):
        # only g T enters: the oracle at g = 3.5, with T down by the same
        # factor, gives the p that jc_gate_error computes without any g
        state = PLUS_I
        want = bruteforce_gate_error(math.pi / 2, state, 100.0, g=3.5)
        assert abs(jc_gate_error(math.pi / 2, state, 100.0) - want) <= 1e-10 * want


class TestGuards:
    def test_revival_regime_rejected(self):
        # theta <= 2 pi keeps the pulse within one mean-field Rabi period
        with pytest.raises(InvalidStateError, match="pulse area"):
            jc_gate_error(1.01 * 2.0 * math.pi, GROUND, 25.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(InvalidStateError, match="pulse area"):
            jc_gate_error(-0.1, GROUND, 25.0)

    def test_fock_atom_state_rejected(self):
        # |n = 1> of a 4-level system is no Bloch vector of one qubit
        with pytest.raises(InvalidStateError, match="expected a Bloch vector of 3 numbers"):
            jc_gate_error(math.pi, np.array([0, 1, 0, 0]), 25.0)

    @pytest.mark.parametrize("s0, message", [
        ((0.0, 0.0, 0.0), r"not pure: Bloch vector \|s\| = 0$"),
        ((0.0, 0.8, 0.0), r"not pure: Bloch vector \|s\| = 0.8$"),
        ((0.0, 0.0, 1.0 + 2e-9), r"\|s\| = 1.000000002 lies outside the unit ball"),
        ((0.0, math.nan, 0.0), r"\|s\| = nan lies outside"),
        ((1.0, 0.0), "expected a Bloch vector of 3 numbers"),
        ((1j, 0.0, 0.0), "expected a Bloch vector of 3 numbers"),
        ("xyz", "expected a Bloch vector of 3 numbers"),
    ], ids=["centre", "mixed", "outside", "nan", "two", "complex", "string"])
    def test_only_a_pure_qubit_start_is_accepted(self, monkeypatch, s0, message):
        # refused before any Fock level is read
        calls = []
        monkeypatch.setattr(jc, "_poisson_weight", lambda *args: calls.append(args))
        with pytest.raises(InvalidStateError, match=message):
            jc_gate_error(math.pi, s0, 400.0)
        assert calls == []

    def test_start_within_the_slack_is_pure(self):
        # amplitudes from a vector that rounds just off the sphere are normalized,
        # and one near a pole is read as that pole, the excited one included
        # (the end of a decay-free pi pulse from ground is the last case)
        for s0, unit in (((0.0, 0.0, -(1.0 - 1e-9)), GROUND), ((0.0, 0.0, -(1.0 + 1e-9)), GROUND),
                         ((1.0 + 1e-9, 0.0, 0.0), PLUS),
                         ((0.0, 0.0, 1.0 - 5e-10), EXCITED), ((0.0, 0.0, 1.0 + 1e-9), EXCITED),
                         ((0.0, 1e-16, 1.0 - 1e-16), EXCITED)):
            x_b, x_a = _amplitudes(s0)
            assert abs(x_b) ** 2 + abs(x_a) ** 2 == pytest.approx(1.0, abs=1e-15)
            for theta in (math.pi, math.pi / 2):
                assert jc_gate_error(theta, s0, 400.0) == pytest.approx(
                    jc_gate_error(theta, unit, 400.0), rel=1e-7)

    @pytest.mark.parametrize("theta", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, theta):
        with pytest.raises(InvalidStateError, match="pulse area"):
            jc_gate_error(theta, EXCITED, 25.0)

    def test_returned_state_has_unit_trace(self):
        # the populations on the target and on psi_perp sum to the trace, 1
        theta, state = 0.4, _amplitudes((-1.0, 0.0, 0.0))
        target = tuple(oracles.ideal_state(np.asarray(state), theta))
        perp = (-target[1].conjugate(), target[0].conjugate())
        trace = _population(state, 81.0, theta, perp) + _population(state, 81.0, theta, target)
        assert abs(trace - 1.0) <= 1e-12
