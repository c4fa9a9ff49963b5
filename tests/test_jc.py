import math
import sys
import time

import numpy as np
import pytest
from scipy.stats import poisson

import oracles
from lasergate.jc import (
    MAX_N_BAR,
    CoherentField,
    _poisson_weight,
    check_photon_numbers,
    jc_evolve,
    jc_gate_error,
)
from lasergate.qcore import InvalidStateError, PureState

# p * nbar for a pi pulse from the ground state, frozen from the Poisson sum
# over sector rotations (asymptotically pi^2/16 ~ 0.617).
P_TIMES_NBAR = {100: 0.61574343, 400: 0.61657366, 1600: 0.61678113}

# 201 photon numbers spread evenly in log over [25, 2e5], plus values at which
# a tail estimated as 1 - sum(weights) exceeds 1e-10 from rounding alone
DENSE_N_BARS = sorted(set(np.geomspace(25.0, 2e5, 201).tolist()) | {6400.0, 30000.0, 40000.0})

# photon numbers at which the window's outside mass is pinned, from the
# vacuum to the cap.  Each tail is largest where its window edge steps
# up: where nbar + 10 sqrt(nbar) is an integer for n_max, and where
# nbar - 10 sqrt(nbar) is one for n_min; those points are taken to well past
# the peak near nbar = 24.  Also: the semiclassical floor 25, the stride step
# at 64, n_min leaving 0 above 100, the benchmark's 1-2-5 compare grid and the
# photon numbers at and just below the cap MAX_N_BAR = 1e10.
TAIL_N_BARS = sorted(
    set(np.linspace(0.0, 130.0, 131).tolist())
    | set(np.geomspace(130.0, 9.99986e9, 100).tolist())
    | {(math.sqrt(25.0 + k) - 5.0) ** 2 for k in range(1, 150)}
    | {(math.sqrt(25.0 + k) + 5.0) ** 2 for k in range(60)}
    | {0.5, 24.5, 25.5, 121.0, 6400.0, 30000.0}
    | {1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6}
    | {9.9e9, 9999860000.0, 9999860001.0, 9999869999.5, 9999999999.0, 1e10}
)

# the largest photon numbers, up to the cap itself: windows of more than
# 2e6 levels, ceil(nbar + 10 sqrt(nbar)) + 12 - floor(nbar - 10 sqrt(nbar)) + 1
CAP_N_BARS = [9999860001.0, 9999999999.0, MAX_N_BAR]

GATE_CASES = {
    "pi-ground": (math.pi, PureState.ground()),
    "pi2-ground": (math.pi / 2, PureState.ground()),
    "pi2-excited": (math.pi / 2, PureState.excited()),
}

# the plus start and areas other than pi and pi/2
MORE_GATE_CASES = {
    "pi-plus": (math.pi, PureState.superposition(1.0, 1.0)),
    "pi2-plus": (math.pi / 2, PureState.superposition(1.0, 1.0)),
    "0.7-ground": (0.7, PureState.ground()),
    "0.7-plus": (0.7, PureState.superposition(1.0, 1.0)),
    "2pi-excited": (2 * math.pi, PureState.excited()),
    "2pi-plus": (2 * math.pi, PureState.superposition(1.0, 1.0)),
}

# (p nbar - pi^2/16) nbar for a pi pulse from the ground state, frozen from
# oracles.jc_gate_error_mp at nbar = 1e5 (-0.110632795 at 1e4, so the next
# order moves it by about 5e-8 from 1e5 on)
PI_GROUND_NEXT_ORDER = -0.110632319333919


class TestCoherentField:
    def test_mean_photons(self):
        assert CoherentField(alpha=20.0).mean_photons == 400.0

    def test_default_truncation_is_generous(self):
        field = CoherentField(alpha=20.0)
        assert field.n_max >= 400 + 10 * 20

    def test_weights_normalized_after_truncation(self):
        # the window holds all but 1e-10 of the Poisson mass
        field = CoherentField(alpha=20.0)
        weights = [_poisson_weight(n, 400.0) for n in range(field.n_min, field.n_max + 1)]
        assert abs(math.fsum(weights) / math.sqrt(2.0 * math.pi) - 1.0) <= 1e-10

    def test_vacuum_field(self):
        field = CoherentField(alpha=0.0)
        weights = [_poisson_weight(n, 0.0) for n in range(field.n_min, field.n_max + 1)]
        assert weights[0] == math.sqrt(2.0 * math.pi)
        assert all(w == 0.0 for w in weights[1:])

    def test_window_starts_ten_deviations_below_the_mean(self):
        field = CoherentField(alpha=20.0)
        assert field.n_min == 200
        window = [oracles.poisson_weight_mp(n, 400.0) for n in range(field.n_min, field.n_max + 1)]
        assert len(window) == field.n_max - field.n_min + 1
        assert abs(float(sum(window)) / math.sqrt(2.0 * math.pi) - 1.0) <= 1e-10
        assert CoherentField(alpha=10.0).n_min == 0
        assert CoherentField(alpha=0.0).n_min == 0

    @pytest.mark.parametrize("n_bar", TAIL_N_BARS)
    def test_tail_bound_covers_the_exact_tail(self, n_bar):
        # the window is fixed, so the mass it leaves out is checked here, not at run time
        field = CoherentField(alpha=math.sqrt(n_bar))
        n_bar = field.mean_photons
        exact = poisson.cdf(field.n_min - 1, n_bar) + poisson.sf(field.n_max, n_bar)
        assert exact <= 2e-21

    def test_fock_window_capped(self):
        # the cap is on nbar = alpha^2, checked as alpha <= sqrt(MAX_N_BAR) = 1e5;
        # for every double the two agree, since sqrt and squaring round monotonically
        root = math.sqrt(MAX_N_BAR)
        assert root * root == MAX_N_BAR
        assert math.sqrt(math.nextafter(MAX_N_BAR, math.inf)) > root
        assert math.nextafter(root, math.inf) ** 2 > MAX_N_BAR
        # constructing a field allocates nothing; only its evolution would
        widest = CoherentField(alpha=root)
        assert widest.mean_photons == MAX_N_BAR
        for alpha in (math.nextafter(root, math.inf), math.sqrt(1e11), 1e17, 1e154):
            with pytest.raises(InvalidStateError, match=r"in \[0, sqrt\(MAX_N_BAR\)\]"):
                CoherentField(alpha=alpha)

    def test_negative_alpha_rejected(self):
        with pytest.raises(InvalidStateError):
            CoherentField(alpha=-1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(InvalidStateError, match="alpha"):
            CoherentField(alpha=alpha)


class TestPhotonNumbers:
    def test_domain_is_25_to_the_cap(self):
        n_bars = [25, 25.0, 400, 9.9e9, *CAP_N_BARS]
        assert check_photon_numbers(n_bars) == tuple(map(float, n_bars))
        assert check_photon_numbers(()) == ()

    @pytest.mark.parametrize("n_bar", [24.999999999999996, 0.0, -400.0, math.nan])
    def test_below_the_semiclassical_floor_refused(self, n_bar):
        with pytest.raises(InvalidStateError, match="semiclassical"):
            check_photon_numbers([400.0, n_bar])

    @pytest.mark.parametrize("n_bar", [math.nextafter(MAX_N_BAR, math.inf), 1e11, 1e300, math.inf])
    def test_above_the_cap_refused(self, n_bar):
        with pytest.raises(InvalidStateError, match=r"in \[25, MAX_N_BAR = 1e\+10\]"):
            check_photon_numbers([400.0, n_bar])
        with pytest.raises(InvalidStateError, match="MAX_N_BAR"):
            jc_gate_error(math.pi, PureState.ground(), n_bar)


class TestPoissonWeight:
    @pytest.mark.parametrize("n_bar", [0.0, 25.0, 64.0, 100.0, 1e3, 1e6, 9.9e9])
    def test_weight_matches_40_digit_pmf(self, n_bar):
        field = CoherentField(alpha=math.sqrt(n_bar))
        h = max(1, int(math.sqrt(n_bar) / 4.0))
        # the exact P_0, the table and the first series value of stirlerr, both
        # window edges, and every level the gate error samples
        levels = {*range(17), field.n_min, field.n_max, *range(field.n_min, field.n_max + 2, h)}
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
        field = CoherentField(alpha=20.0)
        levels = range(field.n_min, field.n_max + 1)

        def amplitudes(weights):
            total = sum(weights)
            return [math.sqrt(w / total) for w in weights]

        got = amplitudes([_poisson_weight(m, 400.0) for m in levels])
        want = amplitudes([float(oracles.poisson_weight_mp(m, 400.0)) for m in levels])
        assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


class TestVacuumSector:
    def test_excited_atom_vacuum_rabi_oscillation(self):
        # single-sector dynamics: rho_aa(t) = cos^2(g t), population period pi/g
        field = CoherentField(alpha=0.0)
        for g, t in [(1.0, 0.3), (1.0, 0.7), (2.0, 0.55), (1.0, 1.4)]:
            rho = jc_evolve(PureState.excited(), field, g, t)
            assert rho.matrix[1][1].real == pytest.approx(math.cos(g * t) ** 2, abs=1e-12)

    def test_ground_atom_vacuum_is_dark(self):
        rho = jc_evolve(PureState.ground(), CoherentField(alpha=0.0), 1.0, 1.3)
        assert rho.matrix[0][0].real == pytest.approx(1.0, abs=1e-14)
        assert abs(rho.matrix[1][0]) <= 1e-14


class TestAgainstJointExponential:
    @pytest.mark.parametrize(
        "state",
        [PureState.ground(), PureState.excited(), PureState.superposition(1.0, 1.0)],
        ids=["ground", "excited", "plus"],
    )
    def test_reduced_state_matches_bruteforce(self, state):
        alpha, g = 2.0, 1.0
        field = CoherentField(alpha=alpha)
        duration = math.pi / (2 * g * alpha)
        got = jc_evolve(state, field, g, duration)
        want = oracles.jc_bruteforce(state.amplitudes, alpha, field.n_max, g, duration)
        assert np.max(np.abs(got.matrix - want)) <= 1e-10

    def test_window_above_vacuum_matches_bruteforce(self):
        # nbar = 121: the window starts at n_min = 11, the oracle keeps 0..n_max
        alpha, g = 11.0, 1.0
        field = CoherentField(alpha=alpha)
        assert field.n_min > 0
        duration = math.pi / (2 * g * alpha)
        state = PureState.superposition(1.0, 1.0j)
        got = jc_evolve(state, field, g, duration)
        want = oracles.jc_bruteforce(state.amplitudes, alpha, field.n_max, g, duration)
        assert np.max(np.abs(got.matrix - want)) <= 1e-10


class TestAgainstMultiprecision:
    @pytest.mark.parametrize("case", sorted(GATE_CASES))
    @pytest.mark.parametrize("n_bar", [100.0, 1000.0, 6400.0])
    def test_gate_error_matches_40_digit_sum(self, case, n_bar):
        theta, state = GATE_CASES[case]
        n_max = CoherentField(alpha=math.sqrt(n_bar)).n_max
        want = oracles.jc_gate_error_mp(theta, state.amplitudes, n_bar, n_max)
        got = jc_gate_error(theta, state, n_bar)
        assert abs(got - float(want)) <= 1e-14 * float(want)

    @pytest.mark.parametrize("case", sorted(MORE_GATE_CASES))
    @pytest.mark.parametrize("n_bar", [25.0, 64.0, 1000.0])
    def test_any_area_and_plus_start_match_40_digit_sum(self, case, n_bar):
        # nbar = 25 is summed level by level, 64 and 1000 every 2nd and 7th level
        theta, state = MORE_GATE_CASES[case]
        n_max = CoherentField(alpha=math.sqrt(n_bar)).n_max
        want = oracles.jc_gate_error_mp(theta, state.amplitudes, n_bar, n_max)
        got = jc_gate_error(theta, state, n_bar)
        assert abs(got - float(want)) <= 1e-14 * float(want)

    @pytest.mark.parametrize("n_bar", [1e8, 1e9, 9.9e9])
    def test_next_order_holds_up_to_the_level_cap(self, n_bar):
        start = time.perf_counter()
        p = jc_gate_error(math.pi, PureState.ground(), n_bar)
        assert time.perf_counter() - start < 0.1
        assert abs((p * n_bar - math.pi**2 / 16) * n_bar - PI_GROUND_NEXT_ORDER) <= 2e-6

    @pytest.mark.parametrize("n_bar", CAP_N_BARS)
    def test_next_order_holds_at_the_cap(self, n_bar):
        # (p nbar - pi^2/16) nbar is at the double-precision floor here (about
        # 2e-6 at 9999860001), so p itself is checked, to 1e-15 relative
        start = time.perf_counter()
        p = jc_gate_error(math.pi, PureState.ground(), n_bar)
        assert time.perf_counter() - start < 0.1
        want = (math.pi**2 / 16 + PI_GROUND_NEXT_ORDER / n_bar) / n_bar
        assert abs(p - want) <= 1e-15 * want


class TestGateError:
    def test_pi_from_ground_reference_values(self):
        for n_bar, frozen in P_TIMES_NBAR.items():
            p = jc_gate_error(math.pi, PureState.ground(), n_bar)
            assert p * n_bar == pytest.approx(frozen, abs=1e-7)

    def test_one_over_nbar_scaling(self):
        p100 = jc_gate_error(math.pi, PureState.ground(), 100)
        p400 = jc_gate_error(math.pi, PureState.ground(), 400)
        assert abs(p100 * 100 - p400 * 400) / (p100 * 100) <= 0.10

    def test_truncation_robustness(self):
        # the fixed window against the 40-digit sum on a window twice as wide
        base = jc_gate_error(math.pi, PureState.ground(), 400)
        doubled = oracles.jc_gate_error_mp(math.pi, PureState.ground().amplitudes, 400.0,
                                           2 * CoherentField(alpha=20.0).n_max)
        assert abs(base - float(doubled)) <= 1e-14 * float(doubled)

    def test_half_pulse_from_superposition_order_of_magnitude(self):
        # phase-fluctuation error of the superposition gate: loose band only
        p = jc_gate_error(math.pi / 2, PureState.superposition(1.0, 1.0), 400)
        assert 0.05 <= p * 400 <= 1.0

    def test_semiclassical_floor(self):
        with pytest.raises(InvalidStateError, match="semiclassical"):
            jc_gate_error(math.pi, PureState.ground(), 9.0)

    def test_supported_areas_only(self):
        # any area in (0, 2 pi] is summed; the rest is refused
        for theta in (0.0, -math.pi, 2 * math.pi + 1e-9, math.nan):
            with pytest.raises(InvalidStateError, match="pulse area"):
                jc_gate_error(theta, PureState.ground(), 400)

    def test_non_finite_photon_number_rejected(self):
        with pytest.raises(InvalidStateError, match="nbar"):
            jc_gate_error(math.pi, PureState.ground(), math.nan)
        # inf is refused by the cap on nbar, before any field is built
        with pytest.raises(InvalidStateError, match=r"MAX_N_BAR = 1e\+10\].*got inf$"):
            jc_gate_error(math.pi, PureState.ground(), math.inf)

    @pytest.mark.parametrize("n_bar", DENSE_N_BARS)
    def test_every_photon_number_from_25_is_accepted(self, n_bar):
        p = jc_gate_error(math.pi, PureState.ground(), n_bar)
        assert abs(p * n_bar - 0.62) <= 0.10

    def test_hundred_million_photons_is_cheap_and_asymptotic(self):
        start = time.perf_counter()
        p = jc_gate_error(math.pi, PureState.ground(), 1e8)
        assert time.perf_counter() - start < 1.0
        assert abs(p * 1e8 - math.pi**2 / 16) <= 1e-6

    def test_coupling_drops_out(self):
        # only g t enters: g up and the duration down by the same factor give the same state
        field, state = CoherentField(alpha=10.0), PureState.superposition(1.0, 1.0j)
        duration = math.pi / (2.0 * 10.0)
        a = jc_evolve(state, field, 1.0, duration)
        b = jc_evolve(state, field, 3.5, duration / 3.5)
        assert np.max(np.abs(np.subtract(a.matrix, b.matrix))) <= 1e-14


class TestGuards:
    def test_revival_regime_rejected(self):
        field = CoherentField(alpha=5.0)
        limit = 5.0 * 2.0 * math.pi / (2.0 * 5.0)  # five mean-field Rabi periods at g=1
        with pytest.raises(InvalidStateError, match="Rabi periods"):
            jc_evolve(PureState.ground(), field, 1.0, 1.01 * limit)

    def test_negative_duration_rejected(self):
        with pytest.raises(InvalidStateError):
            jc_evolve(PureState.ground(), CoherentField(alpha=1.0), 1.0, -0.1)

    def test_fock_atom_state_rejected(self):
        with pytest.raises(InvalidStateError, match="expected 2 amplitudes"):
            jc_evolve(PureState(np.array([1, 0, 0])), CoherentField(alpha=1.0), 1.0, 0.1)

    def test_positive_coupling_required(self):
        with pytest.raises(InvalidStateError, match="coupling"):
            jc_evolve(PureState.excited(), CoherentField(alpha=1.0), 0.0, 0.1)

    @pytest.mark.parametrize("g", [math.nan, math.inf])
    def test_non_finite_coupling_rejected(self, g):
        with pytest.raises(InvalidStateError, match="coupling"):
            jc_evolve(PureState.excited(), CoherentField(alpha=1.0), g, 0.1)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        with pytest.raises(InvalidStateError, match="duration"):
            jc_evolve(PureState.excited(), CoherentField(alpha=1.0), 1.0, duration)

    def test_returned_state_has_unit_trace(self):
        rho = jc_evolve(PureState.superposition(1.0, -1.0), CoherentField(alpha=3.0), 1.0, 0.2)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
