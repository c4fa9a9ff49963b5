import math

import numpy as np
import pytest

import oracles
from lasergate.budget import photon_coefficient
from lasergate.cli import GATE_AREAS, START_STATES
from lasergate.gates import (
    GateExperiment,
    default_ratio_grid,
    extract_coefficient,
    failure_probability,
    fit_coefficient,
    sweep_failure_probabilities,
)
from lasergate.lindblad import RK4_FIXED, DecaySpec, IntegratorConfig, PulseSpec, evolve
from lasergate.qcore import InvalidStateError, PureState, fidelity_pure, matvec, rotation

PI_FROM_GROUND = GateExperiment(math.pi, PureState.ground())
HALF_FROM_GROUND = GateExperiment(math.pi / 2, PureState.ground())
HALF_FROM_EXCITED = GateExperiment(math.pi / 2, PureState.excited())

# First-order slopes of p versus kappa/g_alpha, in closed form from the
# toggling-frame integrals (sin^4 / cos^4 over the pulse):
#   pi   from ground:  3 pi/16
#   pi/2 from ground:  3 pi/32 - 1/4
#   pi/2 from excited: 3 pi/32 + 1/4
SLOPE_PI_GROUND = 3 * math.pi / 16
SLOPE_HALF_GROUND = 3 * math.pi / 32 - 0.25
SLOPE_HALF_EXCITED = 3 * math.pi / 32 + 0.25

# Exact failure probabilities at ratio 1e-3, frozen from the superoperator
# exponential in oracles.py (re-verified live below).
P_PI_GROUND_1E3 = 5.888267114796e-04
P_HALF_GROUND_1E3 = 4.452740888239e-05
P_HALF_EXCITED_1E3 = 5.443399506861e-04


class TestFirstOrderOracle:
    def test_quadrature_matches_closed_forms(self):
        assert oracles.first_order_coefficient(oracles.GROUND, math.pi) == pytest.approx(
            SLOPE_PI_GROUND, rel=1e-10
        )
        assert oracles.first_order_coefficient(oracles.GROUND, math.pi / 2) == pytest.approx(
            SLOPE_HALF_GROUND, rel=1e-10
        )
        assert oracles.first_order_coefficient(oracles.EXCITED, math.pi / 2) == pytest.approx(
            SLOPE_HALF_EXCITED, rel=1e-10
        )


class TestFailureProbability:
    def test_zero_decay_means_zero_failure(self):
        for exp in (PI_FROM_GROUND, HALF_FROM_GROUND, HALF_FROM_EXCITED,
                    GateExperiment(math.pi, PureState.superposition(1, 1))):
            assert failure_probability(exp, 0.0) <= 1e-8

    @pytest.mark.parametrize(
        "exp,frozen",
        [
            (PI_FROM_GROUND, P_PI_GROUND_1E3),
            (HALF_FROM_GROUND, P_HALF_GROUND_1E3),
            (HALF_FROM_EXCITED, P_HALF_EXCITED_1E3),
        ],
        ids=["pi-ground", "half-ground", "half-excited"],
    )
    def test_matches_superoperator_oracle(self, exp, frozen):
        p = failure_probability(exp, 1e-3)
        assert p == pytest.approx(frozen, abs=5e-9)
        psi0 = exp.initial_state.amplitudes
        assert p == pytest.approx(oracles.failure_superop(psi0, exp.pulse_area, 1e-3), abs=5e-9)

    def test_pi_pulse_first_order_value(self):
        # (3 pi/16) * 1e-3 = 5.890e-4, accurate to 1% at this ratio
        assert failure_probability(PI_FROM_GROUND, 1e-3) == pytest.approx(
            SLOPE_PI_GROUND * 1e-3, rel=0.01
        )

    def test_monotone_in_decay(self):
        ratios = [0.0, 1e-4, 1e-3, 1e-2, 0.1, 0.5]
        ps = sweep_failure_probabilities(PI_FROM_GROUND, ratios)
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_negative_ratio_rejected(self):
        with pytest.raises(InvalidStateError):
            failure_probability(PI_FROM_GROUND, -1e-3)

    def test_every_ratio_is_checked_before_any_pulse(self):
        # kappa/g_alpha * tau = 1.7e308 * pi/2 overflows the propagator, so a
        # sweep that propagated each ratio as it checked it would raise
        # IntegrationError there, before it reached the infinite ratio
        with pytest.raises(InvalidStateError, match="decay rate must be finite"):
            sweep_failure_probabilities(PI_FROM_GROUND, [1e-3, 1.7e308, math.inf])

    def test_rk4_and_exact_agree(self):
        # the exact p against an independent RK4 run of the same pulse
        cfg = IntegratorConfig(method=RK4_FIXED, step_count=2000)
        rho0 = HALF_FROM_EXCITED.initial_state.to_density()
        final = evolve(rho0, PulseSpec(1.0, HALF_FROM_EXCITED.pulse_area), DecaySpec(1e-3), cfg)
        target = oracles.ideal_state(np.asarray(HALF_FROM_EXCITED.initial_state.amplitudes),
                                     HALF_FROM_EXCITED.pulse_area)
        rk4 = 1.0 - fidelity_pure(final.final, PureState(target))
        assert failure_probability(HALF_FROM_EXCITED, 1e-3) == pytest.approx(rk4, abs=1e-9)


class TestAgainstMultiprecision:
    # the five (gate, start) cases of the coefficient-table benchmark workload
    @pytest.mark.parametrize("gate, start", [("pi", "ground"), ("pi", "excited"), ("pi", "plus"),
                                             ("pi2", "ground"), ("pi2", "excited")])
    def test_sweep_is_within_roundoff_of_40_digit_expm(self, gate, start):
        theta, psi0 = GATE_AREAS[gate], START_STATES[start]()
        ratios = default_ratio_grid()
        got = sweep_failure_probabilities(GateExperiment(theta, psi0), ratios)
        for ratio, p in zip(ratios, got):
            want = oracles.failure_mp(psi0.amplitudes, theta, ratio)
            assert abs(float(p - want)) <= 1e-15


class TestIdealTarget:
    # the decay-free output exp(-i theta sigma_x / 2) |psi0> that p is measured against
    def test_pi_from_ground_targets_excited(self):
        target = matvec(rotation(math.pi), PureState.ground().amplitudes)
        assert abs(target[1]) == pytest.approx(1.0)

    def test_half_pulse_makes_equal_superposition(self):
        target = matvec(rotation(math.pi / 2), PureState.ground().amplitudes)
        assert abs(target[0]) == pytest.approx(1 / math.sqrt(2))
        assert abs(target[1]) == pytest.approx(1 / math.sqrt(2))


class TestExtractCoefficient:
    def test_pi_from_ground_coefficients(self):
        coeff = extract_coefficient(PI_FROM_GROUND)
        assert coeff.coefficient_vs_ratio == pytest.approx(SLOPE_PI_GROUND, rel=0.02)
        # photon form lands on 3 pi^2/32 ~ 0.925 (quoted as 0.93)
        assert coeff.coefficient_vs_photons == pytest.approx(3 * math.pi**2 / 32, rel=0.02)
        assert coeff.fit_residual <= 1e-3 * coeff.coefficient_vs_ratio
        assert not coeff.degraded_fit

    def test_half_pulse_coefficients(self):
        ground = extract_coefficient(HALF_FROM_GROUND)
        excited = extract_coefficient(HALF_FROM_EXCITED)
        assert ground.coefficient_vs_photons == pytest.approx(0.04, rel=0.5)
        assert excited.coefficient_vs_photons == pytest.approx(0.43, rel=0.15)
        # the excited start is strictly the lossier one
        assert excited.coefficient_vs_photons > ground.coefficient_vs_photons

    def test_photon_conversion_is_half_theta(self):
        coeff = extract_coefficient(HALF_FROM_EXCITED)
        assert coeff.coefficient_vs_photons == pytest.approx(
            coeff.coefficient_vs_ratio * (math.pi / 2) / 2, rel=1e-12
        )
        assert photon_coefficient(2.0, math.pi) == pytest.approx(math.pi)

    def test_pointwise_slopes_stay_within_two_percent(self):
        ratios = default_ratio_grid()
        ps = sweep_failure_probabilities(PI_FROM_GROUND, ratios)
        slopes = np.asarray(ps) / np.asarray(ratios)
        assert np.max(np.abs(slopes - SLOPE_PI_GROUND)) <= 0.02 * SLOPE_PI_GROUND

    def test_grid_validation(self):
        with pytest.raises(InvalidStateError, match="at least 4"):
            extract_coefficient(PI_FROM_GROUND, [1e-4, 1e-3])
        with pytest.raises(InvalidStateError, match="perturbative"):
            extract_coefficient(PI_FROM_GROUND, [1e-4, 1e-3, 1e-2, 1e-1])
        with pytest.raises(InvalidStateError, match="increasing"):
            extract_coefficient(PI_FROM_GROUND, [1e-3, 1e-4, 1e-5, 1e-6])

    @pytest.mark.parametrize("ratios", [
        [math.nan, 1e-4, 1e-3, 1e-2], [1e-5, math.nan, 1e-3, 1e-2], [1e-5, 1e-4, 1e-3, math.nan],
        [1e-5, 1e-4, 1e-3, math.inf], [-math.inf, 1e-4, 1e-3, 1e-2],
    ], ids=["nan-first", "nan-inner", "nan-last", "inf", "minus-inf"])
    def test_fit_refuses_non_finite_ratios(self, ratios):
        with pytest.raises(InvalidStateError):
            fit_coefficient(math.pi, ratios, [1e-6, 1e-5, 1e-4, 1e-3])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fit_refuses_non_finite_probabilities(self, bad):
        with pytest.raises(InvalidStateError, match="probabilities must be finite"):
            fit_coefficient(math.pi, [1e-5, 1e-4, 1e-3, 1e-2], [1e-6, bad, 1e-4, 1e-3])

    @pytest.mark.parametrize("count", [3, 5])
    def test_fit_refuses_length_mismatch(self, count):
        # zip would pair the first three and still divide the residual by 4
        probabilities = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2][:count]
        with pytest.raises(InvalidStateError, match=f"{count} probabilities for 4"):
            fit_coefficient(math.pi, [1e-5, 1e-4, 1e-3, 1e-2], probabilities)


class TestGateExperimentValidation:
    def test_negative_area_rejected(self):
        with pytest.raises(InvalidStateError):
            GateExperiment(-1.0, PureState.ground())

    @pytest.mark.parametrize("area", [math.inf, math.nan, -math.inf])
    def test_non_finite_area_rejected(self, area):
        with pytest.raises(InvalidStateError, match="pulse_area must be finite"):
            GateExperiment(area, PureState.ground())

    def test_fock_state_rejected(self):
        with pytest.raises(InvalidStateError, match="expected 2 amplitudes"):
            GateExperiment(math.pi, PureState(np.array([1, 0, 0, 0])))
