import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasergate import budget
from lasergate.budget import (
    ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT,
    PHOTON_THRESHOLD_COEFFICIENT,
    RAMAN_COEFFICIENT_GAP,
    RAMAN_ELIMINATION_COEFFICIENT,
    RESONANT_CHAIN_COEFFICIENT,
    PiPulseBudget,
    drive_ratio_for_photons,
    fixed_intensity_area_sweep,
    photon_coefficient,
    pi_pulse_budget,
    raman_constraint,
)
from lasergate.qcore import InvalidStateError
from oracles import PI_PULSE_PHOTON_COEFFICIENT, PI_PULSE_RABI_SLOPE

# log-uniform physical parameter ranges for the randomized identity checks
wavelengths = st.floats(min_value=-7.0, max_value=-5.0).map(lambda e: 10.0**e)
dipoles = st.floats(min_value=-30.0, max_value=-28.0).map(lambda e: 10.0**e)
amplitudes = st.floats(min_value=2.0, max_value=7.0).map(lambda e: 10.0**e)
areas = st.floats(min_value=-13.0, max_value=-8.0).map(lambda e: 10.0**e)
epsilons = st.floats(min_value=-6.0, max_value=-1.0).map(lambda e: 10.0**e)


def _rates(wavelength, area, dipole, amplitude):
    """omega, sigma_eff, Gamma, kappa, Omega_R and I from their textbook
    formulas, written out here rather than read from the module; only the
    constants are the module's, so a test that patches them patches these."""
    hbar, c, eps0 = budget.HBAR, budget.C, budget.EPSILON0
    omega = 2 * math.pi * c / wavelength
    sigma = 3 * wavelength**2 / (8 * math.pi)
    gamma = omega**3 * dipole**2 / (3 * math.pi * eps0 * hbar * c**3)
    rabi = dipole * amplitude / hbar
    intensity = 0.5 * eps0 * c * amplitude**2
    return omega, sigma, gamma, gamma * sigma / area, rabi, intensity


class TestGeometry:
    def test_cross_section_identity(self):
        # 3 pi / (2 k^2) == 3 lambda^2 / (8 pi)
        sigma = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5).sigma_eff_m2
        assert sigma == pytest.approx(3 * (1e-6) ** 2 / (8 * math.pi), rel=1e-14)
        assert sigma == pytest.approx(1.1937e-13, rel=1e-4)

    def test_subwavelength_focus_warns(self):
        with pytest.warns(UserWarning, match="cross-section") as caught:
            pi_pulse_budget(1e-6, 1e-14, 1e-29, 1e5)
        assert caught[0].filename == __file__

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InvalidStateError, match="wavelength must be finite and > 0"):
            pi_pulse_budget(0.0, 1e-12, 1e-29, 1e5)
        with pytest.raises(InvalidStateError, match="mode_area must be finite and > 0"):
            pi_pulse_budget(1e-6, -1.0, 1e-29, 1e5)


class TestKappaFromBeam:
    """The budget's kappa = Gamma sigma_eff / A, the decay rate into the
    beam-aligned vacuum modes."""

    def test_reference_point(self):
        # Gamma = 1e7 /s at lambda = 1 um, A = 1e-12 m^2 -> kappa = 1.1937e6 /s
        wavelength = 1e-6
        omega = 2 * math.pi * budget.C / wavelength
        gamma_target = 1e7
        dipole = math.sqrt(
            gamma_target * 3 * math.pi * budget.EPSILON0 * budget.HBAR * budget.C**3 / omega**3
        )
        report = pi_pulse_budget(wavelength, 1e-12, dipole, 1e5)
        assert report.gamma_per_s == pytest.approx(gamma_target, rel=1e-12)
        assert report.kappa_per_s == pytest.approx(1.1937e6, rel=1e-4)

    def test_matched_area_gives_full_rate(self):
        sigma = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5).sigma_eff_m2
        report = pi_pulse_budget(1e-6, sigma, 1e-29, 1e5)
        assert report.kappa_per_s == pytest.approx(report.gamma_per_s, rel=1e-12)

    def test_wide_beam_suppression(self):
        sigma = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5).sigma_eff_m2
        report = pi_pulse_budget(1e-6, 1e6 * sigma, 1e-29, 1e5)
        assert report.kappa_per_s == pytest.approx(1e-6 * report.gamma_per_s, rel=1e-12)


@pytest.mark.filterwarnings("ignore:mode_area is below")
class TestPhotonRelations:
    def test_error_vs_photons_reference(self):
        # p = c' / nbar with c' = 3 pi^2 / 32: 0.93 / 1e6 ~ 9.3e-7
        assert PI_PULSE_PHOTON_COEFFICIENT / 1e6 == pytest.approx(9.3e-7, rel=0.01)
        assert PI_PULSE_PHOTON_COEFFICIENT / 1e12 < 1e-11

    def test_error_needs_positive_photons(self):
        with pytest.raises(InvalidStateError):
            drive_ratio_for_photons(math.pi, 0.0)

    def test_ratio_for_photon_number(self):
        # theta = pi at nbar = 1e6: kappa/Omega_R = pi / 4e6, kappa/g_alpha twice that
        assert drive_ratio_for_photons(math.pi, 1e6) == pytest.approx(2 * 7.853981633974e-7, rel=1e-10)

    def test_photon_coefficient_conversion(self):
        # c' = c * theta / 2 recovers 3 pi^2/32 from 3 pi/16
        assert photon_coefficient(3 * math.pi / 16, math.pi) == pytest.approx(
            3 * math.pi**2 / 32, rel=1e-14
        )

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, area=areas)
    @settings(max_examples=100, deadline=None)
    def test_flux_relation_closes_the_chain(self, wavelength, dipole, amplitude, area):
        # Phi from the mode power equals Omega_R^2 / (4 kappa) identically
        inputs = (wavelength, area, dipole, amplitude)
        omega, _, _, kappa, rabi, intensity = _rates(*inputs)
        flux_direct = intensity * area / (budget.HBAR * omega)
        assert rabi**2 / (4.0 * kappa) == pytest.approx(flux_direct, rel=1e-12)
        # and the budget's power and rates close it too
        report = pi_pulse_budget(*inputs)
        flux = report.power_W / (budget.HBAR * report.omega_rad_per_s)
        assert report.rabi_frequency_rad_per_s**2 / (4.0 * report.kappa_per_s) == pytest.approx(
            flux, rel=1e-12)

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, area=areas)
    @settings(max_examples=100, deadline=None)
    def test_ratio_and_photon_error_forms_agree(self, wavelength, dipole, amplitude, area):
        # pi-pulse error via (3 pi/8) kappa/Omega_R == (3 pi^2/32)/nbar
        inputs = (wavelength, area, dipole, amplitude)
        _, _, _, kappa, rabi, _ = _rates(*inputs)
        budget = pi_pulse_budget(*inputs)
        p_ratio = PI_PULSE_RABI_SLOPE * kappa / rabi
        p_photon = PI_PULSE_PHOTON_COEFFICIENT / budget.n_bar
        assert p_ratio == pytest.approx(p_photon, rel=1e-10)

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, area=areas)
    @settings(max_examples=100, deadline=None)
    def test_all_modes_error_counts_photons_near_the_atom(self, wavelength, dipole, amplitude, area):
        # swapping A -> sigma_eff (kappa -> Gamma) turns nbar into nbar'
        inputs = (wavelength, area, dipole, amplitude)
        _, _, gamma, _, rabi, _ = _rates(*inputs)
        budget = pi_pulse_budget(*inputs)
        p_gamma = PI_PULSE_RABI_SLOPE * gamma / rabi
        p_photon = PI_PULSE_PHOTON_COEFFICIENT / budget.n_bar_prime
        assert p_gamma == pytest.approx(p_photon, rel=1e-10)

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, area=areas)
    @settings(max_examples=60, deadline=None)
    def test_photon_count_ratio_is_geometric(self, wavelength, dipole, amplitude, area):
        budget = pi_pulse_budget(wavelength, area, dipole, amplitude)
        assert budget.n_bar / budget.n_bar_prime == pytest.approx(
            area / budget.sigma_eff_m2, rel=1e-12
        )
        if area >= budget.sigma_eff_m2:
            assert budget.n_bar >= budget.n_bar_prime


class TestMinPhotonConstraint:
    def test_required_photons_at_1e4(self):
        report = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=1e-4)
        assert report.required_n_bar_prime == pytest.approx(2.467401100272e4, rel=1e-10)
        assert report.required_n_bar_prime == pytest.approx(PHOTON_THRESHOLD_COEFFICIENT * 1e4)

    def test_margin_linear_in_duration(self):
        # T = pi hbar / (d E0): a third of the dipole triples T, and with it the
        # energy in sigma_eff c T, at the same intensity and photon energy
        r1 = pi_pulse_budget(1e-6, 1e-12, 3e-29, 1e5, epsilon=1e-4)
        r3 = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=1e-4)
        assert r3.duration_s == pytest.approx(3 * r1.duration_s, rel=1e-12)
        assert r3.constraint_margin == pytest.approx(3 * r1.constraint_margin, rel=1e-12)

    def test_verdict_flips_with_epsilon(self):
        inputs = (1e-6, 1e-12, 1e-29, 1e7)
        tight = pi_pulse_budget(*inputs, epsilon=1e-8)
        loose = pi_pulse_budget(*inputs, epsilon=0.5)
        assert not tight.satisfied
        assert loose.satisfied
        assert (tight.constraint_margin > 1.0) == tight.satisfied

    def test_epsilon_bounds(self):
        for bad in (0.0, -1e-3, 1.0, 2.0):
            with pytest.raises(InvalidStateError, match="epsilon must be in"):
                pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=bad)

    def test_fields_are_the_report_lines(self):
        assert PiPulseBudget._fields == (
            "wavelength_m", "mode_area_m2", "omega_rad_per_s", "sigma_eff_m2", "gamma_per_s",
            "kappa_per_s", "rabi_frequency_rad_per_s", "intensity_W_per_m2", "power_W",
            "duration_s", "epsilon", "n_bar", "n_bar_prime", "required_n_bar_prime",
            "energy_in_volume_J", "energy_threshold_J", "constraint_margin",
            "margin_purity_form", "margin_rabi_form", "margin_explicit_form",
            "margin_energy_form", "min_energy_per_lambda3_J")

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, area=areas,
           epsilon=epsilons)
    @settings(max_examples=100, deadline=None)
    def test_fields_follow_their_definitions(self, wavelength, dipole, amplitude, area, epsilon):
        inputs = (wavelength, area, dipole, amplitude)
        report = pi_pulse_budget(*inputs, epsilon=epsilon)
        omega, sigma, gamma, _, rabi, intensity = _rates(*inputs)
        assert (report.wavelength_m, report.mode_area_m2, report.epsilon) == (
            wavelength, area, epsilon)
        # omega = 2 pi c / lambda, Gamma, Omega_R and I as written in _rates
        assert (report.omega_rad_per_s, report.gamma_per_s, report.rabi_frequency_rad_per_s,
                report.intensity_W_per_m2) == (omega, gamma, rabi, intensity)
        assert report.sigma_eff_m2 == pytest.approx(sigma, rel=1e-15)
        assert report.kappa_per_s == gamma * report.sigma_eff_m2 / area
        assert report.power_W == intensity * area
        # a pi pulse: Omega_R T = pi
        assert report.rabi_frequency_rad_per_s * report.duration_s == pytest.approx(
            math.pi, rel=1e-15)
        photon_energy = budget.HBAR * omega
        assert report.energy_threshold_J == pytest.approx(
            PHOTON_THRESHOLD_COEFFICIENT * photon_energy / epsilon, rel=1e-14)
        assert report.energy_in_volume_J / photon_energy == pytest.approx(
            report.n_bar_prime, rel=1e-12)
        assert report.constraint_margin == pytest.approx(
            report.energy_in_volume_J / report.energy_threshold_J, rel=1e-15)
        assert report.margin_energy_form == report.constraint_margin


class TestEmissionMarginChain:
    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, epsilon=epsilons)
    @settings(max_examples=100, deadline=None)
    def test_all_forms_agree_for_pi_pulse(self, wavelength, dipole, amplitude, epsilon):
        margins = pi_pulse_budget(wavelength, 1e-10, dipole, amplitude, epsilon=epsilon)
        assert margins.margin_rabi_form == pytest.approx(margins.margin_purity_form, rel=1e-10)
        assert margins.margin_explicit_form == pytest.approx(margins.margin_purity_form, rel=1e-10)
        assert margins.margin_energy_form == pytest.approx(margins.margin_purity_form, rel=1e-10)

    def test_satisfied_tracks_purity_margin(self):
        inputs = (1e-6, 1e-10, 1e-29, 1e8)
        good = pi_pulse_budget(*inputs, epsilon=0.5)
        assert good.satisfied == (good.margin_purity_form > 1.0)
        bad = pi_pulse_budget(*inputs, epsilon=1e-9)
        assert bad.satisfied == (bad.margin_purity_form > 1.0)


class TestEnergyDensityBound:
    def test_coefficient_value(self):
        report = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=1e-4)
        assert ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT == pytest.approx(16 * math.pi**2 / 3)
        assert ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT == pytest.approx(52.6, rel=1e-3)
        assert report.min_energy_per_lambda3_J == pytest.approx(
            ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT * budget.HBAR / (1e-4 * report.duration_s),
            rel=1e-12,
        )

    def test_doubling_duration_halves_bound(self):
        # halving the field amplitude doubles T = pi hbar / (d E0)
        a = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=1e-4)
        b = pi_pulse_budget(1e-6, 1e-12, 1e-29, 0.5e5, epsilon=1e-4)
        assert b.duration_s == pytest.approx(2 * a.duration_s, rel=1e-12)
        assert a.min_energy_per_lambda3_J == pytest.approx(2 * b.min_energy_per_lambda3_J,
                                                           rel=1e-12)

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, epsilon=epsilons)
    @settings(max_examples=50, deadline=None)
    def test_scaled_bound_is_a_pure_number(self, wavelength, dipole, amplitude, epsilon):
        report = pi_pulse_budget(wavelength, 1e-10, dipole, amplitude, epsilon=epsilon)
        pure = report.min_energy_per_lambda3_J * epsilon * report.duration_s / budget.HBAR
        assert pure == pytest.approx(ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT, rel=1e-12)
        # the per-volume density does carry the wavelength: hbar omega / epsilon
        # spread over sigma_eff c T
        energy_density = report.min_energy_per_lambda3_J / report.wavelength_m**3
        assert energy_density == pytest.approx(
            budget.HBAR * report.omega_rad_per_s
            / (epsilon * report.sigma_eff_m2 * budget.C * report.duration_s),
            rel=1e-12,
        )


class TestRaman:
    def test_reference_verdict(self):
        # Gamma/Delta = 1e-5 passes an epsilon = 1e-4 budget with margin 10
        report = raman_constraint(1e11, 1e9, gamma=1e6, epsilon=1e-4)
        assert report.satisfied
        assert report.purity_loss == pytest.approx(1e-5, rel=1e-12)
        assert report.margin == pytest.approx(10.0, rel=1e-12)

    def test_detuning_elimination_is_exact(self):
        # substituting Delta = Omega_R^2 T / pi must reproduce Gamma/Delta
        report = raman_constraint(3.7e10, 1.1e9, gamma=5e5, epsilon=1e-3)
        assert report.eliminated_lhs == pytest.approx(report.purity_loss, rel=1e-12)

    def test_coefficient_gap_is_pi(self):
        assert RAMAN_ELIMINATION_COEFFICIENT == pytest.approx(math.pi)
        assert RESONANT_CHAIN_COEFFICIENT == pytest.approx(math.pi**2)
        assert RAMAN_COEFFICIENT_GAP == pytest.approx(math.pi, rel=1e-12)

    def test_borderline_margin_is_one(self):
        report = raman_constraint(1e11, 1e9, gamma=1e11 * 1e-4, epsilon=1e-4)
        assert report.margin == pytest.approx(1.0, rel=1e-12)
        assert not report.satisfied  # strict inequality

    def test_pulse_condition_enforced(self):
        # the duration is derived, so the two-photon pulse condition
        # Omega_eff * T = pi holds by construction
        report = raman_constraint(3.7e10, 1.1e9, gamma=1e6, epsilon=1e-4)
        assert report.detuning_rad_per_s == 3.7e10
        assert report.effective_rabi_rad_per_s == pytest.approx(1.1e9**2 / 3.7e10, rel=1e-15)
        assert report.duration_s == math.pi / report.effective_rabi_rad_per_s
        assert report.effective_rabi_rad_per_s * report.duration_s == pytest.approx(math.pi,
                                                                                   rel=1e-15)

    def test_far_detuned_regime_enforced(self):
        with pytest.raises(InvalidStateError, match="far-detuned"):
            raman_constraint(5e9, 1e9, gamma=1e6, epsilon=1e-4)

    @given(detuning=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
           loss=st.floats(min_value=-320.0, max_value=-1e-3).map(lambda e: 10.0**e),
           epsilon=st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True))
    @settings(max_examples=200, deadline=None)
    def test_satisfied_is_purity_loss_below_epsilon(self, detuning, loss, epsilon):
        # the verdict margin > 1 is the literal Gamma/Delta < epsilon, also where
        # epsilon is the purity loss itself or one of its nearest doubles
        gamma = loss * detuning
        purity_loss = gamma / detuning
        below = [purity_loss]
        above = [purity_loss]
        for _ in range(2):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], 1.0))
        for eps in {epsilon, *below, *above}:
            if not (0.0 < eps < 1.0 and 0.0 < gamma < math.inf):
                continue
            try:
                report = raman_constraint(detuning, detuning / 16.0, gamma, eps)
            except FloatingPointError:  # the margin eps / (Gamma/Delta) overflows
                continue
            assert report.purity_loss == purity_loss
            assert report.satisfied == (purity_loss < eps), (detuning, gamma, eps)


class TestAreaSweep:
    def test_kappa_area_product_and_error_columns(self):
        inputs = (1e-6, 1e-12, 1e-29, 1e5)
        report = pi_pulse_budget(*inputs)
        sigma = report.sigma_eff_m2
        sweep = fixed_intensity_area_sweep(report, 4, 1e6)
        assert sweep.area[0] == sigma and sweep.area[-1] == sigma * 1e6
        assert [a / sigma for a in sweep.area] == pytest.approx([1.0, 1e2, 1e4, 1e6], rel=1e-12)
        expected = _rates(*inputs)[2] * sigma
        for product in sweep.kappa_times_area:
            assert product == pytest.approx(expected, rel=1e-12)
        laser_errors = sweep.p_laser
        assert all(b < a for a, b in zip(laser_errors, laser_errors[1:]))
        assert len(set(sweep.p_total)) == 1
        # at the matched area the two error columns coincide
        assert sweep.p_laser[0] == pytest.approx(sweep.p_total[0], rel=1e-12)

    @pytest.mark.parametrize("points,max_factor,error,match", [
        (1, 1e6, InvalidStateError, "area_sweep_points must be >= 2"),
        (0, 1e6, InvalidStateError, "area_sweep_points must be >= 2"),
        (2.5, 1e6, InvalidStateError, "area_sweep_points must be an integer, got 2.5"),
        (3.0, 1e6, InvalidStateError, "area_sweep_points must be an integer, got 3.0"),
        (math.nan, 1e6, InvalidStateError, "area_sweep_points must be an integer, got nan"),
        (7, 1.0, InvalidStateError, "area_sweep_max_factor must be finite and > 1"),
        (7, 0.0, InvalidStateError, "area_sweep_max_factor must be finite and > 1"),
        (7, -1e-12, InvalidStateError, "area_sweep_max_factor must be finite and > 1"),
        (7, math.nan, InvalidStateError, "area_sweep_max_factor must be finite and > 1"),
        (7, math.inf, InvalidStateError, "area_sweep_max_factor must be finite and > 1"),
        (7, 1.7e308, FloatingPointError, "area = inf leaves the double range for these inputs"),
    ], ids=["points-1", "points-0", "points-2.5", "points-3.0", "points-nan", "factor-1",
            "factor-0", "factor-negative", "factor-nan", "factor-inf", "factor-overflows"])
    def test_grid_outside_the_contract_is_refused(self, points, max_factor, error, match):
        # a 10 m wavelength gives sigma_eff = 11.9 m^2, which 1.7e308 overflows
        report = pi_pulse_budget(10.0, 1e3, 1e-29, 1e5)
        with pytest.raises(error, match=match):
            fixed_intensity_area_sweep(report, points, max_factor)

    @pytest.mark.parametrize("sigma_eff", [math.nan, math.inf, 0.0, -1.0])
    def test_record_outside_the_contract_is_refused(self, sigma_eff):
        # a hand-built record is checked, not trusted
        report = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5)
        report = PiPulseBudget(**{**dict(zip(report._fields, report._values())),
                                  "sigma_eff_m2": sigma_eff})
        with pytest.raises(InvalidStateError, match="sigma_eff_m2 must be finite and > 0"):
            fixed_intensity_area_sweep(report, 7, 1e6)

    @pytest.mark.filterwarnings("ignore:mode_area is below")
    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, mode_area=areas,
           points=st.integers(min_value=2, max_value=20),
           max_factor=st.floats(min_value=0.01, max_value=12.0).map(lambda e: 10.0**e))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_the_budget_of_each_beam(self, wavelength, dipole, amplitude, mode_area,
                                              points, max_factor):
        # bit for bit: the sweep computes each row as pi_pulse_budget does
        report = pi_pulse_budget(wavelength, mode_area, dipole, amplitude)
        sweep = fixed_intensity_area_sweep(report, points, max_factor)
        sigma = report.sigma_eff_m2
        assert len(sweep.area) == points
        assert sweep.area[0] == sigma and sweep.area[-1] == sigma * max_factor
        for area, kappa, n_bar in zip(sweep.area, sweep.kappa, sweep.n_bar):
            report = pi_pulse_budget(wavelength, area, dipole, amplitude)
            assert (kappa, n_bar) == (report.kappa_per_s, report.n_bar)


class TestUnitRescaling:
    @pytest.mark.parametrize("scale", [1024.0, 1000.0, 1.0 / 4096.0])
    def test_dimensionless_outputs_survive_time_unit_change(self, scale, monkeypatch):
        # rates scale by s, times by 1/s, hbar by 1/s, c by s; every
        # dimensionless output and every energy must be unchanged
        wavelength, dipole, amplitude, area = 7.8e-7, 2.3e-29, 4.2e5, 3.1e-12
        epsilon = 1e-4
        inputs = (wavelength, area, dipole, amplitude)

        # dimensionless pi-pulse error via rates
        def p_laser():
            _, _, _, kappa, rabi, _ = _rates(*inputs)
            return PI_PULSE_RABI_SLOPE * kappa / rabi

        budget_a, p_a = pi_pulse_budget(*inputs, epsilon=epsilon), p_laser()
        monkeypatch.setattr(budget, "HBAR", budget.HBAR / scale)
        monkeypatch.setattr(budget, "C", budget.C * scale)
        budget_b, p_b = pi_pulse_budget(*inputs, epsilon=epsilon), p_laser()
        # the patched constants are the ones read: the Rabi rate is in the new unit
        assert budget_b.rabi_frequency_rad_per_s == pytest.approx(
            budget_a.rabi_frequency_rad_per_s * scale, rel=1e-12)
        assert budget_b.n_bar == pytest.approx(budget_a.n_bar, rel=1e-12)
        assert budget_b.n_bar_prime == pytest.approx(budget_a.n_bar_prime, rel=1e-12)
        assert budget_b.margin_purity_form == pytest.approx(budget_a.margin_purity_form,
                                                            rel=1e-12)
        assert budget_b.margin_energy_form == pytest.approx(budget_a.margin_energy_form,
                                                            rel=1e-12)
        assert budget_b.constraint_margin == pytest.approx(budget_a.constraint_margin, rel=1e-12)
        assert budget_b.energy_in_volume_J == pytest.approx(budget_a.energy_in_volume_J,
                                                            rel=1e-12)
        assert p_b == pytest.approx(p_a, rel=1e-12)


class TestConstants:
    def test_codata_values(self):
        assert budget.HBAR == 1.054571817e-34
        assert budget.C == 2.99792458e8
        assert budget.EPSILON0 == 8.8541878128e-12


# each budget input, as a call with that input replaced by ``bad``
ONE_BAD_INPUT = {
    "beam-wavelength": lambda bad: pi_pulse_budget(bad, 1e-12, 1e-29, 1e5),
    "beam-area": lambda bad: pi_pulse_budget(1e-6, bad, 1e-29, 1e5),
    "atom-dipole": lambda bad: pi_pulse_budget(1e-6, 1e-12, bad, 1e5),
    "field": lambda bad: pi_pulse_budget(1e-6, 1e-12, 1e-29, bad),
    "raman-detuning": lambda bad: raman_constraint(bad, 1e9, 1e7, 1e-4),
    "raman-rabi": lambda bad: raman_constraint(1e12, bad, 1e7, 1e-4),
    "photon-budget": lambda bad: pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=bad),
    "raman-gamma": lambda bad: raman_constraint(1e12, 1e9, bad, 1e-4),
    "raman-epsilon": lambda bad: raman_constraint(1e12, 1e9, 1e7, bad),
    "drive-ratio": lambda bad: drive_ratio_for_photons(math.pi, bad),
}
# a NaN keeps the input's own id; the other bad values add theirs
BAD_VALUES = {"": math.nan, "-inf": math.inf, "-minus-inf": -math.inf, "-zero": 0.0,
              "-negative": -1e-3}


class TestNaNInputs:
    # every input is checked for finite and > 0, or epsilon for (0, 1), before
    # any arithmetic, so NaN, +-inf, 0 and a negative value all fail it
    @pytest.mark.parametrize("build,bad", [
        (build, bad) for build in ONE_BAD_INPUT.values() for bad in BAD_VALUES.values()
    ], ids=[name + suffix for name in ONE_BAD_INPUT for suffix in BAD_VALUES])
    def test_nan_input_is_refused(self, build, bad):
        with pytest.raises(InvalidStateError, match="must be"):
            build(bad)


class TestRangeFailures:
    """A derived value that leaves the double range is a FloatingPointError
    that names it, once every input has been checked: raised where the
    arithmetic first fails, or else by the finiteness check of the returned
    record, which names its first non-finite field."""

    @pytest.mark.filterwarnings("ignore:mode_area is below")
    @pytest.mark.parametrize("inputs,message", [
        ((1e150, 1e-12, 1e-29, 1e5),
         "Gamma = omega^3 d^2 / (3 pi eps0 hbar c^3) = 0.0 leaves the positive double range"),
        ((1e-120, 1e-12, 1e-29, 1e5),
         "Gamma = omega^3 d^2 / (3 pi eps0 hbar c^3) leaves the double range"),
        ((1e-6, 1e-12, 1e200, 1e-250),
         "Gamma = omega^3 d^2 / (3 pi eps0 hbar c^3) leaves the double range"),
        ((1e170, 1e-12, 1e-29, 1e5), "sigma_eff = 3 pi / (2 k^2) leaves the double range"),
        ((1e-6, 1e-12, 1e-29, 1e160), "I = eps0 c E0^2 / 2 leaves the double range"),
        ((1e-6, 1e-12, 1e-29, 1e-205), "a margin form leaves the double range"),
    ], ids=["gamma-underflows", "omega-cubed-overflows", "dipole-squared-overflows",
            "k-squared-underflows", "field-squared-overflows", "margin-form-overflows"])
    def test_value_out_of_range_is_named(self, inputs, message):
        with pytest.raises(FloatingPointError, match=re.escape(message) + " for these inputs$"):
            pi_pulse_budget(*inputs)

    @pytest.mark.filterwarnings("ignore:mode_area is below")
    def test_an_underflowed_gamma_follows_the_epsilon_refusal(self):
        # Gamma = 0 is found where the margins would divide by it, after epsilon
        with pytest.raises(InvalidStateError, match="epsilon must be in"):
            pi_pulse_budget(1e150, 1e-12, 1e-29, 1e5, epsilon=2.0)

    def test_input_refusals_precede_an_overflow(self):
        # epsilon is refused before omega^3 would overflow inside Gamma
        with pytest.raises(InvalidStateError, match="epsilon must be in"):
            pi_pulse_budget(1e-100, 1e-12, 1e-29, 1e5, epsilon=2.0)
        # and the dipole before k^2 would underflow inside sigma_eff
        with pytest.raises(InvalidStateError, match="dipole must be finite and > 0, got 0"):
            pi_pulse_budget(1e170, 1e-12, 0, 1e5)

    @pytest.mark.parametrize("detuning,rabi,message", [
        (1e200, 1e-96, "Omega_eff = Omega_R^2 / Delta = 0.0 leaves the positive double range"),
        (1e300, 1e160, "Omega_eff = Omega_R^2 / Delta leaves the double range"),
    ], ids=["underflows", "squared-rabi-overflows"])
    def test_raman_effective_rabi_out_of_range_is_named(self, detuning, rabi, message):
        # T = pi / Omega_eff cannot be formed from a zero or unformed Omega_eff
        with pytest.raises(FloatingPointError, match=re.escape(message) + " for these inputs$"):
            raman_constraint(detuning, rabi, 1e7, 1e-4)

    def test_raman_refusals_keep_their_order(self):
        with pytest.raises(InvalidStateError, match="^detuning must be finite and > 0"):
            raman_constraint(-1.0, -1.0, math.nan, 2.0)
        with pytest.raises(InvalidStateError, match="^rabi_frequency must be finite and > 0"):
            raman_constraint(1e9, -1.0, math.nan, 2.0)
        with pytest.raises(InvalidStateError, match="far-detuned"):
            raman_constraint(1e9, 1e9, math.nan, 2.0)
        with pytest.raises(InvalidStateError, match="epsilon must be in"):
            raman_constraint(1e12, 1e9, math.nan, 2.0)
        with pytest.raises(InvalidStateError, match="gamma must be finite and > 0"):
            raman_constraint(1e12, 1e9, math.nan, 1e-4)

    @pytest.mark.parametrize("build,message", [
        (lambda: pi_pulse_budget(1e-6, 1e305, 1e-29, 1e5), "power_W = inf leaves the double range"),
        (lambda: raman_constraint(1e300, 1e-5, 1e7, 1e-4),
         "duration_s = inf leaves the double range"),
        (lambda: raman_constraint(1e20, 1e9, 1e-300, 1e-4), "margin = inf leaves the double range"),
        # Gamma / Delta rounds to 0, which the margin would divide by
        (lambda: raman_constraint(1e300, 1e-5, 1e-30, 1e-4),
         "Gamma / Delta = 0.0 leaves the positive double range"),
        # a subnormal epsilon times T = 3e-34 s rounds to 0
        (lambda: pi_pulse_budget(1.0, 1.0, 1.0, 1.0, epsilon=5e-324),
         "(16 pi^2 / 3) hbar / (epsilon T) leaves the double range"),
        # eps / (Gamma T) is about 5.6e-328, below the least subnormal double,
        # so all four forms round to 0 and agree on a margin that is no result
        (lambda: pi_pulse_budget(1.0750616545333907e-86, 1327378610534.6772,
                                 7.118342115769625e-06, 1.276259350320446e-42,
                                 epsilon=2.3576311535107314e-20),
         "constraint_margin = 0.0 leaves the positive double range"),
    ], ids=["power-overflows", "raman-duration-overflows", "raman-margin-overflows",
            "raman-purity-loss-underflows", "energy-floor-divides-by-zero",
            "margin-underflows-on-every-route"])
    def test_value_computed_without_error_is_named(self, build, message):
        # each value is formed without an error of its own, and is refused by
        # the record's finiteness check, before a division by it, or, for a
        # margin of 0, once its record is checked
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)} for these inputs$"):
            build()


# log-uniform over the positive doubles, from the subnormals to the largest powers of ten
anywhere = st.floats(min_value=-320.0, max_value=308.0).map(lambda e: 10.0**e)
open_unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True, exclude_max=True)


def _all_finite(record):
    values = [v for value in record._values()
              for v in (value if isinstance(value, tuple) else (value,))]
    return all(math.isfinite(v) for v in values)


class TestRecordsAreFinite:
    """Over the whole double range, each budget function refuses its inputs
    or returns a record whose every value, and every column entry, is finite."""

    @pytest.mark.filterwarnings("ignore:mode_area is below")
    @given(wavelength=anywhere, mode_area=anywhere, dipole=anywhere, field=anywhere,
           epsilon=open_unit, points=st.integers(min_value=2, max_value=5), max_factor=anywhere,
           detuning=anywhere, rabi=anywhere, gamma=anywhere)
    @settings(max_examples=200, deadline=None)
    def test_refused_or_finite(self, wavelength, mode_area, dipole, field, epsilon, points,
                               max_factor, detuning, rabi, gamma):
        try:
            raman = raman_constraint(detuning, rabi, gamma, epsilon)
        except (InvalidStateError, FloatingPointError):
            pass
        else:
            assert _all_finite(raman), raman
        try:
            report = pi_pulse_budget(wavelength, mode_area, dipole, field, epsilon)
        except (InvalidStateError, FloatingPointError):
            return
        assert _all_finite(report), report
        try:
            sweep = fixed_intensity_area_sweep(report, points, max_factor)
        except (InvalidStateError, FloatingPointError):
            return
        assert _all_finite(sweep), sweep


def _sweep_of(sigma_eff, points, max_factor):
    """The area sweep of a budget record whose ``sigma_eff_m2`` is ``sigma_eff``."""
    report = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5)
    report = PiPulseBudget(**{**dict(zip(report._fields, report._values())),
                              "sigma_eff_m2": sigma_eff})
    return fixed_intensity_area_sweep(report, points, max_factor)


# each budget entry point, a strategy per argument, and the arguments it
# must refuse when bad; an epsilon is drawn from ``open_unit``
ENTRY_POINTS = {
    "pi_pulse_budget": (pi_pulse_budget, (anywhere,) * 4 + (open_unit,), range(5)),
    "raman_constraint": (raman_constraint, (anywhere, anywhere, anywhere, open_unit), range(4)),
    "fixed_intensity_area_sweep": (_sweep_of, (anywhere, st.integers(2, 5), anywhere), [0]),
    "drive_ratio_for_photons": (drive_ratio_for_photons, (anywhere, anywhere), [1]),
}
bad_values = st.sampled_from([math.nan, math.inf, -math.inf, 0.0]) | anywhere.map(lambda x: -x)
bad_epsilons = bad_values | st.floats(min_value=1.0)


class TestInputsAreRefusedFirst:
    @given(entry=st.sampled_from(sorted(ENTRY_POINTS)), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_bad_input_is_refused_whatever_the_others_are(self, entry, data):
        # one bad input is refused before any arithmetic could under- or
        # overflow on the others, which range over the whole double range
        function, strategies, checked = ENTRY_POINTS[entry]
        args = [data.draw(strategy) for strategy in strategies]
        spoiled = data.draw(st.sampled_from(checked))
        args[spoiled] = data.draw(bad_epsilons if strategies[spoiled] is open_unit else bad_values)
        with pytest.raises(InvalidStateError):
            function(*args)
