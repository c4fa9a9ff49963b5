import itertools
import math
import re
import sys

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from lasergate import budget
from lasergate.budget import (
    ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT,
    INPUT_BOX,
    PHOTON_THRESHOLD_COEFFICIENT,
    RAMAN_ELIMINATION_COEFFICIENT,
    RESONANT_CHAIN_COEFFICIENT,
    PiPulseBudget,
    fixed_intensity_area_sweep,
    pi_pulse_budget,
    raman_constraint,
)
from lasergate.qcore import InvalidStateError
from oracles import PI_PULSE_PHOTON_COEFFICIENT, PI_PULSE_RABI_SLOPE

# log-uniform physical parameter ranges for the randomized identity checks
wavelengths = st.floats(min_value=-7.0, max_value=-5.0).map(lambda e: 10.0**e)
dipoles = st.floats(min_value=-30.0, max_value=-28.0).map(lambda e: 10.0**e)
amplitudes = st.floats(min_value=2.0, max_value=7.0).map(lambda e: 10.0**e)
epsilons = st.floats(min_value=-6.0, max_value=-1.0).map(lambda e: 10.0**e)


def _beam(wavelength, log_factor):
    """(wavelength, mode_area), the area sigma_eff * 10**log_factor: sigma_eff is
    the budget's own, so a log_factor of 0 gives the narrowest beam it accepts."""
    sigma = pi_pulse_budget(wavelength, 1.0, 1e-29, 1e5).sigma_eff_m2
    return wavelength, sigma * 10.0**log_factor


# beams no narrower than sigma_eff, up to 1e5 times wider
beams = st.builds(_beam, wavelengths, st.floats(min_value=0.0, max_value=5.0))


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

    def test_subwavelength_focus_is_refused(self):
        # kappa = Gamma sigma_eff / A holds only for A >= sigma_eff: the matched
        # beam runs, and a narrower one is refused, also at the longest wavelength
        sigma = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5).sigma_eff_m2
        assert pi_pulse_budget(1e-6, sigma, 1e-29, 1e5).mode_area_m2 == sigma
        for wavelength, area, sigma_text in [(1e-6, 1e-14, repr(sigma)),
                                             (1e-6, math.nextafter(sigma, 0.0), repr(sigma)),
                                             (1.0, 1e-3, "0.1193662073189215")]:
            message = (f"mode_area must be >= sigma_eff = 3 lambda^2 / (8 pi) = {sigma_text}"
                       f" m^2, got {area!r}")
            with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
                pi_pulse_budget(wavelength, area, 1e-29, 1e5)

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InvalidStateError,
                           match=r"^wavelength must be in \(1e-11, 1\], got 0\.0$"):
            pi_pulse_budget(0.0, 1e-12, 1e-29, 1e5)
        with pytest.raises(InvalidStateError,
                           match=r"^mode_area must be in \(0, 10000\], got -1\.0$"):
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


class TestPhotonRelations:
    def test_error_vs_photons_reference(self):
        # p = c' / nbar with c' = 3 pi^2 / 32: 0.93 / 1e6 ~ 9.3e-7
        assert PI_PULSE_PHOTON_COEFFICIENT / 1e6 == pytest.approx(9.3e-7, rel=0.01)
        assert PI_PULSE_PHOTON_COEFFICIENT / 1e12 < 1e-11

    @given(beam=beams, dipole=dipoles, amplitude=amplitudes)
    @settings(max_examples=100, deadline=None)
    def test_flux_relation_closes_the_chain(self, beam, dipole, amplitude):
        wavelength, area = beam
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

    @given(beam=beams, dipole=dipoles, amplitude=amplitudes)
    @settings(max_examples=100, deadline=None)
    def test_ratio_and_photon_error_forms_agree(self, beam, dipole, amplitude):
        wavelength, area = beam
        # pi-pulse error via (3 pi/8) kappa/Omega_R == (3 pi^2/32)/nbar
        inputs = (wavelength, area, dipole, amplitude)
        _, _, _, kappa, rabi, _ = _rates(*inputs)
        budget = pi_pulse_budget(*inputs)
        p_ratio = PI_PULSE_RABI_SLOPE * kappa / rabi
        p_photon = PI_PULSE_PHOTON_COEFFICIENT / budget.n_bar
        assert p_ratio == pytest.approx(p_photon, rel=1e-10)

    @given(beam=beams, dipole=dipoles, amplitude=amplitudes)
    @settings(max_examples=100, deadline=None)
    def test_all_modes_error_counts_photons_near_the_atom(self, beam, dipole, amplitude):
        wavelength, area = beam
        # swapping A -> sigma_eff (kappa -> Gamma) turns nbar into nbar'
        inputs = (wavelength, area, dipole, amplitude)
        _, _, gamma, _, rabi, _ = _rates(*inputs)
        budget = pi_pulse_budget(*inputs)
        p_gamma = PI_PULSE_RABI_SLOPE * gamma / rabi
        p_photon = PI_PULSE_PHOTON_COEFFICIENT / budget.n_bar_prime
        assert p_gamma == pytest.approx(p_photon, rel=1e-10)

    @given(beam=beams, dipole=dipoles, amplitude=amplitudes)
    @settings(max_examples=60, deadline=None)
    def test_photon_count_ratio_is_geometric(self, beam, dipole, amplitude):
        wavelength, area = beam
        budget = pi_pulse_budget(wavelength, area, dipole, amplitude)
        assert budget.n_bar / budget.n_bar_prime == pytest.approx(
            area / budget.sigma_eff_m2, rel=1e-12
        )
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
        # the box's edges: its least is refused, its greatest accepted
        assert pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=0.5).epsilon == 0.5
        for bad in (0.0, -1e-3, 1e-15, math.nextafter(0.5, 1.0), 1.0, 2.0):
            with pytest.raises(InvalidStateError, match=r"^epsilon must be in \(1e-15, 0\.5\]"):
                pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=bad)

    def test_fields_are_the_report_lines(self):
        assert PiPulseBudget._fields == (
            "wavelength_m", "mode_area_m2", "omega_rad_per_s", "sigma_eff_m2", "gamma_per_s",
            "kappa_per_s", "rabi_frequency_rad_per_s", "intensity_W_per_m2", "power_W",
            "duration_s", "epsilon", "n_bar", "n_bar_prime", "required_n_bar_prime",
            "energy_in_volume_J", "energy_threshold_J", "constraint_margin",
            "margin_purity_form", "margin_rabi_form", "margin_explicit_form",
            "margin_energy_form", "min_energy_per_lambda3_J")

    @given(beam=beams, dipole=dipoles, amplitude=amplitudes, epsilon=epsilons)
    @settings(max_examples=100, deadline=None)
    def test_fields_follow_their_definitions(self, beam, dipole, amplitude, epsilon):
        wavelength, area = beam
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
    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_all_forms_agree_for_pi_pulse(self, data):
        # anywhere inside the box, A from sigma_eff up
        wavelength = data.draw(_in_box("wavelength"))
        sigma = pi_pulse_budget(wavelength, 1.0, 1e-29, 1e5).sigma_eff_m2
        _assert_margins_agree(pi_pulse_budget(
            wavelength, data.draw(_in_box("mode_area", sigma)),
            *(data.draw(_in_box(name)) for name in ("dipole", "field_amplitude", "epsilon"))))

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
        rabi, gamma = 1.1e9, 5e5
        report = raman_constraint(3.7e10, rabi, gamma=gamma, epsilon=1e-3)
        eliminated = RAMAN_ELIMINATION_COEFFICIENT * gamma / (rabi**2 * report.duration_s)
        assert eliminated == pytest.approx(report.purity_loss, rel=1e-12)

    def test_coefficient_gap_is_pi(self):
        assert RAMAN_ELIMINATION_COEFFICIENT == pytest.approx(math.pi)
        assert RESONANT_CHAIN_COEFFICIENT == pytest.approx(math.pi**2)
        assert RESONANT_CHAIN_COEFFICIENT / RAMAN_ELIMINATION_COEFFICIENT == \
            pytest.approx(math.pi, rel=1e-12)

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

    @given(detuning=st.floats(min_value=-11.0, max_value=18.0).map(lambda e: 10.0**e),
           loss=st.floats(min_value=-15.0, max_value=-0.302).map(lambda e: 10.0**e),
           epsilon=st.floats(min_value=1e-15, max_value=0.5, exclude_min=True))
    @settings(max_examples=200, deadline=None)
    def test_satisfied_is_purity_loss_below_epsilon(self, detuning, loss, epsilon):
        # the verdict margin > 1 is the literal Gamma/Delta < epsilon, also where
        # epsilon is the purity loss itself or one of its nearest doubles; a
        # Gamma of loss * Delta stays inside its range, from 1e-26 to 1e18
        gamma = loss * detuning
        purity_loss = gamma / detuning
        below = [purity_loss]
        above = [purity_loss]
        for _ in range(2):
            below.append(math.nextafter(below[-1], 0.0))
            above.append(math.nextafter(above[-1], 1.0))
        for eps in {epsilon, *below, *above}:
            if not 1e-15 < eps <= 0.5:  # outside the epsilon range
                continue
            report = raman_constraint(detuning, detuning / 16.0, gamma, eps)
            assert report.purity_loss == purity_loss
            assert report.satisfied == (purity_loss < eps), (detuning, gamma, eps)


class TestAreaSweep:
    def test_kappa_area_product_and_error_columns(self):
        inputs = (1e-6, 1e-12, 1e-29, 1e5)
        report = pi_pulse_budget(*inputs)
        sigma = report.sigma_eff_m2
        sweep = fixed_intensity_area_sweep(report, 4)
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

    def test_no_area_rounds_below_sigma_eff(self):
        # the narrowest sweep, at the longest wavelength, spans 4.9 decades:
        # even at 1e5 points each area lies 1e-4 above the one before, far
        # past the few ulps by which logspace may round, so none falls below
        # sigma_eff, where kappa would exceed Gamma
        report = pi_pulse_budget(1.0, 1.0, 1e-29, 1e5)
        sweep = fixed_intensity_area_sweep(report, 10**5)
        assert sweep.area[0] == report.sigma_eff_m2
        assert all(a < b for a, b in zip(sweep.area, sweep.area[1:]))
        assert max(sweep.kappa) == sweep.kappa[0]  # the kappa of a beam of area sigma_eff

    def test_sweep_stops_at_the_greatest_mode_area(self):
        # sigma_eff * AREA_SWEEP_FACTOR passes 1e4 m^2 above a wavelength of
        # 0.29 m; there the sweep ends at the greatest mode_area, exactly
        for wavelength in (1.0, 0.3, 0.28, 1e-6):
            report = pi_pulse_budget(wavelength, 1.0, 1e-29, 1e5)
            sweep = fixed_intensity_area_sweep(report, 7)
            widest = report.sigma_eff_m2 * budget.AREA_SWEEP_FACTOR
            largest = 1e4 if wavelength > 0.29 else widest
            assert sweep.area[-1] == largest == max(sweep.area) <= INPUT_BOX["mode_area"][1]
            pi_pulse_budget(wavelength, largest, 1e-29, 1e5)  # a beam the budget accepts

    @pytest.mark.parametrize("points,message", [
        (1, "area_sweep_points must be >= 2"),
        (0, "area_sweep_points must be >= 2"),
        (2.5, "area_sweep_points must be an integer, got 2.5"),
        (3.0, "area_sweep_points must be an integer, got 3.0"),
        (math.nan, "area_sweep_points must be an integer, got nan"),
    ], ids=["points-1", "points-0", "points-2.5", "points-3.0", "points-nan"])
    def test_grid_outside_the_contract_is_refused(self, points, message):
        report = pi_pulse_budget(1.0, 1e3, 1e-29, 1e5)
        with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
            fixed_intensity_area_sweep(report, points)

    @given(beam=beams, dipole=dipoles, amplitude=amplitudes,
           points=st.integers(min_value=2, max_value=20))
    @settings(max_examples=50, deadline=None)
    def test_rows_are_the_budget_of_each_beam(self, beam, dipole, amplitude, points):
        # bit for bit: the sweep computes each row as pi_pulse_budget does,
        # from its first row at A = sigma_eff, the narrowest beam the budget accepts
        wavelength, mode_area = beam
        report = pi_pulse_budget(wavelength, mode_area, dipole, amplitude)
        sweep = fixed_intensity_area_sweep(report, points)
        sigma = report.sigma_eff_m2
        assert len(sweep.area) == points
        assert sweep.area[0] == sigma and sweep.area[-1] == sigma * budget.AREA_SWEEP_FACTOR
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


# each budget input, as its INPUT_BOX name and a call with that input replaced by ``bad``
ONE_BAD_INPUT = {
    "beam-wavelength": ("wavelength", lambda bad: pi_pulse_budget(bad, 1e-12, 1e-29, 1e5)),
    "beam-area": ("mode_area", lambda bad: pi_pulse_budget(1e-6, bad, 1e-29, 1e5)),
    "atom-dipole": ("dipole", lambda bad: pi_pulse_budget(1e-6, 1e-12, bad, 1e5)),
    "field": ("field_amplitude", lambda bad: pi_pulse_budget(1e-6, 1e-12, 1e-29, bad)),
    "raman-detuning": ("detuning", lambda bad: raman_constraint(bad, 1e9, 1e7, 1e-4)),
    "raman-rabi": ("rabi_frequency", lambda bad: raman_constraint(1e12, bad, 1e7, 1e-4)),
    "photon-budget": ("epsilon",
                      lambda bad: pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=bad)),
    "raman-gamma": ("gamma", lambda bad: raman_constraint(1e12, 1e9, bad, 1e-4)),
    "raman-epsilon": ("epsilon", lambda bad: raman_constraint(1e12, 1e9, 1e7, bad)),
}
# a NaN keeps the input's own id; the other bad values add theirs
BAD_VALUES = {"": math.nan, "-inf": math.inf, "-minus-inf": -math.inf, "-zero": 0.0,
              "-negative": -1e-3}


class TestNaNInputs:
    # every input is checked against its INPUT_BOX range before any arithmetic,
    # so NaN, +-inf, 0 and a negative value all fail it, and are refused by name
    @pytest.mark.parametrize("name,build,bad", [
        (name, build, bad) for name, build in ONE_BAD_INPUT.values() for bad in BAD_VALUES.values()
    ], ids=[name + suffix for name in ONE_BAD_INPUT for suffix in BAD_VALUES])
    def test_nan_input_is_refused(self, name, build, bad):
        with pytest.raises(InvalidStateError, match=f"^{name} must be in \\("):
            build(bad)


class TestRangeFailures:
    """Inputs that would drive a derived value out of the double range, one
    row per value and named after it, lie outside :data:`INPUT_BOX`.  Each is
    refused with :class:`InvalidStateError` naming its first input outside its
    range, before any arithmetic."""

    @pytest.mark.parametrize("inputs,message", [
        ((1e150, 1e300, 1e-29, 1e5), "wavelength must be in (1e-11, 1], got 1e+150"),
        ((1e-120, 1e-12, 1e-29, 1e5), "wavelength must be in (1e-11, 1], got 1e-120"),
        ((1e-6, 1e-12, 1e200, 1e-250), "dipole must be in (1e-40, 1e-24], got 1e+200"),
        ((1e170, 1e-12, 1e-29, 1e5), "wavelength must be in (1e-11, 1], got 1e+170"),
        ((1e-6, 1e-12, 1e-29, 1e160), "field_amplitude must be in (1e-06, 1e+12], got 1e+160"),
        ((1e-6, 1e-12, 1e-29, 1e-205), "field_amplitude must be in (1e-06, 1e+12], got 1e-205"),
    ], ids=["gamma-underflows", "omega-cubed-overflows", "dipole-squared-overflows",
            "k-squared-underflows", "field-squared-overflows", "margin-form-overflows"])
    def test_value_out_of_range_is_named(self, inputs, message):
        with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
            pi_pulse_budget(*inputs)

    @pytest.mark.parametrize("inputs,message", [
        ((1e150, 1e300, 1e-29, 1e5, 2.0), "wavelength must be in (1e-11, 1], got 1e+150"),
        ((1e-6, 1e300, 1e-29, 1e5, 2.0), "mode_area must be in (0, 10000], got 1e+300"),
        ((1e-6, 1e-12, 1e-29, 1e5, 2.0), "epsilon must be in (1e-15, 0.5], got 2.0"),
    ], ids=["wavelength", "mode-area", "epsilon"])
    def test_refusals_follow_the_argument_order(self, inputs, message):
        # the first input outside its range is named, whatever the later ones are;
        # the first row's beam would underflow Gamma to 0
        with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
            pi_pulse_budget(*inputs)

    def test_input_refusals_precede_an_overflow(self):
        # omega^3 would overflow inside Gamma, and k^2 underflow inside
        # sigma_eff: the wavelength is refused before either is formed
        with pytest.raises(InvalidStateError, match=r"^wavelength must be in .*, got 1e-100$"):
            pi_pulse_budget(1e-100, 1e-12, 1e-29, 1e5, epsilon=2.0)
        with pytest.raises(InvalidStateError, match=r"^wavelength must be in .*, got 1e\+170$"):
            pi_pulse_budget(1e170, 1e-12, 0, 1e5)

    @pytest.mark.parametrize("detuning,rabi,message", [
        (1e18, 1e-96, "rabi_frequency must be in (1e-13, 1e+22], got 1e-96"),
        (1e300, 1e160, "detuning must be in (0, 1e+18], got 1e+300"),
    ], ids=["underflows", "squared-rabi-overflows"])
    def test_raman_effective_rabi_out_of_range_is_named(self, detuning, rabi, message):
        # Omega_eff = Omega_R^2 / Delta would round to 0, or overflow, here
        with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
            raman_constraint(detuning, rabi, 1e7, 1e-4)

    def test_raman_refusals_keep_their_order(self):
        with pytest.raises(InvalidStateError, match="^detuning must be in"):
            raman_constraint(-1.0, -1.0, math.nan, 2.0)
        with pytest.raises(InvalidStateError, match="^rabi_frequency must be in"):
            raman_constraint(1e9, -1.0, math.nan, 2.0)
        with pytest.raises(InvalidStateError, match="far-detuned"):
            raman_constraint(1e9, 1e9, math.nan, 2.0)
        with pytest.raises(InvalidStateError, match="^epsilon must be in"):
            raman_constraint(1e12, 1e9, math.nan, 2.0)
        with pytest.raises(InvalidStateError, match="^gamma must be in"):
            raman_constraint(1e12, 1e9, math.nan, 1e-4)

    @pytest.mark.parametrize("build,message", [
        (lambda: pi_pulse_budget(1e-6, 1e305, 1e-29, 1e5),
         "mode_area must be in (0, 10000], got 1e+305"),
        (lambda: raman_constraint(1e300, 1e-5, 1e7, 1e-4),
         "detuning must be in (0, 1e+18], got 1e+300"),
        (lambda: raman_constraint(1e18, 1e9, 1e-300, 1e-4),
         "gamma must be in (1e-35, 1e+32], got 1e-300"),
        (lambda: raman_constraint(1e18, 1e-5, 1e-40, 1e-4),
         "gamma must be in (1e-35, 1e+32], got 1e-40"),
        (lambda: pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5, epsilon=5e-324),
         "epsilon must be in (1e-15, 0.5], got 5e-324"),
        (lambda: pi_pulse_budget(1.0750616545333907e-86, 1327378610534.6772,
                                 7.118342115769625e-06, 1.276259350320446e-42,
                                 epsilon=2.3576311535107314e-20),
         "wavelength must be in (1e-11, 1], got 1.0750616545333907e-86"),
    ], ids=["power-overflows", "raman-duration-overflows", "raman-margin-overflows",
            "raman-purity-loss-underflows", "energy-floor-divides-by-zero",
            "margin-underflows-on-every-route"])
    def test_value_computed_without_error_is_named(self, build, message):
        # each value would be formed without an error of its own, as inf, nan
        # or 0; its inputs are refused before it is formed
        with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
            build()


def _log_uniform(low: float, high: float):
    """10**e for e uniform in [``low``, ``high``]."""
    return st.floats(min_value=low, max_value=high).map(lambda e: 10.0**e)


def _in_box(name: str, least: float | None = None):
    """Log-uniform over the INPUT_BOX range of ``name``, or from ``least`` up."""
    low, high = INPUT_BOX[name]
    low = low if least is None else least
    return _log_uniform(math.log10(low), math.log10(high)).filter(lambda x: low < x <= high)


# log-uniform over the positive doubles, from the subnormals to the largest powers of ten
anywhere = _log_uniform(-320.0, 308.0)


def _all_normal(record):
    values = [v for value in record for v in (value if isinstance(value, tuple) else (value,))]
    return all(sys.float_info.min <= v <= sys.float_info.max for v in values)


class TestRecordsAreFinite:
    """Over the whole double range, each budget function refuses its inputs
    or returns a record whose every value, and every column entry, is a
    positive normal double.  Each input is drawn from anywhere or from its
    INPUT_BOX range, so that some draws are accepted."""

    @given(wavelength=anywhere | _in_box("wavelength"),
           mode_area=anywhere | _in_box("mode_area", 1e-23),
           dipole=anywhere | _in_box("dipole"), field=anywhere | _in_box("field_amplitude"),
           epsilon=anywhere | _in_box("epsilon"), points=st.integers(min_value=2, max_value=5),
           detuning=anywhere | _in_box("detuning", 1e-12),
           rabi=anywhere | _in_box("rabi_frequency"), gamma=anywhere | _in_box("gamma"))
    @settings(max_examples=200, deadline=None)
    def test_refused_or_finite(self, wavelength, mode_area, dipole, field, epsilon, points,
                               detuning, rabi, gamma):
        try:
            raman = raman_constraint(detuning, rabi, gamma, epsilon)
        except InvalidStateError:
            pass
        else:
            assert _all_normal(raman), raman
        try:
            report = pi_pulse_budget(wavelength, mode_area, dipole, field, epsilon)
        except InvalidStateError:
            return
        assert _all_normal(report), report
        try:
            sweep = fixed_intensity_area_sweep(report, points)
        except InvalidStateError:
            return
        assert _all_normal(sweep), sweep


def _outside(name: str):
    """Values outside the INPUT_BOX range of ``name``: NaN, +-inf, 0, negative
    values, its least and values above its greatest."""
    least, greatest = INPUT_BOX[name]
    return (st.sampled_from([math.nan, math.inf, -math.inf, 0.0, least])
            | anywhere.map(lambda x: -x) | st.floats(min_value=greatest, exclude_min=True))


# each budget entry point, a strategy per argument, and the INPUT_BOX name of
# each argument it must refuse when outside its range
ENTRY_POINTS = {
    "pi_pulse_budget": (pi_pulse_budget, (anywhere,) * 5, {
        0: "wavelength", 1: "mode_area", 2: "dipole", 3: "field_amplitude", 4: "epsilon"}),
    "raman_constraint": (raman_constraint, (anywhere,) * 4, {
        0: "detuning", 1: "rabi_frequency", 2: "gamma", 3: "epsilon"}),
}


class TestInputsAreRefusedFirst:
    @given(entry=st.sampled_from(sorted(ENTRY_POINTS)), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_bad_input_is_refused_whatever_the_others_are(self, entry, data):
        # one input outside its range is refused before any arithmetic could
        # under- or overflow on the others, which range over the whole double range
        function, strategies, checked = ENTRY_POINTS[entry]
        args = [data.draw(strategy) for strategy in strategies]
        spoiled = data.draw(st.sampled_from(sorted(checked)))
        args[spoiled] = data.draw(_outside(checked[spoiled]))
        with pytest.raises(InvalidStateError):
            function(*args)


def _exact_beam(wavelength, mode_area, dipole, field, epsilon) -> dict:
    """The :class:`PiPulseBudget` fields of these inputs, each from its
    definition in the working precision of mpmath."""
    hbar, c, eps0, pi = mpf(budget.HBAR), mpf(budget.C), mpf(budget.EPSILON0), mpmath.pi
    wavelength, mode_area, dipole, field, epsilon = map(
        mpf, (wavelength, mode_area, dipole, field, epsilon))
    omega = 2 * pi * c / wavelength
    sigma = 3 * wavelength**2 / (8 * pi)
    gamma = omega**3 * dipole**2 / (3 * pi * eps0 * hbar * c**3)
    rabi = dipole * field / hbar
    duration = pi / rabi
    intensity = eps0 * c * field**2 / 2
    photon_energy = hbar * omega
    energy = eps0 * field**2 / 2 * sigma * c * duration
    threshold = pi**2 / 4 * photon_energy / epsilon
    return {
        "wavelength_m": wavelength, "mode_area_m2": mode_area, "omega_rad_per_s": omega,
        "sigma_eff_m2": sigma, "gamma_per_s": gamma, "kappa_per_s": gamma * sigma / mode_area,
        "rabi_frequency_rad_per_s": rabi, "intensity_W_per_m2": intensity,
        "power_W": intensity * mode_area, "duration_s": duration, "epsilon": epsilon,
        "n_bar": intensity * mode_area * duration / photon_energy,
        "n_bar_prime": intensity * sigma * duration / photon_energy,
        "required_n_bar_prime": pi**2 / 4 / epsilon,
        "energy_in_volume_J": energy, "energy_threshold_J": threshold,
        "constraint_margin": energy / threshold,
        "margin_purity_form": epsilon / (gamma * duration),
        "margin_rabi_form": epsilon * rabi**2 * duration / (pi**2 * gamma),
        "margin_explicit_form": epsilon * duration / (pi**2 * gamma * (hbar / (dipole * field))**2),
        "margin_energy_form": energy / threshold,
        "min_energy_per_lambda3_J": 16 * pi**2 / 3 * hbar / (epsilon * duration),
    }


def _exact_raman(detuning, rabi, gamma, epsilon) -> dict:
    """The :class:`RamanReport` fields of these inputs, each from its definition."""
    detuning, rabi, gamma, epsilon = map(mpf, (detuning, rabi, gamma, epsilon))
    effective = rabi**2 / detuning
    duration = mpmath.pi / effective
    return {"detuning_rad_per_s": detuning, "effective_rabi_rad_per_s": effective,
            "duration_s": duration, "purity_loss": gamma / detuning,
            "margin": epsilon * detuning / gamma}


def _exact_sweep_row(beam: dict, area) -> dict:
    """The area-sweep row at ``area`` of the exact budget ``beam``."""
    area, slope = mpf(area), 3 * mpmath.pi / 8
    kappa = beam["gamma_per_s"] * beam["sigma_eff_m2"] / area
    return {"area": area, "kappa": kappa, "kappa_times_area": kappa * area,
            "n_bar": beam["intensity_W_per_m2"] * area * beam["duration_s"]
            / (mpf(budget.HBAR) * beam["omega_rad_per_s"]),
            "p_laser": slope * kappa / beam["rabi_frequency_rad_per_s"],
            "p_total": slope * beam["gamma_per_s"] / beam["rabi_frequency_rad_per_s"]}


def _ends(name: str) -> tuple:
    """The two ends of the INPUT_BOX range of ``name`` as accepted inputs: the
    next double above its least, and its greatest."""
    least, greatest = INPUT_BOX[name]
    return math.nextafter(least, math.inf), greatest


def _beam_corners():
    """The 32 corners of the beams :func:`pi_pulse_budget` accepts: the
    wavelength, dipole, field and epsilon each at an end of its range, and
    the area at sigma_eff or at its greatest."""
    for wavelength, dipole, field, epsilon in itertools.product(
            *map(_ends, ("wavelength", "dipole", "field_amplitude", "epsilon"))):
        sigma = pi_pulse_budget(wavelength, 1.0, 1e-29, 1e5).sigma_eff_m2
        for area in (sigma, INPUT_BOX["mode_area"][1]):
            yield wavelength, area, dipole, field, epsilon


def _raman_corners():
    """The 12 corners of the pulses :func:`raman_constraint` accepts: (Omega_R,
    Delta) at the three corners of Omega_R above its least, Delta up to its
    greatest and at least 10 Omega_R, and Gamma and epsilon at an end of
    their ranges."""
    least, greatest = _ends("rabi_frequency")[0], INPUT_BOX["detuning"][1]
    for rabi, detuning in ((least, 10.0 * least), (least, greatest), (greatest / 10.0, greatest)):
        for gamma, epsilon in itertools.product(_ends("gamma"), _ends("epsilon")):
            yield detuning, rabi, gamma, epsilon


# Every exact field at a corner lies in [CORNER_LEAST, CORNER_GREATEST]: at
# least 1e200 inside the normal doubles, [2.2e-308, 1.8e308].
CORNER_LEAST, CORNER_GREATEST = 1e-100, 1e100


def _assert_margins_agree(report):
    """The four margin forms of ``report`` agree with ``constraint_margin`` to 1e-13."""
    for form in (report.margin_purity_form, report.margin_rabi_form,
                 report.margin_explicit_form, report.margin_energy_form):
        assert abs(form / report.constraint_margin - 1) <= 1e-13, report


def _assert_matches(fields: tuple, values: tuple, exact: dict, rel: float = 1e-13):
    """Each of ``values``, named by ``fields``, lies within ``rel`` of its
    ``exact`` value, which lies in [CORNER_LEAST, CORNER_GREATEST]."""
    for name, value in zip(fields, values):
        assert CORNER_LEAST <= exact[name] <= CORNER_GREATEST, (name, exact[name])
        assert abs(value / exact[name] - 1) <= rel, (name, value, exact[name])


class TestInputBox:
    """Every value the budget computes is a monomial in its inputs, so over
    INPUT_BOX it takes its extremes at the corners of the accepted inputs.
    At each corner each field, from its definition in 50-digit arithmetic,
    lies far inside the normal doubles, and the float returned agrees with
    it; so no accepted input can leave the double range."""

    def test_every_field_is_a_normal_double_at_every_corner(self):
        with mpmath.workdps(50):
            for inputs in _beam_corners():
                report = pi_pulse_budget(*inputs)
                exact = _exact_beam(*inputs)
                _assert_matches(report._fields, report, exact)
                # the sweep's rows run from its first to its last row, monotonically
                sweep = fixed_intensity_area_sweep(report, 2)
                for row, area in zip(zip(*sweep), sweep.area):
                    _assert_matches(sweep._fields, row, _exact_sweep_row(exact, area))
            for inputs in _raman_corners():
                raman = raman_constraint(*inputs)
                _assert_matches(raman._fields, raman, _exact_raman(*inputs))
                # the purity loss is its detuning-eliminated form pi Gamma / (Omega_R^2 T)
                _, rabi, gamma, _ = map(mpf, inputs)
                _assert_matches(("purity_loss",), (raman.purity_loss,), {
                    "purity_loss": mpmath.pi * gamma / (rabi**2 * mpf(raman.duration_s))})

    def test_margin_forms_agree_at_every_corner(self):
        for inputs in _beam_corners():
            _assert_margins_agree(pi_pulse_budget(*inputs))

    def test_rate_ranges_hold_the_images_of_the_beam_box(self):
        # Omega_R = d E0 / hbar and Gamma over the closed beam box take their
        # extremes at its corners, where the raman_constraint ranges hold them
        with mpmath.workdps(50):
            corners = [_exact_beam(wavelength, 1.0, dipole, field, 0.5)
                       for wavelength, dipole, field in itertools.product(
                           INPUT_BOX["wavelength"], INPUT_BOX["dipole"],
                           INPUT_BOX["field_amplitude"])]
        for name, field in (("rabi_frequency", "rabi_frequency_rad_per_s"),
                            ("gamma", "gamma_per_s")):
            least, greatest = INPUT_BOX[name]
            values = [corner[field] for corner in corners]
            assert least < min(values) and max(values) <= greatest, name

    @pytest.mark.parametrize("name", sorted(INPUT_BOX))
    def test_each_range_refuses_its_least_and_past_its_greatest(self, name):
        build = BOX_EDGE_CALLS[name]
        least, greatest = INPUT_BOX[name]
        for bad in (least, math.nextafter(greatest, math.inf)):
            message = f"{name} must be in ({least:g}, {greatest:g}], got {bad}"
            with pytest.raises(InvalidStateError, match=f"^{re.escape(message)}$"):
                build(bad)


# each INPUT_BOX name, as a call with that input replaced by ``bad``
BOX_EDGE_CALLS = dict(ONE_BAD_INPUT.values())
