import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lasergate.budget import (
    CODATA,
    ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT,
    PHOTON_THRESHOLD_COEFFICIENT,
    PI_PULSE_PHOTON_COEFFICIENT,
    PI_PULSE_RABI_SLOPE,
    AtomModel,
    BeamGeometry,
    FieldSpec,
    PhysicalConstants,
    PiPulseBudget,
    RamanSpec,
    drive_ratio_for_photons,
    fixed_intensity_area_sweep,
    photon_coefficient,
    pi_pulse_budget,
    raman_constraint,
)
from lasergate.qcore import InvalidStateError

# log-uniform physical parameter ranges for the randomized identity checks
wavelengths = st.floats(min_value=-7.0, max_value=-5.0).map(lambda e: 10.0**e)
dipoles = st.floats(min_value=-30.0, max_value=-28.0).map(lambda e: 10.0**e)
amplitudes = st.floats(min_value=2.0, max_value=7.0).map(lambda e: 10.0**e)
areas = st.floats(min_value=-13.0, max_value=-8.0).map(lambda e: 10.0**e)
epsilons = st.floats(min_value=-6.0, max_value=-1.0).map(lambda e: 10.0**e)


def _system(wavelength, dipole, amplitude, area):
    omega = 2 * math.pi * CODATA.c / wavelength
    atom = AtomModel(transition_frequency=omega, dipole_moment=dipole)
    beam = BeamGeometry(wavelength=wavelength, mode_area=area)
    field = FieldSpec(amplitude=amplitude)
    return atom, beam, field


class TestGeometry:
    def test_cross_section_identity(self):
        # 3 pi / (2 k^2) == 3 lambda^2 / (8 pi)
        beam = BeamGeometry(wavelength=1e-6, mode_area=1e-12)
        assert beam.scattering_cross_section == pytest.approx(
            3 * (1e-6) ** 2 / (8 * math.pi), rel=1e-14
        )
        assert beam.scattering_cross_section == pytest.approx(1.1937e-13, rel=1e-4)

    def test_subwavelength_focus_warns(self):
        with pytest.warns(UserWarning, match="cross-section") as caught:
            BeamGeometry(wavelength=1e-6, mode_area=1e-14)
        assert caught[0].filename == __file__

    def test_invalid_geometry_rejected(self):
        with pytest.raises(InvalidStateError):
            BeamGeometry(wavelength=0.0, mode_area=1e-12)
        with pytest.raises(InvalidStateError):
            BeamGeometry(wavelength=1e-6, mode_area=-1.0)


class TestKappaFromBeam:
    """The budget's kappa = Gamma sigma_eff / A, the decay rate into the
    beam-aligned vacuum modes."""

    def test_reference_point(self):
        # Gamma = 1e7 /s at lambda = 1 um, A = 1e-12 m^2 -> kappa = 1.1937e6 /s
        wavelength = 1e-6
        omega = 2 * math.pi * CODATA.c / wavelength
        gamma_target = 1e7
        dipole = math.sqrt(
            gamma_target * 3 * math.pi * CODATA.epsilon0 * CODATA.hbar * CODATA.c**3 / omega**3
        )
        atom = AtomModel(transition_frequency=omega, dipole_moment=dipole)
        assert atom.decay_rate() == pytest.approx(gamma_target, rel=1e-12)
        beam = BeamGeometry(wavelength=wavelength, mode_area=1e-12)
        report = pi_pulse_budget(atom, beam, FieldSpec(amplitude=1e5))
        assert report.kappa_per_s == pytest.approx(1.1937e6, rel=1e-4)

    def test_matched_area_gives_full_rate(self):
        atom, beam, field = _system(1e-6, 1e-29, 1e5, 1e-12)
        matched = BeamGeometry(wavelength=1e-6, mode_area=beam.scattering_cross_section)
        report = pi_pulse_budget(atom, matched, field)
        assert report.kappa_per_s == pytest.approx(atom.decay_rate(), rel=1e-12)

    def test_wide_beam_suppression(self):
        atom, beam, field = _system(1e-6, 1e-29, 1e5, 1e-12)
        wide = BeamGeometry(wavelength=1e-6, mode_area=1e6 * beam.scattering_cross_section)
        report = pi_pulse_budget(atom, wide, field)
        assert report.kappa_per_s == pytest.approx(1e-6 * atom.decay_rate(), rel=1e-12)


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
        atom, beam, field = _system(wavelength, dipole, amplitude, area)
        rabi = field.rabi_frequency(atom)
        kappa = atom.decay_rate() * beam.scattering_cross_section / beam.mode_area
        flux_direct = field.intensity() * beam.mode_area / (CODATA.hbar * atom.transition_frequency)
        assert rabi**2 / (4.0 * kappa) == pytest.approx(flux_direct, rel=1e-12)
        # and the budget's power and rates close it too
        report = pi_pulse_budget(atom, beam, field)
        flux = report.power_W / (CODATA.hbar * report.omega_rad_per_s)
        assert report.rabi_frequency_rad_per_s**2 / (4.0 * report.kappa_per_s) == pytest.approx(
            flux, rel=1e-12)

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, area=areas)
    @settings(max_examples=100, deadline=None)
    def test_ratio_and_photon_error_forms_agree(self, wavelength, dipole, amplitude, area):
        # pi-pulse error via (3 pi/8) kappa/Omega_R == (3 pi^2/32)/nbar
        atom, beam, field = _system(wavelength, dipole, amplitude, area)
        rabi = field.rabi_frequency(atom)
        kappa = atom.decay_rate() * beam.scattering_cross_section / beam.mode_area
        budget = pi_pulse_budget(atom, beam, field)
        p_ratio = PI_PULSE_RABI_SLOPE * kappa / rabi
        p_photon = PI_PULSE_PHOTON_COEFFICIENT / budget.n_bar
        assert p_ratio == pytest.approx(p_photon, rel=1e-10)

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, area=areas)
    @settings(max_examples=100, deadline=None)
    def test_all_modes_error_counts_photons_near_the_atom(self, wavelength, dipole, amplitude, area):
        # swapping A -> sigma_eff (kappa -> Gamma) turns nbar into nbar'
        atom, beam, field = _system(wavelength, dipole, amplitude, area)
        rabi = field.rabi_frequency(atom)
        budget = pi_pulse_budget(atom, beam, field)
        p_gamma = PI_PULSE_RABI_SLOPE * atom.decay_rate() / rabi
        p_photon = PI_PULSE_PHOTON_COEFFICIENT / budget.n_bar_prime
        assert p_gamma == pytest.approx(p_photon, rel=1e-10)

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, area=areas)
    @settings(max_examples=60, deadline=None)
    def test_photon_count_ratio_is_geometric(self, wavelength, dipole, amplitude, area):
        atom, beam, field = _system(wavelength, dipole, amplitude, area)
        budget = pi_pulse_budget(atom, beam, field)
        assert budget.n_bar / budget.n_bar_prime == pytest.approx(
            beam.mode_area / beam.scattering_cross_section, rel=1e-12
        )
        if beam.mode_area >= beam.scattering_cross_section:
            assert budget.n_bar >= budget.n_bar_prime


class TestMinPhotonConstraint:
    def test_required_photons_at_1e4(self):
        atom, beam, field = _system(1e-6, 1e-29, 1e5, 1e-12)
        report = pi_pulse_budget(atom, beam, field, epsilon=1e-4)
        assert report.required_n_bar_prime == pytest.approx(2.467401100272e4, rel=1e-10)
        assert report.required_n_bar_prime == pytest.approx(PHOTON_THRESHOLD_COEFFICIENT * 1e4)

    def test_margin_linear_in_duration(self):
        # T = pi hbar / (d E0): a third of the dipole triples T, and with it the
        # energy in sigma_eff c T, at the same intensity and photon energy
        atom1, beam, field = _system(1e-6, 3e-29, 1e5, 1e-12)
        atom3, _, _ = _system(1e-6, 1e-29, 1e5, 1e-12)
        r1 = pi_pulse_budget(atom1, beam, field, epsilon=1e-4)
        r3 = pi_pulse_budget(atom3, beam, field, epsilon=1e-4)
        assert r3.duration_s == pytest.approx(3 * r1.duration_s, rel=1e-12)
        assert r3.constraint_margin == pytest.approx(3 * r1.constraint_margin, rel=1e-12)

    def test_verdict_flips_with_epsilon(self):
        atom, beam, field = _system(1e-6, 1e-29, 1e7, 1e-12)
        tight = pi_pulse_budget(atom, beam, field, epsilon=1e-8)
        loose = pi_pulse_budget(atom, beam, field, epsilon=0.5)
        assert not tight.satisfied
        assert loose.satisfied
        assert (tight.constraint_margin > 1.0) == tight.satisfied

    def test_epsilon_bounds(self):
        atom, beam, field = _system(1e-6, 1e-29, 1e5, 1e-12)
        for bad in (0.0, -1e-3, 1.0, 2.0):
            with pytest.raises(InvalidStateError):
                pi_pulse_budget(atom, beam, field, epsilon=bad)

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
        atom, beam, field = _system(wavelength, dipole, amplitude, area)
        report = pi_pulse_budget(atom, beam, field, epsilon=epsilon)
        assert (report.wavelength_m, report.mode_area_m2, report.epsilon) == (
            wavelength, area, epsilon)
        assert report.omega_rad_per_s == atom.transition_frequency
        assert report.sigma_eff_m2 == beam.scattering_cross_section
        assert report.gamma_per_s == atom.decay_rate()
        assert report.kappa_per_s == (
            atom.decay_rate() * beam.scattering_cross_section / beam.mode_area)
        assert report.rabi_frequency_rad_per_s == field.rabi_frequency(atom)
        assert report.intensity_W_per_m2 == field.intensity()
        assert report.power_W == field.intensity() * beam.mode_area
        # a pi pulse: Omega_R T = pi
        assert report.rabi_frequency_rad_per_s * report.duration_s == pytest.approx(
            math.pi, rel=1e-15)
        photon_energy = CODATA.hbar * atom.transition_frequency
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
        atom, beam, field = _system(wavelength, dipole, amplitude, 1e-10)
        margins = pi_pulse_budget(atom, beam, field, epsilon=epsilon)
        assert margins.margin_rabi_form == pytest.approx(margins.margin_purity_form, rel=1e-10)
        assert margins.margin_explicit_form == pytest.approx(margins.margin_purity_form, rel=1e-10)
        assert margins.margin_energy_form == pytest.approx(margins.margin_purity_form, rel=1e-10)

    def test_satisfied_tracks_purity_margin(self):
        atom, beam, field = _system(1e-6, 1e-29, 1e8, 1e-10)
        good = pi_pulse_budget(atom, beam, field, epsilon=0.5)
        assert good.satisfied == (good.margin_purity_form > 1.0)
        bad = pi_pulse_budget(atom, beam, field, epsilon=1e-9)
        assert bad.satisfied == (bad.margin_purity_form > 1.0)


class TestEnergyDensityBound:
    def test_coefficient_value(self):
        atom, beam, field = _system(1e-6, 1e-29, 1e5, 1e-12)
        report = pi_pulse_budget(atom, beam, field, epsilon=1e-4)
        assert ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT == pytest.approx(16 * math.pi**2 / 3)
        assert ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT == pytest.approx(52.6, rel=1e-3)
        assert report.min_energy_per_lambda3_J == pytest.approx(
            ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT * CODATA.hbar / (1e-4 * report.duration_s),
            rel=1e-12,
        )

    def test_doubling_duration_halves_bound(self):
        # halving the field amplitude doubles T = pi hbar / (d E0)
        atom, beam, field = _system(1e-6, 1e-29, 1e5, 1e-12)
        a = pi_pulse_budget(atom, beam, field, epsilon=1e-4)
        b = pi_pulse_budget(atom, beam, FieldSpec(amplitude=0.5e5), epsilon=1e-4)
        assert b.duration_s == pytest.approx(2 * a.duration_s, rel=1e-12)
        assert a.min_energy_per_lambda3_J == pytest.approx(2 * b.min_energy_per_lambda3_J,
                                                           rel=1e-12)

    @given(wavelength=wavelengths, dipole=dipoles, amplitude=amplitudes, epsilon=epsilons)
    @settings(max_examples=50, deadline=None)
    def test_scaled_bound_is_a_pure_number(self, wavelength, dipole, amplitude, epsilon):
        atom, beam, field = _system(wavelength, dipole, amplitude, 1e-10)
        report = pi_pulse_budget(atom, beam, field, epsilon=epsilon)
        pure = report.min_energy_per_lambda3_J * epsilon * report.duration_s / CODATA.hbar
        assert pure == pytest.approx(ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT, rel=1e-12)
        # the per-volume density does carry the wavelength: hbar omega / epsilon
        # spread over sigma_eff c T
        energy_density = report.min_energy_per_lambda3_J / report.wavelength_m**3
        assert energy_density == pytest.approx(
            CODATA.hbar * report.omega_rad_per_s
            / (epsilon * report.sigma_eff_m2 * CODATA.c * report.duration_s),
            rel=1e-12,
        )


class TestRaman:
    def _spec(self, detuning=1e11, rabi=1e9):
        return RamanSpec(detuning=detuning, rabi_frequency=rabi)

    def test_reference_verdict(self):
        # Gamma/Delta = 1e-5 passes an epsilon = 1e-4 budget with margin 10
        report = raman_constraint(self._spec(), gamma=1e6, epsilon=1e-4)
        assert report.satisfied
        assert report.purity_loss == pytest.approx(1e-5, rel=1e-12)
        assert report.margin == pytest.approx(10.0, rel=1e-12)

    def test_detuning_elimination_is_exact(self):
        # substituting Delta = Omega_R^2 T / pi must reproduce Gamma/Delta
        report = raman_constraint(self._spec(detuning=3.7e10, rabi=1.1e9), gamma=5e5,
                                  epsilon=1e-3)
        assert report.eliminated_lhs == pytest.approx(report.purity_loss, rel=1e-12)

    def test_coefficient_gap_is_pi(self):
        report = raman_constraint(self._spec(), gamma=1e6, epsilon=1e-4)
        assert report.eliminated_coefficient == pytest.approx(math.pi)
        assert report.resonant_chain_coefficient == pytest.approx(math.pi**2)
        assert report.coefficient_gap == pytest.approx(math.pi, rel=1e-12)

    def test_borderline_margin_is_one(self):
        raman = self._spec()
        report = raman_constraint(raman, gamma=raman.detuning * 1e-4, epsilon=1e-4)
        assert report.margin == pytest.approx(1.0, rel=1e-12)
        assert not report.satisfied  # strict inequality

    def test_pulse_condition_enforced(self):
        # the duration is derived, so the two-photon pulse condition
        # Omega_eff * T = pi holds by construction
        raman = self._spec(detuning=3.7e10, rabi=1.1e9)
        report = raman_constraint(raman, gamma=1e6, epsilon=1e-4)
        assert report.duration == math.pi / raman.effective_rabi_frequency
        assert raman.effective_rabi_frequency * report.duration == pytest.approx(math.pi,
                                                                                 rel=1e-15)

    def test_far_detuned_regime_enforced(self):
        with pytest.raises(InvalidStateError, match="far-detuned"):
            RamanSpec(detuning=5e9, rabi_frequency=1e9)


class TestAreaSweep:
    def test_kappa_area_product_and_error_columns(self):
        atom, beam, field = _system(1e-6, 1e-29, 1e5, 1e-12)
        sigma = beam.scattering_cross_section
        sweep = fixed_intensity_area_sweep(pi_pulse_budget(atom, beam, field), 4, 1e6)
        assert sweep.area[0] == sigma and sweep.area[-1] == sigma * 1e6
        assert [a / sigma for a in sweep.area] == pytest.approx([1.0, 1e2, 1e4, 1e6], rel=1e-12)
        expected = atom.decay_rate() * sigma
        for product in sweep.kappa_times_area:
            assert product == pytest.approx(expected, rel=1e-12)
        laser_errors = sweep.laser_mode_error
        assert all(b < a for a, b in zip(laser_errors, laser_errors[1:]))
        assert len(set(sweep.total_error)) == 1
        # at the matched area the two error columns coincide
        assert sweep.laser_mode_error[0] == pytest.approx(sweep.total_error[0], rel=1e-12)

    @pytest.mark.parametrize("points,max_factor,error,match", [
        (1, 1e6, InvalidStateError, "area_sweep_points must be >= 2"),
        (0, 1e6, InvalidStateError, "area_sweep_points must be >= 2"),
        (7, 1.0, InvalidStateError, "area_sweep_max_factor must be > 1"),
        (7, 0.0, InvalidStateError, "area_sweep_max_factor must be > 1"),
        (7, -1e-12, InvalidStateError, "area_sweep_max_factor must be > 1"),
        (7, math.nan, InvalidStateError, "area_sweep_max_factor must be > 1"),
        (7, 1.7e308, FloatingPointError, "largest sweep area leaves the double range"),
    ], ids=["points-1", "points-0", "factor-1", "factor-0", "factor-negative", "factor-nan",
            "factor-overflows"])
    def test_grid_outside_the_contract_is_refused(self, points, max_factor, error, match):
        # a 10 m wavelength gives sigma_eff = 11.9 m^2, which 1.7e308 overflows
        report = pi_pulse_budget(*_system(10.0, 1e-29, 1e5, 1e3))
        with pytest.raises(error, match=match):
            fixed_intensity_area_sweep(report, points, max_factor)

    @pytest.mark.parametrize("sigma_eff", [math.nan, math.inf, 0.0, -1.0])
    def test_record_outside_the_contract_is_refused(self, sigma_eff):
        # a hand-built record is checked, not trusted
        report = pi_pulse_budget(*_system(1e-6, 1e-29, 1e5, 1e-12))
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
        atom, beam, field = _system(wavelength, dipole, amplitude, mode_area)
        sweep = fixed_intensity_area_sweep(pi_pulse_budget(atom, beam, field), points, max_factor)
        sigma = beam.scattering_cross_section
        assert len(sweep.area) == points
        assert sweep.area[0] == sigma and sweep.area[-1] == sigma * max_factor
        for area, kappa, n_bar in zip(sweep.area, sweep.kappa, sweep.n_bar):
            report = pi_pulse_budget(atom, BeamGeometry(wavelength, area), field)
            assert (kappa, n_bar) == (report.kappa_per_s, report.n_bar)


class TestUnitRescaling:
    @pytest.mark.parametrize("scale", [1024.0, 1000.0, 1.0 / 4096.0])
    def test_dimensionless_outputs_survive_time_unit_change(self, scale):
        # rates scale by s, times by 1/s, hbar by 1/s, c by s; every
        # dimensionless output and every energy must be unchanged
        wavelength, dipole, amplitude, area = 7.8e-7, 2.3e-29, 4.2e5, 3.1e-12
        epsilon = 1e-4

        base_const = CODATA
        scaled_const = PhysicalConstants(
            hbar=base_const.hbar / scale, c=base_const.c * scale, epsilon0=base_const.epsilon0
        )

        def build(constants):
            omega = 2 * math.pi * constants.c / wavelength
            atom = AtomModel(transition_frequency=omega, dipole_moment=dipole)
            beam = BeamGeometry(wavelength=wavelength, mode_area=area)
            field = FieldSpec(amplitude=amplitude)
            return atom, beam, field

        atom_a, beam_a, field_a = build(base_const)
        atom_b, beam_b, field_b = build(scaled_const)

        budget_a = pi_pulse_budget(atom_a, beam_a, field_a, epsilon=epsilon, constants=base_const)
        budget_b = pi_pulse_budget(atom_b, beam_b, field_b, epsilon=epsilon,
                                   constants=scaled_const)
        assert budget_b.n_bar == pytest.approx(budget_a.n_bar, rel=1e-12)
        assert budget_b.n_bar_prime == pytest.approx(budget_a.n_bar_prime, rel=1e-12)
        assert budget_b.margin_purity_form == pytest.approx(budget_a.margin_purity_form,
                                                            rel=1e-12)
        assert budget_b.margin_energy_form == pytest.approx(budget_a.margin_energy_form,
                                                            rel=1e-12)
        assert budget_b.constraint_margin == pytest.approx(budget_a.constraint_margin, rel=1e-12)
        assert budget_b.energy_in_volume_J == pytest.approx(budget_a.energy_in_volume_J,
                                                            rel=1e-12)

        # dimensionless pi-pulse error via rates
        p_a = (PI_PULSE_RABI_SLOPE * atom_a.decay_rate(base_const)
               * beam_a.scattering_cross_section / beam_a.mode_area
               / field_a.rabi_frequency(atom_a, base_const))
        p_b = (PI_PULSE_RABI_SLOPE * atom_b.decay_rate(scaled_const)
               * beam_b.scattering_cross_section / beam_b.mode_area
               / field_b.rabi_frequency(atom_b, scaled_const))
        assert p_b == pytest.approx(p_a, rel=1e-12)


class TestConstants:
    def test_codata_values(self):
        assert CODATA.hbar == 1.054571817e-34
        assert CODATA.c == 2.99792458e8
        assert CODATA.epsilon0 == 8.8541878128e-12


class TestNaNInputs:
    ATOM, BEAM, FIELD = _system(1e-6, 1e-29, 1e5, 1e-12)
    RAMAN = RamanSpec(detuning=1e12, rabi_frequency=1e9)

    # every positivity check is written so that NaN fails it; infinities are
    # left to the caller, whose own finiteness check reports them
    @pytest.mark.parametrize("build", [
        lambda s: BeamGeometry(math.nan, 1e-12),
        lambda s: BeamGeometry(1e-6, math.nan),
        lambda s: AtomModel(math.nan, 1e-29),
        lambda s: AtomModel(1e15, math.nan),
        lambda s: FieldSpec(math.nan),
        lambda s: RamanSpec(math.nan, 1e9),
        lambda s: RamanSpec(1e12, math.nan),
        lambda s: pi_pulse_budget(s.ATOM, s.BEAM, s.FIELD, epsilon=math.nan),
        lambda s: raman_constraint(s.RAMAN, math.nan, 1e-4),
        lambda s: raman_constraint(s.RAMAN, 1e7, math.nan),
        lambda s: drive_ratio_for_photons(math.pi, math.nan),
    ], ids=["beam-wavelength", "beam-area", "atom-omega", "atom-dipole", "field", "raman-detuning",
            "raman-rabi", "photon-budget", "raman-gamma", "raman-epsilon", "drive-ratio"])
    def test_nan_input_is_refused(self, build):
        with pytest.raises(InvalidStateError, match="must be"):
            build(self)
