"""Unit-bearing physics: beam geometry, decay-rate geometry, photon-number and
energy budgets, and the minimum-energy constraint chain.

Everything here is an algebraic calculator over SI inputs (m, s, W, C*m); the
dimensionless gate-error results from :mod:`lasergate.gates` connect to these
through the flux relation Phi = Omega_R^2 / (4 kappa).  All functions accept an
explicit :class:`PhysicalConstants`, so the whole module is invariant under a
global change of the time unit (rates * s, times / s, hbar / s, c * s).

Margins are reported as ratios (satisfied iff margin > 1), which keeps them
meaningful across many orders of magnitude.
"""

from __future__ import annotations

import math
import warnings
from operator import mul

from .qcore import InvalidStateError, Record

# Failure probability of a resonant pi pulse from the ground state, per unit
# decay-to-Rabi ratio: p = (3 pi / 8) * kappa / Omega_R.
PI_PULSE_RABI_SLOPE = 3.0 * math.pi / 8.0

# The same error in photon-number form: p = (3 pi^2 / 32) / nbar ~ 0.93 / nbar.
PI_PULSE_PHOTON_COEFFICIENT = 3.0 * math.pi ** 2 / 32.0

# Minimum photons within the volume sigma_eff * c * T demanded by the
# energy-form constraint: nbar' > (pi^2 / 4) / epsilon.
PHOTON_THRESHOLD_COEFFICIENT = math.pi ** 2 / 4.0

# Minimum energy per wavelength cubed, in units of hbar/(epsilon T), implied by
# requiring at least 1/epsilon photons in the volume sigma_eff * c * T:
# (hbar omega / epsilon) * lambda^3 / (sigma_eff c T) = (16 pi^2 / 3) hbar/(epsilon T).
ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT = 16.0 * math.pi ** 2 / 3.0

# Constraint-chain coefficients for a resonant pi pulse (T = pi / Omega_R):
# Gamma T < eps  <=>  pi^2 Gamma / (Omega_R^2 T) < eps.
RESONANT_CHAIN_COEFFICIENT = math.pi ** 2
# Literal elimination of the detuning from the Raman conditions
# (Gamma/Delta < eps with Omega_R^2 T / Delta = pi) gives a single power of pi.
RAMAN_ELIMINATION_COEFFICIENT = math.pi


class PhysicalConstants(Record):
    """CODATA values in SI; pass a rescaled instance to change unit systems."""

    hbar: float = 1.054571817e-34   # J s
    c: float = 2.99792458e8         # m / s
    epsilon0: float = 8.8541878128e-12  # F / m


CODATA = PhysicalConstants()


class BeamGeometry(Record):
    """Uniform (top-hat) beam of area ``mode_area`` at a given wavelength."""

    wavelength: float
    mode_area: float

    def __post_init__(self):
        if not self.wavelength > 0:  # NaN fails too
            raise InvalidStateError(f"wavelength must be > 0, got {self.wavelength}")
        if not self.mode_area > 0:
            raise InvalidStateError(f"mode_area must be > 0, got {self.mode_area}")
        if self.mode_area < self.scattering_cross_section:
            warnings.warn(
                "mode_area is below the paraxial scattering cross-section "
                f"({self.mode_area:.3e} < {self.scattering_cross_section:.3e} m^2); "
                "a beam cannot be focused below about a wavelength",
                stacklevel=3,  # the caller of Record.__init__, which calls this
            )

    @property
    def wavenumber(self) -> float:
        return 2.0 * math.pi / self.wavelength

    @property
    def scattering_cross_section(self) -> float:
        """sigma_eff = 3 pi / (2 k^2) = 3 lambda^2 / (8 pi), the cross-section
        for scattering out of the paraxial modes."""
        return 1.5 * math.pi / self.wavenumber ** 2


class AtomModel(Record):
    """Two-level transition: frequency omega (rad/s) and dipole moment (C m)."""

    transition_frequency: float
    dipole_moment: float

    def __post_init__(self):
        if not (self.transition_frequency > 0 and self.dipole_moment > 0):
            raise InvalidStateError("transition frequency and dipole moment must be > 0")

    def decay_rate(self, constants: PhysicalConstants = CODATA) -> float:
        """Free-space spontaneous emission rate Gamma = omega^3 d^2 / (3 pi eps0 hbar c^3)."""
        w, d = self.transition_frequency, self.dipole_moment
        return w ** 3 * d ** 2 / (3.0 * math.pi * constants.epsilon0 * constants.hbar * constants.c ** 3)


class FieldSpec(Record):
    """Classical drive field of amplitude E0 (V/m)."""

    amplitude: float

    def __post_init__(self):
        if not self.amplitude > 0:
            raise InvalidStateError(f"field amplitude must be > 0, got {self.amplitude}")

    def intensity(self, constants: PhysicalConstants = CODATA) -> float:
        """Cycle-averaged intensity I = eps0 c E0^2 / 2 (W/m^2)."""
        return 0.5 * constants.epsilon0 * constants.c * self.amplitude ** 2

    def power(self, beam: BeamGeometry, constants: PhysicalConstants = CODATA) -> float:
        return self.intensity(constants) * beam.mode_area

    def rabi_frequency(self, atom: AtomModel, constants: PhysicalConstants = CODATA) -> float:
        """Omega_R = d E0 / hbar (rad/s)."""
        return atom.dipole_moment * self.amplitude / constants.hbar


class PhotonBudget(Record):
    """Photon counts of one pulse and the accuracy verdict they imply.

    ``n_bar`` counts photons in the whole pulse (P T / hbar omega);
    ``n_bar_prime`` counts only those within the volume sigma_eff * c * T
    around the atom.  Their ratio is the geometric factor A / sigma_eff.
    """

    intensity: float
    power: float
    flux: float
    n_bar: float
    n_bar_prime: float
    epsilon: float
    required_n_bar_prime: float

    @property
    def satisfied(self) -> bool:
        return self.n_bar_prime > self.required_n_bar_prime


class ConstraintReport(Record):
    satisfied: bool
    margin: float
    energy_in_volume: float
    energy_threshold: float
    n_bar_prime: float
    required_n_bar_prime: float


class SpontaneousEmissionMargins(Record):
    """One constraint, four algebraically identical forms (all ratios > 1 = pass):

    purity_form   eps / (Gamma T)
    rabi_form     eps Omega_R^2 T / (pi^2 Gamma)
    explicit_form same as rabi_form but evaluated from raw (omega, d, E0)
    energy_form   field energy in sigma_eff c T over (pi^2/4) hbar omega / eps
    """

    purity_form: float
    rabi_form: float
    explicit_form: float
    energy_form: float

    @property
    def satisfied(self) -> bool:
        return self.purity_form > 1.0


class EnergyDensityBound(Record):
    """Minimum field energy around the atom for gate error below epsilon.

    ``energy_per_wavelength_cubed`` = (16 pi^2 / 3) hbar / (epsilon T); the
    coefficient is exact for the one-photon-per-epsilon requirement, though the
    bound is usually quoted only to order of magnitude as hbar/(epsilon T).
    Multiply by pi^2/4 for the stricter pulse-chain threshold used in
    :func:`min_photon_constraint`.
    """

    energy_per_wavelength_cubed: float
    energy_density: float
    coefficient: float = ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT


class RamanSpec(Record):
    """Far-detuned two-photon drive: detuning Delta and single-photon Omega_R."""

    detuning: float
    rabi_frequency: float

    def __post_init__(self):
        if not (self.detuning > 0 and self.rabi_frequency > 0):
            raise InvalidStateError("detuning and rabi_frequency must be > 0")
        if self.detuning < 10.0 * self.rabi_frequency:
            raise InvalidStateError(
                f"far-detuned regime requires detuning >= 10 * Omega_R "
                f"({self.detuning:.3e} < {10 * self.rabi_frequency:.3e})"
            )

    @property
    def effective_rabi_frequency(self) -> float:
        return self.rabi_frequency ** 2 / self.detuning


class RamanReport(Record):
    """Verdict on Gamma/Delta < epsilon, plus the detuning-eliminated form.

    Substituting Delta = Omega_R^2 T / pi turns the purity-loss bound into
    pi * Gamma / (Omega_R^2 T) < epsilon: a single power of pi, a factor pi
    below the resonant-chain coefficient pi^2.  The gap is reported, not
    absorbed.
    """

    satisfied: bool
    margin: float
    purity_loss: float
    eliminated_lhs: float
    eliminated_coefficient: float = RAMAN_ELIMINATION_COEFFICIENT
    resonant_chain_coefficient: float = RESONANT_CHAIN_COEFFICIENT

    @property
    def coefficient_gap(self) -> float:
        return self.resonant_chain_coefficient / self.eliminated_coefficient


def kappa_from_beam(atom: AtomModel, beam: BeamGeometry,
                    constants: PhysicalConstants = CODATA) -> float:
    """Decay rate into the beam-aligned vacuum modes: kappa = Gamma sigma_eff / A.

    Widening the beam at fixed intensity shrinks the acceptance angle of the
    co-propagating modes, so kappa falls off as 1/A while kappa * A stays at
    Gamma * sigma_eff.
    """
    return atom.decay_rate(constants) * beam.scattering_cross_section / beam.mode_area


def drive_ratio_for_photons(theta: float, n_bar: float) -> float:
    """kappa / g_alpha = theta / (2 nbar) for a theta pulse carrying nbar
    photons, from kappa / Omega_R = theta / (4 nbar) and Omega_R = 2 g_alpha."""
    if not n_bar > 0:
        raise InvalidStateError(f"photon number must be > 0, got {n_bar}")
    return theta / (2.0 * n_bar)


def photon_coefficient(coefficient_vs_ratio: float, theta: float) -> float:
    """Convert c (per kappa/g_alpha) into c' (per 1/nbar): c' = c * theta / 2."""
    return coefficient_vs_ratio * theta / 2.0


def photon_budget(atom: AtomModel, beam: BeamGeometry, field: FieldSpec,
                  duration: float | None = None, epsilon: float = 1e-4,
                  constants: PhysicalConstants = CODATA) -> PhotonBudget:
    """Photon counts for one pulse; ``duration=None`` means the pi-pulse time."""
    _check_epsilon(epsilon)
    omega = atom.transition_frequency
    intensity = field.intensity(constants)
    power = intensity * beam.mode_area
    duration = _pulse_duration(duration, atom, field, constants)
    photon_energy = constants.hbar * omega
    return PhotonBudget(
        intensity=intensity,
        power=power,
        flux=power / photon_energy,
        n_bar=power * duration / photon_energy,
        n_bar_prime=intensity * beam.scattering_cross_section * duration / photon_energy,
        epsilon=epsilon,
        required_n_bar_prime=PHOTON_THRESHOLD_COEFFICIENT / epsilon,
    )


def min_photon_constraint(atom: AtomModel, field: FieldSpec, beam: BeamGeometry,
                          duration: float | None = None, epsilon: float = 1e-4,
                          constants: PhysicalConstants = CODATA) -> ConstraintReport:
    """Energy-form accuracy constraint for one pulse.

    The field energy within the volume sigma_eff * c * T must exceed
    (pi^2 / 4) hbar omega / epsilon; equivalently the photon count in that
    volume must exceed (pi^2 / 4) / epsilon.
    """
    _check_epsilon(epsilon)
    duration = _pulse_duration(duration, atom, field, constants)
    energy_density = 0.5 * constants.epsilon0 * field.amplitude ** 2
    volume = beam.scattering_cross_section * constants.c * duration
    energy_in_volume = energy_density * volume
    photon_energy = constants.hbar * atom.transition_frequency
    threshold = PHOTON_THRESHOLD_COEFFICIENT * photon_energy / epsilon
    margin = energy_in_volume / threshold
    return ConstraintReport(
        satisfied=margin > 1.0,
        margin=margin,
        energy_in_volume=energy_in_volume,
        energy_threshold=threshold,
        n_bar_prime=energy_in_volume / photon_energy,
        required_n_bar_prime=PHOTON_THRESHOLD_COEFFICIENT / epsilon,
    )


def spontaneous_emission_margins(atom: AtomModel, field: FieldSpec, beam: BeamGeometry,
                                 duration: float | None = None, epsilon: float = 1e-4,
                                 constants: PhysicalConstants = CODATA) -> SpontaneousEmissionMargins:
    """All four forms of the minimum-energy constraint for a pi pulse.

    With T = pi / Omega_R the four margins are algebraically identical; they
    are computed along independent routes as a cross-check of the unit chain.
    """
    _check_epsilon(epsilon)
    gamma = atom.decay_rate(constants)
    rabi = field.rabi_frequency(atom, constants)
    duration = _pulse_duration(duration, atom, field, constants)

    purity_form = epsilon / (gamma * duration)
    rabi_form = epsilon * rabi ** 2 * duration / (RESONANT_CHAIN_COEFFICIENT * gamma)

    # Same bound evaluated from the raw inputs, bypassing decay_rate and
    # rabi_frequency: pi^2 * [omega^3 d^2/(3 pi eps0 hbar c^3)] * [hbar/(d E0)]^2 < eps T.
    w, d, e0 = atom.transition_frequency, atom.dipole_moment, field.amplitude
    lhs = (
        RESONANT_CHAIN_COEFFICIENT
        * (w ** 3 * d ** 2 / (3.0 * math.pi * constants.epsilon0 * constants.hbar * constants.c ** 3))
        * (constants.hbar / (d * e0)) ** 2
    )
    explicit_form = epsilon * duration / lhs

    energy_form = min_photon_constraint(atom, field, beam, duration, epsilon, constants).margin
    return SpontaneousEmissionMargins(
        purity_form=purity_form,
        rabi_form=rabi_form,
        explicit_form=explicit_form,
        energy_form=energy_form,
    )


def energy_density_bound(duration: float, epsilon: float, wavelength: float,
                         constants: PhysicalConstants = CODATA) -> EnergyDensityBound:
    """Minimum energy per wavelength cubed near the atom, (16 pi^2/3) hbar/(eps T).

    Derivation: hbar omega / epsilon of energy spread over sigma_eff * c * T,
    expressed per lambda^3 with omega = 2 pi c / lambda and
    sigma_eff = 3 lambda^2 / (8 pi); the wavelength cancels.
    """
    _check_epsilon(epsilon)
    if not (duration > 0 and wavelength > 0):
        raise InvalidStateError("duration and wavelength must be > 0")
    per_lambda_cubed = ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT * constants.hbar / (epsilon * duration)
    return EnergyDensityBound(
        energy_per_wavelength_cubed=per_lambda_cubed,
        energy_density=per_lambda_cubed / wavelength ** 3,
    )


def raman_constraint(raman: RamanSpec, gamma: float, duration: float,
                     epsilon: float) -> RamanReport:
    """Accuracy verdict for a far-detuned Raman pulse.

    Requires the two-photon pi-pulse condition Omega_eff * T = pi (to 1e-6
    relative).  The purity loss is Gamma/Delta regardless of T; eliminating the
    detuning through the pulse condition rewrites it as
    pi * Gamma / (Omega_R^2 T).
    """
    _check_epsilon(epsilon)
    if not (gamma > 0 and duration > 0):
        raise InvalidStateError("gamma and duration must be > 0")
    pulse_area = raman.effective_rabi_frequency * duration
    if abs(pulse_area / math.pi - 1.0) > 1e-6:
        raise InvalidStateError(
            f"two-photon pulse condition violated: Omega_eff * T = {pulse_area:.9g}, expected pi"
        )
    purity_loss = gamma / raman.detuning
    eliminated_lhs = RAMAN_ELIMINATION_COEFFICIENT * gamma / (raman.rabi_frequency ** 2 * duration)
    return RamanReport(
        satisfied=purity_loss < epsilon,
        margin=epsilon / purity_loss,
        purity_loss=purity_loss,
        eliminated_lhs=eliminated_lhs,
    )


class AreaSweep(Record):
    """The fixed-intensity beam-area sweep, one tuple of floats per quantity."""

    area: tuple
    kappa: tuple
    kappa_times_area: tuple
    n_bar: tuple
    laser_mode_error: tuple
    total_error: tuple


def fixed_intensity_area_sweep(atom: AtomModel, field: FieldSpec, wavelength: float,
                               areas, constants: PhysicalConstants = CODATA) -> AreaSweep:
    """kappa, nbar, and pi-pulse errors versus mode area at fixed intensity.

    The laser-mode error (3 pi/8) kappa / Omega_R falls off as 1/A while the
    all-modes error, set by Gamma, does not depend on the area at all.  Each
    column is computed as :func:`kappa_from_beam` and :func:`photon_budget`
    compute it for one beam.
    """
    area = tuple(map(float, areas))
    # min skips a NaN that is not first, so finiteness is checked on its own
    if not all(map(math.isfinite, area)):
        raise InvalidStateError("every mode area must be finite")
    # one beam carries the other checks: the wavelength, and the smallest area
    # (an empty sweep checks the wavelength alone)
    beam = BeamGeometry(wavelength=wavelength, mode_area=min(area, default=math.inf))
    rabi = field.rabi_frequency(atom, constants)
    duration = math.pi / rabi
    gamma = atom.decay_rate(constants)
    photon_energy = constants.hbar * atom.transition_frequency
    gamma_sigma = gamma * beam.scattering_cross_section
    intensity = field.intensity(constants)
    kappa = tuple(gamma_sigma / a for a in area)
    return AreaSweep(
        area=area,
        kappa=kappa,
        kappa_times_area=tuple(map(mul, kappa, area)),
        n_bar=tuple(intensity * a * duration / photon_energy for a in area),
        laser_mode_error=tuple(PI_PULSE_RABI_SLOPE * k / rabi for k in kappa),
        total_error=(PI_PULSE_RABI_SLOPE * gamma / rabi,) * len(area),
    )


def _pulse_duration(duration: float | None, atom: AtomModel, field: FieldSpec,
                    constants: PhysicalConstants) -> float:
    """``duration``, or the pi-pulse time pi / Omega_R when it is None;
    refuses a duration that is not > 0."""
    if duration is None:
        duration = math.pi / field.rabi_frequency(atom, constants)
    if not duration > 0:
        raise InvalidStateError(f"duration must be > 0, got {duration}")
    return duration


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise InvalidStateError(f"epsilon must be in (0, 1), got {epsilon}")
