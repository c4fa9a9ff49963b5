"""Unit-bearing physics: beam geometry, decay-rate geometry, and the photon and
energy budget of one resonant pi pulse, computed once by
:func:`pi_pulse_budget`, with its far-detuned Raman variant and the
fixed-intensity beam-area sweep.

Everything here is an algebraic calculator over SI inputs (m, s, W, C*m); the
dimensionless gate-error results from :mod:`lasergate.gates` connect to these
through the flux relation Phi = Omega_R^2 / (4 kappa).  Every pulse is a pi
pulse, its duration T = pi / Omega_R derived, not chosen.  The functions that
use a physical constant accept an explicit :class:`PhysicalConstants`, so the
whole module is invariant under a global change of the time unit (rates * s,
times / s, hbar / s, c * s).

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


class PiPulseBudget(Record):
    """The budget of one resonant pi pulse, T = pi / Omega_R: the report's
    scalar lines, in SI base units and in print order.

    ``n_bar`` counts photons in the whole pulse (P T / hbar omega),
    ``n_bar_prime`` only those within sigma_eff * c * T around the atom.  The
    four ``margin_*`` fields are one constraint (> 1 = pass) along independent
    routes, a cross-check of the unit chain: eps / (Gamma T); eps Omega_R^2 T /
    (pi^2 Gamma); the same from the raw (omega, d, E0); and the field energy in
    sigma_eff c T over (pi^2/4) hbar omega / eps, which is ``constraint_margin``.
    ``min_energy_per_lambda3_J`` = (16 pi^2 / 3) hbar / (epsilon T), exact for
    one photon per epsilon, though usually quoted as ~hbar/(epsilon T).
    """

    wavelength_m: float
    mode_area_m2: float
    omega_rad_per_s: float
    sigma_eff_m2: float
    gamma_per_s: float
    kappa_per_s: float
    rabi_frequency_rad_per_s: float
    intensity_W_per_m2: float
    power_W: float
    duration_s: float
    epsilon: float
    n_bar: float
    n_bar_prime: float
    required_n_bar_prime: float
    energy_in_volume_J: float
    energy_threshold_J: float
    constraint_margin: float
    margin_purity_form: float
    margin_rabi_form: float
    margin_explicit_form: float
    margin_energy_form: float
    min_energy_per_lambda3_J: float

    @property
    def satisfied(self) -> bool:
        return self.constraint_margin > 1.0


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
    """Verdict on Gamma/Delta < epsilon for a two-photon pi pulse of
    ``duration`` T = pi / Omega_eff, plus the detuning-eliminated form.

    Substituting Delta = Omega_R^2 T / pi turns the purity-loss bound into
    pi * Gamma / (Omega_R^2 T) < epsilon: a single power of pi, a factor pi
    below the resonant-chain coefficient pi^2.  The gap is reported, not
    absorbed.
    """

    duration: float
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


def pi_pulse_budget(atom: AtomModel, beam: BeamGeometry, field: FieldSpec,
                    epsilon: float = 1e-4,
                    constants: PhysicalConstants = CODATA) -> PiPulseBudget:
    """Photon counts, the minimum-energy constraint and the energy floor of one
    resonant pi pulse.  The constraint: the field energy within sigma_eff * c * T
    must exceed (pi^2 / 4) hbar omega / epsilon, i.e. nbar' > (pi^2 / 4) / epsilon.
    """
    hbar, c, eps0 = constants.hbar, constants.c, constants.epsilon0
    gamma = atom.decay_rate(constants)
    sigma_eff = beam.scattering_cross_section
    rabi = field.rabi_frequency(atom, constants)
    duration = math.pi / rabi
    # each refusal follows the arithmetic before it, so inputs that overflow
    # there are a numerical failure (exit 3), not a refused value (exit 2)
    _check_epsilon(epsilon)
    intensity = field.intensity(constants)
    if not duration > 0:  # Omega_R overflowed
        raise InvalidStateError(f"duration must be > 0, got {duration}")
    omega, d, e0 = atom.transition_frequency, atom.dipole_moment, field.amplitude
    photon_energy = hbar * omega
    power = intensity * beam.mode_area
    energy_in_volume = 0.5 * eps0 * e0 ** 2 * (sigma_eff * c * duration)
    threshold = PHOTON_THRESHOLD_COEFFICIENT * photon_energy / epsilon
    margin = energy_in_volume / threshold
    # pi^2 Gamma / Omega_R^2 from the raw inputs, bypassing decay_rate and rabi_frequency
    explicit_lhs = (RESONANT_CHAIN_COEFFICIENT
                    * (omega ** 3 * d ** 2 / (3.0 * math.pi * eps0 * hbar * c ** 3))
                    * (hbar / (d * e0)) ** 2)
    return PiPulseBudget(
        wavelength_m=beam.wavelength,
        mode_area_m2=beam.mode_area,
        omega_rad_per_s=omega,
        sigma_eff_m2=sigma_eff,
        gamma_per_s=gamma,
        kappa_per_s=gamma * sigma_eff / beam.mode_area,
        rabi_frequency_rad_per_s=rabi,
        intensity_W_per_m2=intensity,
        power_W=power,
        duration_s=duration,
        epsilon=epsilon,
        n_bar=power * duration / photon_energy,
        n_bar_prime=intensity * sigma_eff * duration / photon_energy,
        required_n_bar_prime=PHOTON_THRESHOLD_COEFFICIENT / epsilon,
        energy_in_volume_J=energy_in_volume,
        energy_threshold_J=threshold,
        constraint_margin=margin,
        margin_purity_form=epsilon / (gamma * duration),
        margin_rabi_form=epsilon * rabi ** 2 * duration / (RESONANT_CHAIN_COEFFICIENT * gamma),
        margin_explicit_form=epsilon * duration / explicit_lhs,
        margin_energy_form=margin,
        min_energy_per_lambda3_J=(ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT * hbar
                                  / (epsilon * duration)),
    )


def raman_constraint(raman: RamanSpec, gamma: float, epsilon: float) -> RamanReport:
    """Accuracy verdict for a far-detuned Raman pi pulse, T = pi / Omega_eff.

    The purity loss is Gamma/Delta regardless of T; eliminating the detuning
    through the pulse condition Omega_eff * T = pi rewrites it as
    pi * Gamma / (Omega_R^2 T).
    """
    _check_epsilon(epsilon)
    if not gamma > 0:
        raise InvalidStateError(f"gamma must be > 0, got {gamma}")
    duration = math.pi / raman.effective_rabi_frequency
    purity_loss = gamma / raman.detuning
    eliminated_lhs = RAMAN_ELIMINATION_COEFFICIENT * gamma / (raman.rabi_frequency ** 2 * duration)
    return RamanReport(
        duration=duration,
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
    ``kappa`` and ``n_bar`` is computed as :func:`pi_pulse_budget` computes
    ``kappa_per_s`` and ``n_bar`` for a beam of that area, bit for bit.
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


def _check_epsilon(epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise InvalidStateError(f"epsilon must be in (0, 1), got {epsilon}")
