"""Unit-bearing physics: the photon and energy budget of one resonant pi
pulse, computed once by :func:`pi_pulse_budget` from plain SI floats
(wavelength, mode area, dipole moment, field amplitude), with its far-detuned
Raman variant and the fixed-intensity beam-area sweep, which widens the beam
from sigma_eff by six decades, or up to the greatest ``mode_area``.

Everything here is an algebraic calculator over SI inputs (m, s, W, C*m); the
dimensionless gate-error results from :mod:`lasergate.gates` connect to these
through the flux relation Phi = Omega_R^2 / (4 kappa), whose photon form
kappa / g_alpha = theta / (2 nbar) the CLI's ``compare`` writes inline.  The
transition frequency is derived from the wavelength, omega = 2 pi c / lambda,
so the two cannot disagree.  Every pulse is a pi pulse, its duration
T = pi / Omega_R derived, not chosen.  hbar, c and epsilon0 are the module
constants :data:`HBAR`, :data:`C` and :data:`EPSILON0`.  Invariance under a
global change of the time unit (rates * s, times / s, hbar / s, c * s) is a
property of the formulas; the tests check it by patching those constants.

Margins are reported as ratios (satisfied iff margin > 1), which keeps them
meaningful across many orders of magnitude.  Each input has a physical range,
:data:`INPUT_BOX`, and one outside it is refused by name before any
arithmetic, so every value returned is a normal double.
"""

from __future__ import annotations

import math
from collections import namedtuple
from operator import mul

from .gates import coefficients
from .qcore import InvalidStateError, check_count, logspace

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

# Each input's physical range (least, greatest]: a value must lie above the
# least and not above the greatest.  Every value the budget computes is a
# monomial in its inputs, so over these ranges it takes its extremes at their
# corners, where the tests find each one a normal double; nothing can leave
# the double range.
INPUT_BOX = {
    "wavelength": (1e-11, 1.0),  # m: hard X-ray (10 pm) to microwave transitions
    "mode_area": (0.0, 1e4),  # m^2: a beam at most 100 m across; its least is sigma_eff
    "dipole": (1e-40, 1e-24),  # C m: far-forbidden lines to Rydberg states near n = 100
    "field_amplitude": (1e-6, 1e12),  # V/m: up to twice the atomic unit of field
    "epsilon": (1e-15, 0.5),  # far below any fault-tolerance threshold, up to a coin toss
    "detuning": (0.0, 1e18),  # rad/s: up to the carrier of 1.9 nm X-rays; its least is 10 Omega_R
}

# The widest area sweep, as a multiple of sigma_eff: six decades of beam area.
AREA_SWEEP_FACTOR = 1e6

# CODATA 2018 values in SI, read when a budget is computed
HBAR = 1.054571817e-34  # J s
C = 2.99792458e8  # m / s
EPSILON0 = 8.8541878128e-12  # F / m


class PiPulseBudget(namedtuple("PiPulseBudget", """
        wavelength_m mode_area_m2 omega_rad_per_s sigma_eff_m2 gamma_per_s kappa_per_s
        rabi_frequency_rad_per_s intensity_W_per_m2 power_W duration_s epsilon n_bar
        n_bar_prime required_n_bar_prime energy_in_volume_J energy_threshold_J
        constraint_margin margin_purity_form margin_rabi_form margin_explicit_form
        margin_energy_form min_energy_per_lambda3_J""")):
    """The budget of one resonant pi pulse, T = pi / Omega_R: the report's
    scalar lines, in SI base units and in print order, each one a normal double.

    ``kappa_per_s`` = Gamma sigma_eff / A is the decay rate into the
    beam-aligned vacuum modes, so kappa * A stays at Gamma sigma_eff.
    ``n_bar`` counts photons in the whole pulse (P T / hbar omega),
    ``n_bar_prime`` only those within sigma_eff * c * T around the atom.  The
    four ``margin_*`` fields are one constraint (> 1 = pass), each computed
    and printed along its own route, a cross-check of the unit chain: eps /
    (Gamma T); eps Omega_R^2 T / (pi^2 Gamma); the same with Omega_R from the
    raw (d, E0); and the field energy in sigma_eff c T over (pi^2/4) hbar
    omega / eps, which is ``constraint_margin``.
    ``min_energy_per_lambda3_J`` = (16 pi^2 / 3) hbar / (epsilon T), exact for
    one photon per epsilon, though usually quoted as ~hbar/(epsilon T).
    """

    __slots__ = ()

    @property
    def satisfied(self) -> bool:
        return self.constraint_margin > 1.0


def pi_pulse_budget(wavelength: float, mode_area: float, dipole: float, field_amplitude: float,
                    epsilon: float = 1e-4) -> PiPulseBudget:
    """Photon counts, the minimum-energy constraint and the energy floor of one
    resonant pi pulse on a two-level transition of ``wavelength`` (m) and
    ``dipole`` moment (C m), driven by a uniform (top-hat) beam of ``mode_area``
    (m^2) and ``field_amplitude`` E0 (V/m).  The transition frequency is
    omega = 2 pi c / lambda.  The constraint: the field energy within
    sigma_eff * c * T must exceed (pi^2 / 4) hbar omega / epsilon, i.e.
    nbar' > (pi^2 / 4) / epsilon.

    The first input outside its :data:`INPUT_BOX` range, in argument order, is
    refused with :class:`InvalidStateError` naming it, before any arithmetic;
    then a ``mode_area`` below sigma_eff, where kappa = Gamma sigma_eff / A no
    longer holds, is refused too.  Every field of an accepted beam is a normal
    double.
    """
    _check_inputs(wavelength=wavelength, mode_area=mode_area, dipole=dipole,
                  field_amplitude=field_amplitude, epsilon=epsilon)
    # the cross-section for scattering out of the paraxial modes, 3 lambda^2 / (8 pi)
    sigma_eff = 1.5 * math.pi / (2.0 * math.pi / wavelength) ** 2
    if mode_area < sigma_eff:  # kappa = Gamma sigma_eff / A holds only for a paraxial beam
        raise InvalidStateError(f"mode_area must be >= sigma_eff = 3 lambda^2 / (8 pi)"
                                f" = {sigma_eff} m^2, got {mode_area}")
    omega = 2.0 * math.pi * C / wavelength
    # free-space spontaneous emission rate
    gamma = omega ** 3 * dipole ** 2 / (3.0 * math.pi * EPSILON0 * HBAR * C ** 3)
    rabi = dipole * field_amplitude / HBAR
    duration = math.pi / rabi
    intensity = 0.5 * EPSILON0 * C * field_amplitude ** 2
    photon_energy = HBAR * omega
    power = intensity * mode_area
    energy_in_volume = 0.5 * EPSILON0 * field_amplitude ** 2 * (sigma_eff * C * duration)
    threshold = PHOTON_THRESHOLD_COEFFICIENT * photon_energy / epsilon
    margin = energy_in_volume / threshold
    return PiPulseBudget(
        wavelength_m=wavelength,
        mode_area_m2=mode_area,
        omega_rad_per_s=omega,
        sigma_eff_m2=sigma_eff,
        gamma_per_s=gamma,
        kappa_per_s=gamma * sigma_eff / mode_area,
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
        # pi^2 Gamma / Omega_R^2 with Omega_R from the raw (d, E0), bypassing rabi
        margin_explicit_form=epsilon * duration / (
            RESONANT_CHAIN_COEFFICIENT * gamma * (HBAR / (dipole * field_amplitude)) ** 2),
        margin_energy_form=margin,
        min_energy_per_lambda3_J=ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT * HBAR / (
            epsilon * duration),
    )


class RamanReport(namedtuple("RamanReport", """
        detuning_rad_per_s effective_rabi_rad_per_s duration_s purity_loss margin""")):
    """A far-detuned two-photon pi pulse and its verdict on Gamma/Delta < epsilon:
    the detuning Delta, Omega_eff = Omega_R^2 / Delta, T = pi / Omega_eff, the
    purity loss Gamma/Delta and the margin epsilon / (Gamma/Delta), in print
    order, each one a normal double.

    The purity loss is also its detuning-eliminated form pi Gamma / (Omega_R^2
    T), whose single power of pi (:data:`RAMAN_ELIMINATION_COEFFICIENT`) lies
    a factor pi below the resonant-chain coefficient pi^2: a gap reported, not
    absorbed.
    """

    __slots__ = ()

    @property
    def satisfied(self) -> bool:
        return self.margin > 1.0


def raman_constraint(report: PiPulseBudget, detuning: float) -> RamanReport:
    """Accuracy verdict for a far-detuned Raman pi pulse of ``detuning`` on the
    beam of ``report``, a :func:`pi_pulse_budget` report whose Omega_R, Gamma
    and epsilon are read unchecked; T = pi / Omega_eff.

    The purity loss is Gamma/Delta regardless of T; eliminating the detuning
    through the pulse condition Omega_eff * T = pi rewrites it as
    pi * Gamma / (Omega_R^2 T).  A ``detuning`` outside its :data:`INPUT_BOX`
    range is refused, then one below the far-detuned regime, 10 Omega_R; every
    field of an accepted pulse is a normal double.
    """
    _check_inputs(detuning=detuning)
    rabi = report.rabi_frequency_rad_per_s
    if detuning < 10.0 * rabi:
        raise InvalidStateError(
            f"far-detuned regime requires detuning >= 10 * Omega_R "
            f"({detuning:.3e} < {10 * rabi:.3e})"
        )
    effective_rabi = rabi ** 2 / detuning
    duration = math.pi / effective_rabi
    purity_loss = report.gamma_per_s / detuning
    return RamanReport(
        detuning_rad_per_s=detuning,
        effective_rabi_rad_per_s=effective_rabi,
        duration_s=duration,
        purity_loss=purity_loss,
        margin=report.epsilon / purity_loss,
    )


class AreaSweep(namedtuple("AreaSweep", "area kappa kappa_times_area n_bar p_laser p_total")):
    """The fixed-intensity beam-area sweep, one tuple of normal doubles per quantity."""

    __slots__ = ()


def fixed_intensity_area_sweep(report: PiPulseBudget, points: int) -> AreaSweep:
    """kappa, nbar, and pi-pulse errors versus mode area at the intensity of
    ``report``, over ``points`` areas spaced logarithmically from sigma_eff to
    sigma_eff * :data:`AREA_SWEEP_FACTOR`, or to the greatest ``mode_area`` of
    :data:`INPUT_BOX` if that is smaller, both endpoints exact: no row
    describes a beam that :func:`pi_pulse_budget` refuses.

    ``report`` is a :func:`pi_pulse_budget` report, whose fields are read
    unchecked.  Fewer than 2 ``points`` are refused before any arithmetic.

    The laser-mode error (3 pi/8) kappa / Omega_R falls off as 1/A while the
    all-modes error, set by Gamma, does not depend on the area at all.  Each
    ``kappa`` and ``n_bar`` is computed as :func:`pi_pulse_budget` computes
    ``kappa_per_s`` and ``n_bar`` for a beam of that area, bit for bit.
    """
    if check_count("area_sweep_points", points) < 2:
        raise InvalidStateError("area_sweep_points must be >= 2")
    sigma_eff = report.sigma_eff_m2
    largest = min(sigma_eff * AREA_SWEEP_FACTOR, INPUT_BOX["mode_area"][1])
    # 10**log10(x) need not round back to x: the ends are set exactly
    area = (sigma_eff, *logspace(math.log10(sigma_eff), math.log10(largest), points)[1:-1],
            largest)
    rabi, duration = report.rabi_frequency_rad_per_s, report.duration_s
    gamma = report.gamma_per_s
    photon_energy = HBAR * report.omega_rad_per_s
    gamma_sigma = gamma * sigma_eff
    intensity = report.intensity_W_per_m2
    kappa = tuple(gamma_sigma / a for a in area)
    # p per unit kappa / Omega_R of a pi pulse from the ground state, 3 pi / 8:
    # twice its slope c per unit kappa / g_alpha, as Omega_R = 2 g_alpha
    slope = 2.0 * coefficients(((math.pi, 0.0),), (0.0, 0.0, -1.0)).c
    return AreaSweep(
        area=area,
        kappa=kappa,
        kappa_times_area=tuple(map(mul, kappa, area)),
        n_bar=tuple(intensity * a * duration / photon_energy for a in area),
        p_laser=tuple(slope * k / rabi for k in kappa),
        p_total=(slope * gamma / rabi,) * len(area),
    )


def _check_inputs(**inputs: float) -> None:
    """Refuse, by its name, the first of ``inputs`` outside its :data:`INPUT_BOX` range."""
    for name, value in inputs.items():
        least, greatest = INPUT_BOX[name]
        if not least < value <= greatest:  # NaN fails too
            raise InvalidStateError(f"{name} must be in ({least:g}, {greatest:g}], got {value}")
