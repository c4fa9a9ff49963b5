"""Unit-bearing physics: the photon and energy budget of one resonant pi
pulse, computed once by :func:`pi_pulse_budget` from plain SI floats
(wavelength, mode area, dipole moment, field amplitude), with its far-detuned
Raman variant and the fixed-intensity beam-area sweep.

Everything here is an algebraic calculator over SI inputs (m, s, W, C*m); the
dimensionless gate-error results from :mod:`lasergate.gates` connect to these
through the flux relation Phi = Omega_R^2 / (4 kappa).  The transition
frequency is derived from the wavelength, omega = 2 pi c / lambda, so the two
cannot disagree.  Every pulse is a pi pulse, its duration T = pi / Omega_R
derived, not chosen.  hbar, c and epsilon0 are the module constants
:data:`HBAR`, :data:`C` and :data:`EPSILON0`.  Invariance under a global
change of the time unit (rates * s, times / s, hbar / s, c * s) is a
property of the formulas; the tests check it by patching those constants.

Margins are reported as ratios (satisfied iff margin > 1), which keeps them
meaningful across many orders of magnitude.  Each input has a physical range,
:data:`INPUT_BOX`, and one outside it is refused by name before any
arithmetic, so every value returned is a normal double.
"""

from __future__ import annotations

import math
from operator import mul

from .gates import first_order_coefficient
from .qcore import InvalidStateError, Record, check_count, logspace

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
# The factor by which the Raman form undercuts the resonant chain.
RAMAN_COEFFICIENT_GAP = RESONANT_CHAIN_COEFFICIENT / RAMAN_ELIMINATION_COEFFICIENT

# Largest relative spread of the four margin forms.  Inside INPUT_BOX every
# intermediate value is a normal double, and they agree to a few ulps.
MARGIN_AGREEMENT_TOL = 1e-12

# Each input's physical range (least, greatest]: a value must lie above the
# least and not above the greatest.  Every value the budget computes is a
# monomial in its inputs, so over these ranges it takes its extremes at their
# corners, where the tests find each one a normal double; nothing can leave
# the double range.  The rabi_frequency and gamma ranges hold d E0 / hbar and
# Gamma over the dipole, field and wavelength ranges, rounded outward.
INPUT_BOX = {
    "wavelength": (1e-11, 1.0),  # m: hard X-ray (10 pm) to microwave transitions
    "mode_area": (0.0, 1e4),  # m^2: a beam at most 100 m across; its least is sigma_eff
    "dipole": (1e-40, 1e-24),  # C m: far-forbidden lines to Rydberg states near n = 100
    "field_amplitude": (1e-6, 1e12),  # V/m: up to twice the atomic unit of field
    "epsilon": (1e-15, 0.5),  # far below any fault-tolerance threshold, up to a coin toss
    "detuning": (0.0, 1e18),  # rad/s: up to the carrier of 1.9 nm X-rays; its least is 10 Omega_R
    "rabi_frequency": (1e-13, 1e22),  # rad/s: d E0 / hbar spans 9.5e-13 to 9.5e21
    "gamma": (1e-35, 1e32),  # 1/s: Gamma spans 2.8e-34 to 2.8e31
    "area_sweep_max_factor": (1.0, 1e12),  # a sweep wider than one area, by at most 12 decades
    "n_bar": (0.0, 1e14),  # photons per pulse, up to the cap of jc
}


# CODATA 2018 values in SI, read when a budget is computed
HBAR = 1.054571817e-34  # J s
C = 2.99792458e8  # m / s
EPSILON0 = 8.8541878128e-12  # F / m


class PiPulseBudget(Record):
    """The budget of one resonant pi pulse, T = pi / Omega_R: the report's
    scalar lines, in SI base units and in print order, each one a normal double.

    ``kappa_per_s`` = Gamma sigma_eff / A is the decay rate into the
    beam-aligned vacuum modes, so kappa * A stays at Gamma sigma_eff.
    ``n_bar`` counts photons in the whole pulse (P T / hbar omega),
    ``n_bar_prime`` only those within sigma_eff * c * T around the atom.  The
    four ``margin_*`` fields are one constraint (> 1 = pass) along independent
    routes, a cross-check of the unit chain: eps / (Gamma T); eps Omega_R^2 T /
    (pi^2 Gamma); the same with Omega_R from the raw (d, E0); and the field
    energy in sigma_eff c T over (pi^2/4) hbar omega / eps, which is
    ``constraint_margin``.
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


def drive_ratio_for_photons(theta: float, n_bar: float) -> float:
    """kappa / g_alpha = theta / (2 nbar) for a theta pulse carrying nbar
    photons, from kappa / Omega_R = theta / (4 nbar) and Omega_R = 2 g_alpha.
    An ``n_bar`` outside its :data:`INPUT_BOX` range is refused with
    :class:`InvalidStateError`."""
    _check_inputs(n_bar=n_bar)
    return theta / (2.0 * n_bar)


def photon_coefficient(coefficient_vs_ratio: float, theta: float) -> float:
    """Convert c (per kappa/g_alpha) into c' (per 1/nbar): c' = c * theta / 2."""
    return coefficient_vs_ratio * theta / 2.0


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
    # pi^2 Gamma / Omega_R^2 with Omega_R from the raw (d, E0), bypassing rabi
    forms = {
        "margin_purity_form": epsilon / (gamma * duration),
        "margin_rabi_form": epsilon * rabi ** 2 * duration / (RESONANT_CHAIN_COEFFICIENT * gamma),
        "margin_explicit_form": epsilon * duration / (
            RESONANT_CHAIN_COEFFICIENT * gamma * (HBAR / (dipole * field_amplitude)) ** 2),
    }
    for name, form in forms.items():
        if abs(form - margin) > MARGIN_AGREEMENT_TOL * margin:
            raise FloatingPointError(f"{name} = {form!r} but constraint_margin = {margin!r}:"
                                     " the margin forms disagree")
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
        **forms,
        margin_energy_form=margin,
        min_energy_per_lambda3_J=ENERGY_PER_WAVELENGTH_CUBED_COEFFICIENT * HBAR / (
            epsilon * duration),
    )


class RamanReport(Record):
    """A far-detuned two-photon pi pulse and its verdict on Gamma/Delta < epsilon:
    the detuning Delta, Omega_eff = Omega_R^2 / Delta, T = pi / Omega_eff, the
    purity loss Gamma/Delta, the margin epsilon / (Gamma/Delta) and the
    detuning-eliminated left-hand side, in print order, each one a normal double.

    Substituting Delta = Omega_R^2 T / pi turns the purity-loss bound into
    pi * Gamma / (Omega_R^2 T) < epsilon: a single power of pi, a factor pi
    below the resonant-chain coefficient pi^2 (:data:`RAMAN_COEFFICIENT_GAP`).
    The gap is reported, not absorbed.
    """

    detuning_rad_per_s: float
    effective_rabi_rad_per_s: float
    duration_s: float
    purity_loss: float
    margin: float
    eliminated_lhs: float

    @property
    def satisfied(self) -> bool:
        return self.margin > 1.0


def raman_constraint(detuning: float, rabi_frequency: float, gamma: float,
                     epsilon: float) -> RamanReport:
    """Accuracy verdict for a far-detuned Raman pi pulse of single-photon Rabi
    frequency Omega_R, T = pi / Omega_eff.

    The purity loss is Gamma/Delta regardless of T; eliminating the detuning
    through the pulse condition Omega_eff * T = pi rewrites it as
    pi * Gamma / (Omega_R^2 T).  Inputs are refused as :func:`pi_pulse_budget`
    refuses its own, in the order detuning, rabi_frequency, the far-detuned
    regime detuning >= 10 Omega_R, epsilon, gamma.  The ranges of
    ``rabi_frequency`` and ``gamma`` hold the Omega_R and Gamma of every
    :func:`pi_pulse_budget` report, and every field of an accepted pulse is a
    normal double.
    """
    _check_inputs(detuning=detuning, rabi_frequency=rabi_frequency)
    if detuning < 10.0 * rabi_frequency:
        raise InvalidStateError(
            f"far-detuned regime requires detuning >= 10 * Omega_R "
            f"({detuning:.3e} < {10 * rabi_frequency:.3e})"
        )
    _check_inputs(epsilon=epsilon, gamma=gamma)
    effective_rabi = rabi_frequency ** 2 / detuning
    duration = math.pi / effective_rabi
    purity_loss = gamma / detuning
    return RamanReport(
        detuning_rad_per_s=detuning,
        effective_rabi_rad_per_s=effective_rabi,
        duration_s=duration,
        purity_loss=purity_loss,
        margin=epsilon / purity_loss,
        eliminated_lhs=RAMAN_ELIMINATION_COEFFICIENT * gamma / (rabi_frequency ** 2 * duration),
    )


class AreaSweep(Record):
    """The fixed-intensity beam-area sweep, one tuple of normal doubles per quantity."""

    area: tuple
    kappa: tuple
    kappa_times_area: tuple
    n_bar: tuple
    p_laser: tuple
    p_total: tuple


def fixed_intensity_area_sweep(report: PiPulseBudget, points: int, max_factor: float) -> AreaSweep:
    """kappa, nbar, and pi-pulse errors versus mode area at the intensity of
    ``report``, over ``points`` areas spaced logarithmically from sigma_eff to
    sigma_eff * ``max_factor``, both endpoints exact.

    ``report`` is a :func:`pi_pulse_budget` report, whose fields are read
    unchecked; :func:`check_area_sweep` refuses ``points`` and ``max_factor``.

    The laser-mode error (3 pi/8) kappa / Omega_R falls off as 1/A while the
    all-modes error, set by Gamma, does not depend on the area at all.  Each
    ``kappa`` and ``n_bar`` is computed as :func:`pi_pulse_budget` computes
    ``kappa_per_s`` and ``n_bar`` for a beam of that area, bit for bit.
    """
    check_area_sweep(points, max_factor)
    sigma_eff = report.sigma_eff_m2
    largest = sigma_eff * max_factor
    areas = logspace(math.log10(sigma_eff), math.log10(largest), points)
    area = (sigma_eff, *areas[1:-1], largest)  # 10**log10(x) need not round back to x
    rabi, duration = report.rabi_frequency_rad_per_s, report.duration_s
    gamma = report.gamma_per_s
    photon_energy = HBAR * report.omega_rad_per_s
    gamma_sigma = gamma * sigma_eff
    intensity = report.intensity_W_per_m2
    kappa = tuple(gamma_sigma / a for a in area)
    # p per unit kappa / Omega_R of a pi pulse from the ground state, 3 pi / 8:
    # twice its slope c per unit kappa / g_alpha, as Omega_R = 2 g_alpha
    slope = 2.0 * first_order_coefficient(math.pi, (0.0, 0.0, -1.0))
    return AreaSweep(
        area=area,
        kappa=kappa,
        kappa_times_area=tuple(map(mul, kappa, area)),
        n_bar=tuple(intensity * a * duration / photon_energy for a in area),
        p_laser=tuple(slope * k / rabi for k in kappa),
        p_total=(slope * gamma / rabi,) * len(area),
    )


def check_area_sweep(points: int, max_factor: float) -> None:
    """Refuse fewer than 2 sweep ``points``, then a ``max_factor`` outside its
    :data:`INPUT_BOX` range."""
    if check_count("area_sweep_points", points) < 2:
        raise InvalidStateError("area_sweep_points must be >= 2")
    _check_inputs(area_sweep_max_factor=max_factor)


def _check_inputs(**inputs: float) -> None:
    """Refuse, by its name, the first of ``inputs`` outside its :data:`INPUT_BOX` range."""
    for name, value in inputs.items():
        least, greatest = INPUT_BOX[name]
        if not least < value <= greatest:  # NaN fails too
            raise InvalidStateError(f"{name} must be in ({least:g}, {greatest:g}], got {value}")
