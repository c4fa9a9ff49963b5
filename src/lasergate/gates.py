"""Gate experiments on the driven atom: failure probabilities and their
first-order scaling in the decay-to-drive ratio.

A gate is a resonant pulse of area theta applied to a chosen initial state.
Its failure probability is the population left in the state orthogonal to
the decay-free output of the same Hamiltonian, so p(ratio=0) = 0 by
construction and p = c * (kappa / g_alpha) to first order.
``extract_coefficient`` measures c by a through-origin fit over a
perturbative ratio grid and converts it to the photon-number form
p = c' / nbar using c' = c * theta / 2 (see ``budget.photon_coefficient``).
"""

from __future__ import annotations

import math
from operator import mul

from .lindblad import DecaySpec, PulseSpec, evolve
from .qcore import InvalidStateError, PureState, Record, fidelity_pure, logspace, psi_perp

# Ratios above this are outside the perturbative regime the linear fit assumes.
PERTURBATIVE_RATIO_MAX = 1e-2

# Ratios below this leave p too close to its ~6e-16 absolute error floor: at
# 1e-10 that error is about 1e-4 of p for the smallest coefficient (pi/2 from
# ground, c = 0.0445), and below it a slope p/ratio measures rounding.
RESOLVABLE_RATIO_MIN = 1e-10

# Relative RMS residual above which a fit is flagged as degraded.
FIT_RESIDUAL_BOUND = 1e-3


class GateExperiment(Record):
    """A pulse area plus the state it is applied to."""

    pulse_area: float
    initial_state: PureState

    def __post_init__(self):
        if not (math.isfinite(self.pulse_area) and self.pulse_area >= 0):
            raise InvalidStateError(f"pulse_area must be finite and >= 0, got {self.pulse_area}")


class ErrorCoefficient(Record):
    """First-order error coefficients of one gate.

    ``coefficient_vs_ratio`` is c in p = c * (kappa/g_alpha);
    ``coefficient_vs_photons`` is c' in p = c'/nbar for a pulse carrying nbar
    photons over its own duration.  ``fit_residual`` is the RMS spread of the
    pointwise slopes p_i/ratio_i around c (same units as c).
    """

    coefficient_vs_ratio: float
    coefficient_vs_photons: float
    fit_residual: float
    degraded_fit: bool = False


def failure_probability(experiment: GateExperiment, ratio: float) -> float:
    """Failure probability of one gate at a given kappa/g_alpha.

    Parameters
    ----------
    experiment : GateExperiment
        Pulse area and initial state.
    ratio : float
        Decay-to-drive ratio kappa / g_alpha, >= 0.

    Returns
    -------
    float
        p = <psi_perp| rho(T) |psi_perp> in [0, 1], where psi_perp is
        orthogonal to the decay-free evolution of the same initial state,
        and rho(T) is the exact solution of the master equation.  For a
        unit-trace rho this equals 1 - <psi_target| rho(T) |psi_target>
        without the cancellation.
    """
    return sweep_failure_probabilities(experiment, [ratio])[0]


def default_ratio_grid(count: int = 8) -> tuple:
    """Log-spaced perturbative grid, 1e-5 .. 1e-3."""
    return logspace(-5.0, -3.0, count)


def extract_coefficient(experiment: GateExperiment, ratios=None) -> ErrorCoefficient:
    """Measure the first-order error coefficient of a gate by a ratio sweep.

    Parameters
    ----------
    experiment : GateExperiment
    ratios : array-like, optional
        At least four strictly increasing ratios, all within the
        perturbative regime (<= 1e-2) and resolvable (>= 1e-10).  Defaults to
        ``default_ratio_grid()``.

    Returns
    -------
    ErrorCoefficient
        See :func:`fit_coefficient`.
    """
    if ratios is None:
        ratios = default_ratio_grid()
    p = sweep_failure_probabilities(experiment, ratios)
    return fit_coefficient(experiment.pulse_area, ratios, p)


def check_ratio_grid(ratios) -> tuple:
    """``ratios`` as floats, refused unless the through-origin fit can use
    them: at least four strictly increasing values, all in [1e-10, 1e-2].
    A sweep calls it before it propagates any ratio."""
    r = tuple(map(float, ratios))
    if len(r) < 4:
        raise InvalidStateError(f"need at least 4 sweep ratios, got {len(r)}")
    # written so that a NaN ratio fails: every comparison with NaN is False
    if not (r[0] > 0 and all(b > a for a, b in zip(r, r[1:]))):
        raise InvalidStateError("sweep ratios must be positive and strictly increasing")
    if r[-1] > PERTURBATIVE_RATIO_MAX:
        raise InvalidStateError(
            f"ratio {r[-1]:g} exceeds the perturbative bound {PERTURBATIVE_RATIO_MAX:g}"
        )
    if r[0] < RESOLVABLE_RATIO_MIN:
        raise InvalidStateError(
            f"ratio {r[0]:g} is below {RESOLVABLE_RATIO_MIN:g}, where p is not resolved"
        )
    return r


def fit_coefficient(pulse_area: float, ratios, probabilities) -> ErrorCoefficient:
    """Fit p = c * ratio through the origin over a perturbative sweep.

    ``ratios`` must pass :func:`check_ratio_grid`, and ``probabilities``
    hold one finite value per ratio.  Returns the least-squares slope c, its
    photon-number counterpart c' = c * theta / 2, and the fit residual;
    ``degraded_fit`` is set when the residual exceeds 1e-3 * c instead of
    raising.
    """
    r = check_ratio_grid(ratios)
    p = tuple(map(float, probabilities))
    if len(p) != len(r):
        raise InvalidStateError(f"got {len(p)} probabilities for {len(r)} sweep ratios")
    if not all(map(math.isfinite, p)):
        raise InvalidStateError("sweep probabilities must be finite")
    from . import budget

    c = sum(map(mul, p, r)) / sum(map(mul, r, r))  # least squares through the origin
    residual = math.sqrt(sum((p_i / r_i - c) ** 2 for p_i, r_i in zip(p, r)) / len(r))
    c_prime = budget.photon_coefficient(c, pulse_area)
    return ErrorCoefficient(
        coefficient_vs_ratio=c,
        coefficient_vs_photons=c_prime,
        fit_residual=residual,
        degraded_fit=residual > FIT_RESIDUAL_BOUND * c,
    )


def sweep_failure_probabilities(experiment: GateExperiment, ratios) -> tuple:
    """p(ratio) over an arbitrary non-negative grid (no perturbative restriction),
    from one exact :func:`lindblad.evolve` per ratio.  Every ratio is checked,
    as a :class:`lindblad.DecaySpec`, before the first pulse is propagated."""
    pulse = PulseSpec(drive_coupling=1.0, pulse_area=experiment.pulse_area)
    decays = [DecaySpec(float(ratio)) for ratio in ratios]
    rho0 = experiment.initial_state.to_density()
    orthogonal = PureState(psi_perp(experiment.pulse_area, experiment.initial_state.amplitudes))
    return tuple(fidelity_pure(evolve(rho0, pulse, decay).final, orthogonal) for decay in decays)
