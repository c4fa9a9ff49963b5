"""Gate errors of the driven atom: failure probabilities and their
first-order scaling in the decay-to-drive ratio.

A gate is a resonant pulse of area theta applied to a pure start, its Bloch
vector s0 with |s0| = 1 (:func:`qcore.check_pure_start`); the two functions
here that evaluate a gate take (theta, s0) first, as ``jc.jc_gate_error``
does.  Its failure probability is the population left in the state orthogonal
to the decay-free output of the same pulse.  For the Bloch vector s_ideal of that
output and the final state s_ideal + delta, it is p = -s_ideal . delta / 2,
exact for a pure start; delta comes from the deviation form of the exact map,
``lindblad._propagator``, so p keeps its relative precision however small
kappa / g_alpha is: p(0) = 0 and p = c * (kappa / g_alpha) to first order.
``first_order_coefficient`` gives c in closed form; its photon-number form
is p = c' / nbar with c' = c * theta / 2, from kappa / g_alpha = theta / (2 nbar).
A sweep reads p over the ratio grid that :func:`ratio_grid` builds.
"""

from __future__ import annotations

import math

from .lindblad import _apply, _propagator, check_pulse
from .qcore import InvalidStateError, check_count, check_pure_start, logspace

# Ratios above this are outside the perturbative regime of a sweep.
PERTURBATIVE_RATIO_MAX = 1e-2

# Least sweep ratio, a power of ten: no grid point 10**x from an end at or
# above it rounds below it, as one from the smallest normal double can.
_LEAST_RATIO = 1e-300


def first_order_coefficient(theta: float, s0) -> float:
    """c in p = c * (kappa / g_alpha) + O(ratio^2), in closed form, for the
    pulse of area ``theta`` applied to the pure start ``s0``.

    Along the ideal rotation the start's Bloch vector (x, y, z) holds the
    excited population P(tau) = 1/2 + B cos(2 tau) + C sin(2 tau), with
    B = z / 2 and C = -y / 2, and to first order c = int_0^(theta/2) P^2 dtau,
    the square integrated term by term.
    """
    _, y, z = check_pure_start(s0)
    check_pulse(theta, ())
    big_b, big_c = z / 2.0, -y / 2.0
    s, c = math.sin(theta), math.cos(theta)
    # (1 - cos theta) / 2 is written sin(theta/2)^2, which keeps its digits at small theta
    return (theta / 8.0 + (big_b ** 2 + big_c ** 2) * theta / 4.0
            + (big_b ** 2 - big_c ** 2) * s * c / 4.0 + big_b * s / 2.0
            + big_c * math.sin(theta / 2.0) ** 2 + big_b * big_c * s * s / 2.0)


def ratio_grid(least: float, greatest: float, points: int) -> tuple:
    """The sweep grid ``logspace(log10(least), log10(greatest), points)``,
    refused unless it makes a sweep: the ends as typed (:func:`_check_ends`),
    then fewer than four points, before any grid arithmetic; then each two
    neighbours of the grid, by :func:`_check_ends` too."""
    _check_ends(least, greatest)
    if check_count("points", points) < 4:
        raise InvalidStateError(f"need at least 4 sweep ratios, got {points}")
    ratios = logspace(math.log10(least), math.log10(greatest), points)
    for pair in zip(ratios, ratios[1:]):
        _check_ends(*pair)
    return ratios


def _check_ends(least: float, greatest: float) -> None:
    """Refuse, naming the value, unless ``least`` < ``greatest``, ``least`` >=
    :data:`_LEAST_RATIO` and ``greatest`` perturbative; a NaN fails each test."""
    if not least < greatest:
        raise InvalidStateError(f"sweep ratios must be strictly increasing, got {least}"
                                f" then {greatest}")
    if not least >= _LEAST_RATIO:
        raise InvalidStateError(f"ratio {least} is below the least sweep ratio {_LEAST_RATIO:g}")
    if not greatest <= PERTURBATIVE_RATIO_MAX:
        raise InvalidStateError(
            f"ratio {greatest} exceeds the perturbative bound {PERTURBATIVE_RATIO_MAX:g}")


def sweep_failure_probabilities(theta: float, s0, ratios) -> tuple:
    """p(ratio) of the pulse of area ``theta`` applied to the pure start
    ``s0`` = (x_0, y_0, z_0), over an arbitrary non-negative grid (no
    perturbative restriction), clamped into [0, 1]: p = -s_ideal . delta / 2,
    with s_ideal the vector s0 rotated by theta about x, and delta the
    deviation D of :func:`lindblad._propagator` applied to (1, x_0, y_0,
    1 + z_0) by :func:`lindblad._apply`.  ``s0`` is checked pure, and ``theta``
    and every ratio finite and >= 0, before the first map is formed."""
    x, y, z = check_pure_start(s0)
    ratios = tuple(map(float, ratios))
    check_pulse(theta, ratios)
    cos, sin = math.cos(theta), math.sin(theta)
    ideal_y, ideal_z, lift = cos * y + sin * z, cos * z - sin * y, 1.0 + z
    probabilities = []
    for ratio in ratios:
        d_x, d_y, d_z = _apply(_propagator(ratio, theta / 2.0)[1], x, y, lift)
        p = -((x * d_x + ideal_y * d_y) + ideal_z * d_z) / 2.0
        probabilities.append(min(1.0, max(0.0, p)))
    return tuple(probabilities)
