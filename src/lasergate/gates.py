"""Gate errors of the driven atom: failure probabilities and their
first-order scaling in the decay-to-drive ratio.

A gate is a resonant pulse of area theta applied to an initial
:class:`qcore.PureState` psi, and both functions here take (theta, psi) in
that order, as ``jc.jc_gate_error`` does.  Its failure probability is the
population left in the state orthogonal to the decay-free output of the same
pulse.  For the Bloch vector s_ideal of that output and the final state
s_ideal + delta, it is p = -s_ideal . delta / 2, exact for a pure start;
delta comes from the deviation form of the exact map,
``lindblad._propagator``, so p keeps its relative precision however small
kappa / g_alpha is: p(0) = 0 and p = c * (kappa / g_alpha) to first order.
``first_order_coefficient`` gives c in closed form; its photon-number form
is p = c' / nbar with c' = c * theta / 2 (see ``budget.photon_coefficient``).
A sweep reads p over a ratio grid that ``check_ratio_grid`` accepts.
"""

from __future__ import annotations

import math

from .lindblad import _apply, _propagator, check_pulse
from .qcore import InvalidStateError, PureState

# Ratios above this are outside the perturbative regime of a sweep.
PERTURBATIVE_RATIO_MAX = 1e-2


def first_order_coefficient(theta: float, psi: PureState) -> float:
    """c in p = c * (kappa / g_alpha) + O(ratio^2), in closed form, for the
    pulse of area ``theta`` applied to ``psi``.

    For the initial state (b0, a0), ground amplitude first, the excited
    amplitude along the ideal rotation is a(tau) = cos(tau) a0 - i sin(tau) b0,
    and to first order c = int_0^(theta/2) |a(tau)|^4 dtau.  With
    |a|^2 = 1/2 + B cos(2 tau) + C sin(2 tau), read from the Bloch vector
    (x, y, z) of psi as B = z / 2 and C = -y / 2, the square is integrated
    term by term.
    """
    check_pulse(theta, ())
    _, y, z = psi.bloch()
    big_b, big_c = z / 2.0, -y / 2.0
    s, c = math.sin(theta), math.cos(theta)
    # (1 - cos theta) / 2 is written sin(theta/2)^2, which keeps its digits at small theta
    return (theta / 8.0 + (big_b ** 2 + big_c ** 2) * theta / 4.0
            + (big_b ** 2 - big_c ** 2) * s * c / 4.0 + big_b * s / 2.0
            + big_c * math.sin(theta / 2.0) ** 2 + big_b * big_c * s * s / 2.0)


def check_ratio_grid(ratios) -> tuple:
    """``ratios`` as floats, refused unless they make a sweep: at least four
    strictly increasing values, all perturbative (<= 1e-2, where p/ratio
    stays near c).  A sweep calls it before it reads any ratio."""
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
    return r


def sweep_failure_probabilities(theta: float, psi: PureState, ratios) -> tuple:
    """p(ratio) of the pulse of area ``theta`` applied to ``psi``, over an
    arbitrary non-negative grid (no perturbative restriction), clamped into
    [0, 1]: p = -s_ideal . delta / 2, with s_ideal the Bloch vector s_0 of
    psi rotated by theta about x, and delta the deviation D of
    :func:`lindblad._propagator` applied to (1, x_0, y_0, 1 + z_0) by
    :func:`lindblad._apply`.  ``theta`` and every ratio are checked finite
    and >= 0 before the first map is formed."""
    ratios = tuple(map(float, ratios))
    check_pulse(theta, ratios)
    x, y, z = psi.bloch()
    cos, sin = math.cos(theta), math.sin(theta)
    ideal_y, ideal_z, lift = cos * y + sin * z, cos * z - sin * y, 1.0 + z
    probabilities = []
    for ratio in ratios:
        d_x, d_y, d_z = _apply(_propagator(ratio, theta / 2.0)[1], x, y, lift)
        p = -((x * d_x + ideal_y * d_y) + ideal_z * d_z) / 2.0
        probabilities.append(min(1.0, max(0.0, p)))
    return tuple(probabilities)
