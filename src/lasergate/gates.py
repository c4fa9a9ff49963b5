"""Gate errors of the driven atom: failure probabilities and their
first-order scaling in the decay-to-drive ratio.

A gate is a resonant pulse of area theta applied to a pure start, its Bloch
vector s0 with |s0| = 1 (:func:`qcore.check_pure_start`); the two functions
here that evaluate a gate take the pulse first and s0 second, as
``jc.jc_gate_error`` does.  Its failure probability is the population left in
the state orthogonal to the decay-free output of the same pulse.  For the Bloch
vector s_ideal of that output and the final state s_ideal + delta, it is
p = -s_ideal . delta / 2, exact for a pure start; delta comes from the
deviation form of the exact map, ``lindblad._propagator``, so p keeps its
relative precision however small kappa / g_alpha is: p(0) = 0 and
p = c * (kappa / g_alpha) to first order.
:func:`coefficients` gives c in closed form, with its photon-number forms
p = c' / nbar, for a pulse or a sequence of pulses.
A sweep reads p over the ratio grid that :func:`ratio_grid` builds.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .lindblad import _apply, _propagator, check_pulse
from .qcore import InvalidStateError, _amplitudes, check_count, check_pure_start, logspace

# Ratios above this are outside the perturbative regime of a sweep.
PERTURBATIVE_RATIO_MAX = 1e-2

# Least sweep ratio, a power of ten: no grid point 10**x from an end at or
# above it rounds below it, as one from the smallest normal double can.
_LEAST_RATIO = 1e-300


class Coefficients(namedtuple("Coefficients", "c c_prime_markov c_prime_shaped c_prime_jc")):
    """The first-order coefficients of one pulse sequence from one pure start:
    c in p = c * (kappa / g_alpha), and the photon forms c' in p = c' / nbar
    of the Markov model, of the best Markov envelope of the same pulse area,
    and of the single-mode model, c'_JC <= c'_shaped <= c'_markov."""

    __slots__ = ()


def coefficients(segments, s0) -> Coefficients:
    """The :class:`Coefficients` of the pulse sequence ``segments`` applied
    to the pure start ``s0``, all from one first-order error amplitude.

    Each segment (theta, phi) is a square pulse of area theta under the drive
    H = g_alpha (e^(i phi) sigma_+ + e^(-i phi) sigma_-), a rotation about the
    axis (cos phi, sin phi, 0); a square pulse is ``((theta, 0.0),)``.  Along
    the ideal rotation, in scaled time tau, the error amplitude
    f = e^(-i phi) <perp| sigma_- |psi> has |f| = P, the excited population,
    and the coefficients are c = int |f|^2, c'_markov = (sum theta / 2) c
    from kappa / g_alpha = sum theta / (2 nbar), c'_shaped = (int |f|)^2 and
    c'_JC = |int f|^2.  In the Markov model each instant decays into its own
    travelling mode, so the probabilities add; c'_shaped is the least
    c'_markov over drive envelopes of the same rotation, reached with the
    drive in proportion to |f|; in the single-mode model one mode takes the
    whole emission, so the amplitudes add.

    Within a segment, in its frame a_0 = e^(-i phi) x_a, b_0 = x_b of the
    start's amplitudes (:func:`qcore._amplitudes`), P = 1/2 + B cos(2 tau) +
    C sin(2 tau) with B = z / 2 and C = -y / 2 of that frame's Bloch vector,
    and f = -e^(i phi) (cos tau a_0 - i sin tau b_0)^2; each integral over
    [0, theta / 2] is a few closed-form terms, and the amplitudes are carried
    to the next segment by the segment's ideal rotation.  ``s0`` is checked
    pure, and every theta as :func:`lindblad.check_pulse` does and every phi
    finite, before any arithmetic.

    Precision: each segment's integrals sum terms as large as its area theta
    to a c that can be far smaller, so c is right to about one ulp of theta,
    absolutely (at most 1.2e-16 theta for theta from 1e-3 to 4 pi, against a
    40-digit quadrature).  Relative to c that is 1e-13 or better for every
    start from theta = 0.5 up, and for starts away from the ground state from
    theta = 0.1 up.  From the ground state c = (theta / 2)^5 / 5 to leading
    order, and c is off by 3.5e-11 relative at theta = 0.1, by 1.9e-7 at
    1e-2 and by 2.5e-3 at 1e-3.  ``sweep`` prints c at theta = pi and pi / 2.
    """
    x_b, x_a = _amplitudes(check_pure_start(s0))
    segments = tuple(segments)
    for theta, phi in segments:
        check_pulse(theta, ())
        if not math.isfinite(phi):
            raise InvalidStateError(f"phase must be finite, got {phi}")
    area = c = modulus = 0.0
    amplitude = 0j
    for theta, phi in segments:
        turn = complex(math.cos(phi), -math.sin(phi))  # e^(-i phi), into the segment's frame
        a_0, b_0 = turn * x_a, x_b
        big_b = (abs(a_0) ** 2 - abs(b_0) ** 2) / 2.0
        big_c = -(a_0 * b_0.conjugate()).imag
        s, co = math.sin(theta), math.cos(theta)
        # (1 - cos theta) / 2 is written sin(theta/2)^2, which keeps its digits at small theta
        lift = math.sin(theta / 2.0) ** 2
        c += (theta / 8.0 + (big_b ** 2 + big_c ** 2) * theta / 4.0
              + (big_b ** 2 - big_c ** 2) * s * co / 4.0 + big_b * s / 2.0
              + big_c * lift + big_b * big_c * s * s / 2.0)
        modulus += theta / 4.0 + big_b * s / 2.0 + big_c * lift
        # int f without its sign, which |int f|^2 drops: a_0^2 I_cc - 2i a_0 b_0 I_cs
        # - b_0^2 I_ss, with I_cc, I_ss = (theta +- sin theta) / 4 and 2 I_cs = lift
        amplitude += turn.conjugate() * ((theta + s) / 4.0 * a_0 * a_0 - 1j * lift * a_0 * b_0
                                         - (theta - s) / 4.0 * b_0 * b_0)
        # the rotation cos(theta/2) - i sin(theta/2) sigma_x, then back out of the frame
        cos_h, sin_h = math.cos(theta / 2.0), -1j * math.sin(theta / 2.0)
        x_b, x_a = cos_h * b_0 + sin_h * a_0, turn.conjugate() * (cos_h * a_0 + sin_h * b_0)
        area += theta
    return Coefficients(c, area / 2.0 * c, modulus ** 2,
                        amplitude.real ** 2 + amplitude.imag ** 2)


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
