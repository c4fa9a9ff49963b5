"""Gate errors of the driven atom: failure probabilities and their
first-order scaling in the decay-to-drive ratio.

A gate is a resonant pulse of area theta applied to an initial
:class:`qcore.PureState` psi, and both functions here take (theta, psi) in
that order, as ``jc.jc_gate_error`` does.  The pulse is propagated from the
Bloch vector of psi, and its failure probability is read from the final
state, the trajectory's last Bloch vector taken to its density-matrix entries
by ``qcore.density_columns``: the population left in the state orthogonal to
the decay-free output of the same Hamiltonian, so
p(ratio=0) = 0 by construction and p = c * (kappa / g_alpha) to first order.
``first_order_coefficient`` gives c in closed form; its photon-number form
is p = c' / nbar with c' = c * theta / 2 (see ``budget.photon_coefficient``).
A sweep propagates p over a ratio grid that ``check_ratio_grid`` accepts.
"""

from __future__ import annotations

import math
from operator import mul

from .lindblad import Trajectory, check_pulse, evolve
from .qcore import InvalidStateError, PureState, density_columns, matvec, psi_perp

# Ratios above this are outside the perturbative regime of a sweep.
PERTURBATIVE_RATIO_MAX = 1e-2

# Ratios below this leave p too close to its ~6e-16 absolute error floor: at
# 1e-10 that error is about 1e-4 of p for the smallest coefficient (pi/2 from
# ground, c = 0.0445), and below it a slope p/ratio measures rounding.
RESOLVABLE_RATIO_MIN = 1e-10


def first_order_coefficient(theta: float, psi: PureState) -> float:
    """c in p = c * (kappa / g_alpha) + O(ratio^2), in closed form, for the
    pulse of area ``theta`` applied to ``psi``.

    For the initial state (b0, a0), ground amplitude first, the excited
    amplitude along the ideal rotation is a(tau) = cos(tau) a0 - i sin(tau) b0,
    and to first order c = int_0^(theta/2) |a(tau)|^4 dtau.  With
    |a|^2 = 1/2 + B cos(2 tau) + C sin(2 tau), B = (|a0|^2 - |b0|^2) / 2 and
    C = -Im(a0 b0*), the square is integrated term by term.
    """
    check_pulse(theta, ())
    b0, a0 = psi.amplitudes
    big_b = (abs(a0) ** 2 - abs(b0) ** 2) / 2.0
    big_c = -(a0 * b0.conjugate()).imag
    s, c = math.sin(theta), math.cos(theta)
    # (1 - cos theta) / 2 is written sin(theta/2)^2, which keeps its digits at small theta
    return (theta / 8.0 + (big_b ** 2 + big_c ** 2) * theta / 4.0
            + (big_b ** 2 - big_c ** 2) * s * c / 4.0 + big_b * s / 2.0
            + big_c * math.sin(theta / 2.0) ** 2 + big_b * big_c * s * s / 2.0)


def check_ratio_grid(ratios) -> tuple:
    """``ratios`` as floats, refused unless they make a sweep: at least four
    strictly increasing values, all perturbative (<= 1e-2, where p/ratio
    stays near c) and resolvable (>= 1e-10).  A sweep calls it before it
    propagates any ratio."""
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


def _final_population(trajectory: Trajectory, bra) -> float:
    """<bra| rho |bra> of the final state rho of ``trajectory``, clamped into
    [0, 1], for the amplitudes ``bra``; rho is the Hermitian matrix
    ((rho_bb, rho_ab*), (rho_ab, rho_aa)) of the last sample's
    :func:`qcore.density_columns`, in complex arithmetic."""
    (rho_bb,), (rho_aa,), (re,), (im,) = density_columns(
        trajectory.x[-1:], trajectory.y[-1:], trajectory.z[-1:])
    rho = ((complex(rho_bb, 0.0), complex(re, -im)), (complex(re, im), complex(rho_aa, 0.0)))
    value = sum(map(mul, (x.conjugate() for x in bra), matvec(rho, bra)))
    return min(1.0, max(0.0, value.real))


def sweep_failure_probabilities(theta: float, psi: PureState, ratios) -> tuple:
    """p(ratio) of the pulse of area ``theta`` applied to ``psi``, over an
    arbitrary non-negative grid (no perturbative restriction), from one exact
    :func:`lindblad.evolve` per ratio.  Each p = <psi_perp| rho(T) |psi_perp>,
    with psi_perp orthogonal to the decay-free output of the same pulse.
    ``theta`` and every ratio are checked finite and >= 0 before the first
    pulse is propagated."""
    ratios = tuple(map(float, ratios))
    check_pulse(theta, ratios)
    s0 = psi.bloch()
    orthogonal = psi_perp(theta, psi.amplitudes)
    return tuple(_final_population(evolve(s0, theta, ratio), orthogonal) for ratio in ratios)
