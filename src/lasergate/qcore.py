"""States of one two-level atom.

The package has one state format, real: the Bloch vector (x, y, z) of
rho = (I + x sigma_x + y sigma_y + z sigma_z) / 2, a tuple of three floats
with |s| <= 1.  Every start (:func:`check_start`) and every propagated state
is one, and a trajectory holds its samples as columns of x, y and z; a pure
start is read as amplitudes (:func:`_amplitudes`) only where a phase is carried:
by the single-mode model of ``jc`` and by ``gates.coefficients``.  For a real s, rho
has trace 1, eigenvalues (1 -+ |s|) / 2 and purity (1 + |s|^2) / 2, so one
rule says that s is a state, |s| <= 1, which :func:`check_bloch` checks on a
stack of vectors, and one that it is pure, |s| = 1 (:func:`check_pure_start`).
The matrix entries of those columns and their purity, :func:`density_columns`,
are the one home of the Bloch-to-matrix format.  The package's record types
are ``collections.namedtuple`` subclasses with no instance dict, so they are
immutable tuples that also equal plain tuples of their values.

Basis ordering for the two-level atom is fixed package-wide:
index 0 = ground ``|b>``, index 1 = excited ``|a>``.
"""

from __future__ import annotations

import math
import operator

# How far past the unit sphere a Bloch vector's length may round, and how far
# from it a pure state's.
BLOCH_SLACK = 1e-9


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state invariant."""


def logspace(start: float, stop: float, num: int) -> tuple:
    """``num`` >= 2 powers of ten with exponents evenly spaced from ``start``
    to ``stop``, both included: 10**(i * step + start), and 10**stop last;
    each caller checks its ends and ``num``, so no power leaves the double range."""
    step = (stop - start) / (num - 1)
    return (*(10.0 ** (i * step + start) for i in range(num - 1)), 10.0 ** stop)


def density_columns(xs, ys, zs) -> tuple:
    """The populations, coherence and purity columns (rho_bb, rho_aa,
    Re rho_ab, Im rho_ab, tr(rho^2)) of the Bloch vectors (x, y, z):
    rho_bb = (1 - z) / 2, rho_aa = (1 + z) / 2, rho_ab = (x + i y) / 2, and
    tr(rho^2) = (rho_bb^2 + |rho_ab|^2) + (|rho_ab|^2 + rho_aa^2)."""
    rho_bb, rho_aa = [(1.0 - z) / 2.0 for z in zs], [(1.0 + z) / 2.0 for z in zs]
    re_rho_ab, im_rho_ab = [x / 2.0 for x in xs], [y / 2.0 for y in ys]
    return rho_bb, rho_aa, re_rho_ab, im_rho_ab, [
        (b * b + (p := r * r + i * i)) + (p + a * a)
        for b, a, r, i in zip(rho_bb, rho_aa, re_rho_ab, im_rho_ab)]


def check_count(name: str, value) -> int:
    """``value`` as an int; a float, 2.0 and nan included, is refused."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidStateError(f"{name} must be an integer, got {value!r}") from None


def check_bloch(xs, ys, zs) -> None:
    """Raise :class:`InvalidStateError` unless every Bloch vector of the stack
    given by its columns ``xs``, ``ys`` and ``zs`` lies in the unit ball,
    |s| <= 1 + BLOCH_SLACK: the one rule that makes (I + s.sigma) / 2 a
    density matrix.  A NaN component fails.  The error names the first
    vector that breaks it (by index, in a stack of several)."""
    for i, radius in enumerate(map(math.hypot, xs, ys, zs)):
        if not radius <= 1.0 + BLOCH_SLACK:  # NaN compares False
            message = f"Bloch vector |s| = {radius:.12g} lies outside the unit ball"
            raise InvalidStateError(message if len(xs) == 1 else f"state {i}: {message}")


def check_start(s0) -> tuple:
    """``s0`` as a Bloch vector (x, y, z) of floats, refused unless it is
    three numbers inside the unit ball (:func:`check_bloch`)."""
    try:
        x, y, z = map(float, s0)
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"expected a Bloch vector of 3 numbers: {exc}") from None
    check_bloch([x], [y], [z])
    return x, y, z


def check_pure_start(s0) -> tuple:
    """:func:`check_start` of ``s0``, refused also unless it is pure:
    ||s| - 1| <= BLOCH_SLACK."""
    s = check_start(s0)
    radius = math.hypot(*s)
    if not radius >= 1.0 - BLOCH_SLACK:
        raise InvalidStateError(f"start state is not pure: Bloch vector |s| = {radius:.12g}")
    return s


def _amplitudes(s: tuple) -> tuple:
    """The amplitudes (x_b, x_a) of the pure state of Bloch vector ``s`` =
    (x, y, z): (1 - z, x + i y) / |.| for z <= 0 and (x - i y, 1 + z) / |.|
    for z > 0, the two charts differing by a global phase.  Each divides by
    a norm >= 1, so a vector just off the sphere near either pole keeps its
    pole's state."""
    x, y, z = s
    if z > 0.0:
        norm = math.hypot(x, y, 1.0 + z)
        return complex(x, -y) / norm, complex(1.0 + z) / norm
    norm = math.hypot(1.0 - z, x, y)
    return complex(1.0 - z) / norm, complex(x, y) / norm
