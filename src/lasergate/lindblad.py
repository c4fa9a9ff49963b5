"""Markovian master equation for a resonantly driven two-level atom.

The equation of motion integrated here is

    drho/dt = -i [H, rho] - (kappa/2) {sigma_+ sigma_-, rho}
              + kappa sigma_- rho sigma_+ ,      H = g_alpha (sigma_+ + sigma_-),

with hbar = 1 and the drive on resonance in the rotating frame.  The drive
coupling ``g_alpha`` sets the Rabi frequency Omega_R = 2 g_alpha, so a pulse
of area theta lasts T = theta / (2 g_alpha).

The equation is written once, in Bloch form: rho = (I + x sigma_x + y sigma_y
+ z sigma_z) / 2 with sigma_z = |a><a| - |b><b| and rho_ab = (x + i y) / 2, and
v = (1, x, y, z) obeys the real linear ODE dv/dt = (g_alpha B_drive + kappa
B_decay) v.  The solvers work in scaled time tau = g_alpha * t, where the
dynamics depend only on the single ratio kappa / g_alpha, so :func:`evolve`
takes theta and that ratio and reports times in units of 1/g_alpha.  Within a
pulse the coefficients are constant, so one real 4x4 matrix maps v exactly
over any time: exp(B * tau).  On resonance it has a closed form, the damped Torrey
nutation (Torrey, Phys. Rev. 76, 1059 (1949)): x decays on its own, and
(y, z) nutates and relaxes towards the driven steady state, with circular
functions below the exceptional point kappa/g_alpha = 8 and hyperbolic ones
above it.  :func:`_propagator` evaluates that form for one ratio, with no
matrix exponential and no eigenvectors; its only rounding that grows with the
pulse is that of the rotation angle, about theta * 2.2e-16.  :func:`evolve`,
which every trajectory and every gate error is computed from, samples one
ratio's trajectory by applying the map of one segment, built by
:func:`_step_rows`, segment after segment.  Its ``rk4_fixed`` method instead
adds P(h B)^k - I applied to v, with P(X) = I + X + X^2/2 + X^3/6 + X^4/24
the degree-4 Taylor polynomial, k = ceil(step_count / samples) and
h = tau / k.  For a linear
constant-coefficient ODE that is exactly classical RK4 with k steps of size
h.  The first component of v is the trace: the generator's first row is
zero, so only rows 1..3 of the map are formed, the state carried between
samples is (x, y, z) alone and the trace is exactly 1.  :func:`evolve`
takes the start as that Bloch vector, from :meth:`qcore.PureState.bloch` or
any |s| <= 1 for a mixed start, and carries x, y and z as three columns of
floats, one entry per sample, applying the 3x4 map term by term in the order
of :func:`qcore.matvec`.  A trajectory is the sample times and those three
columns, which :func:`qcore.check_bloch` validates in one pass; its last
sample is the final state, and no sample is ever a matrix.  The generator and
the step maps are tuples or lists of rows of Python floats, multiplied by
:func:`qcore.matmul`.
"""

from __future__ import annotations

import math
from operator import mul

from .qcore import InvalidStateError, Record, check_bloch, matmul

EXACT = "exact"
RK4_FIXED = "rk4_fixed"

# Bloch generator in scaled time, B = _B_DRIVE + (kappa/g_alpha) * _B_DECAY,
# acting on v = (1, x, y, z).  The drive rotates (y, z) at twice the coupling;
# the decay damps x and y at half the rate and relaxes z to -1 at the full rate.
_B_DRIVE = ((0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 0.0),
            (0.0, 0.0, 0.0, 2.0),
            (0.0, 0.0, -2.0, 0.0))
_B_DECAY = ((0.0, 0.0, 0.0, 0.0),
            (0.0, -0.5, 0.0, 0.0),
            (0.0, 0.0, -0.5, 0.0),
            (-1.0, 0.0, 0.0, -1.0))

class IntegrationError(RuntimeError):
    """The pulse propagator is not finite, or a propagated state left the
    Bloch ball; reported as a numerical failure."""


class IntegratorConfig(Record):
    """Solver settings.  ``step_count`` is read by ``rk4_fixed`` only, and
    ``sample_count`` by :func:`evolve` only: the number of equal segments
    its trajectory samples, where 1 means the initial and final states only."""

    method: str = EXACT
    step_count: int = 1000
    sample_count: int = 1

    def __post_init__(self):
        if self.method not in (EXACT, RK4_FIXED):
            raise InvalidStateError(f"unknown integrator method {self.method!r}")
        if self.method == RK4_FIXED and self.step_count < 100:
            raise InvalidStateError(
                f"rk4_fixed needs step_count >= 100 per pulse, got {self.step_count}"
            )
        if self.sample_count < 1:
            raise InvalidStateError("sample_count must be >= 1")


class Trajectory(Record):
    """Samples of one pulse: the times, and the Bloch vector (x, y, z) at
    each time as three columns.  Each field is a tuple of k floats, and the
    last entry of each is the final state; :func:`evolve` validated the
    samples in one call, and :func:`qcore.density_columns` gives their
    populations and coherence."""

    times: tuple
    x: tuple
    y: tuple
    z: tuple

    def __len__(self) -> int:
        return len(self.times)


def _generator(ratio: float, scale: float) -> list:
    """(_B_DRIVE + ratio * _B_DECAY) * scale: the Bloch generator for
    kappa/g_alpha = ``ratio``, times a scaled duration."""
    return [[(d + ratio * k) * scale for d, k in zip(drive, decay)]
            for drive, decay in zip(_B_DRIVE, _B_DECAY)]


def _lincomb(*terms) -> list:
    """The sum of c * M over the (c, M) pairs, entry by entry, left to right."""
    coefficients = [c for c, _ in terms]
    return [[sum(map(mul, coefficients, entries)) for entries in zip(*rows)]
            for rows in zip(*(m for _, m in terms))]


def _identity_plus(m, divisor: float) -> list:
    """I + M / divisor, entry by entry."""
    return [[float(i == j) + x / divisor for j, x in enumerate(row)] for i, row in enumerate(m)]


def _propagator(r: float, tau: float) -> tuple:
    """Rows 1..3 of exp(B * tau) on v = (1, x, y, z), a 3x4 matrix, for
    kappa/g_alpha = ``r`` and a scaled duration ``tau`` = g_alpha * t.

    Closed form, the damped Torrey nutation: x decays as exp(-r tau / 2), and
    with q = r / 4 the (y, z) block of B is -3q I + N, N = [[q, 2], [-2, -q]],
    N^2 = (q^2 - 4) I, so exp(B tau) restricted to (y, z) is
    E = exp(-3q tau) (C I + S N): C = cos(mu tau), S = sin(mu tau) / mu with
    mu = sqrt(4 - q^2) below the exceptional point r = 8, C = 1 and S = tau
    at it, and cosh and sinh above it, written with expm1 so that nothing
    overflows or cancels.  The constant column is (I - E) w*, with
    w* = (-4 / (r + 8 / r), -1 / (1 + 8 / r^2)) the steady state of (y, z).

    Raises :class:`IntegrationError` if r * tau is not finite.
    """
    if not math.isfinite(r * tau):
        raise IntegrationError(f"non-finite propagator for kappa/g_alpha = {r:g} "
                               f"over tau={tau:g}")
    q = r / 4.0
    if q < 2.0:
        mu = math.sqrt((2.0 - q) * (2.0 + q))
        damping = math.exp(-3.0 * q * tau)
        c, s = damping * math.cos(mu * tau), damping * math.sin(mu * tau) / mu
    elif q > 2.0:  # exp(-3q tau) cosh and sinh, from the slower of exp(-(3q -+ nu) tau)
        nu = math.sqrt(q - 2.0) * math.sqrt(q + 2.0)
        slow = math.exp((nu - 3.0 * q) * tau)
        m = -math.expm1(-2.0 * nu * tau)
        c, s = slow * (1.0 - m / 2.0), slow * m / (2.0 * nu)
    else:
        c = math.exp(-6.0 * tau)
        s = c * tau
    e_yy, e_yz, e_zy, e_zz = c + q * s, 2.0 * s, -2.0 * s, c - q * s
    # 8 / r / r rather than 8 / r**2: a tiny r overflows it to inf, where
    # r**2 would underflow to 0 and divide by zero
    w_y, w_z = (-4.0 / (r + 8.0 / r), -1.0 / (1.0 + 8.0 / r / r)) if r else (0.0, 0.0)
    return ((0.0, math.exp(-r * tau / 2.0), 0.0, 0.0),
            (w_y - e_yy * w_y - e_yz * w_z, 0.0, e_yy, e_yz),
            (w_z - e_zy * w_y - e_zz * w_z, 0.0, e_zy, e_zz))


def _step_rows(ratio: float, tau: float, config: IntegratorConfig, segments: int) -> list:
    """Rows 1..3 of the map that carries v = (1, x, y, z) over one of
    ``segments`` equal segments of scaled duration ``tau``, for
    kappa/g_alpha = ``ratio``: a 3x4 matrix.

    ``exact`` gives the rows of exp(B * tau) in closed form, from
    :func:`_propagator`.
    ``rk4_fixed`` gives those of the increment P(h B)^k - I, with
    k = ceil(step_count / segments), h = tau / k and P(X) = I + X + X^2/2 +
    X^3/6 + X^4/24: the change of v over k classical RK4 steps of
    dv/dtau = B v.  Only the increment is formed, never I + increment: its
    small entries keep full relative precision, where the rounding of a step
    matrix near I would bias every application of it alike.
    """
    if config.method == EXACT:
        return _propagator(ratio, tau)
    steps = -(-config.step_count // segments)
    x = _generator(ratio, tau / steps)
    d = matmul(x, _identity_plus(matmul(x, _identity_plus(matmul(x, _identity_plus(x, 4.0)),
                                                          3.0)), 2.0))
    total = [[0.0] * 4 for _ in range(4)]
    while steps:  # binary powering, with (I + a)(I + b) - I = a + b + a b
        if steps & 1:
            total = _lincomb((1.0, total), (1.0, d), (1.0, matmul(total, d)))
        d = _lincomb((2.0, d), (1.0, matmul(d, d)))
        steps >>= 1
    return total[1:]


def check_pulse(theta: float, ratios) -> None:
    """Refuse a pulse area ``theta`` or a kappa/g_alpha in ``ratios`` that is
    not finite and >= 0, a NaN included, naming the first such value."""
    for name, value in (("theta", theta), *(("kappa/g_alpha", r) for r in ratios)):
        if not (math.isfinite(value) and value >= 0):
            raise InvalidStateError(f"{name} must be finite and >= 0, got {value}")


def evolve(s0, theta: float, ratio: float,
           config: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """Evolve the Bloch vector ``s0`` = (x, y, z) through one pulse of area
    ``theta`` at kappa/g_alpha = ``ratio``, both finite and >= 0, with times
    in units of 1/g_alpha: the pulse lasts theta / 2.

    ``s0`` is refused with :class:`InvalidStateError` unless it holds three
    numbers that :func:`qcore.check_bloch` accepts, |s| <= 1 within
    ``BLOCH_SLACK``.  Returns the :class:`Trajectory` of the states at
    ``config.sample_count + 1`` uniformly spaced times, from the initial to
    the final state, its last sample; the default ``sample_count`` of 1
    samples those two only.  At ``theta`` 0 every
    sample is ``s0``.  A propagated state that :func:`qcore.check_bloch`
    refuses (the rounding of a long or strongly damped pulse pushed it out
    of the unit ball, or an unstable RK4 step made it blow up) raises
    :class:`IntegrationError`.
    """
    try:
        x, y, z = map(float, s0)
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"expected a Bloch vector of 3 numbers: {exc}") from None
    check_bloch([x], [y], [z])
    check_pulse(theta, (ratio,))
    n_segments = config.sample_count
    if theta == 0.0:
        return Trajectory(*((value,) * (n_segments + 1) for value in (0.0, x, y, z)))

    tau = theta / 2.0 / n_segments  # scaled duration g_alpha * T of one segment
    (x0, xx, xy, xz), (y0, yx, yy, yz), (z0, zx, zy, zz) = _step_rows(ratio, tau, config,
                                                                     n_segments)
    # each row acts as in qcore.matvec: sum(map(mul, row, (1.0, x, y, z))) is
    # (((0 + r0 * 1.0) + rx * x) + ry * y) + rz * z, and 0 + r0 * 1.0 is 0.0 + r0
    x0, y0, z0 = 0.0 + x0, 0.0 + y0, 0.0 + z0
    increment = config.method == RK4_FIXED  # its map gives the change of v, not v
    xs, ys, zs = [x], [y], [z]
    for _ in range(n_segments):
        mx, my, mz = (((x0 + xx * x) + xy * y) + xz * z, ((y0 + yx * x) + yy * y) + yz * z,
                      ((z0 + zx * x) + zy * y) + zz * z)
        x, y, z = (x + mx, y + my, z + mz) if increment else (mx, my, mz)
        xs.append(x)
        ys.append(y)
        zs.append(z)
    try:
        check_bloch(xs, ys, zs)
    except InvalidStateError as exc:  # exc names the sample: "state i: ..."
        raise IntegrationError(f"propagated state left the Bloch ball: {exc}") from exc
    times = (*(i * tau for i in range(n_segments)), theta / 2.0)
    return Trajectory(times, tuple(xs), tuple(ys), tuple(zs))
