"""Markovian master equation for a resonantly driven two-level atom.

The equation of motion integrated here is

    drho/dt = -i [H, rho] - (kappa/2) {sigma_+ sigma_-, rho}
              + kappa sigma_- rho sigma_+ ,      H = g_alpha (sigma_+ + sigma_-),

with hbar = 1 and the drive on resonance in the rotating frame.  The drive
coupling ``g_alpha`` sets the Rabi frequency Omega_R = 2 g_alpha, so a pulse
of area theta lasts T = theta / (2 g_alpha).

The equation is written once, in Bloch form: rho = (I + x sigma_x + y sigma_y
+ z sigma_z) / 2 with sigma_z = |a><a| - |b><b| and rho_ab = (x + i y) / 2, and
v = (1, x, y, z) obeys the real linear ODE dv/dtau = B v in scaled time
tau = g_alpha * t, where the dynamics depend only on r = kappa / g_alpha:
B damps x at r/2, and moves (y, z) about the steady state w* under
-3q I + N, with q = r / 4, N = [[q, 2], [-2, -q]] and N^2 = (q^2 - 4) I.  So
:func:`evolve` takes theta and r and reports times in units of 1/g_alpha.
B leaves the first entry of v alone, and the trace stays exactly 1.  On
resonance x decouples from (y, z), so every map formed here (the exact map,
its deviation, the RK4 increment) is a factor xx on x and an affine map on
(y, z) whose off-diagonal entries are +yz and -yz: six floats
(xx, y0, yy, yz, z0, zz), which :func:`_apply` alone reads.

Within a pulse the map exp(B * tau) has a closed form, the damped Torrey
nutation (Torrey, Phys. Rev. 76, 1059 (1949)): circular functions below the
exceptional point kappa/g_alpha = 8 and hyperbolic ones above it, with no
matrix exponential and no eigenvectors.  :func:`_propagator` evaluates it as
the map R + D: the ideal rotation R, and the deviation D that the decay adds,
each entry of D formed without cancellation.  Its only rounding that grows
with the pulse is that of the rotation angle, about theta * 2.2e-16.  Every
gate error is read from D.  :func:`evolve` samples one ratio's trajectory by
applying the map of one segment, segment after segment: the closed form, or
for ``rk4_fixed`` the increment of k classical RK4 steps from
:func:`_segment_map`.  It takes the start as a Bloch vector, pure or mixed,
any |s| <= 1 (:func:`qcore.check_start`), and carries x, y and z as three
columns of floats, one entry per sample.  A trajectory is the sample times
and those columns, which :func:`qcore.check_bloch` validates in one pass;
its last sample is the final state.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .qcore import InvalidStateError, check_bloch, check_count, check_start

EXACT = "exact"
RK4_FIXED = "rk4_fixed"

# Largest pulse area, in rad.  The closed-form map of one pulse is off by the
# rounding of its rotation angle, about theta * 2.2e-16: within 2.2e-12 up to
# 1e4.  A trajectory reaches sample i by applying one segment's rounded map i
# times, so its rounding grows with the sample index: the plus start at theta
# 1e3, ratio 1e-3 and 20000 samples drifts up to 4.3e-13 from the map taken at
# each sample's time, enough to move some 12th printed digits.
MAX_THETA = 1e4

# Largest kappa/g_alpha.  Both maps stay doubles: the closed form's r * tau is
# at most MAX_RATIO * MAX_THETA / 2 = 5e153, rk4_fixed's N^2 = (q - 2)(q + 2)
# at most 6.25e298 (inf from r = 5.4e154).  No physical drive comes near it:
# as kappa <= Gamma and g_alpha = Omega_R / 2, ``budget.INPUT_BOX`` gives <= 2e45.
MAX_RATIO = 1e150

# RK4 steps per pulse for ``rk4_fixed``: ceil(RK4_STEPS / samples) per segment.
RK4_STEPS = 1000


class Trajectory(namedtuple("Trajectory", "times x y z")):
    """Samples of one pulse: the times, and the Bloch vector (x, y, z) at
    each time as three columns.  Each field is a tuple of k floats, and the
    last entry of each is the final state; :func:`evolve` validated the
    samples in one call, and :func:`qcore.density_columns` gives the printed
    populations, coherence and purity of any slice of them."""

    __slots__ = ()


def _steady_state(r: float) -> tuple:
    """The fixed point w* = (-4 / (r + 8 / r), -1 / (1 + 8 / r^2)) of (y, z)
    for kappa/g_alpha = ``r``; x relaxes to 0."""
    # 8 / r / r rather than 8 / r**2: a tiny r overflows it to inf, where
    # r**2 would underflow to 0 and divide by zero
    return (-4.0 / (r + 8.0 / r), -1.0 / (1.0 + 8.0 / r / r)) if r else (0.0, 0.0)


def _propagator(r: float, tau: float) -> tuple:
    """(E, D): the map E = exp(B * tau) on v = (1, x, y, z), and its deviation
    D from the ideal rotation R (the map at r = 0), for kappa/g_alpha = ``r``
    and a scaled duration ``tau`` = g_alpha * t, each in the six-number form
    that :func:`_apply` reads.  D acts on (1, x, y, 1 + z), so
    E v = R v + D (1, x, y, 1 + z) and D's constant terms (y0, z0) are the
    deviation g of the ground state's image.

    With q = r / 4 the (y, z) block of B is -3q I + N, N = [[q, 2], [-2, -q]],
    N^2 = (q^2 - 4) I, so E on (y, z) is exp(-3q tau) (C I + S N):
    C = cos(mu tau) and S = sin(mu tau) / mu, mu = sqrt(4 - q^2), below r = 8,
    C = 1 and S = tau at it, cosh and sinh (with expm1) above it; x decays as
    exp(-r tau / 2).  The constant terms are (I - E) w*, for the steady state
    w* of (y, z) from :func:`_steady_state`, with 1 - E_yy written as
    2 sin^2 tau - D_yy.  R rotates (y, z) by 2 tau.

    Below r = 4 each entry of D keeps its relative precision however small r
    is: mu tau = 2 tau - 2 k tau, k = q^2 / (2 (mu + 2)), with the slip in
    product form, expm1 for the damping, and for tau < 1 the Taylor series of
    g from dg/dtau = A g + (A - A_0) u: A and A_0 are the (y, z) blocks of B
    at r and at 0, and u is the ground state's ideal image.  From r = 4 on,
    D is E - R: p is then large enough to lose nothing, except after a short
    pulse, so g comes from the same series wherever tau < 1 and r tau < 1.
    E is formed directly, never as R + D, so a strongly damped entry keeps
    its digits.  Every entry is finite for any pulse :func:`check_pulse` takes.
    """
    q = r / 4.0
    cos_2, sin_2 = math.cos(2.0 * tau), math.sin(2.0 * tau)
    if q < 2.0:
        mu = math.sqrt((2.0 - q) * (2.0 + q))
        cos_mu, sin_mu = math.cos(mu * tau), math.sin(mu * tau)
        if q < 1.0:  # the ideal angle 2 tau, then the slip 2 k tau in product form
            k = q * q / (2.0 * (mu + 2.0))
            slip, half = math.sin(k * tau), (2.0 - k) * tau
            slip_c, slip_s = 2.0 * math.sin(half) * slip, -2.0 * math.cos(half) * slip
            cos_mu, sin_mu = cos_2 + slip_c, sin_2 + slip_s
        damping = math.exp(-3.0 * q * tau)
        c, s = damping * cos_mu, damping * sin_mu / mu
    elif q > 2.0:  # exp(-3q tau) cosh and sinh, from the slower of exp(-(3q -+ nu) tau)
        nu = math.sqrt(q - 2.0) * math.sqrt(q + 2.0)
        slow = math.exp((nu - 3.0 * q) * tau)
        m = -math.expm1(-2.0 * nu * tau)
        c, s = slow * (1.0 - m / 2.0), slow * m / (2.0 * nu)
    else:
        c = math.exp(-6.0 * tau)
        s = c * tau
    if q < 1.0:  # c - cos(2 tau) and s - sin(2 tau) / 2
        decay = math.expm1(-3.0 * q * tau)
        d_c, d_s = decay * cos_mu + slip_c, (decay * sin_mu + k * sin_2 + slip_s) / mu
    else:
        d_c, d_s = c - cos_2, s - sin_2 / 2.0
    d_yy, d_zz = d_c + q * s, d_c - q * s
    w_y, w_z = _steady_state(r)
    turn = 2.0 * math.sin(tau) ** 2  # 1 - cos(2 tau)
    y_0, z_0 = (turn - d_yy) * w_y - 2.0 * s * w_z, (turn - d_zz) * w_z + 2.0 * s * w_y
    g_y, g_z = y_0 - 2.0 * d_s, z_0 - d_zz
    if tau < 1.0 and (q < 1.0 or r * tau < 1.0):  # g and u term by term, with tau^n / n!
        g_y = g_z = e_y = e_z = 0.0
        u_y, u_z = -2.0 * tau, 0.0
        for n in range(2, 32):
            h = tau / n
            e_y, e_z = (2.0 * e_z - (e_y + u_y) * r / 2.0) * h, (-2.0 * e_y - (e_z + u_z) * r) * h
            u_y, u_z = 2.0 * u_z * h, -2.0 * u_y * h
            g_y, g_z = g_y + e_y, g_z + e_z
    return ((math.exp(-r * tau / 2.0), y_0, c + q * s, 2.0 * s, z_0, c - q * s),
            (math.expm1(-r * tau / 2.0), g_y, d_yy, 2.0 * d_s, g_z, d_zz))


def _segment_map(ratio: float, tau: float, steps: int) -> tuple:
    """The ``rk4_fixed`` increment P(h B)^k - I over one segment of scaled
    duration ``tau``, for kappa/g_alpha = ``ratio`` and k = ``steps``, in the
    six-number form that :func:`_apply` reads: with h = tau / k and
    P(X) = I + X + X^2/2 + X^3/6 + X^4/24, the change of v = (1, x, y, z)
    over k classical RK4 steps of dv/dtau = B v.  As B acts on
    (x, y, z) - w* as -r/2 on x and -3q I + N on (y, z), the increment is a
    scalar xi on x and a pair (alpha, beta), alpha I + beta N, on (y, z), and
    its constant terms are -increment w*.  Only the increment is formed,
    never I + increment, whose rounding near I would bias every application
    of the step alike.
    """
    q, h = ratio / 4.0, tau / steps
    n_squared = (q - 2.0) * (q + 2.0)

    def times(a, b):  # the product of two (alpha, beta, xi)
        return (a[0] * b[0] + n_squared * a[1] * b[1], a[0] * b[1] + a[1] * b[0], a[2] * b[2])

    x = (-3.0 * q * h, h, -2.0 * q * h)  # X = h B
    d = x
    for n in (4.0, 3.0, 2.0):  # P(X) - I = X (I + X (I + X (I + X/4) / 3) / 2)
        d = times(x, (1.0 + d[0] / n, d[1] / n, 1.0 + d[2] / n))
    total = (0.0, 0.0, 0.0)
    while steps:  # binary powering, with (I + a)(I + b) - I = a + b + a b
        if steps & 1:
            total = tuple(t + e + te for t, e, te in zip(total, d, times(total, d)))
        d = tuple(2.0 * e + ee for e, ee in zip(d, times(d, d)))
        steps >>= 1
    alpha, beta, xi = total
    yy, yz, zz = alpha + q * beta, 2.0 * beta, alpha - q * beta
    w_y, w_z = _steady_state(ratio)
    return (xi, -(yy * w_y + yz * w_z), yy, yz, yz * w_y - zz * w_z, zz)


def _apply(m: tuple, x: float, y: float, z: float) -> tuple:
    """The map ``m`` = (xx, y0, yy, yz, z0, zz) applied to (1, x, y, z): the
    one place that knows how a map is laid out."""
    xx, y0, yy, yz, z0, zz = m
    return xx * x, (y0 + yy * y) + yz * z, (z0 - yz * y) + zz * z


def check_pulse(theta: float, ratios) -> None:
    """Refuse a pulse area ``theta`` outside [0, MAX_THETA] or a kappa/g_alpha
    in ``ratios`` outside [0, MAX_RATIO], a NaN too, naming the first one."""
    for name, value, greatest in (("theta", theta, MAX_THETA),
                                  *(("kappa/g_alpha", r, MAX_RATIO) for r in ratios)):
        if not 0 <= value <= greatest:  # NaN fails too
            raise InvalidStateError(f"{name} must be in [0, {greatest:g}], got {value}")


def evolve(s0, theta: float, ratio: float, samples: int = 1, method: str = EXACT) -> Trajectory:
    """Evolve the Bloch vector ``s0`` = (x, y, z) through one pulse of area
    ``theta`` at kappa/g_alpha = ``ratio``, with times in units of 1/g_alpha:
    the pulse lasts theta / 2.  Returns the :class:`Trajectory` of the states
    at ``samples`` + 1 uniformly spaced times, the final state last; at
    ``theta`` 0 each segment's map is the identity, so every sample is ``s0``.
    ``method`` is ``exact``, the closed form, or ``rk4_fixed``,
    k = ceil(RK4_STEPS / samples) classical RK4 steps per segment.

    Refuses with :class:`InvalidStateError`, in this order: ``samples`` not
    an integer or < 1, an unknown ``method``, an ``s0`` that is not three
    numbers inside the unit ball (:func:`qcore.check_start`), then ``theta``
    or ``ratio`` as :func:`check_pulse` does.  A propagated state that
    :func:`qcore.check_bloch` refuses (an ``rk4_fixed`` step blew it up)
    raises :class:`FloatingPointError`.
    """
    if check_count("samples", samples) < 1:
        raise InvalidStateError("samples must be >= 1")
    if method not in (EXACT, RK4_FIXED):
        raise InvalidStateError(f"unknown integrator method {method!r}")
    increment = method == RK4_FIXED  # its map gives the change of v, not v
    x, y, z = check_start(s0)
    check_pulse(theta, (ratio,))
    half = theta / 2.0 + 0.0  # g_alpha * T; + 0.0 gives theta = -0.0 the times +0.0
    tau = half / samples  # scaled duration g_alpha * T of one segment
    m = (_segment_map(ratio, tau, -(-RK4_STEPS // samples)) if increment
         else _propagator(ratio, tau)[0])
    xs, ys, zs = [x], [y], [z]
    for _ in range(samples):
        mx, my, mz = _apply(m, x, y, z)
        x, y, z = (x + mx, y + my, z + mz) if increment else (mx, my, mz)
        xs.append(x)
        ys.append(y)
        zs.append(z)
    try:
        check_bloch(xs, ys, zs)
    except InvalidStateError as exc:  # exc names the sample: "state i: ..."
        raise FloatingPointError(f"propagated state left the Bloch ball: {exc}") from exc
    times = (*(i * tau for i in range(samples)), half)
    return Trajectory(times, tuple(xs), tuple(ys), tuple(zs))
