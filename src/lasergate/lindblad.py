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
dynamics depend only on the single ratio kappa / g_alpha.  Within a pulse the
coefficients are constant, so one real 4x4 matrix maps v from each sample
to the next, and one builder, :func:`_step_rows`, forms it for a whole stack
of ratios: the default ``exact`` method multiplies by exp(B * tau), and
``rk4_fixed`` adds P(h B)^k - I applied to v, with P(X) = I + X + X^2/2 +
X^3/6 + X^4/24 the degree-4 Taylor polynomial, k = ceil(step_count /
samples) and h = tau / k.  For a linear constant-coefficient ODE that is
exactly classical RK4 with k steps of size h.  The first component of v is
the trace: the generator's first row is zero, so only rows 1..3 of the map
are formed, the state carried between samples is (x, y, z) alone and the
trace is exactly 1.  :func:`evolve` applies the map of one ratio sample by
sample; :func:`final_states` applies one segment's map for every ratio of a
sweep at once.  Either validates its density matrices as one (k, 2, 2)
stack; a trajectory is that stack and the sample times.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import DensityMatrix, InvalidStateError, Record, check_densities

EXACT = "exact"
RK4_FIXED = "rk4_fixed"

# Bloch generator in scaled time, B = _B_DRIVE + (kappa/g_alpha) * _B_DECAY,
# acting on v = (1, x, y, z).  The drive rotates (y, z) at twice the coupling;
# the decay damps x and y at half the rate and relaxes z to -1 at the full rate.
_B_DRIVE = np.array([[0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 0.0],
                     [0.0, 0.0, 0.0, 2.0],
                     [0.0, 0.0, -2.0, 0.0]])
_B_DECAY = np.array([[0.0, 0.0, 0.0, 0.0],
                     [0.0, -0.5, 0.0, 0.0],
                     [0.0, 0.0, -0.5, 0.0],
                     [-1.0, 0.0, 0.0, -1.0]])

# [13/13] Pade coefficients b_0..b_13, and the 1-norm up to which that
# approximant reaches double-precision roundoff (Higham 2005, Table 2.3).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


class IntegrationError(RuntimeError):
    """The pulse propagator is not finite, or a propagated state is not a
    density matrix; reported as a numerical failure."""


class PulseSpec(Record):
    """Resonant drive pulse: coupling g_alpha and rotation area theta = Omega_R T."""

    drive_coupling: float
    pulse_area: float

    def __post_init__(self):
        if not (math.isfinite(self.drive_coupling) and self.drive_coupling >= 0):
            raise InvalidStateError(
                f"drive_coupling must be finite and >= 0, got {self.drive_coupling}"
            )
        if not (math.isfinite(self.pulse_area) and self.pulse_area >= 0):
            raise InvalidStateError(f"pulse_area must be finite and >= 0, got {self.pulse_area}")
        if self.pulse_area > 0 and self.drive_coupling == 0:
            raise InvalidStateError("nonzero pulse area requires drive_coupling > 0")


class DecaySpec(Record):
    """Single amplitude-damping channel at the given rate (same units as g_alpha)."""

    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise InvalidStateError(f"decay rate must be finite and >= 0, got {self.rate}")


class IntegratorConfig(Record):
    """Solver settings; ``step_count`` is read by ``rk4_fixed`` only."""

    method: str = EXACT
    step_count: int = 1000
    record_trajectory: bool = False
    sample_count: int = 200

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
    """Samples of one pulse: the times, shape (k,), and the density matrices
    at those times, a read-only (k, 2, 2) stack that :func:`evolve` validated
    in one call."""

    times: np.ndarray
    states: np.ndarray

    def __len__(self) -> int:
        return self.times.size


class EvolutionResult(Record):
    final: DensityMatrix
    trajectory: Trajectory | None = None


def _bloch(rho: np.ndarray) -> np.ndarray:
    """v = (1, x, y, z) of a 2x2 density matrix."""
    rho_ab = complex(rho[1, 0])
    return np.array([1.0, 2.0 * rho_ab.real, 2.0 * rho_ab.imag, (rho[1, 1] - rho[0, 0]).real])


def _matrices(v: np.ndarray) -> np.ndarray:
    """(w I + x sigma_x + y sigma_y + z sigma_z) / 2 for each row (w, x, y, z)
    of ``v``, as a (k, 2, 2) complex stack."""
    w, x, y, z = v.T
    m = np.zeros((len(v), 2, 2), dtype=complex)
    m.real[:, 0, 0], m.real[:, 1, 1] = (w - z) / 2.0, (w + z) / 2.0
    # rho_ab rounded as Python's complex(x, y) / 2.0, signs of zeros included
    m.real[:, 1, 0] = m.real[:, 0, 1] = (x + y * 0.0) / 2.0
    m.imag[:, 1, 0] = (y - x * 0.0) / 2.0
    m.imag[:, 0, 1] = -m.imag[:, 1, 0]
    return m


def _density_stack(v: np.ndarray) -> np.ndarray:
    """The density matrices of the Bloch rows ``v``, as a read-only (k, 2, 2)
    stack validated in one call.

    Raises :class:`IntegrationError` if a row left the Bloch ball: the
    rounding of a long or strongly damped pulse, or an unstable RK4 step.
    """
    states = _matrices(v)
    try:
        check_densities(states)
    except InvalidStateError as exc:  # exc names the sample: "state i: ..."
        with np.errstate(over="ignore", invalid="ignore"):
            radius = np.linalg.norm(v[:, 1:], axis=1).max()
        raise IntegrationError(
            f"propagated state left the Bloch ball (largest |s| = {radius:.12g}): {exc}"
        ) from exc
    states.setflags(write=False)
    return states


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(A) for every matrix A in a stack of shape (k, n, n).

    [13/13] Pade approximant with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)); each matrix gets its own number of
    squarings.  No eigendecomposition: the Bloch generator has an exceptional
    point at kappa/g_alpha = 8, where its eigenvectors become degenerate.
    """
    b = _PADE_13
    norms = np.abs(a).sum(axis=-2).max(axis=-1)
    # 2**s >= norm / theta_13: the fewest squarings, one more at exact powers of two
    squarings = np.maximum(np.frexp(norms / _THETA_13)[1], 0)
    x = a / np.ldexp(1.0, squarings)[:, None, None]
    ident = np.eye(a.shape[-1])
    x2 = x @ x
    x4 = x2 @ x2
    x6 = x4 @ x2
    u = x @ (
        x6 @ (b[13] * x6 + b[11] * x4 + b[9] * x2)
        + b[7] * x6 + b[5] * x4 + b[3] * x2 + b[1] * ident
    )
    v = (
        x6 @ (b[12] * x6 + b[10] * x4 + b[8] * x2)
        + b[6] * x6 + b[4] * x4 + b[2] * x2 + b[0] * ident
    )
    r = np.linalg.solve(v - u, v + u)
    for k in range(int(squarings.max(initial=0))):
        more = squarings > k
        r[more] = r[more] @ r[more]
    return r


def _propagators(ratios, tau: float) -> np.ndarray:
    """exp(B * tau) on v = (1, x, y, z), one real 4x4 matrix per kappa/g_alpha
    in ``ratios``, for a scaled duration ``tau`` = g_alpha * t.

    Raises :class:`IntegrationError` if any propagator is not finite.
    """
    r = np.asarray(ratios, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _expm((_B_DRIVE + r[:, None, None] * _B_DECAY) * tau)
    if not np.all(np.isfinite(steps)):
        raise IntegrationError(
            f"non-finite propagator for kappa/g_alpha up to {r.max():g} over tau={tau:g}"
        )
    return steps


def _step_rows(ratios, tau: float, config: IntegratorConfig, segments: int) -> np.ndarray:
    """Rows 1..3 of the map that carries v = (1, x, y, z) over one of
    ``segments`` equal segments of scaled duration ``tau``, one (3, 4) matrix
    per kappa/g_alpha in ``ratios``.

    ``exact`` gives the rows of exp(B * tau), from :func:`_propagators`.
    ``rk4_fixed`` gives those of the increment P(h B)^k - I, with
    k = ceil(step_count / segments), h = tau / k and P(X) = I + X + X^2/2 +
    X^3/6 + X^4/24: the change of v over k classical RK4 steps of
    dv/dtau = B v.  Only the increment is formed, never I + increment: its
    small entries keep full relative precision, where the rounding of a step
    matrix near I would bias every application of it alike.
    """
    if config.method == EXACT:
        return _propagators(ratios, tau)[:, 1:]
    r = np.asarray(ratios, dtype=float).reshape(-1)
    steps = -(-config.step_count // segments)
    x = (_B_DRIVE + r[:, None, None] * _B_DECAY) * (tau / steps)
    ident = np.eye(4)
    d = x @ (ident + x @ (ident + x @ (ident + x / 4.0) / 3.0) / 2.0)
    total = np.zeros_like(d)
    while steps:  # binary powering, with (I + a)(I + b) - I = a + b + a b
        if steps & 1:
            total = total + d + total @ d
        d = 2.0 * d + d @ d
        steps >>= 1
    return total[:, 1:]


def evolve(rho0: DensityMatrix, pulse: PulseSpec, decay: DecaySpec,
           config: IntegratorConfig = IntegratorConfig()) -> EvolutionResult:
    """Evolve ``rho0`` through one pulse.

    Returns the validated final state, plus the states at
    ``config.sample_count + 1`` uniformly spaced times as a
    :class:`Trajectory` when ``config.record_trajectory`` is set.  A
    propagated state that is not a density matrix (the rounding of a long or
    strongly damped pulse pushed its Bloch vector out of the unit ball, or an
    unstable RK4 step made it blow up) raises :class:`IntegrationError`.
    """
    if rho0.dim != 2:
        raise InvalidStateError("evolve handles the two-level atom only")
    g = pulse.drive_coupling
    theta = pulse.pulse_area
    n_segments = config.sample_count if config.record_trajectory else 1
    if theta == 0.0:
        states = np.broadcast_to(rho0.matrix, (n_segments + 1, 2, 2))
        trajectory = Trajectory(np.zeros(n_segments + 1), states)
        return EvolutionResult(rho0, trajectory if config.record_trajectory else None)

    ratio = decay.rate / g
    tau = theta / 2.0 / n_segments  # scaled duration g_alpha * T of one segment
    v = np.empty((n_segments + 1, 4))
    v[0] = _bloch(rho0.matrix)
    v[1:, 0] = 1.0  # the map has no trace row: the trace stays 1
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _step_rows([ratio], tau, config, n_segments)[0]
        if config.method == EXACT:
            for i in range(n_segments):
                v[i + 1, 1:] = rows @ v[i]
        else:
            for i in range(n_segments):
                v[i + 1, 1:] = v[i, 1:] + rows @ v[i]
        states = _density_stack(v)
    times = np.linspace(0.0, theta / 2.0, n_segments + 1) / g
    times.setflags(write=False)
    trajectory = Trajectory(times, states)
    return EvolutionResult(DensityMatrix(states[-1]),
                           trajectory if config.record_trajectory else None)


def final_states(rho0: DensityMatrix, pulse: PulseSpec, decay_rates,
                 config: IntegratorConfig = IntegratorConfig()) -> np.ndarray:
    """Final state of ``rho0`` after ``pulse`` for each rate in ``decay_rates``,
    as a read-only (k, 2, 2) stack.

    The same states as one :func:`evolve` per rate without a trajectory
    (``config.record_trajectory`` is not read), from one batched
    :func:`_step_rows` call and one validation of the stack.
    """
    rates = np.asarray(decay_rates, dtype=float).reshape(-1)
    bad = ~(np.isfinite(rates) & (rates >= 0))
    if bad.any():
        raise InvalidStateError(
            f"decay rate must be finite and >= 0, got {rates[np.argmax(bad)]}"
        )
    if rho0.dim != 2:
        raise InvalidStateError("final_states handles the two-level atom only")
    if pulse.pulse_area == 0.0:
        return np.broadcast_to(rho0.matrix, (rates.size, 2, 2))
    b = _bloch(rho0.matrix)
    v = np.ones((rates.size, 4))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _step_rows(rates / pulse.drive_coupling, pulse.pulse_area / 2.0, config, 1)
        v[:, 1:] = rows @ b if config.method == EXACT else b[1:] + rows @ b
        return _density_stack(v)
