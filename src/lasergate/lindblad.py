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
coefficients are constant, so one real 4x4 matrix maps v exactly over any
time: exp(B * tau), formed by :func:`_propagators` for a stack of ratios.
:func:`final_states`, which every gate error is computed from, applies that
map once per ratio.  :func:`evolve` samples one ratio's trajectory by
applying the map of one segment, built by :func:`_step_rows`, segment after
segment.  Its ``rk4_fixed`` method instead adds P(h B)^k - I applied to v,
with P(X) = I + X + X^2/2 + X^3/6 + X^4/24 the degree-4 Taylor polynomial,
k = ceil(step_count / samples) and h = tau / k.  For a linear
constant-coefficient ODE that is exactly classical RK4 with k steps of size
h.  The first component of v is the trace: the generator's first row is
zero, so only rows 1..3 of the map are formed, the state carried between
samples is (x, y, z) alone and the trace is exactly 1.  Either function
validates its density matrices as one stack, a tuple of 2x2 matrices; a
trajectory is that stack and the sample times.  Every matrix is a tuple or
list of rows of Python floats, multiplied by :func:`qcore.matmul`.
"""

from __future__ import annotations

import math
from operator import add, mul

from .qcore import DensityMatrix, InvalidStateError, Record, check_densities, matmul, matvec

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
    """Samples of one pulse: the times, a tuple of k floats, and the density
    matrices at those times, a stack of k 2x2 matrices that :func:`evolve`
    validated in one call."""

    times: tuple
    states: tuple

    def __len__(self) -> int:
        return len(self.times)


class EvolutionResult(Record):
    final: DensityMatrix
    trajectory: Trajectory


def _bloch(rho) -> tuple:
    """v = (1, x, y, z) of a 2x2 density matrix, scaled to unit trace, so that
    a pure state whose trace rounds below 1, such as (1, 1) / sqrt(2), stays pure."""
    trace = (rho[0][0] + rho[1][1]).real
    rho_ab = complex(rho[1][0])
    z = (rho[1][1] - rho[0][0]).real
    return 1.0, 2.0 * rho_ab.real / trace, 2.0 * rho_ab.imag / trace, z / trace


def _matrices(v) -> tuple:
    """(w I + x sigma_x + y sigma_y + z sigma_z) / 2 for each row (w, x, y, z)
    of ``v``, as a stack of 2x2 complex matrices."""
    out = []
    for w, x, y, z in v:
        rho_ab = complex(x, y) / 2.0
        out.append(((complex((w - z) / 2.0, 0.0), rho_ab.conjugate()),
                    (rho_ab, complex((w + z) / 2.0, 0.0))))
    return tuple(out)


def _density_stack(v) -> tuple:
    """The density matrices of the Bloch rows ``v``, as a stack validated in
    one call.

    Raises :class:`IntegrationError` if a row left the Bloch ball: the
    rounding of a long or strongly damped pulse, or an unstable RK4 step.
    """
    states = _matrices(v)
    try:
        check_densities(states)
    except InvalidStateError as exc:  # exc names the sample: "state i: ..."
        radii = [math.hypot(*row[1:]) for row in v]
        radius = math.nan if any(map(math.isnan, radii)) else max(radii)
        raise IntegrationError(
            f"propagated state left the Bloch ball (largest |s| = {radius:.12g}): {exc}"
        ) from exc
    return states


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


def _solve(a, b) -> list:
    """X with A X = B, by Gaussian elimination with partial pivoting."""
    n = len(a)
    rows = [[*ra, *rb] for ra, rb in zip(a, b)]
    for k in range(n):
        best = max(range(k, n), key=lambda i: abs(rows[i][k]))
        rows[k], rows[best] = rows[best], rows[k]
        top = rows[k]
        for i in range(k + 1, n):
            f = rows[i][k] / top[k]
            rows[i] = [x - f * y for x, y in zip(rows[i], top)]
    x = [None] * n
    for k in reversed(range(n)):
        row = rows[k]
        x[k] = [(row[n + j] - sum(row[i] * x[i][j] for i in range(k + 1, n))) / row[k]
                for j in range(len(b[0]))]
    return x


def _expm(a) -> list:
    """exp(A) for a square matrix A.

    [13/13] Pade approximant with scaling and squaring (Higham, SIAM J.
    Matrix Anal. Appl. 26, 1179 (2005)).  No eigendecomposition: the Bloch
    generator has an exceptional point at kappa/g_alpha = 8, where its
    eigenvectors become degenerate.  A non-finite A gives a NaN matrix.
    """
    n = len(a)
    norm = max(sum(abs(row[j]) for row in a) for j in range(n))
    if not math.isfinite(norm):
        return [[math.nan] * n for _ in range(n)]
    b = _PADE_13
    # 2**s >= norm / theta_13: the fewest squarings, one more at exact powers of two
    squarings = max(math.frexp(norm / _THETA_13)[1], 0)
    scale = math.ldexp(1.0, squarings)
    x = [[v / scale for v in row] for row in a]
    ident = [[float(i == j) for j in range(n)] for i in range(n)]
    x2 = matmul(x, x)
    x4 = matmul(x2, x2)
    x6 = matmul(x4, x2)
    u = matmul(x, _lincomb((1.0, matmul(x6, _lincomb((b[13], x6), (b[11], x4), (b[9], x2)))),
                           (b[7], x6), (b[5], x4), (b[3], x2), (b[1], ident)))
    v = _lincomb((1.0, matmul(x6, _lincomb((b[12], x6), (b[10], x4), (b[8], x2)))),
                 (b[6], x6), (b[4], x4), (b[2], x2), (b[0], ident))
    r = _solve(_lincomb((1.0, v), (-1.0, u)), _lincomb((1.0, v), (1.0, u)))
    for _ in range(squarings):
        r = matmul(r, r)
    return r


def _propagators(ratios, tau: float) -> list:
    """exp(B * tau) on v = (1, x, y, z), one real 4x4 matrix per kappa/g_alpha
    in ``ratios``, for a scaled duration ``tau`` = g_alpha * t.

    Raises :class:`IntegrationError` if any propagator is not finite.
    """
    steps = [_expm(_generator(r, tau)) for r in ratios]
    if not all(math.isfinite(x) for step in steps for row in step for x in row):
        raise IntegrationError(
            f"non-finite propagator for kappa/g_alpha up to {max(ratios):g} over tau={tau:g}"
        )
    return steps


def _step_rows(ratio: float, tau: float, config: IntegratorConfig, segments: int) -> list:
    """Rows 1..3 of the map that carries v = (1, x, y, z) over one of
    ``segments`` equal segments of scaled duration ``tau``, for
    kappa/g_alpha = ``ratio``: a 3x4 matrix.

    ``exact`` gives the rows of exp(B * tau), from :func:`_propagators`.
    ``rk4_fixed`` gives those of the increment P(h B)^k - I, with
    k = ceil(step_count / segments), h = tau / k and P(X) = I + X + X^2/2 +
    X^3/6 + X^4/24: the change of v over k classical RK4 steps of
    dv/dtau = B v.  Only the increment is formed, never I + increment: its
    small entries keep full relative precision, where the rounding of a step
    matrix near I would bias every application of it alike.
    """
    if config.method == EXACT:
        return _propagators([ratio], tau)[0][1:]
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


def evolve(rho0: DensityMatrix, pulse: PulseSpec, decay: DecaySpec,
           config: IntegratorConfig = IntegratorConfig()) -> EvolutionResult:
    """Evolve ``rho0`` through one pulse.

    Returns the validated final state and the :class:`Trajectory` of the
    states at ``config.sample_count + 1`` uniformly spaced times, from the
    initial to the final state; the default ``sample_count`` of 1 samples
    those two only.  A propagated state that is not a density matrix (the
    rounding of a long or strongly damped pulse pushed its Bloch vector out
    of the unit ball, or an unstable RK4 step made it blow up) raises
    :class:`IntegrationError`.
    """
    g = pulse.drive_coupling
    theta = pulse.pulse_area
    n_segments = config.sample_count
    if theta == 0.0:
        return EvolutionResult(rho0, Trajectory((0.0,) * (n_segments + 1),
                                                (rho0.matrix,) * (n_segments + 1)))

    tau = theta / 2.0 / n_segments  # scaled duration g_alpha * T of one segment
    rows = _step_rows(decay.rate / g, tau, config, n_segments)
    v = [_bloch(rho0.matrix)]  # the map has no trace row: the trace stays 1
    if config.method == EXACT:
        for _ in range(n_segments):
            v.append((1.0, *matvec(rows, v[-1])))
    else:
        for _ in range(n_segments):
            s = v[-1]
            v.append((1.0, *map(add, s[1:], matvec(rows, s))))
    states = _density_stack(v)
    times = (*(i * tau / g for i in range(n_segments)), theta / 2.0 / g)
    return EvolutionResult(DensityMatrix(states[-1]), Trajectory(times, states))


def final_states(rho0: DensityMatrix, pulse: PulseSpec, decay_rates) -> tuple:
    """Final state of ``rho0`` after ``pulse`` for each rate in ``decay_rates``,
    as a stack of 2x2 matrices.

    The same states as one exact :func:`evolve` per rate with
    ``sample_count`` 1, from one :func:`_propagators` call and one
    validation of the stack.
    """
    rates = tuple(map(float, decay_rates))
    for rate in rates:
        if not (math.isfinite(rate) and rate >= 0):
            raise InvalidStateError(f"decay rate must be finite and >= 0, got {rate}")
    if pulse.pulse_area == 0.0:
        return (rho0.matrix,) * len(rates)
    b = _bloch(rho0.matrix)
    g = pulse.drive_coupling
    steps = _propagators([rate / g for rate in rates], pulse.pulse_area / 2.0)
    return _density_stack([(1.0, *matvec(step[1:], b)) for step in steps])
