"""Markovian master equation for a resonantly driven two-level atom.

The equation of motion integrated here is

    drho/dt = -i [H, rho] - (kappa/2) {sigma_+ sigma_-, rho}
              + kappa sigma_- rho sigma_+ ,      H = g_alpha (sigma_+ + sigma_-),

with hbar = 1 and the drive on resonance in the rotating frame.  The drive
coupling ``g_alpha`` sets the Rabi frequency Omega_R = 2 g_alpha, so a pulse
of area theta lasts T = theta / (2 g_alpha).

Internally the solvers work in scaled time tau = g_alpha * t, where the
dynamics depend only on the single dimensionless ratio kappa / g_alpha.
Within a pulse the equation is linear with constant coefficients, so the
default ``exact`` method maps vec(rho) through exp(L * tau) with the 4x4
Liouvillian L; ``rk4_fixed`` steps the same equation with classical RK4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qcore import DensityMatrix, InvalidStateError, make_operator, max_abs

# Decay-channel labels: kappa counts only the vacuum modes co-propagating with
# the laser beam, Gamma the full free-space emission rate.  The labels do not
# change the equation of motion; they tag which physical rate was supplied.
LASER_MODES_KAPPA = "laser_modes_kappa"
ALL_VACUUM_GAMMA = "all_vacuum_gamma"

EXACT = "exact"
RK4_FIXED = "rk4_fixed"

_SIGMA_MINUS = make_operator("sigma_minus", 2)
_SIGMA_X = make_operator("sigma_x", 2)
_PROJ_EXCITED = make_operator("projector_excited", 2)
_I2 = make_operator("identity", 2)

# Liouvillian in scaled time, L = _L_DRIVE + (kappa/g_alpha) * _L_DECAY, acting
# on row-major vec(rho): vec(A X B) = (A kron B^T) vec(X).
_L_DRIVE = -1j * (np.kron(_SIGMA_X, _I2) - np.kron(_I2, _SIGMA_X.T))
_L_DECAY = np.kron(_SIGMA_MINUS, _SIGMA_MINUS.conj()) - 0.5 * (
    np.kron(_PROJ_EXCITED, _I2) + np.kron(_I2, _PROJ_EXCITED.T)
)

# [13/13] Pade coefficients b_0..b_13, and the 1-norm up to which that
# approximant reaches double-precision roundoff (Higham 2005, Table 2.3).
_PADE_13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA_13 = 5.371920351148152


class IntegrationError(RuntimeError):
    """The pulse propagator is not finite; reported as a numerical failure."""


@dataclass(frozen=True)
class PulseSpec:
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

    @property
    def rabi_frequency(self) -> float:
        return 2.0 * self.drive_coupling

    @property
    def duration(self) -> float:
        if self.pulse_area == 0.0:
            return 0.0
        return self.pulse_area / (2.0 * self.drive_coupling)


@dataclass(frozen=True)
class DecaySpec:
    """Single amplitude-damping channel at the given rate (same units as g_alpha)."""

    rate: float
    label: str = LASER_MODES_KAPPA

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise InvalidStateError(f"decay rate must be finite and >= 0, got {self.rate}")
        if self.label not in (LASER_MODES_KAPPA, ALL_VACUUM_GAMMA):
            raise InvalidStateError(f"unknown decay label {self.label!r}")


@dataclass(frozen=True)
class IntegratorConfig:
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


@dataclass(frozen=True)
class EvolutionResult:
    final: DensityMatrix
    trajectory: list[tuple[float, DensityMatrix]] | None = None


def _rhs_scaled(rho: np.ndarray, ratio: float) -> np.ndarray:
    # d rho / d tau with tau = g_alpha t, drive coupling 1, ratio = kappa/g_alpha.
    h_rho = _SIGMA_X @ rho
    comm = h_rho - h_rho.conj().T  # [H, rho] for Hermitian rho
    out = -1j * comm
    if ratio != 0.0:
        p_rho = _PROJ_EXCITED @ rho
        out = out + ratio * (
            _SIGMA_MINUS @ rho @ _SIGMA_MINUS.conj().T - 0.5 * (p_rho + p_rho.conj().T)
        )
    return out


def _rhs_decay_only(rho: np.ndarray) -> np.ndarray:
    # pure decay term (unit rate), used when the drive is off
    p_rho = _PROJ_EXCITED @ rho
    return _SIGMA_MINUS @ rho @ _SIGMA_MINUS.conj().T - 0.5 * (p_rho + p_rho.conj().T)


def lindblad_rhs(rho: DensityMatrix, pulse: PulseSpec, decay: DecaySpec) -> np.ndarray:
    """Right-hand side drho/dt in the caller's time units.

    The result of the Lindblad form is traceless and Hermitian; both are
    asserted to 1e-12 before returning.
    """
    if rho.dim != 2:
        raise InvalidStateError("the driven-atom equation of motion is two-level only")
    g = pulse.drive_coupling
    if g > 0:
        out = g * _rhs_scaled(rho.matrix, decay.rate / g)
    else:
        out = decay.rate * _rhs_decay_only(rho.matrix)
    if abs(out.trace()) > 1e-12:
        raise InvalidStateError(f"RHS trace residue {abs(out.trace()):.3e}")
    if max_abs(out - out.conj().T) > 1e-12:
        raise InvalidStateError("RHS is not Hermitian within 1e-12")
    return out


def _hermitize(rho: np.ndarray) -> np.ndarray:
    return 0.5 * (rho + rho.conj().T)


def _rk4_segment(rho: np.ndarray, ratio: float, tau: float, steps: int) -> np.ndarray:
    h = tau / steps
    for _ in range(steps):
        k1 = _rhs_scaled(rho, ratio)
        k2 = _rhs_scaled(rho + 0.5 * h * k1, ratio)
        k3 = _rhs_scaled(rho + 0.5 * h * k2, ratio)
        k4 = _rhs_scaled(rho + h * k3, ratio)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = _hermitize(rho)
    return rho


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
    """exp(L * tau) on row-major vec(rho), one 4x4 matrix per kappa/g_alpha
    in ``ratios``, for a scaled duration ``tau`` = g_alpha * t.

    Raises :class:`IntegrationError` if any propagator is not finite.
    """
    r = np.asarray(ratios, dtype=float).reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        steps = _expm((_L_DRIVE + r[:, None, None] * _L_DECAY) * tau)
    if not np.all(np.isfinite(steps)):
        raise IntegrationError(
            f"non-finite propagator for kappa/g_alpha up to {r.max():g} over tau={tau:g}"
        )
    return steps


def _apply(step: np.ndarray, rho: np.ndarray) -> np.ndarray:
    return _hermitize((step @ rho.reshape(-1)).reshape(2, 2))


def evolve(rho0: DensityMatrix, pulse: PulseSpec, decay: DecaySpec,
           config: IntegratorConfig = IntegratorConfig()) -> EvolutionResult:
    """Evolve ``rho0`` through one pulse; all state invariants are re-validated
    at the final time and at every recorded sample.

    Returns the final state, plus the (t, rho) samples at
    ``config.sample_count + 1`` uniformly spaced times when
    ``config.record_trajectory`` is set.
    """
    if rho0.dim != 2:
        raise InvalidStateError("evolve handles the two-level atom only")
    g = pulse.drive_coupling
    theta = pulse.pulse_area
    if theta == 0.0 or g == 0.0:
        traj = None
        if config.record_trajectory:
            traj = [(0.0, rho0) for _ in range(config.sample_count + 1)]
        return EvolutionResult(final=rho0, trajectory=traj)

    ratio = decay.rate / g
    tau_end = theta / 2.0  # scaled duration: g_alpha * T
    n_segments = config.sample_count if config.record_trajectory else 1
    tau_grid = np.linspace(0.0, tau_end, n_segments + 1)
    if config.method == EXACT:
        step = _propagators([ratio], tau_end / n_segments)[0]
    else:
        steps_per_segment = max(1, -(-config.step_count // n_segments))  # ceil division

    rho = rho0.matrix
    samples: list[tuple[float, DensityMatrix]] = [(0.0, rho0)]
    for i in range(n_segments):
        if config.method == EXACT:
            rho = _apply(step, rho)
        else:
            rho = _rk4_segment(rho, ratio, tau_grid[i + 1] - tau_grid[i], steps_per_segment)
        if config.record_trajectory:
            samples.append((tau_grid[i + 1] / g, DensityMatrix(rho)))

    if config.record_trajectory:
        return EvolutionResult(final=samples[-1][1], trajectory=samples)
    return EvolutionResult(final=DensityMatrix(rho))


def final_states(rho0: DensityMatrix, pulse: PulseSpec, decay_rates,
                 config: IntegratorConfig = IntegratorConfig()) -> list[DensityMatrix]:
    """Final state of ``rho0`` after ``pulse`` for each rate in ``decay_rates``.

    Same result as one :func:`evolve` per rate; the exact method builds all
    propagators in one batched call.  Every final state is validated.
    """
    decays = [DecaySpec(rate=rate) for rate in np.asarray(decay_rates, dtype=float).reshape(-1)]
    if config.method != EXACT or pulse.pulse_area == 0.0 or rho0.dim != 2:
        return [evolve(rho0, pulse, decay, config).final for decay in decays]
    ratios = [decay.rate / pulse.drive_coupling for decay in decays]
    steps = _propagators(ratios, pulse.pulse_area / 2.0)
    return [DensityMatrix(_apply(step, rho0.matrix)) for step in steps]
