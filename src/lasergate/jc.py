"""Resonant Jaynes-Cummings evolution with a coherent field: the single-mode
cross-check for the Markovian gate errors.

Each excitation sector (|b, n+1>, |a, n>) is a closed two-level system rotating
at 2 g sqrt(n+1), so the joint state is propagated in closed form per sector
and summed over the (truncated, renormalized) Poisson amplitudes.  No ODE
integration is involved, which removes one error source from the model
comparison.

Only the Poisson window n_min <= n <= n_max is evolved, with
n_min = max(0, floor(nbar - 10 sqrt(nbar))) and by default
n_max = ceil(nbar + 10 sqrt(nbar)) + 12: about 20 sqrt(nbar) levels, whatever
nbar is.  The mass outside the window is bounded by the Chernoff bound
exp(-nbar) (e nbar / k)^k, which holds for P(N <= k) with k < nbar and for
P(N >= k) with k > nbar; it is below ~1e-21 for the default window and is
required to stay below 1e-10.  The bound involves no cancellation, so a field
is rejected only for a real truncation, never for rounding in 1 - sum(P_n).

The semiclassical correspondence used throughout: a pulse of area theta lasts
T = theta / (2 g sqrt(nbar)), i.e. the mean-field Rabi frequency is
2 g sqrt(nbar), and the ideal target is the rotation exp(-i theta sigma_x / 2).
The field amplitude is taken real and positive; its phase is the same
convention fixed for the classical drive in :mod:`lasergate.lindblad`.
"""

from __future__ import annotations

import math

import numpy as np

from .qcore import DensityMatrix, InvalidStateError, PureState, Record, rotation

POISSON_TAIL_TOL = 1e-10

# Stay within the first few mean-field Rabi periods; collapse and revival
# physics beyond that is out of scope for single-pulse gates.
MAX_RABI_PERIODS = 5.0

# Most Fock levels a field may keep: a gate error holds about 120 bytes per
# level, so this bounds it near 240 MB, reached by the default window at
# nbar of about 1e10.
MAX_FOCK_LEVELS = 2 * 10**6


class TruncationError(InvalidStateError):
    """Fock-space truncation leaves more than the allowed Poisson tail mass."""


def _log_chernoff(n_bar: float, k: int) -> float:
    """log of exp(-nbar) (e nbar / k)^k, which bounds P(N <= k) for k < nbar
    and P(N >= k) for k > nbar."""
    return -n_bar + k - (k * math.log(k / n_bar) if k else 0.0)


class CoherentField(Record):
    """Coherent field of real amplitude alpha, kept on Fock levels n_min..n_max.

    ``n_min`` = max(0, floor(nbar - 10 sqrt(nbar))) is derived from alpha.  The
    default truncation n_max = ceil(nbar + 10 sqrt(nbar)) + 12; an explicit
    n_max must satisfy n_max >= nbar + 10 sqrt(nbar).  Either way the window
    may hold at most ``MAX_FOCK_LEVELS`` levels, and the Chernoff bound on the
    Poisson mass outside [n_min, n_max] must stay below 1e-10.
    """

    alpha: float
    n_max: int | None = None

    def __post_init__(self):
        if self.alpha < 0:
            raise InvalidStateError("alpha is taken real and >= 0 by phase convention")
        n_bar = self.alpha ** 2
        width = 20.0 * math.sqrt(n_bar)
        # every window holds at least 20 sqrt(nbar) levels: checked before the
        # window is rounded to nbar +- 10 sqrt(nbar), which from nbar ~ 1e33 on
        # loses the width to the spacing of doubles
        if width > MAX_FOCK_LEVELS:
            raise InvalidStateError(
                f"Poisson window of {width:.3g} Fock levels exceeds {MAX_FOCK_LEVELS}"
            )
        floor = n_bar + width / 2.0
        if self.n_max is None:
            object.__setattr__(self, "n_max", int(math.ceil(floor)) + 12)
        elif self.n_max < floor:
            raise TruncationError(
                f"n_max={self.n_max} below nbar + 10 sqrt(nbar) = {floor:.2f}"
            )
        levels = self.n_max - self.n_min + 1
        if levels > MAX_FOCK_LEVELS:
            raise InvalidStateError(
                f"Poisson window of {levels} Fock levels exceeds {MAX_FOCK_LEVELS}"
            )
        tail = self._tail_bound()
        if tail > POISSON_TAIL_TOL:
            raise TruncationError(
                f"Poisson mass outside [{self.n_min}, {self.n_max}] may reach "
                f"{tail:.3e} > {POISSON_TAIL_TOL}"
            )

    def _tail_bound(self) -> float:
        n_bar = self.alpha ** 2
        if n_bar == 0.0:
            return 0.0
        lower = math.exp(_log_chernoff(n_bar, self.n_min - 1)) if self.n_min > 0 else 0.0
        return lower + math.exp(_log_chernoff(n_bar, self.n_max + 1))

    @property
    def mean_photons(self) -> float:
        return self.alpha ** 2

    @property
    def n_min(self) -> int:
        """Lowest Fock level kept: max(0, floor(nbar - 10 sqrt(nbar)))."""
        n_bar = self.alpha ** 2
        return max(0, math.floor(n_bar - 10.0 * math.sqrt(n_bar)))

    def amplitudes(self) -> np.ndarray:
        """Renormalized Fock amplitudes sqrt(P_n), n = n_min..n_max."""
        n_bar, n_lo = self.alpha ** 2, self.n_min
        if n_bar == 0.0:
            out = np.zeros(self.n_max + 1)
            out[0] = 1.0
            return out
        # log P_n = log P_{n_min} + sum_{k = n_min+1}^{n} log(nbar / k)
        steps = np.log(n_bar / np.arange(n_lo + 1, self.n_max + 1, dtype=float))
        log_w = np.concatenate(([0.0], np.cumsum(steps)))
        log_w += -n_bar + n_lo * math.log(n_bar) - math.lgamma(n_lo + 1.0)
        w = np.exp(log_w)
        return np.sqrt(w / w.sum())


def _joint_state(atom_start: PureState, field: CoherentField, g: float,
                 duration: float) -> tuple[np.ndarray, np.ndarray]:
    """Normalized joint state after the pulse, as ground and excited amplitude
    arrays on the shared Fock levels n_min - 1 .. n_max + 1.

    The extra level at each end closes the window under the sector pairing;
    the joint norm is checked to 1e-9.
    """
    if atom_start.dim != 2:
        raise InvalidStateError("atomic state must be two-level")
    if g <= 0:
        raise InvalidStateError(f"coupling must be > 0, got {g}")
    if duration < 0:
        raise InvalidStateError(f"duration must be >= 0, got {duration}")
    mean_rabi = 2.0 * g * math.sqrt(max(field.mean_photons, 1.0))
    if duration > MAX_RABI_PERIODS * 2.0 * math.pi / mean_rabi:
        raise InvalidStateError(
            f"duration {duration:g} exceeds {MAX_RABI_PERIODS:g} mean-field Rabi periods; "
            "collapse/revival dynamics are out of scope"
        )

    amps = field.amplitudes()
    ground = np.zeros(amps.size + 2, dtype=complex)
    excited = np.zeros(amps.size + 2, dtype=complex)
    ground[1:-1] = atom_start.amplitudes[0] * amps
    excited[1:-1] = atom_start.amplitudes[1] * amps

    # sector (|b, n+1>, |a, n>), n = n_min-1 .. n_max, rotates by angle
    # g sqrt(n+1) t; for n_min = 0 the first angle is 0 and |b, 0> stays dark
    n_lo = field.n_min
    phi = g * duration * np.sqrt(np.arange(n_lo, n_lo + amps.size + 1, dtype=float))
    cos_phi, sin_phi = np.cos(phi), np.sin(phi)
    b_upper = ground[1:].copy()
    ground[1:] = cos_phi * b_upper - 1j * sin_phi * excited[:-1]
    excited[:-1] = cos_phi * excited[:-1] - 1j * sin_phi * b_upper

    norm2 = float(np.real(np.vdot(ground, ground) + np.vdot(excited, excited)))
    if abs(norm2 - 1.0) > 1e-9:
        raise InvalidStateError(f"joint-state norm drifted: |psi|^2 = {norm2:.12g}")
    scale = 1.0 / math.sqrt(norm2)
    return ground * scale, excited * scale


def jc_evolve(atom_start: PureState, field: CoherentField, g: float,
              duration: float) -> DensityMatrix:
    """Joint unitary evolution for one pulse; returns the reduced atomic state."""
    ground, excited = _joint_state(atom_start, field, g, duration)
    rho = np.empty((2, 2), dtype=complex)
    rho[0, 0] = np.vdot(ground, ground)
    rho[1, 1] = np.vdot(excited, excited)
    rho[1, 0] = np.vdot(ground, excited)
    rho[0, 1] = np.conj(rho[1, 0])
    return DensityMatrix(rho)


def jc_gate_error(theta: float, atom_start: PureState, n_bar: float,
                  n_max: int | None = None, g: float = 1.0) -> float:
    """Failure probability of a theta pulse against its semiclassical target.

    Parameters
    ----------
    theta : float
        Pulse area, either pi or pi/2 (the semiclassical regime where the
        single-mode estimates are meaningful).
    atom_start : PureState
        Two-level initial state.
    n_bar : float
        Mean photon number of the coherent field, >= 25.
    n_max : int, optional
        Fock truncation override, forwarded to :class:`CoherentField`.
    g : float
        Atom-field coupling; the result is g-independent since the pulse time
        scales as 1/g.

    Returns
    -------
    float
        p = <psi_perp| rho_atom(T) |psi_perp> with T = theta / (2 g sqrt(nbar))
        and psi_perp orthogonal to the target.  It is summed over Fock levels
        from the joint state, so p is accurate relative to itself rather than
        to 1, with no 1 - F cancellation.
    """
    if n_bar < 25:
        raise InvalidStateError(f"semiclassical regime requires nbar >= 25, got {n_bar}")
    if not (math.isclose(theta, math.pi) or math.isclose(theta, math.pi / 2)):
        raise InvalidStateError("supported pulse areas are pi and pi/2")
    field = CoherentField(alpha=math.sqrt(n_bar), n_max=n_max)
    duration = theta / (2.0 * g * math.sqrt(n_bar))
    ground, excited = _joint_state(atom_start, field, g, duration)
    target = rotation(theta) @ atom_start.amplitudes
    # <psi_perp| = (-target_a, target_b) projects each Fock level's atom state
    overlap = target[0] * excited - target[1] * ground
    return float(np.vdot(overlap, overlap).real)
