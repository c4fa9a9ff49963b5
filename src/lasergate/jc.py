"""Resonant Jaynes-Cummings evolution with a coherent field: the single-mode
cross-check for the Markovian gate errors.

Each excitation sector (|b, n+1>, |a, n>) is a closed two-level system rotating
at 2 g sqrt(n+1), so the joint state is propagated in closed form per sector
and summed over the (truncated, renormalized) Poisson amplitudes.  No ODE
integration is involved, which removes one error source from the model
comparison.  Each level's overlap is written relative to the mean-field pulse,
with every difference in product form, so no term cancels; and since the
summand is smooth on the scale of sqrt(nbar) levels, it is read only every
h = max(1, floor(sqrt(nbar) / 4)) levels, a trapezoid rule whose aliasing error
is about exp(-2 pi^2 nbar / h^2) <= exp(-316) (Trefethen and Weideman, SIAM
Rev. 56, 385 (2014)).  Each sampled Poisson weight is read in closed form, in
Loader's saddle-point form of the pmf, so a gate error costs about 80 terms
whatever nbar is and never visits the levels between the samples.

Only the Poisson window n_min <= n <= n_max is evolved, with
n_min = max(0, floor(nbar - 10 sqrt(nbar))) and
n_max = ceil(nbar + 10 sqrt(nbar)) + 12: about 20 sqrt(nbar) levels, whatever
nbar is.  The window is fixed, and the Poisson mass outside it is at most
2e-21 at every nbar up to the cap ``MAX_N_BAR`` = 1e10 (about 1.1e-22 at its
largest, near nbar = 24).  That is a property of the window, pinned by a test
against the exact Poisson tails, not a check made at run time.

The semiclassical correspondence used throughout: a pulse of area theta lasts
T = theta / (2 g sqrt(nbar)), i.e. the mean-field Rabi frequency is
2 g sqrt(nbar), and the ideal target is the rotation exp(-i theta sigma_x / 2).
The field amplitude is taken real and positive; its phase is the same
convention fixed for the classical drive in :mod:`lasergate.lindblad`.
"""

from __future__ import annotations

import math

from .qcore import DensityMatrix, InvalidStateError, PureState, Record, psi_perp

# Stay within the first few mean-field Rabi periods; collapse and revival
# physics beyond that is out of scope for single-pulse gates.
MAX_RABI_PERIODS = 5.0

# Largest mean photon number a field may hold.  A gate error reads about 80
# levels of its window whatever nbar is, so this fixes the photon range that
# ``compare`` accepts, not a cost.  It stays at 1e10 until the ~5e-24 floor
# that p shows from about nbar = 1e12 on is understood.
MAX_N_BAR = 1e10

# stirlerr(m) = log(m!) - log(sqrt(2 pi m) (m / e)^m) for m = 0..15, to the
# nearest double (the m = 0 entry is a placeholder: P_0 is read directly)
_STIRLERR = (
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748, 0.01189670994589177,
    0.010411265261972096, 0.009255462182712733, 0.00833056343336287, 0.007573675487951841,
    0.00694284010720953, 0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
)
_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _poisson_weight(m: int, n_bar: float) -> float:
    """P_m sqrt(2 pi), the Poisson pmf of mean nbar at level m times sqrt(2 pi).

    Loader's saddle-point form (C. Loader, "Fast and Accurate Computation of
    Binomial Probabilities", 2000): P_m sqrt(2 pi) = exp(-stirlerr(m) -
    bd0(m, nbar)) / sqrt(m), with bd0 = m log(m / nbar) + nbar - m summed as a
    series in v = (m - nbar) / (m + nbar) where |v| < 0.1, so that it does not
    cancel near the mean, and stirlerr from its asymptotic series above
    m = 15.  Each weight is read on its own, with no recurrence over the
    levels below it; P_0 = exp(-nbar), and the vacuum nbar = 0 has P_0 = 1.
    """
    if m == 0:
        return _SQRT_2PI * math.exp(-n_bar)
    if n_bar == 0.0:
        return 0.0
    d = m - n_bar
    if abs(d) < 0.1 * (m + n_bar):
        v = d / (m + n_bar)
        bd0, term, v2, j = d * v, 2.0 * m * v, v * v, 3
        while True:
            term *= v2
            nxt = bd0 + term / j
            if nxt == bd0:
                break
            bd0, j = nxt, j + 2
    else:
        bd0 = m * math.log(m / n_bar) - d
    if m > 15:
        r = 1.0 / (m * m)
        stirlerr = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - r / 1188) * r) * r) * r) / m
    else:
        stirlerr = _STIRLERR[m]
    return math.exp(-stirlerr - bd0) / math.sqrt(m)


class CoherentField(Record):
    """Coherent field of real amplitude alpha, kept on Fock levels n_min..n_max.

    The window is derived from alpha alone: n_min = max(0, floor(nbar -
    10 sqrt(nbar))) and n_max = ceil(nbar + 10 sqrt(nbar)) + 12.  The mean
    photon number nbar = alpha^2 may be at most ``MAX_N_BAR``; the Poisson
    mass outside the window is at most 2e-21 for every such field.
    """

    alpha: float

    def __post_init__(self):
        # a NaN fails too; for every double, alpha <= 1e5 exactly when alpha^2 <= 1e10
        if not 0 <= self.alpha <= math.sqrt(MAX_N_BAR):
            raise InvalidStateError(f"alpha must lie in [0, sqrt(MAX_N_BAR)] (real by phase"
                                    f" convention), got {self.alpha}")

    @property
    def mean_photons(self) -> float:
        return self.alpha ** 2

    @property
    def n_min(self) -> int:
        """Lowest Fock level kept: max(0, floor(nbar - 10 sqrt(nbar)))."""
        n_bar = self.alpha ** 2
        return max(0, math.floor(n_bar - 10.0 * math.sqrt(n_bar)))

    @property
    def n_max(self) -> int:
        """Highest Fock level kept: ceil(nbar + 10 sqrt(nbar)) + 12."""
        n_bar = self.alpha ** 2
        return math.ceil(n_bar + 10.0 * math.sqrt(n_bar)) + 12


def _chord(mean: float, half: float) -> tuple:
    """(cos a - cos b, sin a - sin b) for a = mean + half, b = mean - half, in
    product form: no two nearly equal numbers are subtracted."""
    s = math.sin(half)
    return -2.0 * math.sin(mean) * s, 2.0 * math.cos(mean) * s


def _kahan(total: float, err: float, x: float) -> tuple:
    """One step of Kahan summation: total + x, and the part of it lost to rounding."""
    x -= err
    s = total + x
    return s, (s - total) - x


def _population(atom_start: PureState, field: CoherentField, g: float, duration: float,
                bra) -> float:
    """<bra| rho_atom |bra> after the pulse, summed over the Fock levels.

    Level m of the joint state holds b_m |b, m> + a_m |a, m>, with
      b_m = cos(phi_{m-1}) c_m x_b - i sin(phi_{m-1}) c_{m-1} x_a
      a_m = cos(phi_m) c_m x_a - i sin(phi_m) c_{m+1} x_b,
    phi_n = g t sqrt(n+1) the angle of sector (|b, n+1>, |a, n>) and c_n the
    field amplitudes, zero outside the window.  With (A, B, C, D) =
    (u_b x_b, u_a x_a, -i u_b x_a, -i u_a x_b) for <bra| = (u_b, u_a) and the
    mean-field angle phi_0 = g t sqrt(nbar), its overlap with <bra| is
      c_m [K + (cos phi_{m-1} - cos phi_0) (A + B) + (sin phi_{m-1} - sin phi_0) (C + D)
           + (cos phi_m - cos phi_{m-1}) B + (sin phi_m - sin phi_{m-1}) D]
      + (c_{m-1} - c_m) sin phi_{m-1} C + (c_{m+1} - c_m) sin phi_m D,
    K = cos phi_0 (A + B) + sin phi_0 (C + D) the mean-field pulse's overlap.
    Every difference is formed in product form: cos a - cos b =
    -2 sin((a+b)/2) sin((a-b)/2), the angle differences
    g t (m - nbar) / (sqrt m + sqrt nbar) and g t / (sqrt(m+1) + sqrt m),
    c_{m+1} / c_m - 1 = (nbar - m - 1) / ((m+1) (sqrt(nbar/(m+1)) + 1)) and
    c_{m-1} / c_m - 1 = (m - nbar) / (nbar + sqrt(m nbar)).  So no terms of
    order 1 cancel to an overlap of order 1/sqrt(nbar), which would cost
    log10(sqrt(nbar)) digits.

    The squared overlaps and the weights c_m^2 are summed at the levels
    m = n_min, n_min + h, ... <= n_max + 1, h = max(1, floor(sqrt(nbar) / 4)),
    each standing for h levels (a factor that cancels in the ratio).  The
    summand has a Gaussian envelope of width sqrt(nbar), so this is the
    trapezoid rule, whose difference from the per-level sum Poisson summation
    bounds by about exp(-2 pi^2 nbar / h^2) <= exp(-316).  Below nbar = 64,
    h = 1 and n_min = 0, so the sum is the exact per-level sum over the
    truncated window and the level above it, the vacuum included.  From
    nbar = 64 on, the window edges weigh below exp(-47) of the peak, and the
    level below a window with n_min > 0 is left out.  Each term is
    non-negative, so the sum has no 1 - F cancellation.
    """
    if not (math.isfinite(g) and g > 0):
        raise InvalidStateError(f"coupling g must be finite and > 0, got {g}")
    if not (math.isfinite(duration) and duration >= 0):
        raise InvalidStateError(f"duration must be finite and >= 0, got {duration}")
    n_bar = field.mean_photons
    n_ref = max(n_bar, 1.0)  # the vacuum's reference is sector 0
    mean_rabi = 2.0 * g * math.sqrt(n_ref)
    if duration > MAX_RABI_PERIODS * 2.0 * math.pi / mean_rabi:
        raise InvalidStateError(
            f"duration {duration:g} exceeds {MAX_RABI_PERIODS:g} mean-field Rabi periods; "
            "collapse/revival dynamics are out of scope"
        )
    x_b, x_a = atom_start.amplitudes
    u_b, u_a = bra[0].conjugate(), bra[1].conjugate()
    a, b, c, d = u_b * x_b, u_a * x_a, -1j * u_b * x_a, -1j * u_a * x_b
    gt = g * duration
    root_ref = math.sqrt(n_ref)
    phi_0 = gt * root_ref
    mean_field = math.cos(phi_0) * (a + b) + math.sin(phi_0) * (c + d)
    h = max(1, int(math.sqrt(n_bar) / 4.0))
    n_min, n_max = field.n_min, field.n_max
    total = norm = total_err = norm_err = 0.0
    for m in range(n_min, n_max + 2, h):
        w = _poisson_weight(m, n_bar) if m <= n_max else 0.0
        c_m = math.sqrt(w)
        root_m, root_up = math.sqrt(m), math.sqrt(m + 1)
        # phi_{m-1} against phi_0, and phi_m against phi_{m-1}
        half = 0.5 * gt * (m - n_ref) / (root_m + root_ref)
        cos_lo, sin_lo = _chord(phi_0 + half, half)
        step_cos, step_sin = _chord(0.5 * gt * (root_m + root_up), 0.5 * gt / (root_up + root_m))
        s_lo, s_up = math.sin(gt * root_m), math.sin(gt * root_up)
        # c_{m-1} - c_m and c_{m+1} - c_m; exact by subtraction where one is
        # zero: level n_min - 1 is outside the window, and so is level m past n_max
        if m == n_min:
            down = -c_m
        elif w:
            down = c_m * (m - n_bar) / (n_bar + math.sqrt(m * n_bar))
        else:
            down = math.sqrt(_poisson_weight(m - 1, n_bar))
        up = (c_m * (n_bar - m - 1) / ((m + 1) * (math.sqrt(n_bar / (m + 1)) + 1.0))
              if m < n_max else -c_m)
        o = (c_m * (mean_field + cos_lo * (a + b) + sin_lo * (c + d) + step_cos * b + step_sin * d)
             + down * s_lo * c + up * s_up * d)
        total, total_err = _kahan(total, total_err, o.real * o.real + o.imag * o.imag)
        norm, norm_err = _kahan(norm, norm_err, w)
    atom_norm = x_b.real ** 2 + x_b.imag ** 2 + x_a.real ** 2 + x_a.imag ** 2
    return total / (norm * atom_norm)


def jc_evolve(atom_start: PureState, field: CoherentField, g: float,
              duration: float) -> DensityMatrix:
    """Joint unitary evolution for one pulse; returns the reduced atomic state.

    The populations are the sums for the bras <b| and <a|; the coherence
    rho_ab comes from those for <b| + <a| and <b| - i<a| by polarization.
    """
    rho_bb, rho_aa, plus, plus_i = (_population(atom_start, field, g, duration, bra)
                                    for bra in ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 1j)))
    rho_ab = complex(plus - rho_bb - rho_aa, plus_i - rho_bb - rho_aa) / 2.0
    return DensityMatrix(((rho_bb, rho_ab.conjugate()), (rho_ab, rho_aa)))


def check_photon_numbers(n_bars) -> tuple:
    """``n_bars`` as floats, refused unless each lies in [25, MAX_N_BAR]: the
    semiclassical regime, up to the cap.  ``compare`` calls it before any
    Markov or Jaynes-Cummings work, and :func:`jc_gate_error` on its nbar."""
    n = tuple(map(float, n_bars))
    for n_bar in n:
        if not 25 <= n_bar <= MAX_N_BAR:  # a NaN fails too
            raise InvalidStateError(f"nbar must lie in [25, MAX_N_BAR = {MAX_N_BAR:g}], the"
                                    f" semiclassical regime up to the cap, got {n_bar}")
    return n


def jc_gate_error(theta: float, atom_start: PureState, n_bar: float) -> float:
    """Failure probability of a theta pulse against its semiclassical target.

    Parameters
    ----------
    theta : float
        Pulse area in (0, 2 pi]; ``MAX_RABI_PERIODS`` bounds the pulse anyway.
    atom_start : PureState
        Two-level initial state.
    n_bar : float
        Mean photon number of the coherent field, in [25, ``MAX_N_BAR``]
        (see :func:`check_photon_numbers`).

    Returns
    -------
    float
        p = <psi_perp| rho_atom(T) |psi_perp> with T = theta / (2 g sqrt(nbar))
        and psi_perp orthogonal to the target; g drops out, since T scales as
        1/g, and is taken as 1.  It is summed from the joint state over the
        fixed window of :class:`CoherentField`, so p is accurate relative to
        itself rather than to 1, with no 1 - F cancellation.
    """
    check_photon_numbers((n_bar,))
    if not 0.0 < theta <= 2.0 * math.pi:
        raise InvalidStateError(f"pulse area theta must lie in (0, 2 pi], got {theta}")
    field = CoherentField(alpha=math.sqrt(n_bar))
    duration = theta / (2.0 * math.sqrt(n_bar))
    # <psi_perp| projects each Fock level's atom state
    return _population(atom_start, field, 1.0, duration, psi_perp(theta, atom_start.amplitudes))
