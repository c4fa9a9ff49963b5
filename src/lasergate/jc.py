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
2e-21 at every nbar up to the cap ``MAX_N_BAR`` = 1e14 (about 1.1e-22 at its
largest, near nbar = 24).  That is a property of the window, pinned by a test
against the exact Poisson tails, not a check made at run time.

The semiclassical correspondence used throughout: a pulse of area theta lasts
T = theta / (2 g sqrt(nbar)), i.e. the mean-field Rabi frequency is
2 g sqrt(nbar), and the ideal target is the rotation exp(-i theta sigma_x / 2).
Only g T = theta / (2 sqrt(nbar)) enters, so the coupling g drops out.  The
field amplitude is taken real and positive; its phase is the same convention
fixed for the classical drive in :mod:`lasergate.lindblad`.  The single entry
point is :func:`jc_gate_error`.
"""

from __future__ import annotations

import math

from .qcore import InvalidStateError, check_pure_start

# Largest mean photon number a field may hold.  A gate error reads about 80
# levels of its window whatever nbar is, so this fixes the photon range that
# ``compare`` accepts, not a cost: the window's level offsets m - nbar stay
# exact in a double up to about 9e15, and up to the cap the tests pin p against
# its large-nbar asymptote (c'_JC + b / nbar) / nbar.
MAX_N_BAR = 1e14

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
    levels below it; P_0 = exp(-nbar).  ``nbar`` is > 0.
    """
    if m == 0:
        return _SQRT_2PI * math.exp(-n_bar)
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


def _window(n_bar: float) -> tuple:
    """(n_min, n_max), the Fock levels kept for a coherent field of mean nbar:
    n_min = max(0, floor(nbar - 10 sqrt(nbar))), n_max = ceil(nbar + 10 sqrt(nbar)) + 12."""
    spread = 10.0 * math.sqrt(n_bar)
    return max(0, math.floor(n_bar - spread)), math.ceil(n_bar + spread) + 12


def _chord(mean: float, half: float) -> tuple:
    """(cos a - cos b, sin a - sin b) for a = mean + half, b = mean - half, in
    product form: no two nearly equal numbers are subtracted."""
    s = math.sin(half)
    return -2.0 * math.sin(mean) * s, 2.0 * math.cos(mean) * s


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


def _population(psi: tuple, n_bar: float, theta: float, bra) -> float:
    """<bra| rho_atom |bra> after a theta pulse from the atom's amplitudes
    ``psi`` = (x_b, x_a), summed over the Fock levels of :func:`_window`.

    Level m of the joint state holds b_m |b, m> + a_m |a, m>, with
      b_m = cos(phi_{m-1}) c_m x_b - i sin(phi_{m-1}) c_{m-1} x_a
      a_m = cos(phi_m) c_m x_a - i sin(phi_m) c_{m+1} x_b,
    phi_n = g T sqrt(n+1) the angle of sector (|b, n+1>, |a, n>) and c_n the
    Poisson amplitudes of the field, with c_{-1} = 0.  With (A, B, C, D) =
    (u_b x_b, u_a x_a, -i u_b x_a, -i u_a x_b) for <bra| = (u_b, u_a) and the
    mean-field angle phi_0 = g T sqrt(nbar) = theta / 2, its overlap with <bra| is
      c_m [K + (cos phi_{m-1} - cos phi_0) (A + B) + (sin phi_{m-1} - sin phi_0) (C + D)
           + (cos phi_m - cos phi_{m-1}) B + (sin phi_m - sin phi_{m-1}) D]
      + (c_{m-1} - c_m) sin phi_{m-1} C + (c_{m+1} - c_m) sin phi_m D,
    K = cos phi_0 (A + B) + sin phi_0 (C + D) the mean-field pulse's overlap.
    Every difference is formed in product form: cos a - cos b =
    -2 sin((a+b)/2) sin((a-b)/2), the angle differences
    g T (m - nbar) / (sqrt m + sqrt nbar) and g T / (sqrt(m+1) + sqrt m),
    c_{m+1} / c_m - 1 = (nbar - m - 1) / ((m+1) (sqrt(nbar/(m+1)) + 1)) and
    c_{m-1} / c_m - 1 = (m - nbar) / (nbar + sqrt(m nbar)).  So no terms of
    order 1 cancel to an overlap of order 1/sqrt(nbar), which would cost
    log10(sqrt(nbar)) digits.

    The squared overlaps and the weights c_m^2 are summed at the levels
    m = n_min, n_min + h, ... <= n_max, h = max(1, floor(sqrt(nbar) / 4)),
    each standing for h levels (a factor that cancels in the ratio).  The
    summand has a Gaussian envelope of width sqrt(nbar), so this is the
    trapezoid rule, whose difference from the per-level sum Poisson summation
    bounds by about exp(-2 pi^2 nbar / h^2) <= exp(-316).  Below nbar = 64,
    h = 1 and n_min = 0, so the sum is the exact per-level sum over the
    window, level 0 included.  Each level's neighbours c_{m-1} and c_{m+1}
    are the field's own, at the window edges too, so an edge adds no jump to
    the summand; the levels outside the window are left out, at most 2e-21
    of the norm.  Each term is non-negative, so the sum has no 1 - F
    cancellation, and both sums are correctly rounded (``math.fsum``).
    """
    x_b, x_a = psi
    u_b, u_a = bra[0].conjugate(), bra[1].conjugate()
    a, b, c, d = u_b * x_b, u_a * x_a, -1j * u_b * x_a, -1j * u_a * x_b
    root_ref = math.sqrt(n_bar)
    gt = theta / (2.0 * root_ref)
    phi_0 = gt * root_ref
    mean_field = math.cos(phi_0) * (a + b) + math.sin(phi_0) * (c + d)
    h = max(1, int(root_ref / 4.0))
    n_min, n_max = _window(n_bar)
    terms, weights = [], []
    for m in range(n_min, n_max + 1, h):
        w = _poisson_weight(m, n_bar)
        c_m = math.sqrt(w)
        root_m, root_up = math.sqrt(m), math.sqrt(m + 1)
        # phi_{m-1} against phi_0, and phi_m against phi_{m-1}
        half = 0.5 * gt * (m - n_bar) / (root_m + root_ref)
        cos_lo, sin_lo = _chord(phi_0 + half, half)
        step_cos, step_sin = _chord(0.5 * gt * (root_m + root_up), 0.5 * gt / (root_up + root_m))
        s_lo, s_up = math.sin(gt * root_m), math.sin(gt * root_up)
        # c_{m-1} - c_m and c_{m+1} - c_m from the Poisson ratios, the field's
        # own amplitudes on both sides; level -1 alone holds none
        down = -c_m if m == 0 else c_m * (m - n_bar) / (n_bar + math.sqrt(m * n_bar))
        up = c_m * (n_bar - m - 1) / ((m + 1) * (math.sqrt(n_bar / (m + 1)) + 1.0))
        o = (c_m * (mean_field + cos_lo * (a + b) + sin_lo * (c + d) + step_cos * b + step_sin * d)
             + down * s_lo * c + up * s_up * d)
        terms.append(o.real * o.real + o.imag * o.imag)
        weights.append(w)
    atom_norm = x_b.real ** 2 + x_b.imag ** 2 + x_a.real ** 2 + x_a.imag ** 2
    return math.fsum(terms) / (math.fsum(weights) * atom_norm)


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


def jc_gate_error(theta: float, atom_start, n_bar: float) -> float:
    """Failure probability of a theta pulse against its semiclassical target.

    Parameters
    ----------
    theta : float
        Pulse area in (0, 2 pi], at most one mean-field Rabi period.
    atom_start : sequence of 3 floats
        Bloch vector (x, y, z) of the pure initial state, |s| = 1
        (:func:`qcore.check_pure_start`), read as :func:`_amplitudes`.
    n_bar : float
        Mean photon number of the coherent field, in [25, ``MAX_N_BAR``]
        (see :func:`check_photon_numbers`).

    Returns
    -------
    float
        p = <psi_perp| rho_atom(T) |psi_perp> with T = theta / (2 g sqrt(nbar))
        and psi_perp = (-t_a*, t_b*) orthogonal to the target
        t = exp(-i theta sigma_x / 2) psi; g drops out, since T scales as
        1/g.  It is summed from the joint state over the fixed window of
        :func:`_window`, so p is accurate relative to itself rather than to
        1, with no 1 - F cancellation.
    """
    (n_bar,) = check_photon_numbers((n_bar,))
    if not 0.0 < theta <= 2.0 * math.pi:
        raise InvalidStateError(f"pulse area theta must lie in (0, 2 pi], got {theta}")
    x_b, x_a = psi = _amplitudes(check_pure_start(atom_start))
    cos, sin = complex(math.cos(theta / 2.0), 0.0), complex(0.0, -math.sin(theta / 2.0))
    t_b, t_a = cos * x_b + sin * x_a, sin * x_b + cos * x_a
    # <psi_perp| projects each Fock level's atom state
    return _population(psi, n_bar, theta, (-t_a.conjugate(), t_b.conjugate()))
