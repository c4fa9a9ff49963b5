"""Independent reference implementations used only by the tests.

Every routine here deliberately avoids the code paths under test:

* the driven-atom master equation is solved by exponentiating its 4x4
  kron-form superoperator (scipy expm, or mpmath expm at 40 or 50 digits),
  not the Bloch generator; the fixed-step reference is a plain classical RK4
  loop on that same superoperator, not a Taylor step matrix;
* first-order error coefficients come from adaptive quadrature of the
  toggling-frame dissipator, not from a ratio sweep;
* the Jaynes-Cummings model is evolved by exponentiating the full joint
  Hamiltonian, not sector by sector, and its gate error is summed over every
  Fock level 0..n_max in 40-digit mpmath arithmetic as 1 - F, where the
  cancellation still leaves over 30 digits;
* a Poisson weight is read from mpmath's log-gamma in 40 digits, not from a
  Stirling series or a recurrence;
* a density matrix's invariants come from numpy's dense routines, the
  smallest eigenvalue from LAPACK's ``eigvalsh``, not from the closed forms
  of the validator.
"""

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm

from lasergate.qcore import POSITIVITY_SLACK, PURITY_SLACK, TRACE_TOL

# The largest Hermiticity residue max |m - m^H| a density matrix may carry,
# the tolerance a 2x2 matrix is read against; the package holds its states as
# Bloch vectors, Hermitian by construction, and keeps no such tolerance.
HERMITICITY_TOL = 1e-12

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = SIGMA_PLUS + SIGMA_MINUS
PROJ_EXCITED = SIGMA_PLUS @ SIGMA_MINUS
I2 = np.eye(2, dtype=complex)

GROUND = np.array([1, 0], dtype=complex)
EXCITED = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def bloch_density(s) -> np.ndarray:
    """The 2x2 density matrix (I + x sigma_x + y sigma_y + z sigma_z) / 2 of
    the Bloch vector ``s`` = (x, y, z)."""
    x, y, z = s
    return np.array([[1.0 - z, x - 1j * y], [x + 1j * y, 1.0 + z]]) / 2.0


def density_bloch(m) -> tuple:
    """The Bloch vector (x, y, z) of the Hermitian 2x2 matrix ``m``, read from
    its lower-left entry and its diagonal."""
    m = np.asarray(m, dtype=complex)
    return 2.0 * m[1, 0].real, 2.0 * m[1, 0].imag, (m[1, 1] - m[0, 0]).real


def sample_matrices(trajectory) -> np.ndarray:
    """The samples of a ``lindblad.Trajectory`` as a stack of 2x2 density
    matrices, built from its columns of populations and coherence."""
    rho_ab = np.array(trajectory.re_rho_ab) + 1j * np.array(trajectory.im_rho_ab)
    stack = np.zeros((len(trajectory.times), 2, 2), dtype=complex)
    stack[:, 0, 0], stack[:, 1, 1] = trajectory.rho_bb, trajectory.rho_aa
    stack[:, 1, 0], stack[:, 0, 1] = rho_ab, rho_ab.conj()
    return stack


def liouvillian(ratio: float) -> np.ndarray:
    """4x4 generator of the driven-decaying atom in scaled time (g_alpha = 1),
    acting on row-major-vectorized rho: vec(A X B) = (A kron B^T) vec(X)."""
    lv = -1j * (np.kron(SIGMA_X, I2) - np.kron(I2, SIGMA_X.T))
    lv += ratio * (
        np.kron(SIGMA_MINUS, SIGMA_PLUS.T)
        - 0.5 * (np.kron(PROJ_EXCITED, I2) + np.kron(I2, PROJ_EXCITED.T))
    )
    return lv


def evolve_superop(rho0: np.ndarray, theta: float, ratio: float) -> np.ndarray:
    """rho(T) for a theta pulse via the matrix exponential of the superoperator."""
    tau = theta / 2.0  # scaled duration g_alpha * T
    return (expm(liouvillian(ratio) * tau) @ np.asarray(rho0).reshape(-1)).reshape(2, 2)


def evolve_mp(rho0: np.ndarray, theta: float, ratio: float) -> np.ndarray:
    """rho(T) for a theta pulse from the 50-digit mpmath exponential of the
    kron-form ``liouvillian``, rounded to complex128 once at the end."""
    with mpmath.workdps(50):
        lv = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in liouvillian(ratio)])
        prop = mpmath.expm(lv * (mpmath.mpf(theta) / 2))
        rho = prop * mpmath.matrix([mpmath.mpc(complex(x)) for x in np.ravel(rho0)])
        return np.array([complex(x) for x in rho]).reshape(2, 2)


def rk4_trajectory(rho0: np.ndarray, theta: float, ratio: float, step_count: int,
                   samples: int) -> np.ndarray:
    """rho at samples + 1 uniform times of a theta pulse, by classical RK4 on
    vec(rho) with ceil(step_count / samples) equal steps per sample interval."""
    lv = liouvillian(ratio)
    steps = -(-step_count // samples)
    h = theta / 2.0 / (samples * steps)
    r = np.asarray(rho0, dtype=complex).reshape(-1)
    out = [r]
    for _ in range(samples):
        for _ in range(steps):
            k1 = lv @ r
            k2 = lv @ (r + 0.5 * h * k1)
            k3 = lv @ (r + 0.5 * h * k2)
            k4 = lv @ (r + h * k3)
            r = r + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(r)
    return np.array(out).reshape(-1, 2, 2)


def ideal_state(psi0: np.ndarray, theta: float) -> np.ndarray:
    u = np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * SIGMA_X
    return u @ psi0


def failure_superop(psi0: np.ndarray, theta: float, ratio: float) -> float:
    psi0 = np.asarray(psi0, dtype=complex)
    rho = evolve_superop(np.outer(psi0, psi0.conj()), theta, ratio)
    target = ideal_state(psi0, theta)
    return float(1.0 - np.real(target.conj() @ rho @ target))


def failure_mp(psi0: np.ndarray, theta: float, ratio: float) -> mpmath.mpf:
    """Gate failure <psi_perp| rho(T) |psi_perp> in 40-digit arithmetic.

    rho(T) comes from the mpmath exponential of the kron-form ``liouvillian``
    (whose entries are exact in double precision) applied to vec(rho0), and
    psi_perp is orthogonal to the decay-free output of the same pulse.
    """
    with mpmath.workdps(40):
        lv = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in liouvillian(ratio)])
        prop = mpmath.expm(lv * (mpmath.mpf(theta) / 2))
        x_b, x_a = (mpmath.mpc(complex(x)) for x in psi0)
        norm = mpmath.sqrt(abs(x_b) ** 2 + abs(x_a) ** 2)
        x = [x_b / norm, x_a / norm]
        rho = prop * mpmath.matrix([x[i] * mpmath.conj(x[j]) for i in range(2) for j in range(2)])
        half = mpmath.mpf(theta) / 2
        t_b = mpmath.cos(half) * x[0] - 1j * mpmath.sin(half) * x[1]
        t_a = mpmath.cos(half) * x[1] - 1j * mpmath.sin(half) * x[0]
        perp = [-mpmath.conj(t_a), mpmath.conj(t_b)]
        p = mpmath.fsum(mpmath.conj(perp[i]) * rho[2 * i + j] * perp[j]
                        for i in range(2) for j in range(2))
        return mpmath.re(p)


def first_order_coefficient(psi0: np.ndarray, theta: float) -> float:
    """Slope of p versus kappa/g_alpha at zero decay.

    In the frame co-rotating with the ideal drive the dissipator is the only
    generator, so to first order
    p = kappa * int_0^T [ <P_a(t)> - |<sigma_-(t)>|^2 ] dt with the rotated
    operators evaluated in the initial state.
    """

    def integrand(t):
        psi = ideal_state(psi0, 2 * t)  # exp(-i sigma_x t) psi0
        p_a = float(np.real(psi.conj() @ PROJ_EXCITED @ psi))
        s = psi.conj() @ SIGMA_MINUS @ psi
        return p_a - abs(s) ** 2

    value, _ = quad(integrand, 0.0, theta / 2.0, epsabs=1e-14, epsrel=1e-13)
    return value


def jc_bruteforce(psi_atom: np.ndarray, alpha: float, n_max: int, g: float,
                  duration: float) -> np.ndarray:
    """Reduced atomic state from exponentiating the full joint JC Hamiltonian.

    Basis ordering: atom index slow, Fock index fast, field dim n_max + 2 so
    the top sector cannot leak.
    """
    dim_f = n_max + 2
    lower = np.diag(np.sqrt(np.arange(1, dim_f)), 1)  # annihilation operator
    h = g * (np.kron(SIGMA_PLUS, lower) + np.kron(SIGMA_MINUS, lower.conj().T))

    n = np.arange(n_max + 1, dtype=float)
    if alpha > 0:
        logw = -alpha**2 + n * np.log(alpha**2) - np.cumsum(
            np.concatenate(([0.0], np.log(n[1:])))
        )
        w = np.exp(logw)
        w /= w.sum()
        field = np.zeros(dim_f)
        field[: n_max + 1] = np.sqrt(w)
    else:
        field = np.zeros(dim_f)
        field[0] = 1.0

    psi = np.kron(psi_atom, field.astype(complex))
    psi = expm(-1j * h * duration) @ psi
    block = psi.reshape(2, dim_f)
    return block @ block.conj().T


def jc_gate_error_mp(theta: float, psi_atom: np.ndarray, n_bar: float,
                     n_max: int) -> mpmath.mpf:
    """Single-mode gate error 1 - <target| rho(T) |target> in 40-digit arithmetic.

    The coherent field is kept on all of 0..n_max and renormalized there.  With
    g = 1, T = theta / (2 sqrt(nbar)) and c_n = sqrt(P_n), the atom state
    x_b |b> + x_a |a> leaves Fock level m holding
      b_m = cos(T sqrt(m)) c_m x_b - i sin(T sqrt(m)) c_{m-1} x_a
      a_m = cos(T sqrt(m+1)) c_m x_a - i sin(T sqrt(m+1)) c_{m+1} x_b.
    """
    with mpmath.workdps(40):
        nb = mpmath.mpf(n_bar)
        t = mpmath.mpf(theta) / (2 * mpmath.sqrt(nb))
        x_b, x_a = (mpmath.mpc(complex(x)) for x in psi_atom)
        norm = mpmath.sqrt(abs(x_b) ** 2 + abs(x_a) ** 2)
        x_b, x_a = x_b / norm, x_a / norm
        half = mpmath.mpf(theta) / 2
        t_b = mpmath.cos(half) * x_b - 1j * mpmath.sin(half) * x_a
        t_a = mpmath.cos(half) * x_a - 1j * mpmath.sin(half) * x_b

        weights = [mpmath.exp(-nb)]
        for n in range(1, n_max + 1):
            weights.append(weights[-1] * nb / n)
        total = mpmath.fsum(weights)
        # c[m + 1] = c_m for m = -1..n_max+1
        c = [0] + [mpmath.sqrt(w / total) for w in weights] + [0, 0]

        fidelity = mpmath.mpf(0)
        cos_m, sin_m = mpmath.mpf(1), mpmath.mpf(0)
        for m in range(n_max + 2):
            cos_up, sin_up = mpmath.cos(t * mpmath.sqrt(m + 1)), mpmath.sin(t * mpmath.sqrt(m + 1))
            b_m = cos_m * c[m + 1] * x_b - 1j * sin_m * c[m] * x_a
            a_m = cos_up * c[m + 1] * x_a - 1j * sin_up * c[m + 2] * x_b
            fidelity += abs(mpmath.conj(t_b) * b_m + mpmath.conj(t_a) * a_m) ** 2
            cos_m, sin_m = cos_up, sin_up
        return 1 - fidelity


def poisson_weight_mp(m: int, n_bar: float) -> mpmath.mpf:
    """Poisson pmf of mean nbar at level m, times sqrt(2 pi), in 40-digit
    arithmetic: sqrt(2 pi) exp(m log nbar - nbar - log m!)."""
    with mpmath.workdps(40):
        root = mpmath.sqrt(2 * mpmath.pi)
        if n_bar == 0:
            return root if m == 0 else mpmath.mpf(0)
        nb = mpmath.mpf(n_bar)
        return root * mpmath.exp(m * mpmath.log(nb) - nb - mpmath.loggamma(m + 1))


def density_invariants(m) -> tuple:
    """Hermiticity residue max |m - m^H|, trace, smallest eigenvalue and
    purity tr(h^2) of a 2x2 matrix ``m``, the last two of its Hermitian form
    h: the real diagonal of ``m`` and its lower-left entry, which is all
    ``eigvalsh`` reads of it.

    The residue is taken part by part, as the hypot of Re(m - m^H), whose
    diagonal is 0 whatever the real diagonal holds, and of Im(m - m^H); it
    is NaN where an entry leaves it unknown.

    The eigenvalue is ``eigvalsh``'s, of h scaled to entries of at most 1 so
    that it cannot overflow.  Where h is not finite it is the limit instead:
    -inf for a finite diagonal and an infinite coherence, NaN otherwise.
    tr(h^2) of a Hermitian h is the sum of its entries' squared moduli.
    """
    m = np.asarray(m, dtype=complex)
    h = np.diag(m.diagonal().real).astype(complex)
    h[1, 0], h[0, 1] = m[1, 0], np.conj(m[1, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        re_diff, im_diff = m.real - m.real.T, m.imag + m.imag.T
        np.fill_diagonal(re_diff, 0.0)
        residue = float(np.max(np.hypot(re_diff, im_diff)))
        if not np.isfinite(h.diagonal()).all():
            lowest = np.nan
        elif not np.isfinite(h[1, 0]):
            lowest = -np.inf if np.abs(h[1, 0]) == np.inf else np.nan
        else:
            scale = float(np.max(np.abs(h.view(float)))) or 1.0
            lowest = float(np.linalg.eigvalsh(h / scale)[0]) * scale
        return residue, float(np.trace(h).real), lowest, float(np.vdot(h, h).real)


# Each invariant of a density matrix, and when a value of it is broken: a
# NaN residue breaks the Hermiticity, and past it a comparison with NaN is
# False, so NaN breaks the purity only.
DENSITY_INVARIANTS = (
    ("Hermitian", lambda residue: not residue <= HERMITICITY_TOL),
    ("trace", lambda trace: abs(trace - 1.0) > TRACE_TOL),
    ("positive", lambda lowest: lowest < -POSITIVITY_SLACK),
    ("purity", lambda purity: not 0.5 - PURITY_SLACK <= purity <= 1.0 + PURITY_SLACK),
)


def first_broken_invariant(matrices, hermitian: bool = False):
    """(name, i): the first of ``DENSITY_INVARIANTS`` that a matrix of the
    stack breaks, and the first matrix i that breaks it; None if every
    matrix is a density matrix.  A ``hermitian`` stack is Hermitian by
    construction, as columns of populations and coherence hold it: its
    residue is not checked."""
    values = [density_invariants(m) for m in matrices]
    checks = list(enumerate(DENSITY_INVARIANTS))[1 if hermitian else 0:]
    for k, (name, broken) in checks:
        for i, invariants in enumerate(values):
            if broken(invariants[k]):
                return name, i
    return None


def near_tolerance_edge(matrices, margin: float = 1e-12) -> bool:
    """Whether an invariant of a matrix of the stack lies within ``margin``
    of a tolerance edge, where rounding may decide the verdict."""
    edges = ((HERMITICITY_TOL,), (1.0 - TRACE_TOL, 1.0 + TRACE_TOL), (-POSITIVITY_SLACK,),
             (0.5 - PURITY_SLACK, 1.0 + PURITY_SLACK))
    # the residue is the same hypot or doubled part on both sides, within an
    # ulp of each other, so its edge needs a margin relative to its size only
    margins = (margin * HERMITICITY_TOL, margin, margin, margin)
    return any(abs(value - edge) < within
               for m in matrices
               for value, at, within in zip(density_invariants(m), edges, margins)
               for edge in at)
