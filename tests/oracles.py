"""Independent reference implementations used only by the tests.

Every routine here deliberately avoids the code paths under test:

* the driven-atom master equation is solved by exponentiating its 4x4
  kron-form superoperator (scipy expm, or mpmath expm at 40 or 50 digits),
  not the Bloch generator; the fixed-step reference is a plain classical RK4
  loop on that same superoperator, not a Taylor step matrix, and its
  40-digit map is the RK4 polynomial of that superoperator;
* first-order error coefficients come from adaptive quadrature of the
  toggling-frame dissipator, not from a ratio sweep; those of a pulse
  sequence, from the failure itself: the 40-digit master equation at a tiny
  ratio, and the single-mode model evolved segment by segment over every
  Fock level of its window, not from closed-form integrals of an amplitude;
* the Jaynes-Cummings model is evolved by exponentiating the full joint
  Hamiltonian, not sector by sector, and its gate error is summed over every
  Fock level 0..n_max in 40-digit mpmath arithmetic as 1 - F, where the
  cancellation still leaves over 30 digits;
* a Poisson weight is read from mpmath's log-gamma in 40 digits, not from a
  Stirling series or a recurrence;
* whether a Bloch vector is a state is read from LAPACK's ``eigvalsh`` of
  its 2x2 density matrix, not from the vector's length.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.linalg import expm
from scipy.special import gammaln

# p nbar of a resonant pi pulse from the ground state, c'_M(pi, ground):
# c = 3 pi / 16 per unit kappa/g_alpha, times theta / 2.
PI_PULSE_PHOTON_COEFFICIENT = 3.0 * math.pi ** 2 / 32.0
# p per unit kappa/Omega_R of the same pulse, to first order: twice c, as
# Omega_R = 2 g_alpha.
PI_PULSE_RABI_SLOPE = 3.0 * math.pi / 8.0

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
SIGMA_PLUS = SIGMA_MINUS.conj().T
SIGMA_X = SIGMA_PLUS + SIGMA_MINUS
PROJ_EXCITED = SIGMA_PLUS @ SIGMA_MINUS
I2 = np.eye(2, dtype=complex)

GROUND = np.array([1, 0], dtype=complex)
EXCITED = np.array([0, 1], dtype=complex)
PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)
# the amplitudes of the CLI's named starts
STARTS = {"ground": GROUND, "excited": EXCITED, "plus": PLUS}


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


def pure_bloch(amplitudes) -> tuple:
    """The Bloch vector (x, y, z), as floats, of the pure state of the two
    ``amplitudes``: :func:`density_bloch` of the projector |psi><psi|, scaled
    to unit trace, so that a state whose |psi|^2 rounds off 1 stays on the
    surface of the ball."""
    psi = np.asarray(amplitudes, dtype=complex)
    projector = np.outer(psi, psi.conj())
    trace = float((projector[0, 0] + projector[1, 1]).real)
    return tuple(float(v) / trace for v in density_bloch(projector))


def sample_matrices(trajectory) -> np.ndarray:
    """The samples of a ``lindblad.Trajectory`` as a stack of 2x2 density
    matrices, the :func:`bloch_density` of each of its Bloch vectors."""
    return np.array([bloch_density(s) for s in zip(trajectory.x, trajectory.y, trajectory.z)])


def lowest_eigenvalue(s) -> float:
    """LAPACK's smallest eigenvalue of :func:`bloch_density` of ``s``, or NaN
    where a component is not finite and no matrix exists."""
    if not np.isfinite(s).all():
        return math.nan
    return float(np.linalg.eigvalsh(bloch_density(s))[0])


def liouvillian(ratio: float, phi: float = 0.0) -> np.ndarray:
    """4x4 generator of the driven-decaying atom in scaled time (g_alpha = 1),
    acting on row-major-vectorized rho: vec(A X B) = (A kron B^T) vec(X),
    under the drive H = e^(i phi) sigma_+ + e^(-i phi) sigma_- of phase ``phi``."""
    h = drive(phi)
    lv = -1j * (np.kron(h, I2) - np.kron(I2, h.T))
    lv += ratio * (
        np.kron(SIGMA_MINUS, SIGMA_PLUS.T)
        - 0.5 * (np.kron(PROJ_EXCITED, I2) + np.kron(I2, PROJ_EXCITED.T))
    )
    return lv


def drive(phi: float) -> np.ndarray:
    """The drive e^(i phi) sigma_+ + e^(-i phi) sigma_- of phase ``phi``; at
    phi = 0 it is sigma_x, entry for entry."""
    return np.exp(1j * phi) * SIGMA_PLUS + np.exp(-1j * phi) * SIGMA_MINUS


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


def rk4_map_mp(ratio: float, tau: float, steps: int) -> mpmath.matrix:
    """The map of ``steps`` classical RK4 steps of h = tau / steps on
    vec(rho), P(h L)^steps with P(X) = I + X + X^2/2 + X^3/6 + X^4/24 and L
    the kron-form ``liouvillian``, in 40-digit arithmetic."""
    with mpmath.workdps(40):
        lv = mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in liouvillian(ratio)])
        x = lv * (mpmath.mpf(tau) / steps)
        one = mpmath.eye(4)
        step = one + x * (one + x * (one + x * (one + x / 4) / 3) / 2)
        return step ** steps


def ideal_state(psi0: np.ndarray, theta: float) -> np.ndarray:
    u = np.cos(theta / 2) * I2 - 1j * np.sin(theta / 2) * SIGMA_X
    return u @ psi0


def failure_mp(psi0: np.ndarray, theta: float, ratio: float) -> mpmath.mpf:
    """Gate failure <psi_perp| rho(T) |psi_perp> of one theta pulse in 40-digit
    arithmetic: :func:`failure_sequence_mp` of the one segment (theta, 0)."""
    return failure_sequence_mp(psi0, ((theta, 0.0),), ratio)


def failure_sequence_mp(psi0: np.ndarray, segments, ratio: float) -> mpmath.mpf:
    """Failure <psi_perp| rho |psi_perp> after the pulse sequence ``segments``
    = ((theta, phi), ...) in 40-digit arithmetic.

    Each segment applies the mpmath exponential of the kron-form
    ``liouvillian(ratio, phi)``, its double entries taken exactly, for
    theta / 2 to vec(rho), and that of its :func:`drive` alone, the same
    entries, to the decay-free output, to which psi_perp is orthogonal.
    """
    with mpmath.workdps(40):
        x_b, x_a = (mpmath.mpc(complex(x)) for x in psi0)
        norm = mpmath.sqrt(abs(x_b) ** 2 + abs(x_a) ** 2)
        x = [x_b / norm, x_a / norm]
        rho = mpmath.matrix([x[i] * mpmath.conj(x[j]) for i in range(2) for j in range(2)])
        target = mpmath.matrix(x)
        for theta, phi in segments:
            half = mpmath.mpf(theta) / 2
            lv = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row]
                                for row in liouvillian(ratio, phi)])
            h = mpmath.matrix([[mpmath.mpc(complex(v)) for v in row] for row in drive(phi)])
            rho = mpmath.expm(lv * half) * rho
            target = mpmath.expm(-1j * h * half) * target
        perp = [-mpmath.conj(target[1]), mpmath.conj(target[0])]
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


def jc_sequence_error(psi0: np.ndarray, segments, n_bar: float) -> float:
    """Single-mode failure <psi_perp| rho_atom |psi_perp> after the pulse
    sequence ``segments`` = ((theta, phi), ...), one coherent field of real
    amplitude sqrt(nbar) serving every segment, in double precision.

    With g = 1 segment k lasts theta_k / (2 sqrt(nbar)) under
    H = e^(i phi) sigma_+ a + e^(-i phi) sigma_- a^dagger, which turns each
    sector (|b, n+1>, |a, n>) at sqrt(n+1) by its own 2x2 exponential; the
    field is kept within 12 sqrt(nbar) of nbar, its weights read from
    scipy's log-gamma and renormalized there, and psi_perp is orthogonal to
    the semiclassical output, the same sequence under the drive
    e^(i phi) sigma_+ + e^(-i phi) sigma_- of strength sqrt(nbar).  p is
    summed level by level, so no 1 - F cancels.
    """
    spread = 12.0 * math.sqrt(n_bar)
    n = np.arange(max(0, math.floor(n_bar - spread)), math.ceil(n_bar + spread) + 1)
    log_w = n * math.log(n_bar) - n_bar - gammaln(n + 1.0)
    field = np.sqrt(np.exp(log_w - log_w.max()))
    field /= np.linalg.norm(field)
    psi = np.asarray(psi0, dtype=complex) / np.linalg.norm(psi0)
    b, a = psi[0] * field, psi[1] * field
    target = psi
    # level i of b pairs with level i - 1 of a, at sqrt(n_i) = sqrt((n_i - 1) + 1)
    root = np.sqrt(n[1:])
    for theta, phi in segments:
        t = theta / (2.0 * math.sqrt(n_bar))
        cos, sin = np.cos(root * t), np.sin(root * t)
        up, down = np.exp(1j * phi), np.exp(-1j * phi)
        b[1:], a[:-1] = (cos * b[1:] - 1j * sin * down * a[:-1],
                         cos * a[:-1] - 1j * sin * up * b[1:])
        target = expm(-1j * drive(phi) * theta / 2.0) @ target
    perp = np.array([-target[1].conjugate(), target[0].conjugate()])
    return float(np.sum(np.abs(perp[0].conjugate() * b + perp[1].conjugate() * a) ** 2))


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
