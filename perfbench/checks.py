"""Output checks for every `lasergate` command the benchmark runs.

The references here share no code with the package under test: first-order
coefficients come from Gauss-Legendre quadrature of the toggling-frame
integrand, trajectories are compared with a Taylor scaling-and-squaring
exponential of the 4x4 Liouvillian, and the Jaynes-Cummings error is summed
over a Poisson window with log-gamma weights.  Only numpy is used.

Each ``check_*`` takes the command's options and its output text and returns
a list of problems; an empty list means the output is correct.  Tolerances
are those of the acceptance suite where it has one, and loose enough that the
planned exact propagator and Poisson-window changes still pass.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import options

GATE_AREAS = {"pi": math.pi, "pi2": math.pi / 2.0}
START_AMPLITUDES = {
    "ground": np.array([1.0, 0.0], dtype=complex),
    "excited": np.array([0.0, 1.0], dtype=complex),
    "plus": np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
}

PI_GROUND_SLOPE = 3.0 * math.pi / 16.0           # c for a pi pulse from the ground state
JC_PI_GROUND = (0.62, 0.10)                       # single-mode p * nbar, centre and half-width

COEFFICIENT_TOL = 0.02   # acceptance suite: fitted pi-pulse photon coefficient within 2%
JC_REFERENCE_TOL = 0.02  # covers a Poisson tail of up to 1e-10 at the smallest p
PRINTED_TOL = 1e-10      # identities between printed 12-digit numbers
STATE_TOL = 1e-9         # trace and purity slack of the package's own validation
TRAJECTORY_TOL = 1e-6    # final state against the exact exponential

_SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)
_SIGMA_PLUS = _SIGMA_MINUS.conj().T
_SIGMA_X = _SIGMA_MINUS + _SIGMA_PLUS
_P_EXCITED = np.diag([0.0, 1.0]).astype(complex)
_I2 = np.eye(2, dtype=complex)


# --------------------------------------------------------------- references

def ideal_state(psi0: np.ndarray, theta: float) -> np.ndarray:
    """exp(-i theta sigma_x / 2) psi0."""
    return (math.cos(theta / 2.0) * _I2 - 1j * math.sin(theta / 2.0) * _SIGMA_X) @ psi0


def first_order_coefficient(theta: float, psi0: np.ndarray) -> float:
    """c = dp/d(kappa/g_alpha) at zero decay: the integral over scaled time
    tau in [0, theta/2] of <P_a> - |<sigma_->|^2 along the ideal rotation."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    half = theta / 4.0
    total = 0.0
    for x, w in zip(nodes, weights):
        psi = ideal_state(psi0, 2.0 * half * (x + 1.0))
        p_a = abs(psi[1]) ** 2
        s = np.vdot(psi, _SIGMA_MINUS @ psi)
        total += w * (p_a - abs(s) ** 2)
    return float(half * total)


def liouvillian(ratio: float) -> np.ndarray:
    """Generator in scaled time acting on row-major vec(rho)."""
    lv = -1j * (np.kron(_SIGMA_X, _I2) - np.kron(_I2, _SIGMA_X.T))
    lv += ratio * (np.kron(_SIGMA_MINUS, _SIGMA_PLUS.T)
                   - 0.5 * (np.kron(_P_EXCITED, _I2) + np.kron(_I2, _P_EXCITED.T)))
    return lv


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by Taylor series with scaling and squaring."""
    norm = float(np.max(np.sum(np.abs(a), axis=0)))
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    scaled = a / 2.0 ** squarings
    result = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, 20):
        term = term @ scaled / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def jc_error(theta: float, psi0: np.ndarray, n_bar: float) -> float:
    """Single-mode error p of a theta pulse, summed over nbar +- 12 sqrt(nbar)."""
    width = 12.0 * math.sqrt(n_bar)
    n_lo = max(0, math.floor(n_bar - width))
    n_hi = math.ceil(n_bar + width)
    lo = max(0, n_lo - 1)
    n = np.arange(lo, n_hi + 2)
    logw = np.array([-n_bar + k * math.log(n_bar) - math.lgamma(k + 1.0) for k in n])
    logw[(n < n_lo) | (n > n_hi)] = -np.inf
    w = np.exp(logw - logw.max())
    amp = np.sqrt(w / w.sum())
    ground, excited = psi0[0] * amp, psi0[1] * amp
    phi = (theta / (2.0 * math.sqrt(n_bar))) * np.sqrt(n[:-1] + 1.0)
    c, s = np.cos(phi), np.sin(phi)
    new_excited = np.zeros_like(excited)
    new_ground = ground.copy()
    new_excited[:-1] = c * excited[:-1] - 1j * s * ground[1:]
    new_ground[1:] = c * ground[1:] - 1j * s * excited[:-1]
    rho_bb = float(np.vdot(new_ground, new_ground).real)
    rho_aa = float(np.vdot(new_excited, new_excited).real)
    rho_ab = complex(np.sum(new_excited * np.conj(new_ground)))
    rho = np.array([[rho_bb, rho_ab.conjugate()], [rho_ab, rho_aa]])
    target = ideal_state(psi0, theta)
    orthogonal = np.array([-np.conj(target[1]), np.conj(target[0])])
    return float(np.vdot(orthogonal, rho @ orthogonal).real)


def reference_slope(gate: str, start: str) -> float:
    """c: closed form 3 pi/16 for (pi, ground), quadrature otherwise."""
    if (gate, start) == ("pi", "ground"):
        return PI_GROUND_SLOPE
    return first_order_coefficient(GATE_AREAS[gate], START_AMPLITUDES[start])


# ------------------------------------------------------------------ parsing

def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want) if want != 0 else abs(got)


def _table(lines: list[str], width: int) -> np.ndarray:
    rows = [ln.split(",") for ln in lines]
    if any(len(r) != width for r in rows):
        raise ValueError(f"expected {width} columns")
    return np.array(rows, dtype=float).reshape(-1, width)


def _footer(line: str) -> dict[str, float]:
    """Numeric ``key=value`` tokens of the sweep footer; other tokens, such as
    a ``degraded_fit`` flag, are skipped."""
    values = {}
    for key, _, value in (tok.partition("=") for tok in line.lstrip("#").split()):
        try:
            values[key] = float(value)
        except ValueError:
            pass
    return values


# ------------------------------------------------------------------- checks

def check_sweep(opts: dict[str, str], text: str) -> list[str]:
    gate, start = opts["gate"], opts["start"]
    theta = GATE_AREAS[gate]
    lines = text.splitlines()
    if not lines or lines[0] != "ratio,p":
        return ["sweep: bad header"]
    rows = [ln for ln in lines[1:] if not ln.startswith("#")]
    footers = [ln for ln in lines[1:] if ln.startswith("#")]
    if len(footers) != 1:
        return ["sweep: expected one footer line"]
    table = _table(rows, 2)
    footer = _footer(footers[0])
    problems = []
    points = int(opts["points"])
    grid = np.logspace(math.log10(float(opts["ratio_min"])),
                       math.log10(float(opts["ratio_max"])), points)
    if table.shape[0] != points or np.max(np.abs(table[:, 0] / grid - 1.0)) > PRINTED_TOL:
        problems.append("sweep: ratio grid differs from the requested one")
    c_ref = reference_slope(gate, start)
    c = footer.get("c", float("nan"))
    if not _rel(c, c_ref) <= COEFFICIENT_TOL:
        problems.append(f"sweep: c={c!r} vs reference {c_ref:.6g}")
    if not _rel(footer.get("c_prime", float("nan")), c * theta / 2.0) <= PRINTED_TOL:
        problems.append("sweep: c_prime != c * theta / 2")
    slopes = table[:, 1] / table[:, 0]
    if not np.all(np.abs(slopes / c_ref - 1.0) <= COEFFICIENT_TOL):
        problems.append("sweep: a p/ratio point strays from the first-order slope")
    return problems


def check_compare(opts: dict[str, str], text: str) -> list[str]:
    gate, start = opts["gate"], opts["start"]
    theta, psi0 = GATE_AREAS[gate], START_AMPLITUDES[start]
    lines = text.splitlines()
    if not lines or lines[0] != "model,gate,n_bar,p,p_times_n_bar":
        return ["compare: bad header"]
    n_bars = [float(tok) for tok in opts["n_bars"].split(",")]
    body = [ln.split(",") for ln in lines[1:]]
    expected_models = ["markov", "jc"] * len(n_bars)
    if [r[0] for r in body] != expected_models or any(r[1] != gate for r in body):
        return ["compare: unexpected row layout"]
    values = np.array([r[2:] for r in body], dtype=float)
    problems = []
    if np.any(np.abs(values[:, 0] / np.repeat(n_bars, 2) - 1.0) > PRINTED_TOL):
        problems.append("compare: n_bar column differs from the request")
    if np.any(np.abs(values[:, 2] / (values[:, 1] * values[:, 0]) - 1.0) > PRINTED_TOL):
        problems.append("compare: p_times_n_bar != p * n_bar")
    markov_ref = reference_slope(gate, start) * theta / 2.0  # c' = c theta / 2
    for i, n_bar in enumerate(n_bars):
        markov, jc = values[2 * i, 2], values[2 * i + 1, 2]
        if not _rel(markov, markov_ref) <= COEFFICIENT_TOL:
            problems.append(f"compare: markov p*nbar={markov!r} at {n_bar:g} vs {markov_ref:.6g}")
        jc_ref = jc_error(theta, psi0, n_bar) * n_bar
        if not _rel(jc, jc_ref) <= JC_REFERENCE_TOL:
            problems.append(f"compare: jc p*nbar={jc!r} at {n_bar:g} vs {jc_ref:.6g}")
        if (gate, start) == ("pi", "ground") and not abs(jc - JC_PI_GROUND[0]) <= JC_PI_GROUND[1]:
            problems.append(f"compare: jc p*nbar={jc!r} outside 0.62 +- 0.10")
    return problems


def check_simulate(opts: dict[str, str], text: str) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[0] != "t,rho_bb,rho_aa,re_rho_ab,im_rho_ab,purity":
        return ["simulate: bad header"]
    table = _table(lines[1:], 6)
    samples, theta = int(opts["samples"]), float(opts["theta"])
    ratio = float(opts["ratio"])
    if table.shape[0] != samples + 1:
        return [f"simulate: {table.shape[0]} rows for {samples} samples"]
    problems = []
    t, bb, aa, re_ab, im_ab, purity = table.T
    if np.max(np.abs(t - np.linspace(0.0, theta / 2.0, samples + 1))) > 1e-9 * theta:
        problems.append("simulate: time grid is not uniform over the pulse")
    if np.max(np.abs(bb + aa - 1.0)) > STATE_TOL:
        problems.append("simulate: trace differs from one")
    if np.min(purity) < 0.5 - STATE_TOL or np.max(purity) > 1.0 + STATE_TOL:
        problems.append("simulate: purity outside [1/2, 1]")
    if np.max(np.abs(purity - (bb ** 2 + aa ** 2 + 2.0 * (re_ab ** 2 + im_ab ** 2)))) > STATE_TOL:
        problems.append("simulate: purity column disagrees with the state")
    psi0 = START_AMPLITUDES[opts.get("start", "ground")]
    rho0 = np.outer(psi0, psi0.conj())
    final = (expm(liouvillian(ratio) * (theta / 2.0)) @ rho0.reshape(-1)).reshape(2, 2)
    got = np.array([bb[-1], aa[-1], re_ab[-1], im_ab[-1]])
    want = np.array([final[0, 0].real, final[1, 1].real, final[1, 0].real, final[1, 0].imag])
    if np.max(np.abs(got - want)) > TRAJECTORY_TOL:
        problems.append("simulate: final state differs from the exact exponential")
    return problems


_MARGIN_FORMS = ("margin_purity_form", "margin_rabi_form",
                 "margin_explicit_form", "margin_energy_form")


def check_budget(opts: dict[str, str], text: str) -> list[str]:
    header = "area,kappa,kappa_times_area,n_bar,p_laser,p_total"
    lines = text.splitlines()
    if header not in lines:
        return ["budget: no area-sweep table"]
    start = lines.index(header)
    scalars = {}
    for ln in lines[:start]:
        name, sep, value = ln.lstrip("# ").partition("=")
        if sep:
            try:
                scalars[name.strip()] = float(value)
            except ValueError:
                pass  # verdict lines such as photon_constraint = satisfied
    table = _table(lines[start + 1:], 6)
    problems = []
    if table.shape[0] != int(opts["area_sweep_points"]):
        problems.append("budget: area sweep has the wrong number of rows")
    margins = [scalars[name] for name in _MARGIN_FORMS]
    wavelength = scalars["wavelength_m"]
    sigma_eff = scalars["sigma_eff_m2"]
    gamma_sigma = scalars["gamma_per_s"] * sigma_eff
    if any(_rel(m, margins[0]) > PRINTED_TOL for m in margins[1:]):
        problems.append("budget: the four margin forms disagree")
    if _rel(wavelength, float(opts["wavelength"])) > PRINTED_TOL or \
            _rel(sigma_eff, 3.0 * wavelength ** 2 / (8.0 * math.pi)) > PRINTED_TOL:
        problems.append("budget: sigma_eff != 3 lambda^2 / (8 pi)")
    area, kappa, product = table[:, 0], table[:, 1], table[:, 2]
    if np.max(np.abs(kappa * area / gamma_sigma - 1.0)) > PRINTED_TOL or \
            np.max(np.abs(product / gamma_sigma - 1.0)) > PRINTED_TOL:
        problems.append("budget: kappa * A is not constant along the area sweep")
    if np.any(table[:, 5] != table[0, 5]) or np.any(np.diff(table[:, 4]) > 0):
        problems.append("budget: error columns do not follow the area sweep")
    if "raman_detuning" in opts and \
            _rel(scalars.get("raman_eliminated_coefficient", 0.0), math.pi) > PRINTED_TOL:
        problems.append("budget: raman eliminated coefficient != pi")
    return problems


CHECKS = {
    "sweep": check_sweep,
    "compare": check_compare,
    "simulate": check_simulate,
    "budget": check_budget,
}


def check_output(argv: list[str], text: str) -> list[str]:
    """Problems with one command's output; malformed output is a problem too."""
    try:
        return CHECKS[argv[0]](options(argv), text)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{argv[0]}: unparsable output ({exc})"]
