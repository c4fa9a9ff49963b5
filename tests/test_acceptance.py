"""End-to-end acceptance suite.

Each test is one release criterion checked at its stated tolerance and prints
a single PASS/FAIL verdict line (run with ``pytest -s`` to see them inline).
"""

import math
import time
from unittest import mock

import numpy as np
import pytest

from lasergate import budget, lindblad
from lasergate.budget import (
    RAMAN_ELIMINATION_COEFFICIENT,
    RESONANT_CHAIN_COEFFICIENT,
    pi_pulse_budget,
    raman_constraint,
)
from lasergate.cli import EXIT_OK, START_STATES, main
from lasergate.gates import coefficients, sweep_failure_probabilities
from lasergate.jc import jc_gate_error
from lasergate.lindblad import RK4_FIXED, evolve
from lasergate.qcore import logspace
from oracles import (
    PI_PULSE_PHOTON_COEFFICIENT, PI_PULSE_RABI_SLOPE, density_bloch, pure_bloch, sample_matrices,
)

GROUND, EXCITED = START_STATES["ground"], START_STATES["excited"]

FIRST_ORDER_PI_SLOPE = 3.0 * math.pi / 16.0  # p per unit kappa/g_alpha, pi pulse from ground


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _random_system(rng):
    """(wavelength, mode_area, dipole, field_amplitude), the arguments of
    :func:`pi_pulse_budget`, drawn log-uniformly with A >= sigma_eff."""
    wavelength = 10.0 ** rng.uniform(-7, -5)
    dipole = 10.0 ** rng.uniform(-30, -28)
    sigma_eff = 3.0 * wavelength ** 2 / (8.0 * math.pi)
    mode_area = sigma_eff * 10.0 ** rng.uniform(0, 5)
    return wavelength, mode_area, dipole, 10.0 ** rng.uniform(2, 7)


def test_pi_pulse_error_tracks_first_order():
    """Integrated excited-state deficit matches (3 pi/16) kappa/g_alpha."""
    s0 = GROUND
    worst = 0.0
    slowest = 0.0
    for ratio, tol in ((1e-3, 0.01), (1e-4, 0.002)):
        start = time.perf_counter()
        final = evolve(s0, math.pi, ratio)
        slowest = max(slowest, time.perf_counter() - start)
        deficit = (1.0 - final.z[-1]) / 2.0
        rel = abs(deficit / (FIRST_ORDER_PI_SLOPE * ratio) - 1.0)
        worst = max(worst, rel / tol)
    ok = worst <= 1.0 and slowest < 1.0
    _verdict(
        "pi-pulse first-order error",
        ok,
        f"worst deviation {worst:.2%} of budget, slowest point {slowest * 1e3:.0f} ms",
    )


def _photon_coefficients(theta: float, s0) -> tuple:
    """Closed-form c' = c theta/2 and the mean of theta/2 * p_i/r_i over the
    8-point perturbative grid 1e-5..1e-3, each p_i from the dynamics."""
    half = theta / 2.0
    ratios = logspace(-5.0, -3.0, 8)
    p = sweep_failure_probabilities(theta, s0, ratios)
    swept = sum(half * p_i / r_i for p_i, r_i in zip(p, ratios)) / len(ratios)
    return coefficients(((theta, 0.0),), s0).c_prime_markov, swept


def test_photon_coefficient_of_pi_pulse():
    """Closed-form and swept photon coefficients land on 3 pi^2/32 ~ 0.93 within 2%."""
    closed, swept = _photon_coefficients(math.pi, GROUND)
    rel = max(abs(got / PI_PULSE_PHOTON_COEFFICIENT - 1.0) for got in (closed, swept))
    _verdict(
        "pi-pulse photon coefficient",
        rel <= 0.02,
        f"c' = {closed:.4f} (closed form), {swept:.4f} (swept) vs 3 pi^2/32 ="
        f" {PI_PULSE_PHOTON_COEFFICIENT:.4f} ({rel:.2%})",
    )


def test_half_pulse_photon_coefficients():
    """Ground start ~0.04 (+-50%), excited start ~0.43 (+-15%), strictly ordered,
    in closed form and swept."""
    ground = _photon_coefficients(math.pi / 2, GROUND)
    excited = _photon_coefficients(math.pi / 2, EXCITED)
    ok = all(abs(cg / 0.04 - 1.0) <= 0.50 and abs(ce / 0.43 - 1.0) <= 0.15 and ce > cg
             for cg, ce in zip(ground, excited))
    _verdict(
        "half-pulse photon coefficients",
        ok,
        f"ground c' = {ground[0]:.4f} / {ground[1]:.4f} (target 0.04), excited c' ="
        f" {excited[0]:.4f} / {excited[1]:.4f} (target 0.43), closed form / swept",
    )


def test_all_modes_error_counts_local_photons():
    """Swapping the mode area for sigma_eff turns 0.93/nbar into 0.93/nbar'."""
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(100):
        wavelength, mode_area, dipole, amplitude = _random_system(rng)
        omega = 2.0 * math.pi * budget.C / wavelength
        gamma = omega ** 3 * dipole ** 2 / (
            3.0 * math.pi * budget.EPSILON0 * budget.HBAR * budget.C ** 3)
        rabi = dipole * amplitude / budget.HBAR
        n_bar_prime = pi_pulse_budget(wavelength, mode_area, dipole, amplitude).n_bar_prime
        p_rate_form = PI_PULSE_RABI_SLOPE * gamma / rabi
        p_photon_form = PI_PULSE_PHOTON_COEFFICIENT / n_bar_prime
        worst = max(worst, abs(p_rate_form / p_photon_form - 1.0))
    _verdict(
        "all-modes error vs local photon count",
        worst <= 1e-10,
        f"worst relative mismatch {worst:.2e} over 100 random systems",
    )


def test_constraint_chain_margins_agree():
    """Purity, Rabi, explicit, and energy forms of the minimum-energy bound
    are one constraint for a pi pulse."""
    rng = np.random.default_rng(99)
    worst = 0.0
    for _ in range(100):
        system = _random_system(rng)
        epsilon = 10.0 ** rng.uniform(-6, -1)
        margins = pi_pulse_budget(*system, epsilon=epsilon)
        base = margins.margin_purity_form
        for other in (margins.margin_rabi_form, margins.margin_explicit_form,
                      margins.margin_energy_form):
            worst = max(worst, abs(other / base - 1.0))
    _verdict(
        "minimum-energy constraint chain",
        worst <= 1e-10,
        f"worst relative margin spread {worst:.2e} over 100 random systems",
    )


def test_raman_elimination_coefficient():
    """Eliminating the detuning leaves pi * Gamma/(Omega_R^2 T) < eps; the
    factor-pi gap to the resonant chain's pi^2 is reported, not absorbed."""
    rabi, gamma = 1e9, 1e6
    beam = pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5)._replace(
        rabi_frequency_rad_per_s=rabi, gamma_per_s=gamma, epsilon=1e-4)
    report = raman_constraint(beam, 1e11)
    eliminated = RAMAN_ELIMINATION_COEFFICIENT * gamma / (rabi ** 2 * report.duration_s)
    gap = RESONANT_CHAIN_COEFFICIENT / RAMAN_ELIMINATION_COEFFICIENT
    elimination_exact = abs(eliminated / report.purity_loss - 1.0) <= 1e-12
    ok = (
        elimination_exact
        and RAMAN_ELIMINATION_COEFFICIENT == pytest.approx(math.pi, rel=1e-12)
        and gap == pytest.approx(math.pi, rel=1e-12)
        and report.satisfied  # literal Gamma/Delta = 1e-5 < 1e-4
    )
    _verdict(
        "raman detuning elimination",
        ok,
        f"coefficient {RAMAN_ELIMINATION_COEFFICIENT:.6f}, gap to resonant chain {gap:.6f}",
    )


def test_single_mode_pi_pulse_error():
    """Jaynes-Cummings cross-check: p * nbar = 0.62 +- 0.10, constant in nbar."""
    products = {}
    elapsed = {}
    for n_bar in (100, 400, 1600):
        start = time.perf_counter()
        p = jc_gate_error(math.pi, GROUND, n_bar)
        elapsed[n_bar] = time.perf_counter() - start
        products[n_bar] = p * n_bar
    spread = (max(products.values()) - min(products.values())) / products[400]
    ok = (
        abs(products[400] - 0.62) <= 0.10
        and spread <= 0.10
        and elapsed[1600] < 5.0
    )
    _verdict(
        "single-mode cross-check",
        ok,
        f"p*nbar = {products[400]:.4f} at nbar=400, spread {spread:.2%}, "
        f"nbar=1600 in {elapsed[1600] * 1e3:.0f} ms",
    )


def test_state_invariants_on_random_trajectories(monkeypatch):
    """Bulk property sweep: 1000 dissipative trajectories keep trace one,
    Hermiticity, and positivity; pure drives conserve purity; the fixed-step
    integrator converges at fourth order; budgets ignore the time unit."""
    rng = np.random.default_rng(2024)
    worst_trace = worst_herm = worst_eig = 0.0
    monkeypatch.setattr(lindblad, "RK4_STEPS", 100)
    for _ in range(1000):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        s0 = density_bloch(m / np.trace(m))
        theta = rng.uniform(0.1, 2.0 * math.pi)
        ratio = rng.uniform(0.0, 1.0)
        for mat in sample_matrices(evolve(s0, theta, ratio, 5, RK4_FIXED)):
            worst_trace = max(worst_trace, abs(np.trace(mat).real - 1.0))
            worst_herm = max(worst_herm, float(np.max(np.abs(mat - mat.conj().T))))
            half_tr = 0.5 * (mat[0, 0].real + mat[1, 1].real)
            disc = math.hypot(0.5 * (mat[0, 0].real - mat[1, 1].real), abs(mat[0, 1]))
            worst_eig = max(worst_eig, -(half_tr - disc))
    trajectories_ok = worst_trace <= 1e-9 and worst_herm <= 1e-9 and worst_eig <= 1e-8

    worst_purity = 0.0
    for _ in range(100):
        amps = rng.normal(size=2) + 1j * rng.normal(size=2)
        s0 = pure_bloch(amps / np.linalg.norm(amps))
        theta = rng.uniform(0.1, 2.0 * math.pi)
        final = sample_matrices(evolve(s0, theta, 0.0))[-1]  # the exact propagator
        worst_purity = max(worst_purity, abs(np.vdot(final, final).real - 1.0))
    purity_ok = worst_purity <= 1e-8

    s0 = pure_bloch((1.0, 0.6 + 0.2j))
    theta, ratio = 3.0 * math.pi / 2.0, 0.3

    def final_with(steps):
        monkeypatch.setattr(lindblad, "RK4_STEPS", steps)
        return sample_matrices(evolve(s0, theta, ratio, method=RK4_FIXED))[-1]

    reference = final_with(2000)
    factor = np.max(np.abs(final_with(100) - reference)) / np.max(
        np.abs(final_with(200) - reference)
    )
    order_ok = 12.0 <= factor <= 20.0

    scale = 1024.0
    codata = {"HBAR": budget.HBAR, "C": budget.C}
    scaled = {"HBAR": budget.HBAR / scale, "C": budget.C * scale}
    worst_rescale = 0.0
    for _ in range(20):
        wavelength = 10.0 ** rng.uniform(-7, -5)
        dipole = 10.0 ** rng.uniform(-30, -28)
        amplitude = 10.0 ** rng.uniform(2, 7)
        area = 10.0 ** rng.uniform(-11, -8)
        epsilon = 10.0 ** rng.uniform(-6, -1)
        outputs = []
        for constants in (codata, scaled):
            with mock.patch.multiple(budget, **constants):
                report = pi_pulse_budget(wavelength, area, dipole, amplitude, epsilon=epsilon)
            p = PI_PULSE_RABI_SLOPE * report.kappa_per_s / report.rabi_frequency_rad_per_s
            outputs.append((report.n_bar, report.n_bar_prime, report.constraint_margin, p))
        for a, b in zip(*outputs):
            worst_rescale = max(worst_rescale, abs(b / a - 1.0))
    rescale_ok = worst_rescale <= 1e-12

    ok = trajectories_ok and purity_ok and order_ok and rescale_ok
    _verdict(
        "randomized property sweep",
        ok,
        f"trace {worst_trace:.1e}, herm {worst_herm:.1e}, eig {worst_eig:.1e}, "
        f"purity {worst_purity:.1e}, rk4 factor {factor:.1f}, rescale {worst_rescale:.1e}",
    )


def test_beam_area_paradox_table(tmp_path):
    """Fixed-intensity area sweep: kappa * A pinned, laser-mode error falls,
    all-modes error indifferent to the beam area."""
    out = tmp_path / "budget.csv"
    code = main(
        [
            "budget",
            "--wavelength", "1e-6",
            "--mode_area", "1e-12",
            "--dipole", "1e-29",
            "--field_amplitude", "1e5",
            "--format", "csv",
            "--area_sweep_points", "13",
            "--out", str(out),
        ]
    )
    lines = out.read_text().splitlines()
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    table = np.array([[float(x) for x in ln.split(",")] for ln in data[1:]])
    products = table[:, 2]
    laser_errors = table[:, 4]
    total_errors = table[:, 5]
    ok = (
        code == EXIT_OK
        and data[0] == "area,kappa,kappa_times_area,n_bar,p_laser,p_total"
        and np.all(np.abs(products / products[0] - 1.0) <= 1e-12)
        and np.all(np.diff(laser_errors) < 0)
        and np.all(total_errors == total_errors[0])
    )
    _verdict(
        "beam-area paradox table",
        ok,
        f"kappa*A spread {np.max(np.abs(products / products[0] - 1.0)):.1e} "
        f"over {len(data) - 1} rows, laser-mode error monotone, total error flat",
    )
