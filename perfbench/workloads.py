"""Seeded workloads: each is a fixed list of `lasergate` command lines.

A workload seed only jitters grids, orders lists and picks from fixed menus;
it never changes the amount of work (point counts, sample counts, photon
grids and area-sweep lengths are constants), so runs with different seeds
are comparable.

Every key and range used here is one the planned changes keep: no
``method=rk45_adaptive`` (the default method is used by leaving the key out),
no ``rtol``, theta <= 4 pi, ratio <= 30, n_bar <= 1e6.
"""

from __future__ import annotations

import math
import random

MAX_THETA = 4.0 * math.pi
MAX_RATIO = 30.0
MAX_N_BAR = 1e6

SWEEP_POINTS = 64
SWEEP_CASES = (("pi", "ground"), ("pi", "excited"), ("pi", "plus"),
               ("pi2", "ground"), ("pi2", "excited"))

COMPARE_CASES = (("pi", "ground"), ("pi2", "ground"), ("pi2", "excited"))
# The 1-2-5 photon grid over [1e3, 1e6]; the seed orders it.  Values such as
# 3e4 are left out on purpose: jc rejects about a third of the photon numbers
# between 3e4 and 1.1e5 (its Poisson-tail estimate 1 - sum(weights) carries
# ~1e-10 of rounding), and a benchmark input must not fail.
COMPARE_N_BARS = (1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6)

SIMULATE_SAMPLES = 2000
SIMULATE_STARTS = ("ground", "excited", "plus")
# (method, decaying) per trajectory; None is the default method.  A zero
# ratio skips the decay term and costs less, so the seed may not choose it.
SIMULATE_SLOTS = ((None, False), (None, True), ("rk4_fixed", False), ("rk4_fixed", True))

AREA_SWEEP_POINTS = 20000
HBAR = 1.054571817e-34
BUDGET_FORMATS = ("text", "csv")


def _num(x: float) -> str:
    return format(x, ".6g")


def coefficient_table(rng: random.Random) -> list[list[str]]:
    """Five 64-point perturbative sweeps, one per (gate, start) case."""
    commands = []
    for gate, start in SWEEP_CASES:
        ratio_min = 1e-5 * 10.0 ** rng.uniform(0.0, 0.1)
        ratio_max = 1e-3 * 10.0 ** rng.uniform(-0.1, 0.0)
        commands.append(["sweep", "--gate", gate, "--start", start,
                         "--points", str(SWEEP_POINTS),
                         "--ratio_min", _num(ratio_min), "--ratio_max", _num(ratio_max)])
    return commands


def markov_vs_jc(rng: random.Random) -> list[list[str]]:
    """Markov against Jaynes-Cummings on a 1e3..1e6 photon grid."""
    commands = []
    for gate, start in rng.sample(COMPARE_CASES, len(COMPARE_CASES)):
        n_bars = rng.sample(COMPARE_N_BARS, len(COMPARE_N_BARS))
        commands.append(["compare", "--gate", gate, "--start", start,
                         "--n_bars", ",".join(_num(n) for n in n_bars)])
    return commands


def trajectory_report(rng: random.Random) -> list[list[str]]:
    """Four 2000-sample trajectories and two 20000-row budget reports."""
    commands = []
    for method, decaying in SIMULATE_SLOTS:
        ratio = rng.uniform(0.1, MAX_RATIO) if decaying else 0.0
        argv = ["simulate", "--start", rng.choice(SIMULATE_STARTS),
                "--theta", _num(rng.uniform(math.pi / 2.0, MAX_THETA)),
                "--ratio", _num(ratio), "--samples", str(SIMULATE_SAMPLES)]
        if method is not None:
            argv += ["--method", method]
        commands.append(argv)
    for fmt in BUDGET_FORMATS:
        dipole = 10.0 ** rng.uniform(-29.5, -28.5)
        field = 10.0 ** rng.uniform(4.0, 6.0)
        # the far-detuned check needs detuning >= 10 Omega_R, Omega_R = d E0 / hbar
        commands.append([
            "budget", "--format", fmt,
            "--wavelength", _num(10.0 ** rng.uniform(-6.5, -5.9)),
            "--mode_area", _num(10.0 ** rng.uniform(-11.5, -10.5)),
            "--dipole", _num(dipole),
            "--field_amplitude", _num(field),
            "--epsilon", _num(10.0 ** rng.uniform(-5.0, -3.0)),
            "--raman_detuning", _num(10.0 ** rng.uniform(1.5, 3.0) * dipole * field / HBAR),
            "--area_sweep_points", str(AREA_SWEEP_POINTS),
        ])
    return commands


WORKLOADS = {
    "coefficient-table": coefficient_table,
    "markov-vs-jc": markov_vs_jc,
    "trajectory-report": trajectory_report,
}


def commands_for(workload: str, seed: int) -> list[list[str]]:
    """The workload's command lines (argv after ``lasergate``) for one seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def options(argv: list[str]) -> dict[str, str]:
    """``--key value`` pairs of one command line, keyed without the dashes."""
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1, 2)}


def work_size(commands: list[list[str]]) -> dict[str, int]:
    """Amount of work a command list asks for, per unit that drives cost."""
    size = {"commands": len(commands), "sweep_points": 0, "fock_levels": 0,
            "markov_points": 0, "samples": 0, "area_rows": 0}
    for argv in commands:
        opts = options(argv)
        if argv[0] == "sweep":
            size["sweep_points"] += int(opts["points"])
        elif argv[0] == "compare":
            for n in (float(tok) for tok in opts["n_bars"].split(",")):
                size["markov_points"] += 1
                size["fock_levels"] += math.ceil(n + 10.0 * math.sqrt(n))
        elif argv[0] == "simulate":
            size["samples"] += int(opts["samples"])
        elif argv[0] == "budget":
            size["area_rows"] += int(opts["area_sweep_points"])
    return size
