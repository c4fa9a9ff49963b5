"""Self-tests of the benchmark: seeded inputs, output checks, tracer.

    python3 -m pytest perfbench -q
"""

import math
import re
import sys

import pytest

import checks
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))
from lasergate import cli  # noqa: E402

SEEDS = range(12)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_commands(workload):
    assert workloads.commands_for(workload, 5) == workloads.commands_for(workload, 5)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seeds_change_inputs_but_not_work_size(workload):
    lists = [workloads.commands_for(workload, seed) for seed in SEEDS]
    sizes = [workloads.work_size(commands) for commands in lists]
    assert all(size == sizes[0] for size in sizes)
    assert len({repr(commands) for commands in lists}) == len(lists)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_stay_inside_kept_keys_and_bounds(workload):
    for seed in SEEDS:
        for argv in workloads.commands_for(workload, seed):
            opts = workloads.options(argv)
            assert "rtol" not in opts and opts.get("method", "rk4_fixed") == "rk4_fixed"
            assert float(opts.get("theta", 0.0)) <= workloads.MAX_THETA
            assert 0.0 <= float(opts.get("ratio", 0.0)) <= workloads.MAX_RATIO
            if "n_bars" in opts:
                assert max(map(float, opts["n_bars"].split(","))) <= workloads.MAX_N_BAR


def _run(argv):
    rc, out, err = run.run_inprocess(cli, argv)
    assert rc == 0, err
    return out.decode()


def _scale_csv_cells(text, row, columns, factor):
    lines = text.splitlines()
    cells = lines[row].split(",")
    for column in columns:
        cells[column] = format(float(cells[column]) * factor, ".11e")
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scale_named_value(text, name, factor):
    def scale(match):
        return f"{match.group(1)}{float(match.group(2)) * factor:.11e}"
    scaled, count = re.subn(rf"(\b{name}\s*=\s*)(\S+)", scale, text, count=1)
    assert count == 1, f"{name} not in output"
    return scaled


SWEEP = ["sweep", "--gate", "pi2", "--start", "excited", "--points", "8",
         "--ratio_min", "1e-5", "--ratio_max", "1e-3"]
COMPARE = ["compare", "--gate", "pi", "--start", "ground", "--n_bars", "2000,1000"]
SIMULATE = ["simulate", "--start", "plus", "--theta", "7", "--ratio", "3",
            "--samples", "50", "--method", "rk4_fixed"]
BUDGET = ["budget", "--wavelength", "8e-7", "--mode_area", "1e-11", "--dipole", "1e-29",
          "--field_amplitude", "1e5", "--raman_detuning", "1e11", "--area_sweep_points", "50"]

CORRUPTIONS = {
    "sweep-coefficient": (SWEEP, lambda t: _scale_named_value(t, "c", 1.05)),
    "sweep-point": (SWEEP, lambda t: _scale_csv_cells(t, 3, (1,), 1.05)),
    "compare-jc": (COMPARE, lambda t: _scale_csv_cells(t, 2, (3, 4), 1.05)),
    "compare-markov": (COMPARE, lambda t: _scale_csv_cells(t, 1, (3, 4), 1.05)),
    "compare-product": (COMPARE, lambda t: _scale_csv_cells(t, 3, (4,), 1.0 + 1e-8)),
    "simulate-trace": (SIMULATE, lambda t: _scale_csv_cells(t, 20, (1,), 1.001)),
    "simulate-final-state": (SIMULATE, lambda t: _scale_csv_cells(t, 51, (4,), 1.001)),
    "simulate-purity": (SIMULATE, lambda t: t.replace("1.00000000000e+00\n", "1.00000010000e+00\n", 1)),
    "budget-margin-text": (BUDGET, lambda t: _scale_named_value(t, "margin_rabi_form", 1.0 + 1e-8)),
    "budget-margin-csv": (BUDGET + ["--format", "csv"],
                          lambda t: _scale_named_value(t, "margin_energy_form", 1.001)),
    "budget-kappa-area": (BUDGET + ["--format", "csv"],
                          lambda t: _scale_csv_cells(t, -10, (1,), 1.0 + 1e-8)),
    "budget-rows": (BUDGET, lambda t: t.rsplit("\n", 3)[0] + "\n"),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_each_check_fires_on_corrupted_output(case):
    argv, corrupt = CORRUPTIONS[case]
    good = _run(argv)
    assert checks.check_output(argv, good) == []
    bad = corrupt(good)
    assert bad != good
    assert checks.check_output(argv, bad)


def test_unparsable_output_is_a_failure():
    assert checks.check_output(SWEEP, "ratio,p\n1e-5,not-a-number\n# c=1\n")


def test_differing_output_of_an_identical_command_is_a_failure():
    verdicts = run.Verdicts([COMPARE])
    good = _run(COMPARE).encode()
    verdicts.record(0, 0, good, "")
    verdicts.record(0, 0, good.replace(b"jc", b"JC"), "")
    verdicts.record(0, 2, b"", "error: bad")
    assert (verdicts.attempted, verdicts.failed) == (3, 2)


def test_failed_share_bound_is_positive_and_grows_with_failures():
    bounds = [run.failed_share_bound(f, 30) for f in range(4)]
    z2 = run.WILSON_Z ** 2
    assert bounds[0] == pytest.approx(z2 / (30 + z2))
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_tracer_spans_counts_and_restore(monkeypatch):
    monkeypatch.setitem(tracing.TARGETS, "jc", tracing.TARGETS["jc"] + ("NoSuchWrapper.evolve",))
    originals = (cli.main, dict(cli.RUNNERS), cli.evolve)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for argv in (SWEEP, COMPARE):
            assert run.run_inprocess(cli, argv)[0] == 0
    finally:
        tracer.uninstall()
    assert (cli.main, dict(cli.RUNNERS), cli.evolve) == originals
    assert tracer.absent == ["jc.NoSuchWrapper.evolve"]
    metrics = tracer.layer_metrics(0.0)
    assert metrics["cli.calls"] == 2
    assert metrics["gates.failure_probability.calls"] == 16 + 2
    assert metrics["gates.p_unique_ratio"] == pytest.approx(10 / 18)
    assert metrics["lindblad.evolve.calls"] == 18
    assert metrics["jc.jc_gate_error.calls"] == 2
    expected_levels = sum(math.ceil(n + 10 * math.sqrt(n)) + 13 for n in (1000, 2000))
    assert metrics["jc.fock_levels"] == expected_levels
    own = tracer.self_times()
    assert min(own) >= -1e-9
    assert sum(own) == pytest.approx(sum(r[tracing.END] - r[tracing.START]
                                         for r in tracer.spans if r[tracing.PARENT] < 0))
