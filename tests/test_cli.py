
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import lasergate
import oracles
from lasergate import budget, cli, gates, jc
from lasergate.cli import (
    EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, GATE_AREAS, MAX_ROWS, START_STATES, main,
)
from lasergate.lindblad import MAX_RATIO, MAX_THETA, evolve
from lasergate.qcore import density_columns


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def rows(payload: bytes):
    lines = payload.decode().splitlines()
    return [ln for ln in lines if ln and not ln.startswith("#")]


def comments(payload: bytes):
    return [ln for ln in payload.decode().splitlines() if ln.startswith("#")]


# a printed nan or inf, but not the letters inside a name such as "resonant"
NON_FINITE = re.compile(r"(?<![A-Za-z_])[-+]?(?:nan|inf)(?![A-Za-z_])")


def run_captured(*argv):
    """Exit code, stdout and stderr of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_stdout(*argv):
    """Exit code and stdout of one in-process run, stderr discarded."""
    code, out, _ = run_captured(*argv)
    return code, out


def assert_exits_cleanly(*argv):
    """Exit 0, 2 or 3; nothing non-finite printed on success, and nothing at
    all on stdout otherwise.  A key the command does not know fails the
    assertion: refusing every example for one bad key would let the property
    pass without testing anything.  Returns the exit code."""
    code, out, err = run_captured(*argv)
    assert "unknown key" not in err, err
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERIC)
    if code == EXIT_OK:
        assert not NON_FINITE.search(out), NON_FINITE.search(out)
    else:  # a refused or failed command prints nothing on stdout
        assert out == "", out[:200]
    return code


def report_values(payload: bytes) -> dict:
    out = {}
    for line in payload.decode().splitlines():
        if " = " in line:
            key, _, value = line.partition(" = ")
            out[key.strip()] = value.strip()
    return out


BUDGET_ARGS = [
    "budget",
    "--wavelength", "1e-6",
    "--mode_area", "1e-12",
    "--dipole", "1e-29",
    "--field_amplitude", "1e5",
]


class TestStartStates:
    def test_each_start_is_the_bloch_vector_of_its_amplitudes(self):
        # the table holds vectors, each on the unit sphere, within rounding of
        # the projector of the oracle's amplitudes of the same start
        assert START_STATES == {"ground": (0.0, 0.0, -1.0), "excited": (0.0, 0.0, 1.0),
                                "plus": (1.0, 0.0, 0.0)}
        for name, s in START_STATES.items():
            assert math.hypot(*s) == 1.0
            assert np.max(np.abs(np.subtract(s, oracles.pure_bloch(oracles.STARTS[name])))) <= 1e-15


class TestSimulate:
    def test_pi_pulse_reaches_excited(self, tmp_path):
        code, payload = run(tmp_path, "simulate", "--samples", "50")
        assert code == EXIT_OK
        data = rows(payload)
        assert data[0] == "t,rho_bb,rho_aa,re_rho_ab,im_rho_ab,purity"
        final = [float(x) for x in data[-1].split(",")]
        assert final[2] == pytest.approx(1.0, abs=1e-8)  # rho_aa
        assert final[5] == pytest.approx(1.0, abs=1e-8)  # purity

    def test_row_count_is_samples_plus_one(self, tmp_path):
        code, payload = run(tmp_path, "simulate", "--samples", "17")
        assert code == EXIT_OK
        assert len(rows(payload)) == 1 + 17 + 1  # header + samples + 1

    def test_negative_ratio_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--ratio", "-0.2")
        assert code == EXIT_CONFIG

    def test_unknown_key_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--bogus", "1")
        assert code == EXIT_CONFIG

    def test_text_format_unsupported(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--format", "text")
        assert code == EXIT_CONFIG

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run(tmp_path, "simulate", "--samples", "40", "--ratio", "1e-3", name="a.csv")
        _, second = run(tmp_path, "simulate", "--samples", "40", "--ratio", "1e-3", name="b.csv")
        assert first == second
        assert b"\r" not in first  # LF only

    @pytest.mark.parametrize("key", ["theta", "ratio"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf"])
    def test_non_finite_input_is_config_error(self, tmp_path, key, value):
        assert run(tmp_path, "simulate", f"--{key}", value)[0] == EXIT_CONFIG

    def test_decay_damps_purity(self, tmp_path):
        _, payload = run(tmp_path, "simulate", "--ratio", "0.2", "--samples", "10")
        purity = [float(line.split(",")[5]) for line in rows(payload)[1:]]
        assert purity[-1] < 1.0

    @pytest.mark.parametrize(
        "argv",
        [["--theta", "1e4", "--ratio", "30"], ["--ratio", "1e9", "--samples", "1"]],
        ids=["theta-1e4", "ratio-1e9"],
    )
    def test_many_squarings_keep_unit_trace(self, tmp_path, argv):
        code, payload = run(tmp_path, "simulate", *argv)
        assert code == EXIT_OK
        for line in rows(payload)[1:]:
            rho_bb, rho_aa = (float(x) for x in line.split(",")[1:3])
            assert abs(rho_bb + rho_aa - 1.0) <= 1e-12

    @pytest.mark.parametrize("argv", [
        [], ["--ratio", "0.3", "--start", "excited"],
        ["--start", "plus", "--theta", "11", "--ratio", "25", "--samples", "500"],
        ["--method", "rk4_fixed", "--start", "plus", "--theta", "11"],
        ["--method", "rk4_fixed", "--start", "excited", "--theta", "7", "--ratio", "3"],
        ["--start", "plus", "--theta", "0", "--samples", "5"],
        ["--start", "plus", "--ratio", "0.5", "--samples", "1"],
        ["--ratio", "1e20", "--samples", "1"],
    ], ids=["exact", "exact-decay", "exact-plus", "rk4", "rk4-decay", "theta-0", "samples-1",
            "ratio-1e20"])
    def test_csv_prints_the_trajectory_states(self, argv):
        cfg = cli._coerce("simulate", cli._overrides_from_extras(argv))
        trajectory = evolve(START_STATES[cfg["start"]], cfg["theta"], cfg["ratio"],
                            cfg["samples"], cfg["method"])
        want = ["t,rho_bb,rho_aa,re_rho_ab,im_rho_ab,purity"]
        columns = density_columns(trajectory.x, trajectory.y, trajectory.z)
        for values in zip(trajectory.times, *columns):
            want.append(",".join(map(cli._fmt, values)))
        assert run_stdout("simulate", *argv) == (EXIT_OK, "\n".join(want) + "\n")

    # sha256 of stdout for the five CI simulate commands, the README example
    # and a strongly damped plus start whose x underflows to zero: a byte
    # moved in any printed column fails
    @pytest.mark.parametrize("argv,digest", [
        ("--start plus --theta 11 --ratio 25 --samples 500",
         "2a363559c6f011a711970aec31c5d18793301e6101adf0bcc2c4b8e6d1624b99"),
        ("--method rk4_fixed --start excited --theta 7 --ratio 3 --samples 300",
         "8d2b3c908dab2dd83328c58b329f5c5e7f1ce8029ee223e0dbd5f1e786e20209"),
        ("--start plus --theta 0 --samples 5",
         "b4c97947ed39a5b786af88be604d6691349cef587a323fbef28ebd308537fd44"),
        ("--start plus --theta -0 --samples 5",
         "b4c97947ed39a5b786af88be604d6691349cef587a323fbef28ebd308537fd44"),
        ("--ratio 1e20 --samples 1",
         "8c329f3e8cd01d3f33717dd558586e4833cfd2d30b8d933ca12bfac27ef82eba"),
        ("--theta 3.141592653589793 --ratio 1e-3 --samples 200",
         "cf8f83a7ba9a68a3efaacb4e4c047f88a05f26458c79ee3b8cc4927a1976c228"),
        ("--method rk4_fixed --start plus --ratio 8 --theta 5 --samples 7",
         "7322ea989e71edb54070e6e26e345a85ee4027df83d56f3d7bf46c821a1a7b86"),
        ("--start plus --ratio 1e3 --samples 50",
         "28daebb38930d0a8f150aa9b56fa4f63e1eb0fa823d2332e9010df8d6c5cb8a1"),
    ], ids=["plus-decay", "rk4-excited", "theta-0", "theta-minus-0", "ratio-1e20", "readme",
            "rk4-exceptional-point", "plus-damped"])
    def test_csv_is_pinned_byte_for_byte(self, argv, digest):
        code, out = run_stdout("simulate", *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_rk4_divergence_is_numeric_error(self, tmp_path):
        code, _ = run(tmp_path, "simulate", "--method", "rk4_fixed", "--ratio", "30",
                      "--theta", "1e4", "--samples", "1")
        assert code == EXIT_NUMERIC

    @pytest.mark.parametrize(
        "argv",
        [["--theta", "1e5", "--ratio", "30"], ["--theta", "1e6", "--ratio", "30"],
         ["--theta", "1e11"], ["--theta", "1e12"],
         ["--ratio", "1e6", "--theta", "1e6", "--samples", "1"],
         ["--theta", "10000.000000000002"]],
        ids=["theta-1e5", "theta-1e6", "theta-1e11", "theta-1e12", "ratio-theta-1e6",
             "theta-above-1e4"],
    )
    def test_pulse_longer_than_max_theta_is_config_error(self, tmp_path, capsys, argv):
        # refused before any work: past MAX_THETA the rounding of the rotation
        # angle would reach the printed digits
        code, payload = run(tmp_path, "simulate", *argv)
        assert code == EXIT_CONFIG and payload == b""
        assert "error: theta must be in [0, 10000], got " in capsys.readouterr().err

    def test_unknown_start_is_config_error(self, tmp_path):
        assert run(tmp_path, "simulate", "--start", "sideways")[0] == EXIT_CONFIG

    # evolve refuses samples, then method, before it reads the start vector or theta.
    # The rows after those are each command's config refusals, one error line each.
    @pytest.mark.parametrize("argv,message", [
        (["simulate", "--method", "bogus"], "unknown integrator method 'bogus'"),
        (["simulate", "--samples", "0"], "samples must be >= 1"),
        (["simulate", "--samples", "0", "--method", "rk4_fixed"], "samples must be >= 1"),
        (["simulate", "--method", "bogus", "--ratio", "-1"], "unknown integrator method 'bogus'"),
        # the start state is resolved before evolve is called
        (["simulate", "--samples", "0", "--start", "bogus"],
         "unknown start state 'bogus'; choose from ['excited', 'ground', 'plus']"),
        (["simulate", "--samples", "-1"], "invalid value for 'samples': '-1' (must be >= 0)"),
        (["sweep", "--points", "-1"], "invalid value for 'points': '-1' (must be >= 0)"),
        ([*BUDGET_ARGS, "--area_sweep_points", "-1"],
         "invalid value for 'area_sweep_points': '-1' (must be >= 0)"),
        # each input has one spelling, --<key> <value>: a config file, a
        # --key=value token, a dashed key and a retired key are each refused
        (["simulate", "--config", "x.cfg"], "unknown key 'config' for command 'simulate'"),
        (["simulate", "--theta=1"], "option '--theta=1' is missing a value"),
        (["simulate", "--theta=1", "--samples", "3"], "option '--theta=1' is missing a value"),
        (["sweep", "--ratio-min", "1e-4"], "unknown key 'ratio-min' for command 'sweep'"),
        ([*BUDGET_ARGS, "--area_sweep_max_factor", "10"],
         "unknown key 'area_sweep_max_factor' for command 'budget'"),
        (["simulate", "--method", "rk4_fixed", "--step_count", "50"],
         "unknown key 'step_count' for command 'simulate'"),
        # an empty path names no file: it is refused, not read as stdout
        (["sweep", "--out", ""], "cannot write '': [Errno 2] No such file or directory: ''"),
        ([*BUDGET_ARGS, "--format", "xml"], "budget format must be text or csv, got 'xml'"),
        (["simulate", "--samples"], "option '--samples' is missing a value"),
        # a token that starts with "--" is the next option, never a value
        (["sweep", "--points", "8", "--out", "--gate"], "option '--out' is missing a value"),
        (["simulate", "--ratio", "--theta", "1"], "option '--ratio' is missing a value"),
        (["simulate", "--ratio", "--"], "option '--ratio' is missing a value"),
        # each sweep end is refused as typed, before logspace could round it
        (["sweep", "--ratio_max", "1.7976931348623157e308"],
         "ratio 1.7976931348623157e+308 exceeds the perturbative bound 0.01"),
        (["sweep", "--ratio_max", "0.010000000000000002"],
         "ratio 0.010000000000000002 exceeds the perturbative bound 0.01"),
        (["sweep", "--ratio_min", "2.225073858507201e-308"],
         "ratio 2.225073858507201e-308 is below the least sweep ratio 1e-300"),
        (["sweep", "--ratio_min", "9.999999999999999e-301"],
         "ratio 9.999999999999999e-301 is below the least sweep ratio 1e-300"),
        # logspace would round this end below the normal doubles: it is named as typed
        (["sweep", "--ratio_min", "2.2250738585072014e-308"],
         "ratio 2.2250738585072014e-308 is below the least sweep ratio 1e-300"),
        (["sweep", "--ratio_min", "1e-3"],
         "sweep ratios must be strictly increasing, got 0.001 then 0.001"),
        (["sweep", "--ratio_min", "nan"],
         "sweep ratios must be strictly increasing, got nan then 0.001"),
        (["sweep", "--ratio_min", "-inf", "--ratio_max", "inf"],
         "ratio -inf is below the least sweep ratio 1e-300"),
        # rk4_fixed's N^2 would be inf at this ratio, a map of NaNs for a stable step
        (["simulate", "--method", "rk4_fixed", "--theta", "1e-300", "--ratio", "1e200",
          "--samples", "1"], "kappa/g_alpha must be in [0, 1e+150], got 1e+200"),
    ], ids=["method", "samples", "samples-first", "method-before-ratio", "start-before-samples",
            "negative-samples", "negative-points", "negative-area-sweep-points", "config-file",
            "equals-spelling", "equals-spelling-takes-the-next-token", "dashed-key",
            "area-sweep-max-factor", "step-count-is-unknown", "empty-out",
            "budget-format",
            "option-without-value", "out-before-an-option", "value-before-an-option",
            "value-is-a-bare-double-dash", "ratio-max-is-named", "ratio-max-past-the-bound",
            "ratio-min-subnormal", "ratio-min-past-the-least", "ratio-min-smallest-normal",
            "equal-ratio-ends", "nan-ratio-min", "infinite-ratio-ends",
            "rk4-ratio-past-the-greatest"])
    def test_solver_refusals_keep_message_and_order(self, argv, message, tmp_path, monkeypatch):
        # run in an empty directory: a refusal writes no file either
        monkeypatch.chdir(tmp_path)
        assert run_captured(*argv) == (EXIT_CONFIG, "", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    @given(theta=st.floats(0.0, 1e13), ratio=st.floats(0.0, 1e308), samples=st.integers(1, 50),
           method=st.sampled_from(["exact", "rk4_fixed"]),
           start=st.sampled_from(sorted(START_STATES)))
    @settings(max_examples=60, deadline=None)
    def test_any_pulse_exits_cleanly_and_prints_finite_numbers(self, theta, ratio, samples,
                                                               method, start):
        assert_exits_cleanly("simulate", "--theta", repr(theta), "--ratio", repr(ratio),
                             "--samples", str(samples), "--method", method, "--start", start)

    # any double, a NaN and the infinities among them, then inside each range,
    # then at and just past each greatest and where one segment's map overflowed
    @given(theta=st.one_of(st.floats(), st.floats(0.0, MAX_THETA),
                           st.sampled_from([MAX_THETA, math.nextafter(MAX_THETA, math.inf)])),
           ratio=st.one_of(st.floats(), st.floats(0.0, MAX_RATIO),
                           st.sampled_from([MAX_RATIO, math.nextafter(MAX_RATIO, math.inf),
                                            3.6e304, 1.7e308])),
           start=st.sampled_from(sorted(START_STATES)))
    @settings(max_examples=100, deadline=None)
    def test_exact_pulse_never_fails_and_samples_do_not_decide(self, theta, ratio, start):
        argv = ("simulate", "--theta", repr(theta), "--ratio", repr(ratio), "--start", start)
        codes = {assert_exits_cleanly(*argv, "--samples", str(n)) for n in (1, 200)}
        in_range = 0 <= theta <= MAX_THETA and 0 <= ratio <= MAX_RATIO
        assert codes == {EXIT_OK if in_range else EXIT_CONFIG}


class TestSweep:
    def test_pi_from_ground_footer(self, tmp_path):
        code, payload = run(tmp_path, "sweep")
        assert code == EXIT_OK
        data = rows(payload)
        assert data[0] == "ratio,p"
        assert len(data) == 1 + 8
        footer = comments(payload)[-1]
        fields = dict(tok.split("=") for tok in footer[2:].split())
        assert float(fields["c_prime"]) == pytest.approx(0.93, rel=0.02)
        assert float(fields["residual"]) <= 1e-3 * float(fields["c"])

    def test_half_pulse_from_excited_footer(self, tmp_path):
        code, payload = run(
            tmp_path, "sweep", "--gate", "pi2", "--start", "excited", "--points", "6"
        )
        assert code == EXIT_OK
        footer = comments(payload)[-1]
        fields = dict(tok.split("=") for tok in footer[2:].split())
        assert float(fields["c_prime"]) == pytest.approx(0.43, rel=0.15)

    def test_empty_grid_is_config_error(self, tmp_path):
        code, _ = run(tmp_path, "sweep", "--points", "0")
        assert code == EXIT_CONFIG

    def test_bad_bounds_are_config_errors(self, tmp_path):
        assert run(tmp_path, "sweep", "--ratio_min", "1e-2", "--ratio_max", "1e-3")[0] == EXIT_CONFIG
        assert run(tmp_path, "sweep", "--ratio_max", "0.5")[0] == EXIT_CONFIG  # non-perturbative

    def test_unknown_gate_rejected(self, tmp_path):
        assert run(tmp_path, "sweep", "--gate", "cnot")[0] == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["--points", "20000", "--ratio_max", "1"], ["--points", "3"],
    ], ids=["non-perturbative", "too-few"])
    def test_refused_grid_propagates_nothing(self, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(gates, "_propagator", lambda *args: calls.append(args))
        code, _, err = run_captured("sweep", *argv)
        assert code == EXIT_CONFIG and err.startswith("error: ")
        assert calls == []

    # the gate and start are resolved, then the ends read as typed, then the
    # point count, all before any grid arithmetic
    @pytest.mark.parametrize("argv,message", [
        (["--points", "3"], "need at least 4 sweep ratios, got 3"),
        (["--points", "0"], "need at least 4 sweep ratios, got 0"),
        (["--gate", "cnot"], "unknown gate 'cnot'; choose from ['pi', 'pi2']"),
        (["--start", "sideways"],
         "unknown start state 'sideways'; choose from ['excited', 'ground', 'plus']"),
        (["--gate", "cnot", "--ratio_min", "nan", "--points", "3"],
         "unknown gate 'cnot'; choose from ['pi', 'pi2']"),
        (["--ratio_min", "1e-2", "--points", "3"],
         "sweep ratios must be strictly increasing, got 0.01 then 0.001"),
    ], ids=["three-points", "no-points", "gate", "start", "gate-first", "ends-before-points"])
    def test_refused_inputs_form_no_grid(self, monkeypatch, argv, message):
        def no_grid(*args):
            raise AssertionError("sweep grid formed for a refused input")

        monkeypatch.setattr(gates, "logspace", no_grid)
        assert run_captured("sweep", *argv) == (EXIT_CONFIG, "", f"error: {message}\n")

    def test_subnormal_ratios_are_refused(self, monkeypatch):
        # below the smallest normal double a ratio, and p = c r with it, keeps
        # too few digits to print 12 of them; the least sweep ratio 1e-300 is
        # far above it
        calls = []
        monkeypatch.setattr(gates, "_propagator", lambda *args: calls.append(args))
        code, out, err = run_captured("sweep", "--ratio_min", "1e-320", "--ratio_max", "1e-312")
        assert (code, out, calls) == (EXIT_CONFIG, "", [])
        assert err == "error: ratio 1e-320 is below the least sweep ratio 1e-300\n"

    def test_non_finite_input_is_config_error(self, tmp_path):
        assert run(tmp_path, "sweep", "--ratio_min", "nan")[0] == EXIT_CONFIG
        assert run(tmp_path, "sweep", "--ratio_max", "inf")[0] == EXIT_CONFIG

    @given(gate=st.sampled_from(sorted(GATE_AREAS)), start=st.sampled_from(sorted(START_STATES)),
           ratio_min=st.floats(0.0, 1e308), ratio_max=st.floats(0.0, 1e308),
           points=st.integers(0, 12))
    @settings(max_examples=40, deadline=None)
    def test_any_grid_exits_cleanly(self, gate, start, ratio_min, ratio_max, points):
        assert_exits_cleanly("sweep", "--gate", gate, "--start", start,
                             "--ratio_min", repr(ratio_min), "--ratio_max", repr(ratio_max),
                             "--points", str(points))

    def test_fit_matches_printed_probabilities(self, tmp_path):
        # c is the closed form, not a slope of the rows; residual is the RMS
        # spread of the printed p/ratio around it
        _, payload = run(tmp_path, "sweep", "--points", "16")
        table = np.array([[float(x) for x in line.split(",")] for line in rows(payload)[1:]])
        footer = comments(payload)[-1]
        fields = dict(tok.split("=") for tok in footer[2:].split())
        ratios, p = table.T
        c = float(fields["c"])
        assert c == pytest.approx(3 * math.pi / 16, rel=1e-12)
        assert float(fields["residual"]) == pytest.approx(
            np.sqrt(np.mean((p / ratios - c) ** 2)), rel=1e-6)

    # sha256 of stdout for the three CI coefficient sweeps and its two 64-point
    # sweeps, the plus start's among them: a byte moved in any printed p, or
    # in the footer, fails
    @pytest.mark.parametrize("argv,digest", [
        ("--gate pi --start ground",
         "02f54fb7112b07e73fb46329681a8fbf15a900d81ef2676efcde5d08f56f52f8"),
        ("--gate pi2 --start ground",
         "a1fc5d6549204316064cbf43af504ca717554b259ab453d701b1cdb5a3ccff39"),
        ("--gate pi2 --start excited",
         "990fea0caec47b6c04800920f30b0d4f1df340a3e014ea8b0d8008c70068169b"),
        ("--gate pi2 --start excited --points 64",
         "04e2c3b3048cfd23fd61814bdd2c0cb9a180fa5fe173aceb77534f4108205222"),
        ("--gate pi --start plus --points 64",
         "53a6ec574a425fe5c22d97ea5481caabc142f4bd6c21b0279bf3ab50e94530dd"),
    ], ids=["c-pi-ground", "c-pi2-ground", "c-pi2-excited", "pi2-excited-64", "pi-plus-64"])
    def test_csv_is_pinned_byte_for_byte(self, argv, digest):
        code, out = run_stdout("sweep", *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("gate, start", [("pi", "ground"), ("pi", "excited"), ("pi", "plus"),
                                             ("pi2", "ground"), ("pi2", "excited")])
    def test_footer_prints_the_quadrature_coefficient(self, gate, start):
        # every printed digit of c and c' = c theta / 2 against an independent quadrature
        code, out = run_stdout("sweep", "--gate", gate, "--start", start)
        fields = dict(tok.split("=") for tok in out.splitlines()[-1][2:].split())
        theta = GATE_AREAS[gate]
        c = oracles.first_order_coefficient(oracles.STARTS[start], theta)
        assert code == EXIT_OK
        assert (fields["c"], fields["c_prime"]) == (f"{c:.11e}", f"{c * theta / 2:.11e}")


# `budget --wavelength 1e-6 --mode_area 1e-12 --dipole 1e-29 --field_amplitude 1e5
# --epsilon 1e-4 --raman_detuning 1e12`, as text and as csv
README_BUDGET_TEXT = """\
laser pulse budget (SI base units)

wavelength_m                   = 1.00000000000e-06
mode_area_m2                   = 1.00000000000e-12
omega_rad_per_s                = 1.88365156731e+15
sigma_eff_m2                   = 1.19366207319e-13
gamma_per_s                    = 2.81866580598e+06
kappa_per_s                    = 3.36453446959e+05
rabi_frequency_rad_per_s       = 9.48252156828e+09
intensity_W_per_m2             = 1.32720936400e+07
power_W                        = 1.32720936400e-05
duration_s                     = 3.31303507297e-10
epsilon                        = 1.00000000000e-04
n_bar                          = 2.21354695320e+04
n_bar_prime                    = 2.64222704526e+03
required_n_bar_prime           = 2.46740110027e+04
energy_in_volume_J             = 5.24864096448e-16
energy_threshold_J             = 4.90135869056e-15
constraint_margin              = 1.07085428671e-01
margin_purity_form             = 1.07085428671e-01
margin_rabi_form               = 1.07085428671e-01
margin_explicit_form           = 1.07085428671e-01
margin_energy_form             = 1.07085428671e-01
min_energy_per_lambda3_J       = 1.67551608191e-19
photon_constraint              = violated

raman_detuning_rad_per_s       = 1.00000000000e+12
raman_effective_rabi_rad_per_s = 8.99182152928e+07
raman_duration_s               = 3.49383341669e-08
raman_purity_loss              = 2.81866580598e-06
raman_margin                   = 3.54777780991e+01
raman_eliminated_coefficient   = 3.14159265359e+00
raman_constraint               = satisfied

fixed-intensity area sweep (kappa * A = Gamma * sigma_eff):
area,kappa,kappa_times_area,n_bar,p_laser,p_total
1.19366207319e-13,2.81866580598e+06,3.36453446959e-07,2.64222704526e+03,3.50187700282e-04,3.50187700282e-04
1.19366207319e-12,2.81866580598e+05,3.36453446959e-07,2.64222704526e+04,3.50187700282e-05,3.50187700282e-04
1.19366207319e-11,2.81866580598e+04,3.36453446959e-07,2.64222704526e+05,3.50187700282e-06,3.50187700282e-04
1.19366207319e-10,2.81866580598e+03,3.36453446959e-07,2.64222704526e+06,3.50187700282e-07,3.50187700282e-04
1.19366207319e-09,2.81866580598e+02,3.36453446959e-07,2.64222704526e+07,3.50187700282e-08,3.50187700282e-04
1.19366207319e-08,2.81866580598e+01,3.36453446959e-07,2.64222704526e+08,3.50187700282e-09,3.50187700282e-04
1.19366207319e-07,2.81866580598e+00,3.36453446959e-07,2.64222704526e+09,3.50187700282e-10,3.50187700282e-04
"""

README_BUDGET_CSV = """\
# wavelength_m=1.00000000000e-06
# mode_area_m2=1.00000000000e-12
# omega_rad_per_s=1.88365156731e+15
# sigma_eff_m2=1.19366207319e-13
# gamma_per_s=2.81866580598e+06
# kappa_per_s=3.36453446959e+05
# rabi_frequency_rad_per_s=9.48252156828e+09
# intensity_W_per_m2=1.32720936400e+07
# power_W=1.32720936400e-05
# duration_s=3.31303507297e-10
# epsilon=1.00000000000e-04
# n_bar=2.21354695320e+04
# n_bar_prime=2.64222704526e+03
# required_n_bar_prime=2.46740110027e+04
# energy_in_volume_J=5.24864096448e-16
# energy_threshold_J=4.90135869056e-15
# constraint_margin=1.07085428671e-01
# margin_purity_form=1.07085428671e-01
# margin_rabi_form=1.07085428671e-01
# margin_explicit_form=1.07085428671e-01
# margin_energy_form=1.07085428671e-01
# min_energy_per_lambda3_J=1.67551608191e-19
# photon_constraint=violated
# raman_detuning_rad_per_s=1.00000000000e+12
# raman_effective_rabi_rad_per_s=8.99182152928e+07
# raman_duration_s=3.49383341669e-08
# raman_purity_loss=2.81866580598e-06
# raman_margin=3.54777780991e+01
# raman_eliminated_coefficient=3.14159265359e+00
# raman_constraint=satisfied
area,kappa,kappa_times_area,n_bar,p_laser,p_total
1.19366207319e-13,2.81866580598e+06,3.36453446959e-07,2.64222704526e+03,3.50187700282e-04,3.50187700282e-04
1.19366207319e-12,2.81866580598e+05,3.36453446959e-07,2.64222704526e+04,3.50187700282e-05,3.50187700282e-04
1.19366207319e-11,2.81866580598e+04,3.36453446959e-07,2.64222704526e+05,3.50187700282e-06,3.50187700282e-04
1.19366207319e-10,2.81866580598e+03,3.36453446959e-07,2.64222704526e+06,3.50187700282e-07,3.50187700282e-04
1.19366207319e-09,2.81866580598e+02,3.36453446959e-07,2.64222704526e+07,3.50187700282e-08,3.50187700282e-04
1.19366207319e-08,2.81866580598e+01,3.36453446959e-07,2.64222704526e+08,3.50187700282e-09,3.50187700282e-04
1.19366207319e-07,2.81866580598e+00,3.36453446959e-07,2.64222704526e+09,3.50187700282e-10,3.50187700282e-04
"""


def _field_lines(record, prefix=""):
    return [(prefix + name, cli._fmt(value)) for name, value in zip(record._fields, record)]


def _printed_lines(out: str, fmt: str):
    """The (name, value) pairs of a budget report's scalar and verdict lines,
    in print order, and its area-sweep header."""
    if fmt == "csv":
        lines = out.splitlines()
        count = sum(1 for line in lines if line.startswith("# "))
        pairs = [line[2:].partition("=") for line in lines[:count]]
        return [(name, value) for name, _, value in pairs], lines[count]
    head, _, table = out.partition("\nfixed-intensity area sweep")
    pairs = [line.partition(" = ") for line in head.splitlines()[1:] if line]
    return [(name.rstrip(), value) for name, _, value in pairs], table.splitlines()[1]


class TestBudget:
    def test_text_report_contents(self, tmp_path):
        code, payload = run(tmp_path, *BUDGET_ARGS, name="report.txt")
        assert code == EXIT_OK
        text = payload.decode()
        values = report_values(payload)
        for key in ("gamma_per_s", "kappa_per_s", "sigma_eff_m2", "n_bar", "n_bar_prime"):
            assert key in values
        assert values["required_n_bar_prime"] == "2.46740110027e+04"
        assert values["photon_constraint"] in ("satisfied", "violated")
        assert "area,kappa,kappa_times_area,n_bar,p_laser,p_total" in text

    def test_csv_area_sweep_columns(self, tmp_path):
        code, payload = run(tmp_path, *BUDGET_ARGS, "--format", "csv", "--area_sweep_points", "9")
        assert code == EXIT_OK
        data = rows(payload)
        assert data[0] == "area,kappa,kappa_times_area,n_bar,p_laser,p_total"
        table = np.array([[float(x) for x in line.split(",")] for line in data[1:]])
        assert table.shape[0] == 9
        # kappa * A pinned to Gamma * sigma_eff along the whole sweep
        assert np.allclose(table[:, 2], table[0, 2], rtol=1e-12)
        # laser-mode error falls monotonically, total error never moves
        assert np.all(np.diff(table[:, 4]) < 0)
        assert np.allclose(table[:, 5], table[0, 5], rtol=1e-12)

    def test_matched_area_row_has_equal_photon_counts(self, tmp_path):
        _, payload = run(tmp_path, *BUDGET_ARGS, "--format", "csv")
        scalars = dict(
            line[2:].split("=") for line in comments(payload) if "=" in line
        )
        first = rows(payload)[1].split(",")
        # first sweep row sits at A = sigma_eff, where n_bar equals n_bar_prime
        assert float(first[0]) == pytest.approx(float(scalars["sigma_eff_m2"]), rel=1e-12)
        assert float(first[3]) == pytest.approx(float(scalars["n_bar_prime"]), rel=1e-12)

    def test_missing_required_key(self, tmp_path):
        code, _ = run(tmp_path, "budget", "--wavelength", "1e-6")
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("wavelength", ["0", "-1e-6"])
    def test_non_positive_wavelength_is_config_error(self, wavelength):
        # refused before omega = 2 pi c / wavelength is formed
        code, out, err = run_captured(*BUDGET_ARGS, "--wavelength", wavelength)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: wavelength must be in (1e-11, 1], got {float(wavelength)}\n"

    # each row's inputs would drive the value it is named after out of the
    # double range; each is refused as an input outside budget.INPUT_BOX.
    # The Raman rows keep the beam inside its box, the weakest drive and the
    # slowest decay it allows, so the detuning is their one bad input.
    @pytest.mark.parametrize("argv,message", [
        (["--mode_area", "1e305"], "mode_area must be in (0, 10000], got 1e+305"),
        (["--dipole", "1e-39", "--field_amplitude", "1e-5", "--raman_detuning", "1e300",
          "--area_sweep_points", "2"], "detuning must be in (0, 1e+18], got 1e+300"),
        (["--dipole", "1e-39", "--raman_detuning", "1e300", "--area_sweep_points", "2"],
         "detuning must be in (0, 1e+18], got 1e+300"),
        (["--epsilon", "5e-324"], "epsilon must be in (1e-15, 0.5], got 5e-324"),
        (["--wavelength", "1.0750616545333907e-86", "--mode_area", "1327378610534.6772",
          "--dipole", "7.118342115769625e-06", "--field_amplitude", "1.276259350320446e-42",
          "--epsilon", "2.3576311535107314e-20", "--area_sweep_points", "2"],
         "wavelength must be in (1e-11, 1], got 1.0750616545333907e-86"),
    ], ids=["power", "raman-duration", "raman-purity-loss", "energy-floor",
            "margin-underflows"])
    def test_value_out_of_range_is_named(self, argv, message):
        code, out, err = run_captured(*BUDGET_ARGS, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {message}\n"

    def test_raman_block(self, tmp_path):
        code, payload = run(tmp_path, *BUDGET_ARGS, "--raman_detuning", "1e11", name="r.txt")
        assert code == EXIT_OK
        values = report_values(payload)
        assert values["raman_eliminated_coefficient"] == "3.14159265359e+00"
        # the coefficients that no input moves are module constants, not report lines
        assert "resonant_chain_coefficient" not in values
        assert "raman_coefficient_gap" not in values
        assert values["raman_constraint"] in ("satisfied", "violated")

    def test_raman_detuning_too_small(self, tmp_path):
        # Omega_R ~ 9.5e9 here, so a 1e10 detuning is not far-detuned
        code, _ = run(tmp_path, *BUDGET_ARGS, "--raman_detuning", "1e10")
        assert code == EXIT_CONFIG

    def test_raman_detuning_is_refused_before_the_sweep(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("area sweep computed for a refused Raman detuning")

        monkeypatch.setattr(budget, "fixed_intensity_area_sweep", no_work)
        code, out, err = run_captured(*BUDGET_ARGS, "--raman_detuning", "-1",
                                      "--area_sweep_points", "1000000")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: detuning must be in (0, 1e+18], got -1.0\n"

    # each key just outside one end of its range, the others inside theirs
    @pytest.mark.parametrize("key,value,message", [
        ("wavelength", "1e-11", "wavelength must be in (1e-11, 1], got 1e-11"),
        ("wavelength", "1.0000000000000002",
         "wavelength must be in (1e-11, 1], got 1.0000000000000002"),
        ("mode_area", "0", "mode_area must be in (0, 10000], got 0.0"),
        ("mode_area", "10000.000000000002",
         "mode_area must be in (0, 10000], got 10000.000000000002"),
        ("dipole", "1e-40", "dipole must be in (1e-40, 1e-24], got 1e-40"),
        ("dipole", "1.0000000000000001e-24",
         "dipole must be in (1e-40, 1e-24], got 1.0000000000000001e-24"),
        ("field_amplitude", "1e-6", "field_amplitude must be in (1e-06, 1e+12], got 1e-06"),
        ("field_amplitude", "1000000000000.0001",
         "field_amplitude must be in (1e-06, 1e+12], got 1000000000000.0001"),
        ("epsilon", "1e-15", "epsilon must be in (1e-15, 0.5], got 1e-15"),
        ("epsilon", "0.5000000000000001", "epsilon must be in (1e-15, 0.5], got 0.5000000000000001"),
        ("raman_detuning", "0", "detuning must be in (0, 1e+18], got 0.0"),
        ("raman_detuning", "1.0000000000000001e18",
         "detuning must be in (0, 1e+18], got 1.0000000000000001e+18"),
        ("area_sweep_points", "1", "area_sweep_points must be >= 2"),
    ])
    def test_each_input_alone_outside_its_box_is_named(self, monkeypatch, key, value, message):
        # no refused input reaches the area sweep's grid
        def no_grid(*args):
            raise AssertionError("area sweep grid formed for a refused input")

        monkeypatch.setattr(budget, "logspace", no_grid)
        code, out, err = run_captured(*BUDGET_ARGS, "--raman_detuning", "1e12", f"--{key}", value)
        assert (code, out, err) == (EXIT_CONFIG, "", f"error: {message}\n")

    # duration is no budget key: the pulse is a pi pulse, T = pi / Omega_R
    @pytest.mark.parametrize("key,value", [("wavelength", "nan"), ("epsilon", "inf"),
                                           ("duration", "-inf"), ("raman_detuning", "-inf")])
    def test_non_finite_input_is_config_error(self, tmp_path, key, value):
        assert run(tmp_path, *BUDGET_ARGS, f"--{key}", value)[0] == EXIT_CONFIG

    @given(wavelength=st.floats(1e-12, 1.0), mode_area=st.floats(1e-30, 1.0),
           dipole=st.floats(1e-40, 1e-20), field=st.floats(1e-3, 1e12),
           epsilon=st.floats(0.0, 1.0), points=st.integers(0, 12),
           extra=st.sampled_from([[], ["--raman_detuning", "1e20"], ["--raman_detuning", "1e12"]]),
           fmt=st.sampled_from(["text", "csv"]))
    @settings(max_examples=40, deadline=None)
    def test_any_budget_exits_cleanly(self, wavelength, mode_area, dipole, field, epsilon,
                                      points, extra, fmt):
        # budget refuses every input outside its box, and none inside it fails
        code = assert_exits_cleanly("budget", "--wavelength", repr(wavelength),
                                    "--mode_area", repr(mode_area), "--dipole", repr(dipole),
                                    "--field_amplitude", repr(field), "--epsilon", repr(epsilon),
                                    "--area_sweep_points", str(points),
                                    "--format", fmt, *extra)
        assert code != EXIT_NUMERIC

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_scalar_lines_are_the_budget_fields(self, fmt):
        # each printed name is a record's field name, after its section's
        # prefix and in field order, and the table header is the sweep's fields
        report = budget.pi_pulse_budget(1e-6, 1e-12, 1e-29, 1e5)
        raman = budget.raman_constraint(1e12, report.rabi_frequency_rad_per_s,
                                        report.gamma_per_s, 1e-4)
        header = ",".join(budget.fixed_intensity_area_sweep(report, 7)._fields)
        main_block = [*_field_lines(report), ("photon_constraint", "violated")]
        raman_block = [*_field_lines(raman, "raman_"),
                       ("raman_eliminated_coefficient", cli._fmt(math.pi)),
                       ("raman_constraint", "satisfied")]
        for extra, want in [([], main_block),
                            (["--raman_detuning", "1e12"], main_block + raman_block)]:
            code, out, _ = run_captured(*BUDGET_ARGS, *extra, "--format", fmt)
            assert code == EXIT_OK
            assert _printed_lines(out, fmt) == (want, header)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_printed_budget_agrees_with_itself(self, fmt):
        # constraint_margin = eps / (Gamma T) and raman_purity_loss =
        # pi Gamma / (Omega_R^2 T_raman), recomputed from the printed lines
        code, out, _ = run_captured(*BUDGET_ARGS, "--raman_detuning", "1e12", "--format", fmt)
        assert code == EXIT_OK
        lines, _ = _printed_lines(out, fmt)
        v = {name: float(value) for name, value in lines if not value.isalpha()}
        gamma, rabi = v["gamma_per_s"], v["rabi_frequency_rad_per_s"]
        assert v["constraint_margin"] == pytest.approx(
            v["epsilon"] / (gamma * v["duration_s"]), rel=1e-10)
        assert v["raman_purity_loss"] == pytest.approx(
            math.pi * gamma / (rabi ** 2 * v["raman_duration_s"]), rel=1e-10)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_each_scalar_value_is_printed_once(self, fmt):
        # one quantity, one line: only the margin forms, the constraint's
        # cross-check, print the value of another line
        code, out, _ = run_captured(*BUDGET_ARGS, "--raman_detuning", "1e12", "--format", fmt)
        assert code == EXIT_OK
        lines, _ = _printed_lines(out, fmt)
        names = {}
        for name, value in lines:
            if not value.isalpha():
                names.setdefault(value, []).append(name)
        repeated = [group for group in names.values() if len(group) > 1]
        assert repeated == [["constraint_margin", "margin_purity_form", "margin_rabi_form",
                             "margin_explicit_form", "margin_energy_form"]]

    def test_duration_is_an_unknown_key(self):
        code, out, err = run_captured(*BUDGET_ARGS, "--duration", "1e-6")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: unknown key 'duration' for command 'budget'\n"

    def test_raman_duration_overflow_inputs_are_refused(self):
        # T = pi / Omega_eff would overflow on these inputs; the first of them
        # outside its range, in argument order, is refused before any work
        code, out, err = run_captured(
            "budget", "--wavelength", "1.2308244472548009e+93",
            "--mode_area", "2.4381461235298163e+275", "--dipole", "1.2779269595929032e+134",
            "--field_amplitude", "6.241152743611056e-290", "--epsilon", "1.8303875294982557e-11",
            "--raman_detuning", "1.399106507126475e+66")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: wavelength must be in (1e-11, 1], got 1.2308244472548009e+93\n"
        # a weak drive at the greatest detuning prints a Raman pulse of 3.5e38 s
        code, out, err = run_captured(*BUDGET_ARGS, "--dipole", "1e-39", "--field_amplitude",
                                      "1e-5", "--raman_detuning", "1e18", "--format", "csv")
        assert (code, err) == (EXIT_OK, "")
        assert "\n# raman_duration_s=3.49383341669e+38\n" in out

    def test_raman_effective_rabi_underflow_names_the_value(self):
        # Omega_R ~ 9.5e-96 would round Omega_R^2 / Delta to 0: the field is named
        code, out, err = run_captured(*BUDGET_ARGS, "--field_amplitude", "1e-100",
                                      "--raman_detuning", "1e18", "--area_sweep_points", "2")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: field_amplitude must be in (1e-06, 1e+12], got 1e-100\n"

    @pytest.mark.parametrize("dipole,field", [("1e130", "1e150"), ("1e-300", "1e-300")],
                             ids=["overflow", "underflow"])
    def test_rabi_frequency_out_of_range_inputs_are_refused(self, dipole, field):
        # Omega_R = d E0 / hbar would leave (0, inf) here: the dipole is named
        code, out, err = run_captured(*BUDGET_ARGS, "--dipole", dipole, "--field_amplitude", field)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: dipole must be in (1e-40, 1e-24], got {float(dipole)}\n"

    def test_subwavelength_focus_is_refused_in_one_line(self):
        # the README beam focused to 1e-14 m^2, where kappa = Gamma sigma_eff / A
        # would exceed Gamma: refused, naming both areas
        code, out, err = run_captured(*BUDGET_ARGS, "--mode_area", "1e-14")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == ("error: mode_area must be >= sigma_eff = 3 lambda^2 / (8 pi)"
                       " = 1.1936620731892148e-13 m^2, got 1e-14\n")

    # Gamma would underflow to 0, or its omega^3 overflow, at these
    # wavelengths: the rate's input is named
    @pytest.mark.parametrize("argv,message", [
        (["--wavelength", "1e150", "--mode_area", "1e300"],
         "wavelength must be in (1e-11, 1], got 1e+150"),
        (["--wavelength", "1e-120"], "wavelength must be in (1e-11, 1], got 1e-120"),
    ], ids=["gamma-underflows", "omega-cubed-overflows"])
    def test_rate_out_of_range_names_the_rate(self, argv, message):
        code, out, err = run_captured(*BUDGET_ARGS, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"error: {message}\n"

    def test_sigma_eff_out_of_range_is_refused_before_the_area_refusal(self):
        # k^2 = 3.9e-319 would divide 3 pi / 2 to inf: the wavelength is
        # refused, and the mode_area refusal that compares against sigma_eff
        # is not reached
        code, out, err = run_captured(*BUDGET_ARGS, "--wavelength", "1e160")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == "error: wavelength must be in (1e-11, 1], got 1e+160\n"

    @pytest.mark.parametrize("fmt,expected", [("text", README_BUDGET_TEXT),
                                              ("csv", README_BUDGET_CSV)])
    def test_readme_example_prints_the_pinned_report(self, fmt, expected):
        # the README example with a Raman block, printed digit for digit
        code, out, err = run_captured(*BUDGET_ARGS, "--epsilon", "1e-4",
                                      "--raman_detuning", "1e12", "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        assert out == expected

    # sha256 of stdout for the README report with a 20000-row area sweep, the
    # benchmark's shape: the table spans several printing chunks, so a byte
    # moved in any chunk or in the scalar block fails
    @pytest.mark.parametrize("fmt,digest", [
        ("text", "81798accbd1a6324cabda726c6c07b69901974f2ddd8d9c587048b7a634cc5a5"),
        ("csv", "ddc64f943cf98a6447f212e193fe2aab2c4163cb1787fdd3b0515fb886a602db"),
    ], ids=["text", "csv"])
    def test_multi_chunk_report_is_pinned_byte_for_byte(self, fmt, digest):
        code, out, err = run_captured(*BUDGET_ARGS, "--epsilon", "1e-4",
                                      "--raman_detuning", "1e12", "--area_sweep_points", "20000",
                                      "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        assert out.count("\n") > 20000 > 4 * cli.TABLE_CHUNK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_huge_wavelength_budget_is_finite(self):
        # the longest wavelength and widest beam, with the greatest dipole,
        # field and epsilon: a corner of the box
        code, out, _ = run_captured(
            "budget", "--wavelength", "1", "--mode_area", "1e4", "--dipole", "1e-24",
            "--field_amplitude", "1e12", "--epsilon", "0.5", "--format", "csv")
        assert code == EXIT_OK
        assert out and not NON_FINITE.search(out), NON_FINITE.search(out)

    def test_area_sweep_stops_at_the_greatest_mode_area(self):
        # at 1 m, sigma_eff * 1e6 = 1.2e5 m^2 lies past the greatest mode_area,
        # 1e4 m^2: the sweep ends there, so every row is a beam budget accepts
        code, out, _ = run_captured("budget", "--wavelength", "1", "--mode_area", "1",
                                    "--dipole", "1e-29", "--field_amplitude", "1e5",
                                    "--format", "csv")
        assert code == EXIT_OK
        areas = [line.split(",")[0] for line in rows(out.encode())[1:]]
        assert len(areas) == 7 and areas[-1] == "1.00000000000e+04"
        assert max(map(float, areas)) == 1e4


class TestCompare:
    # sha256 of stdout for the CI markov-vs-jc, stride and plus-start compares
    # and the two largest-nbar ground-state rows: every printed digit of the
    # Markov p and of the single-mode p is pinned
    @pytest.mark.parametrize("argv,digest", [
        ("--n_bars 100,400,1600,6400",
         "d0a25e55cde9dceab44b9b5d52b4af9779e2f4c882fa603e48e6bd0b8bacbc13"),
        ("--gate pi2 --start excited --n_bars 25,63,64,100,101,1e8",
         "eb49ff28a0e686e843790bcd9687044ead392dc0546e072d1c1327defa07ae3b"),
        ("--gate pi2 --start ground --n_bars 9.9e9,1e14",
         "a9ab990b01ca7e963e20b16fc23409c51ca89e0a9ccdf2cfdc7996e19e356913"),
        ("--gate pi --start plus --n_bars 100,1e4,1e9",
         "091d5786600630f4eb78b7dfeae0ac22fe1c2eb277d2be842b5a08e70ca13c56"),
    ], ids=["markov-vs-jc", "stride", "pi2-ground-large-nbar", "pi-plus"])
    def test_csv_is_pinned_byte_for_byte(self, argv, digest):
        code, out = run_stdout("compare", *argv.split())
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_single_point_emits_two_rows(self, tmp_path):
        code, payload = run(tmp_path, "compare", "--n_bars", "400")
        assert code == EXIT_OK
        data = rows(payload)
        assert data[0] == "model,gate,n_bar,p,p_times_n_bar"
        assert len(data) == 3
        assert data[1].startswith("markov,pi,")
        assert data[2].startswith("jc,pi,")

    def test_plus_start_at_a_billion_photons_prints_its_asymptote(self):
        # p nbar = 1/4 + 1/(16 nbar) = 0.2500000000625, which rounds to ...062
        code, out = run_stdout("compare", "--gate", "pi", "--start", "plus", "--n_bars", "1e9")
        assert code == EXIT_OK
        assert out.splitlines()[2] == "jc,pi,1.00000000000e+09,2.50000000062e-10,2.50000000062e-01"

    def test_pi_pulse_coefficients_at_400(self, tmp_path):
        _, payload = run(tmp_path, "compare", "--n_bars", "400")
        markov, jc = (line.split(",") for line in rows(payload)[1:])
        p_nbar_markov = float(markov[4])
        p_nbar_jc = float(jc[4])
        assert p_nbar_markov == pytest.approx(0.93, rel=0.02)
        assert p_nbar_jc == pytest.approx(0.62, abs=0.10)
        assert p_nbar_markov / p_nbar_jc == pytest.approx(1.5, abs=0.25)

    def test_photon_number_30000_accepted(self, tmp_path):
        code, payload = run(tmp_path, "compare", "--n_bars", "30000")
        assert code == EXIT_OK
        jc = rows(payload)[2].split(",")
        assert float(jc[4]) == pytest.approx(0.62, abs=0.10)

    def test_empty_grid_rejected(self, tmp_path):
        assert run(tmp_path, "compare", "--n_bars", "")[0] == EXIT_CONFIG

    @pytest.mark.parametrize("n_bars", ["nan", "400,inf"])
    def test_non_finite_photon_numbers_rejected(self, tmp_path, n_bars):
        assert run(tmp_path, "compare", "--n_bars", n_bars)[0] == EXIT_CONFIG

    def test_small_photon_numbers_rejected(self, tmp_path):
        assert run(tmp_path, "compare", "--n_bars", "10,400")[0] == EXIT_CONFIG

    def test_fock_window_beyond_the_level_cap_rejected(self, monkeypatch):
        # refused before the Markov or JC work starts
        def no_work(*args):
            raise AssertionError("work started on a refused photon grid")

        monkeypatch.setattr(gates, "sweep_failure_probabilities", no_work)
        monkeypatch.setattr(jc, "jc_gate_error", no_work)
        code, out, err = run_captured("compare", "--n_bars", "400,1e16")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == ("error: nbar must lie in [25, MAX_N_BAR = 1e+14], the semiclassical regime"
                       " up to the cap, got 1e+16\n")

    @pytest.mark.parametrize("n_bar", ["1e34", "1e40", "1e300"])
    def test_huge_photon_number_refused_in_one_short_line(self, tmp_path, capsys, n_bar):
        # nbar +- 10 sqrt(nbar) rounds to a window of a few levels from 1e33 on;
        # the cap on nbar refuses it, with no window built
        assert run(tmp_path, "compare", "--n_bars", n_bar)[0] == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err) < 200
        assert "MAX_N_BAR = 1e+14" in err

    def test_photon_numbers_up_to_the_cap_are_accepted(self):
        # The cap is on nbar, so acceptance is monotone: every point up to
        # 1e14 runs, every point above it is refused.  Near 1e10 the level count
        # of the rounded window nbar +- 10 sqrt(nbar) crosses 2e6 back and forth
        # with the fractional part of nbar; it must not decide the verdict.
        points = [base + step for base in range(9_999_859_990, 9_999_870_011, 100)
                  for step in (0.0, 0.25, 0.5, 0.75)] + [9999860000.0, 9999860001.0, 9999869999.5]
        for n_bar in [*points, 9999999999.0, 1e10, 1e11, 1e13, 99999999999999.0, 1e14]:
            assert run_stdout("compare", "--n_bars", repr(n_bar))[0] == EXIT_OK, n_bar
        for n_bar in (math.nextafter(1e14, math.inf), 1e15, 1e16):
            assert run_stdout("compare", "--n_bars", repr(n_bar))[0] == EXIT_CONFIG, n_bar

    @given(gate=st.sampled_from(sorted(GATE_AREAS)), start=st.sampled_from(sorted(START_STATES)),
           n_bars=st.lists(st.one_of(st.floats(0.0, 1e6), st.sampled_from([1e16, 1e300])),
                           max_size=3))
    @settings(max_examples=40, deadline=None)
    def test_any_photon_grid_exits_cleanly(self, gate, start, n_bars):
        assert_exits_cleanly("compare", "--gate", gate, "--start", start,
                             "--n_bars", ",".join(repr(n) for n in n_bars))


class TestWorkBound:
    @pytest.mark.parametrize(
        "argv", [["simulate", "--samples"], ["sweep", "--points"],
                 [*BUDGET_ARGS, "--area_sweep_points"]],
        ids=["samples", "points", "area_sweep_points"],
    )
    def test_more_rows_than_the_cap_is_config_error(self, tmp_path, argv):
        assert run(tmp_path, *argv, str(MAX_ROWS + 1))[0] == EXIT_CONFIG

    def test_more_photon_numbers_than_the_cap_is_config_error(self, tmp_path):
        n_bars = ",".join(["400"] * (MAX_ROWS + 1))
        assert run(tmp_path, "compare", "--n_bars", n_bars)[0] == EXIT_CONFIG


def template_rows(table) -> str:
    """The table printer's oracle: the %-template, one field at a time, and
    strings unchanged, each row ending in a newline."""
    return "".join(",".join(x if isinstance(x, str) else "%.11e" % x for x in row) + "\n"
                   for row in table)


def printed(table) -> str:
    """cli._table's text for ``table``, a 2-D array or a list of rows, handed
    to it as its columns."""
    columns = table.T if isinstance(table, np.ndarray) else list(zip(*table))
    return "".join(cli._table(columns))


CHUNK = cli.TABLE_CHUNK


class TestTablePrinter:
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
                      elements=st.floats()))
    @settings(max_examples=300, deadline=None)
    def test_any_floats_print_as_the_template(self, table):
        # st.floats() covers +-0, subnormals, inf, nan and 3-digit exponents
        assert printed(table) == template_rows(table)

    def test_adversarial_table_prints_as_the_template(self):
        rng = np.random.default_rng(20261018)
        n = 20000
        k = rng.integers(-330, 309, n)
        m = rng.integers(10**11, 10**12, n).astype(float)
        with np.errstate(over="ignore", under="ignore"):
            scale = 10.0 ** (k - 11)
            table = np.column_stack((
                (m + 0.5) * scale,  # ties of the 12th digit, as near as a double gets
                -m * scale,
                np.nextafter(10.0 ** k, 0.0),  # just below a power of ten: the carry
                10.0 ** k,
                np.nextafter(10.0 ** k, np.inf),
                rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-12, 12, n),
            ))
        assert printed(table) == template_rows(table)

    def test_empty_table(self):
        assert list(cli._table(np.empty((0, 3)).T)) == []

    def test_strings_pass_through(self):
        # the template follows the types of the first row
        table = [("jc", 2.5, "100%"), ("markov", -0.0, "%s %d")]
        assert printed(table) == template_rows(table)
        assert printed(table) == ("jc,2.50000000000e+00,100%\n"
                                  "markov,-0.00000000000e+00,%s %d\n")

    @pytest.mark.parametrize("rows", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_each_chunk_holds_at_most_table_chunk_rows(self, rows):
        rng = np.random.default_rng(rows)
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
        columns = (["jc", "markov"] * rows)[:rows], values, list(values[::-1])
        chunks = list(cli._table(columns))
        assert [chunk.count("\n") for chunk in chunks] == (
            [CHUNK] * (rows // CHUNK) + [rows % CHUNK] * (rows % CHUNK > 0))
        assert "".join(chunks) == template_rows(zip(*columns))

    @pytest.mark.parametrize("argv", [
        ["simulate", "--start", "plus", "--theta", "11", "--ratio", "25", "--samples", "500"],
        ["simulate", "--method", "rk4_fixed", "--ratio", "0.3", "--samples", "300"],
        ["sweep", "--gate", "pi2", "--start", "excited", "--points", "64"],
        [*BUDGET_ARGS, "--raman_detuning", "1e12", "--area_sweep_points", "20000"],
        [*BUDGET_ARGS, "--format", "csv", "--area_sweep_points", "20000"],
        ["compare", "--n_bars", "1000,30000"],
    ], ids=["simulate", "simulate-rk4", "sweep", "budget-text", "budget-csv", "compare"])
    def test_command_output_equals_the_template_printer(self, monkeypatch, argv):
        fast = run_stdout(*argv)
        monkeypatch.setattr(cli, "_table", lambda columns: [template_rows(zip(*columns))])
        monkeypatch.setattr(cli, "_formatted", lambda column: ["%.11e" % x for x in column])
        assert fast == run_stdout(*argv)
        assert fast[0] == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["simulate", "--samples", str(2 * CHUNK)],
        [*BUDGET_ARGS, "--raman_detuning", "1e12", "--area_sweep_points", str(2 * CHUNK + 1)],
        [*BUDGET_ARGS, "--format", "csv", "--area_sweep_points", str(2 * CHUNK + 1)],
    ], ids=["simulate", "budget-text", "budget-csv"])
    def test_a_long_table_reaches_the_output_in_chunks(self, argv):
        # the runner returns its report as pieces of text, none longer than
        # TABLE_CHUNK rows plus the header lines, which main writes in turn
        command, raw = argv[0], cli._overrides_from_extras(argv[1:])
        pieces = list(cli.RUNNERS[command](cli._coerce(command, raw)))
        assert len(pieces) >= 4
        assert max(piece.count("\n") for piece in pieces) == CHUNK
        assert "".join(pieces) == run_stdout(*argv)[1]

    def test_simulate_derives_its_columns_one_chunk_at_a_time(self, monkeypatch):
        # 2 * TABLE_CHUNK samples are 2 * TABLE_CHUNK + 1 rows: three chunks,
        # each derived from its slice of the Bloch columns as it is written
        calls = []

        def counted(xs, ys, zs):
            calls.append(len(xs))
            return density_columns(xs, ys, zs)

        want = run_stdout("simulate", "--samples", str(2 * CHUNK))
        monkeypatch.setattr(cli, "density_columns", counted)
        pieces = cli.run_simulate(cli._coerce("simulate", {"samples": str(2 * CHUNK)}))
        assert calls == []
        assert "".join(pieces) == want[1]
        assert calls == [CHUNK, CHUNK, 1]


class TestImports:
    def test_public_names_are_pinned(self):
        # each public name has one import path, lasergate.<module>.<name>:
        # the package itself re-exports nothing
        assert not hasattr(lasergate, "__all__")
        assert not hasattr(lasergate, "__getattr__")
        with pytest.raises(AttributeError):
            lasergate.evolve

    def test_version_is_the_project_version(self):
        pyproject = Path(lasergate.__file__).parents[2] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            assert lasergate.__version__ == tomllib.load(fh)["project"]["version"]

    def test_each_command_loads_only_what_it_calls(self):
        # a fresh interpreter, so that no other test has loaded the modules yet
        code = f"""
import json, os, sys
sys.path.insert(0, {str(Path(lasergate.__file__).parents[1])!r})
import lasergate.cli
stdlib = [name for name in ("dataclasses", "argparse") if name in sys.modules]
lazy = ("lasergate.budget", "lasergate.gates", "lasergate.jc")
loaded = lambda: [name for name in lazy if name in sys.modules]
after_import = loaded()
code = lasergate.cli.main(["simulate", "--samples", "3", "--out", os.devnull])
after_simulate = loaded()
compare = lasergate.cli.main(["compare", "--n_bars", "100", "--out", os.devnull])
print(json.dumps([stdlib, after_import, code, after_simulate, compare, loaded()]))
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        stdlib, after_import, code, after_simulate, compare, finally_loaded = json.loads(out)
        assert stdlib == []
        assert after_import == [] and after_simulate == []
        assert code == compare == EXIT_OK
        # compare loads gates and jc, and no budget
        assert finally_loaded == ["lasergate.gates", "lasergate.jc"]

    def test_jc_and_the_photon_commands_load_no_budget(self):
        # a fresh interpreter without site-packages: jc stands alone on qcore,
        # and sweep and compare write their photon forms without budget
        code = f"""
import json, os, sys
sys.path.insert(0, {str(Path(lasergate.__file__).parents[1])!r})
others = ("lasergate.budget", "lasergate.gates", "lasergate.lindblad")
import lasergate.jc
after_jc = [name for name in others if name in sys.modules]
import lasergate.cli
codes = [lasergate.cli.main(["sweep", "--points", "4", "--out", os.devnull]),
         lasergate.cli.main(["compare", "--n_bars", "100", "--out", os.devnull])]
print(json.dumps([after_jc, codes, "lasergate.budget" in sys.modules]))
"""
        out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert json.loads(out) == [[], [EXIT_OK, EXIT_OK], False]

    def test_import_and_sweep_load_no_numpy(self):
        code = f"""
import os, sys
sys.path.insert(0, {str(Path(lasergate.__file__).parents[1])!r})
import lasergate.cli
after_import = "numpy" in sys.modules
code = lasergate.cli.main(["sweep", "--points", "4", "--out", os.devnull])
print(code, after_import, "numpy" in sys.modules)
"""
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True).stdout
        assert out.split() == [str(EXIT_OK), "False", "False"]

    @pytest.mark.parametrize("argv", [
        ["simulate", "--start", "plus", "--ratio", "0.3", "--samples", "50"],
        ["sweep", "--gate", "pi2", "--start", "excited", "--points", "16"],
        [*BUDGET_ARGS, "--raman_detuning", "1e12", "--area_sweep_points", "50"],
        ["compare", "--n_bars", "100,30000"],
    ], ids=["simulate", "sweep", "budget", "compare"])
    def test_each_command_runs_with_numpy_blocked(self, argv):
        # a None entry in sys.modules makes "import numpy" raise ImportError
        code = f"""
import sys
sys.modules["numpy"] = None
sys.path.insert(0, {str(Path(lasergate.__file__).parents[1])!r})
from lasergate.cli import main
sys.exit(main(sys.argv[1:]))
"""
        proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (proc.returncode, proc.stdout) == run_stdout(*argv)


def run_entry(*argv, stdout=subprocess.PIPE, **options):
    """The console script in a fresh interpreter, its stdout a block-buffered
    pipe unless another file is given; ``options`` go to ``subprocess.run``."""
    env = {**os.environ, "PYTHONPATH": str(Path(lasergate.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-c", "from lasergate.cli import entry; entry()",
                           *argv], stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=120,
                          **options)


BUDGET_20000 = ("budget", "--wavelength", "1e-6", "--mode_area", "1e-12", "--dipole", "1e-29",
                "--field_amplitude", "1e5", "--area_sweep_points", "20000")


class TestConsoleEntry:
    """entry() exits without interpreter teardown; nothing it prints may be lost."""

    @pytest.mark.parametrize("argv,expected", [
        (("sweep", "--points", "0"), EXIT_CONFIG),
        (("simulate", "--conf", "x"), EXIT_CONFIG),  # no abbreviated option names
        (("simulate", "--method", "rk4_fixed", "--ratio", "30", "--theta", "1e4",
          "--samples", "1"), EXIT_NUMERIC),
        (("simulate", "--theta", "1e11"), EXIT_CONFIG),
        # each input outside its range is refused before any arithmetic
        ((*BUDGET_ARGS, "--mode_area", "1e305", "--raman_detuning", "-1"), EXIT_CONFIG),
        ((*BUDGET_ARGS, "--field_amplitude", "1e-100", "--raman_detuning", "1e200",
          "--area_sweep_points", "1"), EXIT_CONFIG),
    ])
    def test_exit_code_is_mains(self, argv, expected):
        proc = run_entry(*argv)
        assert proc.returncode == run_stdout(*argv)[0] == expected
        assert proc.stdout == b"" and proc.stderr.startswith(b"error: ")

    def test_large_output_through_a_pipe_and_a_file(self, tmp_path):
        code, text = run_stdout(*BUDGET_20000)
        assert code == EXIT_OK and text.count("\n") > 20000
        proc = run_entry(*BUDGET_20000)
        assert proc.returncode == EXIT_OK
        assert proc.stdout == text.encode()
        out = tmp_path / "budget.txt"
        assert run_entry(*BUDGET_20000, "--out", str(out)).returncode == EXIT_OK
        assert out.read_bytes() == text.encode()

    @pytest.mark.parametrize("argv", [
        ("simulate", "--start", "plus", "--ratio", "0.3", "--samples", str(2 * CHUNK + 1)),
        (*BUDGET_20000, "--raman_detuning", "1e12"),
        (*BUDGET_20000, "--format", "csv"),
    ], ids=["simulate", "budget-text", "budget-csv"])
    def test_out_file_holds_the_bytes_of_stdout(self, tmp_path, argv):
        # tables of several chunks, written through a pipe and to --out
        proc = run_entry(*argv)
        assert proc.returncode == EXIT_OK and proc.stdout.count(b"\n") > 2 * CHUNK
        out = tmp_path / "out"
        assert run_entry(*argv, "--out", str(out)).returncode == EXIT_OK
        assert out.read_bytes() == proc.stdout

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_zero(self, flag):
        proc = run_entry(flag)
        assert proc.returncode == EXIT_OK and proc.stderr == b""
        assert proc.stdout.startswith(b"usage: lasergate <command>")
        assert all(f"\n  {name} ".encode() in proc.stdout for name in cli.RUNNERS)

    def test_missing_command_exits_two(self):
        proc = run_entry()
        assert proc.returncode == EXIT_CONFIG and proc.stdout == b""
        assert b"missing command" in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [("sweep", "--points", "8"), BUDGET_20000],
                             ids=["flush", "write"])
    def test_failed_stdout_write_exits_two_in_one_line(self, argv):
        # a small output fails at the flush, a large one already at the write
        with open("/dev/full", "wb") as full:
            proc = run_entry(*argv, stdout=full)
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr.startswith(b"error: cannot write stdout: ")
        assert proc.stderr.count(b"\n") == 1 and len(proc.stderr) < 200

    @pytest.mark.skipif(os.name != "posix", reason="closes a descriptor before exec")
    @pytest.mark.parametrize("argv", [("sweep", "--points", "8"), ("--help",)],
                             ids=["sweep", "help"])
    def test_closed_stdout_exits_two_in_one_line(self, argv):
        # descriptor 1 closed when the interpreter starts leaves sys.stdout None
        proc = run_entry(*argv, stdout=None, preexec_fn=lambda: os.close(1))
        assert proc.returncode == EXIT_CONFIG
        assert proc.stderr == b"error: cannot write stdout: stdout is closed\n"


class TestPlumbing:
    def test_stdout_when_no_out_given(self, capsys):
        assert main(["simulate", "--samples", "2"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out.startswith("t,rho_bb")

    def test_missing_command_is_config_error(self):
        assert main([]) == EXIT_CONFIG

    def test_dangling_override_value(self):
        # main itself, as run() appends --out, which the option would take
        # as its value
        assert run_captured("simulate", "--ratio") == (
            EXIT_CONFIG, "", "error: option '--ratio' is missing a value\n")

    def test_error_message_names_the_invariant(self, tmp_path, capsys):
        assert run(tmp_path, "simulate", "--ratio", "-1")[0] == EXIT_CONFIG
        assert "kappa/g_alpha must be in [0, 1e+150], got -1.0" in capsys.readouterr().err
        assert run(tmp_path, "simulate", "--theta", "-1")[0] == EXIT_CONFIG
        assert "theta must be in [0, 10000], got -1.0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--method", "rk4_fixed"], ["sweep", "--step_count", "500"],
        ["sweep", "--format", "csv"], ["compare", "--method", "exact"],
        ["compare", "--format", "csv"], ["simulate", "--format", "csv"],
        ["simulate", "--step_count", "1000"],
    ], ids=lambda argv: f"{argv[0]}-{argv[1][2:]}")
    def test_removed_keys_are_unknown(self, argv):
        # sweep and compare always use the exact propagator, rk4_fixed takes
        # lindblad.RK4_STEPS steps, and every command but budget prints CSV
        # only, so none of these keys is accepted
        code, out, err = run_captured(*argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"unknown key {argv[1][2:]!r} for command {argv[0]!r}" in err
