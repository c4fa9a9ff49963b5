"""Command-line front end: simulate / sweep / budget / compare.

Usage:
    lasergate <command> [--config FILE] [--out FILE] [--key value ...]

Configs are flat ``key = value`` text files; any key can be overridden on the
command line.  All physical inputs are SI base units (m, s, W/m^2 via V/m,
C*m); no unit suffixes are parsed.  Output is CSV (or a text report for
``budget``) with LF line endings, a mandatory header row, ``#`` comment lines,
and floats printed to 12 significant digits, so identical configs produce
byte-identical output.

Exit codes: 0 success, 2 invalid config, parameter or unwritable output, 3 numerical failure.
"""

from __future__ import annotations

import math
import os
import sys
import warnings
from itertools import chain

from .lindblad import EXACT, IntegrationError, IntegratorConfig, evolve
from .qcore import InvalidStateError, PureState, logspace, purities

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Most rows one invocation may ask for (samples, points, area_sweep_points,
# n_bars entries): a larger request is refused before anything is allocated.
MAX_ROWS = 10**6

# Largest simulate pulse area, in rad.  The propagator's only error that grows
# with the pulse is the rounding of its rotation angle, about theta * 2.2e-16,
# so up to 1e4 it stays within 2.2e-12 and every printed digit is right.
MAX_THETA = 1e4

USAGE = "usage: lasergate <command> [--config FILE] [--out FILE] [--key value ...]\n"
HELP = USAGE + """
Gate-error simulator and photon/energy budget calculator for laser-driven
two-level atoms.

commands:
  simulate  trajectory of one pulse: populations, coherence and purity (CSV)
  sweep     failure probability over a ratio grid and its closed-form first-order
            coefficient (CSV)
  budget    photon and energy budget of a beam, with a beam-area sweep (text or CSV)
  compare   Markov and Jaynes-Cummings failure probabilities per photon number (CSV)

options:
  -h, --help     show this help and exit
  --config FILE  flat key = value config file
  --out FILE     output file (default: stdout)
  --key value    set one config key; overrides the config file
"""

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid configuration; reported with exit code 2."""


def _fmt(x: float) -> str:
    """12 significant digits, scientific notation; the one float format used
    everywhere so output is reproducible byte for byte."""
    return f"{x:.11e}"


def _format_rows(rows) -> str:
    """The rows of a table as comma-separated fields, one line per row, with no
    newline after the last row: one template, by the field types of the first
    row (:func:`_fmt` for floats, strings unchanged), applied once."""
    rows = iter(rows)
    first = next(rows, None)
    if first is None:
        return ""
    values = (*first, *chain.from_iterable(rows))
    line = ",".join(["%s" if isinstance(field, str) else "%.11e" for field in first])
    return "\n".join([line] * (len(values) // len(first))) % values


def _formatted(column) -> map:
    """:func:`_fmt` of each value of ``column``, formatting each distinct
    value once: for a column that repeats a few values."""
    text = {value: _fmt(value) for value in set(column)}
    return map(text.__getitem__, column)


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _finite_floats(raw: str) -> tuple[float, ...]:
    """Comma-separated list of at most MAX_ROWS finite floats; blank entries
    are skipped."""
    tokens = [tok for tok in raw.split(",") if tok.strip()]
    if len(tokens) > MAX_ROWS:
        raise ValueError(f"more than {MAX_ROWS} entries")
    return tuple(_finite_float(tok) for tok in tokens)


def _pulse_area(raw: str) -> float:
    value = _finite_float(raw)
    if value > MAX_THETA:
        raise ValueError(f"must be <= {MAX_THETA:g}")
    return value


def _non_negative_int(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("must be >= 0")
    return value


def _row_count(raw: str) -> int:
    value = _non_negative_int(raw)
    if value > MAX_ROWS:
        raise ValueError(f"must be <= {MAX_ROWS}")
    return value


# key -> (converter, default); _REQUIRED means the key must be supplied.
KEY_SCHEMAS: dict[str, dict] = {
    "simulate": {
        "theta": (_pulse_area, math.pi),
        "ratio": (_finite_float, 0.0),
        "start": (str, "ground"),
        "samples": (_row_count, 200),
        "method": (str, EXACT),
        "step_count": (_non_negative_int, 1000),
    },
    "sweep": {
        "gate": (str, "pi"),
        "start": (str, "ground"),
        "ratio_min": (_finite_float, 1e-5),
        "ratio_max": (_finite_float, 1e-3),
        "points": (_row_count, 8),
    },
    "budget": {
        "wavelength": (_finite_float, _REQUIRED),
        "mode_area": (_finite_float, _REQUIRED),
        "dipole": (_finite_float, _REQUIRED),
        "field_amplitude": (_finite_float, _REQUIRED),
        "epsilon": (_finite_float, 1e-4),
        "raman_detuning": (_finite_float, None),
        "area_sweep_points": (_row_count, 7),
        "area_sweep_max_factor": (_finite_float, 1e6),
        "format": (str, "text"),
    },
    "compare": {
        "gate": (str, "pi"),
        "start": (str, "ground"),
        "n_bars": (_finite_floats, (100.0, 400.0, 1600.0)),
    },
}

GATE_AREAS = {"pi": math.pi, "pi2": math.pi / 2.0}
START_STATES = {
    "ground": PureState.ground,
    "excited": PureState.excited,
    "plus": lambda: PureState.superposition(1.0, 1.0),
}


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` file; ``#`` lines and blanks are skipped."""
    raw: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        raw[key.strip()] = value.strip()
    return raw


def _coerce(command: str, raw: dict[str, str]) -> dict:
    schema = KEY_SCHEMAS[command]
    cfg = {}
    for key, value in raw.items():
        if key not in schema:
            raise ConfigError(f"unknown key {key!r} for command {command!r}")
        converter, _ = schema[key]
        try:
            cfg[key] = converter(value)
        except ValueError as exc:
            raise ConfigError(f"invalid value for {key!r}: {value!r} ({exc})") from exc
    for key, (_, default) in schema.items():
        if key in cfg:
            continue
        if default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} for command {command!r}")
        cfg[key] = default
    return cfg


def _start_state(name: str) -> PureState:
    if name not in START_STATES:
        raise ConfigError(f"unknown start state {name!r}; choose from {sorted(START_STATES)}")
    return START_STATES[name]()


def _gate_area(name: str) -> float:
    if name not in GATE_AREAS:
        raise ConfigError(f"unknown gate {name!r}; choose from {sorted(GATE_AREAS)}")
    return GATE_AREAS[name]


def run_simulate(cfg: dict) -> str:
    """Trajectory CSV: t, populations, coherence, purity at samples+1 times."""
    if cfg["samples"] < 1:
        raise ConfigError("samples must be >= 1")
    state = _start_state(cfg["start"])
    config = IntegratorConfig(cfg["method"], cfg["step_count"], cfg["samples"])
    trajectory = evolve(state.to_density(), cfg["theta"], cfg["ratio"], config).trajectory

    columns = (trajectory.rho_bb, trajectory.rho_aa, trajectory.re_rho_ab, trajectory.im_rho_ab)
    table = zip(trajectory.times, *columns, purities(*columns))
    return "\n".join(["t,rho_bb,rho_aa,re_rho_ab,im_rho_ab,purity", _format_rows(table), ""])


def run_sweep(cfg: dict) -> str:
    """Ratio sweep CSV with a first-order-coefficient footer."""
    from . import budget, gates

    if not (0 < cfg["ratio_min"] < cfg["ratio_max"]):
        raise ConfigError("need 0 < ratio_min < ratio_max")
    theta, state = _gate_area(cfg["gate"]), _start_state(cfg["start"])
    # a grid outside the sweep contract is refused before any ratio is propagated
    ratios = gates.check_ratio_grid(logspace(math.log10(cfg["ratio_min"]),
                                             math.log10(cfg["ratio_max"]), cfg["points"]))
    probabilities = gates.sweep_failure_probabilities(theta, state, ratios)
    c = gates.first_order_coefficient(theta, state)
    # the spread of p/ratio around c: the second-order signature of the sweep
    residual = math.sqrt(sum((p / r - c) ** 2 for p, r in zip(probabilities, ratios)) / len(ratios))

    return (
        "ratio,p\n" + _format_rows(zip(ratios, probabilities))
        + f"\n# c={_fmt(c)} c_prime={_fmt(budget.photon_coefficient(c, theta))}"
        f" residual={_fmt(residual)}\n"
    )


def run_budget(cfg: dict) -> str:
    """Budget report: rates, photon numbers, constraint margins, area sweep."""
    from . import budget

    if cfg["format"] not in ("text", "csv"):
        raise ConfigError(f"budget format must be text or csv, got {cfg['format']!r}")
    report = budget.pi_pulse_budget(cfg["wavelength"], cfg["mode_area"], cfg["dipole"],
                                    cfg["field_amplitude"], cfg["epsilon"])
    sweep = budget.fixed_intensity_area_sweep(report, cfg["area_sweep_points"],
                                              cfg["area_sweep_max_factor"])

    scalars = list(zip(report._fields, report._values()))
    verdicts = [("photon_constraint", "satisfied" if report.satisfied else "violated")]

    raman_lines: list[tuple[str, float]] = []
    if cfg["raman_detuning"] is not None:
        raman = budget.raman_constraint(cfg["raman_detuning"], report.rabi_frequency_rad_per_s,
                                        report.gamma_per_s, cfg["epsilon"])
        raman_lines = [
            ("raman_detuning_rad_per_s", raman.detuning),
            ("raman_effective_rabi_rad_per_s", raman.effective_rabi_frequency),
            ("raman_duration_s", raman.duration),
            ("raman_purity_loss", raman.purity_loss),
            ("raman_margin", raman.margin),
            ("raman_eliminated_coefficient", budget.RAMAN_ELIMINATION_COEFFICIENT),
            ("resonant_chain_coefficient", budget.RESONANT_CHAIN_COEFFICIENT),
            ("raman_coefficient_gap", budget.RAMAN_COEFFICIENT_GAP),
        ]
        verdicts.append(("raman_constraint", "satisfied" if raman.satisfied else "violated"))

    columns = (sweep.area, sweep.kappa, sweep.kappa_times_area,
               sweep.n_bar, sweep.laser_mode_error, sweep.total_error)
    if not (all(math.isfinite(value) for _, value in scalars + raman_lines)
            and all(map(math.isfinite, chain.from_iterable(columns)))):
        raise FloatingPointError("a budget value leaves the double range for these inputs")
    table_header = "area,kappa,kappa_times_area,n_bar,p_laser,p_total"
    # p_total is one value, and kappa * A = (Gamma sigma_eff / A) * A lies within
    # a few ulps of Gamma sigma_eff: each distinct value of those two columns is
    # formatted once.  Neither holds a negative zero, so equal values print alike.
    table_rows = _format_rows(zip(sweep.area, sweep.kappa, _formatted(sweep.kappa_times_area),
                                  sweep.n_bar, sweep.laser_mode_error,
                                  _formatted(sweep.total_error)))

    if cfg["format"] == "csv":
        lines = [f"# {name}={_fmt(value)}" for name, value in scalars + raman_lines]
        lines += [f"# {name}={value}" for name, value in verdicts]
        return "\n".join([*lines, table_header, table_rows, ""])

    width = max(len(name) for name, _ in scalars + raman_lines + verdicts)
    lines = ["laser pulse budget (SI base units)", ""]
    lines += [f"{name:<{width}} = {_fmt(value)}" for name, value in scalars]
    lines += [f"{name:<{width}} = {value}" for name, value in verdicts[:1]]
    if raman_lines:
        lines.append("")
        lines += [f"{name:<{width}} = {_fmt(value)}" for name, value in raman_lines]
        lines += [f"{name:<{width}} = {value}" for name, value in verdicts[1:]]
    lines += ["", "fixed-intensity area sweep (kappa * A = Gamma * sigma_eff):", table_header,
              table_rows, ""]
    return "\n".join(lines)


def run_compare(cfg: dict) -> str:
    """Markov vs single-mode failure probabilities on a shared photon grid."""
    from . import budget, gates, jc

    theta = _gate_area(cfg["gate"])
    state = _start_state(cfg["start"])
    if not cfg["n_bars"]:
        raise ConfigError("n_bars must list at least one photon number")
    n_bars = jc.check_photon_numbers(cfg["n_bars"])  # before any work

    ratios = [budget.drive_ratio_for_photons(theta, n_bar) for n_bar in n_bars]
    markov = gates.sweep_failure_probabilities(theta, state, ratios)
    table = ((model, cfg["gate"], n_bar, p, p * n_bar)
             for n_bar, p_markov in zip(n_bars, markov)
             for model, p in (("markov", p_markov), ("jc", jc.jc_gate_error(theta, state, n_bar))))
    return "\n".join(["model,gate,n_bar,p,p_times_n_bar", _format_rows(table), ""])


RUNNERS = {
    "simulate": run_simulate,
    "sweep": run_sweep,
    "budget": run_budget,
    "compare": run_compare,
}


def _overrides_from_extras(extras: list[str]) -> dict[str, str]:
    overrides = {}
    i = 0
    while i < len(extras):
        token = extras[i]
        if not token.startswith("--") or len(token) == 2:
            raise ConfigError(f"expected --key value pairs, got {token!r}")
        if "=" in token:
            key, _, value = token[2:].partition("=")
            i += 1
        else:
            if i + 1 >= len(extras):
                raise ConfigError(f"option {token!r} is missing a value")
            key, value = token[2:], extras[i + 1]
            i += 2
        overrides[key.replace("-", "_")] = value
    return overrides


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """A warning as one ``warning: <message>`` line on stderr, with no source
    path or line, so that it reads the same wherever the package lives."""
    sys.stderr.write(f"warning: {message}\n")


def main(argv=None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``): the command
    word, then ``--key value`` pairs.  Returns the exit code."""
    args = sys.argv[1:] if argv is None else list(argv)
    if "-h" in args or "--help" in args:
        return _write(HELP, None)
    if not args or args[0] not in RUNNERS:
        problem = f"unknown command {args[0]!r}" if args else "missing command"
        sys.stderr.write(f"{USAGE}error: {problem}; choose from {', '.join(RUNNERS)}\n")
        return EXIT_CONFIG
    command = args[0]

    try:
        overrides = _overrides_from_extras(args[1:])
        config, out = overrides.pop("config", None), overrides.pop("out", None)
        raw = parse_config_file(config) if config else {}
        raw.update(overrides)
        cfg = _coerce(command, raw)
        with warnings.catch_warnings():  # restores the caller's showwarning on exit
            warnings.showwarning = _show_warning
            output = RUNNERS[command](cfg)
    except (IntegrationError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, InvalidStateError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    return _write(output, out)


def _write(text: str, out) -> int:
    """Write ``text`` to the file ``out``, or to stdout and flush it; returns
    the exit code, 2 if either fails or stdout was closed when the process
    started (``sys.stdout`` is None).  A failed flush keeps its bytes
    buffered, so nothing flushes stdout again: :func:`entry` skips the
    teardown that would."""
    try:
        if out:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        elif sys.stdout is None:
            raise OSError("stdout is closed")
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: cannot write {repr(out) if out else 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def entry() -> None:
    """The console script: :func:`main` on ``sys.argv``, then exit at once.

    :func:`main` has flushed stdout; once stderr is flushed too, nothing is
    left to do, so the interpreter's teardown, about 20 ms of freeing what
    the process is about to return anyway, is skipped.
    """
    code = main()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
