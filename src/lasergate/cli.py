"""Command-line front end: simulate / sweep / budget / compare.

Usage:
    lasergate <command> [--out FILE] [--key value ...]

Each input is one ``--key value`` pair, the key spelled as in
:data:`KEY_SCHEMAS`.  All physical inputs are SI base units (m, s, W/m^2 via
V/m, C*m); no unit suffixes are parsed.  Output is CSV (or a text report for
``budget``) with LF line endings, a mandatory header row, ``#`` comment lines,
and floats printed to 12 significant digits, so identical configs produce
byte-identical output.

Exit codes: 0 success, 2 invalid config, parameter or unwritable output, 3 numerical failure.
"""

from __future__ import annotations

import math
import os
import sys
from itertools import chain

from .lindblad import EXACT, evolve
from .qcore import density_columns

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# Most rows one invocation may ask for (samples, points, area_sweep_points,
# n_bars entries): a larger request is refused before anything is allocated.
MAX_ROWS = 10**6

# Rows per piece of text written: a table is held as columns, never as one string.
TABLE_CHUNK = 4096

# 12 significant digits, scientific notation: the one float format of every
# printed number, so that output is reproducible byte for byte.
FLOAT_FORMAT = "%.11e"

USAGE = "usage: lasergate <command> [--out FILE] [--key value ...]\n"
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
  -h, --help   show this help and exit
  --out FILE   output file (default: stdout)
  --key value  set one key
"""

_REQUIRED = object()


class ConfigError(ValueError):
    """Invalid configuration; reported with exit code 2."""


def _fmt(x: float) -> str:
    return FLOAT_FORMAT % x


def _chunks(columns):
    """The table given by its ``columns``, sequences of one length, as the
    slices of each column that hold TABLE_CHUNK rows at a time."""
    for start in range(0, len(columns[0]), TABLE_CHUNK):
        yield [column[start:start + TABLE_CHUNK] for column in columns]


def _table(columns):
    """The rows of the table given by its ``columns``, sequences of one
    length, as comma-separated fields, one line per row, yielded as the text
    of each of its :func:`_chunks`: one row template, by the field types of the
    first row (FLOAT_FORMAT for floats, strings unchanged), applied per chunk."""
    if not len(columns[0]):
        return
    line = ",".join(["%s" if isinstance(column[0], str) else FLOAT_FORMAT for column in columns])
    for chunk in _chunks(columns):
        yield f"{line}\n" * len(chunk[0]) % tuple(chain.from_iterable(zip(*chunk)))


def _formatted(column) -> list:
    """:func:`_fmt` of each value of ``column``, formatting each distinct
    value once: for a column that repeats a few values."""
    text = {value: _fmt(value) for value in set(column)}
    return list(map(text.__getitem__, column))


def _floats(raw: str) -> tuple[float, ...]:
    """Comma-separated list of at most MAX_ROWS floats; blank entries are
    skipped."""
    tokens = [tok for tok in raw.split(",") if tok.strip()]
    if len(tokens) > MAX_ROWS:
        raise ValueError(f"more than {MAX_ROWS} entries")
    return tuple(map(float, tokens))


def _row_count(raw: str) -> int:
    value = int(raw)
    if value < 0:
        raise ValueError("must be >= 0")
    if value > MAX_ROWS:
        raise ValueError(f"must be <= {MAX_ROWS}")
    return value


# key -> (converter, default); _REQUIRED means the key must be supplied.
KEY_SCHEMAS: dict[str, dict] = {
    "simulate": {
        "theta": (float, math.pi),
        "ratio": (float, 0.0),
        "start": (str, "ground"),
        "samples": (_row_count, 200),
        "method": (str, EXACT),
    },
    "sweep": {
        "gate": (str, "pi"),
        "start": (str, "ground"),
        "ratio_min": (float, 1e-5),
        "ratio_max": (float, 1e-3),
        "points": (_row_count, 8),
    },
    "budget": {
        "wavelength": (float, _REQUIRED),
        "mode_area": (float, _REQUIRED),
        "dipole": (float, _REQUIRED),
        "field_amplitude": (float, _REQUIRED),
        "epsilon": (float, 1e-4),
        "raman_detuning": (float, None),
        "area_sweep_points": (_row_count, 7),
        "format": (str, "text"),
    },
    "compare": {
        "gate": (str, "pi"),
        "start": (str, "ground"),
        "n_bars": (_floats, (100.0, 400.0, 1600.0)),
    },
}

GATE_AREAS = {"pi": math.pi, "pi2": math.pi / 2.0}
# start name -> its Bloch vector (x, y, z)
START_STATES = {"ground": (0.0, 0.0, -1.0), "excited": (0.0, 0.0, 1.0), "plus": (1.0, 0.0, 0.0)}


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
        if key not in cfg and default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r} for command {command!r}")
        cfg.setdefault(key, default)
    return cfg


def _lookup(kind: str, table: dict, name: str):
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}; choose from {sorted(table)}")
    return table[name]


def run_simulate(cfg: dict) -> chain:
    """Trajectory CSV: t, populations, coherence, purity at samples+1 times."""
    state = _lookup("start state", START_STATES, cfg["start"])
    trajectory = evolve(state, cfg["theta"], cfg["ratio"], cfg["samples"], cfg["method"])

    return chain(["t,rho_bb,rho_aa,re_rho_ab,im_rho_ab,purity\n"],
                 chain.from_iterable(_table((times, *density_columns(xs, ys, zs)))
                                     for times, xs, ys, zs in _chunks(trajectory)))


def run_sweep(cfg: dict) -> chain:
    """Ratio sweep CSV with a first-order-coefficient footer."""
    from . import gates

    theta = _lookup("gate", GATE_AREAS, cfg["gate"])
    state = _lookup("start state", START_STATES, cfg["start"])
    # a grid outside the sweep contract is refused before any ratio is propagated
    ratios = gates.ratio_grid(cfg["ratio_min"], cfg["ratio_max"], cfg["points"])
    probabilities = gates.sweep_failure_probabilities(theta, state, ratios)
    c = gates.first_order_coefficient(theta, state)
    # the spread of p/ratio around c: the second-order signature of the sweep
    residual = math.sqrt(sum((p / r - c) ** 2 for p, r in zip(probabilities, ratios)) / len(ratios))

    return chain(["ratio,p\n"], _table((ratios, probabilities)),
                 [f"# c={_fmt(c)} c_prime={_fmt(c * theta / 2.0)}"
                  f" residual={_fmt(residual)}\n"])


def run_budget(cfg: dict) -> chain:
    """Budget report: rates, photon numbers, constraint margins, area sweep."""
    from . import budget

    if cfg["format"] not in ("text", "csv"):
        raise ConfigError(f"budget format must be text or csv, got {cfg['format']!r}")
    # each call refuses its own inputs before its arithmetic: beam, Raman, then sweep
    report = budget.pi_pulse_budget(cfg["wavelength"], cfg["mode_area"], cfg["dipole"],
                                    cfg["field_amplitude"], cfg["epsilon"])
    sections = [_section(report, "photon_constraint")]
    if cfg["raman_detuning"] is not None:
        raman = budget.raman_constraint(cfg["raman_detuning"], report.rabi_frequency_rad_per_s,
                                        report.gamma_per_s, cfg["epsilon"])
        constant = ("raman_eliminated_coefficient", _fmt(budget.RAMAN_ELIMINATION_COEFFICIENT))
        sections.append(_section(raman, "raman_constraint", "raman_", constant))
    sweep = budget.fixed_intensity_area_sweep(report, cfg["area_sweep_points"])

    if cfg["format"] == "csv":
        lines = [f"# {name}={value}" for name, value in chain.from_iterable(sections)]
    else:
        width = max(len(name) for name, _ in chain.from_iterable(sections))
        lines = ["laser pulse budget (SI base units)"]
        for section in sections:
            lines += ["", *(f"{name:<{width}} = {value}" for name, value in section)]
        lines += ["", "fixed-intensity area sweep (kappa * A = Gamma * sigma_eff):"]
    # p_total is one value, and kappa * A = (Gamma sigma_eff / A) * A lies within
    # a few ulps of Gamma sigma_eff: each distinct value of those two columns is
    # formatted once.  Neither holds a negative zero, so equal values print alike.
    return chain(["\n".join([*lines, ",".join(sweep._fields), ""])],
                 _table((sweep.area, sweep.kappa, _formatted(sweep.kappa_times_area), sweep.n_bar,
                         sweep.p_laser, _formatted(sweep.p_total))))


def _section(record, verdict: str, prefix: str = "", *extra) -> list:
    """The report lines of ``record``: each field, named ``prefix`` + its name,
    with its value, then the ``extra`` lines, then the ``verdict`` line."""
    fields = zip(record._fields, record)
    return [*((prefix + name, _fmt(value)) for name, value in fields), *extra,
            (verdict, "satisfied" if record.satisfied else "violated")]


def run_compare(cfg: dict) -> chain:
    """Markov vs single-mode failure probabilities on a shared photon grid."""
    from . import gates, jc

    theta = _lookup("gate", GATE_AREAS, cfg["gate"])
    state = _lookup("start state", START_STATES, cfg["start"])
    if not cfg["n_bars"]:
        raise ConfigError("n_bars must list at least one photon number")
    n_bars = jc.check_photon_numbers(cfg["n_bars"])  # before any work

    # the flux relation: kappa / g_alpha = theta / (2 nbar) for a theta pulse of nbar photons
    ratios = [theta / (2.0 * n_bar) for n_bar in n_bars]
    markov = gates.sweep_failure_probabilities(theta, state, ratios)
    single_mode = [jc.jc_gate_error(theta, state, n_bar) for n_bar in n_bars]
    # a markov row, then a jc row, per photon number
    n_bar = [*chain.from_iterable(zip(n_bars, n_bars))]
    p = [*chain.from_iterable(zip(markov, single_mode))]
    return chain(["model,gate,n_bar,p,p_times_n_bar\n"],
                 _table((("markov", "jc") * len(n_bars), (cfg["gate"],) * len(p), n_bar, p,
                         [p_i * n_i for p_i, n_i in zip(p, n_bar)])))


RUNNERS = {
    "simulate": run_simulate,
    "sweep": run_sweep,
    "budget": run_budget,
    "compare": run_compare,
}


def _overrides_from_extras(extras: list[str]) -> dict[str, str]:
    overrides = {}
    tokens = iter(extras)
    for token in tokens:
        if not token.startswith("--") or len(token) == 2:
            raise ConfigError(f"expected --key value pairs, got {token!r}")
        # a value never starts with "--": that token is the next option
        if (value := next(tokens, None)) is None or value.startswith("--"):
            raise ConfigError(f"option {token!r} is missing a value")
        overrides[token[2:]] = value
    return overrides


def main(argv=None) -> int:
    """Run one command on ``argv`` (default ``sys.argv[1:]``): the command
    word, then ``--key value`` pairs.  Returns the exit code."""
    args = sys.argv[1:] if argv is None else list(argv)
    if "-h" in args or "--help" in args:
        return _write([HELP], None)
    if not args or args[0] not in RUNNERS:
        problem = f"unknown command {args[0]!r}" if args else "missing command"
        sys.stderr.write(f"{USAGE}error: {problem}; choose from {', '.join(RUNNERS)}\n")
        return EXIT_CONFIG
    command = args[0]

    try:
        overrides = _overrides_from_extras(args[1:])
        out = overrides.pop("out", None)
        cfg = _coerce(command, overrides)
        output = RUNNERS[command](cfg)
    except ArithmeticError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:  # ConfigError and InvalidStateError among them
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    return _write(output, out)


def _write(chunks, out) -> int:
    """Write the strings of ``chunks`` to the file ``out``, or to stdout and
    flush it; returns the exit code, 2 if either fails or stdout was closed
    when the process started (``sys.stdout`` is None).  The chunks format
    checked values, or derive them from checked columns by plain arithmetic
    (``simulate``), so nothing else can fail.  A failed flush keeps its bytes
    buffered, so nothing flushes stdout again: :func:`entry` skips the
    teardown that would."""
    try:
        if out is not None:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
        elif sys.stdout is None:
            raise OSError("stdout is closed")
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        target = "stdout" if out is None else repr(out)
        print(f"error: cannot write {target}: {exc}", file=sys.stderr)
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
