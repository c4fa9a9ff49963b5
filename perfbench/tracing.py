"""Per-layer tracing of `lasergate`, installed from outside the package.

A :class:`Tracer` wraps the public functions of the six modules (``cli``,
``gates``, ``lindblad``, ``jc``, ``budget``, ``qcore``) at every place callers
look them up: the defining module, any module that imported the name (such as
``gates.evolve`` and ``cli.evolve``), dict values such as ``cli.RUNNERS``, and
class attributes such as ``DensityMatrix.__post_init__``.  Each call records a
span (id, parent, request, layer, name, start, end) in memory.  A name that
is missing, for example after a later change deletes it, is recorded as
absent instead of raising.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "gates", "lindblad", "jc", "budget", "qcore")

# layer -> names wrapped in lasergate.<layer>; "Class.method" patches the class.
TARGETS = {
    "cli": ("main",),
    "gates": ("failure_probability", "extract_coefficient",
              "sweep_failure_probabilities", "ideal_target"),
    "lindblad": ("evolve",),
    "jc": ("jc_gate_error", "jc_evolve", "JCSystem.evolve"),
    "budget": ("kappa_from_beam", "photon_budget", "min_photon_constraint",
               "spontaneous_emission_margins", "energy_density_bound",
               "fixed_intensity_area_sweep", "raman_constraint",
               "drive_ratio_for_photons", "photon_coefficient"),
    "qcore": ("DensityMatrix.__post_init__", "PureState.__post_init__", "fidelity_pure"),
}
VALIDATIONS = ("qcore.DensityMatrix.__post_init__", "qcore.PureState.__post_init__")

# Span record fields.
ID, PARENT, REQUEST, LAYER, NAME, START, END = range(7)

_MISSING = object()


def _p_key(args, kwargs):
    """Identity of one failure-probability evaluation: experiment, ratio, config."""
    try:
        experiment, ratio = args[0], float(args[1])
        return (repr(experiment.pulse_area), experiment.initial_state.amplitudes.tobytes(),
                ratio, repr(args[2:]), repr(sorted(kwargs.items())))
    except (AttributeError, IndexError, TypeError, ValueError):
        return repr(args) + repr(sorted(kwargs.items()))


class Tracer:
    """Collects spans and counters for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self.counters: Counter = Counter()
        self.p_keys: list = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    # ------------------------------------------------------------- wrapping

    def _wrap(self, layer: str, name: str, fn, on_return=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [len(spans), stack[-1] if stack else -1, self.request, layer, name, 0.0, 0.0]
            spans.append(record)
            stack.append(record[ID])
            record[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _on_failure_probability(self, args, kwargs, _result):
        self.p_keys.append(_p_key(args, kwargs))

    def _on_evolve(self, _args, _kwargs, result):
        trajectory = getattr(result, "trajectory", None)
        self.counters["lindblad.segments"] += len(trajectory) - 1 if trajectory else 1

    def _on_jc_evolve(self, args, kwargs, _result):
        field = kwargs.get("field", args[1] if len(args) > 1 else None)
        self.counters["jc.fock_levels"] += getattr(field, "n_max", -1) + 1

    def _hooks(self):
        return {
            "gates.failure_probability": self._on_failure_probability,
            "lindblad.evolve": self._on_evolve,
            "jc.jc_evolve": self._on_jc_evolve,
        }

    def _patch(self, owner, key, value):
        """Set ``owner[key]`` (a namespace dict) or ``owner.key`` (a class)."""
        if isinstance(owner, dict):
            self._patches.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner).get(key, _MISSING)))
            setattr(owner, key, value)

    def install(self) -> None:
        """Wrap every target in the imported ``lasergate`` package."""
        modules = {}
        for layer in LAYERS:
            try:
                modules[layer] = importlib.import_module(f"lasergate.{layer}")
            except ImportError:
                self.absent.append(f"lasergate.{layer}")
        hooks = self._hooks()
        namespaces = [vars(m) for m in modules.values()]
        namespaces.append(vars(importlib.import_module("lasergate")))
        for layer, names in TARGETS.items():
            module = modules.get(layer)
            for name in names:
                span_name = f"{layer}.{name}"
                owner_name, _, attr = name.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.absent.append(span_name)
                    continue
                wrapped = self._wrap(layer, span_name, original, hooks.get(span_name))
                if owner_name:
                    self._patch(owner, attr, wrapped)
                    continue
                for namespace in namespaces:
                    for key, value in list(namespace.items()):
                        if value is original:
                            self._patch(namespace, key, wrapped)
        runners = getattr(modules.get("cli"), "RUNNERS", None)
        if isinstance(runners, dict):
            for key, runner in list(runners.items()):
                self._patch(runners, key, self._wrap("cli", f"cli.RUNNERS.{key}", runner))
        else:
            self.absent.append("cli.RUNNERS")

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            elif original is _MISSING:
                delattr(owner, key)
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -------------------------------------------------------------- results

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [r[END] - r[START] for r in self.spans]
        for r in self.spans:
            if r[PARENT] >= 0:
                own[r[PARENT]] -= r[END] - r[START]
        return own

    def by_name(self) -> dict[str, dict[str, float]]:
        """Calls, inclusive and self seconds per span name."""
        stats: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0})
        for r, own in zip(self.spans, self.self_times()):
            s = stats[r[NAME]]
            s["calls"] += 1
            s["inclusive_s"] += r[END] - r[START]
            s["self_s"] += own
        return dict(stats)

    def layer_metrics(self, overhead_s: float) -> dict[str, float]:
        """The per-layer metrics named in BENCHMARK.json."""
        names = self.by_name()
        layer_self = Counter()
        for r, own in zip(self.spans, self.self_times()):
            layer_self[r[LAYER]] += own

        def stat(name, field):
            return names.get(name, {}).get(field, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        runner_calls = sum(s["calls"] for n, s in names.items() if n.startswith("cli.RUNNERS."))
        evolve_calls = stat("lindblad.evolve", "calls")
        jc_calls = stat("jc.jc_gate_error", "calls")
        fock = self.counters["jc.fock_levels"]
        validations = sum(stat(n, "calls") for n in VALIDATIONS)
        validation_s = sum(stat(n, "inclusive_s") for n in VALIDATIONS)
        return {
            "cli.calls": runner_calls,
            "cli.self_s": layer_self["cli"],
            "cli.bytes_out": self.counters["cli.bytes_out"],
            "gates.failure_probability.calls": stat("gates.failure_probability", "calls"),
            "gates.self_s": layer_self["gates"],
            "gates.p_unique_ratio": ratio(len(set(self.p_keys)), len(self.p_keys)),
            "lindblad.evolve.calls": evolve_calls,
            "lindblad.evolve.self_s": stat("lindblad.evolve", "self_s"),
            "lindblad.evolve.ms_per_call":
                1e3 * ratio(stat("lindblad.evolve", "inclusive_s"), evolve_calls),
            "lindblad.segments": self.counters["lindblad.segments"],
            "jc.jc_gate_error.calls": jc_calls,
            "jc.self_s": layer_self["jc"],
            "jc.fock_levels": fock,
            "jc.levels_per_s": ratio(fock, stat("jc.jc_gate_error", "inclusive_s")),
            "budget.calls": sum(s["calls"] for n, s in names.items() if n.startswith("budget.")),
            "budget.self_s": layer_self["budget"],
            "qcore.validations": validations,
            "qcore.self_s": layer_self["qcore"],
            "qcore.us_per_validation": 1e6 * ratio(validation_s, validations),
            "trace.overhead_s": overhead_s,
        }
