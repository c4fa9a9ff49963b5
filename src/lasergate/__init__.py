"""Gate errors from the quantum nature of laser light.

Simulates a resonantly driven two-level atom under Markovian decay, extracts
gate failure probabilities and their photon-number scaling, evaluates the
photon/energy budgets those errors imply, and cross-checks against an exact
single-mode Jaynes-Cummings model.

The package runs on the Python standard library alone.

The public names are loaded on first use (PEP 562), so that importing one
module, such as the command-line front end, loads only the modules it needs.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "budget": ("CODATA", "PhysicalConstants", "PiPulseBudget", "fixed_intensity_area_sweep",
               "pi_pulse_budget", "raman_constraint"),
    "gates": ("first_order_coefficient",),
    "jc": ("jc_gate_error",),
    "lindblad": ("EvolutionResult", "IntegrationError", "IntegratorConfig", "evolve"),
    "qcore": ("DensityMatrix", "InvalidStateError", "PureState", "fidelity_pure"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
