"""Gate errors from the quantum nature of laser light.

Simulates a resonantly driven two-level atom under Markovian decay, extracts
gate failure probabilities and their photon-number scaling, evaluates the
photon/energy budgets those errors imply, and cross-checks against an exact
single-mode Jaynes-Cummings model.

The package runs on the Python standard library alone.  It re-exports
nothing: each public name is imported from its module, ``lasergate.<module>``.
"""

__version__ = "0.1.0"
