"""Gate errors from the quantum nature of laser light.

Simulates a resonantly driven two-level atom under Markovian decay, extracts
gate failure probabilities and their photon-number scaling, evaluates the
photon/energy budgets those errors imply, and cross-checks against an exact
single-mode Jaynes-Cummings model.

Every matrix here is 4 x 4 or smaller, so a BLAS thread pool only adds
start-up cost and scheduling jitter: unless the caller has chosen otherwise,
BLAS is kept to one thread.  This takes effect only if numpy is first
imported through this package.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var

from .budget import (
    CODATA,
    AtomModel,
    BeamGeometry,
    FieldSpec,
    PhysicalConstants,
    PhotonBudget,
    RamanSpec,
    energy_density_bound,
    error_vs_photons,
    fixed_intensity_area_sweep,
    kappa_from_beam,
    min_photon_constraint,
    photon_budget,
    photon_flux,
    raman_constraint,
    spontaneous_emission_margins,
)
from .gates import ErrorCoefficient, GateExperiment, extract_coefficient, failure_probability
from .jc import CoherentField, jc_evolve, jc_gate_error
from .lindblad import (
    DecaySpec,
    EvolutionResult,
    IntegrationError,
    IntegratorConfig,
    PulseSpec,
    evolve,
    lindblad_rhs,
)
from .qcore import (
    DensityMatrix,
    InvalidStateError,
    PureState,
    fidelity_pure,
    make_operator,
)

__version__ = "0.1.0"

__all__ = [
    "AtomModel",
    "BeamGeometry",
    "CODATA",
    "CoherentField",
    "DecaySpec",
    "DensityMatrix",
    "ErrorCoefficient",
    "EvolutionResult",
    "FieldSpec",
    "GateExperiment",
    "IntegrationError",
    "IntegratorConfig",
    "InvalidStateError",
    "PhotonBudget",
    "PhysicalConstants",
    "PulseSpec",
    "PureState",
    "RamanSpec",
    "energy_density_bound",
    "error_vs_photons",
    "evolve",
    "extract_coefficient",
    "failure_probability",
    "fidelity_pure",
    "fixed_intensity_area_sweep",
    "jc_evolve",
    "jc_gate_error",
    "kappa_from_beam",
    "lindblad_rhs",
    "make_operator",
    "min_photon_constraint",
    "photon_budget",
    "photon_flux",
    "raman_constraint",
    "spontaneous_emission_margins",
]
