"""Dense complex linear algebra over small Hilbert spaces, with quantum-state semantics.

Matrices are plain ``numpy.ndarray`` (complex128, row-major).  The two wrapper
types :class:`DensityMatrix` and :class:`PureState` validate the physical
invariants (Hermiticity, unit trace, positivity, normalization) once at
construction and are then treated as immutable values.

Basis ordering for the two-level atom is fixed package-wide:
index 0 = ground ``|b>``, index 1 = excited ``|a>``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Construction-time invariant tolerances.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_SLACK = 1e-9
PURITY_SLACK = 1e-9
NORM_TOL = 1e-12

GROUND = 0
EXCITED = 1

OPERATOR_KINDS = (
    "sigma_plus",
    "sigma_minus",
    "sigma_x",
    "projector_excited",
    "identity",
)


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state invariant."""


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)  # always copies; wrappers own their storage
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidStateError(f"expected a square matrix, got shape {m.shape}")
    return m


def max_abs(m: np.ndarray) -> float:
    """Largest entrywise modulus (the max norm used by all invariant checks)."""
    return float(np.max(np.abs(m))) if m.size else 0.0


def min_eigenvalue(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix.

    The 2x2 case is solved in closed form from trace and determinant; larger
    (truncated-Fock) matrices go through the dense Hermitian eigensolver.
    """
    if h.shape == (2, 2):
        half_tr = 0.5 * (h[0, 0].real + h[1, 1].real)
        half_diff = 0.5 * (h[0, 0].real - h[1, 1].real)
        disc = np.hypot(half_diff, abs(h[0, 1]))
        return float(half_tr - disc)
    return float(np.linalg.eigvalsh(h)[0])


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator: Hermitian, unit-trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        herm = max_abs(m - m.conj().T)
        if herm > HERMITICITY_TOL:
            raise InvalidStateError(f"density matrix not Hermitian: residue {herm:.3e}")
        tr = m.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise InvalidStateError(f"density matrix trace {tr:.12g} != 1")
        lo = min_eigenvalue(m)
        if lo < -POSITIVITY_SLACK:
            raise InvalidStateError(f"density matrix not positive: min eigenvalue {lo:.3e}")
        pur = float(np.real(np.trace(m @ m)))
        if not (1.0 / m.shape[0] - PURITY_SLACK <= pur <= 1.0 + PURITY_SLACK):
            raise InvalidStateError(f"purity {pur:.12g} outside [1/dim, 1]")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    @staticmethod
    def maximally_mixed(dim: int) -> "DensityMatrix":
        return DensityMatrix(np.eye(dim, dtype=complex) / dim)


@dataclass(frozen=True)
class PureState:
    """Normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if v.size < 1:
            raise InvalidStateError("state vector is empty")
        nrm2 = float(np.real(np.vdot(v, v)))
        if abs(nrm2 - 1.0) > NORM_TOL:
            raise InvalidStateError(f"state not normalized: |psi|^2 = {nrm2:.12g}")
        v.setflags(write=False)
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(np.outer(self.amplitudes, self.amplitudes.conj()))

    @staticmethod
    def ground() -> "PureState":
        return PureState(np.array([1.0, 0.0]))

    @staticmethod
    def excited() -> "PureState":
        return PureState(np.array([0.0, 1.0]))

    @staticmethod
    def superposition(c_ground: complex, c_excited: complex) -> "PureState":
        v = np.array([c_ground, c_excited], dtype=complex)
        nrm = np.linalg.norm(v)
        if nrm == 0.0:
            raise InvalidStateError("zero state vector")
        return PureState(v / nrm)


def make_operator(kind: str, dim: int) -> np.ndarray:
    """Standard atomic operators in the fixed (ground, excited) ordering.

    sigma_plus = |a><b|, sigma_minus = |b><a|; the identity is available at
    any dimension, everything else is strictly two-level.
    """
    if kind not in OPERATOR_KINDS:
        raise InvalidStateError(f"unknown operator kind {kind!r}")
    if kind == "identity":
        if dim < 1:
            raise InvalidStateError("identity needs dim >= 1")
        return np.eye(dim, dtype=complex)
    if dim != 2:
        raise InvalidStateError(f"atomic operator {kind} requires dim=2, got {dim}")
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    if kind == "sigma_minus":
        return sigma_minus
    if kind == "sigma_plus":
        return sigma_minus.conj().T
    if kind == "sigma_x":
        return sigma_minus + sigma_minus.conj().T
    return np.diag([0.0, 1.0]).astype(complex)  # projector_excited


def fidelity_pure(rho: DensityMatrix, target: PureState) -> float:
    """Overlap <psi|rho|psi>, clamped into [0, 1]."""
    if target.dim != rho.dim:
        raise InvalidStateError(
            f"dimension mismatch: rho dim {rho.dim}, target dim {target.dim}"
        )
    psi = target.amplitudes
    val = np.vdot(psi, rho.matrix @ psi)
    if abs(val.imag) > 1e-9:
        raise InvalidStateError(f"fidelity has imaginary residue {val.imag:.3e}")
    return float(min(1.0, max(0.0, val.real)))
