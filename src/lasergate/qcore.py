"""Dense complex linear algebra over small Hilbert spaces, with quantum-state semantics.

Matrices are plain ``numpy.ndarray`` (complex128, row-major).  The two wrapper
types :class:`DensityMatrix` and :class:`PureState` validate the physical
invariants (Hermiticity, unit trace, positivity, normalization) once at
construction and are then treated as immutable values.  The density-matrix
invariants have one home, :func:`check_densities`, which checks a whole
(k, n, n) stack in one call; a single :class:`DensityMatrix` is a stack of one.
Every record type of the package derives from :class:`Record`.

Basis ordering for the two-level atom is fixed package-wide:
index 0 = ground ``|b>``, index 1 = excited ``|a>``.
"""

from __future__ import annotations

import numpy as np

# Construction-time invariant tolerances.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
POSITIVITY_SLACK = 1e-9
PURITY_SLACK = 1e-9
NORM_TOL = 1e-12


class InvalidStateError(ValueError):
    """A matrix or vector violates a quantum-state invariant."""


class Record:
    """Immutable value with named fields, the base of every record type.

    A subclass declares its fields as class annotations, in order, and a
    class-level value is that field's default.  Construction takes the fields
    positionally or by keyword, then calls ``__post_init__``, which may
    normalize a field with ``object.__setattr__``.  Repr, equality and hash
    are field-wise; assigning or deleting an attribute raises
    :class:`AttributeError`.  Unlike ``dataclasses``, nothing is compiled per
    class, so defining a record costs next to nothing at import.
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__annotations__
        cls._fields = (*cls._fields, *own)
        cls._defaults = {**cls._defaults, **{k: vars(cls)[k] for k in own if k in vars(cls)}}

    def __init__(self, *args, **kwargs):
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(f"{cls.__name__} takes {len(fields)} fields, got {len(args)} "
                            "positional arguments")
        for name in kwargs:
            if name not in fields:
                raise TypeError(f"{cls.__name__} has no field {name!r}")
        state = self.__dict__
        for i, name in enumerate(fields):
            if i < len(args):
                if name in kwargs:
                    raise TypeError(f"{cls.__name__} got field {name!r} twice")
                state[name] = args[i]
            elif name in kwargs:
                state[name] = kwargs[name]
            elif name in cls._defaults:
                state[name] = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__} is missing field {name!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")


def _as_complex_matrix(entries) -> np.ndarray:
    m = np.array(entries, dtype=complex)  # always copies; wrappers own their storage
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise InvalidStateError(f"expected a square matrix, got shape {m.shape}")
    return m


def min_eigenvalue(h: np.ndarray) -> np.ndarray | float:
    """Smallest eigenvalue of a Hermitian matrix, or of each matrix in a
    (k, n, n) stack.

    The 2x2 case is solved in closed form from trace and determinant; larger
    (truncated-Fock) matrices go through the dense Hermitian eigensolver.
    """
    if h.shape[-2:] == (2, 2):
        a, d = h[..., 0, 0].real, h[..., 1, 1].real
        return 0.5 * (a + d) - np.hypot(0.5 * (a - d), np.abs(h[..., 0, 1]))
    return np.linalg.eigvalsh(h)[..., 0]


def purities(m: np.ndarray) -> np.ndarray:
    """tr(rho^2) of a matrix, or of each matrix in a (k, n, n) stack."""
    return (m @ m).trace(axis1=-2, axis2=-1).real


def check_densities(m: np.ndarray) -> None:
    """Raise :class:`InvalidStateError` unless every matrix of the stack ``m``
    (k, n, n) is Hermitian, of unit trace, positive semidefinite and of purity
    in [1/n, 1], within the tolerances above.  The error names the first
    broken invariant, in that order, and the first matrix that breaks it (by
    index, in a stack of several)."""
    herm = np.abs(m - m.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    tr = m.trace(axis1=-2, axis2=-1)
    lo = min_eigenvalue(m)
    pur = purities(m)
    purity_ok = (1.0 / m.shape[-1] - PURITY_SLACK <= pur) & (pur <= 1.0 + PURITY_SLACK)
    checks = (
        (herm > HERMITICITY_TOL, "density matrix not Hermitian: residue {:.3e}", herm),
        (np.abs(tr - 1.0) > TRACE_TOL, "density matrix trace {:.12g} != 1", tr),
        (lo < -POSITIVITY_SLACK, "density matrix not positive: min eigenvalue {:.3e}", lo),
        (~purity_ok, "purity {:.12g} outside [1/dim, 1]", pur),
    )
    if not (checks[0][0] | checks[1][0] | checks[2][0] | checks[3][0]).any():
        return
    for broken, text, values in checks:
        if broken.any():
            i = int(np.argmax(broken))
            message = text.format(values[i])
            raise InvalidStateError(message if len(m) == 1 else f"state {i}: {message}")


class DensityMatrix(Record):
    """Validated density operator: Hermitian, unit-trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        check_densities(m[None])
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def purity(self) -> float:
        return float(purities(self.matrix))


class PureState(Record):
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


def rotation(theta: float) -> np.ndarray:
    """The decay-free pulse exp(-i theta sigma_x / 2), as a 2x2 complex matrix."""
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    return np.cos(theta / 2.0) * np.eye(2) - 1j * np.sin(theta / 2.0) * sigma_x


def fidelity_pure(rho: DensityMatrix, target: PureState) -> float:
    """Overlap <psi|rho|psi>, clamped into [0, 1]."""
    if target.dim != rho.dim:
        raise InvalidStateError(
            f"dimension mismatch: rho dim {rho.dim}, target dim {target.dim}"
        )
    return float(pure_fidelities(rho.matrix[None], target)[0])


def pure_fidelities(states: np.ndarray, target: PureState) -> np.ndarray:
    """Overlap <psi|rho|psi> of each matrix in a validated (k, n, n) stack,
    clamped into [0, 1]."""
    psi = target.amplitudes
    out = np.empty(len(states))
    for i, rho in enumerate(states):
        val = np.vdot(psi, rho @ psi)
        if abs(val.imag) > 1e-9:
            raise InvalidStateError(f"fidelity has imaginary residue {val.imag:.3e}")
        out[i] = min(1.0, max(0.0, val.real))
    return out
