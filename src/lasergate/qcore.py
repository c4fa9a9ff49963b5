"""States of one two-level atom, and the small dense linear algebra they need.

A matrix is a tuple of row tuples of Python ``complex``, a state vector a
tuple of ``complex``, and a stack of matrices a tuple of matrices: immutable
values, built from any nested sequence of numbers (numpy arrays included).
Both models of the package act on one two-level atom, and the two wrapper
types enforce that once, at construction: :class:`DensityMatrix` accepts a
2x2 matrix only and :class:`PureState` 2 amplitudes only.  They also
validate the physical invariants (Hermiticity, unit trace, positivity,
normalization).  The density-matrix invariants have one home:
:func:`check_density_columns` checks, in closed form, a stack of Hermitian
matrices held as columns of populations and coherence, as a trajectory is,
with the purity of :func:`purities`.  :func:`check_densities` checks a stack
of 2x2 matrices as its Hermiticity residue and then those columns, and a
single :class:`DensityMatrix` is a stack of one.  Every record type of the
package derives from :class:`Record`.

Basis ordering for the two-level atom is fixed package-wide:
index 0 = ground ``|b>``, index 1 = excited ``|a>``.
"""

from __future__ import annotations

import math
from operator import add, mul

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


def _as_complex_matrix(entries) -> tuple:
    try:
        m = tuple([tuple(map(complex, row)) for row in entries])
    except (TypeError, ValueError) as exc:
        raise InvalidStateError(f"expected a 2x2 matrix of numbers: {exc}") from None
    lengths = [len(row) for row in m]
    if lengths != [2, 2]:
        raise InvalidStateError(f"expected a 2x2 matrix, got rows of lengths {lengths}")
    return m


def matmul(a, b) -> tuple:
    """The product of two matrices, each a sequence of rows."""
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def matvec(a, v) -> tuple:
    """The product of a matrix, a sequence of rows, and a vector."""
    return tuple(sum(map(mul, row, v)) for row in a)


def _exp10(y: float) -> float:
    """10**y, inf past the double range as in IEEE arithmetic."""
    try:
        return 10.0 ** y
    except OverflowError:
        return math.inf


def logspace(start: float, stop: float, num: int) -> tuple:
    """``num`` powers of ten with exponents evenly spaced from ``start`` to
    ``stop``, both included: 10**(i * step + start), and 10**stop last."""
    if num < 2:
        return (_exp10(start),) * num
    step = (stop - start) / (num - 1)
    return (*(_exp10(i * step + start) for i in range(num - 1)), _exp10(stop))


_BROKEN = (
    ("density matrix not Hermitian: residue {:.3e}", lambda herm: not herm <= HERMITICITY_TOL),
    ("density matrix trace {:.12g} != 1", lambda trace: abs(trace - 1.0) > TRACE_TOL),
    ("density matrix not positive: min eigenvalue {:.3e}", lambda lo: lo < -POSITIVITY_SLACK),
    ("purity {:.12g} outside [1/2, 1]",
     lambda pur: not 0.5 - PURITY_SLACK <= pur <= 1.0 + PURITY_SLACK),
)


def _refuse_broken(checks, columns) -> None:
    """Raise :class:`InvalidStateError` for the first of ``checks``, (message,
    test) pairs of ``_BROKEN``, that a value of its column of ``columns``
    fails, naming the matrix of the first such value (by index, in a stack
    of several)."""
    for (text, broken), column in zip(checks, columns):
        for i, value in enumerate(column):
            if broken(value):
                message = text.format(value)
                raise InvalidStateError(message if len(column) == 1 else f"state {i}: {message}")


def purities(rho_bb, rho_aa, re_rho_ab, im_rho_ab) -> list:
    """tr(rho^2) of each matrix ((rho_bb, rho_ab*), (rho_ab, rho_aa)) given by
    its columns of populations and coherence."""
    return [(b * b + (p := r * r + i * i)) + (p + a * a)
            for b, a, r, i in zip(rho_bb, rho_aa, re_rho_ab, im_rho_ab)]


def check_density_columns(rho_bb, rho_aa, re_rho_ab, im_rho_ab) -> None:
    """Raise :class:`InvalidStateError` unless every matrix ((rho_bb, rho_ab*),
    (rho_ab, rho_aa)) of the stack given by its columns of populations and
    coherence is of unit trace, positive semidefinite and of purity in
    [1/2, 1], within the tolerances above; such a matrix is Hermitian by
    construction.  The error names the first broken invariant, in that
    order, and the first matrix that breaks it (by index, in a stack of
    several).  NaN entries fail.
    """
    trace = list(map(add, rho_bb, rho_aa))
    pur = purities(rho_bb, rho_aa, re_rho_ab, im_rho_ab)
    # A non-finite entry makes its purity NaN or inf; once every purity is
    # finite, the extremes of trace and purity decide.  A Hermitian 2x2 matrix
    # of trace t and purity P has smallest eigenvalue (t - sqrt(2P - t^2)) / 2,
    # so within the trace and purity tolerances it stays above -6.1e-10, inside
    # POSITIVITY_SLACK: the eigenvalues are needed only to name what broke.
    if (pur and math.isfinite(sum(pur))
            and abs(max(trace) - 1.0) <= TRACE_TOL and abs(min(trace) - 1.0) <= TRACE_TOL
            and 0.5 - PURITY_SLACK <= min(pur) and max(pur) <= 1.0 + PURITY_SLACK):
        return
    lowest = [0.5 * t - math.hypot(0.5 * (b - a), math.hypot(r, i))
              for t, b, a, r, i in zip(trace, rho_bb, rho_aa, re_rho_ab, im_rho_ab)]
    _refuse_broken(_BROKEN[1:], (list(map(complex, trace)), lowest, pur))


def check_densities(states) -> None:
    """Raise :class:`InvalidStateError` unless every 2x2 matrix of the stack
    ``states`` is Hermitian within ``HERMITICITY_TOL`` and its Hermitian form
    ((Re rho_bb, rho_ab*), (rho_ab, Re rho_aa)), with rho_ab its lower-left
    entry, passes :func:`check_density_columns`.  A residue is refused first,
    in the first matrix that has one, before any other invariant; the
    residue is NaN, and refused, where a NaN entry leaves it unknown."""
    residues, rho_bb, rho_aa, re_rho_ab, im_rho_ab = [], [], [], [], []
    for (a, b), (c, d) in states:  # one pass: the cost of a single DensityMatrix
        # |b - c*| as hypot of its parts: abs() of a complex raises
        # OverflowError where hypot returns inf.  Each term is >= 0 or NaN, so
        # their sum is NaN exactly when one is, a NaN max() may drop.
        x, y, z = (2.0 * abs(a.imag), math.hypot(b.real - c.real, b.imag + c.imag),
                   2.0 * abs(d.imag))
        total = x + y + z
        residues.append(total if math.isnan(total) else max(x, y, z))
        rho_bb.append(a.real)
        rho_aa.append(d.real)
        re_rho_ab.append(c.real)
        im_rho_ab.append(c.imag)
    _refuse_broken(_BROKEN[:1], (residues,))
    check_density_columns(rho_bb, rho_aa, re_rho_ab, im_rho_ab)


class DensityMatrix(Record):
    """Validated density operator of the two-level atom: a 2x2 matrix that is
    Hermitian, unit-trace and positive semidefinite."""

    matrix: tuple

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        check_densities((m,))
        object.__setattr__(self, "matrix", m)

    def purity(self) -> float:
        (rho_bb, _), (rho_ab, rho_aa) = self.matrix
        return purities((rho_bb.real,), (rho_aa.real,), (rho_ab.real,), (rho_ab.imag,))[0]


class PureState(Record):
    """Normalized state vector of the two-level atom: 2 amplitudes."""

    amplitudes: tuple

    def __post_init__(self):
        try:
            v = tuple(complex(x) for x in self.amplitudes)
        except (TypeError, ValueError) as exc:
            raise InvalidStateError(f"expected a vector of numbers: {exc}") from None
        if len(v) != 2:
            raise InvalidStateError(f"expected 2 amplitudes, got {len(v)}")
        nrm2 = sum(x.real * x.real + x.imag * x.imag for x in v)
        if not abs(nrm2 - 1.0) <= NORM_TOL:  # NaN amplitudes fail too
            raise InvalidStateError(f"state not normalized: |psi|^2 = {nrm2:.12g}")
        object.__setattr__(self, "amplitudes", v)

    def to_density(self) -> DensityMatrix:
        v = self.amplitudes
        return DensityMatrix(tuple(tuple(x * y.conjugate() for y in v) for x in v))

    @staticmethod
    def ground() -> "PureState":
        return PureState((1.0, 0.0))

    @staticmethod
    def excited() -> "PureState":
        return PureState((0.0, 1.0))

    @staticmethod
    def superposition(c_ground: complex, c_excited: complex) -> "PureState":
        v = (complex(c_ground), complex(c_excited))
        nrm = math.hypot(v[0].real, v[0].imag, v[1].real, v[1].imag)
        if nrm == 0.0:
            raise InvalidStateError("zero state vector")
        return PureState((v[0] / nrm, v[1] / nrm))


def rotation(theta: float) -> tuple:
    """The decay-free pulse exp(-i theta sigma_x / 2), as a 2x2 complex matrix."""
    c, s = complex(math.cos(theta / 2.0), 0.0), complex(0.0, -math.sin(theta / 2.0))
    return ((c, s), (s, c))


def psi_perp(theta: float, psi) -> tuple:
    """The state orthogonal to the decay-free output rotation(theta) psi:
    (-t_a*, t_b*) for t = rotation(theta) psi, the state a gate error leaves
    population in."""
    t = matvec(rotation(theta), psi)
    return (-t[1].conjugate(), t[0].conjugate())


def fidelity_pure(rho: DensityMatrix, target: PureState) -> float:
    """Overlap <psi|rho|psi>, clamped into [0, 1]."""
    psi = target.amplitudes
    val = sum(map(mul, (x.conjugate() for x in psi), matvec(rho.matrix, psi)))
    if abs(val.imag) > 1e-9:
        raise InvalidStateError(f"fidelity has imaginary residue {val.imag:.3e}")
    return min(1.0, max(0.0, val.real))
