"""Built-in gate set, defined both ways.

Every built-in gate carries a unitary matrix and, where the gate has a
natural description as a map on basis states, that description as a
BasisMapping. mapping_to_matrix recompiles a mapping into the unique
matrix it induces, so the two definitions cross-check each other. Input
labels are distinct kets of one alphabet ({0, 1, +, -} for one qubit, the
computational basis for two), any 2**arity of which are independent: the
first 2**arity pairs fix the matrix, and each further pair is checked.
Basis-ket inputs are inverted exactly by transposing (induced_matrix).

Conventions used everywhere in this package:
  * big-endian qubit order: in a two-qubit label "xy", x is the most
    significant bit, so |xy> lives at basis index 2x + y;
  * |+> = (|0> + |1>)/sqrt(2) and |-> = (|0> - |1>)/sqrt(2) with those
    fixed real coefficients;
  * gate names are canonical uppercase strings (I, X, Z, H, R, CNOT).
"""
from __future__ import annotations

import cmath
import functools
import itertools
import math
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .linalg import DEFAULT_TOL, as_matrix, check_tol, is_unitary_square

_SQRT_HALF = 1.0 / math.sqrt(2.0)

_LABEL_VECTORS = {
    "0": np.array([1.0, 0.0], dtype=np.complex128),
    "1": np.array([0.0, 1.0], dtype=np.complex128),
    "+": np.array([_SQRT_HALF, _SQRT_HALF], dtype=np.complex128),
    "-": np.array([_SQRT_HALF, -_SQRT_HALF], dtype=np.complex128),
}


class MappingError(ValueError):
    """A BasisMapping does not induce a unitary matrix."""


def _check_label(label: str, arity: int) -> None:
    if arity == 1:
        if label not in _LABEL_VECTORS:
            raise ValueError(f"bad 1-qubit ket label {label!r}: expected one of 0, 1, +, -")
    else:
        if len(label) != arity or any(c not in "01" for c in label):
            raise ValueError(f"bad {arity}-qubit ket label {label!r}: expected {arity} chars over 0/1")


def ket_vector(label: str, arity: int) -> np.ndarray:
    """Column of the state vector for a single ket label."""
    _check_label(label, arity)
    if arity == 1:
        return _LABEL_VECTORS[label].copy()
    v = np.zeros(2**arity, dtype=np.complex128)
    v[int(label, 2)] = 1.0
    return v


class KetExpr(NamedTuple("KetExpr", [("terms", tuple)])):
    """Unit-norm linear combination of ket labels, e.g. e^(i*phi)|1>."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, terms: tuple[tuple[complex, str], ...]):
        if not terms:
            raise ValueError("ket expression must have at least one term")
        labels = [label for _, label in terms]
        if len(set(labels)) != len(labels):
            raise ValueError(f"ket expression repeats a label: {labels}")
        norm_sq = sum(abs(amp) ** 2 for amp, _ in terms)
        if not abs(norm_sq - 1.0) <= DEFAULT_TOL:  # a NaN amplitude fails here too
            raise ValueError(f"ket expression is not unit norm: |.|^2 = {norm_sq}")
        return super().__new__(cls, terms)

    def vector(self, arity: int) -> np.ndarray:
        out = np.zeros(2**arity, dtype=np.complex128)
        for amp, label in self.terms:
            out += complex(amp) * ket_vector(label, arity)
        return out


def ket(label: str, amp: complex = 1.0) -> KetExpr:
    """Single-term ket expression amp|label>."""
    return KetExpr(((complex(amp), label),))


class BasisMapping(NamedTuple("BasisMapping", [("arity", int), ("pairs", tuple)])):
    """Gate described as input ket -> output ket expression pairs."""

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, arity: int, pairs: tuple[tuple[str, KetExpr], ...]):
        if arity not in (1, 2):
            raise ValueError(f"gate arity must be 1 or 2, got {arity}")
        inputs = [label for label, _ in pairs]
        for label in inputs:
            _check_label(label, arity)
        if len(set(inputs)) != len(inputs):
            raise ValueError(f"mapping repeats an input ket: {inputs}")
        return super().__new__(cls, arity, pairs)

    @cached_property
    def _outputs(self) -> np.ndarray:
        """Output vector of every pair, one column each, built once per
        mapping for mapping_to_matrix and colliding_inputs; read-only."""
        v_out = np.array([expr.vector(self.arity) for _, expr in self.pairs]).T
        v_out.setflags(write=False)
        return v_out


def mapping_to_matrix(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unique matrix U with U|input> = output for every pair of the mapping.

    The first 2**arity pairs define U, their inputs being independent (see
    the module docstring); with fewer the mapping is not total. Any further
    pair (Hadamard's are quoted in both bases) is held against U, and the
    first that disagrees is named. Mappings that fail to induce a unitary
    are rejected, in particular two inputs sent to the same state. U comes
    from induced_matrix, which check_gate calls itself to share a test.
    """
    u = induced_matrix(mapping, tol)
    if not is_unitary_square(u, tol):
        raise not_unitary_error(colliding_inputs(mapping, tol))
    return u


def induced_matrix(mapping: BasisMapping, tol: float) -> np.ndarray:
    """mapping_to_matrix's U and MappingErrors, short of testing U's unitarity.

    Exactly 2**arity basis-labelled inputs (every built-in but H) form a
    permutation P that LAPACK inverts exactly to P^T. A built P^T gives the
    same bytes (zgemm signs Z's U[1, 0] -0; a column move would not), and,
    finite values times 1 or 0 being exact, residuals of exactly 0.
    """
    check_tol(tol)
    dim = 2**mapping.arity
    if not mapping.pairs:
        raise MappingError("empty mapping")
    if len(mapping.pairs) < dim:
        raise MappingError(f"mapping is not total: its {len(mapping.pairs)} input kets do not span dimension {dim}")
    v_out = mapping._outputs
    if len(mapping.pairs) == dim and {"+", "-"}.isdisjoint(label for label, _ in mapping.pairs):
        return v_out @ np.eye(dim, dtype=np.complex128)[[int(label, 2) for label, _ in mapping.pairs]]
    v_in = np.array([ket_vector(label, mapping.arity) for label, _ in mapping.pairs]).T
    u = v_out[:, :dim] @ np.linalg.inv(v_in[:, :dim])
    residuals = np.abs(u @ v_in - v_out).max(axis=0)
    for (label, expr), residual in zip(mapping.pairs, residuals):
        if residual > tol:
            raise MappingError(f"pair |{label}> -> {_expr_text(expr)} is inconsistent with the other pairs")
    return u


def not_unitary_error(collision: tuple[str, str] | None) -> MappingError:
    """mapping_to_matrix's error for a U that is not unitary, given colliding_inputs."""
    if collision is None:
        return MappingError("mapping does not induce a unitary matrix")
    a, b = collision
    return MappingError(f"inputs |{a}> and |{b}> map to the same state, so the mapping is not injective")


def colliding_inputs(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> tuple[str, str] | None:
    """The first pair of inputs, in pair order, that the mapping sends to
    the same state (within tol), or None if the mapping is injective."""
    check_tol(tol)
    if len(mapping.pairs) < 2:
        return None
    v_out = mapping._outputs
    gaps = np.abs(v_out[:, :, None] - v_out[:, None, :]).max(axis=0).tolist()
    for i, j in itertools.combinations(range(len(gaps)), 2):
        if gaps[i][j] <= tol:
            return mapping.pairs[i][0], mapping.pairs[j][0]
    return None


def _expr_text(expr: KetExpr) -> str:
    return " + ".join(f"({amp:g})|{label}>" for amp, label in expr.terms)


class Gate(NamedTuple):
    """Named unitary with an optional basis-mapping definition.

    Construction does not re-verify unitarity; the checker module reports
    on gates, including deliberately broken ones, without raising.
    """

    name: str
    arity: int
    matrix: np.ndarray
    mapping: BasisMapping | None = None
    parameter: float | None = None
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # identity, as the matrix is an array


def identity_gate() -> Gate:
    mapping = BasisMapping(1, (("0", ket("0")), ("1", ket("1"))))
    return Gate("I", 1, np.eye(2, dtype=np.complex128), mapping)


def pauli_x() -> Gate:
    mapping = BasisMapping(1, (("0", ket("1")), ("1", ket("0"))))
    matrix = as_matrix([[0, 1], [1, 0]])
    return Gate("X", 1, matrix, mapping)


def phase_shift(phi: float) -> Gate:
    """R(phi): leaves |0> alone and multiplies |1> by e^(i*phi)."""
    validate_gate_args("R", phi)
    phi = float(phi)
    phase = cmath.exp(1j * phi)
    mapping = BasisMapping(1, (("0", ket("0")), ("1", ket("1", phase))))
    matrix = as_matrix([[1, 0], [0, phase]])
    return Gate("R", 1, matrix, mapping, parameter=phi)


def pauli_z() -> Gate:
    mapping = BasisMapping(1, (("0", ket("0")), ("1", ket("1", -1.0))))
    matrix = as_matrix([[1, 0], [0, -1]])
    return Gate("Z", 1, matrix, mapping)


def hadamard() -> Gate:
    # Four pairs, quoted over the {0, +, 1, -} alphabet; mapping_to_matrix
    # checks the redundant two against the induced matrix.
    mapping = BasisMapping(
        1,
        (
            ("0", ket("+")),
            ("+", ket("0")),
            ("1", ket("-")),
            ("-", ket("1")),
        ),
    )
    matrix = as_matrix([[_SQRT_HALF, _SQRT_HALF], [_SQRT_HALF, -_SQRT_HALF]])
    return Gate("H", 1, matrix, mapping)


def cnot() -> Gate:
    """Controlled NOT; the first (most significant) qubit is the control."""
    mapping = BasisMapping(
        2,
        (
            ("00", ket("00")),
            ("01", ket("01")),
            ("10", ket("11")),
            ("11", ket("10")),
        ),
    )
    matrix = as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    return Gate("CNOT", 2, matrix, mapping)


_FIXED_GATES = {
    "I": identity_gate,
    "X": pauli_x,
    "Z": pauli_z,
    "H": hadamard,
    "CNOT": cnot,
}


def validate_gate_args(name: str, parameter: float | None) -> None:
    """Raise ValueError unless `name` is a built-in gate and `parameter` is
    given exactly when the gate takes an angle (only R does, and it must be
    finite). Builds nothing."""
    if name == "R":
        if parameter is None:
            raise ValueError("gate R requires an angle parameter")
        try:
            angle = float(parameter)
        except (TypeError, ValueError):
            raise ValueError(f"gate R needs a real angle, got {parameter!r}") from None
        if not math.isfinite(angle):
            raise ValueError(f"phase angle must be finite, got {angle!r}")
    elif parameter is not None:
        raise ValueError(f"gate {name} takes no parameter")
    elif name not in _FIXED_GATES:
        raise ValueError(f"unknown gate name {name!r}")


# Built gates kept per process by gate() and circuit.oracle_gate: the fixed
# five plus the most recently used R angles and oracles.
GATE_CACHE_SIZE = 256


def shared(g: Gate) -> Gate:
    """Make g's matrix read-only, so that every caller can share g."""
    g.matrix.setflags(write=False)
    return g


@functools.lru_cache(maxsize=GATE_CACHE_SIZE)
def _built(name: str, angle_hex: str | None) -> Gate:
    if name == "R":
        return shared(phase_shift(float.fromhex(angle_hex)))
    return shared(_FIXED_GATES[name]())


def gate_key(name: str, parameter: float | None = None) -> tuple[str, str | None]:
    """The identity of a built-in gate: its name and the exact bits of its
    angle (float.hex), so R(-0.0) and R(0.0) are two gates."""
    return name, None if parameter is None else float(parameter).hex()


def gate(name: str, parameter: float | None = None) -> Gate:
    """Look up a built-in gate by canonical name. The Gate is built once
    per gate_key and shared, so its matrix is read-only."""
    validate_gate_args(name, parameter)
    return _built(*gate_key(name, parameter))
