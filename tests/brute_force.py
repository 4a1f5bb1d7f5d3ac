"""Brute-force references, shared by the test suites.

expanded_unitary builds the whole-register matrix of a gate the long way
round, so that state.apply_gate can be checked against it column by
column. It costs O(4**n) memory, which is why it is not library code.

rank_search_mapping_to_matrix is gates.mapping_to_matrix as it was before
it took the first 2**arity pairs directly: it picks the spanning inputs by
a greedy matrix_rank search (one SVD per candidate) and builds every ket
vector afresh wherever it needs one. The library must agree with it byte
for byte on the matrix and word for word on every MappingError.

inverting_mapping_to_matrix and inverting_check_gate are
gates.mapping_to_matrix and checker.check_gate as they were before the
first built the inverse of basis-ket inputs as their transpose: the
matrix always comes from inv() of the defining inputs and every residual
is computed, and GATE-M compares through approx_equal, which re-coerces
both matrices and re-checks the tolerance. The library must agree with
them byte for byte on the matrix, word for word on every MappingError,
and on every rule of a report, for every valid tolerance.

reference_measure_qubit is state.measure_qubit as it was before it wrote
its post-state with np.zeros, math.sqrt and one reshape of the state, and
tested the empty branch with np.count_nonzero: np.zeros_like, np.sqrt,
.any() and a branch view built per use. The library must agree with it
on the bit, the bits of the probability and the bytes of the post-state.

reference_amplitudes_json is cli._amplitudes_json as it was before it
spelled each distinct part once: one str.format call writes all 2 * 2**n
parts, and the common-path test reads every part. The library must agree
with it byte for byte on every state.

conjugate_transpose and is_hermitian are the adjoint and the Hermitian
test the checker's OBS-2 rule computes inline; approx_equal is the
entrywise comparison GATE-M computes inline; builtin_gates is one shared
instance of every fixed built-in gate (R excluded: it needs an angle).
"""
from __future__ import annotations

import itertools
import json
import re
import sys
from typing import Sequence

import numpy as np

from fqz.checker import CheckReport, CheckResult
from fqz.gates import BasisMapping, Gate, KetExpr, MappingError, colliding_inputs, gate, ket_vector
from fqz.linalg import DEFAULT_TOL, as_matrix, check_tol, is_unitary
from fqz.rng import SplitMix64
from fqz.state import MeasurementResult, branch_probability


def builtin_gates() -> tuple[Gate, ...]:
    return tuple(gate(name) for name in ("I", "X", "Z", "H", "CNOT"))


def conjugate_transpose(m) -> np.ndarray:
    """Adjoint of m: transpose with every entry conjugated."""
    return as_matrix(m).conj().T


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff m is square and equals its adjoint within tol."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    check_tol(tol)
    return float(np.abs(m - m.conj().T).max()) <= tol


def approx_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff a and b share a shape and agree entrywise within tol."""
    check_tol(tol)
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        return False
    return float(np.abs(a - b).max()) <= tol


def expanded_unitary(g: Gate, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Whole-register matrix for g acting on targets (qubit 0 is the most
    significant bit of a basis index).

    Kron the gate with identities to act on the leading qubits, then
    conjugate by the permutation matrix that moves the targets to the
    front.
    """
    n = int(n_qubits)
    targets = tuple(int(t) for t in targets)
    assert len(targets) == g.arity and len(set(targets)) == g.arity, (g.name, targets)
    assert all(0 <= t < n for t in targets), (targets, n)
    order = targets + tuple(q for q in range(n) if q not in targets)
    dim = 2**n
    big = np.kron(np.asarray(g.matrix, dtype=np.complex128), np.eye(2 ** (n - g.arity), dtype=np.complex128))
    perm = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        j = 0
        for pos, q in enumerate(order):
            bit = (i >> (n - 1 - q)) & 1
            j |= bit << (n - 1 - pos)
        perm[j, i] = 1.0
    return perm.T @ big @ perm


def reference_measure_qubit(state, target: int, seed: int) -> MeasurementResult:
    """measure_qubit's result on a valid state and target (see the module docstring)."""
    psi = np.asarray(state, dtype=np.complex128)
    p_one = branch_probability(psi, target)
    bit = 1 if SplitMix64(seed).next_float() < p_one else 0
    if bit == 0 and p_one > 0 and not psi.reshape(2**target, 2, -1)[:, 0, :].any():
        bit = 1  # a drifted state can leave the sampled branch empty
    prob = p_one if bit == 1 else 1.0 - p_one
    post = np.zeros_like(psi)  # only branch `bit` is written, divided by sqrt(prob)
    np.divide(psi.reshape(2**target, 2, -1)[:, bit, :], np.sqrt(prob), out=post.reshape(2**target, 2, -1)[:, bit, :])
    return MeasurementResult(bit, post, prob)


def reference_amplitudes_json(state) -> str:
    """run --format json's amplitude rows (see the module docstring)."""
    parts = state.view(float)
    text = ("[" + ", ".join(["[{:.12}, {:.12}]"] * state.size) + "]").format(*parts.tolist())
    mags = abs(parts)
    if mags.max() <= 1.5 and not ((mags > 0) & (mags < sys.float_info.min)).any():
        return text
    return json.dumps([[float(real), float(imag)] for real, imag in re.findall(r"\[([^,\[]+), ([^\]]+)\]", text)])


def rank_search_mapping_to_matrix(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unique matrix U with U|input> = output for every pair, solved from
    the first spanning subset of inputs that a greedy rank search finds."""
    dim = 2**mapping.arity
    if not mapping.pairs:
        raise MappingError("empty mapping")
    v_in = np.column_stack([ket_vector(label, mapping.arity) for label, _ in mapping.pairs])
    v_out = np.column_stack([expr.vector(mapping.arity) for _, expr in mapping.pairs])
    chosen: list[int] = []
    for idx in range(len(mapping.pairs)):
        if np.linalg.matrix_rank(v_in[:, chosen + [idx]]) == len(chosen) + 1:
            chosen.append(idx)
        if len(chosen) == dim:
            break
    if len(chosen) < dim:
        raise MappingError(f"mapping is not total: its {len(mapping.pairs)} input kets do not span dimension {dim}")
    u = v_out[:, chosen] @ np.linalg.inv(v_in[:, chosen])
    for idx, (label, expr) in enumerate(mapping.pairs):
        residual = float(np.abs(u @ v_in[:, idx] - v_out[:, idx]).max())
        if residual > tol:
            raise MappingError(f"pair |{label}> -> {_expr_text(expr)} is inconsistent with the other pairs")
    eye = np.eye(dim, dtype=np.complex128)
    uh = u.conj().T
    if float(np.abs(u @ uh - eye).max()) > tol or float(np.abs(uh @ u - eye).max()) > tol:
        collision = rank_search_colliding_inputs(mapping, tol)
        if collision is not None:
            a, b = collision
            raise MappingError(f"inputs |{a}> and |{b}> map to the same state, so the mapping is not injective")
        raise MappingError("mapping does not induce a unitary matrix")
    return u


def inverting_mapping_to_matrix(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> np.ndarray:
    """mapping_to_matrix solving U from inv() of the first 2**arity
    inputs and checking every pair's residual."""
    dim = 2**mapping.arity
    if not mapping.pairs:
        raise MappingError("empty mapping")
    if len(mapping.pairs) < dim:
        raise MappingError(f"mapping is not total: its {len(mapping.pairs)} input kets do not span dimension {dim}")
    v_in = np.array([ket_vector(label, mapping.arity) for label, _ in mapping.pairs]).T
    v_out = np.array([expr.vector(mapping.arity) for _, expr in mapping.pairs]).T
    u = v_out[:, :dim] @ np.linalg.inv(v_in[:, :dim])
    residuals = np.abs(u @ v_in - v_out).max(axis=0)
    for (label, expr), residual in zip(mapping.pairs, residuals):
        if residual > tol:
            raise MappingError(f"pair |{label}> -> {_expr_text(expr)} is inconsistent with the other pairs")
    if not is_unitary(u, tol):
        collision = colliding_inputs(mapping, tol)
        if collision is not None:
            a, b = collision
            raise MappingError(f"inputs |{a}> and |{b}> map to the same state, so the mapping is not injective")
        raise MappingError("mapping does not induce a unitary matrix")
    return u


@np.errstate(over="ignore", invalid="ignore")
def inverting_check_gate(g: Gate, tol: float = DEFAULT_TOL) -> CheckReport:
    """check_gate over inverting_mapping_to_matrix and approx_equal."""
    try:
        matrix = as_matrix(g.matrix)
    except ValueError as exc:
        matrix = None
        unitary, detail = False, str(exc)
    else:
        unitary, detail = is_unitary(matrix, tol), f"arity {g.arity}"
    checks = [CheckResult("GATE-U", f"matrix of {g.name} is unitary", unitary, detail)]

    if matrix is None:
        consistent, detail = False, "skipped: not a matrix"
    elif g.mapping is None:
        consistent, detail = True, "no mapping given"
    else:
        try:
            induced = inverting_mapping_to_matrix(g.mapping, tol)
            consistent = approx_equal(induced, matrix, tol)
            detail = "induced matrix agrees" if consistent else "induced matrix differs"
        except MappingError as exc:
            consistent = False
            detail = str(exc)
    checks.append(CheckResult("GATE-M", f"{g.name} matrix matches its mapping", consistent, detail))

    collision = None if g.mapping is None else colliding_inputs(g.mapping, tol)
    if g.mapping is None:
        detail = "no mapping given"
    elif collision is None:
        detail = "all mapping outputs distinct"
    else:
        detail = f"inputs |{collision[0]}> and |{collision[1]}> map to the same state"
    checks.append(CheckResult("GATE-INJ", f"mapping of {g.name} is injective", collision is None, detail))
    return CheckReport(g.name, tuple(checks))


def rank_search_colliding_inputs(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> tuple[str, str] | None:
    """The first pair of inputs, in pair order, sent to the same state."""
    outputs = [(label, expr.vector(mapping.arity)) for label, expr in mapping.pairs]
    for (a, out_a), (b, out_b) in itertools.combinations(outputs, 2):
        if float(np.abs(out_a - out_b).max()) <= tol:
            return a, b
    return None


def _expr_text(expr: KetExpr) -> str:
    return " + ".join(f"({amp:g})|{label}>" for amp, label in expr.terms)
