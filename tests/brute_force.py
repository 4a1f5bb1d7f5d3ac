"""Brute-force references, shared by the test suites.

expanded_unitary builds the whole-register matrix of a gate the long way
round, so that state.apply_gate can be checked against it column by
column. It costs O(4**n) memory, which is why it is not library code.

rank_search_mapping_to_matrix is gates.mapping_to_matrix as it was before
it took the first 2**arity pairs directly: it picks the spanning inputs by
a greedy matrix_rank search (one SVD per candidate) and builds every ket
vector afresh wherever it needs one. The library must agree with it byte
for byte on the matrix and word for word on every MappingError.
"""
from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from fqz.gates import BasisMapping, Gate, KetExpr, MappingError, ket_vector
from fqz.linalg import DEFAULT_TOL


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


def rank_search_colliding_inputs(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> tuple[str, str] | None:
    """The first pair of inputs, in pair order, sent to the same state."""
    outputs = [(label, expr.vector(mapping.arity)) for label, expr in mapping.pairs]
    for (a, out_a), (b, out_b) in itertools.combinations(outputs, 2):
        if float(np.abs(out_a - out_b).max()) <= tol:
            return a, b
    return None


def _expr_text(expr: KetExpr) -> str:
    return " + ".join(f"({amp:g})|{label}>" for amp, label in expr.terms)
