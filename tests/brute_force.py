"""Brute-force reference for gate application, shared by the test suites.

expanded_unitary builds the whole-register matrix of a gate the long way
round, so that state.apply_gate can be checked against it column by
column. It costs O(4**n) memory, which is why it is not library code.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from fqz.gates import Gate


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
