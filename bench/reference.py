"""A small dense state-vector simulator, independent of fqz.

It reads the generator's op tuples (see workloads.py) directly and shares
no code with the package under test, so agreement between the two is
evidence rather than a tautology. Conventions follow the .fqz language:
qubit 0 (the first allocated) is the most significant bit of a basis index,
and N[f] c r sends |c, r> to |c, f(c) XOR r>.
"""
from __future__ import annotations

import numpy as np

from workloads import ANGLES

_S = 1.0 / np.sqrt(2.0)
KET = {
    "|0>": (1.0, 0.0),
    "|1>": (0.0, 1.0),
    "|+>": (_S, _S),
    "|->": (_S, -_S),
    "H|0>": (_S, _S),
    "H|1>": (_S, -_S),
}
FIXED = {
    "I": np.eye(2),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
    "H": np.array([[_S, _S], [_S, -_S]]),
}
ORACLE_TABLE = {"const0": (0, 0), "const1": (1, 1), "id": (0, 1), "not": (1, 0)}


def _matrix(name: str, angle: str | None) -> np.ndarray:
    if name == "R":
        return np.diag([1.0, np.exp(1j * ANGLES[angle])])
    return FIXED[name]


def _apply_single(psi: np.ndarray, m: np.ndarray, q: int, n: int) -> np.ndarray:
    t = psi.reshape(2**q, 2, 2 ** (n - q - 1))
    return np.einsum("ab,ibj->iaj", m, t).reshape(-1)


def _apply_oracle(psi: np.ndarray, table: tuple[int, int], c: int, r: int, n: int) -> np.ndarray:
    idx = np.arange(psi.size)
    fx = np.asarray(table)[(idx >> (n - 1 - c)) & 1]
    out = np.empty_like(psi)
    out[idx ^ (fx << (n - 1 - r))] = psi
    return out


def pre_measurement_state(oracles, ops) -> np.ndarray:
    """The register just before the first measure, or after the last op."""
    kinds = dict(oracles)
    names: list[str] = []
    psi = np.ones(1, dtype=np.complex128)
    for op in ops:
        if op[0] == "measure":
            break
        if op[0] == "alloc":
            names.append(op[1])
            psi = np.kron(psi, np.asarray(KET[op[2]], dtype=np.complex128))
        elif op[0] == "gate":
            psi = _apply_single(psi, _matrix(op[1], op[3]), names.index(op[2]), len(names))
        else:
            table = ORACLE_TABLE[kinds[op[1]]]
            psi = _apply_oracle(psi, table, names.index(op[2]), names.index(op[3]), len(names))
    return psi
