"""State-vector registers and measurement.

A register state is a 1-D complex128 array of length 2**n in big-endian
basis order: qubit 0 is the most significant bit of the basis index, so
for two qubits |xy> sits at index 2x + y. Registers are capped at 12
qubits (4096 amplitudes); everything is dense.

Gate application comes in two routes that must agree:

  * apply_gate reshapes the state to an n-axis tensor and contracts the
    gate against the target axes;
  * expanded_unitary builds the full 2**n x 2**n matrix from a Kronecker
    product and an explicit basis permutation.

The second is the brute-force reference the first is tested against.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .gates import Gate
from .rng import SplitMix64

MAX_QUBITS = 12


def as_state(data) -> np.ndarray:
    """Coerce to a 1-D complex128 amplitude vector of power-of-two length."""
    s = np.asarray(data, dtype=np.complex128)
    if s.ndim != 1:
        raise ValueError(f"expected a 1-D amplitude vector, got shape {s.shape}")
    n = int(s.size).bit_length() - 1
    if s.size != 2**n:
        raise ValueError(f"amplitude vector length must be a power of two, got {s.size}")
    if not np.isfinite(s.real).all() or not np.isfinite(s.imag).all():
        raise ValueError("amplitudes must be finite")
    return s


def num_qubits(state) -> int:
    return int(as_state(state).size).bit_length() - 1


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> on an n_qubits register."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"register size must be between 1 and {MAX_QUBITS} qubits, got {n_qubits}")
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubit(s)")
    s = np.zeros(2**n_qubits, dtype=np.complex128)
    s[index] = 1.0
    return s


def _check_targets(g: Gate, targets: Sequence[int], n: int) -> tuple[int, ...]:
    targets = tuple(int(t) for t in targets)
    if len(targets) != g.arity:
        raise ValueError(f"gate {g.name} has arity {g.arity} but got {len(targets)} target(s) {targets}")
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubit in {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target qubit {t} out of range for a {n}-qubit register")
    return targets


def apply_gate(state, g: Gate, targets: Sequence[int]) -> np.ndarray:
    """Apply g to the given qubits; the first target is the gate's most
    significant input (for CNOT, the control)."""
    psi = as_state(state)
    n = psi.size.bit_length() - 1
    targets = _check_targets(g, targets, n)
    a = g.arity
    t = psi.reshape((2,) * n)
    t = np.moveaxis(t, targets, tuple(range(a)))
    op = np.asarray(g.matrix, dtype=np.complex128).reshape((2,) * (2 * a))
    t = np.tensordot(op, t, axes=(tuple(range(a, 2 * a)), tuple(range(a))))
    t = np.moveaxis(t, tuple(range(a)), targets)
    return t.reshape(-1)


def expanded_unitary(g: Gate, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Whole-register matrix for g acting on targets.

    Built the long way round: kron the gate with identities to act on the
    leading qubits, then conjugate by the permutation matrix that moves
    the targets to the front. Reference route for apply_gate.
    """
    n = int(n_qubits)
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"register size must be between 1 and {MAX_QUBITS} qubits, got {n}")
    targets = _check_targets(g, targets, n)
    dim = 2**n
    big = np.kron(np.asarray(g.matrix, dtype=np.complex128), np.eye(2 ** (n - g.arity), dtype=np.complex128))
    order = list(targets) + [q for q in range(n) if q not in targets]
    perm = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        j = 0
        for pos, q in enumerate(order):
            bit = (i >> (n - 1 - q)) & 1
            j |= bit << (n - 1 - pos)
        perm[j, i] = 1.0
    return perm.T @ big @ perm


def probabilities(state) -> np.ndarray:
    """Born-rule outcome distribution: |c_i|^2 for each basis index."""
    psi = as_state(state)
    return np.abs(psi) ** 2


@dataclass(frozen=True, eq=False)
class MeasurementResult:
    bit: int
    post_state: np.ndarray
    probability: float


def measure_qubit(state, target: int, seed: int) -> MeasurementResult:
    """Measure one qubit in the computational basis.

    The outcome is sampled with a splitmix64 generator seeded by `seed`,
    so an identical (state, target, seed) triple always reproduces the
    same result. The returned post_state has the inconsistent amplitudes
    zeroed and is renormalized by the square root of the branch
    probability; the input state is not mutated.
    """
    psi = as_state(state)
    n = psi.size.bit_length() - 1
    if not 0 <= target < n:
        raise ValueError(f"target qubit {target} out of range for a {n}-qubit register")
    idx = np.arange(psi.size)
    one_mask = ((idx >> (n - 1 - target)) & 1) == 1
    p_one = float(np.sum(np.abs(psi[one_mask]) ** 2))
    u = SplitMix64(seed).next_float()
    bit = 1 if u < p_one else 0
    prob = p_one if bit == 1 else 1.0 - p_one
    post = psi.copy()
    post[one_mask != (bit == 1)] = 0.0
    post /= np.sqrt(prob)
    return MeasurementResult(bit, post, prob)
