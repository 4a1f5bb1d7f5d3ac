"""State-vector registers and measurement.

A register state is a 1-D complex128 array of length 2**n in big-endian
basis order: qubit 0 is the most significant bit of the basis index, so
for two qubits |xy> sits at index 2x + y. Registers are capped at 12
qubits (4096 amplitudes); everything is dense.

apply_gate multiplies a gate into the target axes of the state with one
np.dot; the tests hold it against a brute-force reference that builds the
full 2**n x 2**n matrix. measure_qubit reads a qubit's two branches as
strided views: branch_probability sums one, a splitmix64 draw picks one,
and only that one is kept; circuit.run_shots reproduces its bytes.
"""
from __future__ import annotations

import cmath
import functools
import math
from typing import NamedTuple, Sequence

import numpy as np

from .gates import Gate
from .rng import SplitMix64

MAX_QUBITS = 12
# Largest register apply_gate moves through a cached index array. Gather
# plus scatter beats the reshape/transpose copies below ~11 qubits; at 8
# every placement of arity <= 2 on 1-8 qubits caches ~204 KB in total.
GATHER_MAX_QUBITS = 8
COMPLEX128 = np.dtype(np.complex128)  # a singleton: testing for it costs less than np.asarray


def as_state(data) -> np.ndarray:
    """Coerce to a 1-D complex128 amplitude vector of power-of-two length;
    a complex128 ndarray is not coerced again, only checked and returned.

    A finite s.dot(s) implies finite amplitudes; on inf, nan or its
    overflow (about 1e154 and up), the exact elementwise test decides.
    numpy then emits a RuntimeWarning ("overflow" or "invalid value
    encountered in dot"), left alone: np.errstate costs ~3 us per call,
    most of what the dot saves over the elementwise test."""
    s = data if type(data) is np.ndarray and data.dtype is COMPLEX128 else np.asarray(data, dtype=COMPLEX128)
    if s.ndim != 1:
        raise ValueError(f"expected a 1-D amplitude vector, got shape {s.shape}")
    if not s.size or s.size & (s.size - 1):
        raise ValueError(f"amplitude vector length must be a power of two, got {s.size}")
    if not cmath.isfinite(s.dot(s)) and not np.isfinite(s).all():
        raise ValueError("amplitudes must be finite")
    return s


def basis_state(n_qubits: int, index: int) -> np.ndarray:
    """Computational basis state |index> on an n_qubits register."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ValueError(f"register size must be between 1 and {MAX_QUBITS} qubits, got {n_qubits}")
    if not 0 <= index < 2**n_qubits:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubit(s)")
    s = np.zeros(2**n_qubits, dtype=np.complex128)
    s[index] = 1.0
    return s


@functools.cache
def _cached_layout(targets: tuple, n: int) -> tuple:
    """apply_gate's target checks and orders, memoised per (targets, n). A
    raise is not cached, so bad targets fail the same way on every call.

    Returns (order, shape, axes, moved, inverse, 2**arity): order lists
    the qubits with the targets first. Each run of qubits that stays
    adjacent and in order under it becomes one axis, so the state
    reshaped to `shape` and transposed by `axes` is the same tensor,
    of shape `moved`, as the n-axis one transposed by `order`; `inverse`
    undoes `axes`."""
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubit in {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target qubit {t} out of range for a {n}-qubit register")
    order = targets + tuple(q for q in range(n) if q not in targets)
    runs = []  # [first qubit, length] of each run, in the order of `order`
    for q in order:
        if runs and runs[-1][0] + runs[-1][1] == q:
            runs[-1][1] += 1
        else:
            runs.append([q, 1])
    starts = sorted(first for first, _ in runs)
    axes = tuple(starts.index(first) for first, _ in runs)
    shape = tuple(2**size for _, size in sorted(runs))
    moved = tuple(2**size for _, size in runs)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    return order, shape, axes, moved, inverse, 2 ** len(targets)


@functools.cache
def _gather_index(targets: tuple, n: int) -> np.ndarray:
    """Read-only (2**arity, rest) intp array: entry [r, c] is the state
    index that the merged-axis transpose of _cached_layout(targets, n)
    puts at row r, column c."""
    _, shape, axes, _, _, rows = _cached_layout(targets, n)
    index = np.arange(2**n, dtype=np.intp).reshape(shape).transpose(axes).reshape(rows, -1)
    index.setflags(write=False)
    return index


def apply_gate(state, g: Gate, targets: Sequence[int]) -> np.ndarray:
    """Apply g to the given qubits; the first target is the gate's most
    significant input (for CNOT, the control).

    The state tensor is transposed so the target axes lead and flattened
    to a (2**arity, rest) matrix, which the gate multiplies in one np.dot.
    Runs of qubit axes the transpose keeps together move as one axis; the
    transpose only moves data, so the matrix is the one np.tensordot would
    hand to the same zgemm over all n axes, and the amplitudes are
    bit-identical to the contraction route. On registers of at most
    GATHER_MAX_QUBITS qubits the same matrix is gathered through
    _gather_index, and the product scattered back through it, which costs
    less per call. The state is validated on every call; the targets are
    checked, and the layout built, on the first call for each (targets,
    register size)."""
    psi = as_state(state)
    n = psi.size.bit_length() - 1
    targets = tuple(targets)
    if len(targets) != g.arity:
        found = tuple(map(int, targets))
        raise ValueError(f"gate {g.name} has arity {g.arity} but got {len(targets)} target(s) {found}")
    _, shape, axes, moved, inverse, rows = _cached_layout(targets, n)
    matrix = g.matrix
    if type(matrix) is not np.ndarray or matrix.dtype is not COMPLEX128:
        matrix = np.asarray(matrix, dtype=COMPLEX128)
    if n <= GATHER_MAX_QUBITS:
        index = _gather_index(targets, n)
        out = np.empty_like(psi)
        out[index] = np.dot(matrix, psi[index])
        return out
    t = np.dot(matrix, psi.reshape(shape).transpose(axes).reshape(rows, -1))
    return t.reshape(moved).transpose(inverse).reshape(-1)


def probabilities(state) -> np.ndarray:
    """Born-rule outcome distribution: |c_i|^2 for each basis index."""
    psi = as_state(state)
    return np.abs(psi) ** 2


class MeasurementResult(NamedTuple):
    bit: int
    post_state: np.ndarray
    probability: float


def branch_probability(psi: np.ndarray, target: int) -> float:
    """p(1) of a qubit: the pairwise sum, in ascending index order, of the
    squared moduli of branch 1, the strided view (2**target, 2,
    rest)[:, 1, :] of the state. psi must already be a valid state."""
    return float(np.add.reduce(np.square(np.abs(psi.reshape(2**target, 2, -1)[:, 1, :])).reshape(-1)))


def measure_qubit(state, target: int, seed: int) -> MeasurementResult:
    """Measure one qubit in the computational basis: bit 1 iff a draw of
    SplitMix64(seed) is below branch_probability, so (state, target, seed)
    fixes the result. A branch with no amplitude is never selected, even
    on a state whose norm has drifted. The input state is not mutated."""
    psi = as_state(state)
    n = psi.size.bit_length() - 1
    if not 0 <= target < n:
        raise ValueError(f"target qubit {target} out of range for a {n}-qubit register")
    p_one = branch_probability(psi, target)
    bit = 1 if SplitMix64(seed).next_float() < p_one else 0
    branches = psi.reshape(2**target, 2, -1)
    if bit == 0 and p_one > 0 and not np.count_nonzero(branches[:, 0, :]):
        bit = 1  # a drifted state can leave the sampled branch empty
    prob = p_one if bit == 1 else 1.0 - p_one
    post = np.zeros(psi.size, dtype=COMPLEX128)  # only branch `bit` is written, divided by sqrt(prob)
    np.divide(branches[:, bit, :], math.sqrt(prob), out=post.reshape(branches.shape)[:, bit, :])
    return MeasurementResult(bit, post, prob)
