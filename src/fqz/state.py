"""State-vector registers and measurement.

A register state is a 1-D complex128 array of length 2**n in big-endian
basis order: qubit 0 is the most significant bit of the basis index, so
for two qubits |xy> sits at index 2x + y. Registers are capped at 12
qubits (4096 amplitudes); everything is dense.

apply_gate multiplies a gate into the target axes of the state with one
np.dot, moving the data as one cached record per (targets, register size)
says; the tests hold it against a brute-force reference that builds the
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
    """apply_gate's one record of a gate placement, memoised per (targets,
    n); a raise is not cached, so bad targets fail the same way every call.

    Returns (shape, axes, moved, inverse, 2**arity, index). `shape` has an
    axis of 2 per target, each after an axis for the qubits since the
    previous target, and a last axis for the qubits after the last target
    (2**gap each, possibly 1). `axes` brings the targets forward in target
    order, then the other axes in order; `moved` is the transposed shape
    and `inverse` undoes `axes`. `index`, on at most GATHER_MAX_QUBITS
    qubits, is the read-only (2**arity, rest) intp array of the state
    indices that transpose puts at each place; else None."""
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubit in {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target qubit {t} out of range for a {n}-qubit register")
    ranked, shape, previous = sorted(targets), [], -1
    for t in ranked:
        shape += [2 ** (t - previous - 1), 2]
        previous = t
    shape.append(2 ** (n - 1 - previous))
    axes = tuple(2 * ranked.index(t) + 1 for t in targets) + tuple(range(0, len(shape), 2))
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    rows, index = 2 ** len(targets), None
    if n <= GATHER_MAX_QUBITS:
        index = np.arange(2**n, dtype=np.intp).reshape(shape).transpose(axes).reshape(rows, -1)
        index.setflags(write=False)
    return tuple(shape), axes, tuple(shape[a] for a in axes), inverse, rows, index


def apply_gate(state, g: Gate, targets: Sequence[int]) -> np.ndarray:
    """Apply g to the given qubits; the first target is the gate's most
    significant input (for CNOT, the control).

    The state is moved to a (2**arity, rest) matrix, the target qubits
    first, which the gate multiplies in one np.dot; the product is moved
    back. _cached_layout's record says how: through its gather index on
    registers of at most GATHER_MAX_QUBITS qubits, which costs less per
    call, else by its reshape and transpose of 2*arity + 1 axes.
    Either way only data moves, so the matrix is the one np.tensordot
    would hand to the same zgemm over all n axes, and the amplitudes are
    bit-identical to the contraction route. The state is validated on
    every call; the targets are checked, and the record built, on the
    first call for each (targets, register size)."""
    psi = as_state(state)
    n = psi.size.bit_length() - 1
    targets = tuple(targets)
    if len(targets) != g.arity:
        found = tuple(map(int, targets))
        raise ValueError(f"gate {g.name} has arity {g.arity} but got {len(targets)} target(s) {found}")
    shape, axes, moved, inverse, rows, index = _cached_layout(targets, n)
    matrix = g.matrix
    if type(matrix) is not np.ndarray or matrix.dtype is not COMPLEX128:
        matrix = np.asarray(matrix, dtype=COMPLEX128)
    if index is not None:
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
