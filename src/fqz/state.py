"""State-vector registers and measurement.

A register state is a 1-D complex128 array of length 2**n in big-endian
basis order: qubit 0 is the most significant bit of the basis index, so
for two qubits |xy> sits at index 2x + y. Registers are capped at 12
qubits (4096 amplitudes); everything is dense.

apply_gate multiplies a gate into the target axes of the state with one
np.dot, moving the data by one cached permutation of the qubit axes per
(targets, register size) and the product back to qubit order; the tests
hold it against a brute-force reference that builds the full 2**n x 2**n
matrix. circuit's terminal-program prefix composes the same permutations,
keeps each product's axis order and transposes once.
measure_qubit, the one definition of p(1), sums branch 1 of a strided
view, a splitmix64 draw picks a branch, and only that one is kept;
circuit.run_shots reproduces its bytes.
"""
from __future__ import annotations

import cmath
import contextlib
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


def _qubit(t) -> int:
    """t as an int if it equals one (np.int64(1), True, 1.0); else ValueError."""
    with contextlib.suppress(TypeError, ValueError, OverflowError):  # int("x"), int(nan), int(inf)
        if t == int(t):
            return int(t)
    raise ValueError(f"qubit index {t!r} is not an integer")


@functools.cache
def _cached_layout(targets: tuple, n: int) -> tuple:
    """apply_gate's record of a gate placement, memoised per (targets, n).
    A raise is not cached, and a key equal to a cached one names the same
    integers, so bad targets fail the same way every call.

    Returns (axes, inverse, index) from one permutation of the state's
    (2,) * n tensor: `axes` is the targets in target order, then the other
    qubits in order; `inverse` undoes it; `index`, on at most
    GATHER_MAX_QUBITS qubits, is the read-only (2**arity, rest) intp array
    of the state indices `axes` puts at each place, else None."""
    targets = tuple(map(_qubit, targets))
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target qubit in {targets}")
    for t in targets:
        if not 0 <= t < n:
            raise ValueError(f"target qubit {t} out of range for a {n}-qubit register")
    axes, index = targets + tuple(q for q in range(n) if q not in targets), None
    if n <= GATHER_MAX_QUBITS:
        index = np.arange(2**n, dtype=np.intp).reshape((2,) * n).transpose(axes).reshape(1 << len(targets), -1)
        index.setflags(write=False)
    return axes, tuple(sorted(range(n), key=axes.__getitem__)), index


def apply_gate(state, g: Gate, targets: Sequence[int]) -> np.ndarray:
    """Apply g to the given qubits; the first target is the gate's most
    significant input (for CNOT, the control).

    The state is moved to a (2**arity, rest) matrix, the target qubits
    first, which the gate multiplies in one np.dot (called as matrix.dot,
    the same C routine without the Python-level dispatch); the product is
    moved back into a fresh array. _cached_layout's record says how: by
    its gather index on at most GATHER_MAX_QUBITS qubits, which costs less
    per call, else by transposing the (2,) * n tensor by `axes` and back
    by `inverse`. Only data moves, so zgemm gets np.tensordot's matrix and
    the amplitudes are bit-identical. The state is validated on every
    call; the targets are checked, and the record built, on the first
    call for each (targets, register size)."""
    psi = as_state(state)
    n = psi.size.bit_length() - 1
    targets, arity, matrix = tuple(targets), g.arity, g.matrix
    if len(targets) != arity:
        found = tuple(map(_qubit, targets))
        raise ValueError(f"gate {g.name} has arity {arity} but got {len(targets)} target(s) {found}")
    axes, inverse, index = _cached_layout(targets, n)
    if type(matrix) is not np.ndarray or matrix.dtype is not COMPLEX128:
        matrix = np.asarray(matrix, dtype=COMPLEX128)
    if index is not None:
        out = np.empty(psi.size, COMPLEX128)
        out[index] = matrix.dot(psi[index])
        return out
    t = matrix.dot(psi.reshape((2,) * n).transpose(axes).reshape(1 << arity, -1))
    return t.reshape((2,) * n).transpose(inverse).reshape(-1)


def probabilities(state) -> np.ndarray:
    """Born-rule outcome distribution: |c_i|^2 for each basis index."""
    psi = as_state(state)
    return np.abs(psi) ** 2


class MeasurementResult(NamedTuple):
    bit: int
    post_state: np.ndarray
    probability: float


def measure_qubit(state, target: int, seed: int) -> MeasurementResult:
    """Measure one qubit in the computational basis: bit 1 iff a draw of
    SplitMix64(seed) is below p(1), the pairwise sum of the squared moduli
    of branch 1, the view (2**target, 2, rest)[:, 1, :], in index order; a
    p(1) overflowing to inf raises ValueError. If branch 0 is all zero and
    p(1) > 0 (a drifted norm), bit 1 is read; if p(1) is 0, bit 0 is read
    with probability 1.0, all-zero states included. The input is not mutated."""
    psi = as_state(state)
    n = psi.size.bit_length() - 1
    if type(target) is not int or not 0 <= target < n:  # apply_gate's target checks: raise, or name the int
        target = _cached_layout((target,), n)[0][0]
    branches = psi.reshape(1 << target, 2, -1)
    mags = np.abs(branches[:, 1, :])  # a fresh C-ordered array, squared in place
    p_one = float(np.add.reduce(np.square(mags, out=mags).reshape(-1)))
    if p_one == math.inf:
        raise ValueError(f"p(1) of qubit {target} overflows to inf")
    bit = 1 if SplitMix64(seed).next_float() < p_one else 0
    if bit == 0 and p_one > 0 and not np.count_nonzero(branches[:, 0, :]):
        bit = 1  # a drifted state can leave the sampled branch empty
    prob = p_one if bit == 1 else 1.0 - p_one
    post = np.zeros(branches.shape, COMPLEX128)  # only branch `bit` is written, divided by sqrt(prob)
    np.divide(branches[:, bit, :], math.sqrt(prob), out=post[:, bit, :])
    return tuple.__new__(MeasurementResult, (bit, post.reshape(-1), prob))  # in C, as iter_steps builds a Step
