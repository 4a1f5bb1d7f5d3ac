import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import expanded_unitary, reference_branch_probability, reference_measure_qubit
from fqz import gates, state
from fqz.circuit import OracleFn, oracle_gate
from fqz.rng import SplitMix64

SQRT_HALF = 1.0 / math.sqrt(2.0)

ONE_QUBIT_GATES = [
    gates.identity_gate(),
    gates.pauli_x(),
    gates.pauli_z(),
    gates.hadamard(),
    gates.phase_shift(math.pi / 2),
    gates.phase_shift(0.3),
]


class TestBasisState:
    def test_two_qubit_index_convention(self):
        """|10> lives at index 2: qubit 0 is the most significant bit."""
        s = state.basis_state(2, 2)
        np.testing.assert_array_equal(s, [0, 0, 1, 0])

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError, match="out of range"):
            state.basis_state(2, 4)
        with pytest.raises(ValueError):
            state.basis_state(2, -1)

    def test_rejects_register_sizes_beyond_cap(self):
        with pytest.raises(ValueError):
            state.basis_state(13, 0)
        with pytest.raises(ValueError):
            state.basis_state(0, 0)

    def test_largest_register_allowed(self):
        s = state.basis_state(12, 4095)
        assert s.size == 4096
        assert s[4095] == 1.0


class TestApplyGate:
    def test_x_flips_single_qubit(self):
        s = state.apply_gate(state.basis_state(1, 0), gates.pauli_x(), [0])
        np.testing.assert_allclose(s, [0, 1], atol=1e-12)

    def test_cnot_on_superposed_control(self):
        """CNOT (|00> + |10>)/sqrt2 = (|00> + |11>)/sqrt2, control first."""
        s = (state.basis_state(2, 0) + state.basis_state(2, 2)) * SQRT_HALF
        out = state.apply_gate(s, gates.cnot(), [0, 1])
        expected = (state.basis_state(2, 0) + state.basis_state(2, 3)) * SQRT_HALF
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_cnot_with_reversed_targets(self):
        # control is qubit 1 now, so |01> (control set) flips qubit 0
        out = state.apply_gate(state.basis_state(2, 1), gates.cnot(), [1, 0])
        np.testing.assert_allclose(out, state.basis_state(2, 3), atol=1e-12)

    def test_gate_on_middle_qubit(self):
        out = state.apply_gate(state.basis_state(3, 0), gates.pauli_x(), [1])
        np.testing.assert_allclose(out, state.basis_state(3, 2), atol=1e-12)

    def test_arity_mismatch(self):
        with pytest.raises(ValueError, match="arity"):
            state.apply_gate(state.basis_state(2, 0), gates.cnot(), [0])

    def test_duplicate_targets(self):
        with pytest.raises(ValueError, match="duplicate"):
            state.apply_gate(state.basis_state(2, 0), gates.cnot(), [1, 1])

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            state.apply_gate(state.basis_state(2, 0), gates.pauli_x(), [2])

    @pytest.mark.parametrize(
        "g, targets, message",
        [
            (gates.cnot(), [0], "gate CNOT has arity 2 but got 1 target(s) (0,)"),
            (gates.pauli_x(), (np.int64(1), 0), "gate X has arity 1 but got 2 target(s) (1, 0)"),
            (gates.cnot(), [1, 1], "duplicate target qubit in (1, 1)"),
            (gates.pauli_x(), [2], "target qubit 2 out of range for a 2-qubit register"),
            (gates.cnot(), (0, -1), "target qubit -1 out of range for a 2-qubit register"),
        ],
    )
    def test_bad_targets_fail_the_same_way_every_call(self, g, targets, message):
        for _ in range(3):
            with pytest.raises(ValueError) as exc:
                state.apply_gate(state.basis_state(2, 0), g, targets)
            assert str(exc.value) == message

    def test_targets_valid_on_a_wider_register_are_still_checked(self):
        x = gates.pauli_x()
        state.apply_gate(state.basis_state(3, 0), x, (2,))
        with pytest.raises(ValueError, match="target qubit 2 out of range for a 2-qubit register"):
            state.apply_gate(state.basis_state(2, 0), x, (2,))

    def test_target_container_does_not_change_the_bytes(self):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        g = gates.cnot()
        outs = {
            state.apply_gate(psi, g, targets).tobytes()
            for targets in ([2, 0], (2, 0), np.array([2, 0]), (np.int64(2), np.int64(0)))
        }
        assert len(outs) == 1

    def test_cached_layouts_hold_no_arrays(self):
        """Each placement's record holds tuples of ints and no array but its
        one read-only intp gather index, present exactly on registers of
        at most GATHER_MAX_QUBITS qubits."""

        def ints_only(value):
            if isinstance(value, tuple):
                return all(ints_only(v) for v in value)
            return type(value) is int

        for n in range(1, state.MAX_QUBITS + 1):
            g = gates.cnot() if n > 1 else gates.hadamard()
            for targets in itertools.permutations(range(n), g.arity):
                state.apply_gate(state.basis_state(n, 0), g, targets)
                for key in (targets, tuple(np.int64(t) for t in targets)):
                    *layout, index = state._cached_layout(key, n)
                    assert ints_only(tuple(layout))
                    if n <= state.GATHER_MAX_QUBITS:
                        assert type(index) is np.ndarray and index.dtype == np.intp and not index.flags.writeable
                    else:
                        assert index is None

    def test_gathered_placements_are_cached_small_and_read_only(self):
        """Placing H and CNOT everywhere on 1-12 qubits caches one record
        per placement; the records of registers of at most
        GATHER_MAX_QUBITS qubits hold a read-only intp index that permutes
        range(2**n), and all those indices take at most 256 KB."""
        state._cached_layout.cache_clear()
        placed, small = [], []
        for n in range(1, state.MAX_QUBITS + 1):
            psi = state.basis_state(n, 0)
            for g in (gates.hadamard(), gates.cnot())[: min(n, 2)]:
                for targets in itertools.permutations(range(n), g.arity):
                    state.apply_gate(psi, g, targets)
                    placed.append((targets, n))
                    if n <= state.GATHER_MAX_QUBITS:
                        small.append((targets, n))
        assert state.GATHER_MAX_QUBITS == 8
        assert state._cached_layout.cache_info().currsize == len(placed)
        indices = [state._cached_layout(targets, n)[-1] for targets, n in small]
        assert state._cached_layout.cache_info().currsize == len(placed)
        for (targets, n), index in zip(small, indices):
            assert index.dtype == np.intp and not index.flags.writeable
            assert sorted(index.ravel()) == list(range(2**n))
        assert sum(index.nbytes for index in indices) <= 256 * 1024

    @pytest.mark.parametrize("arity", [0, 1, 2, 3])
    def test_layouts_are_one_permutation_of_the_qubit_axes(self, arity):
        """A record's `axes` is the targets in target order, then the other
        qubits in order; `inverse` undoes it; and its gather index, where
        present, is range(2**n) as a (2,) * n tensor transposed by `axes`."""
        for n in range(arity, state.MAX_QUBITS + 1):
            psi = np.arange(2**n).reshape((2,) * n)
            for targets in itertools.permutations(range(n), arity):
                axes, inverse, index = state._cached_layout(targets, n)
                assert axes == targets + tuple(q for q in range(n) if q not in targets)
                assert tuple(axes[i] for i in inverse) == tuple(range(n))
                np.testing.assert_array_equal(psi.transpose(axes).transpose(inverse), psi)
                if index is not None:
                    np.testing.assert_array_equal(index, psi.transpose(axes).reshape(2**arity, -1))

    @pytest.mark.parametrize("g", ONE_QUBIT_GATES, ids=lambda g: f"{g.name}-{g.parameter}")
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_norm_preserved(self, g, n):
        rng = np.random.default_rng(5)
        psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        psi /= np.linalg.norm(psi)
        for t in range(n):
            out = state.apply_gate(psi, g, [t])
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-9

    @pytest.mark.parametrize("name", ["I", "X", "Z", "H"])
    def test_involutions_round_trip(self, name):
        g = gates.gate(name)
        rng = np.random.default_rng(11)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        for t in range(3):
            twice = state.apply_gate(state.apply_gate(psi, g, [t]), g, [t])
            np.testing.assert_allclose(twice, psi, atol=1e-9)


# Qubit indices apply_gate and measure_qubit take for qubit 1 of a
# register, and ones they reject with a ValueError naming the index.
WHOLE_ONES = [1, np.int64(1), np.uint8(1), True, 1.0, np.float64(1.0)]
NOT_WHOLE = [1.5, -0.5, 2.9999, np.float64(1.5), "1", math.nan, math.inf, None]


class TestQubitIndices:
    """A qubit index equal to an integer stands for that qubit; any other
    raises ValueError naming it, in apply_gate on the gather path (3
    qubits) and the transposing path (10), whichever of the equal keys
    (1,) and (1.0,) the placement cache holds first, and in measure_qubit."""

    @pytest.mark.parametrize("n", [3, 10])
    @pytest.mark.parametrize("integer_first", [True, False])
    def test_apply_gate(self, n, integer_first):
        state._cached_layout.cache_clear()
        psi, h, cnot = probability_states(n)["random"], gates.hadamard(), gates.cnot()
        want, want_cnot = tensordot_apply(psi, h, (1,)).tobytes(), tensordot_apply(psi, cnot, (2, 1)).tobytes()
        for t in WHOLE_ONES if integer_first else WHOLE_ONES[::-1]:
            assert state.apply_gate(psi, h, (t,)).tobytes() == want
            assert state.apply_gate(psi, cnot, (2, t)).tobytes() == want_cnot
        for t in NOT_WHOLE:
            for g, targets in ((h, (t,)), (cnot, (2, t)), (cnot, (t, 0))):
                with pytest.raises(ValueError, match=f"^qubit index {re.escape(repr(t))} is not an integer$"):
                    state.apply_gate(psi, g, targets)

    @pytest.mark.parametrize("n", [3, 10])
    def test_measure_qubit(self, n):
        psi = probability_states(n)["random"]
        want = state.measure_qubit(psi, 1, seed=5)
        for t in WHOLE_ONES:
            r = state.measure_qubit(psi, t, seed=5)
            assert (r.bit, r.post_state.tobytes(), r.probability) == (want.bit, want.post_state.tobytes(), want.probability)
        for t in NOT_WHOLE:
            with pytest.raises(ValueError, match=f"^qubit index {re.escape(repr(t))} is not an integer$"):
                state.measure_qubit(psi, t, seed=5)


def tensordot_apply(psi, g, targets):
    """The contraction route apply_gate took before it called np.dot
    itself: move the target axes to the front, np.tensordot the gate
    against them, move them back. Reference for bit-identity."""
    psi = np.asarray(psi, dtype=np.complex128)
    n = psi.size.bit_length() - 1
    a = g.arity
    targets = tuple(targets)
    t = np.moveaxis(psi.reshape((2,) * n), targets, tuple(range(a)))
    op = np.asarray(g.matrix, dtype=np.complex128).reshape((2,) * (2 * a))
    t = np.tensordot(op, t, axes=(tuple(range(a, 2 * a)), tuple(range(a))))
    return np.moveaxis(t, tuple(range(a)), targets).reshape(-1)


ALL_GATES = [
    *ONE_QUBIT_GATES,
    gates.phase_shift(-0.0),
    gates.phase_shift(-2.5),
    gates.cnot(),
    *(oracle_gate(fn.value, fn) for fn in OracleFn),
]


class TestApplyGateBitIdentity:
    """apply_gate must give the reference route's bytes, signed zeros included."""

    @pytest.mark.parametrize("n", range(1, state.MAX_QUBITS + 1))
    def test_every_gate_every_target_order(self, n):
        rng = np.random.default_rng(n)
        dense = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        dense /= np.linalg.norm(dense)
        # sparse and negated, so the outputs hold zeros of both signs
        sparse = -(state.basis_state(n, 2**n - 1) + 1j * state.basis_state(n, 0)) * SQRT_HALF
        for g in ALL_GATES:
            for targets in itertools.permutations(range(n), g.arity):
                for psi in (dense, sparse):
                    got = state.apply_gate(psi, g, targets)
                    assert got.tobytes() == tensordot_apply(psi, g, targets).tobytes(), (g.name, targets)

    @pytest.mark.parametrize("n", range(0, state.MAX_QUBITS + 1))
    def test_arity_zero_phase_on_no_targets(self, n):
        """A 1x1 gate places on no qubit at all, a 0-qubit register included."""
        g = gates.Gate("P", 0, np.array([[np.exp(0.7j)]]))
        rng = np.random.default_rng(n)
        dense = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        sparse = -(np.eye(1, 2**n, 2**n - 1)[0] + 1j * np.eye(1, 2**n, 0)[0]) * SQRT_HALF
        for psi in (dense, sparse):
            assert state.apply_gate(psi, g, ()).tobytes() == tensordot_apply(psi, g, ()).tobytes()

    @pytest.mark.parametrize("n", range(3, state.MAX_QUBITS + 1))
    def test_random_three_qubit_unitary_every_target_order(self, n):
        rng = np.random.default_rng(100 + n)
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        g = gates.Gate("U3", 3, q)
        dense = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
        sparse = -(state.basis_state(n, 2**n - 1) + 1j * state.basis_state(n, 0)) * SQRT_HALF
        for targets in itertools.permutations(range(n), 3):
            for psi in (dense, sparse):
                got = state.apply_gate(psi, g, targets)
                assert got.tobytes() == tensordot_apply(psi, g, targets).tobytes(), targets


class TestExpandedUnitaryAgreement:
    """The tensor-contraction route must match the explicit kron route."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_single_qubit_gates_all_targets_all_basis_states(self, n):
        for g in ONE_QUBIT_GATES:
            for t in range(n):
                full = expanded_unitary(g, [t], n)
                for idx in range(2**n):
                    fast = state.apply_gate(state.basis_state(n, idx), g, [t])
                    np.testing.assert_allclose(fast, full[:, idx], atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_cnot_all_target_pairs_all_basis_states(self, n):
        g = gates.cnot()
        for pair in itertools.permutations(range(n), 2):
            full = expanded_unitary(g, pair, n)
            for idx in range(2**n):
                fast = state.apply_gate(state.basis_state(n, idx), g, pair)
                np.testing.assert_allclose(fast, full[:, idx], atol=1e-12)

    def test_expanded_unitary_is_unitary(self):
        full = expanded_unitary(gates.cnot(), [2, 0], 3)
        np.testing.assert_allclose(full @ full.conj().T, np.eye(8), atol=1e-12)

    @given(st.integers(0, 7), st.integers(0, 2))
    @settings(max_examples=32)
    def test_global_phase_invariance(self, idx, t):
        """Probabilities ignore a global phase e^(i*theta)."""
        psi = state.basis_state(3, idx)
        psi = state.apply_gate(psi, gates.hadamard(), [t])
        phased = np.exp(1j * 0.7) * psi
        np.testing.assert_allclose(
            state.probabilities(psi), state.probabilities(phased), atol=1e-12
        )


class TestProbabilities:
    def test_born_rule_sums_to_one(self):
        psi = (state.basis_state(2, 0) + state.basis_state(2, 3)) * SQRT_HALF
        p = state.probabilities(psi)
        np.testing.assert_allclose(p, [0.5, 0, 0, 0.5], atol=1e-12)
        assert abs(p.sum() - 1.0) <= 1e-9


class TestMeasureQubit:
    def test_deterministic_on_basis_state(self):
        r = state.measure_qubit(state.basis_state(1, 1), 0, seed=123)
        assert r.bit == 1
        assert r.probability == 1.0
        np.testing.assert_allclose(r.post_state, [0, 1], atol=1e-12)

    def test_same_seed_same_outcome(self):
        plus = np.array([SQRT_HALF, SQRT_HALF])
        first = state.measure_qubit(plus, 0, seed=99)
        second = state.measure_qubit(plus, 0, seed=99)
        assert first.bit == second.bit
        np.testing.assert_array_equal(first.post_state, second.post_state)

    def test_post_state_renormalized(self):
        plus = np.array([SQRT_HALF, SQRT_HALF])
        r = state.measure_qubit(plus, 0, seed=4)
        assert abs(np.linalg.norm(r.post_state) - 1.0) <= 1e-9
        assert abs(r.probability - 0.5) <= 1e-9

    def test_remeasuring_is_deterministic(self):
        """Once collapsed, every later seed reproduces the same bit."""
        plus = np.array([SQRT_HALF, SQRT_HALF])
        first = state.measure_qubit(plus, 0, seed=8)
        for seed in range(50):
            again = state.measure_qubit(first.post_state, 0, seed)
            assert again.bit == first.bit
            assert abs(again.probability - 1.0) <= 1e-9

    def test_entangled_pair_collapses_together(self):
        bell = (state.basis_state(2, 0) + state.basis_state(2, 3)) * SQRT_HALF
        r0 = state.measure_qubit(bell, 0, seed=21)
        r1 = state.measure_qubit(r0.post_state, 1, seed=1000)
        assert r0.bit == r1.bit

    def test_input_state_not_mutated(self):
        plus = np.array([SQRT_HALF, SQRT_HALF])
        before = plus.copy()
        state.measure_qubit(plus, 0, seed=3)
        np.testing.assert_array_equal(plus, before)

    def test_seed_sweep_statistics(self):
        """P(0) on H|0> over 10000 seeds stays within 0.5 +/- 0.015."""
        plus = np.array([SQRT_HALF, SQRT_HALF])
        zeros = sum(state.measure_qubit(plus, 0, s).bit == 0 for s in range(10000))
        assert 0.485 <= zeros / 10000 <= 0.515

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            state.measure_qubit(state.basis_state(1, 0), 1, seed=0)

    def test_result_fields_cannot_be_assigned(self):
        r = state.measure_qubit(state.basis_state(1, 0), 0, seed=0)
        for field in state.MeasurementResult._fields:
            with pytest.raises(AttributeError):
                setattr(r, field, None)

    def test_never_selects_an_empty_branch(self):
        """[0, 0.9] has p(1) = 0.81 and no bit-0 amplitude: every seed gives 1."""
        for seed in range(200):
            r = state.measure_qubit([0, 0.9], 0, seed)
            assert r.bit == 1
            assert r.probability == 0.9 * 0.9
            np.testing.assert_allclose(r.post_state, [0, 1], atol=1e-15)

    def test_drifted_states_with_two_nonempty_branches_keep_their_bytes(self):
        """Where the sampled branch holds amplitude, the outcome is the plain
        sample: bit 1 iff u < p(1), post-state divided by sqrt(p(branch))."""
        rng = np.random.default_rng(17)
        for seed in range(200):
            n = 1 + seed % 4
            psi = (rng.normal(size=2**n) + 1j * rng.normal(size=2**n)) * rng.uniform(0.3, 1.0) / 2**n
            target = seed % n
            r = state.measure_qubit(psi, target, seed)
            ones = ((np.arange(2**n) >> (n - 1 - target)) & 1) == 1
            p_one = float(np.sum(np.abs(psi[ones]) ** 2))
            bit = 1 if SplitMix64(seed).next_float() < p_one else 0
            prob = p_one if bit else 1.0 - p_one
            post = np.where(ones == bool(bit), psi, 0) / np.sqrt(prob)
            assert (r.bit, r.probability) == (bit, prob)
            assert r.post_state.tobytes() == post.tobytes()


def probability_states(n):
    """Named 1-D states on n qubits: random of unit norm, norm-drifted by
    1 +- 1e-6 and 0.9, zeros of both signs beside a few nonzero parts,
    subnormal parts (and 1e-160, whose square is subnormal), and a strided
    view that is not contiguous."""
    rng = np.random.default_rng(100 + n)
    dense = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    dense /= np.linalg.norm(dense)
    signed = rng.choice([0.0, -0.0, 0.5, -0.25], size=2**n) + 1j * rng.choice([0.0, -0.0, 0.5], size=2**n)
    signed[0] = -0.0 - 0.0j
    tiny = [0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -1e-160]
    subnormal = rng.choice(tiny, size=2**n) + 1j * rng.choice(tiny, size=2**n)
    return {
        "random": dense,
        "up": dense * (1 + 1e-6),
        "down": dense * (1 - 1e-6),
        "shrunk": dense * 0.9,
        "signed zeros": signed,
        "subnormal": subnormal,
        "strided": np.repeat(dense, 2)[::2],
    }


def mask_measure(psi, target, seed):
    """The boolean-mask route measure_qubit took before it read the
    branches as strided views: gather each branch through an index mask,
    scatter zeros through the other. Reference for bit-identity."""
    psi = np.asarray(psi, dtype=np.complex128)
    n = psi.size.bit_length() - 1
    one = ((np.arange(2**n) >> (n - 1 - target)) & 1) == 1
    masks = (~one, one)
    p_one = float(np.sum(np.abs(psi[masks[1]]) ** 2))
    bit = 1 if SplitMix64(seed).next_float() < p_one else 0
    if bit == 0 and p_one > 0 and not psi[masks[0]].any():
        bit = 1
    prob = p_one if bit == 1 else 1.0 - p_one
    post = psi.copy()
    post[masks[1 - bit]] = 0.0
    post /= np.sqrt(prob)
    return bit, prob, post


class TestMeasureQubitBitIdentity:
    """measure_qubit must give the mask route's bit, probability and bytes."""

    @pytest.mark.parametrize("n", range(1, state.MAX_QUBITS + 1))
    def test_every_target(self, n):
        for name, psi in probability_states(n).items():
            for target in range(n):
                for seed in range(6):
                    r = state.measure_qubit(psi, target, seed)
                    bit, prob, post = mask_measure(psi, target, seed)
                    assert (r.bit, r.probability) == (bit, prob), (name, target, seed)
                    assert r.post_state.tobytes() == post.tobytes(), (name, target, seed)


@st.composite
def measured_states(draw):
    """A 1-12 qubit state of norm about 0.9, 1 or 1.1 whose parts include
    zeros of both signs, subnormals and 1e-160 (whose square is subnormal);
    one branch of one qubit may hold nothing but signed zeros."""
    n = draw(st.integers(1, state.MAX_QUBITS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi *= draw(st.sampled_from([0.9, 1.0, 1.1])) / np.linalg.norm(psi)
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-160, -1e-160])
    for part in (psi.real, psi.imag):
        picked = rng.random(2**n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        part[picked] = rng.choice(specials, size=int(picked.sum()))
    emptied = draw(st.sampled_from([None, 0, 1]))
    if emptied is not None:
        branch = psi.reshape(2 ** draw(st.integers(0, n - 1)), 2, -1)[:, emptied, :]
        for part in (branch.real, branch.imag):
            part[...] = rng.choice([0.0, -0.0], size=part.shape)
    return psi


class TestMeasureQubitAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(measured_states(), st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=8))
    def test_same_bit_probability_and_post_state_bytes(self, psi, seeds):
        for target in range(psi.size.bit_length() - 1):
            for seed in seeds:
                r = state.measure_qubit(psi, target, seed)
                expected = reference_measure_qubit(psi, target, seed)
                assert (r.bit, r.probability.hex()) == (expected.bit, expected.probability.hex()), (target, seed)
                assert r.post_state.tobytes() == expected.post_state.tobytes(), (target, seed)
                assert r.post_state.flags.writeable and r.post_state is not psi

    def test_the_empty_branch_rule_is_reached(self):
        # branch 0 of qubit 1 holds only signed zeros and p(1) = 0.81, so
        # about a fifth of the draws land in it; each must read 1
        psi = np.zeros(8, dtype=np.complex128)
        psi.reshape(2, 2, 2)[:, 1, :] = 0.45
        psi.reshape(2, 2, 2)[:, 0, :].imag = -0.0
        landed = 0
        for seed in range(50):
            r, expected = state.measure_qubit(psi, 1, seed), reference_measure_qubit(psi, 1, seed)
            assert (r.bit, r.probability.hex()) == (expected.bit, expected.probability.hex()) == (1, (4 * 0.45**2).hex())
            assert r.post_state.tobytes() == expected.post_state.tobytes()
            landed += SplitMix64(seed).next_float() >= r.probability
        assert landed > 0


def _first_seed(accept):
    return next(seed for seed in itertools.count() if accept(SplitMix64(seed).next_float()))


# Beside a few ordinary seeds, one whose draw is below 1e-3 and one whose
# draw is above 1 - 1e-3: every p(1) >= 1e-3 reads bit 1 at least once,
# and every 1 - p(1) >= 1e-3 reads bit 0 unless branch 0 is empty.
MEASURE_SEEDS = (_first_seed(lambda u: u < 1e-3), _first_seed(lambda u: u > 1 - 1e-3), *range(6))


class TestMeasuredProbabilityAgainstReference:
    """measure_qubit's probability must carry the bits of the reference's
    p(1) when it reads bit 1 and of 1 - p(1) when it reads bit 0."""

    @pytest.mark.parametrize("n", range(1, state.MAX_QUBITS + 1))
    def test_every_target(self, n):
        for name, psi in probability_states(n).items():
            for target in range(n):
                p_one, read = reference_branch_probability(psi, target), set()
                for seed in MEASURE_SEEDS:
                    r = state.measure_qubit(psi, target, seed)
                    assert r.probability.hex() == (p_one if r.bit else 1.0 - p_one).hex(), (name, target, seed)
                    read.add(r.bit)
                assert p_one < 1e-3 or 1 in read, (name, target)
                assert 1.0 - p_one < 1e-3 or 0 in read or not psi.reshape(2**target, 2, -1)[:, 0, :].any(), (name, target)


def assert_fresh(out, psi):
    """out is a 1-D complex128 array of its own: C-contiguous, writable and
    sharing no memory with the input psi."""
    assert type(out) is np.ndarray and out.ndim == 1 and out.dtype == np.complex128
    assert out.flags.c_contiguous and out.flags.writeable
    assert not np.shares_memory(out, psi)


class TestResultsAreFreshArrays:
    @pytest.mark.parametrize("n", [1, 2, 4, state.GATHER_MAX_QUBITS, state.GATHER_MAX_QUBITS + 1, state.MAX_QUBITS])
    def test_apply_gate_on_both_paths(self, n):
        psi = probability_states(n)["random"]
        psi.setflags(write=False)  # as the shared states of a resolved circuit are
        placements = [(gates.hadamard(), (t,)) for t in range(n)] + [(gates.phase_shift(0.3), (n - 1,))]
        placements += [(oracle_gate("f", OracleFn.NEGATION), (n - 1, 0))] * (n > 1) + [(gates.cnot(), (0, n - 1))] * (n > 1)
        for g, targets in placements:
            gathered = state._cached_layout(targets, n)[-1] is not None
            assert gathered == (n <= state.GATHER_MAX_QUBITS)
            out = state.apply_gate(psi, g, targets)
            assert_fresh(out, psi)
            assert out.tobytes() == tensordot_apply(psi, g, targets).tobytes()

    @pytest.mark.parametrize("n", [1, 4, state.MAX_QUBITS])
    def test_measure_qubit(self, n):
        for psi in probability_states(n).values():
            for target in range(n):
                r = state.measure_qubit(psi, target, seed=target)
                assert_fresh(r.post_state, psi)
                r.post_state[0] = 7  # writing to it leaves the input alone
                assert psi[0] != 7

    def test_measurement_result_is_a_named_tuple(self):
        psi = state.apply_gate(state.basis_state(2, 0), gates.hadamard(), (1,))
        r = state.measure_qubit(psi, 1, seed=3)
        assert type(r) is state.MeasurementResult and isinstance(r, tuple) and len(r) == 3
        assert r._fields == ("bit", "post_state", "probability")
        assert r == (r.bit, r.post_state, r.probability) == state.MeasurementResult(*r)
        assert r[0] is r.bit and r[1] is r.post_state and r[2] is r.probability
        assert repr(r) == f"MeasurementResult(bit={r.bit!r}, post_state={r.post_state!r}, probability={r.probability!r})"
        bit, post, prob = r
        assert (bit, prob) == (r.bit, r.probability) and post is r.post_state


class TestValidation:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            state.as_state([1, 0, 0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            state.as_state([float("nan"), 0])

    @pytest.mark.parametrize("n", range(1, state.MAX_QUBITS + 1))
    def test_rejects_every_non_finite_part_at_every_position(self, n):
        bad_values = (float("nan"), float("inf"), float("-inf"))
        for index in sorted({0, 2**n // 2, 2**n - 1}):
            for value in bad_values:
                for part in (value, complex(0.0, value)):
                    psi = np.full(2**n, 0.5 + 0.5j)
                    psi[index] = part
                    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^amplitudes must be finite$"):
                        state.as_state(psi)

    def test_public_calls_reject_non_finite_states(self):
        psi = np.array([0.5, 0.5, complex(0.5, float("inf")), 0.5])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^amplitudes must be finite$"):
            state.apply_gate(psi, gates.hadamard(), [0])
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^amplitudes must be finite$"):
            state.measure_qubit(psi, 0, seed=1)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^amplitudes must be finite$"):
            state.probabilities(psi)

    @pytest.mark.parametrize("n", [1, 5, 12])
    def test_accepts_finite_states_whose_square_sum_overflows(self, n):
        big = np.full(2**n, 1e200, dtype=np.complex128)
        mixed = big * np.where(np.arange(2**n) % 2, -1, 1)
        imaginary = big * 1j
        for psi in (big, mixed, imaginary):
            with np.errstate(over="ignore", invalid="ignore"):
                assert not np.isfinite(psi.dot(psi))
                out = state.as_state(psi)
                flipped = state.apply_gate(psi, gates.pauli_x(), [0])
            assert out.tobytes() == psi.tobytes()
            assert flipped.tobytes() == psi.reshape(2, -1)[::-1].tobytes()

    @given(
        st.integers(0, 6).flatmap(
            lambda k: st.lists(st.complex_numbers(allow_nan=True, allow_infinity=True), min_size=2**k, max_size=2**k)
        )
    )
    @settings(max_examples=200)
    def test_rejects_exactly_the_non_finite_states(self, values):
        psi = np.array(values, dtype=np.complex128)
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(psi).all():
                assert state.as_state(psi).tobytes() == psi.tobytes()
            else:
                with pytest.raises(ValueError, match="^amplitudes must be finite$"):
                    state.as_state(psi)
