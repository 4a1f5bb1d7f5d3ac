import cmath
import itertools
import math

import numpy as np
import pytest
from brute_force import (
    approx_equal,
    builtin_gates,
    is_hermitian,
    rank_search_colliding_inputs,
    rank_search_mapping_to_matrix,
)

from fqz import gates
from fqz.circuit import OracleFn, oracle_gate
from fqz.linalg import is_unitary

# a numpy RuntimeWarning that a test does not ignore in its body fails it:
# the checker promises to stay quiet on any input
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

ATOL = 1e-9

SQRT_HALF = 1.0 / math.sqrt(2.0)

# Frozen matrices, written out once so the constructors are checked
# against independent literals rather than against themselves.
EXPECTED = {
    "I": np.eye(2),
    "X": np.array([[0, 1], [1, 0]]),
    "Z": np.array([[1, 0], [0, -1]]),
    "H": np.array([[SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]]),
    "CNOT": np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]),
}


def all_builtins():
    return builtin_gates() + (gates.phase_shift(math.pi / 2),)


class TestMatrices:
    @pytest.mark.parametrize("name", sorted(EXPECTED))
    def test_frozen_matrix(self, name):
        g = gates.gate(name)
        np.testing.assert_allclose(g.matrix, EXPECTED[name], atol=1e-12)

    def test_phase_shift_quarter_turn(self):
        """R(pi/2) sends |1> to i|1>."""
        g = gates.phase_shift(math.pi / 2)
        np.testing.assert_allclose(g.matrix, [[1, 0], [0, 1j]], atol=1e-12)
        assert g.parameter == math.pi / 2

    def test_phase_shift_pi_is_z(self):
        assert approx_equal(gates.phase_shift(math.pi).matrix, EXPECTED["Z"], ATOL)

    def test_phase_shift_zero_is_identity(self):
        assert approx_equal(gates.phase_shift(0.0).matrix, np.eye(2), ATOL)

    def test_phase_shift_rejects_non_finite(self):
        with pytest.raises(ValueError):
            gates.phase_shift(float("nan"))
        with pytest.raises(ValueError):
            gates.phase_shift(float("inf"))


class TestAlgebra:
    @pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
    def test_unitary(self, g):
        assert is_unitary(g.matrix, ATOL)

    @pytest.mark.parametrize("name", ["I", "X", "Z", "H", "CNOT"])
    def test_involution(self, name):
        """G G = identity for the self-inverse built-ins."""
        m = gates.gate(name).matrix
        np.testing.assert_allclose(m @ m, np.eye(m.shape[0]), atol=ATOL)

    @pytest.mark.parametrize("name", ["I", "X", "Z", "H", "CNOT"])
    def test_fixed_builtins_are_hermitian(self, name):
        assert is_hermitian(gates.gate(name).matrix, ATOL)

    def test_quarter_phase_is_not_hermitian(self):
        assert not is_hermitian(gates.phase_shift(math.pi / 2).matrix, ATOL)


class TestMappingToMatrix:
    @pytest.mark.parametrize("g", all_builtins(), ids=lambda g: g.name)
    def test_reproduces_builtin_matrices(self, g):
        induced = gates.mapping_to_matrix(g.mapping)
        assert approx_equal(induced, g.matrix, ATOL)

    def test_hadamard_redundant_pairs_are_checked(self):
        # All four pairs, over-determining the matrix; the +/- rows must
        # agree with the 0/1 rows for the solve to go through.
        assert len(gates.hadamard().mapping.pairs) == 4
        induced = gates.mapping_to_matrix(gates.hadamard().mapping)
        np.testing.assert_allclose(induced, EXPECTED["H"], atol=1e-12)

    def test_columns_are_images_of_basis_kets(self):
        mapping = gates.BasisMapping(1, (("0", gates.ket("1")), ("1", gates.ket("0"))))
        induced = gates.mapping_to_matrix(mapping)
        np.testing.assert_allclose(induced[:, 0], [0, 1], atol=1e-12)
        np.testing.assert_allclose(induced[:, 1], [1, 0], atol=1e-12)

    def test_rejects_collapsing_mapping(self):
        """Two distinct inputs onto one state cannot be a reversible gate."""
        mapping = gates.BasisMapping(1, (("0", gates.ket("0")), ("1", gates.ket("0"))))
        with pytest.raises(gates.MappingError, match=r"\|0>.*\|1>"):
            gates.mapping_to_matrix(mapping)

    def test_rejects_partial_mapping(self):
        mapping = gates.BasisMapping(1, (("0", gates.ket("0")),))
        with pytest.raises(gates.MappingError, match="span"):
            gates.mapping_to_matrix(mapping)

    def test_rejects_inconsistent_redundancy(self):
        # |0> and |1> pin the matrix to H; a contradictory |+> row must be
        # called out as the offender.
        mapping = gates.BasisMapping(
            1,
            (
                ("0", gates.ket("+")),
                ("1", gates.ket("-")),
                ("+", gates.ket("1")),
            ),
        )
        with pytest.raises(gates.MappingError, match=r"\|\+>"):
            gates.mapping_to_matrix(mapping)

    @pytest.mark.parametrize("tol", [0.0, 1.0, -1.0, math.nan])
    @pytest.mark.parametrize(
        "mapping",
        [gates.hadamard().mapping, gates.cnot().mapping, oracle_gate("f", OracleFn.NEGATION).mapping],
        ids=["H", "CNOT", "N[f]"],
    )
    def test_a_tolerance_outside_the_unit_interval_raises_first(self, mapping, tol):
        # H alone takes the residual path, where tol = 0 or -1 used to name a
        # pair as inconsistent instead
        with pytest.raises(ValueError, match=r"^tolerance must lie in \(0, 1\)"):
            gates.mapping_to_matrix(mapping, tol)

    @pytest.mark.parametrize("tol", [0.0, 1.0, 2.0, -1.0, math.nan])
    @pytest.mark.parametrize("name", ["X", "H", "CNOT"])
    def test_colliding_inputs_checks_its_tolerance(self, name, tol):
        # X's mapping used to read injective at NaN and -1, colliding at 2
        with pytest.raises(ValueError, match=r"^tolerance must lie in \(0, 1\)"):
            gates.colliding_inputs(gates.gate(name).mapping, tol)

    def test_rejects_nonunitary_but_injective_mapping(self):
        # injective on the quoted kets yet not norm-preserving overall
        expr = gates.KetExpr(((complex(SQRT_HALF), "0"), (complex(SQRT_HALF), "1")))
        mapping = gates.BasisMapping(1, (("0", gates.ket("0")), ("1", expr)))
        with pytest.raises(gates.MappingError):
            gates.mapping_to_matrix(mapping)


def _image_kets(w: np.ndarray, arity: int) -> dict[str, gates.KetExpr]:
    """Each input label's image under w, written over the basis labels."""
    basis = [format(i, f"0{arity}b") for i in range(2**arity)]
    inputs = ["0", "1", "+", "-"] if arity == 1 else basis
    return {
        label: gates.KetExpr(tuple((complex(a), b) for a, b in zip(w @ gates.ket_vector(label, arity), basis)))
        for label in inputs
    }


_PHASE = cmath.exp(0.3j)
# Per arity: every input label, outputs from a fixed ket list, and the
# images of every input under a phased unitary (consistent mappings).
_REFERENCE_CASES = {
    1: (
        ("0", "1", "+", "-"),
        (
            gates.ket("1"),
            gates.ket("+", _PHASE),
            gates.ket("0", -1.0),
            gates.ket("-", 1j),
            gates.KetExpr(((0.6, "0"), (0.8j, "1"))),
        ),
        _image_kets(np.diag([1.0, _PHASE]) @ EXPECTED["H"], 1),
    ),
    2: (
        ("00", "01", "10", "11"),
        (
            gates.ket("00"),
            gates.ket("11", _PHASE),
            gates.KetExpr(((SQRT_HALF, "01"), (SQRT_HALF * 1j, "10"))),
            gates.ket("10", -1.0),
            gates.ket("01"),
        ),
        _image_kets(EXPECTED["CNOT"] @ np.kron(EXPECTED["H"], np.diag([1.0, _PHASE])), 2),
    ),
}


def _outcome(fn, mapping):
    try:
        return "matrix", fn(mapping).tobytes()
    except gates.MappingError as exc:
        return "error", str(exc)


class TestMappingMatchesRankSearch:
    """mapping_to_matrix takes the first 2**arity pairs where the rank
    search it replaced chose spanning inputs; both must give the same
    bytes or the same error on every ordered sequence of distinct inputs."""

    @pytest.mark.parametrize("arity", [1, 2])
    def test_every_input_sequence(self, arity):
        labels, kets, images = _REFERENCE_CASES[arity]
        sequences = [seq for k in range(len(labels) + 1) for seq in itertools.permutations(labels, k)]
        assert len(sequences) == 65
        seen = set()
        for seq in sequences:
            outputs = [[images[label] for label in seq], [kets[0]] * len(seq)]
            outputs += [[kets[(i + shift) % len(kets)] for i in range(len(seq))] for shift in range(len(kets))]
            for outs in outputs:
                mapping = gates.BasisMapping(arity, tuple(zip(seq, outs)))
                got = _outcome(gates.mapping_to_matrix, mapping)
                assert got == _outcome(rank_search_mapping_to_matrix, mapping), mapping
                assert gates.colliding_inputs(mapping) == rank_search_colliding_inputs(mapping), mapping
                seen.add(got[1].split(":")[0].split(" |")[0] if got[0] == "error" else "matrix")
        # every branch of mapping_to_matrix was reached; arity 2 has no
        # redundant pairs (four basis labels), so none can be inconsistent
        branches = {"matrix", "empty mapping", "mapping is not total", "inputs", "mapping does not induce a unitary matrix"}
        assert seen == (branches | {"pair"} if arity == 1 else branches)


class TestKetExpr:
    def test_rejects_non_unit_norm(self):
        with pytest.raises(ValueError, match="unit norm"):
            gates.KetExpr(((0.5 + 0j, "0"),))

    @pytest.mark.parametrize("amp", [complex("nan"), complex("nanj"), complex("inf")], ids=str)
    def test_rejects_non_finite_amplitudes(self, amp):
        with pytest.raises(ValueError, match="unit norm"):
            gates.KetExpr(((amp, "0"),))

    def test_rejects_repeated_labels(self):
        with pytest.raises(ValueError, match="repeats"):
            gates.KetExpr(((SQRT_HALF + 0j, "0"), (SQRT_HALF + 0j, "0")))

    def test_plus_minus_vectors(self):
        np.testing.assert_allclose(gates.ket_vector("+", 1), [SQRT_HALF, SQRT_HALF])
        np.testing.assert_allclose(gates.ket_vector("-", 1), [SQRT_HALF, -SQRT_HALF])

    def test_two_qubit_labels_are_big_endian(self):
        """|10> sits at index 2: the left character is the high bit."""
        v = gates.ket_vector("10", 2)
        assert np.argmax(np.abs(v)) == 2

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            gates.ket_vector("2", 1)
        with pytest.raises(ValueError):
            gates.ket_vector("+-", 2)


class TestBasisMapping:
    def test_rejects_repeated_inputs(self):
        with pytest.raises(ValueError, match="repeats"):
            gates.BasisMapping(1, (("0", gates.ket("0")), ("0", gates.ket("1"))))

    def test_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            gates.BasisMapping(3, ())


class TestLookup:
    def test_r_needs_parameter(self):
        with pytest.raises(ValueError, match="angle"):
            gates.gate("R")

    def test_fixed_gates_take_no_parameter(self):
        with pytest.raises(ValueError):
            gates.gate("X", 1.0)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown gate"):
            gates.gate("Q")


class TestSharedGates:
    """gate() and oracle_gate() hand out one read-only Gate per key."""

    def test_one_gate_per_key(self):
        assert gates.gate("H") is gates.gate("H")
        assert gates.gate("R", 0.5) is gates.gate("R", 0.5)
        assert oracle_gate("f", OracleFn.NEGATION) is oracle_gate("f", OracleFn.NEGATION)
        assert oracle_gate("f", OracleFn.NEGATION) is not oracle_gate("g", OracleFn.NEGATION)

    def test_signed_zero_angles_stay_apart(self):
        # Whether e^(i*(-0.0)) carries a -0j depends on how the Python
        # multiplies 1j by -0.0 (3.11 gives 1+0j for both signs); either way
        # each cached gate must be its fresh build, down to the bytes.
        plus, minus = gates.gate("R", 0.0), gates.gate("R", -0.0)
        assert plus is not minus
        assert math.copysign(1.0, plus.parameter) == 1.0
        assert math.copysign(1.0, minus.parameter) == -1.0
        assert plus.matrix.tobytes() == gates.phase_shift(0.0).matrix.tobytes()
        assert minus.matrix.tobytes() == gates.phase_shift(-0.0).matrix.tobytes()

    def test_gate_key_is_the_name_and_the_angle_bits(self):
        assert gates.gate_key("H") == ("H", None)
        assert gates.gate_key("R", 0.5) == gates.gate_key("R", 1 / 2) == ("R", (0.5).hex())
        assert gates.gate_key("R", 0.0) != gates.gate_key("R", -0.0)
        assert gates.gate_key("R", 1) == gates.gate_key("R", 1.0)

    @pytest.mark.parametrize("name", ["I", "X", "Z", "H", "CNOT", "R", "oracle"])
    def test_built_matrices_are_read_only(self, name):
        if name == "oracle":
            g = oracle_gate("f", OracleFn.IDENTITY)
        else:
            g = gates.gate(name, 1.0 if name == "R" else None)
        with pytest.raises(ValueError, match="read-only"):
            g.matrix[0, 0] = 2.0

    def test_hand_built_gates_stay_writable(self):
        g = gates.phase_shift(0.5)
        g.matrix[0, 0] = 1.0
        assert gates.hadamard().matrix.flags.writeable
        assert gates.hadamard() is not gates.hadamard()

    def test_caches_stay_at_their_bound(self):
        for i in range(10_000):
            gates.gate("R", i / 7.0)
        assert gates._built.cache_info().currsize == gates.GATE_CACHE_SIZE
        for i in range(gates.GATE_CACHE_SIZE + 10):
            oracle_gate(f"f{i}", OracleFn.CONST1)
        assert oracle_gate.cache_info().currsize == gates.GATE_CACHE_SIZE
        # an evicted key is rebuilt with the same matrix
        assert gates.gate("R", 0.0).matrix.tobytes() == gates.phase_shift(0.0).matrix.tobytes()
