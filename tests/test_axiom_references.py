"""The gate-axiom rules and PROG-NORM against the code they replaced.

gates.mapping_to_matrix builds the inverse of basis-labelled inputs as
their transpose instead of solving through inv(), checker.check_gate
compares the induced matrix inline instead of through approx_equal, and
PROG-NORM sums the squared moduli inline instead of calling
np.linalg.norm. brute_force keeps the replaced functions; every result
here must match theirs exactly: the same matrix bytes or MappingError
text, the same report, the same detail.
"""
import cmath
import itertools
import math
import random

import numpy as np
import pytest
from brute_force import inverting_check_gate, inverting_mapping_to_matrix
from fuzz_programs import random_program
from hypothesis import given, settings
from hypothesis import strategies as st

from fqz import checker, gates, lang
from fqz.circuit import iter_steps

BASIS = {1: ("0", "1"), 2: ("00", "01", "10", "11")}
INPUTS = {1: ("0", "1", "+", "-"), 2: BASIS[2]}
TOLERANCES = st.sampled_from([1e-300, 1e-9, 0.5, 0.999])
# Exact zeros and phases in every quadrant: zgemm's product with the
# permutation signs some zeros by the other entries' signs.
ANGLES = st.one_of(
    st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2, 3 * math.pi / 4, -math.pi / 4]),
    st.floats(-4.0, 4.0),
)


@st.composite
def unit_kets(draw, arity):
    """A single phased label of the input alphabet, or a unit combination
    of two basis labels."""
    phase = cmath.exp(1j * draw(ANGLES))
    if draw(st.booleans()):
        return gates.ket(draw(st.sampled_from(INPUTS[arity])), phase)
    a, b = draw(st.permutations(BASIS[arity]))[:2]
    theta = draw(ANGLES)
    return gates.KetExpr(((complex(math.cos(theta)), a), (phase * math.sin(theta), b)))


def _unitary(draw, arity):
    """A phased rotation, or for two qubits a product of two of them,
    optionally followed by CNOT."""
    if arity == 2:
        w = np.kron(_unitary(draw, 1), _unitary(draw, 1))
        return gates.cnot().matrix @ w if draw(st.booleans()) else w
    alpha, theta, beta = draw(ANGLES), draw(ANGLES), draw(ANGLES)
    rotation = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    return np.diag([1.0, cmath.exp(1j * alpha)]) @ rotation @ np.diag([1.0, cmath.exp(1j * beta)])


@st.composite
def mappings(draw):
    """2**arity to 4 distinct inputs in any order, half the time with the
    basis kets first. Outputs are drawn freely, from a pool of at most two
    kets (so that they collide), as phased distinct labels of one basis, or
    as the images under one unitary, whose last pair may be replaced by
    another ket (an inconsistent extra pair when there are more than
    2**arity)."""
    arity = draw(st.sampled_from([1, 2]))
    inputs = draw(st.permutations(INPUTS[arity]))
    if draw(st.booleans()):
        inputs = sorted(inputs, key=lambda label: label in ("+", "-"))
    inputs = inputs[: draw(st.integers(2**arity, 4))]
    mode = draw(st.sampled_from(["free", "pool", "labels", "images"]))
    if mode == "free":
        outputs = [draw(unit_kets(arity)) for _ in inputs]
    elif mode == "labels":
        alphabets = [BASIS[1], ("+", "-")] if arity == 1 else [BASIS[2]]
        labels = draw(st.permutations(draw(st.sampled_from(alphabets))))
        outputs = [gates.ket(label, cmath.exp(1j * draw(ANGLES))) for label in (labels * 2)[: len(inputs)]]
    elif mode == "pool":
        pool = draw(st.lists(unit_kets(arity), min_size=1, max_size=2))
        outputs = [draw(st.sampled_from(pool)) for _ in inputs]
    else:
        w = _unitary(draw, arity)
        outputs = [
            gates.KetExpr(tuple(zip(map(complex, w @ gates.ket_vector(label, arity)), BASIS[arity])))
            for label in inputs
        ]
        if draw(st.booleans()):
            outputs[-1] = draw(unit_kets(arity))
    return gates.BasisMapping(arity, tuple(zip(inputs, outputs)))


def _outcome(fn, mapping, tol):
    try:
        return "matrix", fn(mapping, tol).tobytes()
    except gates.MappingError as exc:
        return "error", str(exc)


# Entries that break a matrix in each way check_gate tells apart: not
# finite, overflowing inside the rules, and not numbers at all.
_BAD_ENTRIES = st.sampled_from([math.nan, complex(0, math.inf), 1e200, -1e200j, "a", None, {}])


@st.composite
def gate_matrices(draw, mapping):
    """The mapping's own matrix (when it induces one), nudged or not (by
    0.5, exactly a tolerance drawn), or a built-in's; a matrix of another
    shape, some of the same size; or a good one with some entries broken."""
    arity = 1 if mapping is None else mapping.arity
    dim = 2**arity
    kind = draw(st.sampled_from(["own", "builtin", "shape", "broken"]))
    matrix = gates.gate("H" if arity == 1 else "CNOT").matrix.copy()
    if kind == "own" and mapping is not None:
        try:
            matrix = inverting_mapping_to_matrix(mapping, 0.5)
        except gates.MappingError:
            pass
        matrix = matrix + draw(st.sampled_from([0.0, 1e-12, 1e-6, 0.3, 0.5]))
    elif kind == "builtin":
        names = ["I", "X", "Z", "H"] if arity == 1 else ["CNOT"]
        matrix = gates.gate(draw(st.sampled_from(names))).matrix
    elif kind == "shape":
        shapes = [(dim, dim + 1), (dim + 1, dim), (2 * dim, 2 * dim), (1, 1), (1, dim * dim), (dim * dim, 1)]
        rows, cols = draw(st.sampled_from(shapes))
        return np.ones((rows, cols), dtype=np.complex128) / math.sqrt(cols)
    elif kind == "broken":
        cell = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1), _BAD_ENTRIES)
        cells = draw(st.lists(cell, min_size=1, max_size=3))
        rows = matrix.tolist()
        for i, j, bad in cells:
            rows[i][j] = bad
        return rows
    return matrix


class TestMappingToMatrix:
    @settings(max_examples=200, deadline=None)
    @given(mappings(), TOLERANCES)
    def test_same_bytes_or_same_error_as_inverting(self, mapping, tol):
        assert _outcome(gates.mapping_to_matrix, mapping, tol) == _outcome(inverting_mapping_to_matrix, mapping, tol)

    @pytest.mark.parametrize("arity", [1, 2])
    def test_every_phased_permutation_of_basis_kets(self, arity):
        # Unitary mappings whose matrices are mostly exact zeros, with
        # phases in every quadrant: the cases where zgemm signs a zero.
        phases = [cmath.exp(1j * k * math.pi / 4) for k in range(8)]
        if arity == 1:
            alphabets, patterns = (BASIS[1], ("+", "-")), list(itertools.product(phases, repeat=2))
        else:
            alphabets, patterns = (BASIS[2],), [[phases[(k + 3 * i) % 8] for i in range(4)] for k in range(8)]
        cases = 0
        for inputs in itertools.permutations(BASIS[arity]):
            for alphabet in alphabets:
                for labels in itertools.permutations(alphabet):
                    for picked in patterns:
                        mapping = gates.BasisMapping(arity, tuple(zip(inputs, map(gates.ket, labels, picked))))
                        got = _outcome(gates.mapping_to_matrix, mapping, 1e-9)
                        assert got == _outcome(inverting_mapping_to_matrix, mapping, 1e-9), mapping
                        cases += 1
        assert cases == (512 if arity == 1 else 4608)

    @pytest.mark.parametrize("name", ["I", "X", "Z", "H", "CNOT", "R"])
    def test_builtins_match_and_only_h_is_solved(self, name, monkeypatch):
        mapping = (gates.phase_shift(0.5) if name == "R" else gates.gate(name)).mapping
        want = inverting_mapping_to_matrix(mapping).tobytes()
        inverted = []
        monkeypatch.setattr(np.linalg, "inv", lambda m, inv=np.linalg.inv: inverted.append(m) or inv(m))
        assert gates.mapping_to_matrix(mapping).tobytes() == want
        # H's first two inputs are |0> and |+>, not a permutation of the basis
        assert len(inverted) == (name == "H")


class TestCheckGate:
    @settings(max_examples=150, deadline=None)
    @given(st.data(), TOLERANCES)
    def test_same_report_as_inverting(self, data, tol):
        mapping = data.draw(st.one_of(st.none(), mappings()))
        matrix = data.draw(gate_matrices(mapping))
        g = gates.Gate("G", 1 if mapping is None else mapping.arity, matrix, mapping)
        assert checker.check_gate(g, tol) == inverting_check_gate(g, tol)

    @pytest.mark.parametrize("tol", [1e-300, 1e-9, 0.5, 0.999])
    @pytest.mark.parametrize(
        "name, matrix",
        [
            ("X", np.ones((1, 4))),  # the size of X's matrix, not its shape
            ("CNOT", np.ones((2, 8))),
            ("X", gates.pauli_x().matrix + 0.5),  # off by exactly the tolerance 0.5
            ("H", [[math.nan, 0], [0, 1]]),
            ("H", [[1e200, 1e200], [1e200, -1e200]]),
            ("Z", [[1, "a"], [0, 1]]),
        ],
    )
    def test_same_report_on_pinned_subjects(self, name, matrix, tol):
        g = gates.Gate(name, gates.gate(name).arity, matrix, gates.gate(name).mapping)
        assert checker.check_gate(g, tol) == inverting_check_gate(g, tol)


def _linalg_norm_detail(source: str) -> str:
    """PROG-NORM's detail with one np.linalg.norm per step."""
    circuit, oracles = lang.compile_program(lang.parse_source(source))
    worst = 0.0
    for step in iter_steps(circuit, oracles, checker.DEFAULT_SEED):
        worst = max(worst, abs(float(np.linalg.norm(step.state)) - 1.0))
    return f"max |norm - 1| = {worst:.3e} over {len(circuit)} instruction(s)"


class TestProgNorm:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_same_detail_as_linalg_norm(self, seed, max_qubits):
        source = random_program(random.Random(seed), max_qubits=max_qubits, max_statements=40)
        norm = checker.check_program(lang.parse_source(source)).checks[1]
        assert norm.rule == "PROG-NORM"
        assert norm.detail == _linalg_norm_detail(source)
        # and each step's sum is np.linalg.norm's to the bit
        circuit, oracles = lang.compile_program(lang.parse_source(source))
        for step in iter_steps(circuit, oracles, checker.DEFAULT_SEED):
            x = step.state
            assert math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) == float(np.linalg.norm(x))
