"""Circuit program representation, execution, and the Deutsch routine.

A circuit is a straight-line instruction list. Alloc grows the register
by one qubit (allocation order is significance order: the first qubit
allocated is the most significant), Apply runs a built-in gate by name,
ApplyOracle runs the two-qubit unitary of a named single-bit function on
a (control, register) qubit pair, and Measure reads one qubit out. These
four are also the statements lang's parser builds, so each may carry the
1-based line and column it was parsed from; hand-built ones default to 0,
and positions never take part in equality or hashing.

validate_circuit is the one static check of a circuit: lang.compile_program
and the checker's PROG-SCOPE rule defer to it, and the runners take the
resolved circuit it returns.
"""
from __future__ import annotations

import functools
from enum import Enum
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Union

import numpy as np

from . import gates, state
from .rng import SplitMix64, shot_seed, uniforms

# The six allocation kets of the surface language; H|b> is the state that
# H prepares from |b>, which is |+> or |->.
KET_VECTORS = {f"|{label}>": gates.ket_vector(label, 1) for label in "01+-"}
KET_VECTORS["H|0>"], KET_VECTORS["H|1>"] = KET_VECTORS["|+>"], KET_VECTORS["|->"]
# The register before any allocation: a single amplitude, shared read-only.
_EMPTY_REGISTER = np.ones(1, dtype=np.complex128)
_EMPTY_REGISTER.setflags(write=False)


class OracleFn(Enum):
    """The four single-bit functions; the enum value is the source keyword."""

    CONST0 = "const0"
    CONST1 = "const1"
    IDENTITY = "id"
    NEGATION = "not"

    def evaluate(self, x: int) -> int:
        return _TRUTH_TABLES[self][x & 1]

    @property
    def is_constant(self) -> bool:
        return self.evaluate(0) == self.evaluate(1)


_TRUTH_TABLES = {OracleFn.CONST0: (0, 0), OracleFn.CONST1: (1, 1), OracleFn.IDENTITY: (0, 1), OracleFn.NEGATION: (1, 0)}
ORACLE_KEYWORDS = {fn.value: fn for fn in OracleFn}


def oracle_unitary(fn: OracleFn) -> np.ndarray:
    """4x4 permutation sending |x,y> to |x, f(x) XOR y> (x is the control):
    the identity's rows so ordered, as the permutation is its own inverse."""
    return np.eye(4, dtype=np.complex128)[[2 * x + (fn.evaluate(x) ^ y) for x in (0, 1) for y in (0, 1)]]


@functools.lru_cache(maxsize=gates.GATE_CACHE_SIZE)
def oracle_gate(name: str, fn: OracleFn) -> gates.Gate:
    """The oracle unitary packaged as a gate, mapping definition included;
    built once per (name, fn) and shared, so its matrix is read-only."""
    pairs = tuple((f"{x}{y}", gates.ket(f"{x}{fn.evaluate(x) ^ y}")) for x in (0, 1) for y in (0, 1))
    return gates.shared(gates.Gate(f"N[{name}]", 2, oracle_unitary(fn), gates.BasisMapping(2, pairs)))


def _compared(n: int):
    """__eq__, __ne__ and __hash__ on a record's first n fields (n < 0: all but
    the last -n), unequal to any other class; tuple's own __ne__ reads all."""

    def eq(a, b):
        return type(a) is type(b) and a[:n] == b[:n]

    def ne(a, b):
        return type(a) is not type(b) or a[:n] != b[:n]

    return eq, ne, lambda a: hash(a[:n])


class Alloc(NamedTuple):
    name: str
    ket: str  # one of the keys of KET_VECTORS
    line: int = 0
    column: int = 0
    __eq__, __ne__, __hash__ = _compared(-2)


class Apply(NamedTuple):
    gate: str
    targets: tuple[str, ...]
    parameter: float | None = None
    line: int = 0
    column: int = 0
    __eq__, __ne__, __hash__ = _compared(-2)


class ApplyOracle(NamedTuple):
    oracle: str
    control: str
    register: str
    line: int = 0
    column: int = 0
    __eq__, __ne__, __hash__ = _compared(-2)


class Measure(NamedTuple):
    name: str
    line: int = 0
    column: int = 0
    __eq__, __ne__, __hash__ = _compared(-2)


Instruction = Union[Alloc, Apply, ApplyOracle, Measure]


class CircuitError(ValueError):
    """Invalid circuit, pinned to the instruction that broke it."""

    def __init__(self, index: int, message: str):
        super().__init__(f"instruction {index}: {message}")
        self.index = index
        self.message = message


class Circuit(NamedTuple("Circuit", [("instructions", tuple), ("ops", tuple), ("oracles", Mapping)])):
    """validate_circuit's result also carries its ops, one per instruction,
    and a read-only copy of the oracle table they were resolved under;
    neither takes part in equality, hashing, repr or len. Iterating,
    unpacking or calling tuple() on a Circuit yields its three fields
    (instructions, ops, oracles); use circuit.instructions for the
    instructions."""

    __slots__ = ()
    __eq__, __ne__, __hash__ = _compared(1)
    _make = classmethod(lambda cls, fields: cls(*fields))  # namedtuple's checks len(); this one stores a tuple

    def __new__(cls, instructions, ops: tuple[tuple, ...] | None = None, oracles: Mapping[str, OracleFn] | None = None):
        return tuple.__new__(cls, (tuple(instructions), ops, oracles))

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"Circuit(instructions={self.instructions!r})"


def _check_operands(index: int, what: str, arity: int, targets: tuple, qubits: dict[str, int]) -> tuple[int, ...]:
    """The register indices of `targets`, once they are `arity` distinct declared qubits."""
    if len(targets) != arity:
        raise CircuitError(index, f"{what} has arity {arity} but got {len(targets)} target(s)")
    for q in targets:
        if q not in qubits:
            raise CircuitError(index, f"undeclared qubit {q!r}")
    if len(set(targets)) != len(targets):
        raise CircuitError(index, f"{what} targets qubit {targets[0]!r} twice")
    return tuple(qubits[q] for q in targets)


def _resolve(i: int, ins: Instruction, qubits: dict[str, int], oracles: Mapping[str, OracleFn]) -> tuple:
    """Check instruction i against the qubits declared before it and return
    its op; an Alloc also declares its qubit."""
    if isinstance(ins, Alloc):
        if ins.name in qubits:
            raise CircuitError(i, f"qubit {ins.name!r} allocated twice")
        if len(qubits) >= state.MAX_QUBITS:
            raise CircuitError(i, f"register cap of {state.MAX_QUBITS} qubits exceeded")
        if ins.ket not in KET_VECTORS:
            raise CircuitError(i, f"unknown allocation ket {ins.ket!r}")
        qubits[ins.name] = len(qubits)
        return "alloc", KET_VECTORS[ins.ket]
    if isinstance(ins, Apply):
        try:
            g = gates.gate(ins.gate, ins.parameter)
        except ValueError as exc:
            raise CircuitError(i, str(exc)) from None
        return "gate", g, _check_operands(i, f"gate {ins.gate}", g.arity, ins.targets, qubits)
    if isinstance(ins, ApplyOracle):
        if ins.oracle not in oracles:
            raise CircuitError(i, f"unresolved oracle name {ins.oracle!r}")
        fn = oracles[ins.oracle]
        if not isinstance(fn, OracleFn):
            raise CircuitError(i, f"oracle {ins.oracle!r} is bound to {fn!r}, not an OracleFn")
        g = oracle_gate(ins.oracle, fn)
        return "gate", g, _check_operands(i, f"oracle N[{ins.oracle}]", 2, (ins.control, ins.register), qubits)
    if isinstance(ins, Measure):
        return "measure", _check_operands(i, "measure", 1, (ins.name,), qubits)[0]
    raise CircuitError(i, f"unknown instruction {ins!r}")


def validate_circuit(circuit: Circuit, oracles: Mapping[str, OracleFn]) -> Circuit:
    """Static checks, run before execution: declaration before use, no
    double allocation, register cap, known allocation kets, built-in gate
    names with a finite angle exactly where one is needed, every oracle
    name resolvable, and as many distinct operands as the gate or oracle
    acts on. The first rule broken raises its CircuitError. A valid circuit
    comes back resolved: its ops hold ("state", the read-only state it
    leaves) for each Alloc of the leading run of Allocs, then ("alloc", ket
    vector), ("gate", shared Gate, target indices) or ("measure", target
    index)."""
    qubits: dict[str, int] = {}  # name -> register index, in allocation order
    ops: list[tuple] = []
    for i, ins in enumerate(circuit.instructions):
        try:
            ops.append(_resolve(i, ins, qubits, oracles))
        except TypeError as exc:  # an unhashable name, ket or gate in a hand-built instruction
            raise CircuitError(i, f"malformed instruction {ins!r}: {exc}") from None
    psi = _EMPTY_REGISTER
    for i, op in enumerate(ops):
        if op[0] != "alloc":
            break
        psi = np.multiply.outer(psi, op[1]).reshape(-1)
        psi.setflags(write=False)  # every shot shares it
        ops[i] = ("state", psi)
    return Circuit(circuit.instructions, tuple(ops), MappingProxyType(dict(oracles)))


def _resolved(circuit: Circuit, oracles: Mapping[str, OracleFn]) -> Circuit:
    """`circuit` if validate_circuit resolved it under an equal oracle
    table, else its resolution under `oracles`."""
    if circuit.ops is not None and circuit.oracles == oracles:
        return circuit
    return validate_circuit(circuit, oracles)


class Step(NamedTuple):
    """State of the run after one instruction."""

    index: int
    instruction: Instruction
    state: np.ndarray
    measured: tuple[str, int, float] | None = None  # set for Measure instructions only


def iter_steps(circuit: Circuit, oracles: Mapping[str, OracleFn], seed: int) -> Iterator[Step]:
    """Execute instruction by instruction, yielding the state after each.

    The circuit is validated at the first next(), unless validate_circuit
    already resolved it under an oracle table equal to `oracles`.
    Measurement outcomes are drawn from a splitmix64 stream seeded by
    `seed`, one sub-seed per Measure, so a run is a pure function of
    (circuit, oracles, seed).
    """
    circuit = _resolved(circuit, oracles)
    rng = SplitMix64(seed)
    psi = _EMPTY_REGISTER  # never yielded: a valid circuit's first op replaces it
    record = tuple.__new__  # builds a Step in C, without NamedTuple's Python __new__
    for i, (ins, op) in enumerate(zip(circuit.instructions, circuit.ops)):
        kind, measured = op[0], None
        if kind == "gate":
            psi = state.apply_gate(psi, op[1], op[2])
        elif kind == "measure":
            bit, psi, probability = state.measure_qubit(psi, op[1], rng.next_u64())
            measured = (ins.name, bit, probability)
        elif kind == "state":
            psi = op[1]
        else:
            psi = np.multiply.outer(psi, op[1]).reshape(-1)
        yield record(Step, (i, ins, psi, measured))


class RunReport(NamedTuple):
    """Outcome of executing a circuit.

    final_state is the register after the last instruction; the state
    snapshot taken just before each Measure is kept in pre_measure_states
    (parallel to measured). shots holds per-outcome counts when the run
    was a batch.
    """

    final_state: np.ndarray
    measured: tuple[tuple[str, int, float], ...]
    pre_measure_states: tuple[np.ndarray, ...]
    shots: dict[str, int] | None = None
    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__  # identity, as the states are arrays

    @property
    def outcome(self) -> str:
        """Measured bits concatenated in measurement order."""
        return "".join(str(bit) for _, bit, _ in self.measured)

    @property
    def amplitudes(self) -> np.ndarray:
        """The superposition the measurements consume: the state just before
        the first Measure, or the final state if nothing is measured."""
        return self.pre_measure_states[0] if self.pre_measure_states else self.final_state


def run_circuit(circuit: Circuit, oracles: Mapping[str, OracleFn], seed: int) -> RunReport:
    """Single-shot execution (see iter_steps)."""
    psi = np.ones(1, dtype=np.complex128)
    measured: list[tuple[str, int, float]] = []
    pres: list[np.ndarray] = []
    for step in iter_steps(circuit, oracles, seed):
        if step.measured is not None:  # psi is still the state the measure consumed
            measured.append(step.measured)
            pres.append(psi)
        psi = step.state
    return RunReport(psi, tuple(measured), tuple(pres))


# Most draws (shots times measures), and most floats of padded p(1) rows, the
# shot engine holds at once, so its memory does not grow with the shot count.
BLOCK_DRAWS = 2**20


def run_shots(circuit: Circuit, oracles: Mapping[str, OracleFn], root_seed: int, shots: int) -> RunReport:
    """Batch execution. Shot i runs with seed mix64(root_seed XOR i); the
    returned report is shot 0's, with the outcome tally attached in order
    of first appearance. The circuit is resolved at most once; a terminal
    program run for 2+ shots takes _trie_shots. Any other runs shot 0
    through run_circuit and tallies each later shot by joining the bits
    its iter_steps records carry, building no report for it."""
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    circuit = _resolved(circuit, oracles)
    first_measure = next((i for i, op in enumerate(circuit.ops) if op[0] == "measure"), len(circuit))
    if shots > 1 and all(op[0] == "measure" for op in circuit.ops[first_measure:]):
        return _trie_shots(circuit, first_measure, root_seed, shots)
    first = run_circuit(circuit, oracles, shot_seed(root_seed, 0))
    counts = {first.outcome: 1}
    for i in range(1, shots):
        steps = iter_steps(circuit, oracles, shot_seed(root_seed, i))
        outcome = "".join([str(step.measured[1]) for step in steps if step.measured is not None])
        counts[outcome] = counts.get(outcome, 0) + 1
    return RunReport(first.final_state, first.measured, first.pre_measure_states, counts)


def _trie_shots(circuit: Circuit, first_measure: int, root_seed: int, shots: int) -> RunReport:
    """run_shots of a resolved terminal circuit, with the shot loop's bits
    and bytes: the gates run once, then each block of shots walks the trie
    of outcomes a measure at a time, in numpy calls per level, not per node.
    The state, permuted once into measurement order (qubits by first read,
    then the rest), holds each node's row as one block; `columns`, arange
    permuted alike, gives each position's basis index, so a row of length L
    sits at offset + columns[:L], its measured bits in `offset`. Branch b of
    a newly read qubit is a row's b-th half; a qubit read again puts each row
    back into the branch its bit names. Branch 0 is empty when its float view
    holds no nonzero. `node` maps each shot to its row. Shot 0's states are
    rows of one array, and a block's outcomes are spelt in one pass."""
    psi = _prefix_state(circuit.ops[:first_measure])
    targets = [op[1] for op in circuit.ops[first_measure:]]
    if not targets:  # every shot reads the empty outcome: no draws, O(1) in shots
        return RunReport(psi, (), (), {"": shots})
    n, depth = psi.size.bit_length() - 1, len(targets)
    order = list(dict.fromkeys([*targets, *range(n)]))  # each qubit at its first read, the rest after
    ordered, columns = (a.reshape((2,) * n).transpose(order).reshape(-1) for a in (psi, np.arange(psi.size)))
    states, measured, counts = np.zeros((depth, psi.size), dtype=np.complex128), [], {}  # shot 0's, after each measure
    block = max(1, BLOCK_DRAWS // depth)
    for start in range(0, shots, block):
        u = uniforms(root_seed, start, min(block, shots - start), depth)  # column k turns into measure k's bits
        padded = np.zeros((min(max(1, BLOCK_DRAWS // (psi.size >> 1)), len(u)), psi.size >> 1))
        amps, offset, node, read = ordered[None, :], np.zeros(1, dtype=np.intp), np.zeros(len(u), dtype=np.intp), set()
        for k, t in enumerate(targets):
            low = psi.size >> (t + 1)  # qubit t's place value
            if t in read:  # each row goes back into the branch its bit names, beside zeros
                bits = (offset & low) // low
                amps, offset = np.where((bits[:, None] == [0, 1])[:, :, None], amps[:, None, :], 0), offset - bits * low
            a3 = amps.reshape(len(amps), 2, -1)
            read.add(t)
            p_one = _branch_probabilities(padded, a3[:, 1], offset + low, columns[: a3.shape[2]], low)
            if np.maximum.reduce(p_one) == np.inf:
                raise ValueError(f"p(1) of qubit {t} overflows to inf")
            held = np.logical_or.reduce(a3[:, 0].view(np.float64), axis=1)  # branch 0 has a nonzero float
            u[:, k] = ones = u[:, k] < np.where(held, p_one, np.sign(p_one))[node]  # else 1 iff p(1) > 0: draws are < 1
            key = 2 * node + ones
            present = np.bincount(key, minlength=2 * len(amps)) > 0  # which (node, bit) children have shots
            node = (present.cumsum() - 1)[key]
            parent, bit = np.divmod(present.nonzero()[0], 2)
            prob = np.where(bit, p_parent := p_one[parent], 1.0 - p_parent)
            amps, offset = a3[parent, bit] / np.sqrt(prob)[:, None], offset[parent] + bit * low
            if start == 0:
                states[k, offset[node[0]] + columns[: amps.shape[1]]] = amps[node[0]]
                measured.append((circuit.instructions[first_measure + k].name, int(bit[node[0]]), float(prob[node[0]])))
        _, first, tally = np.unique(node, return_index=True, return_counts=True)
        text = (u[first[by_first := first.argsort()]] + ord("0")).astype(np.uint8).tobytes().decode()  # by first appearance
        for i, m in enumerate(tally[by_first].tolist()):
            outcome = text[i * depth : (i + 1) * depth]
            counts[outcome] = counts.get(outcome, 0) + m
    return RunReport(states[-1], tuple(measured), (psi, *states[:-1]), counts)


def _prefix_state(ops: tuple) -> np.ndarray:
    """The state that resolved ops with no measure leave, bit for bit as
    iter_steps makes it. Each gate's product stays targets first, as np.dot
    leaves it: `order` names the qubit on each axis, composing each
    placement's `axes`, and one transpose at the end restores qubit order."""
    psi, order = np.ones(1, dtype=np.complex128), []
    for op in ops:
        if op[0] == "state":
            psi, order = op[1], list(range(op[1].size.bit_length() - 1))
        elif op[0] == "alloc":
            psi = np.multiply.outer(psi, op[1]).reshape(-1)
            order.append(len(order))
        else:  # apply_gate's operand and product, with the other qubits' columns in `order`'s order
            axes = state._cached_layout(tuple(map(order.index, op[2])), len(order))[0]
            psi = op[1].matrix.dot(psi.reshape((2,) * len(order)).transpose(axes).reshape(1 << len(op[2]), -1))
            order = [order[a] for a in axes]
    return psi.reshape((2,) * len(order)).transpose(np.argsort(order)).reshape(-1)


def _branch_probabilities(padded: np.ndarray, ones: np.ndarray, offset: np.ndarray, columns: np.ndarray, low: int) -> np.ndarray:
    """Each node's p(1) of the qubit of place value `low`, bit for bit
    state.measure_qubit's at full size: node r's branch-1 amplitudes ones[r]
    sit at basis indices offset[r] + columns, and their squares fill a
    full-size branch-1 row of the zeroed buffer `padded` for np.add.reduce,
    as many rows at a time as it holds; zeros put back leave it zeroed."""
    squares, at = np.square(np.abs(ones)), np.add.outer(offset, columns)
    at = (at >> 1) & -low | at & (low - 1)  # each index's place in the branch-1 view: bit `low` taken out
    flat, (chunk, half), p_one = padded.reshape(-1), padded.shape, np.empty(len(ones))
    for i in range(0, len(ones), chunk):
        place = at[i : i + chunk] + half * np.arange(len(at[i : i + chunk]))[:, None]
        flat[place] = squares[i : i + chunk]
        p_one[i : i + chunk] = np.add.reduce(padded[: len(place)], axis=1)
        flat[place] = 0.0
    return p_one


def pre_measurement_state(circuit: Circuit, oracles: Mapping[str, OracleFn]) -> np.ndarray:
    """The state the measurements consume (RunReport.amplitudes). The seed
    only picks the outcomes drawn after it, so any seed gives this state."""
    return run_circuit(circuit, oracles, seed=0).amplitudes


class Verdict(Enum):
    CONSTANT = "CONSTANT"
    BALANCED = "BALANCED"


class DeutschVerdict(NamedTuple):
    verdict: Verdict
    measured_bit: int
    probability: float  # of the measured bit; 1 up to rounding


def deutsch_circuit() -> Circuit:
    """The five-step Deutsch circuit over an oracle named "f":
    prepare x = H|0> and y = H|1>, query the oracle, interfere x with H,
    then measure x."""
    return Circuit(
        [
            Alloc("x", "H|0>"),
            Alloc("y", "H|1>"),
            ApplyOracle("f", "x", "y"),
            Apply("H", ("x",)),
            Measure("x"),
        ]
    )


def deutsch(fn: OracleFn, seed: int = 0) -> DeutschVerdict:
    """Decide constant vs balanced with one oracle query.

    The measured bit is 0 exactly for the constant functions; the outcome
    is deterministic (probability 1), so the seed never changes the
    verdict.
    """
    _, bit, probability = run_circuit(deutsch_circuit(), {"f": fn}, seed).measured[0]
    return DeutschVerdict(Verdict.CONSTANT if bit == 0 else Verdict.BALANCED, bit, probability)
