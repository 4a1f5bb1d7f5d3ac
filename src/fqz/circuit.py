"""Circuit program representation, execution, and the Deutsch routine.

A circuit is a straight-line instruction list. Alloc grows the register
by one qubit (allocation order is significance order: the first qubit
allocated is the most significant), Apply runs a built-in gate by name,
ApplyOracle runs the two-qubit unitary of a named single-bit function on
a (control, register) qubit pair, and Measure reads one qubit out.

Execution is strictly in order. validate_circuit is the one authority on
whether a circuit is well formed (scoping, allocation kets, gate names and
angles, the register cap, oracle names): it rejects a bad circuit before
any instruction runs, with the index of the offending instruction, and
lang.compile_program and the checker's PROG-SCOPE rule defer to it.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Union

import numpy as np

from . import gates, state
from .rng import SplitMix64, shot_seed

# The six allocation kets of the surface language; H|b> is the state that
# H prepares from |b>, which is |+> or |->.
KET_VECTORS = {f"|{label}>": gates.ket_vector(label, 1) for label in "01+-"}
KET_VECTORS["H|0>"], KET_VECTORS["H|1>"] = KET_VECTORS["|+>"], KET_VECTORS["|->"]


class OracleFn(Enum):
    """The four single-bit functions; the enum value is the source keyword."""

    CONST0 = "const0"
    CONST1 = "const1"
    IDENTITY = "id"
    NEGATION = "not"

    def evaluate(self, x: int) -> int:
        table = {
            OracleFn.CONST0: (0, 0),
            OracleFn.CONST1: (1, 1),
            OracleFn.IDENTITY: (0, 1),
            OracleFn.NEGATION: (1, 0),
        }
        return table[self][x & 1]

    @property
    def is_constant(self) -> bool:
        return self.evaluate(0) == self.evaluate(1)


ORACLE_KEYWORDS = {fn.value: fn for fn in OracleFn}


def oracle_unitary(fn: OracleFn) -> np.ndarray:
    """4x4 permutation sending |x,y> to |x, f(x) XOR y> (x is the control)."""
    u = np.zeros((4, 4), dtype=np.complex128)
    for x in (0, 1):
        for y in (0, 1):
            u[2 * x + (fn.evaluate(x) ^ y), 2 * x + y] = 1.0
    return u


def oracle_gate(name: str, fn: OracleFn) -> gates.Gate:
    """The oracle unitary packaged as a gate, mapping definition included."""
    pairs = []
    for x in (0, 1):
        for y in (0, 1):
            pairs.append((f"{x}{y}", gates.ket(f"{x}{fn.evaluate(x) ^ y}")))
    return gates.Gate(f"N[{name}]", 2, oracle_unitary(fn), gates.BasisMapping(2, tuple(pairs)))


@dataclass(frozen=True)
class Alloc:
    name: str
    ket: str  # one of the keys of KET_VECTORS


@dataclass(frozen=True)
class Apply:
    gate: str
    targets: tuple[str, ...]
    parameter: float | None = None


@dataclass(frozen=True)
class ApplyOracle:
    oracle: str
    control: str
    register: str


@dataclass(frozen=True)
class Measure:
    name: str


Instruction = Union[Alloc, Apply, ApplyOracle, Measure]


class CircuitError(ValueError):
    """Invalid circuit, pinned to the instruction that broke it."""

    def __init__(self, index: int, message: str):
        super().__init__(f"instruction {index}: {message}")
        self.index = index
        self.message = message


@dataclass(frozen=True)
class Circuit:
    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))

    def __len__(self) -> int:
        return len(self.instructions)


def validate_circuit(circuit: Circuit, oracles: Mapping[str, OracleFn]) -> None:
    """Static checks, run before execution: declaration before use, no
    double allocation, register cap, known allocation kets, built-in gate
    names with an angle exactly where one is needed, every oracle name
    resolvable."""
    declared: list[str] = []
    for i, ins in enumerate(circuit.instructions):
        if isinstance(ins, Alloc):
            if ins.name in declared:
                raise CircuitError(i, f"qubit {ins.name!r} allocated twice")
            if len(declared) >= state.MAX_QUBITS:
                raise CircuitError(i, f"register cap of {state.MAX_QUBITS} qubits exceeded")
            if ins.ket not in KET_VECTORS:
                raise CircuitError(i, f"unknown allocation ket {ins.ket!r}")
            declared.append(ins.name)
        elif isinstance(ins, Apply):
            try:
                gates.validate_gate_args(ins.gate, ins.parameter)
            except ValueError as exc:
                raise CircuitError(i, str(exc)) from None
            for q in ins.targets:
                if q not in declared:
                    raise CircuitError(i, f"undeclared qubit {q!r}")
        elif isinstance(ins, ApplyOracle):
            if ins.oracle not in oracles:
                raise CircuitError(i, f"unresolved oracle name {ins.oracle!r}")
            for q in (ins.control, ins.register):
                if q not in declared:
                    raise CircuitError(i, f"undeclared qubit {q!r}")
        elif isinstance(ins, Measure):
            if ins.name not in declared:
                raise CircuitError(i, f"undeclared qubit {ins.name!r}")
        else:
            raise CircuitError(i, f"unknown instruction {ins!r}")


@dataclass(frozen=True, eq=False)
class Step:
    """State of the run after one instruction."""

    index: int
    instruction: Instruction
    state: np.ndarray
    # set for Measure instructions only
    measured: tuple[str, int, float] | None = None
    pre_measure_state: np.ndarray | None = None


def iter_steps(circuit: Circuit, oracles: Mapping[str, OracleFn], seed: int) -> Iterator[Step]:
    """Execute instruction by instruction, yielding the state after each.

    Measurement outcomes are drawn from a splitmix64 stream seeded by
    `seed`, one sub-seed per Measure, so a run is a pure function of
    (circuit, oracles, seed).
    """
    validate_circuit(circuit, oracles)
    rng = SplitMix64(seed)
    names: list[str] = []
    psi = np.ones(1, dtype=np.complex128)  # empty register: a single amplitude
    for i, ins in enumerate(circuit.instructions):
        measured = None
        pre = None
        if isinstance(ins, Alloc):
            names.append(ins.name)
            psi = np.kron(psi, KET_VECTORS[ins.ket])
        elif isinstance(ins, Apply):
            g = gates.gate(ins.gate, ins.parameter)
            psi = state.apply_gate(psi, g, [names.index(q) for q in ins.targets])
        elif isinstance(ins, ApplyOracle):
            g = oracle_gate(ins.oracle, oracles[ins.oracle])
            psi = state.apply_gate(psi, g, [names.index(ins.control), names.index(ins.register)])
        else:
            pre = psi
            result = state.measure_qubit(psi, names.index(ins.name), rng.next_u64())
            measured = (ins.name, result.bit, result.probability)
            psi = result.post_state
        yield Step(i, ins, psi, measured, pre)


@dataclass(frozen=True, eq=False)
class RunReport:
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
    """Single-shot execution."""
    psi = np.ones(1, dtype=np.complex128)
    measured: list[tuple[str, int, float]] = []
    pres: list[np.ndarray] = []
    for step in iter_steps(circuit, oracles, seed):
        psi = step.state
        if step.measured is not None:
            measured.append(step.measured)
            pres.append(step.pre_measure_state)
    return RunReport(psi, tuple(measured), tuple(pres))


def run_shots(circuit: Circuit, oracles: Mapping[str, OracleFn], root_seed: int, shots: int) -> RunReport:
    """Batch execution. Shot i runs with seed mix64(root_seed XOR i); the
    returned report is shot 0's, with the outcome tally attached."""
    if shots < 1:
        raise ValueError(f"shot count must be >= 1, got {shots}")
    counts: dict[str, int] = {}
    first: RunReport | None = None
    for i in range(shots):
        report = run_circuit(circuit, oracles, shot_seed(root_seed, i))
        if first is None:
            first = report
        counts[report.outcome] = counts.get(report.outcome, 0) + 1
    return RunReport(first.final_state, first.measured, first.pre_measure_states, counts)


def pre_measurement_state(circuit: Circuit, oracles: Mapping[str, OracleFn]) -> np.ndarray:
    """The state the measurements consume (RunReport.amplitudes). The seed
    only picks the outcomes drawn after it, so any seed gives this state."""
    return run_circuit(circuit, oracles, seed=0).amplitudes


class Verdict(Enum):
    CONSTANT = "CONSTANT"
    BALANCED = "BALANCED"


@dataclass(frozen=True)
class DeutschVerdict:
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
