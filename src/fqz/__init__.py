"""fqz: an axiomatic quantum spec language with a checker and simulator.

Write small quantum programs in the .fqz surface language, machine-check
the observable and gate axioms behind them, compile to a circuit, and run
on a deterministic dense state-vector backend. The Deutsch algorithm works
end to end: `fqz deutsch --oracle id`.
"""
from .checker import CheckReport, CheckResult, check_gate, check_observable, check_program
from .circuit import (
    Circuit,
    DeutschVerdict,
    OracleFn,
    RunReport,
    Verdict,
    deutsch,
    deutsch_circuit,
    oracle_unitary,
    run_circuit,
    run_shots,
)
from .gates import BasisMapping, Gate, KetExpr, cnot, hadamard, identity_gate, mapping_to_matrix, pauli_x, pauli_z, phase_shift
from .lang import ParseError, Program, compile_program, parse, parse_source, pretty_print, tokenize
from .state import MeasurementResult, apply_gate, basis_state, measure_qubit, probabilities

__all__ = [
    "BasisMapping",
    "CheckReport",
    "CheckResult",
    "Circuit",
    "DeutschVerdict",
    "Gate",
    "KetExpr",
    "MeasurementResult",
    "OracleFn",
    "ParseError",
    "Program",
    "RunReport",
    "Verdict",
    "apply_gate",
    "basis_state",
    "check_gate",
    "check_observable",
    "check_program",
    "cnot",
    "compile_program",
    "deutsch",
    "deutsch_circuit",
    "hadamard",
    "identity_gate",
    "mapping_to_matrix",
    "measure_qubit",
    "oracle_unitary",
    "parse",
    "parse_source",
    "pauli_x",
    "pauli_z",
    "phase_shift",
    "pretty_print",
    "probabilities",
    "run_circuit",
    "run_shots",
    "tokenize",
]

__version__ = "0.1.0"
