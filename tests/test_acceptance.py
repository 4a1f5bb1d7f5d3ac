"""Acceptance suite: one test per shipping criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
then asserts, so the suite doubles as a human-readable scorecard:

    python -m pytest tests/test_acceptance.py -v -s
"""
import itertools
import json
import math
import random

import numpy as np

from brute_force import builtin_gates, expanded_unitary
from fuzz_programs import deutsch_source, mutate, random_program
from fqz import checker, cli, gates, lang, state
from fqz import circuit as fc
from fqz.linalg import eigenvalues_2x2

SQRT_HALF = 1.0 / math.sqrt(2.0)


def report(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_1_deutsch_dichotomy():
    """Constant oracles give bit 0, balanced give bit 1, certainly, for
    100 seeds each."""
    ok = True
    for fn in fc.OracleFn:
        expected_bit = 0 if fn.is_constant else 1
        for seed in range(100):
            rep = fc.run_circuit(fc.deutsch_circuit(), {"f": fn}, seed)
            _, bit, probability = rep.measured[0]
            if bit != expected_bit or abs(probability - 1.0) > 1e-9:
                ok = False
    report(1, ok, "Deutsch dichotomy holds with certainty for all four oracles across 100 seeds each")


def test_criterion_2_observable_axioms():
    ok = checker.check_observable(np.eye(2)).overall
    for name in ("X", "Z", "H"):
        ok = ok and checker.check_observable(gates.gate(name).matrix).overall

    for bad in ([[1, 0], [0, 1j]], gates.phase_shift(math.pi / 2).matrix):
        rules = {c.rule: c for c in checker.check_observable(bad).checks}
        ok = ok and not rules["OBS-2"].passed and not rules["OBS-3"].passed

    # every passing 2x2 subject must have a real closed-form spectrum
    subjects = [gates.gate(n).matrix for n in ("I", "X", "Z", "H")]
    subjects += [np.array([[2, 3 - 1j], [3 + 1j, 5]]), gates.phase_shift(math.pi).matrix]
    for m in subjects:
        if checker.check_observable(m).overall:
            ok = ok and all(abs(lam.imag) <= 1e-9 for lam in eigenvalues_2x2(m))
    report(2, ok, "observable axioms pass on I, X, Z, H and fail on the non-Hermitian phases")


def test_criterion_3_gate_algebra():
    ok = True
    for name in ("I", "X", "Z", "H", "CNOT"):
        m = gates.gate(name).matrix
        ok = ok and float(np.abs(m @ m - np.eye(m.shape[0])).max()) <= 1e-9
    ok = ok and float(np.abs(gates.phase_shift(math.pi).matrix - gates.pauli_z().matrix).max()) <= 1e-9
    for g in builtin_gates() + (gates.phase_shift(math.pi / 2), gates.phase_shift(0.3)):
        induced = gates.mapping_to_matrix(g.mapping)
        ok = ok and float(np.abs(induced - g.matrix).max()) <= 1e-9
    ok = ok and len(gates.hadamard().mapping.pairs) == 4  # redundant rows included
    report(3, ok, "gate algebra: involutions, R(pi) = Z, and every mapping recompiles to its matrix")


def test_criterion_4_oracle_equation():
    ok = True
    for fn in fc.OracleFn:
        u = fc.oracle_unitary(fn)
        for x, y in itertools.product((0, 1), repeat=2):
            out = u @ state.basis_state(2, 2 * x + y)
            expected = state.basis_state(2, 2 * x + (fn.evaluate(x) ^ y))
            ok = ok and np.array_equal(out, expected)
    ok = ok and float(np.abs(fc.oracle_unitary(fc.OracleFn.IDENTITY) - gates.cnot().matrix).max()) <= 1e-12
    report(4, ok, "oracle equation |x,y> -> |x, f(x) xor y> holds exactly; U_id is CNOT")


def test_criterion_5_normalization():
    rng = random.Random(501)
    ok = True
    for _ in range(1000):
        program = lang.parse_source(random_program(rng, max_qubits=4, max_statements=20))
        circuit, oracles = lang.compile_program(program)
        for step in fc.iter_steps(circuit, oracles, seed=rng.randrange(2**32)):
            if abs(float(np.linalg.norm(step.state)) - 1.0) > 1e-9:
                ok = False
    report(5, ok, "unit norm after every instruction of 1000 random straight-line programs")


def test_criterion_6_brute_force_equivalence():
    one_qubit = [gates.identity_gate(), gates.pauli_x(), gates.pauli_z(), gates.hadamard(),
                 gates.phase_shift(math.pi / 2), gates.phase_shift(0.3)]
    ok = True
    for n in (2, 3):
        assignments = [(g, (t,)) for g in one_qubit for t in range(n)]
        assignments += [(gates.cnot(), pair) for pair in itertools.permutations(range(n), 2)]
        for g, targets in assignments:
            full = expanded_unitary(g, targets, n)
            for idx in range(2**n):
                fast = state.apply_gate(state.basis_state(n, idx), g, targets)
                if float(np.abs(fast - full[:, idx]).max()) > 1e-12:
                    ok = False
    report(6, ok, "tensor route matches the Kronecker-expansion route on every basis state")


def test_criterion_7_measurement_statistics(tmp_path, capsys):
    plus = np.array([SQRT_HALF, SQRT_HALF])
    zeros = sum(state.measure_qubit(plus, 0, s).bit == 0 for s in range(10000))
    ok = 0.485 <= zeros / 10000 <= 0.515

    path = tmp_path / "flip.fqz"
    path.write_text("qubit x = H|0>\nmeasure x\n", encoding="utf-8")
    argv = ["run", str(path), "--shots", "100", "--seed", "42", "--format", "json"]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    second = capsys.readouterr().out
    ok = ok and first.encode() == second.encode() and json.loads(first)["shots"] == 100
    report(7, ok, f"P(0) = {zeros / 10000:.4f} on a 10000-seed sweep; fixed-seed JSON is byte-identical")


def test_criterion_8_language_round_trip():
    ok = True
    sources = [deutsch_source(k) for k in fc.ORACLE_KEYWORDS]
    rng = random.Random(801)
    sources += [random_program(rng) for _ in range(1000)]
    for src in sources:
        program = lang.parse_source(src)
        canonical = lang.pretty_print(program)
        if lang.parse_source(canonical) != program:
            ok = False
        if lang.pretty_print(lang.parse_source(canonical)) != canonical:
            ok = False

    for _ in range(1000):
        mutated = mutate(random_program(rng), rng)
        try:
            lang.parse_source(mutated)
        except lang.ParseError as err:
            if err.line < 1 or err.column < 1:
                ok = False
        except Exception:
            ok = False
    report(8, ok, "round-trip law on the Deutsch source plus 1000 programs; mutations always fail cleanly")


def test_criterion_9_end_to_end(tmp_path, capsys):
    ok = True
    for keyword, fn in fc.ORACLE_KEYWORDS.items():
        path = tmp_path / f"deutsch_{keyword}.fqz"
        path.write_text(deutsch_source(keyword), encoding="utf-8")
        if cli.main(["check", str(path)]) != 0:
            ok = False
        code = cli.main(["run", str(path), "--shots", "100", "--seed", "9", "--format", "json"])
        out = capsys.readouterr().out.strip().splitlines()[-1]
        if code != 0:
            ok = False
        expected_bit = "0" if fn.is_constant else "1"
        if json.loads(out)["outcomes"] != {expected_bit: 100}:
            ok = False
    report(9, ok, "CLI pipeline reproduces the Deutsch verdicts from source files alone")
