import math

import numpy as np
import pytest

from fqz import circuit as fc
from fqz import gates, state
from fqz.circuit import (
    Alloc,
    Apply,
    ApplyOracle,
    Circuit,
    CircuitError,
    Measure,
    OracleFn,
    Verdict,
)

SQRT_HALF = 1.0 / math.sqrt(2.0)


class TestOracleFn:
    def test_truth_tables(self):
        assert [OracleFn.CONST0.evaluate(x) for x in (0, 1)] == [0, 0]
        assert [OracleFn.CONST1.evaluate(x) for x in (0, 1)] == [1, 1]
        assert [OracleFn.IDENTITY.evaluate(x) for x in (0, 1)] == [0, 1]
        assert [OracleFn.NEGATION.evaluate(x) for x in (0, 1)] == [1, 0]

    def test_constant_classification(self):
        assert OracleFn.CONST0.is_constant
        assert OracleFn.CONST1.is_constant
        assert not OracleFn.IDENTITY.is_constant
        assert not OracleFn.NEGATION.is_constant


class TestOracleUnitary:
    @pytest.mark.parametrize("fn", list(OracleFn), ids=lambda f: f.value)
    def test_oracle_equation_on_all_basis_states(self, fn):
        """U_f |x,y> = |x, f(x) xor y>, exactly, for all four inputs."""
        u = fc.oracle_unitary(fn)
        for x in (0, 1):
            for y in (0, 1):
                out = u @ state.basis_state(2, 2 * x + y)
                expected = state.basis_state(2, 2 * x + (fn.evaluate(x) ^ y))
                assert np.array_equal(out, expected)

    def test_identity_oracle_is_cnot(self):
        np.testing.assert_allclose(
            fc.oracle_unitary(OracleFn.IDENTITY), gates.cnot().matrix, atol=1e-12
        )

    def test_const0_oracle_is_identity(self):
        np.testing.assert_allclose(fc.oracle_unitary(OracleFn.CONST0), np.eye(4), atol=1e-12)

    def test_const1_flips_target(self):
        u = fc.oracle_unitary(OracleFn.CONST1)
        np.testing.assert_allclose(u @ state.basis_state(2, 0), state.basis_state(2, 1), atol=1e-12)

    @pytest.mark.parametrize("fn", list(OracleFn), ids=lambda f: f.value)
    def test_oracle_gate_definition_consistent(self, fn):
        g = fc.oracle_gate("f", fn)
        induced = gates.mapping_to_matrix(g.mapping)
        np.testing.assert_allclose(induced, g.matrix, atol=1e-12)


class TestValidation:
    def test_undeclared_qubit_rejected_with_index(self):
        c = Circuit((Alloc("x", "|0>"), Apply("H", ("y",))))
        with pytest.raises(CircuitError, match="instruction 1"):
            fc.run_circuit(c, {}, 0)

    def test_double_alloc_rejected(self):
        c = Circuit((Alloc("x", "|0>"), Alloc("x", "|1>")))
        with pytest.raises(CircuitError, match="twice"):
            fc.run_circuit(c, {}, 0)

    def test_unresolved_oracle_rejected(self):
        c = Circuit((Alloc("x", "|0>"), Alloc("y", "|0>"), ApplyOracle("g", "x", "y")))
        with pytest.raises(CircuitError, match="unresolved oracle"):
            fc.run_circuit(c, {"f": OracleFn.CONST0}, 0)

    def test_measure_before_alloc_rejected(self):
        c = Circuit((Measure("x"),))
        with pytest.raises(CircuitError, match="instruction 0"):
            fc.run_circuit(c, {}, 0)

    def test_register_cap(self):
        allocs = [Alloc(f"q{i}", "|0>") for i in range(13)]
        with pytest.raises(CircuitError, match="cap"):
            fc.run_circuit(Circuit(tuple(allocs)), {}, 0)

    def test_rejection_happens_before_any_execution(self):
        # the bad instruction comes last, but validation runs first and
        # reports its index before anything executes
        bad_instructions = [
            (Measure("nope"), "undeclared qubit"),
            (Alloc("y", "|2>"), "unknown allocation ket"),
            (Apply("Q", ("x",)), "unknown gate name 'Q'"),
            (Apply("R", ("x",)), "gate R requires an angle"),
            (Apply("X", ("x",), 0.5), "gate X takes no parameter"),
        ]
        for bad, message in bad_instructions:
            c = Circuit((Alloc("x", "|0>"), Apply("X", ("x",)), bad))
            steps = fc.iter_steps(c, {}, 0)
            with pytest.raises(CircuitError, match=f"instruction 2: {message}"):
                next(steps)


class TestRunCircuit:
    def test_alloc_order_is_significance_order(self):
        """First Alloc is the most significant qubit: |x y> = |1 0> here."""
        c = Circuit((Alloc("x", "|1>"), Alloc("y", "|0>")))
        report = fc.run_circuit(c, {}, 0)
        np.testing.assert_allclose(report.final_state, state.basis_state(2, 2), atol=1e-12)

    def test_empty_circuit_gives_empty_report(self):
        report = fc.run_circuit(Circuit(()), {}, 0)
        assert report.measured == ()
        assert report.final_state.size == 1

    def test_all_six_allocation_kets(self):
        plus, minus = [SQRT_HALF, SQRT_HALF], [SQRT_HALF, -SQRT_HALF]
        expected = {"|0>": [1, 0], "|1>": [0, 1], "|+>": plus, "|->": minus, "H|0>": plus, "H|1>": minus}
        assert set(fc.KET_VECTORS) == set(expected)
        for ket, amplitudes in expected.items():
            report = fc.run_circuit(Circuit((Alloc("q", ket),)), {}, 0)
            np.testing.assert_allclose(report.final_state, amplitudes, atol=1e-12)

    def test_pre_measurement_state_retained(self):
        c = Circuit((Alloc("x", "H|0>"), Measure("x")))
        report = fc.run_circuit(c, {}, 3)
        assert len(report.pre_measure_states) == 1
        np.testing.assert_allclose(report.pre_measure_states[0], [SQRT_HALF, SQRT_HALF], atol=1e-12)
        # final state is the collapsed one
        assert abs(np.linalg.norm(report.final_state) - 1.0) <= 1e-9
        assert report.measured[0][0] == "x"

    def test_determinism_for_fixed_seed(self):
        c = Circuit((Alloc("x", "H|0>"), Alloc("y", "H|1>"), Measure("x"), Measure("y")))
        a = fc.run_circuit(c, {}, seed=77)
        b = fc.run_circuit(c, {}, seed=77)
        assert a.measured == b.measured
        np.testing.assert_array_equal(a.final_state, b.final_state)

    def test_r_gate_with_parameter(self):
        c = Circuit((Alloc("x", "|1>"), Apply("R", ("x",), math.pi / 2)))
        report = fc.run_circuit(c, {}, 0)
        np.testing.assert_allclose(report.final_state, [0, 1j], atol=1e-12)

    def test_norm_preserved_throughout(self):
        c = Circuit(
            (
                Alloc("x", "H|0>"),
                Alloc("y", "|1>"),
                Apply("H", ("y",)),
                ApplyOracle("f", "x", "y"),
                Apply("Z", ("x",)),
                Measure("y"),
            )
        )
        for step in fc.iter_steps(c, {"f": OracleFn.NEGATION}, 5):
            assert abs(np.linalg.norm(step.state) - 1.0) <= 1e-9


class TestRunShots:
    def test_counts_sum_to_shots(self):
        c = Circuit((Alloc("x", "H|0>"), Measure("x")))
        report = fc.run_shots(c, {}, root_seed=42, shots=200)
        assert sum(report.shots.values()) == 200
        assert set(report.shots) <= {"0", "1"}

    def test_deterministic_outcome_gives_single_bucket(self):
        c = Circuit((Alloc("x", "|1>"), Measure("x")))
        report = fc.run_shots(c, {}, root_seed=0, shots=50)
        assert report.shots == {"1": 50}

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError, match=">= 1"):
            fc.run_shots(Circuit(()), {}, 0, 0)


class TestDeutsch:
    @pytest.mark.parametrize("fn", list(OracleFn), ids=lambda f: f.value)
    def test_verdict_matches_classical_classification(self, fn):
        """One quantum query agrees with checking f(0) == f(1) directly."""
        verdict = fc.deutsch(fn, seed=13)
        expected = Verdict.CONSTANT if fn.is_constant else Verdict.BALANCED
        assert verdict.verdict is expected
        assert verdict.measured_bit == (0 if fn.is_constant else 1)

    @pytest.mark.parametrize("fn", list(OracleFn), ids=lambda f: f.value)
    def test_outcome_is_certain(self, fn):
        assert abs(fc.deutsch(fn, seed=4).probability - 1.0) <= 1e-9

    def test_seed_never_changes_verdict(self):
        for fn in OracleFn:
            verdicts = {fc.deutsch(fn, seed=s).verdict for s in range(25)}
            assert len(verdicts) == 1


class TestEquivalence:
    """Circuits compared by the superposition their measurements consume."""

    def test_circuit_equals_itself(self):
        c = fc.deutsch_circuit()
        a = fc.pre_measurement_state(c, {"f": OracleFn.IDENTITY})
        b = fc.pre_measurement_state(c, {"f": OracleFn.IDENTITY})
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("fn", [OracleFn.IDENTITY, OracleFn.NEGATION], ids=lambda f: f.value)
    def test_dropping_the_interference_step_breaks_balanced_oracles(self, fn):
        full = Circuit(
            (
                Alloc("x", "H|0>"),
                Alloc("y", "H|1>"),
                ApplyOracle("f", "x", "y"),
                Apply("H", ("x",)),
            )
        )
        truncated = Circuit(full.instructions[:-1])
        a = fc.pre_measurement_state(full, {"f": fn})
        b = fc.pre_measurement_state(truncated, {"f": fn})
        assert float(np.abs(a - b).max()) > 1e-12

    @pytest.mark.parametrize("fn", [OracleFn.CONST0, OracleFn.CONST1], ids=lambda f: f.value)
    def test_reordered_circuit_detected_on_constant_oracles_too(self, fn):
        # Moving H before the oracle is harmless for constant oracles in
        # the x register but changes the state on y for const1.
        sequential = fc.deutsch_circuit()
        reordered = Circuit(
            (
                Alloc("x", "H|0>"),
                Alloc("y", "H|1>"),
                Apply("H", ("x",)),
                ApplyOracle("f", "x", "y"),
                Measure("x"),
            )
        )
        a = fc.pre_measurement_state(sequential, {"f": fn})
        b = fc.pre_measurement_state(reordered, {"f": fn})
        # constant oracles leave x alone, so the swap is invisible
        assert float(np.abs(a - b).max()) <= 1e-12

    def test_pre_measurement_state_is_the_run_reports_amplitudes(self):
        c = Circuit((Alloc("x", "H|0>"), Measure("x"), Apply("X", ("x",))))
        report = fc.run_circuit(c, {}, seed=9)
        np.testing.assert_array_equal(report.amplitudes, report.pre_measure_states[0])
        np.testing.assert_allclose(fc.pre_measurement_state(c, {}), [SQRT_HALF, SQRT_HALF], atol=1e-12)
