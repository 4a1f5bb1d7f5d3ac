import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqz import circuit as fc
from fqz import gates, lang, state
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
from brute_force import reference_branch_probability, reference_measure_qubit
from fqz.rng import SplitMix64, shot_seed
from fuzz_programs import deutsch_source, random_program

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


class TestOperandValidation:
    @pytest.mark.parametrize(
        "bad, message",
        [
            (Apply("X", ("x", "y")), "gate X has arity 1 but got 2 target"),
            (Apply("CNOT", ("x",)), "gate CNOT has arity 2 but got 1 target"),
            (Apply("CNOT", ("x", "x")), "gate CNOT targets qubit 'x' twice"),
            (ApplyOracle("f", "y", "y"), r"oracle N\[f\] targets qubit 'y' twice"),
            (Apply("R", ("x",), math.inf), "phase angle must be finite, got inf"),
            (Apply("R", ("x",), math.nan), "phase angle must be finite, got nan"),
            (Apply("R", ("x",), "half"), "gate R needs a real angle, got 'half'"),
        ],
    )
    def test_rejected_statically_with_index(self, bad, message):
        c = Circuit((Alloc("x", "|0>"), Alloc("y", "|0>"), bad, Measure("x")))
        with pytest.raises(CircuitError, match=f"instruction 2: {message}"):
            fc.validate_circuit(c, {"f": OracleFn.IDENTITY})


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
        # iter_steps and validate_circuit share one read-only empty register;
        # what run_circuit hands out for an empty circuit is the caller's own
        assert report.final_state.flags.writeable and report.final_state is not fc._EMPTY_REGISTER
        assert list(fc.iter_steps(Circuit(()), {}, 0)) == []
        assert not fc._EMPTY_REGISTER.flags.writeable and fc._EMPTY_REGISTER.tolist() == [1]

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

    def test_pre_measure_states_are_the_states_iter_steps_measures(self):
        # run_circuit keeps, for each Measure, the state of the step before it
        rng = random.Random("pre-measure")
        measures = 0
        for _ in range(50):
            c, oracles = lang.compile_program(lang.parse_source(random_program(rng)))
            seed = rng.randrange(2**64)
            before, psi = [], None
            for step in fc.iter_steps(c, oracles, seed):
                if step.measured is not None:
                    before.append(psi.tobytes())
                psi = step.state
            assert [pre.tobytes() for pre in fc.run_circuit(c, oracles, seed).pre_measure_states] == before
            measures += len(before)
        assert measures > 0

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

    def test_step_fields_cannot_be_assigned(self):
        assert fc.Step._fields == ("index", "instruction", "state", "measured")
        c = Circuit((Alloc("x", "H|0>"), Measure("x")))
        for step in fc.iter_steps(c, {}, 5):
            for field in fc.Step._fields:
                with pytest.raises(AttributeError):
                    setattr(step, field, None)


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

    @pytest.mark.parametrize("program_seed", range(6))
    def test_matches_a_loop_of_single_shot_runs(self, program_seed):
        """Lowering once changes nothing: the counts and the bytes of the
        amplitudes equal those of shots run one by one from the circuit."""
        source = random_program(random.Random(program_seed), max_qubits=6, max_statements=30)
        c, oracles = lang.compile_program(lang.parse_source(source))
        for root_seed in (0, 7, 2**63 + 11):
            report = fc.run_shots(c, oracles, root_seed, shots=25)
            singles = [fc.run_circuit(c, oracles, shot_seed(root_seed, i)) for i in range(25)]
            assert report.shots == dict(Counter(r.outcome for r in singles))
            assert report.amplitudes.tobytes() == singles[0].amplitudes.tobytes()
            assert report.final_state.tobytes() == singles[0].final_state.tobytes()

    @pytest.mark.parametrize("shots", [1, 2, 100])
    def test_every_shot_of_a_midcircuit_program_re_simulates(self, shots, monkeypatch):
        """The traced benchmark pins these counts: each shot is one iter_steps
        run of every instruction, one apply_gate per gate, one measure_qubit
        per measure, one shot seed and two splitmix64 draws per measure."""
        calls = Counter()

        def spy(owner, name):
            fn = getattr(owner, name)

            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(owner, name, wrapper)

        iter_steps = fc.iter_steps

        def steps_spy(*args):
            calls["iter_steps"] += 1
            for step in iter_steps(*args):
                calls["steps"] += 1
                yield step

        for owner, name in ((state, "apply_gate"), (state, "measure_qubit"), (fc, "shot_seed"), (SplitMix64, "next_u64")):
            spy(owner, name)
        monkeypatch.setattr(fc, "iter_steps", steps_spy)
        c = Circuit(
            (
                Alloc("a", "H|0>"),
                Alloc("b", "|1>"),
                ApplyOracle("f", "a", "b"),
                Measure("a"),
                Apply("H", ("a",)),
                Alloc("c", "|+>"),
                Apply("CNOT", ("a", "c")),
                Measure("a"),
                Apply("R", ("b",), 0.5),
                Measure("c"),
                Measure("a"),
            )
        )
        fc.run_shots(c, {"f": OracleFn.NEGATION}, 11, shots)
        assert calls == {
            "iter_steps": shots,
            "steps": len(c) * shots,
            "apply_gate": 4 * shots,
            "measure_qubit": 4 * shots,
            "shot_seed": shots,
            "next_u64": 2 * 4 * shots,
        }

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.sampled_from([1, 2, 37]), st.integers(0, 2**64 - 1))
    def test_midcircuit_programs_match_the_reference_shot_loop(self, program_seed, shots, root):
        c, oracles = midcircuit_circuit(random.Random(program_seed))
        expected = report_record(reference_run_shots(c, oracles, root, shots))
        assert report_record(fc.run_shots(c, oracles, root, shots)) == expected


class TestShotEngine:
    """run_shots on terminal programs (every measure after the last gate)
    walks its shots down an outcome trie; it must give the bits and bytes
    of reference_run_shots, which re-runs the whole circuit for each shot."""

    ROOTS = (0, 7, 2**63 + 11)
    SHOTS = (1, 2, 100, 1000)
    BLOCKS = (fc.BLOCK_DRAWS, 3)  # 3 draws: blocks of one to three shots
    SOURCES = {
        "repeated measures of one qubit": "oracle f = id\nqubit a = |+>\nqubit b = H|1>\nR(0.5) a\nN[f] a b\n"
        "measure a\nmeasure b\nmeasure a\nmeasure a\n",
        "basis kets: certain and empty branches": "qubit a = |0>\nqubit b = |1>\nqubit c = |->\nH c\n"
        "measure b\nmeasure a\nmeasure c\nmeasure b\nmeasure a\n",
        "no measure": "qubit a = |+>\nqubit b = |0>\nH b\n",
        "empty circuit": "",
    }

    @pytest.mark.parametrize("case", [*SOURCES, *range(10)])
    def test_terminal_programs_match_the_shot_loop(self, case, monkeypatch):
        if isinstance(case, str):
            c, oracles = lang.compile_program(lang.parse_source(self.SOURCES[case]))
        else:
            c, oracles = terminal_circuit(random.Random(case))
        for root in self.ROOTS:
            for shots in self.SHOTS:
                expected = report_record(reference_run_shots(c, oracles, root, shots))
                for block in self.BLOCKS:
                    monkeypatch.setattr(fc, "BLOCK_DRAWS", block)
                    assert report_record(fc.run_shots(c, oracles, root, shots)) == expected, (case, root, shots, block)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_terminal_programs_of_up_to_twelve_qubits(self, seed):
        # random_program's measures held to the end: about a third of these gate
        # a register of more than 8 qubits before their first measure
        rng = random.Random(f"engine:{seed}")
        wide = 0
        for _ in range(6):
            c, oracles = lang.compile_program(lang.parse_source(random_program(rng, 12, 60, terminal=True)))
            assert report_record(fc.run_shots(c, oracles, seed, 20)) == report_record(reference_run_shots(c, oracles, seed, 20))
            wide += widest_gate_register(c) > state.GATHER_MAX_QUBITS
        assert wide > 0

    def test_a_drifted_state_never_reads_its_empty_branch(self, monkeypatch):
        # qubit a is |1> at norm 0.9: p(1) = 0.81, so about a fifth of the
        # draws fall in branch 0, which holds no amplitude
        c = Circuit((Alloc("a", "|1>"), Alloc("b", "|+>"), Measure("a"), Measure("b"), Measure("a")))
        ops = fc.validate_circuit(c, {}).ops
        drifted = Circuit(c.instructions, (ops[0], ("state", ops[1][1] * 0.9), *ops[2:]), {})
        for root in self.ROOTS:
            expected = report_record(reference_run_shots(drifted, {}, root, 200))
            for block in self.BLOCKS:
                monkeypatch.setattr(fc, "BLOCK_DRAWS", block)
                report = fc._trie_shots(drifted, 2, root, 200)
                assert report_record(report) == expected
                assert all(outcome[0] == outcome[2] == "1" for outcome in report.shots)

    @pytest.mark.parametrize("variant", ["shuffled measures", "a repeated measure", "a prefix drifted to norm 0.9"])
    @pytest.mark.parametrize("shots", [20, 1000])
    def test_wide_terminal_programs_match_the_shot_loop(self, variant, shots, monkeypatch):
        # wide-final's shape: every level of the trie holds compacted nodes,
        # and BLOCK_DRAWS = 3 also pads one row per chunk
        c, oracles = wide_terminal_circuit(random.Random(variant), repeat=variant == "a repeated measure")
        if variant == "a prefix drifted to norm 0.9":
            ops = list(c.ops)
            ops[state.MAX_QUBITS - 1] = ("state", ops[state.MAX_QUBITS - 1][1] * 0.9)
            c = Circuit(c.instructions, tuple(ops), c.oracles)
        expected = report_record(reference_run_shots(c, oracles, 7, shots))
        for block in self.BLOCKS:
            monkeypatch.setattr(fc, "BLOCK_DRAWS", block)
            assert report_record(fc.run_shots(c, oracles, 7, shots)) == expected, block

    @pytest.mark.parametrize("seed", range(12))
    def test_signed_zeros_survive_repeated_measures(self, seed, monkeypatch):
        # R(pi) then H leaves q0's branch 0 at +0.0 real and positive
        # imaginary parts; each |-> or H|1> allocated after them multiplies
        # some by -1/sqrt(2), to -0.0 real beside negative imaginary, which
        # every child, re-measured or not, must carry as the full-size
        # collapse does. q0, measured last, reads 1 and drops them.
        rng = random.Random(f"signed zeros:{seed}")
        names = [f"q{i}" for i in range(rng.randint(2, 5))]
        lines = [f"qubit q0 = {rng.choice(['|+>', '|->', 'H|0>', 'H|1>'])}"]
        lines += [f"{g} q0" for g in rng.choice([["R(pi)"], ["Z", "R(pi)"], ["R(pi)", "Z"]])] + ["H q0"]
        lines += [f"qubit {q} = {rng.choice(['|->', 'H|1>'])}" for q in names[1:]]
        measures = [f"measure {q}" for q in names[1:] for _ in range(rng.randint(2, 3))]
        rng.shuffle(measures)
        measures += ["measure q0"] * rng.randint(2, 3)
        c, oracles = lang.compile_program(lang.parse_source("".join(f"{line}\n" for line in lines + measures)))
        psi = fc._prefix_state(c.ops[: len(lines)])
        assert (np.signbit(psi.real) & (psi.real == 0) & (psi.imag < 0)).any()
        for root in self.ROOTS:
            expected = report_record(reference_run_shots(c, oracles, root, 200))
            for block in self.BLOCKS:
                monkeypatch.setattr(fc, "BLOCK_DRAWS", block)
                assert report_record(fc._trie_shots(c, len(lines), root, 200)) == expected, (root, block)

    def test_a_program_without_measure_tallies_any_shot_count_at_once(self):
        # no draws, so no block of shots is walked: 10**18 shots cost what one does
        c, oracles = lang.compile_program(lang.parse_source(self.SOURCES["no measure"]))
        report = fc.run_shots(c, oracles, 7, 10**18)
        assert report.shots == {"": 10**18}
        assert report_record(report)[1:] == report_record(fc.run_shots(c, oracles, 7, 1))[1:]

    @pytest.mark.parametrize("case", ["no measure", "repeated measures of one qubit", *range(8), "wide", "wide, repeated"])
    def test_one_shot_runs_the_circuit_once_without_the_trie(self, case, monkeypatch):
        # one run_circuit costs less than the trie's fixed numpy calls per level
        if case in self.SOURCES:
            c, oracles = lang.compile_program(lang.parse_source(self.SOURCES[case]))
        elif isinstance(case, int):
            c, oracles = terminal_circuit(random.Random(case), max_qubits=12)
        else:
            c, oracles = wide_terminal_circuit(random.Random(case), repeat=case == "wide, repeated")
        expected = [report_record(reference_run_shots(c, oracles, root, 1)) for root in self.ROOTS]
        monkeypatch.setattr(fc, "_trie_shots", None)
        assert [report_record(fc.run_shots(c, oracles, root, 1)) for root in self.ROOTS] == expected, case

    def test_terminal_programs_run_each_gate_once(self, monkeypatch):
        # every gate run, in apply_gate or in the terminal prefix's fold,
        # looks up its placement record once
        calls = Counter()

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)

            return wrapper

        for name in ("_cached_layout", "apply_gate", "measure_qubit"):
            monkeypatch.setattr(state, name, counted(name, getattr(state, name)))
        terminal = Circuit((Alloc("a", "|+>"), Alloc("b", "|0>"), Apply("H", ("b",)), Measure("a"), Measure("b")))
        fc.run_shots(terminal, {}, 3, 500)
        assert calls == {"_cached_layout": 1}
        calls.clear()
        midcircuit = Circuit((*terminal.instructions[:4], Apply("H", ("a",)), Measure("b")))
        fc.run_shots(midcircuit, {}, 3, 500)
        assert calls == {"_cached_layout": 2 * 500, "apply_gate": 2 * 500, "measure_qubit": 2 * 500}


class TestLower:
    def test_run_shots_validates_and_builds_each_gate_once(self, monkeypatch):
        # validate_circuit's walk is the one validation a run makes; every
        # gate it resolves comes from the gate caches, each distinct key
        # missed once
        validated = Counter()
        validate_circuit = fc.validate_circuit

        def counted_validate(*args):
            validated["validate_circuit"] += 1
            return validate_circuit(*args)

        monkeypatch.setattr(fc, "validate_circuit", counted_validate)
        gates._built.cache_clear()
        fc.oracle_gate.cache_clear()
        c = Circuit(
            (
                Alloc("x", "H|0>"),
                Alloc("y", "|1>"),
                Apply("H", ("x",)),
                Apply("R", ("y",), 0.5),
                ApplyOracle("f", "x", "y"),
                Measure("x"),
                Apply("H", ("x",)),
                Apply("R", ("x",), 0.5),
                ApplyOracle("f", "y", "x"),
                ApplyOracle("g", "x", "y"),
                Measure("y"),
            )
        )
        oracles = {"f": OracleFn.IDENTITY, "g": OracleFn.NEGATION}
        fc.run_shots(c, oracles, root_seed=1, shots=50)
        assert validated == {"validate_circuit": 1}
        built, oracle_built = gates._built.cache_info(), fc.oracle_gate.cache_info()
        assert (built.misses, built.hits) == (2, 2)  # H and R(0.5), each used twice
        assert (oracle_built.misses, oracle_built.hits) == (2, 1)  # f twice, g once

    def test_signed_zero_angles_get_their_own_gates(self):
        c = lang.compile_program(lang.parse_source("qubit q = |0>\nR(0.0) q\nR(-0.0) q\nmeasure q"))[0]
        plus, minus = (op[1] for op in fc.validate_circuit(c, {}).ops if op[0] == "gate")
        assert plus is not minus
        assert [math.copysign(1.0, g.parameter) for g in (plus, minus)] == [1.0, -1.0]
        assert plus is gates.gate("R", 0.0) and minus is gates.gate("R", -0.0)

    def test_leading_allocation_states_are_shared_and_read_only(self):
        c = Circuit((Alloc("x", "H|0>"), Alloc("y", "|1>"), Apply("X", ("x",)), Alloc("z", "|0>")))
        resolved = fc.validate_circuit(c, {})
        assert [op[0] for op in resolved.ops] == ["state", "state", "gate", "alloc"]
        shared = [op[1] for op in resolved.ops[:2]]
        np.testing.assert_allclose(shared[-1], [0, SQRT_HALF, 0, SQRT_HALF], atol=1e-12)
        for psi in shared:
            assert not psi.flags.writeable
            with pytest.raises(ValueError):
                psi[0] = 0.0
        first, second = (list(fc.iter_steps(resolved, {}, seed)) for seed in (0, 1))
        assert first[1].state is second[1].state is shared[1]
        assert first[-1].state.flags.writeable

    def test_allocation_by_outer_product_gives_the_kron_bytes(self):
        # validate_circuit and iter_steps allocate with np.multiply.outer(psi,
        # ket).reshape(-1): ~2 us against np.kron's ~22 us on one qubit
        rng = np.random.default_rng(11)
        for n in range(12):
            dense = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            signed = rng.choice([0.0, -0.0, 0.5, -0.25], size=2**n) + 1j * rng.choice([0.0, -0.0, 0.5], size=2**n)
            for psi in (dense, signed):
                for ket in fc.KET_VECTORS.values():
                    assert np.multiply.outer(psi, ket).reshape(-1).tobytes() == np.kron(psi, ket).tobytes()
        gated = [Alloc("a", "|->"), Apply("H", ("a",))]  # every later Alloc is an "alloc" op of iter_steps
        gated += [Alloc(f"q{i}", ket) for i, ket in enumerate(fc.KET_VECTORS)]
        steps = list(fc.iter_steps(Circuit(gated), {}, 0))
        for before, after, ins in zip(steps[1:], steps[2:], gated[2:]):
            assert after.state.tobytes() == np.kron(before.state, fc.KET_VECTORS[ins.ket]).tobytes()


class TestResolvedCircuit:
    """validate_circuit returns the circuit resolved under one oracle table;
    a runner reuses its ops under an equal table only."""

    # the Deutsch program, then one with a gate after a measure, which runs per shot
    SOURCES = (deutsch_source("const0"), deutsch_source("const0") + "H y\nmeasure y\n")

    @pytest.mark.parametrize("source", SOURCES, ids=["terminal", "per shot"])
    def test_a_rebound_oracle_table_is_resolved_afresh(self, source):
        compiled, oracles = lang.compile_program(lang.parse_source(source))
        assert compiled.oracles == oracles == {"f": OracleFn.CONST0}
        bare = Circuit(compiled.instructions)
        rebound = {"f": OracleFn.IDENTITY}
        for seed in (0, 7, 2**63 + 11):
            assert report_record(fc.run_circuit(compiled, rebound, seed)) == report_record(fc.run_circuit(bare, rebound, seed))
            steps = [step.state.tobytes() for step in fc.iter_steps(compiled, rebound, seed)]
            assert steps == [step.state.tobytes() for step in fc.iter_steps(bare, rebound, seed)]
            for shots in (1, 100):
                expected = report_record(fc.run_shots(bare, rebound, seed, shots))
                assert report_record(fc.run_shots(compiled, rebound, seed, shots)) == expected
        # an id oracle sends x to 1, which const0 never does
        assert fc.run_circuit(compiled, rebound, 0).measured[0][1] == 1
        assert fc.run_circuit(compiled, oracles, 0).measured[0][1] == 0

    def test_a_resolved_circuit_equals_and_hashes_like_its_instructions(self):
        compiled, oracles = lang.compile_program(lang.parse_source(deutsch_source("id")))
        assert compiled.ops is not None
        assert compiled == fc.deutsch_circuit() == Circuit(compiled.instructions)
        assert hash(compiled) == hash(fc.deutsch_circuit())
        assert repr(compiled) == repr(Circuit(compiled.instructions))
        assert "array" not in repr(compiled)
        with pytest.raises(TypeError):  # a table edited in place would leave stale ops
            compiled.oracles["f"] = OracleFn.NEGATION


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


# ---------------------------------------------------------------------------
# The two walks validate_circuit and lower made before they shared one, kept
# as the reference validate_circuit's one walk must agree with, error for
# error and op for op. Their only difference from it on valid circuits:
# lower's built dict keyed R by float equality, so R(-0.0) got R(0.0)'s gate.


def _reference_check_operands(index, what, arity, targets, declared):
    if len(targets) != arity:
        raise CircuitError(index, f"{what} has arity {arity} but got {len(targets)} target(s)")
    for q in targets:
        if q not in declared:
            raise CircuitError(index, f"undeclared qubit {q!r}")
    if len(set(targets)) != len(targets):
        raise CircuitError(index, f"{what} targets qubit {targets[0]!r} twice")


def reference_validate_circuit(circuit, oracles):
    declared = []
    for i, ins in enumerate(circuit.instructions):
        if isinstance(ins, Alloc):
            if ins.name in declared:
                raise CircuitError(i, f"qubit {ins.name!r} allocated twice")
            if len(declared) >= state.MAX_QUBITS:
                raise CircuitError(i, f"register cap of {state.MAX_QUBITS} qubits exceeded")
            if ins.ket not in fc.KET_VECTORS:
                raise CircuitError(i, f"unknown allocation ket {ins.ket!r}")
            declared.append(ins.name)
        elif isinstance(ins, Apply):
            try:
                gates.validate_gate_args(ins.gate, ins.parameter)
            except ValueError as exc:
                raise CircuitError(i, str(exc)) from None
            arity = 2 if ins.gate == "CNOT" else 1
            _reference_check_operands(i, f"gate {ins.gate}", arity, ins.targets, declared)
        elif isinstance(ins, ApplyOracle):
            if ins.oracle not in oracles:
                raise CircuitError(i, f"unresolved oracle name {ins.oracle!r}")
            _reference_check_operands(i, f"oracle N[{ins.oracle}]", 2, (ins.control, ins.register), declared)
        elif isinstance(ins, Measure):
            if ins.name not in declared:
                raise CircuitError(i, f"undeclared qubit {ins.name!r}")
        else:
            raise CircuitError(i, f"unknown instruction {ins!r}")


def reference_lower(circuit, oracles):
    """The ops lower's second walk resolved, after validating first."""
    reference_validate_circuit(circuit, oracles)
    index = {}
    built = {}
    ops = []
    psi = np.ones(1, dtype=np.complex128)
    for ins in circuit.instructions:
        if isinstance(ins, Alloc):
            if len(ops) == len(index):
                psi = np.kron(psi, fc.KET_VECTORS[ins.ket])
                psi.setflags(write=False)
                ops.append(("state", psi))
            else:
                ops.append(("alloc", fc.KET_VECTORS[ins.ket]))
            index[ins.name] = len(index)
        elif isinstance(ins, Apply):
            key = ("gate", ins.gate, ins.parameter)
            if key not in built:
                built[key] = gates.gate(ins.gate, ins.parameter)
            ops.append(("gate", built[key], tuple(index[q] for q in ins.targets)))
        elif isinstance(ins, ApplyOracle):
            key = ("oracle", ins.oracle)
            if key not in built:
                built[key] = fc.oracle_gate(ins.oracle, oracles[ins.oracle])
            ops.append(("gate", built[key], (index[ins.control], index[ins.register])))
        else:
            ops.append(("measure", index[ins.name]))
    return tuple(ops)


def rejection(validate, instructions, oracles):
    """(index, message) of the CircuitError `validate` raises, or None."""
    try:
        validate(Circuit(instructions), oracles)
    except CircuitError as err:
        return err.index, err.message
    return None


def op_record(op):
    """An op as plain data: kind, then state bytes, or the gate's name,
    angle bits, arity, matrix bytes and targets, or the measured index."""
    kind, *rest = op
    if kind in ("state", "alloc"):
        return kind, rest[0].tobytes(), rest[0].flags.writeable
    if kind == "gate":
        g, targets = rest
        angle = None if g.parameter is None else float(g.parameter).hex()
        return kind, g.name, angle, g.arity, g.matrix.tobytes(), targets
    return kind, rest[0]


def random_instructions(rng):
    """The statements and oracle table of a valid random program of 1-12
    qubits; its first statement allocates."""
    program = lang.parse_source(random_program(rng, max_qubits=rng.randint(1, 12), max_statements=40))
    return list(program.statements), {decl.name: decl.fn for decl in program.oracle_decls}


def _qubit_names(instructions):
    return [ins.name for ins in instructions if isinstance(ins, Alloc)]


def _insert(make):
    """A breaker that puts make(rng, qubit names, oracles) after the first
    Alloc; each breaks the circuit wherever it lands."""

    def breaker(rng, instructions, oracles):
        k = rng.randint(1, len(instructions))
        bad = make(rng, _qubit_names(instructions[:k]), oracles)
        return [*instructions[:k], bad, *instructions[k:]]

    return breaker


def _thirteenth_qubit(rng, instructions, oracles):
    out = list(instructions)
    for i in range(state.MAX_QUBITS + 1 - len(_qubit_names(out))):
        out.insert(rng.randint(1, len(out)), Alloc(f"extra{i}", rng.choice(list(fc.KET_VECTORS))))
    return out


def _oracle_on_one_qubit(rng, names, oracles):
    oracles.setdefault("f", OracleFn.IDENTITY)
    q = rng.choice(names)
    return ApplyOracle("f", q, q)


BREAKERS = {
    "duplicate alloc": _insert(lambda rng, names, oracles: Alloc(rng.choice(names), "|0>")),
    "13th qubit": _thirteenth_qubit,
    "unknown ket": _insert(lambda rng, names, oracles: Alloc("fresh", rng.choice(["|2>", "H|+>", "0", ""]))),
    "unknown gate": _insert(lambda rng, names, oracles: Apply(rng.choice(["Q", "h", "N", "RR"]), (rng.choice(names),))),
    "nan angle": _insert(lambda rng, names, oracles: Apply("R", (rng.choice(names),), math.nan)),
    "string angle": _insert(lambda rng, names, oracles: Apply("R", (rng.choice(names),), "half")),
    "wrong arity": _insert(
        lambda rng, names, oracles: rng.choice(
            [Apply("X", (names[0], names[-1])), Apply("CNOT", (names[0],)), Apply("R", (), 0.5)]
        )
    ),
    "duplicate operands": _insert(
        lambda rng, names, oracles: rng.choice(
            [Apply("CNOT", (names[0], names[0])), _oracle_on_one_qubit(rng, names, oracles)]
        )
    ),
    "unresolved oracle": _insert(lambda rng, names, oracles: ApplyOracle("nope", names[0], names[-1])),
    "undeclared measure": _insert(lambda rng, names, oracles: Measure("nope")),
    "junk instruction": _insert(lambda rng, names, oracles: rng.choice(["H q0", None, ("measure", "q0"), object()])),
}


class TestWalkAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64 - 1), st.sampled_from(sorted(BREAKERS)))
    def test_broken_circuits_raise_the_same_error(self, seed, breaker):
        rng = random.Random(seed)
        instructions, oracles = random_instructions(rng)
        broken = BREAKERS[breaker](rng, instructions, oracles)
        expected = rejection(reference_validate_circuit, broken, oracles)
        assert expected is not None
        assert rejection(fc.validate_circuit, broken, oracles) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**64 - 1))
    def test_valid_circuits_lower_to_the_same_ops(self, seed):
        instructions, oracles = random_instructions(random.Random(seed))
        circuit = Circuit(instructions)
        expected = [op_record(op) for op in reference_lower(circuit, oracles)]
        assert [op_record(op) for op in fc.validate_circuit(circuit, oracles).ops] == expected

    def test_every_breaker_breaks_the_rule_it_names(self):
        messages = {
            "duplicate alloc": "allocated twice",
            "13th qubit": "register cap",
            "unknown ket": "unknown allocation ket",
            "unknown gate": "unknown gate name",
            "nan angle": "phase angle must be finite, got nan",
            "string angle": "gate R needs a real angle, got 'half'",
            "wrong arity": "has arity",
            "duplicate operands": "twice",
            "unresolved oracle": "unresolved oracle name 'nope'",
            "undeclared measure": "undeclared qubit 'nope'",
            "junk instruction": "unknown instruction",
        }
        assert set(messages) == set(BREAKERS)
        for breaker, message in messages.items():
            rng = random.Random(breaker)
            instructions, oracles = random_instructions(rng)
            _, got = rejection(fc.validate_circuit, BREAKERS[breaker](rng, instructions, oracles), oracles)
            assert message in got, breaker


def collapse(psi, target, bit, prob):
    """state.collapse before it folded into measure_qubit: a new state
    holding only branch `bit` of psi, divided by sqrt(prob); only that
    branch is written. Reference for the bytes of a compacted node."""
    post = np.zeros_like(psi)
    np.divide(psi.reshape(2**target, 2, -1)[:, bit, :], np.sqrt(prob), out=post.reshape(2**target, 2, -1)[:, bit, :])
    return post


@st.composite
def awkward_states(draw):
    """A 1-12 qubit state of norm about 0.9, 1 or 1.1 whose parts include
    exact zeros of both signs and subnormals."""
    n = draw(st.integers(1, state.MAX_QUBITS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
    psi *= draw(st.sampled_from([0.9, 1.0, 1.1])) / np.linalg.norm(psi)
    specials = np.array([0.0, -0.0, 5e-324, -2.5e-310, 1e-160])
    for part in (psi.real, psi.imag):
        picked = rng.random(2**n) < draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
        part[picked] = rng.choice(specials, size=int(picked.sum()))
    return psi


class TestCompactedNodes:
    """A trie node's row is one block of the state permuted into measurement
    order, its measured bits in one basis offset. Its p(1) must be
    measure_qubit's p(1) of the full-size state (the reference's sum), and
    its amplitudes, scattered back, the bytes of the full-size collapse."""

    @settings(max_examples=300, deadline=None)
    @given(awkward_states(), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 1)), min_size=1, max_size=14))
    def test_padded_row_sum_is_the_full_size_branch_probability(self, psi, reads):
        n = psi.size.bit_length() - 1
        reads = [(t % n, bit) for t, bit in reads]
        # the engine's layout: qubits by first read, then the rest in qubit
        # order; `columns` holds the basis index of each position
        order = list(dict.fromkeys([*(t for t, _ in reads), *range(n)]))
        columns = np.arange(psi.size).reshape((2,) * n).transpose(order).reshape(-1)
        full, measured = psi, {}  # qubit -> the bit its last read left
        for t, bit in reads:
            low = psi.size >> (t + 1)
            # the engine's row: the block of the ordered state that the
            # measured qubits, which lead the order, pick out; it sits at
            # the basis offset of their bits plus a prefix of `columns`
            ordered = full.reshape((2,) * n).transpose(order).reshape(-1)
            block = sum(measured[q] << (len(measured) - 1 - i) for i, q in enumerate(order[: len(measured)]))
            row = ordered.reshape(2 ** len(measured), -1)[block]
            offset = sum(b << (n - 1 - q) for q, b in measured.items())
            assert row.tobytes() == full[offset + columns[: row.size]].tobytes()
            if t in measured:  # read again: the row goes into the branch its bit names, beside zeros
                a3, offset = np.where((np.arange(2) == measured[t])[None, :, None], row, 0), offset - measured[t] * low
            else:  # read first: branch 1 is the row's second half
                a3 = row.reshape(1, 2, -1)
            padded = np.zeros((1, psi.size >> 1))
            p_one = fc._branch_probabilities(padded, a3[:, 1], np.array([offset + low]), columns[: a3.shape[2]], low)
            p = float(p_one[0])
            assert p.hex() == reference_branch_probability(full, t).hex()
            assert not padded.any()
            if not (p if bit else 1.0 - p) > 0:  # a branch of no mass is never read
                bit = 1 - bit
            full = collapse(full, t, bit, p if bit else 1.0 - p)
            measured[t] = bit  # reading a ruled-out branch leaves the node all zero

    @settings(max_examples=150, deadline=None)
    @given(awkward_states(), st.lists(st.integers(0, 11), min_size=1, max_size=14), st.integers(0, 2**64 - 1))
    def test_compacted_children_scatter_back_to_the_full_size_collapse(self, psi, targets, root):
        n = psi.size.bit_length() - 1
        names = [f"q{i}" for i in range(n)]
        c = fc.validate_circuit(Circuit([Alloc(q, "|0>") for q in names] + [Measure(names[t % n]) for t in targets]), {})
        c = Circuit(c.instructions, (*c.ops[: n - 1], ("state", psi), *c.ops[n:]), {})
        expected = report_record(reference_run_shots(c, {}, root, 12))
        assert report_record(fc._trie_shots(c, n, root, 12)) == expected

    def test_an_overflowing_p1_raises_in_both_engines(self):
        # b = 0 leaves a's branch 1 at 1e200 / sqrt(0.39), whose square
        # overflows: p(1) of qubit a (index 0) is inf, which measure_qubit
        # and the trie both refuse with one message, rather than reading
        # a = 1 with probability inf and dividing the node to zero
        message = "p(1) of qubit 0 overflows to inf"

        def refusal(run, *args):
            try:
                return run(*args)
            except ValueError as exc:
                return str(exc)

        c = fc.validate_circuit(Circuit([Alloc("a", "|0>"), Alloc("b", "|0>"), Measure("b"), Measure("a"), Measure("a")]), {})
        c = Circuit(c.instructions, (c.ops[0], ("state", np.array([0.6, 0.5, 1e200, 0.6], dtype=complex)), *c.ops[2:]), {})
        raised = 0
        with np.errstate(over="ignore"):
            assert refusal(state.measure_qubit, np.array([0.6, 1e200]), 0, 5) == message
            for root in range(20):
                assert refusal(fc._trie_shots, c, 2, root, 200) == message, root
                assert refusal(fc.run_shots, c, {}, root, 200) == message, root
                report = refusal(fc.run_circuit, c, {}, root)
                if report == message:
                    raised += 1
                else:
                    assert report.outcome[0] == "1", root  # b = 1 leaves a's p(1) finite
        assert raised > 0


class TestPrefixState:
    """_trie_shots runs a terminal program's gates through _prefix_state,
    which leaves each product in np.dot's axis order and transposes once
    at the end; it must leave the bytes run_circuit leaves, one apply_gate
    per gate."""

    @pytest.mark.parametrize("case", ["wide", "wide, repeated", *range(4)])
    def test_wide_terminal_circuits(self, case):
        c, _ = wide_terminal_circuit(random.Random(case), repeat=case == "wide, repeated")
        assert_prefix_state_is_run_circuits(c)

    @pytest.mark.parametrize("seed", range(20))
    def test_random_programs_of_up_to_twelve_qubits(self, seed):
        # as generated, and with their measures held to the end, so that the
        # prefix runs through every gate; about half of those gate a register
        # of 1-8 qubits, where apply_gate gathers and the fold transposes
        rng = random.Random(f"prefix:{seed}")
        wide = 0
        for _ in range(20):
            for terminal in (False, True):
                c, _ = lang.compile_program(lang.parse_source(random_program(rng, 12, 80, terminal=terminal)))
                assert_prefix_state_is_run_circuits(c)
            wide += widest_gate_register(c) > state.GATHER_MAX_QUBITS  # the terminal one
        assert wide > 0

    @pytest.mark.parametrize("seed", range(30))
    def test_allocations_between_gates_cross_into_the_wide_register(self, seed):
        # edit-loop's shape: a qubit allocated after gates joins the last
        # axis of a product whose axes are out of qubit order
        c = growing_circuit(random.Random(seed))
        assert sum(op[0] == "measure" for op in c.ops) > state.GATHER_MAX_QUBITS
        assert_prefix_state_is_run_circuits(c)

    @pytest.mark.parametrize("seed", range(10))
    def test_signed_zeros_of_allocations_after_gates(self, seed):
        # a gate's np.dot sums to +0.0, but |0> and |-> allocated after the
        # gates multiply negative parts by 0.0 and zeros by -1/sqrt(2)
        rng = random.Random(seed)
        names = [f"q{i}" for i in range(rng.randint(9, state.MAX_QUBITS))]
        instructions = [Alloc(q, rng.choice(["|->", "H|1>", "|1>", "|0>"])) for q in names[:-2]]
        instructions += [Apply(rng.choice(["Z", "X", "H"]), (rng.choice(names[:-2]),)) for _ in range(30)]
        c = fc.validate_circuit(Circuit([*instructions, Alloc(names[-2], "|0>"), Alloc(names[-1], "|->")]), {})
        parts = fc._prefix_state(c.ops).view(float)
        assert (np.signbit(parts) & (parts == 0)).any()
        assert_prefix_state_is_run_circuits(c)

    @pytest.mark.parametrize("qubits", [0, 1, 8, 9, 12])
    def test_empty_and_all_allocation_prefixes(self, qubits):
        allocations = [Alloc(f"q{i}", "|->" if i % 2 else "|0>") for i in range(qubits)]
        c = fc.validate_circuit(Circuit(allocations + [Measure("q0")] * (qubits > 0)), {})
        assert_prefix_state_is_run_circuits(c)
        assert fc._prefix_state(()).tobytes() == np.ones(1, dtype=np.complex128).tobytes()
        assert fc._prefix_state(()).flags.writeable

    def test_a_wide_terminal_run_calls_neither_apply_gate_nor_run_circuit(self, monkeypatch):
        c, oracles = wide_terminal_circuit(random.Random("counted"))
        expected = report_record(reference_run_shots(c, oracles, 3, 20))
        for name, module in (("apply_gate", state), ("run_circuit", fc), ("iter_steps", fc)):
            monkeypatch.setattr(module, name, None)
        assert report_record(fc.run_shots(c, oracles, 3, 20)) == expected


def assert_prefix_state_is_run_circuits(c):
    """_prefix_state of the ops before c's first measure has the shape and
    bytes of run_circuit's final state on those instructions."""
    first = next((i for i, op in enumerate(c.ops) if op[0] == "measure"), len(c.ops))
    prefix = Circuit(c.instructions[:first], c.ops[:first], c.oracles)
    expected = fc.run_circuit(prefix, c.oracles, 0).final_state
    psi = fc._prefix_state(c.ops[:first])
    assert (psi.shape, psi.tobytes()) == (expected.shape, expected.tobytes())


def growing_circuit(rng):
    """A resolved terminal program of 9-12 qubits that allocates 1-8 of
    them, then the others one at a time, each after one to six gates."""
    oracles, size = {"f": rng.choice(list(OracleFn))}, rng.randint(state.GATHER_MAX_QUBITS + 1, state.MAX_QUBITS)
    names, instructions = [], []
    for _ in range(rng.randint(1, state.GATHER_MAX_QUBITS)):
        names.append(f"q{len(names)}")
        instructions.append(Alloc(names[-1], rng.choice(list(fc.KET_VECTORS))))
    while True:
        for _ in range(rng.randint(1, 6)):
            if len(names) > 1 and rng.random() < 0.4:
                instructions.append(rng.choice([ApplyOracle("f", *rng.sample(names, 2)), Apply("CNOT", tuple(rng.sample(names, 2)))]))
            else:
                name = rng.choice(["I", "X", "Z", "H", "R"])
                instructions.append(Apply(name, (rng.choice(names),), rng.choice([0.5, -0.75]) if name == "R" else None))
        if len(names) == size:
            break
        names.append(f"q{len(names)}")
        instructions.append(Alloc(names[-1], rng.choice(list(fc.KET_VECTORS))))
    measures = [Measure(q) for q in rng.sample(names, len(names))]
    return fc.validate_circuit(Circuit(instructions + measures), oracles)


def reference_run_circuit(circuit, seed):
    """One shot of a resolved circuit as run_circuit ran it before iter_steps
    tested for gates first and built its records through tuple.__new__:
    the ops in order, and measure_qubit as it was
    (brute_force.reference_measure_qubit)."""
    rng = SplitMix64(seed)
    psi = np.ones(1, dtype=np.complex128)
    measured, pres = [], []
    for ins, op in zip(circuit.instructions, circuit.ops):
        if op[0] == "state":
            psi = op[1]
        elif op[0] == "alloc":
            psi = np.multiply.outer(psi, op[1]).reshape(-1)
        elif op[0] == "gate":
            psi = state.apply_gate(psi, op[1], op[2])
        else:
            pres.append(psi)
            result = reference_measure_qubit(psi, op[1], rng.next_u64())
            measured.append((ins.name, result.bit, result.probability))
            psi = result.post_state
    return fc.RunReport(psi, tuple(measured), tuple(pres))


def reference_run_shots(circuit, oracles, root_seed, shots):
    """run_shots before the shot engine: a whole run per shot, each
    re-running every gate, tallied by the outcome of its report.
    Reference for bit-identity; a resolved circuit runs with the ops it
    carries."""
    if circuit.ops is None:
        circuit = fc.validate_circuit(circuit, oracles)
    counts = {}
    first = None
    for i in range(shots):
        report = reference_run_circuit(circuit, shot_seed(root_seed, i))
        if first is None:
            first = report
        counts[report.outcome] = counts.get(report.outcome, 0) + 1
    return fc.RunReport(first.final_state, first.measured, first.pre_measure_states, counts)


def report_record(report):
    """A RunReport as plain data: the tally in its order (None for a
    single run), shot 0's measured triples with the bits of each
    probability, and the bytes of its pre-measure states and final state."""
    return (
        None if report.shots is None else list(report.shots.items()),
        [(name, bit, float(p).hex()) for name, bit, p in report.measured],
        [pre.tobytes() for pre in report.pre_measure_states],
        report.final_state.tobytes(),
    )


def wide_terminal_circuit(rng, repeat=False):
    """A resolved 12-qubit program shaped like the wide-final workload: 12
    allocations, 96 gates of which a third are oracles, then all 12
    measures in shuffled order; with `repeat`, one qubit is measured again
    somewhere after its first measure."""
    names = [f"q{i}" for i in range(state.MAX_QUBITS)]
    oracles = {"f": rng.choice(list(OracleFn)), "g": rng.choice(list(OracleFn))}
    instructions = [Alloc(q, rng.choice(list(fc.KET_VECTORS))) for q in names]
    for i in range(96):
        if i % 3 == 0:
            instructions.append(ApplyOracle(rng.choice(list(oracles)), *rng.sample(names, 2)))
        elif rng.random() < 0.2:
            instructions.append(Apply("CNOT", tuple(rng.sample(names, 2))))
        else:
            name = rng.choice(["I", "X", "Z", "H", "R"])
            instructions.append(Apply(name, (rng.choice(names),), rng.choice([0.5, math.pi / 4, -0.75]) if name == "R" else None))
    measures = [Measure(q) for q in rng.sample(names, len(names))]
    if repeat:
        first = rng.randrange(len(measures))
        measures.insert(rng.randint(first + 1, len(measures)), measures[first])
    return fc.validate_circuit(Circuit(instructions + measures), oracles), oracles


def terminal_circuit(rng, max_qubits=6):
    """A valid random program of 1 to max_qubits qubits with its measures
    after its last gate, in their order, and its oracle table."""
    program = lang.parse_source(random_program(rng, max_qubits=max_qubits, max_statements=30, terminal=True))
    return Circuit(program.statements), {decl.name: decl.fn for decl in program.oracle_decls}


def widest_gate_register(c):
    """The number of qubits allocated when c's last gate before its first
    measure runs (0 if no gate runs before it)."""
    size = widest = 0
    for ins in c.instructions:
        if isinstance(ins, Measure):
            break
        if isinstance(ins, Alloc):
            size += 1
        else:
            widest = size
    return widest


def midcircuit_circuit(rng, max_qubits=6):
    """A valid random program of 1 to max_qubits - 1 qubits with a run
    inserted after some qubit q is allocated: measure q, gate it, allocate
    one more qubit, entangle it with q, measure q twice, then the new
    qubit. The program's own measures stay interleaved with its gates."""
    program = lang.parse_source(random_program(rng, max_qubits=rng.randint(1, max_qubits - 1), max_statements=30))
    statements = list(program.statements)
    allocs = [i for i, s in enumerate(statements) if isinstance(s, Alloc)]
    at = rng.choice(allocs)
    q = statements[at].name
    k = rng.randint(at + 1, len(statements))
    late = Alloc("late", rng.choice(list(fc.KET_VECTORS)))
    run = [Measure(q), Apply("H", (q,)), late, Apply("CNOT", (q, "late")), Measure(q), Measure(q), Measure("late")]
    statements[k:k] = run
    return Circuit(statements), {decl.name: decl.fn for decl in program.oracle_decls}
