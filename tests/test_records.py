"""The record classes' semantics: equality, hashing, immutability,
validation and repr, as the library has promised them since the records
were frozen dataclasses."""
import numpy as np
import pytest

from fqz import checker, circuit as fc, gates, lang
from fqz.circuit import Alloc, Apply, ApplyOracle, Circuit, Measure, OracleFn

# Each statement with a twin that differs only in its position, and a
# neighbour that differs in one compared field.
STATEMENTS = [
    (Alloc("q", "|0>"), Alloc("q", "|0>", 3, 5), Alloc("q", "|1>")),
    (Apply("R", ("q",), 0.5), Apply("R", ("q",), 0.5, line=7, column=1), Apply("R", ("q",), -0.5)),
    (ApplyOracle("f", "a", "b", 1, 1), ApplyOracle("f", "a", "b", 9, 4), ApplyOracle("f", "b", "a", 1, 1)),
    (Measure("q"), Measure("q", line=2, column=8), Measure("r")),
    (lang.OracleDecl("f", OracleFn.IDENTITY), lang.OracleDecl("f", OracleFn.IDENTITY, 4, 2), lang.OracleDecl("f", OracleFn.NEGATION)),
]


def sample_records():
    """(record, its field names) for one instance of every record class."""
    h = gates.hadamard()
    report = fc.run_circuit(fc.deutsch_circuit(), {"f": OracleFn.IDENTITY}, 3)
    result = checker.CheckResult("GATE-U", "unitary", True, "arity 1")
    return [
        (Alloc("q", "|0>"), ("name", "ket", "line", "column")),
        (Apply("H", ("q",)), ("gate", "targets", "parameter", "line", "column")),
        (ApplyOracle("f", "a", "b"), ("oracle", "control", "register", "line", "column")),
        (Measure("q"), ("name", "line", "column")),
        (lang.OracleDecl("f", OracleFn.CONST0), ("name", "fn", "line", "column")),
        (lang.Program((), (Measure("q"),)), ("oracle_decls", "statements")),
        (fc.deutsch_circuit(), ("instructions", "ops", "oracles")),
        (report, ("final_state", "measured", "pre_measure_states", "shots")),
        (fc.deutsch(OracleFn.CONST0), ("verdict", "measured_bit", "probability")),
        (gates.ket("+"), ("terms",)),
        (h.mapping, ("arity", "pairs")),
        (h, ("name", "arity", "matrix", "mapping", "parameter")),
        (result, ("rule", "description", "passed", "detail")),
        (checker.CheckReport("H", (result,)), ("subject", "checks")),
    ]


class TestStatements:
    @pytest.mark.parametrize("a, b, other", STATEMENTS, ids=lambda s: type(s).__name__)
    def test_positions_take_no_part_in_eq_ne_or_hash(self, a, b, other):
        assert (a.line, a.column) != (b.line, b.column)
        assert a == b and b == a
        assert not a != b and not b != a
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    @pytest.mark.parametrize("a, b, other", STATEMENTS, ids=lambda s: type(s).__name__)
    def test_a_compared_field_tells_statements_apart(self, a, b, other):
        assert a != other and other != a
        assert not a == other
        assert len({a, other}) == 2

    @pytest.mark.parametrize("a, b, other", STATEMENTS, ids=lambda s: type(s).__name__)
    def test_a_statement_never_equals_a_plain_tuple(self, a, b, other):
        fields = tuple(getattr(a, name) for name in a.__match_args__)
        for plain in (fields, fields[:-2]):
            assert a != plain and plain != a
            assert not a == plain and not plain == a

    def test_statements_of_different_kinds_are_never_equal(self):
        kinds = [Alloc("q", "|0>"), Measure("q"), Apply("H", ("q",)), lang.OracleDecl("q", OracleFn.CONST0)]
        for i, a in enumerate(kinds):
            for j, b in enumerate(kinds):
                assert (a == b) is (i == j)
                assert (a != b) is (i != j)

    def test_repr_shows_every_field_in_order(self):
        assert repr(Alloc("q", "|0>", 2, 3)) == "Alloc(name='q', ket='|0>', line=2, column=3)"
        assert repr(Apply("R", ("q",), 0.5)) == "Apply(gate='R', targets=('q',), parameter=0.5, line=0, column=0)"
        assert repr(ApplyOracle("f", "a", "b")) == "ApplyOracle(oracle='f', control='a', register='b', line=0, column=0)"
        assert repr(Measure("q", 1, 1)) == "Measure(name='q', line=1, column=1)"
        assert repr(lang.OracleDecl("f", OracleFn.CONST0)) == "OracleDecl(name='f', fn=<OracleFn.CONST0: 'const0'>, line=0, column=0)"


class TestImmutability:
    def test_every_field_of_every_record_refuses_assignment(self):
        for record, fields in sample_records():
            for field in fields:
                getattr(record, field)  # the field exists under that name
                with pytest.raises(AttributeError):
                    setattr(record, field, None)


class TestTupleProtocol:
    """What the records gained as named tuples: fields by index, unpacking
    and _replace, which goes through the same checks as construction."""

    def test_index_unpack_and_replace(self):
        for record, fields in sample_records():
            assert record._fields == fields
            assert tuple(record) == tuple(getattr(record, field) for field in fields)
            assert record[0] is getattr(record, fields[0])
            copy = record._replace()
            assert type(copy) is type(record) and tuple(copy) == tuple(record)

    def test_replace_keeps_positions_apart_from_equality(self):
        moved = Apply("H", ("q",), None, 4, 2)._replace(line=9)
        assert (moved.line, moved.column) == (9, 2)
        assert moved == Apply("H", ("q",))

    def test_replace_checks_as_construction_does(self):
        with pytest.raises(ValueError, match="not unit norm"):
            gates.ket("0")._replace(terms=((2.0, "0"),))
        mapping = gates.hadamard().mapping
        with pytest.raises(ValueError, match="arity must be 1 or 2"):
            mapping._replace(arity=3)
        c = fc.deutsch_circuit()._replace(instructions=[Measure("q")])
        assert c.instructions == (Measure("q"),) and len(c) == 1


class TestValueRecords:
    def test_equal_fields_give_equal_records_and_hashes(self):
        def build():
            r = checker.CheckResult("OBS-1", "square", False, "shape is 2x3")
            return [
                r,
                checker.CheckReport("m", (r,)),
                lang.Program((lang.OracleDecl("f", OracleFn.CONST0),), (Alloc("q", "|0>"),)),
                fc.DeutschVerdict(fc.Verdict.CONSTANT, 0, 1.0),
                gates.ket("1", -1.0),
                gates.BasisMapping(1, (("0", gates.ket("1")), ("1", gates.ket("0")))),
            ]

        for a, b in zip(build(), build()):
            assert a is not b
            assert a == b and not a != b
            assert hash(a) == hash(b)

    def test_properties(self):
        passed, failed = checker.CheckResult("A", "a", True), checker.CheckResult("B", "b", False, "why")
        assert (passed.status, failed.status, passed.detail) == ("PASS", "FAIL", "")
        assert checker.CheckReport("s", (passed,)).overall
        assert not checker.CheckReport("s", (passed, failed)).overall
        assert checker.CheckReport("s", ()).overall


class TestIdentityRecords:
    def test_gate_and_run_report_compare_by_identity(self):
        h = gates.hadamard()
        twin = gates.Gate(h.name, h.arity, h.matrix, h.mapping, h.parameter)
        run = lambda: fc.run_circuit(fc.deutsch_circuit(), {"f": OracleFn.CONST0}, 0)  # noqa: E731
        for a, b in ((h, twin), (run(), run())):
            assert a == a and not a != a
            assert a != b and not a == b
            assert hash(a) == hash(a)
            assert len({a, b}) == 2  # hashable although a field is an ndarray

    def test_run_report_properties(self):
        report = fc.run_shots(fc.deutsch_circuit(), {"f": OracleFn.IDENTITY}, 5, 4)
        assert report.outcome == "1"
        assert report.shots == {"1": 4}
        assert report.amplitudes is report.pre_measure_states[0]
        bare = fc.RunReport(np.array([1.0 + 0j]), (), ())
        assert bare.outcome == "" and bare.shots is None
        assert bare.amplitudes is bare.final_state


class TestValidation:
    @pytest.mark.parametrize(
        "terms, message",
        [
            ((), "at least one term"),
            (((1.0, "0"), (0.0, "0")), "repeats a label"),
            (((0.5, "0"),), "not unit norm"),
            (((complex("nan"), "0"),), "not unit norm"),
        ],
    )
    def test_ket_expr_rejects(self, terms, message):
        with pytest.raises(ValueError, match=message):
            gates.KetExpr(terms)

    @pytest.mark.parametrize(
        "arity, pairs, message",
        [
            (3, (), "arity must be 1 or 2"),
            (1, (("01", gates.ket("0")),), "bad 1-qubit ket label"),
            (2, (("0", gates.ket("00")),), "bad 2-qubit ket label"),
            (1, (("0", gates.ket("0")), ("0", gates.ket("1"))), "repeats an input ket"),
        ],
    )
    def test_basis_mapping_rejects(self, arity, pairs, message):
        with pytest.raises(ValueError, match=message):
            gates.BasisMapping(arity, pairs)

    def test_basis_mapping_builds_its_outputs_once(self):
        mapping = gates.BasisMapping(1, (("0", gates.ket("1")), ("1", gates.ket("0"))))
        outputs = mapping._outputs
        assert mapping._outputs is outputs
        assert not outputs.flags.writeable
        assert outputs.tolist() == [[0, 1], [1, 0]]
        assert mapping == gates.BasisMapping(1, mapping.pairs)  # the cached outputs take no part


class TestCircuit:
    def test_instructions_are_stored_as_a_tuple(self):
        instructions = [Alloc("q", "|0>"), Measure("q")]
        c = Circuit(instructions)
        assert c.instructions == tuple(instructions) and type(c.instructions) is tuple
        assert (c.ops, c.oracles) == (None, None)
        assert len(c) == 2 and len(Circuit(())) == 0
        assert c == Circuit(tuple(instructions)) and not c != Circuit(tuple(instructions))

    def test_ops_and_oracles_take_no_part_in_eq_hash_or_repr(self):
        c = fc.deutsch_circuit()
        resolved = fc.validate_circuit(c, {"f": OracleFn.IDENTITY})
        other = fc.validate_circuit(c, {"f": OracleFn.CONST0})
        for a, b in ((c, resolved), (resolved, other)):
            assert a == b and not a != b
            assert hash(a) == hash(b)
            assert repr(a) == repr(b)
        assert repr(resolved) == f"Circuit(instructions={c.instructions!r})"
        assert len(resolved) == 5
        assert c != Circuit(c.instructions[:-1]) and not c == Circuit(c.instructions[:-1])
        for plain in ((c.instructions, None, None), (c.instructions, resolved.ops, resolved.oracles), (c.instructions,)):
            assert c != plain and plain != c and not c == plain
