import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import builtin_gates
from fuzz_programs import deutsch_source
from fqz import checker, gates, lang, state
from fqz.circuit import Apply, ApplyOracle, OracleFn
from fqz.lang import AllocStmt, MeasureStmt, OracleDecl, Program

# a numpy RuntimeWarning that a test does not ignore in its body fails it:
# the checker promises to stay quiet on any input
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def by_rule(report):
    return {c.rule: c for c in report.checks}


class TestCheckObservable:
    @pytest.mark.parametrize("name", ["I", "X", "Z", "H"])
    def test_passes_on_the_hermitian_builtins(self, name):
        report = checker.check_observable(gates.gate(name).matrix, subject=name)
        assert report.overall
        assert [c.rule for c in report.checks] == ["OBS-1", "OBS-2", "OBS-3"]

    def test_fails_on_diag_1_i(self):
        """[[1,0],[0,i]] has a non-real diagonal entry: OBS-2 and OBS-3 fail."""
        report = checker.check_observable([[1, 0], [0, 1j]])
        rules = by_rule(report)
        assert rules["OBS-1"].passed
        assert not rules["OBS-2"].passed
        assert not rules["OBS-3"].passed
        assert not report.overall

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0])
    def test_a_tolerance_outside_the_unit_interval_raises(self, tol):
        with pytest.raises(ValueError, match="tolerance must lie in"):
            checker.check_observable(np.eye(2), tol=tol)

    @pytest.mark.parametrize("phi", [math.pi / 4, math.pi / 2, 3 * math.pi / 4])
    def test_fails_on_proper_phase_gates(self, phi):
        report = checker.check_observable(gates.phase_shift(phi).matrix)
        rules = by_rule(report)
        assert not rules["OBS-2"].passed
        assert not rules["OBS-3"].passed

    def test_phase_pi_passes_because_it_is_z(self):
        report = checker.check_observable(gates.phase_shift(math.pi).matrix)
        assert report.overall

    def test_non_square_skips_remaining_rules(self):
        report = checker.check_observable(np.ones((2, 3)))
        rules = by_rule(report)
        assert not rules["OBS-1"].passed
        assert "not square" in rules["OBS-2"].detail
        assert "not square" in rules["OBS-3"].detail
        assert not report.overall

    def test_larger_hermitian_matrix_defers_eigenvalue_clause_to_obs2(self):
        m = np.diag([1.0, 2.0, 3.0, 4.0])
        report = checker.check_observable(m)
        rules = by_rule(report)
        assert report.overall
        assert "OBS-2" in rules["OBS-3"].detail

    def test_pass_set_closed_under_conjugate_transpose(self):
        for name in ["I", "X", "Z", "H"]:
            m = gates.gate(name).matrix
            assert checker.check_observable(m.conj().T).overall

    def test_checking_is_total_on_garbage(self):
        report = checker.check_observable([[float("nan"), 0], [0, 1]])
        assert not report.overall  # no exception raised
        for garbage in ([["a"]], [[{}]]):
            rules = by_rule(checker.check_observable(garbage))
            assert not rules["OBS-1"].passed
            assert rules["OBS-2"].detail == "skipped: not a matrix"

    def test_reports_are_deterministic(self):
        a = checker.check_observable(gates.hadamard().matrix)
        b = checker.check_observable(gates.hadamard().matrix)
        assert a == b


# One subject of each kind the rules tell apart: a valid matrix, one that
# is not square, and one that is not finite.
_SUBJECTS = {
    "gate X": lambda tol: checker.check_gate(gates.gate("X"), tol=tol),
    "non-square gate": lambda tol: checker.check_gate(gates.Gate("B", 1, np.ones((2, 3))), tol=tol),
    "NaN gate without mapping": lambda tol: checker.check_gate(gates.Gate("N", 1, [[math.nan, 0], [0, 1]]), tol=tol),
    "non-square observable": lambda tol: checker.check_observable(np.ones((2, 3)), tol=tol),
    "identity observable": lambda tol: checker.check_observable(np.eye(2), tol=tol),
}


@pytest.mark.parametrize("tol", [0.0, -1e-9, 1.0, 2.0])
@pytest.mark.parametrize("subject", _SUBJECTS)
def test_a_tolerance_outside_the_unit_interval_raises_for_every_subject(subject, tol):
    # the tolerance is checked before the subject is looked at, so a broken
    # subject does not make a bad tolerance pass
    with pytest.raises(ValueError, match="tolerance must lie in"):
        _SUBJECTS[subject](tol)


class TestCheckGate:
    @pytest.mark.parametrize("g", builtin_gates() + (gates.phase_shift(math.pi / 2),), ids=lambda g: g.name)
    def test_builtins_pass_all_rules(self, g):
        report = checker.check_gate(g)
        assert report.overall
        assert [c.rule for c in report.checks] == ["GATE-U", "GATE-M", "GATE-INJ"]

    def test_shear_matrix_fails_unitarity(self):
        g = gates.Gate("SHEAR", 1, np.array([[1, 1], [0, 1]], dtype=complex))
        rules = by_rule(checker.check_gate(g))
        assert not rules["GATE-U"].passed

    def test_matrix_mapping_disagreement_fails_gate_m(self):
        # X's matrix paired with the identity's mapping
        mapping = gates.identity_gate().mapping
        g = gates.Gate("X", 1, gates.pauli_x().matrix, mapping)
        rules = by_rule(checker.check_gate(g))
        assert rules["GATE-U"].passed
        assert not rules["GATE-M"].passed

    def test_collapsing_mapping_fails_injectivity(self):
        collapsing = [
            ((("0", "0"), ("1", "0")), ("0", "1")),
            # three colliding pairs; both rules name the first, |00> and |01>
            ((("00", "00"), ("01", "00"), ("10", "00"), ("11", "11")), ("00", "01")),
        ]
        for pairs, (a, b) in collapsing:
            arity = len(pairs[0][0])
            mapping = gates.BasisMapping(arity, tuple((i, gates.ket(o)) for i, o in pairs))
            g = gates.Gate("BAD", arity, np.eye(2**arity, dtype=complex), mapping)
            rules = by_rule(checker.check_gate(g))
            named = f"inputs |{a}> and |{b}> map to the same state"
            assert not rules["GATE-M"].passed  # mapping does not even induce a unitary
            assert named in rules["GATE-M"].detail  # mapping_to_matrix's error text
            assert not rules["GATE-INJ"].passed
            assert rules["GATE-INJ"].detail == named

    def test_each_output_vector_is_built_once(self, monkeypatch):
        # mapping_to_matrix and colliding_inputs share one set of vectors
        built = []
        vector = gates.KetExpr.vector
        monkeypatch.setattr(gates.KetExpr, "vector", lambda self, arity: built.append(self) or vector(self, arity))
        for g in (gates.hadamard(), gates.cnot()):
            built.clear()
            assert checker.check_gate(g).overall
            assert built == [expr for _, expr in g.mapping.pairs]

    def test_gate_without_mapping_passes_vacuously(self):
        g = gates.Gate("BARE", 1, np.eye(2, dtype=complex))
        report = checker.check_gate(g)
        assert report.overall
        assert "no mapping" in by_rule(report)["GATE-M"].detail

    def test_checking_is_total_on_broken_gates(self):
        g = gates.Gate("ZERO", 1, np.zeros((2, 2), dtype=complex))
        report = checker.check_gate(g)  # must not raise
        assert not report.overall

        # Entries that are not finite fail GATE-U with as_matrix's message
        # and skip GATE-M; GATE-INJ still reads the mapping.
        mapping = gates.identity_gate().mapping
        for bad in (math.nan, math.inf, -math.inf, complex(0, math.inf)):
            rules = by_rule(checker.check_gate(gates.Gate("G", 1, [[bad, 0], [0, 1]], mapping)))
            assert (rules["GATE-U"].passed, rules["GATE-U"].detail) == (False, "matrix entries must be finite")
            assert (rules["GATE-M"].passed, rules["GATE-M"].detail) == (False, "skipped: not a matrix")
            assert (rules["GATE-INJ"].passed, rules["GATE-INJ"].detail) == (True, "all mapping outputs distinct")

        # Finite, but the product with the adjoint overflows.
        with np.errstate(over="ignore", invalid="ignore"):
            rules = by_rule(checker.check_gate(gates.Gate("G", 1, [[1e200, 0], [0, 1]], mapping)))
        assert (rules["GATE-U"].passed, rules["GATE-U"].detail) == (False, "arity 1")
        assert (rules["GATE-M"].passed, rules["GATE-M"].detail) == (False, "induced matrix differs")
        assert rules["GATE-INJ"].passed


# Matrices of 1x1 to 4x4, some rows ragged, entries mostly finite numbers
# but also NaN, infinities, overflow-prone 1e200 and things numpy cannot
# read as numbers at all.
_ENTRIES = st.one_of(
    st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
    st.sampled_from([math.nan, math.inf, -math.inf, complex(0, math.inf), 1e200, -1e200, "a", {}, None]),
)
_MATRICES = st.lists(st.lists(_ENTRIES, min_size=1, max_size=4), min_size=1, max_size=4)
_MAPPINGS = st.sampled_from([None, gates.identity_gate().mapping, gates.hadamard().mapping, gates.cnot().mapping])


class TestTotality:
    # a test's own filterwarnings mark would lose to the module's
    # pytestmark, so these ignore RuntimeWarning in their bodies
    @settings(deadline=None)
    @given(_MATRICES, _MAPPINGS)
    def test_check_gate_never_raises(self, matrix, mapping):
        arity = 1 if mapping is None else mapping.arity
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = checker.check_gate(gates.Gate("G", arity, matrix, mapping))
        assert [c.rule for c in report.checks] == ["GATE-U", "GATE-M", "GATE-INJ"]

    @settings(deadline=None)
    @given(_MATRICES)
    def test_check_observable_never_raises(self, matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = checker.check_observable(matrix)
        assert [c.rule for c in report.checks] == ["OBS-1", "OBS-2", "OBS-3"]


class TestHugeFiniteInput:
    """Entries near 1e200 overflow inside the rules; the checker must stay
    quiet about it and report exactly what it reports with warnings off."""

    SUBJECTS = {
        "observable": lambda: checker.check_observable([[1e200, 1e200], [1e200, 1e200]]),
        "gate": lambda: checker.check_gate(gates.Gate("G", 1, np.array([[1e200, 0], [0, 1]], dtype=np.complex128))),
    }

    @pytest.mark.parametrize("subject", SUBJECTS)
    def test_no_warning_and_the_same_report(self, subject):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            quiet = self.SUBJECTS[subject]()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loud = self.SUBJECTS[subject]()
        assert loud == quiet
        assert not loud.overall

    def test_the_reports(self):
        obs = by_rule(self.SUBJECTS["observable"]())
        assert obs["OBS-2"].passed
        assert not obs["OBS-3"].passed
        assert obs["OBS-3"].detail.startswith("eigenvalues nan+nanj and nan+nanj")
        gate = by_rule(self.SUBJECTS["gate"]())
        assert not gate["GATE-U"].passed
        assert gate["GATE-U"].detail == "arity 1"


class TestCheckProgram:
    def test_deutsch_program_passes(self):
        p = lang.parse_source(deutsch_source("id"))
        report = checker.check_program(p)
        assert report.overall
        assert [c.rule for c in report.checks] == ["PROG-SCOPE", "PROG-NORM"]

    @pytest.mark.parametrize(
        "decls, statements, detail",
        [
            (
                (OracleDecl("f", "id"),),
                (AllocStmt("x", "|0>"), AllocStmt("y", "|0>"), ApplyOracle("f", "x", "y")),
                "statement 2: oracle 'f' is bound to 'id', not an OracleFn",
            ),
            ((), (AllocStmt("x", "|0>"), MeasureStmt(["x"])), "statement 1: malformed instruction"),
            ((), (AllocStmt(["x"], "|0>"),), "statement 0: malformed instruction"),
            ((), (AllocStmt("x", ["|0>"]),), "statement 0: malformed instruction"),
            ((), (AllocStmt("x", "|0>"), Apply(["H"], ("x",))), "statement 1: malformed instruction"),
        ],
    )
    def test_hand_built_ill_typed_programs_fail_scope(self, decls, statements, detail):
        # the walk builds gates while it validates, so an oracle bound to a
        # non-function or an unhashable name must be a scope failure, not an
        # exception
        rules = by_rule(checker.check_program(Program(decls, statements)))
        assert not rules["PROG-SCOPE"].passed
        assert rules["PROG-SCOPE"].detail.startswith(detail)
        assert rules["PROG-NORM"].detail == "skipped: scoping failed"

    @pytest.mark.parametrize(
        "decl, where",
        [
            (("f", OracleFn.IDENTITY), ""),
            (OracleDecl(["f"], OracleFn.IDENTITY), ""),
            (OracleDecl(None, OracleFn.IDENTITY, 3, 1), "3:1: "),
            ("f", ""),
        ],
        ids=["plain-tuple", "list-name", "none-name", "str"],
    )
    def test_malformed_oracle_declaration_fails_scope(self, decl, where):
        # a declaration with a position is located as `fqz run` prints it
        p = Program((decl,), (AllocStmt("x", "|0>"),))
        rules = by_rule(checker.check_program(p))
        assert not rules["PROG-SCOPE"].passed
        assert rules["PROG-SCOPE"].detail == f"{where}malformed oracle declaration {decl!r}"
        assert rules["PROG-NORM"].detail == "skipped: scoping failed"

    @pytest.mark.parametrize("decls, statements", [(None, ()), ((), None), ((), 5)], ids=["none-decls", "none-statements", "int-statements"])
    def test_a_field_that_is_not_a_sequence_fails_scope(self, decls, statements):
        p = Program(decls, statements)
        rules = by_rule(checker.check_program(p))
        assert not rules["PROG-SCOPE"].passed
        assert rules["PROG-SCOPE"].detail == f"malformed program {p!r}: its fields must be sequences"
        assert rules["PROG-NORM"].detail == "skipped: scoping failed"

    @pytest.mark.parametrize("tol", [2.0, 0.0, -1.0, math.nan])
    def test_a_tolerance_outside_the_unit_interval_raises(self, tol):
        # as check_gate and check_observable do, rather than pass or fail PROG-NORM by it
        p = lang.parse_source(deutsch_source("id"))
        with pytest.raises(ValueError, match="tolerance must lie in"):
            checker.check_program(p, tol=tol)
        with pytest.raises(ValueError, match="tolerance must lie in"):
            checker.check_gate(gates.cnot(), tol=tol)

    def test_empty_program_passes_vacuously(self):
        report = checker.check_program(Program((), ()))
        assert report.overall

    def test_undeclared_measure_fails_scope_and_skips_norm(self):
        p = Program((), (MeasureStmt("ghost"),))
        rules = by_rule(checker.check_program(p))
        assert not rules["PROG-SCOPE"].passed
        assert "skipped" in rules["PROG-NORM"].detail

    def test_non_instruction_fails_scope_without_raising(self):
        rules = by_rule(checker.check_program(Program((), ("junk",))))
        assert not rules["PROG-SCOPE"].passed
        assert rules["PROG-SCOPE"].detail == "statement 0: unknown instruction 'junk'"
        assert not rules["PROG-NORM"].passed
        assert rules["PROG-NORM"].detail == "skipped: scoping failed"

    def test_double_alloc_fails_scope(self):
        p = Program((), (AllocStmt("q", "|0>"), AllocStmt("q", "|1>")))
        assert not by_rule(checker.check_program(p))["PROG-SCOPE"].passed

    def test_duplicate_oracle_decl_fails_scope(self):
        p = Program((OracleDecl("f", OracleFn.CONST0),) * 2, ())
        assert not by_rule(checker.check_program(p))["PROG-SCOPE"].passed

    def test_norm_holds_on_longer_program(self):
        src = (
            "oracle f = not\n"
            "qubit a = H|0>\nqubit b = |->\nqubit c = |1>\n"
            "H c\nR(pi/4) a\nN[f] a b\nZ b\nX c\nmeasure b\nmeasure a\n"
        )
        report = checker.check_program(lang.parse_source(src))
        assert report.overall

    def test_execution_failure_becomes_fail_entry(self, monkeypatch):
        def broken(*args):
            raise ValueError("kernel fault")

        monkeypatch.setattr(state, "apply_gate", broken)
        p = lang.parse_source("qubit x = |0>\nH x")
        rules = by_rule(checker.check_program(p))
        assert rules["PROG-SCOPE"].passed
        assert not rules["PROG-NORM"].passed
        assert rules["PROG-NORM"].detail == "execution failed: kernel fault"

    def test_oracle_on_one_qubit_fails_scope(self):
        # N applied to one qubit twice is rejected before anything runs, at
        # the line and column `fqz run` reports
        p = lang.parse_source("oracle f = id\nqubit x = |0>\nN[f] x x")
        rules = by_rule(checker.check_program(p))
        assert not rules["PROG-SCOPE"].passed
        assert rules["PROG-SCOPE"].detail == "3:1: oracle N[f] targets qubit 'x' twice"
        assert rules["PROG-NORM"].detail == "skipped: scoping failed"
