import math
import random

import pytest

from fuzz_programs import mutate, random_program
from fqz import circuit as fc
from fqz import lang
from fqz.lang import (
    AllocStmt,
    ApplyStmt,
    CompileError,
    MeasureStmt,
    OracleApplyStmt,
    OracleDecl,
    ParseError,
    Program,
    TokenKind,
)

DEUTSCH_SRC = lang.deutsch_source("const0")


def kinds(source):
    return [t.kind for t in lang.tokenize(source)]


class TestTokenize:
    def test_alloc_line(self):
        toks = lang.tokenize("qubit x = H|0>")
        assert [(t.kind, t.lexeme) for t in toks] == [
            (TokenKind.KEYWORD, "qubit"),
            (TokenKind.IDENT, "x"),
            (TokenKind.EQUALS, "="),
            (TokenKind.KET, "H|0>"),
            (TokenKind.EOF, ""),
        ]
        assert [(t.line, t.column) for t in toks[:-1]] == [(1, 1), (1, 7), (1, 9), (1, 11)]

    def test_oracle_apply_line(self):
        assert kinds("N[f] x y") == [
            TokenKind.GATE,
            TokenKind.LBRACKET,
            TokenKind.IDENT,
            TokenKind.RBRACKET,
            TokenKind.IDENT,
            TokenKind.IDENT,
            TokenKind.EOF,
        ]

    @pytest.mark.parametrize("ket", ["|0>", "|1>", "|+>", "|->", "H|0>", "H|1>"])
    def test_all_six_kets_lex_as_one_token(self, ket):
        toks = lang.tokenize(ket)
        assert toks[0].kind is TokenKind.KET
        assert toks[0].lexeme == ket

    @pytest.mark.parametrize("lexeme", ["pi", "pi/2", "pi/4", "0.5", "-0.75", "1e-3", "2"])
    def test_number_forms(self, lexeme):
        toks = lang.tokenize(f"R({lexeme}) x")
        assert toks[2].kind is TokenKind.NUMBER
        assert toks[2].lexeme == lexeme

    def test_comment_token(self):
        toks = lang.tokenize("H x -- fold it\n")
        assert toks[2].kind is TokenKind.COMMENT
        assert toks[2].lexeme == "-- fold it"
        assert toks[3].kind is TokenKind.NEWLINE

    def test_crlf_accepted(self):
        assert kinds("H x\r\nX y") == kinds("H x\nX y")

    def test_line_and_column_are_one_based(self):
        toks = lang.tokenize("qubit a = |0>\nmeasure a")
        measure = [t for t in toks if t.lexeme == "measure"][0]
        assert (measure.line, measure.column) == (2, 1)

    def test_bad_ket_is_located(self):
        with pytest.raises(ParseError) as err:
            lang.tokenize("qubit x = |2>")
        assert (err.value.line, err.value.column) == (1, 11)
        assert TokenKind.KET in err.value.expected

    def test_unknown_character_is_located(self):
        with pytest.raises(ParseError) as err:
            lang.tokenize("H x\nH ?")
        assert (err.value.line, err.value.column) == (2, 3)

    def test_unsupported_pi_fraction(self):
        with pytest.raises(ParseError):
            lang.tokenize("R(pi/3) x")

    def test_stray_carriage_return(self):
        with pytest.raises(ParseError, match="carriage return"):
            lang.tokenize("H x\rX y")


class TestParse:
    def test_deutsch_program_shape(self):
        p = lang.parse_source(DEUTSCH_SRC)
        assert p.oracle_decls == (OracleDecl("f", fc.OracleFn.CONST0),)
        assert p.statements == (
            AllocStmt("x", "H|0>"),
            AllocStmt("y", "H|1>"),
            OracleApplyStmt("f", "x", "y"),
            ApplyStmt("H", ("x",)),
            MeasureStmt("x"),
        )

    def test_locations_attached_but_not_compared(self):
        p = lang.parse_source(DEUTSCH_SRC)
        assert p.statements[0].line == 2
        assert p.statements[0].column == 1
        shifted = lang.parse_source("\n\n" + DEUTSCH_SRC)
        assert shifted == p
        assert shifted.statements[0].line != p.statements[0].line

    def test_rotation_angle_value(self):
        p = lang.parse_source("qubit q = |0>\nR(pi/2) q")
        assert p.statements[1].parameter == pytest.approx(math.pi / 2)

    @pytest.mark.parametrize(
        "source, fragment",
        [
            ("H x", "undeclared qubit"),
            ("qubit x = |0>\nqubit x = |1>", "already declared"),
            ("oracle f = id\noracle f = not", "duplicate oracle"),
            ("qubit x = |0>\nqubit y = |0>\nN[f] x y", "undeclared oracle"),
            ("measure m", "undeclared qubit"),
        ],
    )
    def test_scoping_violations_are_parse_errors(self, source, fragment):
        with pytest.raises(ParseError, match=fragment):
            lang.parse_source(source)

    def test_scoping_error_location_points_at_the_name(self):
        with pytest.raises(ParseError) as err:
            lang.parse_source("qubit x = |0>\nH y")
        assert (err.value.line, err.value.column) == (2, 3)

    @pytest.mark.parametrize(
        "source",
        [
            "qubit = |0>",
            "qubit x |0>",
            "oracle f = maybe",
            "R pi x",
            "R(pi x",
            "N f] x y",
            "N[f x y",
            "qubit x = |0>\nH x y",
            "= x",
            "qubit x = qubit",
        ],
    )
    def test_grammar_violations_are_located_parse_errors(self, source):
        with pytest.raises(ParseError) as err:
            lang.parse_source(source)
        assert err.value.line >= 1
        assert err.value.column >= 1

    def test_error_mentions_expected_kinds(self):
        with pytest.raises(ParseError) as err:
            lang.parse_source("qubit x = 5")
        assert err.value.expected == [TokenKind.KET]

    def test_number_overflow_rejected(self):
        with pytest.raises(ParseError, match="overflows"):
            lang.parse_source("qubit q = |0>\nR(1e999) q")

    def test_comments_and_blank_lines_ignored(self):
        src = "-- header\n\nqubit x = |0>  -- allocate\n\n-- done\nmeasure x\n"
        p = lang.parse_source(src)
        assert len(p.statements) == 2


class TestPrettyPrint:
    def test_deutsch_source_is_already_canonical(self):
        p = lang.parse_source(DEUTSCH_SRC)
        assert lang.pretty_print(p) == DEUTSCH_SRC

    def test_whitespace_and_comments_normalize(self):
        src = "qubit   x  =   |0>   -- messy\nH    x\n"
        assert lang.pretty_print(lang.parse_source(src)) == "qubit x = |0>\nH x\n"

    @pytest.mark.parametrize(
        "angle_text, printed",
        [
            ("3.141592653589793", "pi"),
            ("1.5707963267948966", "pi/2"),
            ("0.7853981633974483", "pi/4"),
            ("pi", "pi"),
            ("0.5", "0.5"),
            ("-0.75", "-0.75"),
        ],
    )
    def test_angle_canonicalization(self, angle_text, printed):
        p = lang.parse_source(f"qubit q = |0>\nR({angle_text}) q")
        assert f"R({printed}) q" in lang.pretty_print(p)

    def test_angle_fallback_keeps_full_precision(self):
        # 9 significant digits would corrupt this value, so the printer
        # must fall back to an exact decimal form
        value = 0.12345678901234567
        p = Program((), (AllocStmt("q", "|0>"), ApplyStmt("R", ("q",), value)))
        printed = lang.pretty_print(p)
        assert lang.parse_source(printed) == p

    def test_round_trip_structural_equality(self):
        src = "oracle g = not\nqubit a = |+>\nqubit b = H|1>\nN[g] a b\nR(pi/4) b\nmeasure a\n"
        p = lang.parse_source(src)
        assert lang.parse_source(lang.pretty_print(p)) == p

    def test_idempotent(self):
        for src in [DEUTSCH_SRC, "qubit x=|->\nZ   x -- c\n", "oracle f = id\nqubit q = H|0>\n"]:
            once = lang.pretty_print(lang.parse_source(src))
            twice = lang.pretty_print(lang.parse_source(once))
            assert once == twice

    def test_output_uses_lf_only(self):
        p = lang.parse_source("H x".replace("H x", "qubit x = |0>\r\nH x"))
        assert "\r" not in lang.pretty_print(p)


class TestCompile:
    def test_deutsch_compiles_to_the_builtin_circuit(self):
        p = lang.parse_source(DEUTSCH_SRC)
        circuit, oracles = lang.compile_program(p)
        assert circuit == fc.deutsch_circuit()
        assert oracles == {"f": fc.OracleFn.CONST0}

    def test_statement_order_is_instruction_order(self):
        rng = random.Random(7)
        for _ in range(25):
            p = lang.parse_source(random_program(rng))
            circuit, _ = lang.compile_program(p)
            assert len(circuit.instructions) == len(p.statements)
            for stmt, ins in zip(p.statements, circuit.instructions):
                assert ins is stmt

    def test_statement_names_alias_the_instructions(self):
        assert lang.AllocStmt is fc.Alloc
        assert lang.ApplyStmt is fc.Apply
        assert lang.OracleApplyStmt is fc.ApplyOracle
        assert lang.MeasureStmt is fc.Measure
        assert lang.Stmt is fc.Instruction

    def test_positions_are_ignored_by_equality_and_hashing(self):
        pairs = [
            (fc.Alloc("q", "|0>"), fc.Alloc("q", "|0>", line=3, column=5)),
            (fc.Apply("R", ("q",), 0.5), fc.Apply("R", ("q",), 0.5, line=7, column=1)),
            (fc.ApplyOracle("f", "a", "b", line=1, column=1), fc.ApplyOracle("f", "a", "b", line=9, column=4)),
            (fc.Measure("q"), fc.Measure("q", line=2, column=8)),
        ]
        for a, b in pairs:
            assert (a.line, a.column) != (b.line, b.column)
            assert a == b
            assert hash(a) == hash(b)

    def test_duplicate_oracle_decl_rejected(self):
        p = Program(
            (OracleDecl("f", fc.OracleFn.CONST0), OracleDecl("f", fc.OracleFn.IDENTITY)),
            (),
        )
        with pytest.raises(CompileError, match="duplicate"):
            lang.compile_program(p)

    def test_unknown_gate_rejected(self):
        p = Program((), (AllocStmt("q", "|0>"), ApplyStmt("Q", ("q",))))
        with pytest.raises(CompileError, match="unknown gate"):
            lang.compile_program(p)

    def test_hand_built_position_locates_the_error(self):
        p = Program((), (fc.Alloc("q", "|0>"), fc.Apply("Q", ("q",), line=4, column=2)))
        with pytest.raises(CompileError, match="unknown gate") as err:
            lang.compile_program(p)
        assert (err.value.line, err.value.column) == (4, 2)

    def test_non_instruction_is_a_compile_error_at_the_origin(self):
        with pytest.raises(CompileError, match="unknown instruction 'junk'") as err:
            lang.compile_program(Program((), ("junk",)))
        assert (err.value.line, err.value.column) == (0, 0)

    def test_compiled_deutsch_runs_like_the_builtin(self):
        for keyword, fn in fc.ORACLE_KEYWORDS.items():
            p = lang.parse_source(lang.deutsch_source(keyword))
            circuit, oracles = lang.compile_program(p)
            report = fc.run_circuit(circuit, oracles, seed=3)
            assert report.measured[0][1] == fc.deutsch(fn, seed=3).measured_bit


class TestFuzz:
    def test_generated_programs_round_trip(self):
        rng = random.Random(2024)
        for _ in range(200):
            src = random_program(rng)
            p = lang.parse_source(src)
            canonical = lang.pretty_print(p)
            assert lang.parse_source(canonical) == p
            assert lang.pretty_print(lang.parse_source(canonical)) == canonical

    def test_mutations_never_crash_and_errors_are_located(self):
        rng = random.Random(99)
        for _ in range(300):
            src = mutate(random_program(rng), rng)
            try:
                lang.parse_source(src)
            except ParseError as err:
                assert err.line >= 1
                assert err.column >= 1
