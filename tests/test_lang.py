import math
import random
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_force import RecursiveDescentParser
from fuzz_programs import deutsch_source, mutate, random_program
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
    Token,
    TokenKind,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads  # noqa: E402

DEUTSCH_SRC = deutsch_source("const0")


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

    @pytest.mark.parametrize(
        "decl, position",
        [(("f", fc.OracleFn.IDENTITY), (0, 0)), (OracleDecl(["f"], fc.OracleFn.IDENTITY, 2, 5), (2, 5))],
    )
    def test_malformed_oracle_declaration_is_a_compile_error_at_its_position(self, decl, position):
        with pytest.raises(CompileError, match="malformed oracle declaration") as err:
            lang.compile_program(Program((decl,), ()))
        assert (err.value.line, err.value.column) == position

    @pytest.mark.parametrize(
        "program",
        [Program(None, ()), Program((), None), Program((), 5), Program((), iter([fc.Alloc("q", "|0>")]))],
        ids=["none-decls", "none-statements", "int-statements", "iterator-statements"],
    )
    def test_a_field_that_is_not_a_sequence_is_a_compile_error_at_the_origin(self, program):
        with pytest.raises(CompileError, match="fields must be sequences") as err:
            lang.compile_program(program)
        assert (err.value.line, err.value.column) == (0, 0)

    def test_list_fields_compile_like_tuples(self):
        p = lang.parse_source(deutsch_source("id"))
        listed = lang.compile_program(Program(list(p.oracle_decls), list(p.statements)))
        assert listed == lang.compile_program(p)

    def test_compiled_deutsch_runs_like_the_builtin(self):
        for keyword, fn in fc.ORACLE_KEYWORDS.items():
            p = lang.parse_source(deutsch_source(keyword))
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


# ---------------------------------------------------------------------------
# The character-loop lexer lang.tokenize replaced, kept as the reference the
# one-regex lexer must agree with token for token and error for error.

_REF_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_REF_NUMBER_RE = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_REF_PUNCT = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "=": TokenKind.EQUALS,
}


def char_loop_tokenize(source):
    """Step through the source one character at a time. It raises an
    AttributeError, not a ParseError, on a non-ASCII letter."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t":
            i += 1
            col += 1
            continue
        if c == "\r":
            if i + 1 < n and source[i + 1] == "\n":
                tokens.append(Token(TokenKind.NEWLINE, "\n", line, col))
                i += 2
                line += 1
                col = 1
                continue
            raise ParseError("stray carriage return", line, col)
        if c == "\n":
            tokens.append(Token(TokenKind.NEWLINE, "\n", line, col))
            i += 1
            line += 1
            col = 1
            continue
        if source.startswith("--", i):
            j = i
            while j < n and source[j] not in "\r\n":
                j += 1
            tokens.append(Token(TokenKind.COMMENT, source[i:j], line, col))
            col += j - i
            i = j
            continue
        if c == "|":
            tokens.append(_ref_ket(source, i, line, col))
            i += 3
            col += 3
            continue
        if c in _REF_PUNCT:
            tokens.append(Token(_REF_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit() or c == "." or (c == "-" and i + 1 < n and (source[i + 1].isdigit() or source[i + 1] == ".")):
            m = _REF_NUMBER_RE.match(source, i)
            if m is None:
                raise ParseError(f"unexpected character {c!r}", line, col)
            tokens.append(Token(TokenKind.NUMBER, m.group(0), line, col))
            i = m.end()
            col += len(m.group(0))
            continue
        if c.isalpha() or c == "_":
            m = _REF_WORD_RE.match(source, i)
            word = m.group(0)
            if word == "pi":
                lexeme = "pi"
                if source.startswith("pi/2", i):
                    lexeme = "pi/2"
                elif source.startswith("pi/4", i):
                    lexeme = "pi/4"
                tokens.append(Token(TokenKind.NUMBER, lexeme, line, col))
                i += len(lexeme)
                col += len(lexeme)
                continue
            if word == "H" and m.end() < n and source[m.end()] == "|":
                tok = _ref_ket(source, m.end(), line, col, prefix="H")
                tokens.append(tok)
                i += len(tok.lexeme)
                col += len(tok.lexeme)
                continue
            if word in lang.KEYWORDS:
                kind = TokenKind.KEYWORD
            elif word in lang.GATE_NAMES:
                kind = TokenKind.GATE
            else:
                kind = TokenKind.IDENT
            tokens.append(Token(kind, word, line, col))
            i = m.end()
            col += len(word)
            continue
        raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens


def _ref_ket(source, bar, line, col, prefix=""):
    body = source[bar + 1 : bar + 2]
    close = source[bar + 2 : bar + 3]
    allowed = "01" if prefix else "01+-"
    if body not in set(allowed) or close != ">":
        raise ParseError(
            "expected one of the ket literals |0>, |1>, |+>, |->, H|0>, H|1>",
            line,
            col,
            expected=[TokenKind.KET],
        )
    return Token(TokenKind.KET, f"{prefix}|{body}>", line, col)


def lexed(tokenize, source):
    """What tokenize (or a parser passed in its place) returns for source,
    or the ParseError's message, location and expected kinds."""
    try:
        return tokenize(source)
    except ParseError as err:
        return ("ParseError", err.message, err.line, err.column, err.expected)


def assert_lexes_like_the_reference(source):
    assert lexed(lang.tokenize, source) == lexed(char_loop_tokenize, source), repr(source)


# The characters either lexer treats specially, a few it rejects, and two
# non-ASCII digits (one a decimal digit, one only str.isdigit).
LEXER_ALPHABET = "|>=()[]-_+./\\0123456789eEabfpiqxyzHIRNXZ \t\r\n?#٣²"


class TestLexerAgainstReference:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_pool_sources_and_their_corruptions(self, workload):
        rng = random.Random(f"lexer-reference:{workload}")
        for job in workloads.pool(workload):
            assert_lexes_like_the_reference(job.source)
            assert_lexes_like_the_reference(workloads.corrupt(job.source, rng))

    @pytest.mark.parametrize(
        "source",
        [
            "R(pi/25) q",
            "R(pix) q",
            "R(pi/2x) q",
            "R(pi/4) q\nR(pi/3) q",
            "qubit a = H|+>",
            "qubit a = H|",
            "qubit a = |",
            "qubit a = |1",
            "\r",
            "H x\r",
            "H x -- note\rX y",
            "-.",
            "- 1",
            "R(-.5) q",
            "1e999",
            "R(1e-999) q",
            "qubit q = |0>\r\nH q -- c\r\n\r\nmeasure q\r\n",
            "qubit q = |0>\r\nH q\r\n",
            "",
            " \t ",
            "R(٣) q",
            "R(²) q",
            "HH|0>",
            "xH|0>",
        ],
    )
    def test_edge_cases(self, source):
        assert_lexes_like_the_reference(source)

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=LEXER_ALPHABET, max_size=40))
    def test_text_over_the_lexer_alphabet(self, source):
        assert_lexes_like_the_reference(source)

    @pytest.mark.parametrize("source, column", [("é", 1), ("qubit é = |0>", 7), ("H x\nmeasure xß", 10)])
    def test_a_non_ascii_letter_is_an_unexpected_character(self, source, column):
        # the reference raised AttributeError here, which escaped the CLI
        with pytest.raises(AttributeError):
            char_loop_tokenize(source)
        with pytest.raises(ParseError, match="unexpected character") as err:
            lang.tokenize(source)
        assert err.value.column == column

    def test_tokens_are_named_tuples(self):
        tok = lang.tokenize("H x")[0]
        assert tok == Token(TokenKind.GATE, "H", 1, 1)
        assert tok._fields == ("kind", "lexeme", "line", "column")
        with pytest.raises(AttributeError):
            tok.line = 2


# ---------------------------------------------------------------------------
# parse_source reads a valid program one _LINE_RE match per line and hands
# any other source to parse(tokenize(source)). The line parser must accept
# exactly the sources the token parser accepts, with the same statements at
# the same positions; the token parser must agree with the recursive-descent
# reference on every program and every ParseError.


def positions(program):
    """Each declaration's and statement's line and column, and each angle's repr."""
    return [(d.line, d.column) for d in program.oracle_decls] + [
        (s.line, s.column, repr(getattr(s, "parameter", None))) for s in program.statements
    ]


def token_parsed(parse, source):
    """parse(tokenize(source)) with its positions, or the ParseError's fields."""
    result = lexed(lambda s: parse(lang.tokenize(s)), source)
    return (result, positions(result)) if isinstance(result, Program) else result


def assert_parses_like_the_token_parser(source):
    expected = lexed(lambda s: lang.parse(lang.tokenize(s)), source)
    reference = token_parsed(lambda tokens: RecursiveDescentParser(tokens).program(), source)
    assert token_parsed(lang.parse, source) == reference, repr(source)
    program = lang._parse_lines(source)
    if isinstance(expected, Program):
        assert program is not None, repr(source)
        assert (program, positions(program)) == (expected, positions(expected)), repr(source)
    else:  # parse_source falls back to the token parser
        assert program is None, repr(source)
        assert lexed(lang.parse_source, source) == expected, repr(source)


STATEMENT_FRAGMENTS = [
    *("qubit", "oracle", "measure", "const0", "const1", "id", "not", "pi", "pi/2", "pi/4", "1e999", "-0.5", ".5"),
    *("q", "a", "f", "_x1", "Hq", "é", "٣", "=", "|0>", "|->", "H|1>", "|2>", "I", "X", "Z", "H", "R", "N"),
    *("(", ")", "[", "]", " ", "\t", "\n", "\r\n", "\r", "--", "-- note", "@"),
]


class TestLineParserAgainstTokenParser:
    @pytest.mark.parametrize("workload", workloads.WORKLOADS)
    def test_pool_sources_and_their_corruptions(self, workload):
        rng = random.Random(f"line-parser:{workload}")
        for job in workloads.pool(workload):
            assert_parses_like_the_token_parser(job.source)
            assert_parses_like_the_token_parser(workloads.corrupt(job.source, rng))

    @settings(max_examples=2000, deadline=None)
    @given(st.text(alphabet=LEXER_ALPHABET + "é", max_size=40))
    def test_text_over_the_lexer_alphabet(self, source):
        assert_parses_like_the_token_parser(source)

    @settings(max_examples=2000, deadline=None)
    @given(st.lists(st.sampled_from(STATEMENT_FRAGMENTS), max_size=30).map("".join))
    def test_statement_fragment_soup(self, source):
        assert_parses_like_the_token_parser(source)

    @settings(max_examples=300, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(0, 2))
    def test_random_programs_and_their_mutations(self, rng, mutations):
        source = random_program(rng, max_qubits=rng.randint(1, 12), max_statements=40)
        for _ in range(mutations):
            source = mutate(source, rng)
        assert_parses_like_the_token_parser(source)

    @pytest.mark.parametrize(
        "source, valid",
        [
            ("", True),
            (" \t", True),
            ("qubit q = |0>\nH q \t", True),
            ("qubit q = |0>\r\nH q -- c\r\n\r\nmeasure q\r\n", True),
            ("qubit q=|0>\nR(pi)q\nH q--c", True),
            ("oracle f = id\nqubit a = |0>\nqubit b = |1>\nN[f]a b", True),
            ("qubit q = |0>\nR(٣) q", True),
            ("qubit H = |0>", False),
            ("oracle qubit = id", False),
            ("qubit pi = |0>", False),
            ("qubit q = |0>\nR(1e999) q", False),
            ("R(1e999) q", False),
            ("qubit q = |0>\nR(1e999) p", False),
            ("qubit q = |0>\nR(1e999)", False),
            ("qubit q = |0>\nR(pi/25) q", False),
            ("qubit q = |0>\nHq", False),
            ("oracle f = const0x", False),
            ("qubit q = |0>x", False),
            ("qubit q = |0>\rH q", False),
            ("qubit q = |0>\nH q\r", False),
            ("é", False),
            ("qubit é = |0>", False),
        ],
    )
    def test_edge_cases(self, source, valid):
        assert_parses_like_the_token_parser(source)
        assert (lang._parse_lines(source) is not None) == valid

    def test_a_later_lexical_error_outranks_an_earlier_syntax_error(self):
        # line 1 uses an undeclared qubit, but tokenize fails on line 3 first
        with pytest.raises(ParseError, match="unexpected character '@'") as err:
            lang.parse_source("H q\n\n@")
        assert (err.value.line, err.value.column) == (3, 1)

    def test_a_long_blank_run_before_a_bad_character_fails_in_linear_time(self):
        # with two blank runs side by side in _LINE_RE, a failed match of n
        # blanks backtracked n**2 / 2 times: ~2 s at 8,000 and ~1 min here;
        # one run keeps it near 10 ms
        start = time.perf_counter()
        with pytest.raises(ParseError, match="unexpected character '@'") as err:
            lang.parse_source("qubit q = |0>\n" + " \t" * 20_000 + "@")
        assert time.perf_counter() - start < 2.0
        assert (err.value.line, err.value.column) == (2, 40_001)
