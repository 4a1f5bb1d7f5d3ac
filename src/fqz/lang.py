"""The .fqz surface language.

Line-oriented; one statement per line, `--` starts a comment that runs to
the end of the line. Files are UTF-8, LF or CRLF line endings accepted,
canonical output is LF.

    program     := line*
    line        := (oracle_decl | alloc | apply | measure)? COMMENT?
    oracle_decl := "oracle" IDENT "=" ("const0" | "const1" | "id" | "not")
    alloc       := "qubit" IDENT "=" KET
    apply       := ("I" | "X" | "Z" | "H") IDENT
                 | "R" "(" NUMBER ")" IDENT
                 | "N" "[" IDENT "]" IDENT IDENT
    measure     := "measure" IDENT

KET is one of the six literals |0>, |1>, |+>, |->, H|0>, H|1>, lexed as
a single token. NUMBER is a decimal radian literal (optional sign and
exponent) or one of the fraction forms pi, pi/2, pi/4. N[f] applies the
oracle named f to a control qubit and a register qubit, in that order.

A qubit or oracle is declared once, before use. parse_source reads a valid
source one regex match per line; tokenize and parse run only on a source it
rejects, and locate its first fault in a ParseError (1-based line, column).

The statements are circuit.Alloc, Apply, ApplyOracle and Measure
instructions, each carrying the line and column it was parsed from, so
compile_program copies nothing: circuit.validate_circuit, the one
structural authority, judges and resolves the parsed statements as they
are; its errors come back as CompileErrors at the offending statement.
"""
from __future__ import annotations

import math
import re
from enum import Enum
from typing import NamedTuple

from . import circuit
from .circuit import ORACLE_KEYWORDS, Alloc, Apply, ApplyOracle, Circuit, Measure, OracleFn


class TokenKind(Enum):
    KEYWORD = "KEYWORD"
    IDENT = "IDENT"
    KET = "KET"
    GATE = "GATE"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    LBRACKET = "LBRACKET"
    RBRACKET = "RBRACKET"
    EQUALS = "EQUALS"
    NUMBER = "NUMBER"
    NEWLINE = "NEWLINE"
    COMMENT = "COMMENT"
    EOF = "EOF"


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    line: int
    column: int


class ParseError(ValueError):
    """Syntax or scoping failure; always located."""

    def __init__(self, message: str, line: int, column: int, expected: list[TokenKind] | None = None):
        location = f"line {line}, column {column}"
        super().__init__(f"{location}: {message}")
        self.message = message
        self.line = line
        self.column = column
        self.expected = list(expected or [])


class CompileError(ValueError):
    """A parsed program that is not a valid circuit, located at the offending
    statement or oracle declaration (line and column are 0 for one built by
    hand without a position)."""

    def __init__(self, message: str, line: int = 0, column: int = 0, index: int | None = None):
        super().__init__(message if index is None else f"statement {index}: {message}")
        self.message = message
        self.line = line
        self.column = column


KEYWORDS = {"qubit", "oracle", "measure", *ORACLE_KEYWORDS}
GATE_NAMES = {"I", "X", "Z", "H", "R", "N"}
SINGLE_QUBIT_GATES = ("I", "X", "Z", "H")

_KET = r"H\|[01]>|\|[01+-]>"
_NUMBER = r"pi(?![A-Za-z0-9_])(?:/[24])?|-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"
_WORD = r"[A-Za-z_][A-Za-z0-9_]*"

# One match per token: leading blanks, then exactly one named group. The
# lowercase groups are the lexical errors (a "|" or "H|" that starts no
# ket literal, a CR without its LF, any other character); a WORD is a
# keyword, gate name or identifier. Only a rejected source is tokenized,
# so re compiles this at the first tokenize and caches it.
_TOKEN_PATTERN = (
    r"[ \t]*(?:"
    r"(?P<NEWLINE>\r?\n)|(?P<COMMENT>--[^\r\n]*)"
    rf"|(?P<KET>{_KET})|(?P<bad_ket>H?\|)|(?P<NUMBER>{_NUMBER})|(?P<WORD>{_WORD})"
    r"|(?P<LPAREN>\()|(?P<RPAREN>\))|(?P<LBRACKET>\[)|(?P<RBRACKET>\])|(?P<EQUALS>=)|(?P<EOF>\Z)"
    r"|(?P<stray_cr>\r)|(?P<unexpected>[\s\S]))"
)
# One match per line of a valid program: blanks, at most one statement and
# its trailing blanks (no two blank runs side by side, so a failed match is
# linear), a comment, the line's end. m.lastgroup is the statement's kind.
_LINE_RE = re.compile(
    rf"[ \t]*(?:(?:(?P<oracle>oracle[ \t]+(?P<decl>{_WORD})[ \t]*=[ \t]*(?P<fn>{'|'.join(ORACLE_KEYWORDS)}))"
    rf"|(?P<qubit>qubit[ \t]+(?P<alloc>{_WORD})[ \t]*=[ \t]*(?P<ket>{_KET}))"
    rf"|(?P<apply>(?P<gate>[{''.join(SINGLE_QUBIT_GATES)}])[ \t]+(?P<target>{_WORD}))"
    rf"|(?P<rotate>R[ \t]*\([ \t]*(?P<angle>{_NUMBER})[ \t]*\)[ \t]*(?P<rotated>{_WORD}))"
    rf"|(?P<query>N[ \t]*\[[ \t]*(?P<queried>{_WORD})[ \t]*\][ \t]*(?P<control>{_WORD})[ \t]+(?P<register>{_WORD}))"
    rf"|(?P<measure>measure[ \t]+(?P<measured>{_WORD})))[ \t]*)?(?:--[^\r\n]*)?(?:\r?\n|\Z)"
)
_WORD_KINDS = {**dict.fromkeys(KEYWORDS, TokenKind.KEYWORD), **dict.fromkeys(GATE_NAMES, TokenKind.GATE)}
_NOT_NAMES = {*_WORD_KINDS, "pi"}  # the words that lex as no IDENT
_PLAIN_KINDS = {kind.name: kind for kind in TokenKind if kind.name not in ("NEWLINE", "EOF")}
_KET_ERROR = "expected one of the ket literals |0>, |1>, |+>, |->, H|0>, H|1>"


def tokenize(source: str) -> list[Token]:
    """Tokens of `source`, ending in EOF; a ParseError locates the first
    character that starts no token. A CRLF lexes as the NEWLINE "\\n"."""
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: index of the line's first character
    for m in re.finditer(_TOKEN_PATTERN, source):
        group = m.lastgroup
        lexeme = m[group]
        column = m.start(group) - line_start + 1
        if group == "WORD":
            tokens.append(Token(_WORD_KINDS.get(lexeme, TokenKind.IDENT), lexeme, line, column))
        elif group == "NEWLINE":
            tokens.append(Token(TokenKind.NEWLINE, "\n", line, column))
            line, line_start = line + 1, m.end()
        elif group in _PLAIN_KINDS:
            tokens.append(Token(_PLAIN_KINDS[group], lexeme, line, column))
        elif group == "EOF":
            # after trailing blanks finditer would match the empty end again
            tokens.append(Token(TokenKind.EOF, "", line, column))
            return tokens
        elif group == "stray_cr":
            raise ParseError("stray carriage return", line, column)
        elif group == "bad_ket":
            raise ParseError(_KET_ERROR, line, column, expected=[TokenKind.KET])
        else:
            raise ParseError(f"unexpected character {lexeme!r}", line, column)


# ---------------------------------------------------------------------------
# Syntax tree. Locations never participate in equality: two parses of the
# same program compare equal even when whitespace moved the tokens around.


class OracleDecl(NamedTuple):
    name: str
    fn: OracleFn
    line: int = 0
    column: int = 0
    __eq__, __ne__, __hash__ = circuit._compared(-2)


Stmt = circuit.Instruction
AllocStmt, ApplyStmt, OracleApplyStmt, MeasureStmt = Alloc, Apply, ApplyOracle, Measure


class Program(NamedTuple):
    oracle_decls: tuple[OracleDecl, ...]
    statements: tuple[Stmt, ...]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.qubits: set[str] = set()
        self.oracles: set[str] = set()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:  # never called at EOF: each caller has peeked another kind
        self.pos += 1
        return self.tokens[self.pos - 1]

    def skip_trivia(self) -> None:
        while self.peek().kind in (TokenKind.NEWLINE, TokenKind.COMMENT):
            self.advance()

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {what}, found {_describe(tok)}", tok.line, tok.column, expected=[kind]
            )
        return self.advance()

    def end_of_statement(self) -> None:
        tok = self.peek()  # a comment runs to the end of its line; program() skips all three
        if tok.kind not in (TokenKind.COMMENT, TokenKind.NEWLINE, TokenKind.EOF):
            raise ParseError(
                f"expected end of line, found {_describe(tok)}",
                tok.line,
                tok.column,
                expected=[TokenKind.NEWLINE, TokenKind.EOF],
            )

    def known_qubit(self, tok: Token) -> str:
        if tok.lexeme not in self.qubits:
            raise ParseError(f"undeclared qubit {tok.lexeme!r}", tok.line, tok.column)
        return tok.lexeme

    def program(self) -> Program:
        decls: list[OracleDecl] = []
        stmts: list[Stmt] = []
        self.skip_trivia()
        while self.peek().kind is not TokenKind.EOF:
            tok = self.peek()
            if tok.kind is TokenKind.KEYWORD and tok.lexeme == "oracle":
                decls.append(self.oracle_decl())
            elif tok.kind is TokenKind.KEYWORD and tok.lexeme == "qubit":
                stmts.append(self.alloc())
            elif tok.kind is TokenKind.KEYWORD and tok.lexeme == "measure":
                stmts.append(self.measure())
            elif tok.kind is TokenKind.GATE:
                stmts.append(self.apply())
            else:
                raise ParseError(
                    f"expected a statement, found {_describe(tok)}",
                    tok.line,
                    tok.column,
                    expected=[TokenKind.KEYWORD, TokenKind.GATE],
                )
            self.end_of_statement()
            self.skip_trivia()
        return Program(tuple(decls), tuple(stmts))

    def oracle_decl(self) -> OracleDecl:
        start = self.advance()  # "oracle"
        name = self.expect(TokenKind.IDENT, "an oracle name")
        if name.lexeme in self.oracles:
            raise ParseError(f"duplicate oracle declaration {name.lexeme!r}", name.line, name.column)
        self.expect(TokenKind.EQUALS, "'='")
        kind = self.peek()
        if kind.kind is not TokenKind.KEYWORD or kind.lexeme not in ORACLE_KEYWORDS:
            raise ParseError(
                "expected an oracle kind: const0, const1, id, or not",
                kind.line,
                kind.column,
                expected=[TokenKind.KEYWORD],
            )
        self.advance()
        self.oracles.add(name.lexeme)
        return OracleDecl(name.lexeme, ORACLE_KEYWORDS[kind.lexeme], start.line, start.column)

    def alloc(self) -> Alloc:
        start = self.advance()  # "qubit"
        name = self.expect(TokenKind.IDENT, "a qubit name")
        if name.lexeme in self.qubits:
            raise ParseError(f"qubit {name.lexeme!r} already declared", name.line, name.column)
        self.expect(TokenKind.EQUALS, "'='")
        ket = self.expect(TokenKind.KET, "a ket literal")
        self.qubits.add(name.lexeme)
        return Alloc(name.lexeme, ket.lexeme, start.line, start.column)

    def apply(self) -> Stmt:
        gate_tok = self.advance()
        if gate_tok.lexeme in SINGLE_QUBIT_GATES:
            target = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
            return Apply(gate_tok.lexeme, (target,), None, gate_tok.line, gate_tok.column)
        if gate_tok.lexeme == "R":
            self.expect(TokenKind.LPAREN, "'('")
            num = self.expect(TokenKind.NUMBER, "an angle")
            self.expect(TokenKind.RPAREN, "')'")
            target = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
            value = float(_PI_FRACTIONS.get(num.lexeme, num.lexeme))
            if not math.isfinite(value):
                raise ParseError(f"number literal {num.lexeme!r} overflows", num.line, num.column)
            return Apply("R", (target,), value, gate_tok.line, gate_tok.column)
        # N[f] control register
        self.expect(TokenKind.LBRACKET, "'['")
        oracle = self.expect(TokenKind.IDENT, "an oracle name")
        if oracle.lexeme not in self.oracles:
            raise ParseError(f"undeclared oracle {oracle.lexeme!r}", oracle.line, oracle.column)
        self.expect(TokenKind.RBRACKET, "']'")
        control = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
        register = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
        return ApplyOracle(oracle.lexeme, control, register, gate_tok.line, gate_tok.column)

    def measure(self) -> Measure:
        start = self.advance()  # "measure"
        name = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
        return Measure(name, start.line, start.column)


def _describe(tok: Token) -> str:
    if tok.kind is TokenKind.EOF:
        return "end of input"
    if tok.kind is TokenKind.NEWLINE:
        return "end of line"
    return f"{tok.kind.value} {tok.lexeme!r}"


# The pi fractions a NUMBER may be written as, and format_angle prints.
_PI_FRACTIONS = {"pi": math.pi, "pi/2": math.pi / 2.0, "pi/4": math.pi / 4.0}


def parse(tokens: list[Token]) -> Program:
    return _Parser(tokens).program()


def _parse_lines(source: str) -> Program | None:
    """parse(tokenize(source)) read one _LINE_RE match per line, or None at a line it rejects."""
    decls, qubits, stmts = {}, set(), []
    line = pos = 0
    while pos < len(source) and (m := _LINE_RE.match(source, pos)):
        line, kind, pos = line + 1, m.lastgroup, m.end()
        at = (line, m.start(kind or 0) - m.start() + 1)
        if kind == "oracle" and m["decl"] not in _NOT_NAMES and m["decl"] not in decls:
            decls[m["decl"]] = OracleDecl(m["decl"], ORACLE_KEYWORDS[m["fn"]], *at)
        elif kind == "qubit" and m["alloc"] not in _NOT_NAMES and m["alloc"] not in qubits:
            qubits.add(m["alloc"])
            stmts.append(Alloc(m["alloc"], m["ket"], *at))
        elif kind == "apply" and m["target"] in qubits:
            stmts.append(Apply(m["gate"], (m["target"],), None, *at))
        elif kind == "rotate" and m["rotated"] in qubits:
            if not math.isfinite(value := float(_PI_FRACTIONS.get(m["angle"], m["angle"]))):
                return None
            stmts.append(Apply("R", (m["rotated"],), value, *at))
        elif kind == "query" and m["queried"] in decls and m["control"] in qubits and m["register"] in qubits:
            stmts.append(ApplyOracle(m["queried"], m["control"], m["register"], *at))
        elif kind == "measure" and m["measured"] in qubits:
            stmts.append(Measure(m["measured"], *at))
        elif kind is not None:  # a statement that breaks a scoping rule
            return None
    return Program(tuple(decls.values()), tuple(stmts)) if pos == len(source) else None


def parse_source(source: str) -> Program:
    return _parse_lines(source) or parse(tokenize(source))


# ---------------------------------------------------------------------------
# Canonical form.


def format_angle(value: float) -> str:
    """pi fractions when exact to 1e-12, else the shortest faithful decimal
    (9 significant digits unless that would change the value)."""
    for text, target in _PI_FRACTIONS.items():
        if abs(value - target) <= 1e-12:
            return text
    text = f"{value:.9g}"
    if float(text) != value:
        text = repr(value)
    return text


def _statement_text(stmt: Stmt) -> str:
    if isinstance(stmt, Alloc):
        return f"qubit {stmt.name} = {stmt.ket}"
    if isinstance(stmt, Apply):
        if stmt.gate == "R":
            return f"R({format_angle(stmt.parameter)}) {stmt.targets[0]}"
        return f"{stmt.gate} {stmt.targets[0]}"
    if isinstance(stmt, ApplyOracle):
        return f"N[{stmt.oracle}] {stmt.control} {stmt.register}"
    if isinstance(stmt, Measure):
        return f"measure {stmt.name}"
    raise TypeError(f"not a statement: {stmt!r}")


def pretty_print(program: Program) -> str:
    """Canonical source: oracle declarations first, one statement per line,
    single spaces, LF line endings, no comments."""
    lines = [f"oracle {decl.name} = {decl.fn.value}" for decl in program.oracle_decls]
    lines.extend(_statement_text(stmt) for stmt in program.statements)
    return "".join(line + "\n" for line in lines)


# ---------------------------------------------------------------------------
# Lowering to a circuit.


def compile_program(program: Program) -> tuple[Circuit, dict[str, OracleFn]]:
    """(circuit, oracle table): the statements are the circuit's
    instructions, and circuit.validate_circuit decides whether they are
    valid. The circuit comes back resolved, so it runs under that table
    without a second walk."""
    oracles: dict[str, OracleFn] = {}
    for decl in program.oracle_decls:
        if not isinstance(decl, OracleDecl) or type(decl.name) is not str:  # built by hand
            raise CompileError(f"malformed oracle declaration {decl!r}", getattr(decl, "line", 0), getattr(decl, "column", 0))
        # the oracle table is a dict, which cannot hold the duplicate for
        # validate_circuit to see
        if decl.name in oracles:
            raise CompileError(f"duplicate oracle declaration {decl.name!r}", decl.line, decl.column)
        oracles[decl.name] = decl.fn
    try:
        return circuit.validate_circuit(Circuit(program.statements), oracles), oracles
    except circuit.CircuitError as exc:
        # a hand-built program may hold a non-instruction, with no position
        bad = program.statements[exc.index]
        raise CompileError(exc.message, getattr(bad, "line", 0), getattr(bad, "column", 0), exc.index) from None
