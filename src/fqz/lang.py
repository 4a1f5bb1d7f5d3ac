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

Scoping is enforced while parsing: qubits and oracles must be declared
before use and may not be declared twice. Parsing is fail-fast; every
ParseError carries the 1-based line and column of the first violation.

compile_program only lowers: circuit.validate_circuit, the one structural
authority, judges the result, and its errors come back as CompileErrors
located at the offending statement.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Union

from . import circuit
from .circuit import (
    ORACLE_KEYWORDS,
    Alloc,
    Apply,
    ApplyOracle,
    Circuit,
    Measure,
    OracleFn,
)


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


@dataclass(frozen=True)
class Token:
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
    statement or oracle declaration (line and column are 0 for programs
    built by hand, which carry no positions)."""

    def __init__(self, message: str, line: int = 0, column: int = 0, index: int | None = None):
        super().__init__(message if index is None else f"statement {index}: {message}")
        self.message = message
        self.line = line
        self.column = column


KEYWORDS = {"qubit", "oracle", "measure", "const0", "const1", "id", "not"}
GATE_NAMES = {"I", "X", "Z", "H", "R", "N"}
SINGLE_QUBIT_GATES = ("I", "X", "Z", "H")

_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUMBER_RE = re.compile(r"-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")
_PUNCT = {
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    "[": TokenKind.LBRACKET,
    "]": TokenKind.RBRACKET,
    "=": TokenKind.EQUALS,
}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
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
            tokens.append(_lex_ket(source, i, line, col))
            i += 3
            col += 3
            continue
        if c in _PUNCT:
            tokens.append(Token(_PUNCT[c], c, line, col))
            i += 1
            col += 1
            continue
        if c.isdigit() or c == "." or (c == "-" and i + 1 < n and (source[i + 1].isdigit() or source[i + 1] == ".")):
            m = _NUMBER_RE.match(source, i)
            if m is None:
                raise ParseError(f"unexpected character {c!r}", line, col)
            tokens.append(Token(TokenKind.NUMBER, m.group(0), line, col))
            i = m.end()
            col += len(m.group(0))
            continue
        if c.isalpha() or c == "_":
            m = _WORD_RE.match(source, i)
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
                tok = _lex_ket(source, m.end(), line, col, prefix="H")
                tokens.append(tok)
                i += len(tok.lexeme)
                col += len(tok.lexeme)
                continue
            if word in KEYWORDS:
                kind = TokenKind.KEYWORD
            elif word in GATE_NAMES:
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


def _lex_ket(source: str, bar: int, line: int, col: int, prefix: str = "") -> Token:
    # bar indexes the '|'; col is the column of the whole lexeme's start.
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


# ---------------------------------------------------------------------------
# Syntax tree. Locations never participate in equality: two parses of the
# same program compare equal even when whitespace moved the tokens around.


@dataclass(frozen=True)
class OracleDecl:
    name: str
    fn: OracleFn
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class AllocStmt:
    name: str
    ket: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class ApplyStmt:
    gate: str
    targets: tuple[str, ...]
    parameter: float | None = None
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class OracleApplyStmt:
    oracle: str
    control: str
    register: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MeasureStmt:
    name: str
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


Stmt = Union[AllocStmt, ApplyStmt, OracleApplyStmt, MeasureStmt]


@dataclass(frozen=True)
class Program:
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

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

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
        while self.peek().kind is TokenKind.COMMENT:
            self.advance()
        tok = self.peek()
        if tok.kind is TokenKind.EOF:
            return
        if tok.kind is TokenKind.NEWLINE:
            self.advance()
            return
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

    def alloc(self) -> AllocStmt:
        start = self.advance()  # "qubit"
        name = self.expect(TokenKind.IDENT, "a qubit name")
        if name.lexeme in self.qubits:
            raise ParseError(f"qubit {name.lexeme!r} already declared", name.line, name.column)
        self.expect(TokenKind.EQUALS, "'='")
        ket = self.expect(TokenKind.KET, "a ket literal")
        self.qubits.add(name.lexeme)
        return AllocStmt(name.lexeme, ket.lexeme, start.line, start.column)

    def apply(self) -> Stmt:
        gate_tok = self.advance()
        name = gate_tok.lexeme
        if name in SINGLE_QUBIT_GATES:
            target = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
            return ApplyStmt(name, (target,), None, gate_tok.line, gate_tok.column)
        if name == "R":
            self.expect(TokenKind.LPAREN, "'('")
            num = self.expect(TokenKind.NUMBER, "an angle")
            self.expect(TokenKind.RPAREN, "')'")
            target = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
            return ApplyStmt("R", (target,), _number_value(num), gate_tok.line, gate_tok.column)
        # N[f] control register
        self.expect(TokenKind.LBRACKET, "'['")
        oracle = self.expect(TokenKind.IDENT, "an oracle name")
        if oracle.lexeme not in self.oracles:
            raise ParseError(f"undeclared oracle {oracle.lexeme!r}", oracle.line, oracle.column)
        self.expect(TokenKind.RBRACKET, "']'")
        control = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
        register = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
        return OracleApplyStmt(oracle.lexeme, control, register, gate_tok.line, gate_tok.column)

    def measure(self) -> MeasureStmt:
        start = self.advance()  # "measure"
        name = self.known_qubit(self.expect(TokenKind.IDENT, "a qubit name"))
        return MeasureStmt(name, start.line, start.column)


def _describe(tok: Token) -> str:
    if tok.kind is TokenKind.EOF:
        return "end of input"
    if tok.kind is TokenKind.NEWLINE:
        return "end of line"
    return f"{tok.kind.value} {tok.lexeme!r}"


def _number_value(tok: Token) -> float:
    if tok.lexeme == "pi":
        return math.pi
    if tok.lexeme == "pi/2":
        return math.pi / 2.0
    if tok.lexeme == "pi/4":
        return math.pi / 4.0
    value = float(tok.lexeme)
    if not math.isfinite(value):
        raise ParseError(f"number literal {tok.lexeme!r} overflows", tok.line, tok.column)
    return value


def parse(tokens: list[Token]) -> Program:
    return _Parser(tokens).program()


def parse_source(source: str) -> Program:
    return parse(tokenize(source))


# ---------------------------------------------------------------------------
# Canonical form.


def format_angle(value: float) -> str:
    """pi fractions when exact to 1e-12, else the shortest faithful decimal
    (9 significant digits unless that would change the value)."""
    for text, target in (("pi", math.pi), ("pi/2", math.pi / 2.0), ("pi/4", math.pi / 4.0)):
        if abs(value - target) <= 1e-12:
            return text
    text = f"{value:.9g}"
    if float(text) != value:
        text = repr(value)
    return text


def _statement_text(stmt: Stmt) -> str:
    if isinstance(stmt, AllocStmt):
        return f"qubit {stmt.name} = {stmt.ket}"
    if isinstance(stmt, ApplyStmt):
        if stmt.gate == "R":
            return f"R({format_angle(stmt.parameter)}) {stmt.targets[0]}"
        return f"{stmt.gate} {stmt.targets[0]}"
    if isinstance(stmt, OracleApplyStmt):
        return f"N[{stmt.oracle}] {stmt.control} {stmt.register}"
    if isinstance(stmt, MeasureStmt):
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
    """Lower to (circuit, oracle table). Statement i becomes instruction i,
    and circuit.validate_circuit decides whether the result is valid."""
    oracles: dict[str, OracleFn] = {}
    for decl in program.oracle_decls:
        # the oracle table is a dict, which cannot hold the duplicate for
        # validate_circuit to see
        if decl.name in oracles:
            raise CompileError(f"duplicate oracle declaration {decl.name!r}", decl.line, decl.column)
        oracles[decl.name] = decl.fn
    instructions = []
    for i, stmt in enumerate(program.statements):
        if isinstance(stmt, AllocStmt):
            instructions.append(Alloc(stmt.name, stmt.ket))
        elif isinstance(stmt, ApplyStmt):
            instructions.append(Apply(stmt.gate, stmt.targets, stmt.parameter))
        elif isinstance(stmt, OracleApplyStmt):
            instructions.append(ApplyOracle(stmt.oracle, stmt.control, stmt.register))
        elif isinstance(stmt, MeasureStmt):
            instructions.append(Measure(stmt.name))
        else:
            raise CompileError(f"not a statement: {stmt!r}", index=i)
    lowered = Circuit(tuple(instructions))
    try:
        circuit.validate_circuit(lowered, oracles)
    except circuit.CircuitError as exc:
        stmt = program.statements[exc.index]
        raise CompileError(exc.message, stmt.line, stmt.column, exc.index) from None
    return lowered, oracles


def deutsch_source(oracle_keyword: str = "const0") -> str:
    """The Deutsch algorithm transliterated into the surface language."""
    if oracle_keyword not in ORACLE_KEYWORDS:
        raise ValueError(f"unknown oracle keyword {oracle_keyword!r}")
    return (
        f"oracle f = {oracle_keyword}\n"
        "qubit x = H|0>\n"
        "qubit y = H|1>\n"
        "N[f] x y\n"
        "H x\n"
        "measure x\n"
    )
