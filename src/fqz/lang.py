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
from typing import NamedTuple, Sequence

from . import circuit
from .circuit import KET_VECTORS, ORACLE_KEYWORDS, Alloc, Apply, ApplyOracle, Circuit, Instruction, Measure, OracleFn


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
SINGLE_QUBIT_GATES = ("I", "X", "Z", "H")
GATE_NAMES = {*SINGLE_QUBIT_GATES, "R", "N"}

_KET = "|".join(map(re.escape, KET_VECTORS))
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
_KET_ERROR = f"expected one of the ket literals {', '.join(KET_VECTORS)}"


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


AllocStmt, ApplyStmt, OracleApplyStmt, MeasureStmt = Alloc, Apply, ApplyOracle, Measure


class Program(NamedTuple):
    oracle_decls: tuple[OracleDecl, ...]
    statements: tuple[Instruction, ...]


class _Scope(NamedTuple):
    """A name token's scoping rule: whether the `names` declared before it
    must hold it already, and the error if they do not (or do)."""
    names: str
    declared: bool
    message: str


def _oracle_decl(head: Token, name: Token, _: Token, kind: Token) -> OracleDecl:
    if kind.kind is not TokenKind.KEYWORD or kind.lexeme not in ORACLE_KEYWORDS:
        raise ParseError("expected an oracle kind: const0, const1, id, or not", kind.line, kind.column, [TokenKind.KEYWORD])
    return OracleDecl(name.lexeme, ORACLE_KEYWORDS[kind.lexeme], head.line, head.column)


def _rotation(head: Token, _: Token, angle: Token, __: Token, target: Token) -> Apply:
    if not math.isfinite(value := float(_PI_FRACTIONS.get(angle.lexeme, angle.lexeme))):
        raise ParseError(f"number literal {angle.lexeme!r} overflows", angle.line, angle.column)
    return Apply("R", (target.lexeme,), value, head.line, head.column)


# The statement forms: after each head, the tokens it takes in order, each
# (kind, what is expected, scoping rule or None), and the function that
# builds the statement from the head and those tokens. A kind of None takes
# any token and leaves it to the builder.
_QUBIT = (TokenKind.IDENT, "a qubit name", _Scope("qubit", True, "undeclared qubit {!r}"))
_NEW_QUBIT = (TokenKind.IDENT, "a qubit name", _Scope("qubit", False, "qubit {!r} already declared"))
_ORACLE = (TokenKind.IDENT, "an oracle name", _Scope("oracle", True, "undeclared oracle {!r}"))
_NEW_ORACLE = (TokenKind.IDENT, "an oracle name", _Scope("oracle", False, "duplicate oracle declaration {!r}"))
_EQUALS = (TokenKind.EQUALS, "'='", None)
_FORMS = {
    "oracle": ((_NEW_ORACLE, _EQUALS, (None, None, None)), _oracle_decl),
    "qubit": ((_NEW_QUBIT, _EQUALS, (TokenKind.KET, "a ket literal", None)),
              lambda head, name, _, ket: Alloc(name.lexeme, ket.lexeme, head.line, head.column)),
    "measure": ((_QUBIT,), lambda head, q: Measure(q.lexeme, head.line, head.column)),
    **dict.fromkeys(SINGLE_QUBIT_GATES, ((_QUBIT,), lambda head, q: Apply(head.lexeme, (q.lexeme,), None, head.line, head.column))),
    "R": (((TokenKind.LPAREN, "'('", None), (TokenKind.NUMBER, "an angle", None), (TokenKind.RPAREN, "')'", None), _QUBIT),
          _rotation),
    "N": (((TokenKind.LBRACKET, "'['", None), _ORACLE, (TokenKind.RBRACKET, "']'", None), _QUBIT, _QUBIT),
          lambda head, _, f, __, control, register: ApplyOracle(f.lexeme, control.lexeme, register.lexeme, head.line, head.column)),
}
_TRIVIA = (TokenKind.NEWLINE, TokenKind.COMMENT)


def _describe(tok: Token) -> str:
    if tok.kind is TokenKind.EOF:
        return "end of input"
    if tok.kind is TokenKind.NEWLINE:
        return "end of line"
    return f"{tok.kind.value} {tok.lexeme!r}"


# The pi fractions a NUMBER may be written as, and format_angle prints.
_PI_FRACTIONS = {"pi": math.pi, "pi/2": math.pi / 2.0, "pi/4": math.pi / 4.0}


def parse(tokens: list[Token]) -> Program:
    """The program `tokens` spell, or a ParseError at the first token that
    breaks a statement form, a scoping rule or the end of its line."""
    decls, stmts, names, pos = [], [], {"oracle": set(), "qubit": set()}, 0
    while True:
        while tokens[pos].kind in _TRIVIA:
            pos += 1
        head = tokens[pos]
        if head.kind is TokenKind.EOF:
            return Program(tuple(decls), tuple(stmts))
        form = _FORMS.get(head.lexeme) if head.kind in (TokenKind.KEYWORD, TokenKind.GATE) else None
        if form is None:
            expected = [TokenKind.KEYWORD, TokenKind.GATE]
            raise ParseError(f"expected a statement, found {_describe(head)}", head.line, head.column, expected)
        specs, build = form
        words = tokens[pos + 1 : pos + 1 + len(specs)]
        for tok, (kind, what, scope) in zip(words, specs):  # a mismatch raises before the slice can run out
            if kind is not None and tok.kind is not kind:
                raise ParseError(f"expected {what}, found {_describe(tok)}", tok.line, tok.column, expected=[kind])
            if scope is not None:
                if (tok.lexeme in names[scope.names]) is not scope.declared:
                    raise ParseError(scope.message.format(tok.lexeme), tok.line, tok.column)
                names[scope.names].add(tok.lexeme)
        (decls if head.lexeme == "oracle" else stmts).append(build(head, *words))
        pos += 1 + len(specs)
        if tokens[pos].kind not in (*_TRIVIA, TokenKind.EOF):
            tok, expected = tokens[pos], [TokenKind.NEWLINE, TokenKind.EOF]
            raise ParseError(f"expected end of line, found {_describe(tok)}", tok.line, tok.column, expected)


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


def _statement_text(stmt: Instruction) -> str:
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
    if not all(isinstance(field, Sequence) for field in program):  # built by hand
        raise CompileError(f"malformed program {program!r}: its fields must be sequences")
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
