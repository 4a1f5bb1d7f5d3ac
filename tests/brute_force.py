"""Brute-force references, shared by the test suites.

expanded_unitary builds the whole-register matrix of a gate the long way
round, so that state.apply_gate can be checked against it column by
column. It costs O(4**n) memory, which is why it is not library code.

rank_search_mapping_to_matrix is gates.mapping_to_matrix as it was before
it took the first 2**arity pairs directly: it picks the spanning inputs by
a greedy matrix_rank search (one SVD per candidate) and builds every ket
vector afresh wherever it needs one. The library must agree with it byte
for byte on the matrix and word for word on every MappingError.

inverting_mapping_to_matrix and inverting_check_gate are
gates.mapping_to_matrix and checker.check_gate as they were before the
first built the inverse of basis-ket inputs as their transpose: the
matrix always comes from inv() of the defining inputs and every residual
is computed, and GATE-M compares through approx_equal, which re-coerces
both matrices and re-checks the tolerance. The library must agree with
them byte for byte on the matrix, word for word on every MappingError,
and on every rule of a report, for every valid tolerance.

reference_measure_qubit is state.measure_qubit as it was before it wrote
its post-state with np.zeros, math.sqrt and one reshape of the state, and
tested the empty branch with np.count_nonzero: np.zeros_like, np.sqrt,
.any() and a branch view built per use. The library must agree with it
on the bit, the bits of the probability and the bytes of the post-state.
Its p(1) is reference_branch_probability, measure_qubit's sum as it was
before it squared np.abs's output in place, so the reference does not
follow a change to the library's sum; measure_qubit's probability must
carry the bits of that p(1) (of 1 - p(1) on bit 0) for every target, and
so must circuit._branch_probabilities, which sums a trie node's branch-1
squares, placed by basis offset and a prefix of the measurement-order
columns, in a zero-padded full-size row.

reference_amplitudes_json is cli._amplitudes_json as it was before it
spelled each distinct part once: one str.format call writes all 2 * 2**n
parts, the common-path test reads every part, and the rare path reads the
rounded doubles back from that text for json.dumps. The library must
agree with it byte for byte on every state.

conjugate_transpose and is_hermitian are the adjoint and the Hermitian
test the checker's OBS-2 rule computes inline; approx_equal is the
entrywise comparison GATE-M computes inline; builtin_gates is one shared
instance of every fixed built-in gate (R excluded: it needs an angle).

RecursiveDescentParser is lang.parse as it was before it read each
statement off a table of forms: one method per statement kind, each
expecting its tokens in turn. lang.parse must agree with it on every
field of every declaration and statement, positions included, and on
each ParseError's message, line, column and expected kinds.
"""
from __future__ import annotations

import itertools
import json
import math
import re
import sys
from typing import Sequence

import numpy as np

from fqz.checker import CheckReport, CheckResult
from fqz.circuit import ORACLE_KEYWORDS, Alloc, Apply, ApplyOracle, Instruction, Measure
from fqz.gates import BasisMapping, Gate, KetExpr, MappingError, colliding_inputs, gate, ket_vector
from fqz.lang import _PI_FRACTIONS, SINGLE_QUBIT_GATES, OracleDecl, ParseError, Program, Token, TokenKind, _describe
from fqz.linalg import DEFAULT_TOL, as_matrix, check_tol, is_unitary
from fqz.rng import SplitMix64
from fqz.state import MeasurementResult


def builtin_gates() -> tuple[Gate, ...]:
    return tuple(gate(name) for name in ("I", "X", "Z", "H", "CNOT"))


def conjugate_transpose(m) -> np.ndarray:
    """Adjoint of m: transpose with every entry conjugated."""
    return as_matrix(m).conj().T


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    """True iff m is square and equals its adjoint within tol."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        return False
    check_tol(tol)
    return float(np.abs(m - m.conj().T).max()) <= tol


def approx_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """True iff a and b share a shape and agree entrywise within tol."""
    check_tol(tol)
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        return False
    return float(np.abs(a - b).max()) <= tol


def expanded_unitary(g: Gate, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Whole-register matrix for g acting on targets (qubit 0 is the most
    significant bit of a basis index).

    Kron the gate with identities to act on the leading qubits, then
    conjugate by the permutation matrix that moves the targets to the
    front.
    """
    n = int(n_qubits)
    targets = tuple(int(t) for t in targets)
    assert len(targets) == g.arity and len(set(targets)) == g.arity, (g.name, targets)
    assert all(0 <= t < n for t in targets), (targets, n)
    order = targets + tuple(q for q in range(n) if q not in targets)
    dim = 2**n
    big = np.kron(np.asarray(g.matrix, dtype=np.complex128), np.eye(2 ** (n - g.arity), dtype=np.complex128))
    perm = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim):
        j = 0
        for pos, q in enumerate(order):
            bit = (i >> (n - 1 - q)) & 1
            j |= bit << (n - 1 - pos)
        perm[j, i] = 1.0
    return perm.T @ big @ perm


def reference_branch_probability(psi: np.ndarray, target: int) -> float:
    """measure_qubit's p(1) on a valid state and target (see the module docstring)."""
    return float(np.add.reduce(np.square(np.abs(psi.reshape(2**target, 2, -1)[:, 1, :])).reshape(-1)))


def reference_measure_qubit(state, target: int, seed: int) -> MeasurementResult:
    """measure_qubit's result on a valid state and target (see the module docstring)."""
    psi = np.asarray(state, dtype=np.complex128)
    p_one = reference_branch_probability(psi, target)
    bit = 1 if SplitMix64(seed).next_float() < p_one else 0
    if bit == 0 and p_one > 0 and not psi.reshape(2**target, 2, -1)[:, 0, :].any():
        bit = 1  # a drifted state can leave the sampled branch empty
    prob = p_one if bit == 1 else 1.0 - p_one
    post = np.zeros_like(psi)  # only branch `bit` is written, divided by sqrt(prob)
    np.divide(psi.reshape(2**target, 2, -1)[:, bit, :], np.sqrt(prob), out=post.reshape(2**target, 2, -1)[:, bit, :])
    return MeasurementResult(bit, post, prob)


def reference_amplitudes_json(state) -> str:
    """run --format json's amplitude rows (see the module docstring)."""
    parts = state.view(float)
    text = ("[" + ", ".join(["[{:.12}, {:.12}]"] * state.size) + "]").format(*parts.tolist())
    mags = abs(parts)
    if mags.max() <= 1.5 and not ((mags > 0) & (mags < sys.float_info.min)).any():
        return text
    return json.dumps([[float(real), float(imag)] for real, imag in re.findall(r"\[([^,\[]+), ([^\]]+)\]", text)])


def rank_search_mapping_to_matrix(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unique matrix U with U|input> = output for every pair, solved from
    the first spanning subset of inputs that a greedy rank search finds."""
    dim = 2**mapping.arity
    if not mapping.pairs:
        raise MappingError("empty mapping")
    v_in = np.column_stack([ket_vector(label, mapping.arity) for label, _ in mapping.pairs])
    v_out = np.column_stack([expr.vector(mapping.arity) for _, expr in mapping.pairs])
    chosen: list[int] = []
    for idx in range(len(mapping.pairs)):
        if np.linalg.matrix_rank(v_in[:, chosen + [idx]]) == len(chosen) + 1:
            chosen.append(idx)
        if len(chosen) == dim:
            break
    if len(chosen) < dim:
        raise MappingError(f"mapping is not total: its {len(mapping.pairs)} input kets do not span dimension {dim}")
    u = v_out[:, chosen] @ np.linalg.inv(v_in[:, chosen])
    for idx, (label, expr) in enumerate(mapping.pairs):
        residual = float(np.abs(u @ v_in[:, idx] - v_out[:, idx]).max())
        if residual > tol:
            raise MappingError(f"pair |{label}> -> {_expr_text(expr)} is inconsistent with the other pairs")
    eye = np.eye(dim, dtype=np.complex128)
    uh = u.conj().T
    if float(np.abs(u @ uh - eye).max()) > tol or float(np.abs(uh @ u - eye).max()) > tol:
        collision = rank_search_colliding_inputs(mapping, tol)
        if collision is not None:
            a, b = collision
            raise MappingError(f"inputs |{a}> and |{b}> map to the same state, so the mapping is not injective")
        raise MappingError("mapping does not induce a unitary matrix")
    return u


def inverting_mapping_to_matrix(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> np.ndarray:
    """mapping_to_matrix solving U from inv() of the first 2**arity
    inputs and checking every pair's residual."""
    dim = 2**mapping.arity
    if not mapping.pairs:
        raise MappingError("empty mapping")
    if len(mapping.pairs) < dim:
        raise MappingError(f"mapping is not total: its {len(mapping.pairs)} input kets do not span dimension {dim}")
    v_in = np.array([ket_vector(label, mapping.arity) for label, _ in mapping.pairs]).T
    v_out = np.array([expr.vector(mapping.arity) for _, expr in mapping.pairs]).T
    u = v_out[:, :dim] @ np.linalg.inv(v_in[:, :dim])
    residuals = np.abs(u @ v_in - v_out).max(axis=0)
    for (label, expr), residual in zip(mapping.pairs, residuals):
        if residual > tol:
            raise MappingError(f"pair |{label}> -> {_expr_text(expr)} is inconsistent with the other pairs")
    if not is_unitary(u, tol):
        collision = colliding_inputs(mapping, tol)
        if collision is not None:
            a, b = collision
            raise MappingError(f"inputs |{a}> and |{b}> map to the same state, so the mapping is not injective")
        raise MappingError("mapping does not induce a unitary matrix")
    return u


@np.errstate(over="ignore", invalid="ignore")
def inverting_check_gate(g: Gate, tol: float = DEFAULT_TOL) -> CheckReport:
    """check_gate over inverting_mapping_to_matrix and approx_equal."""
    try:
        matrix = as_matrix(g.matrix)
    except ValueError as exc:
        matrix = None
        unitary, detail = False, str(exc)
    else:
        unitary, detail = is_unitary(matrix, tol), f"arity {g.arity}"
    checks = [CheckResult("GATE-U", f"matrix of {g.name} is unitary", unitary, detail)]

    if matrix is None:
        consistent, detail = False, "skipped: not a matrix"
    elif g.mapping is None:
        consistent, detail = True, "no mapping given"
    else:
        try:
            induced = inverting_mapping_to_matrix(g.mapping, tol)
            consistent = approx_equal(induced, matrix, tol)
            detail = "induced matrix agrees" if consistent else "induced matrix differs"
        except MappingError as exc:
            consistent = False
            detail = str(exc)
    checks.append(CheckResult("GATE-M", f"{g.name} matrix matches its mapping", consistent, detail))

    collision = None if g.mapping is None else colliding_inputs(g.mapping, tol)
    if g.mapping is None:
        detail = "no mapping given"
    elif collision is None:
        detail = "all mapping outputs distinct"
    else:
        detail = f"inputs |{collision[0]}> and |{collision[1]}> map to the same state"
    checks.append(CheckResult("GATE-INJ", f"mapping of {g.name} is injective", collision is None, detail))
    return CheckReport(g.name, tuple(checks))


def rank_search_colliding_inputs(mapping: BasisMapping, tol: float = DEFAULT_TOL) -> tuple[str, str] | None:
    """The first pair of inputs, in pair order, sent to the same state."""
    outputs = [(label, expr.vector(mapping.arity)) for label, expr in mapping.pairs]
    for (a, out_a), (b, out_b) in itertools.combinations(outputs, 2):
        if float(np.abs(out_a - out_b).max()) <= tol:
            return a, b
    return None


def _expr_text(expr: KetExpr) -> str:
    return " + ".join(f"({amp:g})|{label}>" for amp, label in expr.terms)


class RecursiveDescentParser:
    """lang.parse as a recursive-descent parser (see the module docstring)."""

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
        stmts: list[Instruction] = []
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

    def apply(self) -> Instruction:
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
