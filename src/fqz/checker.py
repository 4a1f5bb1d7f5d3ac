"""Rule-based structural checks with stable rule ids.

Checking is total: a bad subject produces FAIL entries in the report,
never an exception. The ids are part of the output contract:

    OBS-1   observable is a square complex matrix
    OBS-2   observable equals its conjugate transpose
    OBS-3   observable has a real spectrum (real diagonal; for 2x2
            subjects both closed-form eigenvalues are real)
    GATE-U    gate matrix is unitary both ways round (a matrix that is
              not a 2-D array of finite numbers fails here, and GATE-M
              is skipped)
    GATE-M    gate matrix agrees with its basis-mapping definition
    GATE-INJ  distinct mapping inputs go to distinct states
    PROG-SCOPE  program compiles: circuit.validate_circuit accepts its
                names, kets, gates, angles and register size
    PROG-NORM   simulating the program preserves unit norm after every
                instruction

For matrices larger than 2x2 the eigenvalue clause of OBS-3 has no
closed form here, so OBS-2 passing is recorded as implying it (Hermitian
matrices have real spectra) and the detail text says so.

GATE-M reuses GATE-U's unitarity verdict when the induced matrix equals the
gate's by value and both are in C order (every built-in but H): equal values
in the same products give equal values up to zero signs, which abs erases.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import lang
from .circuit import Alloc, iter_steps
from .gates import Gate, MappingError, colliding_inputs, induced_matrix, not_unitary_error
from .gates import mapping_to_matrix  # noqa: F401 (unused; bench/spans.py times calls through this name)
from .linalg import DEFAULT_TOL, as_matrix, check_tol, eigenvalues_2x2, is_unitary_square

DEFAULT_SEED = 42


class CheckResult(NamedTuple):
    rule: str
    description: str
    passed: bool
    detail: str = ""

    @property
    def status(self) -> str:
        return "PASS" if self.passed else "FAIL"


class CheckReport(NamedTuple):
    subject: str
    checks: tuple[CheckResult, ...]

    @property
    def overall(self) -> bool:
        return all(c.passed for c in self.checks)


def _skip_rest(subject: str, failed: CheckResult, rules, why: str) -> CheckReport:
    """A report whose first rule failed, so each (rule, description) after it was skipped."""
    return CheckReport(subject, (failed, *(CheckResult(rule, text, False, f"skipped: {why}") for rule, text in rules)))


# Huge finite entries overflow to inf or NaN inside the rules, which then
# fail as they should; numpy's RuntimeWarning about it is noise.
_quiet = np.errstate(over="ignore", invalid="ignore")


@_quiet
def check_observable(m, tol: float = DEFAULT_TOL, subject: str = "observable") -> CheckReport:
    check_tol(tol)
    try:
        mat = as_matrix(m)
        n_rows, n_cols = mat.shape
        failure, skipped = (None, None) if n_rows == n_cols else (f"shape is {n_rows}x{n_cols}", "not square")
    except ValueError as exc:
        failure, skipped = str(exc), "not a matrix"
    if failure is not None:
        failed = CheckResult("OBS-1", "square complex matrix", False, failure)
        return _skip_rest(subject, failed, (("OBS-2", "equals conjugate transpose"), ("OBS-3", "real spectrum")), skipped)
    checks = [CheckResult("OBS-1", "square complex matrix", True, f"shape is {n_rows}x{n_cols}")]

    max_dev = float(np.abs(mat - mat.conj().T).max())
    hermitian = max_dev <= tol
    checks.append(
        CheckResult("OBS-2", "equals conjugate transpose", hermitian, f"max deviation {max_dev:.3e}")
    )

    diag_imag = float(np.abs(mat.diagonal().imag).max())
    diag_real = diag_imag <= tol
    if n_rows == 2:
        lam1, lam2 = eigenvalues_2x2(mat)
        eig_imag = max(abs(lam1.imag), abs(lam2.imag))
        passed = diag_real and eig_imag <= tol
        detail = f"eigenvalues {lam1:.6g} and {lam2:.6g}; max |Im| on diagonal {diag_imag:.3e}"
    else:
        passed = diag_real and hermitian
        detail = (
            f"max |Im| on diagonal {diag_imag:.3e}; eigenvalue clause "
            "follows from OBS-2 for matrices larger than 2x2 (Hermitian implies real spectrum)"
        )
    checks.append(CheckResult("OBS-3", "real spectrum", passed, detail))
    return CheckReport(subject, tuple(checks))


@_quiet
def check_gate(g: Gate, tol: float = DEFAULT_TOL) -> CheckReport:
    check_tol(tol)
    try:
        matrix = as_matrix(g.matrix)
    except ValueError as exc:
        matrix = None
        unitary, detail = False, str(exc)
    else:
        unitary, detail = matrix.shape[0] == matrix.shape[1] and is_unitary_square(matrix, tol), f"arity {g.arity}"
    checks = [CheckResult("GATE-U", f"matrix of {g.name} is unitary", unitary, detail)]

    collision = None if g.mapping is None else colliding_inputs(g.mapping, tol)
    if matrix is None:
        consistent, detail = False, "skipped: not a matrix"
    elif g.mapping is None:
        consistent, detail = True, "no mapping given"
    else:
        try:
            induced = induced_matrix(g.mapping, tol)  # finite, square, complex128 and C-ordered
            same = matrix.flags.c_contiguous and np.array_equal(induced, matrix)
            if not (unitary if same else is_unitary_square(induced, tol)):
                raise not_unitary_error(collision)
            consistent = same or induced.shape == matrix.shape and float(np.abs(induced - matrix).max()) <= tol
            detail = "induced matrix agrees" if consistent else "induced matrix differs"
        except MappingError as exc:
            consistent = False
            detail = str(exc)
    checks.append(CheckResult("GATE-M", f"{g.name} matrix matches its mapping", consistent, detail))

    if g.mapping is None:
        detail = "no mapping given"
    elif collision is None:
        detail = "all mapping outputs distinct"
    else:
        detail = f"inputs |{collision[0]}> and |{collision[1]}> map to the same state"
    checks.append(CheckResult("GATE-INJ", f"mapping of {g.name} is injective", collision is None, detail))
    return CheckReport(g.name, tuple(checks))


def check_program(program: lang.Program, tol: float = DEFAULT_TOL, subject: str = "program") -> CheckReport:
    check_tol(tol)
    try:
        circuit, oracles = lang.compile_program(program)
    except lang.CompileError as exc:
        detail = f"{exc.line}:{exc.column}: {exc.message}" if exc.line else str(exc)  # located as `run` reports it
        failed = CheckResult("PROG-SCOPE", "names declared before use", False, detail)
        return _skip_rest(subject, failed, (("PROG-NORM", "unit norm after every instruction"),), "scoping failed")
    qubits = sum(isinstance(ins, Alloc) for ins in circuit.instructions)
    scope_detail = f"{qubits} qubit(s), {len(oracles)} oracle(s), {len(circuit)} statement(s)"
    checks = [CheckResult("PROG-SCOPE", "names declared before use", True, scope_detail)]

    try:
        worst = 0.0
        for step in iter_steps(circuit, oracles, DEFAULT_SEED):
            x = step.state  # np.linalg.norm's sum for a 1-D complex array, without its dispatch
            worst = max(worst, abs(math.sqrt(x.real.dot(x.real) + x.imag.dot(x.imag)) - 1.0))
        passed = worst <= tol
        detail = f"max |norm - 1| = {worst:.3e} over {len(circuit)} instruction(s)"
    except Exception as exc:  # totality: execution failures become FAIL entries
        passed = False
        detail = f"execution failed: {exc}"
    checks.append(CheckResult("PROG-NORM", "unit norm after every instruction", passed, detail))
    return CheckReport(subject, tuple(checks))
