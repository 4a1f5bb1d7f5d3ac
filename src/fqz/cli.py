"""Command line front end.

    fqz check <file.fqz> [--format text|json]
    fqz run <file.fqz> [--shots N] [--seed S] [--format text|json]
    fqz deutsch --oracle const0|const1|id|not [--seed S] [--format text|json]

Exit codes: 0 success, 1 failed check or verdict, 2 usage/IO/parse error.
Output for a given (input, shots, seed) is byte-identical across runs.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import checker, lang
from .circuit import ORACLE_KEYWORDS, deutsch, oracle_gate, run_shots
from .gates import gate as gate_by_name

DEUTSCH_TOL = 1e-9


def _seed_value(text: str) -> int:
    try:
        value = int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _shots_value(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("shot count must be >= 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fqz", description="Check, run, and probe .fqz quantum programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse a program and run the rule checks")
    p_check.add_argument("path", help="program file (.fqz)")
    p_check.add_argument("--format", choices=("text", "json"), default="text")

    p_run = sub.add_parser("run", help="simulate a program")
    p_run.add_argument("path", help="program file (.fqz)")
    p_run.add_argument("--shots", type=_shots_value, default=1)
    p_run.add_argument("--seed", type=_seed_value, default=42)
    p_run.add_argument("--format", choices=("text", "json"), default="text")

    p_deutsch = sub.add_parser("deutsch", help="run the Deutsch algorithm on a built-in oracle")
    p_deutsch.add_argument("--oracle", choices=tuple(ORACLE_KEYWORDS), required=True)
    p_deutsch.add_argument("--seed", type=_seed_value, default=42)
    p_deutsch.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def _read_program(path: str) -> lang.Program:
    text = Path(path).read_text(encoding="utf-8")
    return lang.parse_source(text)


def _sig12(x: float) -> float:
    """Round to 12 significant digits for serialization."""
    return float(f"{x:.12g}")


def _amplitude_rows(state) -> list[list[float]]:
    return [[_sig12(a.real), _sig12(a.imag)] for a in state]


def _gates_used(program: lang.Program):
    seen = set()
    out = []
    for stmt in program.statements:
        if isinstance(stmt, lang.ApplyStmt):
            key = (stmt.gate, stmt.parameter)
            if key not in seen:
                seen.add(key)
                out.append(gate_by_name(stmt.gate, stmt.parameter))
    for decl in program.oracle_decls:
        out.append(oracle_gate(decl.name, decl.fn))
    return out


def cmd_check(path: str, fmt: str) -> int:
    program = _read_program(path)
    checks = list(checker.check_program(program, subject=path).checks)
    for g in _gates_used(program):
        checks.extend(checker.check_gate(g).checks)
    report = checker.CheckReport(path, tuple(checks))
    if fmt == "json":
        payload = {
            "subject": report.subject,
            "checks": [
                {"rule": c.rule, "description": c.description, "status": c.status, "detail": c.detail}
                for c in report.checks
            ],
            "overall": "PASS" if report.overall else "FAIL",
        }
        print(json.dumps(payload))
    else:
        for c in report.checks:
            detail = f" ({c.detail})" if c.detail else ""
            print(f"{c.status} {c.rule} {c.description}{detail}")
        print(f"overall: {'PASS' if report.overall else 'FAIL'}")
    return 0 if report.overall else 1


def cmd_run(path: str, shots: int, seed: int, fmt: str) -> int:
    program = _read_program(path)
    circuit, oracles = lang.compile_program(program)
    report = run_shots(circuit, oracles, seed, shots)
    counts = {k: report.shots[k] for k in sorted(report.shots)}
    if fmt == "json":
        payload = {
            "outcomes": counts,
            "amplitudes": _amplitude_rows(report.amplitudes),
            "seed": seed,
            "shots": shots,
        }
        print(json.dumps(payload))
    else:
        for outcome, count in counts.items():
            print(f"{outcome}: {count}")
    return 0


def cmd_deutsch(oracle: str, seed: int, fmt: str) -> int:
    result = deutsch(ORACLE_KEYWORDS[oracle], seed)
    verdict, bit = result.verdict.value, result.measured_bit
    if fmt == "json":
        print(json.dumps({"verdict": verdict, "bit": bit}))
    else:
        print(f"{verdict} (bit {bit})")
    # The algorithm is deterministic; a non-certain outcome means the
    # simulation itself is broken, which counts as a failed verdict.
    return 0 if abs(result.probability - 1.0) <= DEUTSCH_TOL else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "check":
            return cmd_check(args.path, args.format)
        if args.command == "run":
            return cmd_run(args.path, args.shots, args.seed, args.format)
        return cmd_deutsch(args.oracle, args.seed, args.format)
    except (lang.ParseError, lang.CompileError) as exc:
        print(f"{args.path}:{exc.line}:{exc.column}: {exc.message}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
