"""Command line front end.

    fqz check <file.fqz> [--format text|json]
    fqz run <file.fqz> [--shots N] [--seed S] [--format text|json]
    fqz deutsch --oracle const0|const1|id|not [--seed S] [--format text|json]

Exit codes: 0 success, 1 failed check or verdict, 2 usage/IO/parse error.
Output for a given (input, shots, seed) is byte-identical across runs.
main may be called any number of times in one process: it builds its
argparse parser at the first call and reuses it.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import lang
from .circuit import ORACLE_KEYWORDS, Apply, deutsch, oracle_gate, run_shots
from .gates import gate as gate_by_name, gate_key

DEUTSCH_TOL = 1e-9


def _integer(base: int, fits, message: str):
    """An argparse type: int(text, base), refused with `message` unless it fits."""

    def value(text: str) -> int:
        try:
            number = int(text, base)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if not fits(number):
            raise argparse.ArgumentTypeError(message)
        return number

    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fqz", description="Check, run, and probe .fqz quantum programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse a program and run the rule checks")
    p_run = sub.add_parser("run", help="simulate a program")
    p_deutsch = sub.add_parser("deutsch", help="run the Deutsch algorithm on a built-in oracle")
    # each subcommand's options in this order: path, --shots/--oracle, --seed, --format
    for p in (p_check, p_run):
        p.add_argument("path", help="program file (.fqz)")
    p_run.add_argument("--shots", type=_integer(10, lambda n: n >= 1, "shot count must be >= 1"), default=1)
    p_deutsch.add_argument("--oracle", choices=tuple(ORACLE_KEYWORDS), required=True)
    seed = _integer(0, lambda n: 0 <= n < 2**64, "seed must fit in an unsigned 64-bit integer")
    for p in (p_run, p_deutsch):
        p.add_argument("--seed", type=seed, default=42)
    for p in (p_check, p_run, p_deutsch):
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _amplitudes_json(state) -> str:
    """JSON text of [[re, im], ...]: each part rounded to 12 significant
    digits and spelled as json.dumps spells the rounded double (its repr).
    Each distinct part (by bits: 0.0 and -0.0 differ) is spelled once and
    the rows index into those words. "{:.12}" writes repr's digits and
    notation, "-0.0" included, for zero and normal doubles far below 1e11,
    so its words stand when every part is zero or normal with |x| <= 1.5 (a
    unit state's are); else one json.dumps spells the rounded distinct parts."""
    bits, inverse = np.unique(state.view(np.uint64), return_inverse=True)
    distinct = bits.view(float)
    spelled = list(map("{:.12}".format, distinct.tolist()))
    mags = abs(distinct)
    if not (mags.max() <= 1.5 and not ((mags > 0) & (mags < sys.float_info.min)).any()):  # NaN lands here
        spelled = json.dumps(list(map(float, spelled)))[1:-1].split(", ")  # a number holds no ", "
    words = [None, ", ", None, "], ["] * state.size  # re, ", ", im, "], [" per amplitude
    words[0::2] = np.array(spelled, dtype=object)[inverse].tolist()
    words[0], words[-1] = "[[" + words[0], "]]"
    return "".join(words)


def _gates_used(program: lang.Program):
    """Each distinct built-in gate (by gate_key), in first use order, then the oracles."""
    # a key keeps its first position; any statement under it names the same shared Gate
    used = {gate_key(stmt.gate, stmt.parameter): stmt for stmt in program.statements if isinstance(stmt, Apply)}
    builtins = [gate_by_name(stmt.gate, stmt.parameter) for stmt in used.values()]
    return [*builtins, *(oracle_gate(decl.name, decl.fn) for decl in program.oracle_decls)]


def cmd_check(path: str, fmt: str) -> int:
    from . import checker  # imported here, so that only `check` pays for it

    program = lang.parse_source(Path(path).read_text(encoding="utf-8"))
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
    program = lang.parse_source(Path(path).read_text(encoding="utf-8"))
    circuit, oracles = lang.compile_program(program)
    report = run_shots(circuit, oracles, seed, shots)
    if fmt == "json":
        outcomes, amplitudes = json.dumps(report.shots, sort_keys=True), _amplitudes_json(report.amplitudes)
        print('{"outcomes": %s, "amplitudes": %s, "seed": %d, "shots": %d}' % (outcomes, amplitudes, seed, shots))
    else:
        for outcome, count in sorted(report.shots.items()):
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


_parser = functools.cache(build_parser)  # built at the first main(), then reused


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
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
