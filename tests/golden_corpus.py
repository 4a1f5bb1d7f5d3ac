"""Golden CLI corpus: byte-exact stdout and exit codes of fqz commands.

    PYTHONPATH=src python tests/golden_corpus.py

re-records tests/golden/cli.jsonl from the current code. Each line holds
one program (its source, or null for `fqz deutsch`) and the commands run
on it, with the exit code and stdout each produced. test_golden.py replays
every command and requires the same bytes. Re-recording is a deliberate
change of the output contract and belongs in its own commit, with the
reason in CHANGES.md.

The programs come from fuzz_programs.random_program at fixed seeds, but the
corpus stores their sources, so later edits to the generator do not move
the pins. Stdout longer than INLINE_LIMIT bytes (the amplitudes of wide
registers) is pinned by its SHA-256 digest to keep the corpus small.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

from fuzz_programs import mutate, random_program
from fqz import cli

CORPUS = Path(__file__).resolve().parent / "golden" / "cli.jsonl"
PROGRAM = "program.fqz"  # relative, so check's JSON subject is the same on every machine
INLINE_LIMIT = 8192
RUN_SEEDS = (7, 2**63 + 11)


def run_command(argv: list[str], source: str | None, workdir: Path) -> tuple[int, str]:
    """Exit code and stdout of `fqz <argv>` run in workdir, with the
    program written to PROGRAM there first."""
    if source is not None:
        (workdir / PROGRAM).write_text(source, encoding="utf-8", newline="")
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.chdir(cwd)
    return code, out.getvalue()


def pin(stdout: str) -> dict:
    data = stdout.encode("utf-8")
    if len(data) <= INLINE_LIMIT:
        return {"stdout": stdout}
    return {"stdout_sha256": hashlib.sha256(data).hexdigest(), "stdout_bytes": len(data)}


def _program_commands() -> list[list[str]]:
    commands = [["check", PROGRAM], ["check", PROGRAM, "--format", "json"]]
    for shots in ("1", "100"):
        for seed in RUN_SEEDS:
            commands.append(["run", PROGRAM, "--shots", shots, "--seed", str(seed), "--format", "json"])
    return commands


def _sized(rng: random.Random, qubits: int, max_statements: int) -> str:
    """The first random program that allocates exactly `qubits` qubits."""
    while True:
        source = random_program(rng, max_qubits=qubits, max_statements=max_statements)
        if sum(1 for line in source.splitlines() if line.lstrip().startswith("qubit")) == qubits:
            return source


def programs() -> list[tuple[str, str | None, list[list[str]]]]:
    """(name, source, commands) for every corpus entry."""
    rng = random.Random(20261017)
    entries = []
    for i in range(44):
        entries.append((f"random-{i:02d}", _sized(rng, 1 + i % 8, 24), _program_commands()))
    for i in range(3):
        entries.append((f"wide-{i}", _sized(rng, 12, 48), _program_commands()))
    # measurements moved to the end, so run reports all 4,096 amplitudes
    lines = _sized(rng, 12, 48).splitlines()
    final = [line for line in lines if "measure" not in line] + [line for line in lines if "measure" in line]
    entries.append(("wide-final", "\n".join(final) + "\n", _program_commands()))
    for i in range(8):
        source = mutate(random_program(rng, max_qubits=4), rng)
        entries.append((f"mutated-{i}", source, _program_commands()))
    entries.append(("oracle-on-one-qubit", "oracle f = id\nqubit x = |0>\nN[f] x x\n", _program_commands()))
    for oracle in ("const0", "const1", "id", "not"):
        commands = [["deutsch", "--oracle", oracle], ["deutsch", "--oracle", oracle, "--format", "json"]]
        entries.append((f"deutsch-{oracle}", None, commands))
    return entries


def record(workdir: Path) -> list[dict]:
    lines = []
    for name, source, commands in programs():
        cases = []
        for argv in commands:
            code, stdout = run_command(argv, source, workdir)
            cases.append({"argv": argv, "exit": code, **pin(stdout)})
        lines.append({"name": name, "source": source, "cases": cases})
    return lines


def load() -> list[dict]:
    with CORPUS.open(encoding="utf-8") as f:
        return [json.loads(line) for line in f]


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        lines = record(Path(tmp))
    CORPUS.parent.mkdir(exist_ok=True)
    with CORPUS.open("w", encoding="utf-8", newline="\n") as f:
        for line in lines:
            f.write(json.dumps(line, sort_keys=True) + "\n")
    print(f"{sum(len(line['cases']) for line in lines)} commands over {len(lines)} programs -> {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
