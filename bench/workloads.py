"""Seeded workload generator for the fqz benchmark.

Everything here is a pure function of its arguments: the same workload
name and seed give byte-identical programs, per-job seeds and argument
lists on every machine. Nothing imports fqz or the repository's tests, so
edits there cannot shift the workloads.

Each workload draws its jobs from a fixed pool (a corpus generated from a
constant corpus seed). The pool's outputs were recorded once, as exit codes
and stdout digests, in pins/<workload>.txt; the run's --seed sets the order
in which pool entries run, and so which of them a run reaches. The pool is larger than a run consumes at today's
speed, so a run sees no program twice unless the program gets several
times faster.

Programs stay inside the envelope every valid .fqz program satisfies: at
most 12 qubits, names declared before use, distinct N[f] operands. The only
exception is edit-loop's deliberate one-character corruptions.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

KETS = ("|0>", "|1>", "|+>", "|->", "H|0>", "H|1>")
ORACLE_KINDS = ("const0", "const1", "id", "not")
SINGLE_GATES = ("I", "X", "Z", "H", "R")
ANGLES = {
    "pi": math.pi,
    "pi/2": math.pi / 2.0,
    "pi/4": math.pi / 4.0,
    "0.5": 0.5,
    "-0.75": -0.75,
    "1.25": 1.25,
    "0.123456": 0.123456,
}
MAX_QUBITS = 12
# Characters a one-character corruption may insert or substitute.
NOISE = "|>=()[]-_0123456789abfqxyzHIRNXZ .\t"

CORPUS_SEED = 20211116
POOL_SIZES = {"wide-final": 1024, "narrow-midmeasure": 1024, "edit-loop": 8192}
WIDE_SHOTS = 20
NARROW_SHOTS = 100

WHY = {
    "wide-final": (
        "12 qubits, ~100 gates, all measures at the end, 20 shots: dense apply_gate on "
        "4,096 amplitudes dominates; shows compile-once, prefix caching and gate kernels"
    ),
    "narrow-midmeasure": (
        "4 qubits, 40 statements, 3 mid-circuit measures, 100 shots: per-call overhead, "
        "gate rebuilds, RNG and measurement dominate; an outcome memo hits here"
    ),
    "edit-loop": (
        "check then run --shots 1 on fresh 1-12 qubit programs, 1 in 5 corrupted: parser, "
        "checker, validation and CLI dominate; shot-level caching is bypassed"
    ),
}
WORKLOADS = tuple(WHY)

# Op tuples, the benchmark's own program representation:
#   ("alloc", qubit, ket)  ("gate", name, qubit, angle_text or None)
#   ("oracle", oracle, control, register)  ("measure", qubit)


@dataclass(frozen=True)
class Program:
    oracles: tuple[tuple[str, str], ...]  # (name, kind)
    ops: tuple[tuple, ...]

    @property
    def n_measures(self) -> int:
        return sum(1 for op in self.ops if op[0] == "measure")

    def source(self) -> str:
        lines = [f"oracle {name} = {kind}" for name, kind in self.oracles]
        for op in self.ops:
            if op[0] == "alloc":
                lines.append(f"qubit {op[1]} = {op[2]}")
            elif op[0] == "gate":
                prefix = f"R({op[3]})" if op[1] == "R" else op[1]
                lines.append(f"{prefix} {op[2]}")
            elif op[0] == "oracle":
                lines.append(f"N[{op[1]}] {op[2]} {op[3]}")
            else:
                lines.append(f"measure {op[1]}")
        return "".join(line + "\n" for line in lines)


@dataclass(frozen=True)
class Job:
    """One closed-loop request: one or more CLI invocations on one file.

    `commands` are fqz argument lists with the literal "{path}" standing
    for the program file. `program` is None for a corrupted source, which
    has no trustworthy structure to check against.
    """

    source: str
    commands: tuple[tuple[str, ...], ...]
    shots: int
    program: Program | None
    deutsch: str | None = None  # oracle kind, for the four Deutsch sources


def _oracles(rng: random.Random, count: int) -> tuple[tuple[str, str], ...]:
    return tuple((f"f{i}", rng.choice(ORACLE_KINDS)) for i in range(count))


def _single(rng: random.Random, qubit: str) -> tuple:
    name = rng.choice(SINGLE_GATES)
    return ("gate", name, qubit, rng.choice(tuple(ANGLES)) if name == "R" else None)


def _entangler(rng: random.Random, oracles, qubits: list[str]) -> tuple:
    control, register = rng.sample(qubits, 2)
    return ("oracle", rng.choice(oracles)[0], control, register)


def wide_final_program(rng: random.Random) -> Program:
    """12 allocations, 96 gates (a third N[f]), then all 12 measures."""
    oracles = _oracles(rng, rng.randint(2, 4))
    qubits = [f"q{i}" for i in range(MAX_QUBITS)]
    ops = [("alloc", q, rng.choice(KETS)) for q in qubits]
    kinds = ["oracle"] * 32 + ["single"] * 64
    rng.shuffle(kinds)
    for kind in kinds:
        ops.append(_entangler(rng, oracles, qubits) if kind == "oracle" else _single(rng, rng.choice(qubits)))
    ops.extend(("measure", q) for q in rng.sample(qubits, len(qubits)))
    return Program(oracles, tuple(ops))


def narrow_midmeasure_program(rng: random.Random) -> Program:
    """4 allocations, 33 gates, and 3 measures, one inside each third of the body."""
    oracles = _oracles(rng, rng.randint(1, 2))
    qubits = [f"q{i}" for i in range(4)]
    ops = [("alloc", q, rng.choice(KETS)) for q in qubits]
    body = [
        _entangler(rng, oracles, qubits) if rng.random() < 0.3 else _single(rng, rng.choice(qubits))
        for _ in range(33)
    ]
    for third in (2, 1, 0):  # insert back to front so earlier offsets stay valid
        at = rng.randint(11 * third + 1, 11 * third + 11)
        body.insert(at, ("measure", rng.choice(qubits)))
    return Program(oracles, tuple(ops + body))


def edit_program(rng: random.Random) -> Program:
    """1-12 qubits and at most 60 statements, allocations interleaved with use."""
    n_qubits = rng.randint(1, MAX_QUBITS)
    n_statements = rng.randint(n_qubits + 1, 60)
    oracles = _oracles(rng, rng.randint(0, 2)) if n_qubits >= 2 else ()
    measures = rng.randint(0, 3)
    qubits: list[str] = []
    ops = []
    for i in range(n_statements):
        remaining = n_statements - i
        if not qubits or (len(qubits) < n_qubits and rng.random() < (n_qubits - len(qubits)) / remaining):
            qubits.append(f"q{len(qubits)}")
            ops.append(("alloc", qubits[-1], rng.choice(KETS)))
        elif measures and rng.random() < measures / remaining:
            measures -= 1
            ops.append(("measure", rng.choice(qubits)))
        elif oracles and len(qubits) >= 2 and rng.random() < 0.3:
            ops.append(_entangler(rng, oracles, qubits))
        else:
            ops.append(_single(rng, rng.choice(qubits)))
    return Program(oracles, tuple(ops))


def corrupt(source: str, rng: random.Random) -> str:
    """One-character insert, delete or substitute; never a no-op."""
    pos = rng.randrange(len(source))
    op = rng.randrange(3)
    if op == 0:
        return source[:pos] + rng.choice(NOISE) + source[pos:]
    if op == 1:
        return source[:pos] + source[pos + 1 :]
    replacement = rng.choice([c for c in NOISE if c != source[pos]])
    return source[:pos] + replacement + source[pos + 1 :]


def deutsch_program(kind: str) -> Program:
    return Program(
        (("f", kind),),
        (("alloc", "x", "H|0>"), ("alloc", "y", "H|1>"), ("oracle", "f", "x", "y"), ("gate", "H", "x", None), ("measure", "x")),
    )


def _run_command(shots: int, seed: int) -> tuple[str, ...]:
    return ("run", "{path}", "--shots", str(shots), "--seed", str(seed), "--format", "json")


_CHECK = ("check", "{path}", "--format", "json")


def generate(workload: str, seed: int, count: int) -> list[Job]:
    """`count` jobs of `workload`, a pure function of (workload, seed, count)."""
    if workload not in WHY:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"fqz-bench:{workload}:{seed}")
    jobs = []
    if workload == "edit-loop":
        # The four Deutsch sources lead every edit-loop corpus.
        for kind in ORACLE_KINDS:
            program = deutsch_program(kind)
            cmds = (_CHECK, _run_command(1, rng.getrandbits(63)))
            jobs.append(Job(program.source(), cmds, 1, program, deutsch=kind))
    while len(jobs) < count:
        job_seed = rng.getrandbits(63)
        if workload == "wide-final":
            program = wide_final_program(rng)
            jobs.append(Job(program.source(), (_run_command(WIDE_SHOTS, job_seed),), WIDE_SHOTS, program))
        elif workload == "narrow-midmeasure":
            program = narrow_midmeasure_program(rng)
            jobs.append(Job(program.source(), (_run_command(NARROW_SHOTS, job_seed),), NARROW_SHOTS, program))
        else:
            program = edit_program(rng)
            cmds = (_CHECK, _run_command(1, job_seed))
            if rng.random() < 0.2:
                jobs.append(Job(corrupt(program.source(), rng), cmds, 1, None))
            else:
                jobs.append(Job(program.source(), cmds, 1, program))
    return jobs[:count]


def pool(workload: str) -> list[Job]:
    """The workload's fixed corpus, whose outputs pins/<workload>.txt records."""
    return generate(workload, CORPUS_SEED, POOL_SIZES[workload])


def schedule(workload: str, seed: int) -> list[int]:
    """Pool indices in the order a run with this seed submits them.

    A seeded permutation of the whole pool; in edit-loop the four Deutsch
    sources (pool entries 0-3) are moved into the first 64 positions so
    every run checks them.
    """
    rng = random.Random(f"fqz-bench-order:{workload}:{seed}")
    size = POOL_SIZES[workload]
    if workload != "edit-loop":
        order = list(range(size))
        rng.shuffle(order)
        return order
    order = list(range(4, size))
    rng.shuffle(order)
    for idx in rng.sample(range(4), 4):
        order.insert(rng.randrange(64), idx)
    return order
