"""Random .fqz program generator and mutator shared by the test suites,
and the source of the Deutsch algorithm.

Generation is seeded and self-contained so test runs are reproducible.
Generated programs are valid by construction: every qubit and oracle is
declared before use, nothing is declared twice, and registers stay at or
under four qubits.
"""
from __future__ import annotations

import random

KETS = ["|0>", "|1>", "|+>", "|->", "H|0>", "H|1>"]
ANGLES = ["pi", "pi/2", "pi/4", "0.5", "1.25", "-0.75", "2", "0.123456", "3.75e-2"]
ORACLE_KINDS = ["const0", "const1", "id", "not"]
GATE_NAMES = ["I", "X", "Z", "H"]


def random_program(rng: random.Random, max_qubits: int = 4, max_statements: int = 20, terminal: bool = False) -> str:
    """A valid program of at most max_statements statements. With `terminal`,
    each measure drawn is held back and written after every other statement,
    in the order drawn; the draws do not change, so neither do the statements."""
    lines: list[str] = []
    held: list[str] = []
    oracles: list[str] = []
    for i in range(rng.randint(0, 2)):
        name = f"f{i}"
        lines.append(f"oracle {name} = {rng.choice(ORACLE_KINDS)}")
        oracles.append(name)

    qubits: list[str] = []
    n_statements = rng.randint(1, max_statements)
    for _ in range(n_statements):
        moves = []
        if len(qubits) < max_qubits:
            moves.append("alloc")
        if qubits:
            moves.extend(["gate", "gate", "rot", "measure"])
        if len(qubits) >= 2 and oracles:
            moves.append("oracle")
        move = rng.choice(moves)
        if move == "alloc":
            name = f"q{len(qubits)}"
            qubits.append(name)
            lines.append(f"qubit {name} = {rng.choice(KETS)}")
        elif move == "gate":
            lines.append(f"{rng.choice(GATE_NAMES)} {rng.choice(qubits)}")
        elif move == "rot":
            lines.append(f"R({rng.choice(ANGLES)}) {rng.choice(qubits)}")
        elif move == "measure":
            (held if terminal else lines).append(f"measure {rng.choice(qubits)}")
        else:
            control, register = rng.sample(qubits, 2)
            lines.append(f"N[{rng.choice(oracles)}] {control} {register}")
    lines.extend(held)

    # sprinkle trivia the canonical form will strip
    out: list[str] = []
    for line in lines:
        if rng.random() < 0.15:
            out.append("-- " + "".join(rng.choices("abcdefgh ", k=rng.randint(0, 8))))
        if rng.random() < 0.1:
            line = line.replace(" = ", "  =  ") if "=" in line else "  " + line
        if rng.random() < 0.1:
            line += "   -- trailing note"
        out.append(line)
    newline = "\r\n" if rng.random() < 0.1 else "\n"
    return newline.join(out) + (newline if rng.random() < 0.8 else "")


_NOISE = "|>=()[]{}#$%&!?*@^~;:,.'\"\\ -0123456789abqxyzNRHIZX_"


def mutate(source: str, rng: random.Random) -> str:
    """One random corruption; the result may or may not still be valid."""
    if not source:
        return rng.choice(_NOISE)
    op = rng.randrange(4)
    pos = rng.randrange(len(source))
    if op == 0:  # insert
        return source[:pos] + rng.choice(_NOISE) + source[pos:]
    if op == 1:  # delete
        return source[:pos] + source[pos + 1 :]
    if op == 2:  # replace
        return source[:pos] + rng.choice(_NOISE) + source[pos + 1 :]
    # duplicate a whole line (often a scoping violation)
    lines = source.splitlines()
    idx = rng.randrange(len(lines))
    lines.insert(idx, lines[rng.randrange(len(lines))])
    return "\n".join(lines) + "\n"


def deutsch_source(oracle_keyword: str = "const0") -> str:
    """The Deutsch algorithm (circuit.deutsch_circuit) in canonical source
    form, querying an oracle f of the given kind."""
    return f"oracle f = {oracle_keyword}\nqubit x = H|0>\nqubit y = H|1>\nN[f] x y\nH x\nmeasure x\n"
