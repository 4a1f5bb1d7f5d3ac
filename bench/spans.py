"""Spans for the traced run, recorded from outside the package.

`installed(tracer)` replaces fqz functions by timing wrappers at every
module attribute a caller looks the name up through (a `from x import f`
makes a second binding, so both are wrapped), and puts every original back
on exit. Nothing under src/fqz knows about tracing, and the untraced run
never enters `installed`.

A span is (name, start, end, parent, job). Spans stay in memory until the
run ends. A span's self time is its duration minus the part of it that its
child spans cover, so the self times of one job's spans add up to the
duration of its root span.
"""
from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter, defaultdict
from time import perf_counter

ROOT = "cli.main"

# Span name -> the per-layer self-time metric it is charged to.
SELF_METRIC = {
    ROOT: "cli.self_s",
    "lang.parse": "lang.parse_s",
    "lang.compile": "lang.compile_s",
    "checker.program": "checker.program_s",
    "checker.gate": "checker.gate_s",
    "gates.mapping_to_matrix": "gates.mapping_to_matrix_s",
    "gates.build": "gates.build_s",
    "circuit.run_shots": "circuit.self_s",
    "circuit.run_circuit": "circuit.self_s",
    "circuit.iter_steps": "circuit.self_s",
    "circuit.validate": "circuit.validate_s",
    "state.measure": "state.measure_s",
    "rng.next_u64": "rng.s",
    "rng.shot_seed": "rng.s",
}
GATE_KINDS = ("I", "X", "Z", "H", "R", "N")
for _kind in GATE_KINDS:
    SELF_METRIC[f"state.apply_gate.{_kind}"] = "state.apply_gate_s"

# Counters kept beside the spans; the values reported are per job.
COUNTERS = (
    "state.apply_gate_calls",
    "state.bytes_computed",
    "gates.build_calls",
    "circuit.sims",
    "circuit.steps",
    "state.measure_calls",
    "rng.draws",
    "rng.shot_seeds",
    "lang.parse_calls",
    "lang.statements",
    "checker.gate_calls",
    "checker.rules_failed",
    "gates.mapping_to_matrix_calls",
    "circuit.validate_calls",
    "cli.output_bytes",
)


class Tracer:
    """In-memory span table plus counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.jobs: list[int] = []
        self.counts: Counter = Counter()
        self.distinct_builds = 0
        self._stack: list[int] = []
        self._job = -1
        self._built: set = set()

    def begin_job(self, job: int) -> None:
        self._job = job
        self._built = set()

    def end_job(self) -> None:
        self.distinct_builds += len(self._built)

    def note_build(self, key: tuple) -> None:
        self.counts["gates.build_calls"] += 1
        self._built.add(key)

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.jobs.append(self._job)
        self.ends.append(math.nan)
        self._stack.append(i)
        self.starts.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = perf_counter()
        self._stack.pop()

    def write(self, path) -> None:
        """Tab-separated spans: id, parent, job, name, start, end."""
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tparent\tjob\tname\tstart\tend\n")
            for i, name in enumerate(self.names):
                out.write(f"{i}\t{self.parents[i]}\t{self.jobs[i]}\t{name}\t{self.starts[i]!r}\t{self.ends[i]!r}\n")


def _timed(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(args, result)
        return result

    return wrapper


def _timed_steps(tracer: Tracer, fn):
    """Wrap the iter_steps generator: one span per resumption."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts["circuit.sims"] += 1
        steps = fn(*args, **kwargs)
        while True:
            span = tracer.open("circuit.iter_steps")
            try:
                step = next(steps)
            except StopIteration:
                return
            finally:
                tracer.close(span)
            tracer.counts["circuit.steps"] += 1
            yield step

    return wrapper


def _apply_gate(tracer: Tracer, fn):
    names = {k: f"state.apply_gate.{k}" for k in GATE_KINDS}

    @functools.wraps(fn)
    def wrapper(state, g, targets):
        kind = g.name if g.name in names else "N"  # N[f] oracles (and CNOT)
        tracer.counts["state.apply_gate_calls"] += 1
        tracer.counts["state.bytes_computed"] += 2 * 16 * len(state)  # read + write, computed
        span = tracer.open(names[kind])
        try:
            return fn(state, g, targets)
        finally:
            tracer.close(span)

    return wrapper


def _counter(tracer: Tracer, key: str):
    def after(args, result):
        tracer.counts[key] += 1

    return after


def _build(tracer: Tracer, tag: str):
    def after(args, result):
        tracer.note_build((tag, *args))

    return after


def _parsed(tracer: Tracer):
    def after(args, result):
        tracer.counts["lang.parse_calls"] += 1
        tracer.counts["lang.statements"] += len(result.statements)

    return after


def _checked(tracer: Tracer, key: str | None):
    def after(args, result):
        if key:
            tracer.counts[key] += 1
        tracer.counts["checker.rules_failed"] += sum(1 for c in result.checks if not c.passed)

    return after


def wrap_plan(tracer: Tracer):
    """(owner, attribute, wrapper factory) for every binding to replace."""
    import fqz.checker
    import fqz.circuit
    import fqz.cli
    import fqz.gates
    import fqz.lang
    import fqz.rng
    import fqz.state

    def timed(name, after=None):
        return lambda fn: _timed(tracer, name, fn, after)

    def steps(fn):
        return _timed_steps(tracer, fn)

    return [
        (fqz.lang, "parse_source", timed("lang.parse", _parsed(tracer))),
        (fqz.lang, "compile_program", timed("lang.compile")),
        (fqz.checker, "check_program", timed("checker.program", _checked(tracer, None))),
        (fqz.checker, "check_gate", timed("checker.gate", _checked(tracer, "checker.gate_calls"))),
        (fqz.checker, "mapping_to_matrix", timed("gates.mapping_to_matrix", _counter(tracer, "gates.mapping_to_matrix_calls"))),
        (fqz.checker, "iter_steps", steps),
        (fqz.cli, "run_shots", timed("circuit.run_shots")),
        (fqz.cli, "gate_by_name", timed("gates.build", _build(tracer, "gate"))),
        (fqz.cli, "oracle_gate", timed("gates.build", _build(tracer, "oracle"))),
        (fqz.circuit, "run_circuit", timed("circuit.run_circuit")),
        (fqz.circuit, "iter_steps", steps),
        (fqz.circuit, "validate_circuit", timed("circuit.validate", _counter(tracer, "circuit.validate_calls"))),
        (fqz.circuit, "shot_seed", timed("rng.shot_seed", _counter(tracer, "rng.shot_seeds"))),
        (fqz.circuit, "oracle_gate", timed("gates.build", _build(tracer, "oracle"))),
        (fqz.gates, "gate", timed("gates.build", _build(tracer, "gate"))),
        (fqz.state, "apply_gate", lambda fn: _apply_gate(tracer, fn)),
        (fqz.state, "measure_qubit", timed("state.measure", _counter(tracer, "state.measure_calls"))),
        (fqz.rng.SplitMix64, "next_u64", timed("rng.next_u64", _counter(tracer, "rng.draws"))),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper; restore every original binding on exit."""
    saved = []
    try:
        for owner, attr, make in wrap_plan(tracer):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def covered(start: float, end: float, intervals) -> float:
    """Length of the union of `intervals`, each clipped to [start, end]."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(starts, ends, parents) -> list[float]:
    children = defaultdict(list)
    for i, p in enumerate(parents):
        if p >= 0:
            children[p].append((starts[i], ends[i]))
    return [ends[i] - starts[i] - covered(starts[i], ends[i], children.get(i, ())) for i in range(len(starts))]


def layer_metrics(tracer: Tracer, jobs: int, shots: int) -> tuple[dict[str, float], float]:
    """Per-job per-layer metrics, and the largest gap in any job between the
    sum of its spans' self times and its root span's duration."""
    selfs = self_times(tracer.starts, tracer.ends, tracer.parents)
    totals: dict[str, float] = defaultdict(float)
    per_job_self: dict[int, float] = defaultdict(float)
    per_job_root: dict[int, float] = defaultdict(float)
    for i, name in enumerate(tracer.names):
        totals[SELF_METRIC[name]] += selfs[i]
        if name.startswith("state.apply_gate."):
            totals[name + "_s"] += selfs[i]
        per_job_self[tracer.jobs[i]] += selfs[i]
        if tracer.parents[i] < 0:
            per_job_root[tracer.jobs[i]] += tracer.ends[i] - tracer.starts[i]
    gap = max((abs(per_job_self[j] - per_job_root[j]) for j in per_job_root), default=0.0)

    metrics = {}
    for metric in sorted(set(SELF_METRIC.values())) + [f"state.apply_gate.{k}_s" for k in GATE_KINDS]:
        metrics[metric] = totals.get(metric, 0.0) / jobs
    for key in COUNTERS:
        metrics[key] = tracer.counts[key] / jobs
    builds = tracer.counts["gates.build_calls"]
    metrics["gates.builds_per_distinct"] = builds / tracer.distinct_builds if tracer.distinct_builds else 0.0
    metrics["circuit.steps_per_shot"] = tracer.counts["circuit.steps"] / shots
    return metrics, gap
