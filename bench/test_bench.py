"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest bench/test_bench.py -q
"""
from __future__ import annotations

import json
import os
import random

import numpy as np
import pytest

import reference
import spans
import speed
import worker
import workloads
from fqz.circuit import pre_measurement_state
from fqz.lang import AllocStmt, MeasureStmt, OracleApplyStmt, compile_program, parse_source


def _jobs(seed: int, count: int = 40):
    return {w: workloads.generate(w, seed, count) for w in workloads.WORKLOADS}


def test_same_seed_gives_byte_identical_programs():
    a, b = _jobs(7), _jobs(7)
    for w in workloads.WORKLOADS:
        assert [(j.source.encode(), j.commands) for j in a[w]] == [(j.source.encode(), j.commands) for j in b[w]]
        assert workloads.schedule(w, 7) == workloads.schedule(w, 7)
    other = _jobs(8)
    assert all([j.source for j in a[w]] != [j.source for j in other[w]] for w in workloads.WORKLOADS)


def test_schedule_is_a_permutation_with_the_deutsch_sources_early():
    for w in workloads.WORKLOADS:
        order = workloads.schedule(w, 3)
        assert sorted(order) == list(range(workloads.POOL_SIZES[w]))
    assert set(workloads.schedule("edit-loop", 3)[:64]) >= {0, 1, 2, 3}


def _envelope_violations(source: str) -> list[str]:
    program = parse_source(source)  # raises on a scoping or syntax error
    problems = []
    qubits = [s.name for s in program.statements if isinstance(s, AllocStmt)]
    if len(qubits) > workloads.MAX_QUBITS:
        problems.append(f"{len(qubits)} qubits")
    for s in program.statements:
        if isinstance(s, OracleApplyStmt) and s.control == s.register:
            problems.append(f"N[{s.oracle}] {s.control} {s.register}")
    return problems


@pytest.mark.parametrize("seed", [0, 1, workloads.CORPUS_SEED])
def test_generated_programs_parse_and_stay_in_the_envelope(seed):
    for w, jobs in _jobs(seed, 200).items():
        for job in jobs:
            if job.program is None:  # a deliberate one-character corruption
                continue
            assert _envelope_violations(job.source) == []
            statements = parse_source(job.source).statements
            assert len(statements) == len(job.program.ops)
            measures = sum(isinstance(s, MeasureStmt) for s in statements)
            if w == "wide-final":
                assert len(statements) == 120 and measures == 12
                assert sum(isinstance(s, OracleApplyStmt) for s in statements) == 32
                assert all(isinstance(s, MeasureStmt) for s in statements[-12:])
            elif w == "narrow-midmeasure":
                assert len(statements) == 40 and measures == 3
                at = [i - 4 for i, s in enumerate(statements) if isinstance(s, MeasureStmt)]
                assert [a // 12 for a in at] == [0, 1, 2]  # one inside each third of the body
            else:
                assert len(statements) <= 60 and measures <= 3
    edits = [j for j in _jobs(seed, 400)["edit-loop"] if j.program is None]
    assert 40 <= len(edits) <= 120  # about one in five


def test_corruption_is_a_single_character_edit():
    rng = random.Random(5)
    for _ in range(300):
        source = workloads.edit_program(rng).source()
        bad = workloads.corrupt(source, rng)
        assert bad != source
        assert abs(len(bad) - len(source)) <= 1
        prefix = next((i for i, (x, y) in enumerate(zip(source, bad)) if x != y), min(len(source), len(bad)))
        assert source[prefix + (len(source) >= len(bad)) :] == bad[prefix + (len(bad) >= len(source)) :]


def test_reference_simulator_agrees_with_fqz():
    for jobs in _jobs(11, 25).values():
        for job in jobs:
            if job.program is None:
                continue
            circuit, oracles = compile_program(parse_source(job.source))
            want = reference.pre_measurement_state(job.program.oracles, job.program.ops)
            assert np.abs(pre_measurement_state(circuit, oracles) - want).max() < 1e-12


def test_self_time_of_a_hand_built_span_tree():
    #  0 root   [0, 10]
    #  1   a    [1, 4]     2 b [3, 6] overlaps a; 4 c [8, 12] runs past the root
    #  3     g  [2, 3]     child of a
    starts = [0.0, 1.0, 3.0, 2.0, 8.0]
    ends = [10.0, 4.0, 6.0, 3.0, 12.0]
    parents = [-1, 0, 0, 1, 0]
    selfs = spans.self_times(starts, ends, parents)
    # root covers [1, 6] and [8, 10]: 5 + 2 = 7 of its 10
    assert selfs == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])
    assert spans.covered(0.0, 10.0, []) == 0.0


def test_self_times_partition_each_root_span():
    tracer = spans.Tracer()
    for job, layout in enumerate([[("a", 1, 3), ("b", 4, 9)], [("a", 2, 5)]]):
        tracer.begin_job(job)
        root = tracer.open(spans.ROOT)
        tracer.starts[root] = 0.0
        for name, s, e in layout:
            i = tracer.open("lang.parse" if name == "a" else "lang.compile")
            tracer.close(i)
            tracer.starts[i], tracer.ends[i] = float(s), float(e)
        tracer.close(root)
        tracer.ends[root] = 10.0
        tracer.end_job()
    metrics, gap = spans.layer_metrics(tracer, jobs=2, shots=2)
    assert gap < 1e-12
    assert metrics["lang.parse_s"] == pytest.approx((2 + 3) / 2)
    assert metrics["lang.compile_s"] == pytest.approx(5 / 2)
    assert metrics["cli.self_s"] == pytest.approx((10 - 7 + 10 - 3) / 2)


def test_normaliser_scales_each_job_by_the_calibrations_around_it(monkeypatch):
    kernel = iter([2.0, 4.0, 1.0, 8.0, 3.0])
    monkeypatch.setattr(speed, "REFERENCE_S", 1.0)
    monkeypatch.setattr(speed, "WINDOW", 2)
    monkeypatch.setattr(speed, "kernel_seconds", lambda: next(kernel))
    monkeypatch.setattr(speed, "CALIBRATE_EVERY_S", 0.0)
    norm = speed.Normaliser()  # calibration 0: 2.0
    norm.add("jobs", 3.0)  # between calibrations 0 and 1: median of 2.0, 4.0, 1.0
    norm.add("jobs", 6.0)
    norm.maybe_calibrate()  # 4.0
    norm.add("setup", 4.0)  # between 1 and 2: median of 2.0, 4.0, 1.0, 8.0
    norm.maybe_calibrate()  # 1.0
    norm.add("jobs", 5.0)  # between 2 and 3: median of 4.0, 1.0, 8.0, 3.0
    norm.maybe_calibrate()  # 8.0
    normalised = norm.finish()  # finish calibrates: 3.0
    assert normalised["jobs"] == pytest.approx([1.5, 3.0, 5.0 / 3.5])
    assert normalised["setup"] == pytest.approx([4.0 / 3.0])
    assert norm.factors == [2.0, 4.0, 1.0, 8.0, 3.0]


def _bindings():
    return [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.wrap_plan(spans.Tracer())]


def test_traced_job_attributes_all_time_and_removes_every_wrapper(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = "program.fqz"
    job = workloads.generate("narrow-midmeasure", 2, 1)[0]
    with open(path, "w", encoding="utf-8") as f:
        f.write(job.source)
    before = _bindings()
    tracer = spans.Tracer()
    tracer.begin_job(0)
    with spans.installed(tracer):
        assert all(owner.__dict__[attr] is not original for owner, attr, original in before)
        _, outputs = worker.run_job(job.commands + (("check", "{path}", "--format", "json"),), path, tracer)
    tracer.end_job()
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)
    assert [rc for rc, _, _ in outputs] == [0, 0]

    metrics, gap = spans.layer_metrics(tracer, jobs=1, shots=job.shots)
    assert gap < 1e-9
    assert set(tracer.names) <= set(spans.SELF_METRIC)
    layer_total = sum(v for k, v in metrics.items() if k in set(spans.SELF_METRIC.values()))
    root = next(e - s for s, e, p in zip(tracer.starts, tracer.ends, tracer.parents) if p < 0)
    assert layer_total == pytest.approx(root, rel=1e-9)
    ops = job.program.ops
    gates = sum(op[0] in ("gate", "oracle") for op in ops)
    # run: every shot re-simulates; check: one more simulation for PROG-NORM
    assert metrics["state.apply_gate_calls"] == gates * (job.shots + 1)
    assert metrics["state.measure_calls"] == 3 * (job.shots + 1)
    assert metrics["circuit.sims"] == job.shots + 1
    assert metrics["lang.parse_calls"] == 2


def test_wrappers_are_removed_when_a_traced_job_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer()):
            raise RuntimeError("boom")
    assert all(owner.__dict__[attr] is original for owner, attr, original in before)


def test_outputs_are_checked(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    path = "program.fqz"
    job = workloads.generate("edit-loop", 0, 1)[0]  # the const0 Deutsch source
    with open(path, "w", encoding="utf-8") as f:
        f.write(job.source)
    _, outputs = worker.run_job(job.commands, path)
    line = {
        "commands": job.commands,
        "shots": job.shots,
        "pins": worker.pins_for(outputs),
        "program": {"oracles": job.program.oracles, "ops": job.program.ops},
        "deutsch": job.deutsch,
    }
    assert worker.check_job(line, outputs, with_reference=True) == []
    rc, out, err = outputs[1]
    flipped = [outputs[0], (rc, out.replace('"0": 1', '"1": 1'), err)]
    problems = worker.check_job(line, flipped, with_reference=True)
    assert any("differ from the seed commit" in p for p in problems)
    assert any("Deutsch const0" in p for p in problems)
    assert worker.check_job(line, [outputs[0], (None, "", "Traceback (most recent call last):\n")], False)


def test_pins_cover_every_pool_job():
    here = os.path.dirname(os.path.abspath(__file__))
    for w in workloads.WORKLOADS:
        with open(os.path.join(here, "pins", f"{w}.txt"), encoding="utf-8") as f:
            lines = f.read().splitlines()
        assert len(lines) == workloads.POOL_SIZES[w]


def test_metric_names_and_units_match_benchmark_json():
    import run

    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(w["why"] == workloads.WHY[w["name"]] for w in spec["workloads"])
    tracer = spans.Tracer()
    layers, _ = spans.layer_metrics(tracer, jobs=1, shots=1)
    summary = {"layers": layers, "traced_times": [2.0, 3.0], "times": [1.0, 2.0], "shots": 2, "peak_rss_kb": 1024}
    summary["setup_s"] = [0.1]
    traced = run.per_layer(summary, [0.1])
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in traced.items()}
    untraced = run.end_to_end(summary)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in untraced.items()}
