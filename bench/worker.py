"""The workload process: imports fqz, then runs jobs through fqz.cli.main.

Started by run.py with PYTHONPATH=src and BLAS capped at one thread. It
prints `READY <import seconds>` as soon as `import fqz.cli` returns; run.py
takes the time from launch to that line as one set-up sample. With --probe
it exits there; between jobs, about every SETUP_PROBE_EVERY_S seconds, the
workload process starts such a probe the same way and waits for it, so the
set-up samples are spread over the whole run. Otherwise it streams jobs
from the schedule file, one at a time (a closed loop: one client, one
process, no threads), times each job with stdout and stderr captured
in-process, checks the outputs outside the timed region, and prints one
JSON summary line at the end. Between jobs it times a calibration kernel
(speed.py) and reports every job's and probe's wall time both as measured
and normalised to the reference machine speed.

With --trace 1 every job runs twice, untraced and traced, in alternating
order, so the traced run reports its own overhead on identical jobs.
"""
from __future__ import annotations

import argparse
import os
import subprocess
import sys
from time import perf_counter

MIN_JOBS = 100  # the p90 then has at least 10 samples beyond it
MIN_TRACED_JOBS = 20
HARD_CAP_S = 120.0  # stop early rather than overrun the 180 s limit
REFERENCE_EVERY = 4  # every 4th job is also checked against reference.py
DIGEST_HEX = 10
TRACEBACK = "Traceback (most recent call last)"
SETUP_PROBE_EVERY_S = 2.5


def launch(args: list[str], cwd=None, env=None) -> tuple[subprocess.Popen, float, float]:
    """Start a workload process; return it with its set-up time (launch to
    READY) and the import time it reports."""
    t0 = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), *args],
        cwd=cwd,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if not line.startswith("READY "):
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process did not start: {line.strip() or 'no output'}")
    return proc, setup, float(line.split()[1])


class SetupProbes:
    """Set-up samples from fresh probe processes started between jobs; with
    a normaliser, each sample is also added to its "setup" series."""

    def __init__(self, workload: str, normaliser=None):
        self.workload = workload
        self.normaliser = normaliser
        self.setup_s: list[float] = []
        self.import_s: list[float] = []
        self._at = None

    def maybe(self) -> None:
        if self._at is not None and perf_counter() - self._at < SETUP_PROBE_EVERY_S:
            return
        proc, setup, imported = launch(["--workload", self.workload, "--probe"])
        proc.communicate()
        self.setup_s.append(setup)
        self.import_s.append(imported)
        if self.normaliser is not None:
            self.normaliser.add("setup", setup)
            self.normaliser.maybe_calibrate()
        self._at = perf_counter()


def program_path(workload: str) -> str:
    """Relative path the CLI is given; it appears in `check` output, so pins depend on it."""
    return f".bench_out/{workload}/program.fqz"


def digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:DIGEST_HEX]


def _call_main(main, argv: list[str]):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    except Exception:
        import traceback

        traceback.print_exc()  # into the captured stderr; the check flags it
        return None


def run_job(commands, path: str, tracer=None):
    """Run one job's CLI commands in-process. Returns (seconds, outputs)
    with one (exit code, stdout, stderr) per command."""
    import contextlib
    import io

    import fqz.cli

    outputs = []
    span = tracer.open("cli.main") if tracer is not None else None
    t0 = perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = _call_main(fqz.cli.main, [a.replace("{path}", path) for a in argv])
        outputs.append((rc, out.getvalue(), err.getvalue()))
    seconds = perf_counter() - t0
    if span is not None:
        tracer.close(span)
        tracer.counts["cli.output_bytes"] += sum(len(out.encode("utf-8")) for _, out, _ in outputs)
    return seconds, outputs


def pins_for(outputs) -> list[str]:
    """What a seed-commit run records: `<exit code>:<stdout digest>`, the
    digest only for exit 0."""
    return [f"{rc}:{digest(out) if rc == 0 else '-'}" for rc, out, _ in outputs]


def check_job(job: dict, outputs, with_reference: bool) -> list[str]:
    """Problems with one job's outputs; an empty list means correct."""
    import json

    problems = []
    for (rc, out, err), pin, argv in zip(outputs, job["pins"], job["commands"]):
        cmd = argv[0]
        if rc is None or TRACEBACK in err:
            problems.append(f"{cmd}: traceback: {err.strip().splitlines()[-1] if err.strip() else ''}")
            continue
        want_rc, want = pin.split(":")
        if want_rc == "0":
            if rc != 0:
                problems.append(f"{cmd}: exit {rc}, seed commit exited 0")
            elif digest(out) != want:
                problems.append(f"{cmd}: stdout bytes differ from the seed commit")
        elif rc not in (1, 2):
            problems.append(f"{cmd}: exit {rc}, expected 1 or 2")
    program = job["program"]
    if program is None:
        return problems

    n_measures = sum(1 for op in program["ops"] if op[0] == "measure")
    for (rc, out, _), argv in zip(outputs, job["commands"]):
        if rc != 0:
            problems.append(f"{argv[0]}: valid program exited {rc}")
            continue
        data = json.loads(out)
        if argv[0] == "check":
            if data["overall"] != "PASS":
                problems.append("check: valid-by-construction program did not PASS")
            continue
        counts = data["outcomes"]
        if sum(counts.values()) != job["shots"] or data["shots"] != job["shots"]:
            problems.append(f"run: counts sum to {sum(counts.values())}, expected {job['shots']}")
        if any(len(k) != n_measures or set(k) - {"0", "1"} for k in counts):
            problems.append(f"run: outcome keys {sorted(counts)[:3]} are not {n_measures} bit(s) wide")
        if job["deutsch"] is not None:
            want = "0" if job["deutsch"] in ("const0", "const1") else "1"
            if set(counts) != {want}:
                problems.append(f"run: Deutsch {job['deutsch']} measured {sorted(counts)}, expected {want}")
        if with_reference:
            import numpy as np

            import reference

            got = np.asarray(data["amplitudes"], dtype=float)
            want_psi = reference.pre_measurement_state(program["oracles"], program["ops"])
            if got.shape != (want_psi.size, 2) or np.abs(got[:, 0] + 1j * got[:, 1] - want_psi).max() > 1e-9:
                problems.append("run: amplitudes differ from the reference simulator by more than 1e-9")
    return problems


def _job_stream(path: str, counter: dict):
    """Schedule lines in order, starting over when the file is exhausted."""
    import json

    while True:
        with open(path, encoding="utf-8") as f:
            for line in f:
                yield json.loads(line)
        counter["wraps"] += 1


def _loop(args, jobs, body, min_jobs: int, probes: SetupProbes):
    start = perf_counter()
    n = 0
    while True:
        elapsed = perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= args.seconds and n >= min_jobs):
            return elapsed
        probes.maybe()
        body(n, next(jobs))
        n += 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--schedule", help="JSON Lines job file written by run.py")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--probe", action="store_true", help="exit once fqz is imported")
    args = parser.parse_args(argv)

    t0 = perf_counter()
    import fqz.cli  # noqa: F401  (the import is what set-up measures)

    print(f"READY {perf_counter() - t0!r}", flush=True)
    if args.probe:
        return 0

    import json
    import resource

    import numpy

    import fqz
    import spans
    import speed

    path = program_path(args.workload)
    counter = {"wraps": 0}
    jobs = _job_stream(args.schedule, counter)
    summary = {"attempted": 0, "failed": 0, "shots": 0, "problems": [], "times": []}

    def record(job, outputs, sample):
        summary["attempted"] += 1
        problems = check_job(job, outputs, sample)
        if problems:
            summary["failed"] += 1
            summary["problems"].extend(f"pool job {job['index']}: {p}" for p in problems[:2])
            del summary["problems"][20:]

    def write_program(job):
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write(job["source"])

    if args.trace == 0:

        normaliser = speed.Normaliser()
        probes = SetupProbes(args.workload, normaliser)
        summary["wall_times"] = []

        def body(n, job):
            write_program(job)
            seconds, outputs = run_job(job["commands"], path)
            normaliser.add("jobs", seconds)
            normaliser.maybe_calibrate()
            summary["wall_times"].append(seconds)
            summary["shots"] += job["shots"]
            record(job, outputs, n % REFERENCE_EVERY == 0)

        summary["elapsed_s"] = _loop(args, jobs, body, MIN_JOBS, probes)
        normalised = normaliser.finish()
        summary["times"] = normalised["jobs"]
        summary["setup_s"] = normalised["setup"]
        summary["speed_factors"] = normaliser.factors
    else:
        probes = SetupProbes(args.workload)
        tracer = spans.Tracer()
        summary["traced_times"] = []
        shots = [0]

        def body(n, job):
            write_program(job)
            for traced in (False, True) if n % 2 == 0 else (True, False):
                if traced:
                    tracer.begin_job(n)
                    with spans.installed(tracer):
                        seconds, outputs = run_job(job["commands"], path, tracer)
                    tracer.end_job()
                    summary["traced_times"].append(seconds)
                    shots[0] += job["shots"]
                else:
                    seconds, outputs = run_job(job["commands"], path)
                    summary["times"].append(seconds)
                record(job, outputs, traced and n % REFERENCE_EVERY == 0)

        summary["elapsed_s"] = _loop(args, jobs, body, MIN_TRACED_JOBS, probes)
        layers, gap = spans.layer_metrics(tracer, len(summary["traced_times"]), shots[0])
        summary["layers"] = layers
        summary["self_time_gap_s"] = gap
        summary["spans"] = len(tracer.names)
        if args.spans:
            tracer.write(args.spans)

    summary["setup_wall_s"] = probes.setup_s
    summary["import_s"] = probes.import_s
    summary["pool_wraps"] = counter["wraps"]
    summary["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary["numpy"] = numpy.__version__
    summary["fqz_module"] = fqz.__file__
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
