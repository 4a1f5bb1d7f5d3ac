"""fqz benchmark: seeded CLI workloads run as a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from src/ via
PYTHONPATH=src (it need not be installed). One client submits one job at a
time to one workload process (no threads, BLAS capped at one thread); each
job is a user's `fqz ...` command, run through fqz.cli.main in-process
with stdout and stderr captured, so it costs what the CLI costs minus
interpreter start. Interpreter start and `import fqz.cli` are measured
separately as set-up: the median time, from launch to `import fqz.cli`
done, of the fresh probe processes the workload process starts between
jobs through the run.

The host's speed drifts (see speed.py), so job and set-up times are
normalised: each wall time is scaled by how long a fixed calibration
kernel, timed just before and just after it, takes against its time on
the reference machine. The times as measured are printed beside them and
kept in the result file.

With --trace 0 it reports the end-to-end metrics: setup_s, job_p50_ms,
job_p90_ms, shots_per_s and peak_rss_mb, plus error_rate (failed jobs over
jobs attempted) in its text lines. With --trace 1 it reports the per-layer
breakdown of a separate traced run. Every job's output is checked. The
last line of stdout is one JSON object: correct, attempted, failed,
metrics. A result file with the environment record goes to
.bench_out/result-<workload>-seed<N>-trace<T>.json.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 150
BLAS_CAPS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PER_LAYER_UNITS = {
    "_s": "s",
    ".s": "s",
    "_ms": "ms",
    "bytes_computed": "B-computed",
    "output_bytes": "B",
    "builds_per_distinct": "ratio",
    "overhead": "ratio",
}
NO_WAIT = "closed loop with a single client: nothing queues, so no layer has a wait time"

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    env["PYTHONHASHSEED"] = "0"
    env.update({var: "1" for var in BLAS_CAPS})
    return env


def write_schedule(workload: str, seed: int, path: Path) -> None:
    pins = (BENCH / "pins" / f"{workload}.txt").read_text(encoding="utf-8").splitlines()
    pool = workloads.pool(workload)
    if len(pins) != len(pool):
        raise RuntimeError(f"pins/{workload}.txt has {len(pins)} lines for a pool of {len(pool)}")
    with open(path, "w", encoding="utf-8") as out:
        for i in workloads.schedule(workload, seed):
            job = pool[i]
            program = None if job.program is None else {"oracles": job.program.oracles, "ops": job.program.ops}
            line = {
                "index": i,
                "source": job.source,
                "commands": job.commands,
                "shots": job.shots,
                "pins": pins[i].split(),
                "program": program,
                "deutsch": job.deutsch,
            }
            out.write(json.dumps(line) + "\n")


def end_to_end(summary: dict, wall: bool = False) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; with wall=True the times are the wall times
    as measured, not normalised."""
    times = summary["wall_times" if wall else "times"]
    return {
        "setup_s": (statistics.median(summary["setup_wall_s" if wall else "setup_s"]), "s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_p90_ms": (statistics.quantiles(times, n=10)[-1] * 1e3, "ms"),
        "shots_per_s": (summary["shots"] / sum(times), "1/s"),
        "peak_rss_mb": (summary["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(summary: dict, import_s: list[float]) -> dict[str, tuple[float, str]]:
    metrics = dict(summary["layers"])
    metrics["cli.import_s"] = statistics.median(import_s)
    traced = statistics.median(summary["traced_times"])
    untraced = statistics.median(summary["times"])
    metrics["trace.job_p50_ms"] = traced * 1e3
    metrics["trace.untraced_job_p50_ms"] = untraced * 1e3
    metrics["trace.overhead"] = traced / untraced
    out = {}
    for name, value in metrics.items():
        unit = next((u for suffix, u in PER_LAYER_UNITS.items() if name.endswith(suffix)), "count")
        out[name] = (value, unit)
    return out


def module_breakdown(layers: dict[str, float]) -> str:
    """Self time per job summed by module, with each module's share."""
    per_module: dict[str, float] = {}
    for metric in sorted(set(spans.SELF_METRIC.values())):
        module = metric.split(".")[0]
        per_module[module] = per_module.get(module, 0.0) + layers[metric]
    total = sum(per_module.values())
    return ", ".join(f"{m} {t * 1e3:.4g} ms ({t / total:.1%})" for m, t in per_module.items())


def _stop(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through the finally that stops the worker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "fqz" / "cli.py").is_file():
        print(f"error: no fqz sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _stop)
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    schedule = work / "schedule.jsonl"
    try:
        write_schedule(args.workload, args.seed, schedule)
        worker_args = ["--workload", args.workload, "--schedule", str(schedule.relative_to(ROOT))]
        worker_args += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            worker_args += ["--spans", str((work / "spans.tsv").relative_to(ROOT))]
        proc, worker_setup, worker_import = worker.launch(worker_args, cwd=ROOT, env=worker_env())
        try:
            stdout, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise RuntimeError(f"workload process ran past {WORKER_TIMEOUT_S} s")
        finally:
            if proc.poll() is None:  # timed out, or this process is being stopped
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            raise RuntimeError(f"workload process exited {proc.returncode}")
        summary = json.loads(stdout.strip().splitlines()[-1])
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    import_s = [worker_import, *summary["import_s"]]
    correct = summary["failed"] == 0
    if args.trace:
        metrics = per_layer(summary, import_s)
        # Self times partition each job's root span; a gap means a span was lost.
        if summary["self_time_gap_s"] > 1e-9:
            correct = False
        wall = {}
    else:
        metrics = end_to_end(summary)
        wall = end_to_end(summary, wall=True)
        del wall["peak_rss_mb"]
    error_rate = summary["failed"] / summary["attempted"]
    reported = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": summary["numpy"],
        "blas_thread_caps": {var: "1" for var in BLAS_CAPS},
        "git_commit": git_commit(ROOT),
        "workload_seed": args.seed,
        "pythonpath": "src (fqz is imported from the checkout, not installed)",
        "fqz_module": os.path.relpath(summary["fqz_module"], ROOT),
        "load": "closed loop, 1 client, 1 workload process, no threads",
        "waiting": NO_WAIT,
    }
    result = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "error_rate": error_rate,
        "problems": summary["problems"],
        "jobs_timed": len(summary["times"]),
        "pool_wraps": summary["pool_wraps"],
        "setup_wall_samples_s": summary["setup_wall_s"],
        "workload_process_setup_wall_s": worker_setup,
        "metrics": reported,
        "wall_metrics": {name: {"value": v, "unit": u} for name, (v, u) in wall.items()},
    }
    if args.trace:
        result["self_time_gap_s"] = summary["self_time_gap_s"]
        result["spans"] = summary["spans"]
    else:
        result["setup_samples_s"] = summary["setup_s"]
        result["speed_factors"] = summary["speed_factors"]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {env['load']}; {NO_WAIT}")
    print(f"environment {json.dumps(env)}")
    for problem in summary["problems"]:
        print(f"FAILED {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        factors = summary["speed_factors"]
        print(
            "wall times as measured: "
            + ", ".join(f"{name} {value:.6g} {unit}" for name, (value, unit) in wall.items())
            + f"; machine ran x{statistics.median(factors):.3f} the reference time"
            f" (x{min(factors):.3f} to x{max(factors):.3f} over {len(factors)} calibrations)"
        )
    if args.trace:
        print(f"self time per job by module: {module_breakdown(summary['layers'])}")
        print(
            f"tracing overhead: traced job_p50_ms {metrics['trace.job_p50_ms'][0]:.4g} against untraced "
            f"{metrics['trace.untraced_job_p50_ms'][0]:.4g} on the same {len(summary['times'])} jobs "
            f"(x{metrics['trace.overhead'][0]:.3f}); largest gap between a job's summed self times "
            f"and its root span {summary['self_time_gap_s']:.3g} s"
        )
    print(f"error_rate {error_rate:.6g} ({summary['failed']} of {summary['attempted']} jobs failed)")
    if summary["pool_wraps"]:
        print(f"note: the job pool was exhausted {summary['pool_wraps']} time(s), so some programs ran twice")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"], "failed": summary["failed"], "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
