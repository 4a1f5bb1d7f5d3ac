"""Record the output pins: exit code and stdout digest of every pool job.

    python3 bench/record_pins.py [WORKLOAD ...]

Run it at the commit whose outputs are the reference (the pins in the
repository were recorded at the commit that added the benchmark). Line i
of pins/<workload>.txt holds pool job i's pins, one `<exit code>:<digest>`
per command; run.py then requires every job that exited 0 here to exit 0
with the same stdout bytes. Re-recording is a deliberate change of the
output contract and belongs in its own commit.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PINS = Path(__file__).resolve().parent / "pins"


def main(argv: list[str]) -> int:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)  # the CLI is given a path relative to the checkout root

    import worker
    import workloads

    PINS.mkdir(exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        path = worker.program_path(workload)
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        lines = []
        for i, job in enumerate(workloads.pool(workload)):
            Path(path).write_text(job.source, encoding="utf-8", newline="")
            _, outputs = worker.run_job(job.commands, path)
            for rc, _, err in outputs:
                if rc is None or worker.TRACEBACK in err:
                    print(f"{workload} pool job {i}: traceback\n{err}", file=sys.stderr)
                    return 1
            lines.append(" ".join(worker.pins_for(outputs)))
        (PINS / f"{workload}.txt").write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        print(f"{workload}: {len(lines)} jobs pinned")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
