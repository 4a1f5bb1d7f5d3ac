"""Machine-speed normalisation for the end-to-end times.

The benchmark runs on shared machines whose speed drifts by up to a factor
of two or three over seconds to minutes (other tenants on the same cores),
which moves wall times far more than the changes the benchmark is meant to
show. So the workload process times a fixed calibration kernel that does
not touch fqz, about every CALIBRATE_EVERY_S seconds between jobs, and
every job's and set-up probe's wall time is divided by the machine's speed
at the time: the median of the calibrations just before and just after
it, relative to REFERENCE_S. A normalised time is the time the work would
take on a machine on which the kernel takes exactly REFERENCE_S.

The kernel mixes what an fqz job does: interpreted Python (integer
arithmetic, dict and attribute access, small calls) and numpy calls on
small arrays and on a 4,096-amplitude tensor. It never imports fqz, so no
change to the package can move it.
"""
from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# The kernel's time, in seconds, on the reference machine; a shared 2-vCPU
# Xeon cloud VM takes 0.8 to 1.5 times this, as its neighbours load it.
REFERENCE_S = 0.001
CALIBRATE_EVERY_S = 0.2
REPEATS = 3
WINDOW = 2

_TENSOR = np.full((2,) * 12, 1.0 / 64.0, dtype=np.complex128)
_GATE = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
_PAIR = [0.6, 0.8]


class _Cell:
    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value


def _python_part() -> int:
    table: dict[int, int] = {}
    cell = _Cell(1)
    for i in range(2500):
        cell.value = (cell.value * 31 + i) & 0xFFFF
        table[i & 127] = table.get(i & 63, 0) + cell.value
    return len(table)


def _numpy_part() -> complex:
    t = _TENSOR
    for axis in range(6):
        t = np.moveaxis(np.tensordot(_GATE, t, axes=((1,), (axis,))), 0, axis)
    total = 0j
    for _ in range(40):
        v = np.asarray(_PAIR, dtype=np.complex128)
        if np.isfinite(v.real).all():
            total += complex(v @ v)
    return total + t.ravel()[0]


_python_part()  # warm up, so the first calibration is not slower than the rest
_numpy_part()


def kernel_seconds() -> float:
    """Median wall time of REPEATS runs of the calibration kernel."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _python_part()
        _numpy_part()
        times.append(perf_counter() - t0)
    return statistics.median(times)


class Normaliser:
    """Collects wall times between calibrations and normalises them.

    `add(series, wall)` records a wall time (a job's, or a set-up probe's)
    under a series name; `maybe_calibrate()` runs the kernel once
    CALIBRATE_EVERY_S has passed since the last calibration; `finish()`
    calibrates once more and divides each wall time by the median kernel
    time of the WINDOW calibrations before it and the WINDOW after it,
    relative to REFERENCE_S. The speed changes within a fraction of a
    second, so a sample is set against the calibrations nearest to it;
    taking the median of a few keeps one disturbed calibration from moving
    a sample.
    """

    def __init__(self):
        self.kernel_s = [kernel_seconds()]
        self._at = perf_counter()
        self._samples: dict[str, list[tuple[float, int]]] = {}  # (wall, last calibration before it)

    def add(self, series: str, wall: float) -> None:
        self._samples.setdefault(series, []).append((wall, len(self.kernel_s) - 1))

    def maybe_calibrate(self) -> None:
        if perf_counter() - self._at >= CALIBRATE_EVERY_S:
            self.kernel_s.append(kernel_seconds())
            self._at = perf_counter()

    def finish(self) -> dict[str, list[float]]:
        """Each series' normalised times, in the order they were added."""
        self.kernel_s.append(kernel_seconds())
        k = self.kernel_s
        return {
            series: [wall * REFERENCE_S / statistics.median(k[max(0, b - WINDOW + 1) : b + WINDOW + 1]) for wall, b in samples]
            for series, samples in self._samples.items()
        }

    @property
    def factors(self) -> list[float]:
        """Each calibration's kernel time over REFERENCE_S."""
        return [t / REFERENCE_S for t in self.kernel_s]
