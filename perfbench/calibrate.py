"""Host-speed calibration: a fixed kernel timed next to every measured slice.

The benchmark runs on shared hosts whose speed drifts by up to 2x over
minutes while a process keeps its core (CPU time tracks wall time, so the
drift is slower instructions, not lost turns).  The kernel here never
changes with the program: it mixes the kinds of work the workloads do
(interpreter loops over dicts and small objects, allocation of short-lived
records, small and large numpy calls, JSON encoding and hashing), so a
slow host slows it about as much as it slows the program.

``Clock`` times each measured slice and runs the kernel before the first
slice and after every slice; a slice's *reference* seconds are its wall
seconds scaled by ``REFERENCE_S`` over the mean of the kernel times on its
two sides.  Reference seconds are host-speed-independent, so throughput
in them is what the bounded ``ops_per_ref_s`` metric reports; raw wall
seconds are reported beside them.
"""

from __future__ import annotations

import gc
import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from typing import Iterator

import numpy as np

#: Median seconds of one kernel call on an idle 2-vCPU Xeon (family 6,
#: model 207, KVM guest), Python 3.11, numpy with one BLAS thread.  Only
#: the unit of reference seconds; any fixed value gives the same ratios.
REFERENCE_S = 0.0227
#: Kernel calls per calibration point; the point is their median.
REPEATS = 5


class _Record:
    __slots__ = ("key", "value", "weight")

    def __init__(self, key: int, value: float, weight: float) -> None:
        self.key, self.value, self.weight = key, value, weight


_TABLE = {i: (i * 2654435761) % 1009 for i in range(512)}
_SMALL = np.linspace(1.0, 2.0, 256).reshape(16, 16)
_SMALL = _SMALL @ _SMALL.T + 16.0 * np.eye(16)
_LARGE = np.cos(np.arange(600_000, dtype=float))
_PAYLOAD = [{"id": i, "v": i * 0.25, "tag": f"t{i % 17}"} for i in range(600)]


def kernel() -> float:
    """One fixed unit of mixed work; returns a checksum so nothing is skipped."""
    acc = 0.0
    table = _TABLE
    for i in range(36_000):
        acc += table[i & 511] * 1e-3
    records = [_Record(i & 63, i * 0.5, 1.0 / (i + 1)) for i in range(24_000)]
    records.sort(key=lambda r: (r.key, -r.value))
    buckets: dict[int, float] = {}
    for record in records:
        buckets[record.key] = buckets.get(record.key, 0.0) + record.value * record.weight
    acc += sum(buckets.values())
    for column in range(360):
        factor = np.linalg.cholesky(_SMALL)
        acc += float(np.linalg.solve(factor, _SMALL[:, column & 15]).sum())
    acc += float(np.cumsum(_LARGE)[-1]) + float(np.argsort(_LARGE[:150_000])[7])
    encoded = json.dumps(_PAYLOAD, sort_keys=True).encode()
    acc += hashlib.sha256(encoded).digest()[0]
    return acc


def point() -> float:
    """Median seconds of ``REPEATS`` kernel calls, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


class Clock:
    """Wall and reference seconds of the measured slices of one run."""

    def __init__(self) -> None:
        self.wall_s = 0.0
        self.reference_s = 0.0
        self.points: list[float] = []
        self.slices: list[float] = []

    @contextmanager
    def slice(self) -> Iterator[None]:
        if not self.points:
            self.points.append(point())
        t0 = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        self.points.append(point())
        self.slices.append(elapsed)
        self.wall_s += elapsed
        self.reference_s += elapsed * REFERENCE_S / statistics.fmean(self.points[-2:])
