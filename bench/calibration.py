"""Fixed reference work that measures how fast the host runs Python right now.

On a shared host the same op can take 40-50% longer for seconds to minutes
at a time: on a shared 2-vCPU virtual machine the median of identical runs
drifted from 125 to 179 ms, in CPU time as well as wall time. The benchmark
runs `kernel` before the first op and after every op, and scales each op's
time by ``REFERENCE_S`` over the mean of the two kernel times that bracket
it, which reports every time at the speed the host had when the kernel took
``REFERENCE_S``. On ten runs of each workload this cut the run-to-run
spread (interquartile range over median) of the median op time from
0.18-0.34 to 0.03-0.05. The kernel uses only the standard library and no
code of the package, so a change to the program cannot move it. It mixes
the two kinds of work the program does: interpreted bytecode (calls,
integer arithmetic, list building and sorting) and C-implemented helpers
(sha256, Fraction, json).
"""

from __future__ import annotations

import gc
import hashlib
import json
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REFERENCE_S = 0.020
# Set-up is mostly interpreter start and imports (scipy's alone is most of
# it): file reads, unmarshalling and shared-library loading, which the kernel
# above does not track. Set-up times are scaled instead by a reference
# process that does the same kinds of work on code outside the repo: start an
# interpreter and import numpy.
REFERENCE_PROCESS = [sys.executable, "-c", "import numpy, json, fractions, hashlib, decimal"]
REFERENCE_PROCESS_S = 0.25


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) % 1000003


def kernel() -> int:
    x = 0
    kept = []
    for i in range(60000):
        x = _mix(x, i)
        if i % 3 == 0:
            kept.append(x)
    kept.sort()
    digests = {}
    total = Fraction(0)
    for i in range(3000):
        key = f"a{i:05d}"
        digests[key] = hashlib.sha256(key.encode()).hexdigest()
        total += Fraction(i, 7)
    return len(json.dumps(digests)) + kept[0] + total.numerator % 7


def timed_kernel() -> float:
    """Kernel time with the collector off, so the program's heap cannot slow it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(latencies: list[float], kernels: list[float]) -> list[float]:
    """Each op time at the reference speed; op i ran between ``kernels[i]``
    and ``kernels[i + 1]``."""
    return [
        latency * 2 * REFERENCE_S / (kernels[i] + kernels[i + 1])
        for i, latency in enumerate(latencies)
    ]


def timed_reference_process() -> float:
    """Wall time of one fresh reference interpreter, start to exit."""
    t0 = perf_counter()
    subprocess.run(REFERENCE_PROCESS, check=True, timeout=60)
    return perf_counter() - t0
