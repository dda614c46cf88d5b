"""A fixed reference kernel that measures how fast the machine runs now.

The benchmark's machine is shared: the same code runs up to 1.5-2x slower
in phases that last from seconds to tens of minutes, and its CPU time
grows with its wall time.  `wall_s` and `setup_s` are therefore reported
in reference seconds: the measured seconds times `REFERENCE_S / kernel
seconds`, where the kernel runs in the same process right before and
right after the measured interval (one command, or set-up).  A slow phase
stretches both alike, so their ratio holds.

Interpreter start and imports are paced by process creation and the page
cache more than by the CPU, and drift apart from the kernel.  That part of
`setup_s` is scaled instead by `SPAWN_REFERENCE_S / spawn seconds`: the
time to start an interpreter that imports numpy and click, measured just
before the benchmark starts its worker process.

The kernel imports no `premex` code, so a change to the program cannot
move it.  It does the kind of work the pipeline does: split searches over
small numpy columns (argsort, cumsum, fancy indexing) and a pure-Python
loop.  Its inputs are fixed, never taken from the workload seed.
"""

import subprocess
import sys
import time

import numpy as np

# Rounds per call, and the kernel's time on a quiet 2-core x86-64 machine
# (Python 3.11.7, numpy 2.4.6): 1 s of work there is 1 reference second.
ROUNDS = 40
REFERENCE_S = 0.06
# The same for starting an interpreter that imports numpy and click.
SPAWN_REFERENCE_S = 0.2


def kernel_seconds():
    """Wall time of `ROUNDS` rounds of the reference kernel."""
    rng = np.random.default_rng(12345)
    X = rng.random((400, 9))
    y = rng.random(400)
    checksum = 0.0
    started = time.perf_counter()
    for _ in range(ROUNDS):
        rows = np.arange(400)
        while rows.size > 8:
            best = -np.inf
            for f in range(X.shape[1]):
                column = X[rows, f]
                order = np.argsort(column, kind="stable")
                sums = np.cumsum(y[rows][order])[:-1]
                gains = sums * sums / np.arange(1, rows.size)
                best = max(best, float(gains[int(np.argmax(gains))]))
            rows = rows[X[rows, 0] <= np.median(X[rows, 0])]
            checksum += best
        total = 0
        for i in range(3000):
            total += i * i % 7
        checksum += total
    elapsed = time.perf_counter() - started
    if not np.isfinite(checksum):
        raise RuntimeError("reference kernel produced a non-finite checksum")
    return elapsed


def to_reference(seconds, kernel_s):
    """`seconds` measured between the kernel runs `kernel_s`, in reference seconds."""
    return seconds * REFERENCE_S * len(kernel_s) / sum(kernel_s)


def spawn_seconds():
    """Wall time to start an interpreter that imports numpy and click."""
    started = time.monotonic()
    subprocess.run([sys.executable, "-c", "import numpy, click"], check=True,
                   capture_output=True, timeout=60)
    return time.monotonic() - started
