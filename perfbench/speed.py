"""Machine-speed reference for the benchmark's end-to-end timings.

On a shared machine the speed of a core drifts from minute to minute with
other tenants' load, by more than the regressions the benchmark must
catch, so the raw wall times of one run partly measure the machine.  The
benchmark therefore runs a fixed reference task, independent of
``dfmvi``, after every command of a run, and reports the run's wall times
scaled to the reference speed:

    scaled = wall * REFERENCE_S / median(reference times of the run)

A change to ``dfmvi`` moves ``wall`` and not the reference, so the scaled
time moves with the program and not with the machine.  The median over
the whole run is used because single samples are short and noisy, with
occasional slow outliers; per-command windows tracked the program worse.
"""

from __future__ import annotations

import time

import numpy as np

# Rounded median time of ``reference_task`` on a 2-core Intel Xeon virtual machine
# (Python 3.11, numpy 2.4): scaled times read in seconds of that machine at
# its usual speed.
REFERENCE_S = 0.010

_SMALL = np.eye(4) * 4.0 + 0.5


def reference_task() -> float:
    """Run the fixed reference task once; return its wall time in seconds.

    Interpreter-level loops and small linear algebra, the mix of the Kalman
    recursions, and nothing large enough to start BLAS threads.
    """
    start = time.perf_counter()
    x = np.ones(4)
    for _ in range(500):
        x = np.linalg.solve(_SMALL, x) + 1.0
        x = x / np.abs(x).max()
    acc = 0
    for i in range(30_000):
        acc += i * i
    return time.perf_counter() - start
