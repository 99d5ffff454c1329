#!/usr/bin/env python3
"""Benchmark of the dfmvi pipeline: simulate, fit, gibbs, compare, forecast.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk --seed 0 --seconds 40 --trace 0

The load is a closed loop: one client in this process sends each CLI
command through ``dfmvi.cli.main`` after the previous one returns.  The
workload's panel is simulated in fresh interpreters (import plus
``dfmvi simulate``), which is the timed set-up; then rounds of fit, gibbs,
compare and forecast at the run's seed repeat while the next round fits in
``--seconds``, at least twice, so artifacts can be compared byte for byte.
Every CLI command plus its output checks is one operation; a failed check
fails the operation.  Timings are scaled to a reference machine speed
measured after every command (``speed.py``); the raw samples go to the
details file.

``--trace 0`` reports the end-to-end metrics (medians over all samples).
``--trace 1`` runs untraced rounds before and after traced ones with the
timing wrappers of ``tracing.py``, and reports the per-layer metrics and
the tracing overhead.  The last line of standard output is the result
object; details, provenance and the span file go under ``.bench_out/``.
``python3 perfbench/smoke.py`` tests the benchmark itself on a tiny panel.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def configure_environment() -> int:
    """Cap BLAS threads at the usable cores and put the checkout's sources first.

    Must run before numpy is imported.  Returns the thread cap.
    """
    cap = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        os.environ[var] = str(cap)
    os.environ["PYTHONPATH"] = SRC
    sys.path.insert(0, SRC)
    return cap


def import_program():
    """Import dfmvi from this checkout's ``src``; exit 2 if it is not there."""
    try:
        import dfmvi
    except ImportError as exc:
        sys.exit(f"error: cannot import dfmvi from {SRC}: {exc}")
    if not os.path.abspath(dfmvi.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: dfmvi imported from {dfmvi.__file__}, not from {SRC}")
    return dfmvi


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas_threads = configure_environment()
    import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import pipeline

    if args.workload not in pipeline.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(pipeline.WORKLOADS)}")
    with open(os.path.join(os.path.dirname(__file__), "references.json")) as fh:
        reference = json.load(fh)[args.workload]
    result = pipeline.run_workload(
        pipeline.WORKLOADS[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        reference=reference,
        out_root=OUT,
        blas_threads=blas_threads,
    )
    pipeline.print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
