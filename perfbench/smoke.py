#!/usr/bin/env python3
"""Smoke test of the benchmark itself, on a tiny panel.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that an untraced run emits every end-to-end metric and a traced
run every per-layer metric named in ``BENCHMARK.json``, each with its unit;
that a deliberately failing check (a wrong reference objective) is counted
in ``failed``; and that a run with the right reference fails nothing.
Exits with status 1 on the first mismatch.
"""

from __future__ import annotations

import json
import os
import sys

import run as bench


def expect(ok: bool, message: str) -> None:
    if not ok:
        sys.exit(f"smoke: FAIL: {message}")


def declared_units(section: str) -> dict:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def emitted_units(details: dict) -> dict:
    return {k: v["unit"] for k, v in details["result"]["metrics"].items()}


def main() -> int:
    blas_threads = bench.configure_environment()
    bench.import_program()
    import pipeline

    tiny = pipeline.Workload("tiny", n=8, r=1, p=1, T=60, ragged_first=5,
                             draws=40, smf_draws=200, fit_repeats=2,
                             gibbs_repeats=2, forecast_repeats=2)
    out = os.path.join(bench.OUT, "smoke")

    def run(trace, reference):
        return pipeline.run_workload(tiny, seed=3, seconds=0, trace=trace,
                                     reference=reference, out_root=out,
                                     blas_threads=blas_threads)

    wrong = run(False, {"elbo": 1.0, "rtol": 1e-6})
    fits = wrong["fits"]
    expect(len(fits) >= 4, f"expected four or more fits, got {len(fits)}")
    expect(wrong["result"]["failed"] == len(fits) and not wrong["result"]["correct"],
           f"wrong reference: {wrong['result']['failed']} failed operations "
           f"for {len(fits)} fits")
    expect(emitted_units(wrong) == declared_units("end_to_end"),
           "end-to-end metrics or units differ from BENCHMARK.json")

    reference = {"elbo": fits[0]["final_elbo"], "rtol": 1e-6}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        details = run(trace, reference)
        expect(details["result"]["correct"] and details["result"]["failed"] == 0,
               f"trace={trace}: failures {details['failures']}")
        expect(emitted_units(details) == declared_units(section),
               f"trace={trace}: metrics or units differ from BENCHMARK.json")
        values = [m["value"] for m in details["result"]["metrics"].values()]
        expect(all(isinstance(v, (int, float)) for v in values),
               f"trace={trace}: non-numeric metric value")
    expect(os.path.getsize(details["span_file"]) > 0, "span file is empty")
    print("smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
