"""Workloads, pipeline rounds, output checks and metrics of the benchmark.

Import only after ``run.configure_environment`` has capped the BLAS threads
and put the checkout's ``src`` on the path.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import asdict, dataclass

import numpy as np
import scipy

from dfmvi import cli

import speed
import tracing

# Every workload simulates its panel from the acceptance suite's panel seed;
# the run's seed drives the fit initialisation, the Gibbs chain and the
# predictive draws.  With the panel fixed, the number of CAVI iterations
# moves by a few percent between seeds instead of several-fold, so fit time
# to tolerance is comparable from run to run.
PANEL_SEED = 0
MISSING_RATE = "0.1"
ANCHOR = "0:0"
TOLERANCE = "1e-7"
HORIZONS = "6"
BURN_IN = 0.1
MIN_KERNEL_CALLS = 100
ELBO_SLACK = 1e-8  # fit_smf's relative slack for an objective decrease

# Acceptance criterion 5 tolerances, stated there for 45k kept draws.  With the
# desk workload's 450 kept draws the in-sample MAE stays near 0.004-0.005 and
# both coverages within 0.2 points of nominal across chain seeds, so the
# tolerances apply unchanged.
CRITERION5_MAE = 0.01
CRITERION5_COVERAGE = {"95": 1.5, "50": 2.0}

END_TO_END_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "gibbs_ms_per_draw": "ms",
    "compare_s": "s",
    "forecast_s": "s",
    "peak_rss_mb": "MB",
}

_SETUP_CODE = "import sys; from dfmvi.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass(frozen=True)
class Workload:
    """A panel shape with its draw counts.

    Series ``ragged_first`` to ``n - 1`` end early, staggered at
    T-4, T-6, ..., T-16 and cycling: the acceptance suite's ragged edge.
    """

    name: str
    n: int
    r: int
    p: int
    T: int
    ragged_first: int
    draws: int  # Gibbs sweeps requested, 10% burn-in
    smf_draws: int  # variational draws in compare and forecast
    fit_repeats: int  # fits per round
    gibbs_repeats: int  # Gibbs runs per round
    forecast_repeats: int  # forecasts per round
    criterion5: bool = False

    def ragged(self) -> str:
        return ",".join(
            f"{i}:{self.T - 4 - 2 * ((i - self.ragged_first) % 7)}"
            for i in range(self.ragged_first, self.n)
        )

    def kept_draws(self) -> int:
        return self.draws - math.floor(self.draws * BURN_IN)


WORKLOADS = {
    # The acceptance panel (s=1): the paper's desk-scale speed claim, on the
    # scalar branches; the Gibbs sweep is mostly parameter draws and compare
    # is heavy in draw count.
    "desk": Workload("desk", n=25, r=1, p=0, T=200, ragged_first=18,
                     draws=500, smf_draws=2500, fit_repeats=2,
                     gibbs_repeats=3, forecast_repeats=8, criterion5=True),
    # Large n, the case the collapse exists for: the per-equation loops in vi
    # and the Gibbs parameter draws, with sign-restriction redraws, dominate.
    "wide": Workload("wide", n=300, r=2, p=1, T=200, ragged_first=225,
                     draws=50, smf_draws=200, fit_repeats=1,
                     gibbs_repeats=1, forecast_repeats=4),
    # Long T with s=2: the general filter, smoother and FFBS paths dominate
    # and the per-equation loops are nearly idle, the opposite of wide.
    "long": Workload("long", n=25, r=1, p=1, T=1000, ragged_first=18,
                     draws=150, smf_draws=300, fit_repeats=1,
                     gibbs_repeats=2, forecast_repeats=6),
}


class CheckFailed(Exception):
    """An output check found a wrong result."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Run:
    """One benchmark run: set-up, pipeline rounds and their checks."""

    def __init__(self, workload: Workload, seed: int, work: str, reference: dict):
        self.w = workload
        self.seed = seed
        self.work = work
        self.reference = reference
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.panel = None
        self.setups = 0
        self.fit_info: list[dict] = []
        self.reference_times: list[float] = []  # speed.reference_task samples
        self.timings: list[dict] = []  # one per timed operation
        self.traced = False

    # -- operations ---------------------------------------------------------

    def _operation(self, label, metric, per, command, checks) -> None:
        """Run one command and its checks, timing it for ``metric``.

        The sample recorded is the wall time times ``per``; ``metric`` None
        times nothing.  A reference sample follows every command.
        """
        self.attempted += 1
        start = time.perf_counter()
        try:
            status = command()
        except SystemExit as exc:  # the CLI's usage errors, e.g. a missing input
            status = exc.code
        except Exception:  # a crash is a failed operation, not a lost run
            status = traceback.format_exc()
        wall = time.perf_counter() - start
        self.reference_times.append(speed.reference_task())
        if metric is not None:
            self.timings.append({"op": label, "metric": metric, "traced": self.traced,
                                 "value": wall * per})
        try:
            check(status == 0, f"exit status {status}")
            checks()
        except CheckFailed as exc:
            self.failures.append(f"{label}: {exc}")
        except (OSError, KeyError, ValueError, IndexError) as exc:
            self.failures.append(f"{label}: unreadable output: {exc!r}")

    def _command(self, label, metric, per, argv, checks) -> None:
        """One in-process ``dfmvi`` CLI command as an operation."""
        self._operation(label, metric, per, lambda: cli.main(argv), checks)

    def _simulate_argv(self, out):
        w = self.w
        return [
            "simulate", "--out", out, "--n", str(w.n), "--r", str(w.r),
            "--p", str(w.p), "--t", str(w.T), "--seed", str(PANEL_SEED),
            "--missing-rate", MISSING_RATE, "--ragged", w.ragged(),
        ]

    def setup_sample(self) -> None:
        """Import dfmvi and simulate the panel in a fresh interpreter, timed."""
        out = os.path.join(self.work, f"setup{self.setups}")
        argv = [sys.executable, "-c", _SETUP_CODE, *self._simulate_argv(out)]

        def command():
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
            return proc.returncode

        self._operation(f"setup {self.setups}", "setup_s", 1.0, command,
                        lambda: self._check_panel(out))
        self.setups += 1
        self.panel = self.panel or os.path.join(out, "panel.csv")

    def round(self, k: int) -> None:
        """One round of simulate (traced runs only), fit, gibbs, compare, forecast.

        Fit, gibbs and forecast repeat as the workload sets, so the short
        commands collect enough samples for a steady median, and each
        command's repeats are spread through the round.
        """
        w, base = self.w, os.path.join(self.work, f"round{k}")
        fit, gib = os.path.join(base, "fit0"), os.path.join(base, "gibbs0")
        if self.traced:
            sim = os.path.join(base, "sim")
            self._command(f"round {k} simulate", None, 1.0, self._simulate_argv(sim),
                          lambda: self._check_panel(sim))
        for command, j in _schedule(w):
            out = os.path.join(base, f"{command}{j}")
            label = f"round {k} {command} {j}"
            if command == "fit":
                self._command(
                    label, "fit_s", 1.0,
                    ["fit", "--panel", self.panel, "--out", out, "--seed", str(self.seed),
                     "--identify", ANCHOR, "--tolerance", TOLERANCE],
                    lambda: self._check_fit(out),
                )
            elif command == "gibbs":
                self._command(
                    label, "gibbs_ms_per_draw", 1e3 / w.draws,
                    ["gibbs", "--panel", self.panel, "--out", out,
                     "--seed", str(self.seed + 1), "--identify", ANCHOR,
                     "--draws", str(w.draws), "--burn-in", str(BURN_IN)],
                    lambda: self._check_gibbs(out),
                )
            elif command == "compare":
                self._command(
                    label, "compare_s", 1.0,
                    ["compare", "--panel", self.panel, "--fit", fit, "--gibbs", gib,
                     "--out", out, "--horizons", HORIZONS,
                     "--smf-draws", str(w.smf_draws), "--seed", str(self.seed + 2)],
                    lambda: self._check_compare(out),
                )
            else:
                self._command(
                    label, "forecast_s", 1.0,
                    ["forecast", "--panel", self.panel, "--fit", fit, "--out", out,
                     "--horizons", HORIZONS, "--smf-draws", str(w.smf_draws),
                     "--seed", str(self.seed + 3)],
                    lambda: self._check_forecast(out),
                )
        shutil.rmtree(base, ignore_errors=True)

    def medians(self, traced: bool) -> dict:
        """Median of each end-to-end timing over the run's traced or
        untraced operations, scaled to the reference speed (``speed.py``)."""
        values = {}
        for t in self.timings:
            if t["traced"] == traced:
                values.setdefault(t["metric"], []).append(t["value"])
        factor = speed.REFERENCE_S / statistics.median(self.reference_times)
        return {k: statistics.median(v) * factor for k, v in values.items()}

    # -- output checks ------------------------------------------------------

    def _same_bytes(self, path, name) -> None:
        """Artifacts must be byte-identical to the first ones of the run."""
        digest = _digest(path)
        first = self.digests.setdefault(name, digest)
        check(digest == first, f"{name} differs from the run's first at an equal seed")

    def _check_panel(self, out) -> None:
        path = os.path.join(out, "panel.csv")
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        check(len(rows) == self.w.T + 1 and len(rows[0]) == self.w.n,
              f"panel is {len(rows) - 1} x {len(rows[0])}, expected {self.w.T} x {self.w.n}")
        self._same_bytes(path, "panel.csv")

    def _check_fit(self, out) -> None:
        with open(os.path.join(out, "variational.json"), encoding="utf-8") as fh:
            var = json.load(fh)
        check(var["converged"], f"fit did not converge in {var['iterations']} iterations")
        with open(os.path.join(out, "elbo_trace.csv"), newline="", encoding="utf-8") as fh:
            trace = [float(row[1]) for row in list(csv.reader(fh))[1:]]
        for k in range(1, len(trace)):
            check(trace[k] >= trace[k - 1] - ELBO_SLACK * abs(trace[k - 1]),
                  f"objective decreased at iteration {k}: {trace[k - 1]!r} -> {trace[k]!r}")
        final, ref = trace[-1], self.reference["elbo"]
        self.fit_info.append({"iterations": var["iterations"], "final_elbo": final})
        check(abs(final - ref) <= self.reference["rtol"] * abs(ref),
              f"final objective {final!r} differs from reference {ref!r} "
              f"by more than {self.reference['rtol']} relative")
        for name in ("variational.json", "elbo_trace.csv", "states.csv"):
            self._same_bytes(os.path.join(out, name), name)

    def _check_gibbs(self, out) -> None:
        w = self.w
        path = os.path.join(out, "draws.npz")
        with np.load(path) as data:
            lambdas, states = data["lambdas"], data["states"]
            finite = all(np.isfinite(data[k]).all() for k in ("lambdas", "sigma2", "phi", "states"))
        kept = w.kept_draws()
        check(lambdas.shape[:2] == (kept, w.n) and states.shape[:2] == (kept, w.T + 1),
              f"draw store shapes {lambdas.shape}, {states.shape}; expected {kept} kept draws")
        check(finite, "draw store holds non-finite values")
        self._same_bytes(path, "draws.npz")

    def _check_compare(self, out) -> None:
        with open(os.path.join(out, "report_summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
        errors = [v for block in summary["pm_errors"].values() for v in block.values()]
        check(all(math.isfinite(v) for v in errors), "non-finite posterior-mean errors")
        if not self.w.criterion5:
            return
        mae = summary["pm_errors"]["insample"]["mae"]
        check(mae <= CRITERION5_MAE, f"in-sample MAE {mae} > {CRITERION5_MAE}")
        for level, tol in CRITERION5_COVERAGE.items():
            cov = summary["coverage"]["insample"][level]["mean"]
            check(abs(cov - float(level)) <= tol,
                  f"in-sample {level}% coverage {cov} outside {level} +/- {tol}")

    def _check_forecast(self, out) -> None:
        with np.load(os.path.join(out, "forecast_draws.npz")) as data:
            draws = data["draws"]
        expected = (self.w.smf_draws, int(HORIZONS), self.w.n)
        check(draws.shape == expected, f"forecast draws {draws.shape}, expected {expected}")
        check(bool(np.isfinite(draws).all()), "forecast draws hold non-finite values")


# ---------------------------------------------------------------------------
# provenance


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):
        return {"name": "unknown", "version": "unknown"}


def _git_commit(root) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _source_digest(src) -> str:
    """SHA-256 over the package sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    pkg = os.path.join(src, "dfmvi")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed: int, blas_threads: int) -> dict:
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    root = os.path.dirname(src)
    return {
        "machine": {
            "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": _blas(),
            "blas_thread_cap": blas_threads,
        },
        "run": {
            "git_commit": _git_commit(root),
            "source_sha256": _source_digest(src),
            "workload_seed": seed,
            "panel_seed": PANEL_SEED,
        },
    }


# ---------------------------------------------------------------------------
# run loop


def _schedule(w: Workload) -> list[tuple[str, int]]:
    """Commands of one round as (command, repeat), each spread evenly.

    The first fit and Gibbs run come first: compare and forecast read them.
    """
    ops = [("fit", j, j / w.fit_repeats) for j in range(w.fit_repeats)]
    ops += [("gibbs", j, j / w.gibbs_repeats) for j in range(w.gibbs_repeats)]
    ops += [("compare", 0, 0.5)]
    ops += [("forecast", j, (j + 0.5) / w.forecast_repeats)
            for j in range(w.forecast_repeats)]
    ops.sort(key=lambda op: op[2])  # stable: ties keep the order above
    return [(command, j) for command, j, _ in ops]


def _another_round(done: int, minimum: int, started: float, seconds: float) -> bool:
    """Run the minimum, then more while the next round ends within half a
    round of the budget, so runs last the budget on average."""
    elapsed = time.perf_counter() - started
    return done < minimum or elapsed + 0.5 * elapsed / done <= seconds


def _kernel_calls(tracer) -> int:
    calls = Counter(span.name for span in tracer.spans)
    return min(calls[t.name] for t in tracer.timed if t.kernel)


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 reference: dict, out_root: str, blas_threads: int) -> dict:
    """Run set-up and rounds; return the result with its details."""
    os.makedirs(out_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{workload.name}-", dir=out_root)
    tag = f"{workload.name}-seed{seed}-trace{int(trace)}"
    details = {
        "workload": asdict(workload),
        "seed": seed,
        "trace": trace,
        "provenance": provenance(seed, blas_threads),
    }
    try:
        run = Run(workload, seed, work, reference)
        run.setup_sample()
        started = time.perf_counter()
        if not trace:
            # A set-up sample after each round spreads them over the run.
            rounds = 0
            while _another_round(rounds, 2, started, seconds):
                run.round(rounds)
                rounds += 1
                run.setup_sample()
            metrics = run.medians(traced=False)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
            units = END_TO_END_UNITS
        else:
            # Untraced rounds before and after the traced ones, so the
            # overhead is not mistaken for the first round's warm-up or for
            # a drift of the machine's speed.
            run.round(0)
            tracer = tracing.Tracer()
            run.traced = True
            run_ids, needed = [], 2
            with tracer:
                while _another_round(len(run_ids), needed, started, seconds):
                    run_ids.append(f"round{len(run_ids) + 1}")
                    tracer.start_run(run_ids[-1])
                    run.round(len(run_ids))
                    if len(run_ids) == 1:
                        per_round = max(_kernel_calls(tracer), 1)
                        needed = max(2, math.ceil(MIN_KERNEL_CALLS / per_round))
            run.traced = False
            run.round(len(run_ids) + 1)
            metrics, mismatches = tracer.layer_metrics(run_ids)
            run.failures.extend(f"exact count: {m}" for m in mismatches)
            traced, untraced = run.medians(traced=True), run.medians(traced=False)
            for key in ("fit_s", "gibbs_ms_per_draw"):
                metrics[f"trace.overhead.{key}"] = traced[key] - untraced[key]
            spans_path = os.path.join(out_root, f"{tag}-spans.jsonl")
            tracer.write_spans(spans_path)
            details.update({
                "untraced": untraced,
                "traced": traced,
                "span_file": spans_path,
                "shares": tracer.shares(run_ids),
            })
            units = tracing.per_layer_metric_units()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    details["fits"] = run.fit_info
    details["timings"] = run.timings
    details["reference_times_s"] = run.reference_times
    if not trace:
        details["speed_ratio_50k"] = {
            "value": 50_000 * metrics["gibbs_ms_per_draw"] / 1e3 / metrics["fit_s"],
            "gate": 50,
            "definition": "50k-draw Gibbs wall time over fit wall time",
        }
    details["failures"] = run.failures
    details["result"] = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    results = os.path.join(out_root, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1)
    return details


def print_result(details: dict) -> None:
    """Human-readable lines, then the result object as the last line."""
    result = details["result"]
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"ops_failed/ops_attempted {result['failed']}/{result['attempted']}")
    for failure in details["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    info = {k: details[k] for k in ("provenance", "fits", "speed_ratio_50k", "shares")
            if k in details}
    print(json.dumps(info))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
