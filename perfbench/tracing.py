"""Span tracing for the benchmark's traced run.

Timing wrappers are installed by swapping attributes of the ``dfmvi``
modules and restored afterwards, so the program itself carries no
instrumentation.  The modules look these names up at call time (``vi``
calls ``statespace.build_collapsed_system``, ``cli.main`` rebuilds its
parser and so picks up the swapped ``cmd_*``), so every call made through
the pipeline passes through a wrapper.

Each call records a span: name, start, end, parent span and run id.  Spans
stay in memory and are written out when the run ends.  A span's self time
is its duration minus the durations of its direct children; the pipeline
runs on one thread, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Timed:
    """One public function timed in the traced run.

    ``kernel`` marks the per-iteration and per-draw kernels, which also
    report a 90th percentile; ``self_time`` marks functions with timed
    children, which also report self time.  ``observe`` maps the bound
    call arguments and the result to counts recorded at this boundary.
    """

    module: str
    attr: str
    kernel: bool = False
    self_time: bool = False
    observe: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


def _filter_steps(call, result):
    return {"statespace.steps": call.arguments["params"].y_star.shape[0]}


def _fit_iterations(call, result):
    return {"vi.fit_smf.iterations": result[2].iterations}


def _gibbs_store(call, result):
    arrays = (result.lambdas, result.sigma2, result.phi, result.states)
    return {
        "gibbs.sweeps": call.arguments["config"].n_draws,
        # Bytes computed from the array shapes, not measured.
        "gibbs.store_bytes": sum(a.size * a.itemsize for a in arrays),
    }


def _sign_draws(call, result):
    restrictions = call.arguments["restrictions"]
    # Each call accepts one draw per sign-restricted equation (or raises).
    accepted = 0 if restrictions is None else len(restrictions.positive)
    return {"gibbs.rejections": result[3], "gibbs.accepted_sign_draws": accepted}


TIMED = (
    Timed("panel", "load_csv"),
    Timed("panel", "standardize"),
    Timed("panel", "write_csv"),
    Timed("sim", "simulate_dfm"),
    Timed("statespace", "build_collapsed_system", kernel=True),
    Timed("statespace", "kalman_filter", kernel=True, observe=_filter_steps),
    Timed("statespace", "kalman_smoother", kernel=True),
    Timed("vi", "fit_smf", self_time=True, observe=_fit_iterations),
    Timed("vi", "update_states", self_time=True),
    Timed("vi", "init_from_pca", self_time=True),
    Timed("vi", "update_loadings", kernel=True),
    Timed("vi", "update_transition"),
    Timed("vi", "compute_elbo", kernel=True),
    Timed("gibbs", "run_gibbs", self_time=True, observe=_gibbs_store),
    Timed("gibbs", "sample_states_ffbs", kernel=True),
    Timed("gibbs", "sample_parameters", kernel=True, observe=_sign_draws),
    Timed("gibbs", "save_draws"),
    Timed("gibbs", "load_draws"),
    Timed("forecast", "compare_posteriors", self_time=True),
    Timed("forecast", "draw_predictive", self_time=True),
    Timed("cli", "cmd_simulate", self_time=True),
    Timed("cli", "cmd_fit", self_time=True),
    Timed("cli", "cmd_gibbs", self_time=True),
    Timed("cli", "cmd_compare", self_time=True),
    Timed("cli", "cmd_forecast", self_time=True),
)

# Counts that must repeat exactly between runs of the same code and seed.
EXACT_COUNTS = (
    "statespace.steps",
    "vi.fit_smf.iterations",
    "gibbs.sweeps",
    "gibbs.rejections",
    "gibbs.store_bytes",
)


def per_layer_metric_units() -> dict:
    """Every per-layer metric the traced run emits, with its unit."""
    units = {}
    for t in TIMED:
        units[f"{t.name}.calls"] = "count"
        units[f"{t.name}.total_ms"] = "ms"
        units[f"{t.name}.p50_ms"] = "ms"
        if t.kernel:
            units[f"{t.name}.p90_ms"] = "ms"
        if t.self_time:
            units[f"{t.name}.self_ms"] = "ms"
    for name in EXACT_COUNTS:
        units[name] = "bytes" if name.endswith("bytes") else "count"
    units["gibbs.accept_ratio"] = "ratio"
    units["trace.overhead.fit_s"] = "s"
    units["trace.overhead.gibbs_ms_per_draw"] = "ms"
    return units


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: str


class Tracer:
    """Records spans and boundary counts for the functions in ``TIMED``."""

    def __init__(self):
        self.timed = TIMED
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.run_id = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._originals = []

    def start_run(self, run_id: str) -> None:
        self.run_id = run_id
        self.counts[run_id] = Counter()

    def _wrap(self, spec: Timed, func):
        signature = inspect.signature(func) if spec.observe else None

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append(
                    Span(span_id, spec.name, start, end, parent, self.run_id)
                )
            if spec.observe is not None:
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                self.counts[self.run_id].update(spec.observe(call, result))
            return result

        traced.__wrapped__ = func
        return traced

    def __enter__(self):
        """Swap the timing wrappers onto the module attributes."""
        for spec in self.timed:
            module = importlib.import_module(f"dfmvi.{spec.module}")
            original = getattr(module, spec.attr)
            self._originals.append((module, spec.attr, original))
            setattr(module, spec.attr, self._wrap(spec, original))
        return self

    def __exit__(self, *exc):
        """Put the original functions back."""
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)
        return False

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

    def shares(self, run_ids) -> dict:
        """Shares of fit and Gibbs time spent in their main children."""
        spans = [s for s in self.spans if s.run_id in run_ids]
        by_id = {s.span_id: s for s in spans}

        def under(span, ancestor):
            parent = span.parent
            while parent is not None:
                if by_id[parent].name == ancestor:
                    return True
                parent = by_id[parent].parent
            return False

        def share(ancestor, names):
            whole = sum(s.end_ns - s.start_ns for s in spans if s.name == ancestor)
            part = sum(
                s.end_ns - s.start_ns
                for s in spans
                if s.name in names and under(s, ancestor)
            )
            return part / whole if whole else 0.0

        return {
            "fit.state_pass": share("vi.fit_smf", {"vi.update_states"}),
            "fit.loadings_and_elbo": share(
                "vi.fit_smf", {"vi.update_loadings", "vi.compute_elbo"}
            ),
            "gibbs.ffbs": share("gibbs.run_gibbs", {"gibbs.sample_states_ffbs"}),
            "gibbs.sample_parameters": share(
                "gibbs.run_gibbs", {"gibbs.sample_parameters"}
            ),
        }

    def per_run(self, run_ids):
        """Per run id and function: call count, total and self time (ns)."""
        child_ns = Counter()
        for span in self.spans:
            if span.parent is not None:
                child_ns[span.parent] += span.end_ns - span.start_ns
        table = {rid: {} for rid in run_ids}
        durations = {t.name: [] for t in self.timed}
        for span in self.spans:
            if span.run_id not in table:
                continue
            dur = span.end_ns - span.start_ns
            calls, total, own = table[span.run_id].get(span.name, (0, 0, 0))
            table[span.run_id][span.name] = (
                calls + 1, total + dur, own + dur - child_ns[span.span_id]
            )
            durations[span.name].append(dur)
        return table, durations

    def layer_metrics(self, run_ids) -> tuple[dict, list[str]]:
        """Per-layer metrics over the given runs, plus any count mismatches.

        Calls and counts are per run and must be equal in every run; times
        are medians over runs (totals, self) or over all calls (p50, p90).
        """
        table, durations = self.per_run(run_ids)
        metrics, mismatches = {}, []

        def per_run_exact(name, values):
            if len(set(values)) > 1:
                mismatches.append(f"{name} differs between runs: {values}")
            return values[0]

        for t in self.timed:
            rows = [table[rid].get(t.name, (0, 0, 0)) for rid in run_ids]
            durs = sorted(durations[t.name])
            metrics[f"{t.name}.calls"] = per_run_exact(
                f"{t.name}.calls", [row[0] for row in rows]
            )
            metrics[f"{t.name}.total_ms"] = statistics.median(row[1] for row in rows) / 1e6
            metrics[f"{t.name}.p50_ms"] = (statistics.median(durs) if durs else 0) / 1e6
            if t.kernel:
                p90 = statistics.quantiles(durs, n=10)[-1] if len(durs) > 1 else sum(durs)
                metrics[f"{t.name}.p90_ms"] = p90 / 1e6
            if t.self_time:
                metrics[f"{t.name}.self_ms"] = (
                    statistics.median(row[2] for row in rows) / 1e6
                )
        for name in EXACT_COUNTS:
            metrics[name] = per_run_exact(name, [self.counts[rid][name] for rid in run_ids])
        # Every fit of a round runs at the same seed on the same panel, so
        # each took this many iterations to tolerance.
        metrics["vi.fit_smf.iterations"] //= max(metrics["vi.fit_smf.calls"], 1)
        first = self.counts[run_ids[0]]
        accepted = first["gibbs.accepted_sign_draws"]
        attempted = accepted + first["gibbs.rejections"]
        metrics["gibbs.accept_ratio"] = accepted / attempted if attempted else 1.0
        return metrics, mismatches
