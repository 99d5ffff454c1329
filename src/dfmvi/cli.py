"""Command-line entry point for reproducible estimation runs.

Commands: ``simulate``, ``fit``, ``gibbs``, ``forecast``, ``compare``.
Every command reads an optional declarative JSON config (flags override
config values), writes its artifacts under a fixed set of filenames in the
output directory, and records a manifest carrying the config echo, a hash
of the estimation-relevant configuration, the seed and wall time.
``compare`` and ``forecast --source gibbs`` refuse fit and Gibbs artifacts
whose configuration hashes differ.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, forecast, gibbs, panel as panel_mod, sim, vi
from .errors import DfmError, DomainError
from .model import (
    ModelSpec,
    default_prior,
    identification_restrictions,
)

_CONFIG_DEFAULTS = {
    "n": None,
    "r": 1,
    "p": 0,
    "eta_lambda": 1.0,
    "eta_phi": 1.0,
    "ell_lambda": 2.0,
    "ell_phi": 2.0,
    "nu": 1.0,
    "tau2": 1.0,
    "tolerance": 1e-7,
    "max_iters": 500,
    "seed": 0,
    "standardize": True,
    "identification": [],
    "draws": 50_000,
    "burn_in_fraction": 0.10,
    "thin": 1,
    "horizons": 6,
    "levels": [50, 75, 95],
    "smf_draws": 10_000,
    "T": 200,
    "missing_rate": 0.0,
    "eta_grid": [],
}


def _read_config_file(path):
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    unknown = set(obj) - set(_CONFIG_DEFAULTS)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    return obj


def _resolve(args, keys) -> dict:
    """Defaults, overridden by the config file, overridden by flags."""
    resolved = {k: _CONFIG_DEFAULTS[k] for k in keys}
    if getattr(args, "config", None):
        file_cfg = _read_config_file(args.config)
        for k in keys:
            if k in file_cfg:
                resolved[k] = file_cfg[k]
    for k in keys:
        flag = getattr(args, k, None)
        if flag is not None:
            resolved[k] = flag
    return resolved


def _parse_identify(items, names):
    """Resolve repeated VAR:FACTOR anchor flags; VAR by name or index."""
    anchors = []
    for item in items:
        if isinstance(item, (list, tuple)):
            var, fac = item
        else:
            var, _, fac = str(item).partition(":")
            if not fac:
                raise DomainError(f"--identify expects VAR:FACTOR, got {item!r}")
        if isinstance(var, str) and not var.lstrip("-").isdigit():
            if var not in names:
                raise DomainError(f"identifying variable {var!r} not in panel")
            var = names.index(var)
        anchors.append((int(var), int(fac)))
    return anchors


def _panel_sha(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _hash_config(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _model_fingerprint(panel_path, cfg, anchors) -> dict:
    return {
        "panel_sha256": _panel_sha(panel_path),
        "n": cfg["n"],
        "r": cfg["r"],
        "p": cfg["p"],
        "eta_lambda": cfg["eta_lambda"],
        "eta_phi": cfg["eta_phi"],
        "ell_lambda": cfg["ell_lambda"],
        "ell_phi": cfg["ell_phi"],
        "nu": cfg["nu"],
        "tau2": cfg["tau2"],
        "identification": [list(a) for a in anchors],
        "standardize": bool(cfg["standardize"]),
    }


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_manifest(command, panel, out, values, fingerprint, wall_time, extra=None):
    manifest = {
        "command": command,
        "package_version": __version__,
        "panel": panel,
        "config": values,
        "model": fingerprint,
        "config_hash": _hash_config(fingerprint),
        "seed": values.get("seed", 0),
        "wall_time_s": wall_time,
    }
    if extra:
        manifest.update(extra)
    _write_json(os.path.join(out, "manifest.json"), manifest)
    return manifest


def _require_file(parser, path, what):
    if path is None or not os.path.exists(path):
        parser.error(f"{what} not found: {path}")


def _load_standardized(panel_path, do_standardize):
    raw = panel_mod.load_csv(panel_path)
    if do_standardize:
        std_panel, record = panel_mod.standardize(raw)
        return std_panel, record
    return raw, None


def _prepare_model(pan, cfg):
    n = cfg["n"] if cfg["n"] is not None else pan.n
    if n != pan.n:
        raise DomainError(f"config n = {n} but panel has {pan.n} columns")
    spec = ModelSpec(n=n, r=int(cfg["r"]), p=int(cfg["p"]))
    prior = default_prior(
        spec,
        eta_lambda=float(cfg["eta_lambda"]),
        eta_phi=float(cfg["eta_phi"]),
        ell_lambda=float(cfg["ell_lambda"]),
        ell_phi=float(cfg["ell_phi"]),
        nu=float(cfg["nu"]),
        tau2=float(cfg["tau2"]),
    )
    return spec, prior


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args, parser) -> int:
    keys = ("n", "r", "p", "T", "seed", "missing_rate")
    cfg = _resolve(args, keys)
    if cfg["n"] is None:
        cfg["n"] = 25
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    spec = ModelSpec(n=int(cfg["n"]), r=int(cfg["r"]), p=int(cfg["p"]))
    missing = []
    if cfg["missing_rate"] > 0:
        missing.append(sim.RandomMissing(rate=float(cfg["missing_rate"])))
    if args.ragged:
        cutoffs = {}
        for part in args.ragged.split(","):
            var, _, cut = part.partition(":")
            cutoffs[int(var)] = int(cut)
        missing.append(sim.RaggedEdge(cutoffs=cutoffs))
    if args.periodic:
        strides = {}
        for part in args.periodic.split(","):
            var, _, k = part.partition(":")
            strides[int(var)] = int(k)
        missing.append(sim.PeriodicMissing(strides=strides))
    config = sim.stationary_sim_config(
        spec, T=int(cfg["T"]), seed=int(cfg["seed"]), missing=tuple(missing)
    )
    pan, states = sim.simulate_dfm(config)
    panel_mod.write_csv(pan, os.path.join(args.out, "panel.csv"))
    _write_json(
        os.path.join(args.out, "truth.json"),
        {
            "loadings": config.loadings.tolist(),
            "noise_var": config.noise_var.tolist(),
            "trans": config.trans.tolist(),
            "states": states.tolist(),
            "seed": int(cfg["seed"]),
        },
    )
    fingerprint = {"generated": True, **{k: cfg[k] for k in keys}}
    _write_manifest(
        "simulate", None, args.out, cfg, fingerprint, time.perf_counter() - started
    )
    return 0


def _run_fit(pan, spec, prior, cfg, anchors):
    restrictions = (
        identification_restrictions(spec, anchors) if anchors else None
    )
    return vi.fit_smf(
        pan,
        spec,
        prior,
        tolerance=float(cfg["tolerance"]),
        max_iters=int(cfg["max_iters"]),
        restrictions=restrictions,
        seed=int(cfg["seed"]),
    )


def cmd_fit(args, parser) -> int:
    _require_file(parser, args.panel, "panel file")
    keys = (
        "n", "r", "p", "eta_lambda", "eta_phi", "ell_lambda", "ell_phi",
        "nu", "tau2", "tolerance", "max_iters", "seed", "standardize",
        "identification", "eta_grid",
    )
    cfg = _resolve(args, keys)
    if args.identify:
        cfg["identification"] = list(args.identify)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    pan, record = _load_standardized(args.panel, cfg["standardize"])
    anchors = _parse_identify(cfg["identification"], list(pan.names))
    cfg["identification"] = [list(a) for a in anchors]
    spec, prior = _prepare_model(pan, cfg)
    cfg["n"] = spec.n

    grid_log = []
    if cfg["eta_grid"]:
        best = None
        for eta in cfg["eta_grid"]:
            trial = dict(cfg, eta_lambda=float(eta), eta_phi=float(eta))
            _, trial_prior = _prepare_model(pan, trial)
            state_g, moments_g, report_g = _run_fit(pan, spec, trial_prior, trial, anchors)
            grid_log.append({"eta": float(eta), "elbo": float(report_g.elbo_trace[-1])})
            if best is None or report_g.elbo_trace[-1] > best[0]:
                best = (report_g.elbo_trace[-1], trial, state_g, moments_g, report_g)
        _, cfg_best, state, moments, report = best
        cfg["eta_lambda"] = cfg_best["eta_lambda"]
        cfg["eta_phi"] = cfg_best["eta_phi"]
        prior = _prepare_model(pan, cfg)[1]
    else:
        state, moments, report = _run_fit(pan, spec, prior, cfg, anchors)

    fit_time = time.perf_counter() - started
    fingerprint = _model_fingerprint(args.panel, cfg, anchors)
    _write_json(
        os.path.join(args.out, "variational.json"),
        {
            "state": vi.state_to_dict(state),
            "elbo_trace": [float(v) for v in report.elbo_trace],
            "iterations": report.iterations,
            "converged": report.converged,
            "seed": int(cfg["seed"]),
            "config": {k: cfg[k] for k in keys},
            "config_hash": _hash_config(fingerprint),
        },
    )
    with open(os.path.join(args.out, "elbo_trace.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "elbo"])
        for i, val in enumerate(report.elbo_trace):
            writer.writerow([i, repr(float(val))])
    s = spec.s
    with open(os.path.join(args.out, "states.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t"]
            + [f"mean_{k + 1}" for k in range(s)]
            + [f"sd_{k + 1}" for k in range(s)]
        )
        for t in range(moments.mean.shape[0]):
            sd = np.sqrt(np.clip(np.diag(moments.cov[t]), 0.0, None))
            writer.writerow(
                [t]
                + [repr(float(v)) for v in moments.mean[t]]
                + [repr(float(v)) for v in sd]
            )
    if record is not None:
        with open(os.path.join(args.out, "standardization.json"), "w") as fh:
            fh.write(record.to_json() + "\n")
    _write_manifest(
        "fit", args.panel, args.out, {k: cfg[k] for k in keys}, fingerprint, fit_time,
        extra={
            "iterations": report.iterations,
            "converged": report.converged,
            "fit_wall_time_s": report.wall_time,
            "eta_grid": grid_log,
        },
    )
    if not report.converged:
        print("warning: fit did not converge within max_iters", file=sys.stderr)
    return 0


def cmd_gibbs(args, parser) -> int:
    _require_file(parser, args.panel, "panel file")
    keys = (
        "n", "r", "p", "eta_lambda", "eta_phi", "ell_lambda", "ell_phi",
        "nu", "tau2", "seed", "standardize", "identification",
        "draws", "burn_in_fraction", "thin",
    )
    cfg = _resolve(args, keys)
    if args.identify:
        cfg["identification"] = list(args.identify)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    pan, _ = _load_standardized(args.panel, cfg["standardize"])
    anchors = _parse_identify(cfg["identification"], list(pan.names))
    cfg["identification"] = [list(a) for a in anchors]
    spec, prior = _prepare_model(pan, cfg)
    cfg["n"] = spec.n
    config = gibbs.GibbsConfig(
        n_draws=int(cfg["draws"]),
        burn_in_fraction=float(cfg["burn_in_fraction"]),
        seed=int(cfg["seed"]),
        identification=tuple(tuple(a) for a in anchors),
        thin=int(cfg["thin"]),
    )
    store = gibbs.run_gibbs(pan, spec, prior, config)
    gibbs.save_draws(store, os.path.join(args.out, "draws.npz"))
    wall = time.perf_counter() - started
    fingerprint = _model_fingerprint(args.panel, cfg, anchors)
    _write_manifest(
        "gibbs", args.panel, args.out, {k: cfg[k] for k in keys}, fingerprint, wall,
        extra={
            "stored_draws": store.n_draws,
            "rejections": store.rejections,
            "sampler_wall_time_s": wall,
        },
    )
    return 0


def _load_fit_artifacts(fit_dir):
    with open(os.path.join(fit_dir, "variational.json"), encoding="utf-8") as fh:
        var_obj = json.load(fh)
    with open(os.path.join(fit_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return vi.state_from_dict(var_obj["state"]), manifest


def _require_same_config(fit_manifest, gibbs_dir) -> None:
    """Refuse a Gibbs run whose configuration hash differs from the fit's."""
    with open(os.path.join(gibbs_dir, "manifest.json"), encoding="utf-8") as fh:
        gibbs_manifest = json.load(fh)
    if fit_manifest["config_hash"] != gibbs_manifest["config_hash"]:
        diff = {
            k: (fit_manifest["model"].get(k), gibbs_manifest["model"].get(k))
            for k in set(fit_manifest["model"]) | set(gibbs_manifest["model"])
            if fit_manifest["model"].get(k) != gibbs_manifest["model"].get(k)
        }
        raise DomainError(
            "fit and gibbs artifacts were produced under different "
            f"panel/model/identification settings; differing fields: {diff}"
        )


def cmd_forecast(args, parser) -> int:
    _require_file(parser, args.panel, "panel file")
    _require_file(parser, os.path.join(args.fit, "variational.json"), "fit artifact")
    keys = ("horizons", "smf_draws", "seed")
    cfg = _resolve(args, keys)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    state, fit_manifest = _load_fit_artifacts(args.fit)
    fit_cfg = dict(_CONFIG_DEFAULTS)
    fit_cfg.update(fit_manifest["config"])
    pan, record = _load_standardized(args.panel, fit_cfg["standardize"])
    spec, prior = _prepare_model(pan, fit_cfg)

    if args.source == "gibbs":
        if not args.gibbs:
            parser.error("--source gibbs requires --gibbs DIR")
        _require_file(parser, os.path.join(args.gibbs, "draws.npz"), "draw store")
        _require_same_config(fit_manifest, args.gibbs)
        source = gibbs.load_draws(os.path.join(args.gibbs, "draws.npz"))
        n_draws = source.n_draws
    else:
        source = state
        n_draws = int(cfg["smf_draws"])
    arr = forecast.draw_predictive(
        source, pan, spec, prior,
        horizons=int(cfg["horizons"]), n_draws=n_draws, seed=int(cfg["seed"]),
    )
    if args.original_units:
        std_path = os.path.join(args.fit, "standardization.json")
        if record is None and os.path.exists(std_path):
            with open(std_path, encoding="utf-8") as fh:
                record = panel_mod.StandardizationRecord.from_json(fh.read())
        if record is not None:
            arr = panel_mod.unstandardize(arr, record)
    np.savez(os.path.join(args.out, "forecast_draws.npz"), draws=arr)
    qs = forecast.draw_quantiles(arr, [0.025, 0.25, 0.5, 0.75, 0.975])
    with open(os.path.join(args.out, "forecast_summary.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variable", "h", "mean", "q2.5", "q25", "median", "q75", "q97.5"]
        )
        for h in range(arr.shape[1]):
            for i in range(arr.shape[2]):
                writer.writerow(
                    [pan.names[i], h + 1, repr(float(arr[:, h, i].mean()))]
                    + [repr(float(qs[k, h, i])) for k in range(5)]
                )
    _write_manifest(
        "forecast", args.panel, args.out, {**cfg, "source": args.source},
        fit_manifest["model"], time.perf_counter() - started,
    )
    return 0


def cmd_compare(args, parser) -> int:
    _require_file(parser, args.panel, "panel file")
    _require_file(parser, os.path.join(args.fit, "variational.json"), "fit artifact")
    _require_file(parser, os.path.join(args.gibbs, "draws.npz"), "draw store")
    _require_file(parser, os.path.join(args.gibbs, "manifest.json"), "gibbs manifest")
    keys = ("horizons", "smf_draws", "seed", "levels")
    cfg = _resolve(args, keys)
    os.makedirs(args.out, exist_ok=True)
    started = time.perf_counter()
    state, fit_manifest = _load_fit_artifacts(args.fit)
    _require_same_config(fit_manifest, args.gibbs)
    fit_cfg = dict(_CONFIG_DEFAULTS)
    fit_cfg.update(fit_manifest["config"])
    pan, _ = _load_standardized(args.panel, fit_cfg["standardize"])
    spec, prior = _prepare_model(pan, fit_cfg)
    store = gibbs.load_draws(os.path.join(args.gibbs, "draws.npz"))

    report = forecast.compare_posteriors(
        pan, spec, prior, state, store,
        horizons=int(cfg["horizons"]),
        n_smf_draws=int(cfg["smf_draws"]),
        seed=int(cfg["seed"]),
        levels=tuple(int(v) for v in cfg["levels"]),
    )
    with open(os.path.join(args.out, "report_pm_errors.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block", "me", "mae", "rmse"])
        for block, errs in report.pm_errors.items():
            writer.writerow(
                [block, repr(errs["me"]), repr(errs["mae"]), repr(errs["rmse"])]
            )
    # The rows csv.writer would give: fixed block names and repr floats need
    # no quoting, and each (block, level) chunk is written at once.  Coverage
    # takes few distinct values, so repr runs once per distinct bit pattern.
    with open(os.path.join(args.out, "report_coverage.csv"), "w", newline="") as fh:
        fh.write("block,level,element,coverage_pct\r\n")
        for block, per_level in report.coverage.items():
            for level, cov in per_level.items():
                bits = np.asarray(cov, dtype=float).ravel().view(np.int64)
                distinct, which = np.unique(bits, return_inverse=True)
                text = [repr(v) for v in distinct.view(float).tolist()]
                prefix = f"{block},{level},"
                fh.write("".join(
                    [f"{prefix}{e},{text[k]}\r\n" for e, k in enumerate(which.tolist())]
                ))
    _write_json(
        os.path.join(args.out, "report_summary.json"),
        {
            "pm_errors": report.pm_errors,
            "coverage": report.coverage_summary(),
            "levels": list(report.levels),
        },
    )
    _write_manifest(
        "compare", args.panel, args.out, {k: cfg[k] for k in keys},
        fit_manifest["model"], time.perf_counter() - started,
    )
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(sub):
    sub.add_argument("--n", type=int)
    sub.add_argument("--r", type=int)
    sub.add_argument("--p", type=int)
    sub.add_argument("--eta-lambda", dest="eta_lambda", type=float)
    sub.add_argument("--eta-phi", dest="eta_phi", type=float)
    sub.add_argument("--ell-lambda", dest="ell_lambda", type=float)
    sub.add_argument("--ell-phi", dest="ell_phi", type=float)
    sub.add_argument("--nu", type=float)
    sub.add_argument("--tau2", type=float)
    sub.add_argument(
        "--no-standardize", dest="standardize", action="store_false", default=None
    )
    sub.add_argument("--identify", action="append", default=None, metavar="VAR:FACTOR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dfmvi",
        description="Variational and MCMC estimation of dynamic factor models "
        "with arbitrary missing data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic panel")
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--config")
    p_sim.add_argument("--n", type=int)
    p_sim.add_argument("--r", type=int)
    p_sim.add_argument("--p", type=int)
    p_sim.add_argument("--t", dest="T", type=int)
    p_sim.add_argument("--seed", type=int)
    p_sim.add_argument("--missing-rate", dest="missing_rate", type=float)
    p_sim.add_argument("--ragged", help="VAR:CUTOFF[,VAR:CUTOFF...]")
    p_sim.add_argument("--periodic", help="VAR:STRIDE[,VAR:STRIDE...]")
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="variational fit")
    p_fit.add_argument("--panel", required=True)
    p_fit.add_argument("--out", required=True)
    p_fit.add_argument("--config")
    _add_model_flags(p_fit)
    p_fit.add_argument("--tolerance", type=float)
    p_fit.add_argument("--max-iters", dest="max_iters", type=int)
    p_fit.add_argument("--seed", type=int)
    p_fit.add_argument(
        "--eta-grid", dest="eta_grid",
        type=lambda v: [float(x) for x in v.split(",")],
        help="comma-separated overall shrinkage values to try (stub grid)",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_gibbs = sub.add_parser("gibbs", help="Gibbs sampler benchmark")
    p_gibbs.add_argument("--panel", required=True)
    p_gibbs.add_argument("--out", required=True)
    p_gibbs.add_argument("--config")
    _add_model_flags(p_gibbs)
    p_gibbs.add_argument("--draws", type=int)
    p_gibbs.add_argument(
        "--burn-in", dest="burn_in_fraction", type=float,
        help="burn-in fraction in [0, 1)",
    )
    p_gibbs.add_argument("--thin", type=int)
    p_gibbs.add_argument("--seed", type=int)
    p_gibbs.set_defaults(func=cmd_gibbs)

    p_fc = sub.add_parser("forecast", help="predictive draws from a fit")
    p_fc.add_argument("--panel", required=True)
    p_fc.add_argument("--fit", required=True, help="directory with fit artifacts")
    p_fc.add_argument("--out", required=True)
    p_fc.add_argument("--config")
    p_fc.add_argument("--source", choices=["smf", "gibbs"], default="smf")
    p_fc.add_argument("--gibbs", help="directory with gibbs artifacts")
    p_fc.add_argument("--horizons", type=int)
    p_fc.add_argument("--smf-draws", dest="smf_draws", type=int)
    p_fc.add_argument("--seed", type=int)
    p_fc.add_argument("--original-units", action="store_true")
    p_fc.set_defaults(func=cmd_forecast)

    p_cmp = sub.add_parser("compare", help="compare a fit against a Gibbs run")
    p_cmp.add_argument("--panel", required=True)
    p_cmp.add_argument("--fit", required=True)
    p_cmp.add_argument("--gibbs", required=True)
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--config")
    p_cmp.add_argument("--horizons", type=int)
    p_cmp.add_argument("--smf-draws", dest="smf_draws", type=int)
    p_cmp.add_argument(
        "--levels", type=lambda v: [int(x) for x in v.split(",")]
    )
    p_cmp.add_argument("--seed", type=int)
    p_cmp.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except DfmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
