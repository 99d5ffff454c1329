"""Command-line entry point for reproducible estimation runs.

Commands: ``simulate``, ``fit``, ``gibbs``, ``forecast``, ``compare``.
Each setting is declared once, in ``_SETTINGS``: its default, its flag and
any extra argparse keywords; its type is its default's.  ``_KEYS`` lists
the settings each command reads, and the flags, the config-file checks and
the model fingerprint are all built from these two tables.  ``n`` is a
``simulate`` setting only: ``fit`` and ``gibbs`` take it from the panel's
width, and the fingerprint records it.  Every command reads an optional
declarative JSON config (flags override config values), writes its
artifacts under a fixed set of filenames in the output directory, and
records a manifest carrying the config echo, a hash of the
estimation-relevant configuration, the seed and wall time.  ``fit`` and
``gibbs`` read the panel file once and record the SHA-256 of the bytes they
parse.  The last panel parsed is kept, keyed by that digest and the
standardization setting, so an in-process caller that fits and samples one
panel parses it once; an edited file never matches.  ``fit`` also stores its
final state moments, which ``forecast`` and ``compare`` read in place of
parsing the panel and running the state pass; only ``forecast
--original-units`` reads its standardization record.  Text artifacts are
written as UTF-8 whatever the locale; the output directory is made at the
first write.  ``compare`` and ``forecast --source gibbs`` refuse a Gibbs run
without draws or manifest, or whose configuration hash differs from the
fit's.  The computing modules (``vi``, ``gibbs``, ``forecast``, ``statespace``) are
imported by the commands that use them, so ``simulate`` loads numpy only.
They load scipy only when they factor a path precision or build a fit's
constants, so ``fit`` and ``gibbs`` load it and ``forecast`` and ``compare``
do not.  The parser is built once per process, which saves its construction
for in-process callers.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
import time
from functools import cache

import numpy as np

from . import __version__, panel as panel_mod, sim
from .errors import DfmError, DomainError
from .model import ModelSpec, default_prior, identification_restrictions


def _argv_text(arg: str) -> str:
    """An argument read as UTF-8 whatever the locale: Python keeps each byte
    the locale cannot decode as a lone surrogate (U+DC80-U+DCFF)."""
    if any("\udc80" <= c <= "\udcff" for c in arg):
        return os.fsencode(arg).decode("utf-8", "surrogateescape")
    return arg


# key: (default, flag, extra argparse keywords).  Int and float settings
# take their flag's type from the default.
_SETTINGS = {
    "n": (25, "--n", {}),
    "r": (1, "--r", {}),
    "p": (0, "--p", {}),
    "eta_lambda": (1.0, "--eta-lambda", {}),
    "eta_phi": (1.0, "--eta-phi", {}),
    "ell_lambda": (2.0, "--ell-lambda", {}),
    "ell_phi": (2.0, "--ell-phi", {}),
    "nu": (1.0, "--nu", {}),
    "tau2": (1.0, "--tau2", {}),
    "standardize": (True, "--no-standardize", {"action": "store_false"}),
    "identification": (
        [], "--identify",
        {"action": "append", "metavar": "VAR:FACTOR", "type": _argv_text},
    ),
    "seed": (0, "--seed", {}),
    "tolerance": (1e-7, "--tolerance", {}),
    "max_iters": (500, "--max-iters", {}),
    "eta_grid": ([], "--eta-grid", {
        "type": lambda v: [float(x) for x in v.split(",")],
        "help": "comma-separated overall shrinkage values to try (stub grid)",
    }),
    "draws": (50_000, "--draws", {}),
    "burn_in_fraction": (0.10, "--burn-in", {"help": "burn-in fraction in [0, 1)"}),
    "thin": (1, "--thin", {}),
    "horizons": (6, "--horizons", {}),
    "smf_draws": (10_000, "--smf-draws", {}),
    "levels": ([50, 75, 95], "--levels", {
        "type": lambda v: [int(x) for x in v.split(",")],
    }),
    "T": (200, "--t", {}),
    "missing_rate": (0.0, "--missing-rate", {}),
}

# The fit's final StateMoments, the panel's column names and the fit's panel
# digest and seed; forecast and compare read it instead of a state pass.
_MOMENTS_FILE = "moments.npz"

_PRIOR_KEYS = ("eta_lambda", "eta_phi", "ell_lambda", "ell_phi", "nu", "tau2")
_MODEL_KEYS = ("r", "p", *_PRIOR_KEYS, "standardize", "identification", "seed")
_KEYS = {
    "simulate": ("n", "r", "p", "T", "seed", "missing_rate"),
    "fit": _MODEL_KEYS + ("tolerance", "max_iters", "eta_grid"),
    "gibbs": _MODEL_KEYS + ("draws", "burn_in_fraction", "thin"),
    "forecast": ("horizons", "smf_draws", "seed"),
    "compare": ("horizons", "smf_draws", "levels", "seed"),
}


def _kind(key) -> type:
    return type(_SETTINGS[key][0])


def _is_kind(value, kind) -> bool:
    """A JSON value of ``kind``: bools only for bool, ints also for float."""
    return isinstance(value, bool) == (kind is bool) and isinstance(
        value, (int, float) if kind is float else kind
    )


def _read_config_file(path) -> dict:
    """The config object, with every key known and every value of its type.

    Values are checked, not converted, so the echo and hash of a valid
    config keep its exact JSON values.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise DomainError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DomainError(f"config file {path} does not hold a JSON object")
    unknown = set(obj) - set(_SETTINGS)
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    for key, value in obj.items():
        kind = _kind(key)
        if not _is_kind(value, kind):
            raise DomainError(
                f"config key {key!r} must be of type {kind.__name__}, got {value!r}"
            )
        element = {"eta_grid": float, "levels": int}.get(key)
        if element and not all(_is_kind(v, element) for v in value):
            raise DomainError(
                f"config key {key!r} must list values of type {element.__name__}, "
                f"got {value!r}"
            )
    return obj


def _resolve(args, keys) -> dict:
    """Defaults, overridden by the config file, overridden by flags.

    Float settings and the elements of ``eta_grid`` must be finite: flags
    parse "nan" and "inf", and JSON configs may hold NaN and Infinity.  The
    seed must be non-negative, as numpy's generators require.
    """
    resolved = {k: _SETTINGS[k][0] for k in keys}
    if args.config:
        file_cfg = _read_config_file(args.config)
        resolved.update((k, file_cfg[k]) for k in keys if k in file_cfg)
    for k in keys:
        if getattr(args, k) is not None:
            resolved[k] = getattr(args, k)
    for k in keys:
        if (k == "eta_grid" or _kind(k) is float) and not np.all(np.isfinite(resolved[k])):
            raise DomainError(
                f"setting {k} ({_SETTINGS[k][1]}) must be finite, got {resolved[k]!r}"
            )
    if resolved.get("seed", 0) < 0:
        raise DomainError(
            f"setting seed (--seed) must be non-negative, got {resolved['seed']!r}"
        )
    return resolved


def _int_pairs(text, flag) -> dict:
    """Parse ``A:B[,A:B...]`` into {A: B}."""
    try:
        return {
            int(a): int(b)
            for a, _, b in (part.partition(":") for part in text.split(","))
        }
    except ValueError:
        raise DomainError(f"{flag} expects INT:INT[,INT:INT...], got {text!r}") from None


def _parse_identify(items, names) -> list:
    """Resolve VAR:FACTOR flags or [VAR, FACTOR] pairs; VAR by name or index,
    each index an int or its digits (a float or a bool is refused)."""
    anchors = []
    for item in items:
        var = fac = None
        if isinstance(item, str):
            var, _, fac = item.partition(":")
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            var, fac = item
        if isinstance(var, str) and not var.lstrip("-").isdigit():
            if var not in names:
                raise DomainError(f"identifying variable {var!r} not in panel")
            var = names.index(var)
        try:
            if isinstance(var, (bool, float)) or isinstance(fac, (bool, float)):
                raise TypeError
            anchors.append([int(var), int(fac)])
        except (TypeError, ValueError):
            raise DomainError(
                f"--identify (config key identification) expects VAR:FACTOR, "
                f"got {item!r}"
            ) from None
    return anchors


def _hashed_bytes(path) -> tuple[str, bytes]:
    """A file's SHA-256 and its bytes, read once."""
    with open(path, "rb") as fh:
        data = fh.read()
    return hashlib.sha256(data).hexdigest(), data


def _hash_config(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True).encode("utf-8")
    ).hexdigest()


def _model_fingerprint(panel_sha, cfg) -> dict:
    return {
        "panel_sha256": panel_sha,
        "n": cfg["n"],
        **{k: cfg[k] for k in _MODEL_KEYS if k != "seed"},
        "standardize": bool(cfg["standardize"]),
    }


def _write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _write_rows(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _out_path(args, name) -> str:
    """The path of artifact ``name``, making the output directory first."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _write_manifest(args, values, fingerprint, wall_time, **extra) -> None:
    _write_json(
        _out_path(args, "manifest.json"),
        {
            "command": args.command,
            "package_version": __version__,
            "panel": getattr(args, "panel", None),
            "config": values,
            "model": fingerprint,
            "config_hash": _hash_config(fingerprint),
            "seed": values["seed"],
            "wall_time_s": wall_time,
            **extra,
        },
    )


def _require_file(parser, path, what):
    if path is None or not os.path.exists(path):
        parser.error(f"{what} not found: {path}")


def _open_run(args, parser, keys, *inputs):
    """Check the (path, description) inputs, resolve the settings and start
    the clock."""
    for path, what in inputs:
        _require_file(parser, path, what)
    return _resolve(args, keys), time.perf_counter()


def _prepare_model(pan, cfg):
    spec = ModelSpec(n=pan.n, r=cfg["r"], p=cfg["p"])
    return spec, default_prior(spec, **{k: float(cfg[k]) for k in _PRIOR_KEYS})


# The last panel fit or gibbs read: {(sha256, standardize): (panel, record)}.
# It holds one entry, keyed by the file's content, so an in-process caller
# that fits and samples one panel parses its bytes once.
_last_panel = {}


def _read_panel(path, standardize):
    """The panel file's SHA-256, its panel (standardized if asked) and the
    standardization record (None if not).

    The file is read once, and the digest and the panel come from the same
    bytes.  A panel whose bytes and standardization match the last one read
    in this process is not parsed again; a failed parse is not kept.
    """
    sha, data = _hashed_bytes(path)
    key = (sha, bool(standardize))
    if key not in _last_panel:
        _last_panel.clear()
        raw = panel_mod.load_csv(path, data=data)
        _last_panel[key] = panel_mod.standardize(raw) if standardize else (raw, None)
    return sha, *_last_panel[key]


def _load_model(args, cfg):
    """Panel digest, panel, standardization record, spec, prior and the
    command's one ``Restrictions`` for fit and gibbs.

    Resolves the anchors and the panel width into ``cfg``.
    """
    sha, pan, record = _read_panel(args.panel, cfg["standardize"])
    cfg["identification"] = _parse_identify(cfg["identification"], list(pan.names))
    spec, prior = _prepare_model(pan, cfg)
    cfg["n"] = spec.n
    restrictions = identification_restrictions(spec, cfg["identification"])
    return sha, pan, record, spec, prior, restrictions


def _load_fit_run(args):
    """The fit's state, loading mask, manifest, state moments and column names.

    The command has checked that ``variational.json``, ``manifest.json`` and
    the moments file exist.  Refuses a panel other than the fit's, and a
    moments file whose panel digest or seed differ from the manifest's.  The
    panel itself is only hashed: the moments are the ones ``fit_smf``
    returned, so no state pass runs here.
    """
    from . import vi
    from .statespace import StateMoments

    with open(os.path.join(args.fit, "variational.json"), encoding="utf-8") as fh:
        record = json.load(fh)["state"]
    state, free = vi.state_from_dict(record), np.asarray(record["free"], dtype=bool)
    with open(os.path.join(args.fit, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    sha, fitted = _hashed_bytes(args.panel)[0], manifest["model"]["panel_sha256"]
    if sha != fitted:
        raise DomainError(
            f"panel {args.panel} (sha256 {sha}) is not the panel the fit was "
            f"run on (sha256 {fitted})"
        )
    path = os.path.join(args.fit, _MOMENTS_FILE)
    with np.load(path) as data:
        stored = (str(data["panel_sha256"]), int(data["seed"]))
        if stored != (fitted, manifest["seed"]):
            raise DomainError(
                f"state moments file {path} (panel sha256 {stored[0]}, seed "
                f"{stored[1]}) is not from the fit in the manifest (panel sha256 "
                f"{fitted}, seed {manifest['seed']})"
            )
        moments = StateMoments(
            **{k: data[k] for k in ("mean", "cov", "second_moment", "lag_one")},
            prec_logdet=float(data["prec_logdet"]),
            info_quad=float(data["info_quad"]),
        )
        names = data["names"].tolist()
    return state, free, manifest, moments, names


def _fit_inputs(args):
    """The (path, description) of each fit file forecast and compare read."""
    return (
        (args.panel, "panel file"),
        (os.path.join(args.fit, "variational.json"), "fit artifact"),
        (os.path.join(args.fit, "manifest.json"), "fit manifest"),
        (os.path.join(args.fit, _MOMENTS_FILE), "fit state moments"),
    )


def _load_gibbs_run(parser, run_dir, fit_manifest):
    """The Gibbs run's draw store: a usage error without its draws or
    manifest, DomainError if its configuration hash differs from the fit's."""
    from . import gibbs

    store, manifest = (os.path.join(run_dir, f) for f in ("draws.npz", "manifest.json"))
    _require_file(parser, store, "draw store")
    _require_file(parser, manifest, "gibbs manifest")
    with open(manifest, encoding="utf-8") as fh:
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
    return gibbs.load_draws(store)


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args, parser) -> int:
    cfg, started = _open_run(args, parser, _KEYS["simulate"])
    spec = ModelSpec(n=cfg["n"], r=cfg["r"], p=cfg["p"])
    missing = []
    if cfg["missing_rate"] != 0:
        missing.append(sim.RandomMissing(rate=float(cfg["missing_rate"])))
    if args.ragged:
        missing.append(sim.RaggedEdge(cutoffs=_int_pairs(args.ragged, "--ragged")))
    if args.periodic:
        missing.append(
            sim.PeriodicMissing(strides=_int_pairs(args.periodic, "--periodic"))
        )
    config = sim.stationary_sim_config(
        spec, T=cfg["T"], seed=cfg["seed"], missing=tuple(missing)
    )
    pan, states = sim.simulate_dfm(config)
    panel_mod.write_csv(pan, _out_path(args, "panel.csv"))
    _write_json(
        _out_path(args, "truth.json"),
        {
            "loadings": config.loadings.tolist(),
            "noise_var": config.noise_var.tolist(),
            "trans": config.trans.tolist(),
            "states": states.tolist(),
            "seed": cfg["seed"],
        },
    )
    _write_manifest(
        args, {**cfg, "ragged": args.ragged, "periodic": args.periodic},
        {"generated": True, **cfg}, time.perf_counter() - started,
    )
    return 0


def cmd_fit(args, parser) -> int:
    from . import vi

    cfg, started = _open_run(args, parser, _KEYS["fit"], (args.panel, "panel file"))
    sha, pan, record, spec, prior, restrictions = _load_model(args, cfg)

    # One selection loop, over the grid's priors or the configured prior
    # alone: the highest final bound wins, the first of equal ones.
    grid = [float(eta) for eta in cfg["eta_grid"]]
    grid_log, best = [], None
    for eta in grid or [None]:
        if eta is not None:
            prior = _prepare_model(pan, dict(cfg, eta_lambda=eta, eta_phi=eta))[1]
        fit = vi.fit_smf(
            pan, spec, prior,
            tolerance=float(cfg["tolerance"]), max_iters=cfg["max_iters"],
            restrictions=restrictions, seed=cfg["seed"],
        )
        elbo = fit[2].elbo_trace[-1]
        if grid:
            grid_log.append({"eta": eta, "elbo": float(elbo)})
        if best is None or elbo > best[0]:
            best = (elbo, eta, fit)
    _, eta, (state, moments, report) = best
    if grid:
        cfg["eta_lambda"] = cfg["eta_phi"] = eta

    fit_time = time.perf_counter() - started
    fingerprint = _model_fingerprint(sha, cfg)
    _write_json(
        _out_path(args, "variational.json"),
        {
            "state": {**vi.state_to_dict(state), "free": restrictions.free.tolist()},
            "elbo_trace": [float(v) for v in report.elbo_trace],
            "iterations": report.iterations,
            "converged": report.converged,
            "seed": cfg["seed"],
            "config": cfg,
            "config_hash": _hash_config(fingerprint),
        },
    )
    _write_rows(
        _out_path(args, "elbo_trace.csv"),
        ["iteration", "elbo"],
        ([i, repr(float(v))] for i, v in enumerate(report.elbo_trace)),
    )
    sd = np.sqrt(np.clip(np.diagonal(moments.cov, axis1=1, axis2=2), 0.0, None))
    _write_rows(
        _out_path(args, "states.csv"),
        ["t"]
        + [f"mean_{k + 1}" for k in range(spec.s)]
        + [f"sd_{k + 1}" for k in range(spec.s)],
        (
            [t] + [repr(v) for v in row]
            for t, row in enumerate(np.hstack([moments.mean, sd]).tolist())
        ),
    )
    if record is not None:
        path = _out_path(args, "standardization.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(record.to_json() + "\n")
    np.savez(
        _out_path(args, _MOMENTS_FILE),
        **vars(moments),
        names=np.array(pan.names),
        panel_sha256=np.array(fingerprint["panel_sha256"]),
        seed=np.array(cfg["seed"]),
    )
    _write_manifest(
        args, cfg, fingerprint, fit_time,
        iterations=report.iterations,
        converged=report.converged,
        fit_wall_time_s=report.wall_time,
        eta_grid=grid_log,
    )
    if not report.converged:
        print("warning: fit did not converge within max_iters", file=sys.stderr)
    return 0


def cmd_gibbs(args, parser) -> int:
    from . import gibbs

    cfg, started = _open_run(args, parser, _KEYS["gibbs"], (args.panel, "panel file"))
    sha, pan, _, spec, prior, restrictions = _load_model(args, cfg)
    config = gibbs.GibbsConfig(
        n_draws=cfg["draws"],
        burn_in_fraction=float(cfg["burn_in_fraction"]),
        seed=cfg["seed"],
        thin=cfg["thin"],
    )
    sampler_started = time.perf_counter()
    store = gibbs.run_gibbs(pan, spec, prior, config, restrictions)
    sampler_time = time.perf_counter() - sampler_started
    gibbs.save_draws(store, _out_path(args, "draws.npz"))
    _write_manifest(
        args, cfg, _model_fingerprint(sha, cfg), time.perf_counter() - started,
        stored_draws=store.n_draws,
        sign_flips=store.sign_flips,
        sampler_wall_time_s=sampler_time,
    )
    return 0


def cmd_forecast(args, parser) -> int:
    from . import forecast

    if args.source == "gibbs" and not args.gibbs:
        parser.error("--source gibbs requires --gibbs DIR")
    cfg, started = _open_run(args, parser, _KEYS["forecast"], *_fit_inputs(args))
    state, _, fit_manifest, moments, names = _load_fit_run(args)
    record = None
    if args.original_units and fit_manifest["config"]["standardize"]:
        path = os.path.join(args.fit, "standardization.json")
        _require_file(parser, path, "fit standardization record")
        with open(path, encoding="utf-8") as fh:
            record = panel_mod.StandardizationRecord.from_json(fh.read())
    if args.source == "gibbs":
        source = _load_gibbs_run(parser, args.gibbs, fit_manifest)
        n_draws = source.n_draws
    else:
        source, n_draws = (state, moments), cfg["smf_draws"]
    arr = forecast.draw_predictive(
        source, cfg["horizons"], n_draws=n_draws, seed=cfg["seed"]
    )
    if record is not None:
        arr = panel_mod.unstandardize(arr, record)
    np.savez(_out_path(args, "forecast_draws.npz"), draws=arr)
    mean, qs = forecast.draw_summary(arr, [0.025, 0.25, 0.5, 0.75, 0.975])
    table = np.moveaxis(np.concatenate([mean[None], qs]), 0, -1).tolist()
    _write_rows(
        _out_path(args, "forecast_summary.csv"),
        ["variable", "h", "mean", "q2.5", "q25", "median", "q75", "q97.5"],
        (
            [names[i], h + 1] + [repr(v) for v in cells]
            for h, row in enumerate(table)
            for i, cells in enumerate(row)
        ),
    )
    _write_manifest(
        args, {**cfg, "source": args.source, "original_units": args.original_units},
        fit_manifest["model"], time.perf_counter() - started,
    )
    return 0


def cmd_compare(args, parser) -> int:
    from . import forecast

    cfg, started = _open_run(args, parser, _KEYS["compare"], *_fit_inputs(args))
    state, free, fit_manifest, moments, _ = _load_fit_run(args)
    store = _load_gibbs_run(parser, args.gibbs, fit_manifest)
    report = forecast.compare_posteriors(
        state, moments, store, free,
        horizons=cfg["horizons"],
        n_smf_draws=cfg["smf_draws"],
        seed=cfg["seed"],
        levels=tuple(int(v) for v in cfg["levels"]),
    )
    _write_rows(
        _out_path(args, "report_pm_errors.csv"),
        ["block", "me", "mae", "rmse"],
        (
            [block, repr(errs["me"]), repr(errs["mae"]), repr(errs["rmse"])]
            for block, errs in report.pm_errors.items()
        ),
    )
    # The rows csv.writer would give: fixed block names and repr floats need
    # no quoting, and each (block, level) chunk is written at once.  Coverage
    # takes few distinct values, so repr runs once per distinct bit pattern.
    path = _out_path(args, "report_coverage.csv")
    with open(path, "w", newline="", encoding="utf-8") as fh:
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
        _out_path(args, "report_summary.json"),
        {
            "pm_errors": report.pm_errors,
            "coverage": report.coverage_summary(),
            "levels": list(report.levels),
        },
    )
    _write_manifest(args, cfg, fit_manifest["model"], time.perf_counter() - started)
    return 0


# ---------------------------------------------------------------------------
# parser


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``args.command`` holds the command's name; :func:`main` runs the
    ``cmd_<name>`` it finds on this module at call time.
    """
    parser = argparse.ArgumentParser(
        prog="dfmvi",
        description="Variational and MCMC estimation of dynamic factor models "
        "with arbitrary missing data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "generate a synthetic panel",
        "fit": "variational fit",
        "gibbs": "Gibbs sampler benchmark",
        "forecast": "predictive draws from a fit",
        "compare": "compare a fit against a Gibbs run",
    }
    for command, text in commands.items():
        p = sub.add_parser(command, help=text)
        if command != "simulate":
            p.add_argument("--panel", required=True)
        if command in ("forecast", "compare"):
            p.add_argument("--fit", required=True, help="directory with fit artifacts")
            p.add_argument(
                "--gibbs", required=command == "compare",
                help="directory with gibbs artifacts",
            )
        p.add_argument("--out", required=True)
        p.add_argument("--config")
        for key in _KEYS[command]:
            _, flag, extra = _SETTINGS[key]
            if _kind(key) in (int, float):
                extra = {"type": _kind(key), **extra}
            p.add_argument(flag, dest=key, default=None, **extra)
        if command == "simulate":
            p.add_argument("--ragged", help="VAR:CUTOFF[,VAR:CUTOFF...]")
            p.add_argument("--periodic", help="VAR:STRIDE[,VAR:STRIDE...]")
        elif command == "forecast":
            p.add_argument("--source", choices=["smf", "gibbs"], default="smf")
            p.add_argument("--original-units", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # Looked up on each call, so a wrapped ``cmd_*`` module attribute is
        # the one that runs.
        return globals()[f"cmd_{args.command}"](args, parser)
    except (DfmError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
