import argparse
import csv
import dataclasses
import hashlib
import io
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import dfmvi
from dfmvi import cli, panel as panel_mod, vi


def _run(argv):
    return cli.main(argv)


def _fresh(argv, **env):
    """Run ``dfmvi`` with ``argv`` in a new interpreter, as the console script
    does, with ``env`` added to the environment; returns the process."""
    src = os.path.dirname(os.path.dirname(dfmvi.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys; from dfmvi.cli import main; sys.exit(main(sys.argv[1:]))"
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path, **env},
        capture_output=True, text=True,
    )


def _count_calls(monkeypatch, *targets):
    """Wrap each (module, name) so that a call appends the name to the
    returned list."""
    calls = []

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for module, name in targets:
        count(module, name)
    return calls


_PANEL_READS = ((panel_mod, "load_csv"), (panel_mod, "standardize"))


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("simrun")
    code = _run(
        [
            "simulate", "--out", str(out), "--n", "6", "--r", "1", "--p", "0",
            "--t", "40", "--seed", "7", "--missing-rate", "0.1",
            "--ragged", "0:35,1:38",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def fit_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitrun")
    code = _run(
        [
            "fit", "--panel", str(sim_dir / "panel.csv"), "--out", str(out),
            "--seed", "3", "--identify", "0:0", "--tolerance", "1e-7",
        ]
    )
    assert code == 0
    return out


@pytest.fixture(scope="module")
def gibbs_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("gibbsrun")
    code = _run(
        [
            "gibbs", "--panel", str(sim_dir / "panel.csv"), "--out", str(out),
            "--seed", "3", "--identify", "0:0", "--draws", "600",
            "--burn-in", "0.2",
        ]
    )
    assert code == 0
    return out


def test_simulate_artifacts(sim_dir):
    assert (sim_dir / "panel.csv").exists()
    truth = json.loads((sim_dir / "truth.json").read_text())
    assert len(truth["loadings"]) == 6
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["seed"] == 7
    # The missingness flags are echoed, though they are no settings.
    assert manifest["config"]["ragged"] == "0:35,1:38"
    assert manifest["config"]["periodic"] is None
    # ragged edge applied
    from dfmvi.panel import load_csv

    pan = load_csv(sim_dir / "panel.csv")
    assert not pan.mask[35:, 0].any()


def test_import_and_simulate_load_no_scipy(tmp_path):
    # A fresh interpreter: the package, the generator and the simulate
    # command need numpy only, fit_smf is still served from the package, and
    # the package holds no test code (the oracles live in tests/).
    code = f"""
import pkgutil
import sys
import dfmvi
import dfmvi.sim
from dfmvi import cli
argv = ["simulate", "--out", {str(tmp_path)!r}, "--n", "6", "--t", "30",
        "--missing-rate", "0.1", "--ragged", "0:25", "--periodic", "1:2"]
assert cli.main(argv) == 0
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
import dfmvi.vi
from dfmvi import fit_smf
print(dfmvi.fit_smf is dfmvi.vi.fit_smf is fit_smf)
print("oracles" in {{m.name for m in pkgutil.iter_modules(dfmvi.__path__)}})
try:
    import dfmvi.oracles
except ModuleNotFoundError as exc:
    print(exc.name)
"""
    src = os.path.dirname(os.path.dirname(dfmvi.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["[]", "True", "False", "dfmvi.oracles"]
    assert (tmp_path / "panel.csv").exists()


def test_forecast_and_compare_load_no_scipy(sim_dir, fit_dir, gibbs_dir, tmp_path):
    # A fresh interpreter: the computing modules import without scipy, and
    # forecast and compare, which factor nothing, never load it; fit does.
    code = f"""
import sys
import dfmvi.cli, dfmvi.forecast, dfmvi.gibbs, dfmvi.vi, dfmvi.statespace
from dfmvi import cli
def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(loaded())
common = ["--panel", {str(sim_dir / "panel.csv")!r}, "--fit", {str(fit_dir)!r},
          "--horizons", "2", "--smf-draws", "100"]
assert cli.main(["forecast", *common, "--out", {str(tmp_path / "forecast")!r}]) == 0
assert cli.main(["compare", *common, "--gibbs", {str(gibbs_dir)!r},
                 "--out", {str(tmp_path / "compare")!r}]) == 0
print(loaded())
assert cli.main(["fit", "--panel", {str(sim_dir / "panel.csv")!r},
                 "--out", {str(tmp_path / "fit")!r}, "--max-iters", "3"]) == 0
print("scipy" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(dfmvi.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["[]", "[]", "True"]


def test_fit_artifacts_and_monotone_trace(fit_dir):
    rows = list(csv.reader((fit_dir / "elbo_trace.csv").open()))
    assert rows[0] == ["iteration", "elbo"]
    elbos = np.array([float(v) for _, v in rows[1:]])
    assert np.all(np.diff(elbos) >= -1e-8 * np.abs(elbos[:-1]))
    var = json.loads((fit_dir / "variational.json").read_text())
    assert var["converged"] is True
    manifest = json.loads((fit_dir / "manifest.json").read_text())
    assert manifest["config_hash"] == var["config_hash"]
    assert (fit_dir / "states.csv").exists()
    assert (fit_dir / "standardization.json").exists()
    assert (fit_dir / "moments.npz").exists()


def test_fit_rerun_byte_identical(sim_dir, fit_dir, tmp_path):
    out2 = tmp_path / "fit2"
    code = _run(
        [
            "fit", "--panel", str(sim_dir / "panel.csv"), "--out", str(out2),
            "--seed", "3", "--identify", "0:0", "--tolerance", "1e-7",
        ]
    )
    assert code == 0
    for name in ("variational.json", "elbo_trace.csv", "states.csv", "moments.npz"):
        assert (out2 / name).read_bytes() == (fit_dir / name).read_bytes()


@pytest.mark.parametrize(
    "command, missing, named",
    [
        pytest.param("fit", "panel.csv", "panel file", id="fit-panel"),
        pytest.param("forecast", "gibbs/draws.npz", "draw store", id="forecast-draws"),
        pytest.param(
            "forecast", "gibbs/manifest.json", "gibbs manifest", id="forecast-manifest"
        ),
        pytest.param("compare", "gibbs/draws.npz", "draw store", id="compare-draws"),
        pytest.param(
            "compare", "gibbs/manifest.json", "gibbs manifest", id="compare-manifest"
        ),
        pytest.param(
            "forecast", "fit/variational.json", "fit artifact", id="forecast-fit-state"
        ),
        pytest.param(
            "compare", "fit/variational.json", "fit artifact", id="compare-fit-state"
        ),
        pytest.param(
            "forecast", "fit/manifest.json", "fit manifest", id="forecast-fit-manifest"
        ),
        pytest.param(
            "compare", "fit/manifest.json", "fit manifest", id="compare-fit-manifest"
        ),
        pytest.param(
            "forecast", "fit/moments.npz", "fit state moments", id="forecast-fit-moments"
        ),
        pytest.param(
            "compare", "fit/moments.npz", "fit state moments", id="compare-fit-moments"
        ),
        pytest.param(
            "forecast", "fit/standardization.json", "fit standardization record",
            id="forecast-fit-standardization",
        ),
    ],
)
def test_missing_panel_exits_with_usage(
    sim_dir, fit_dir, gibbs_dir, tmp_path, capsys, command, missing, named
):
    # A missing panel, a Gibbs run directory without its draws or its
    # manifest, or a fit directory without its state, its manifest, its state
    # moments or (a forecast in original units of a standardized fit) its
    # standardization record: a usage error before the output directory is
    # made.
    if command == "fit":
        argv = ["fit", "--panel", str(tmp_path / missing)]
    else:
        shutil.copytree(fit_dir, tmp_path / "fit")
        shutil.copytree(gibbs_dir, tmp_path / "gibbs")
        (tmp_path / missing).unlink()
        argv = [
            command, "--panel", str(sim_dir / "panel.csv"), "--fit", str(tmp_path / "fit"),
            "--gibbs", str(tmp_path / "gibbs"),
        ] + (["--source", "gibbs", "--original-units"] if command == "forecast" else [])
    argv += ["--out", str(tmp_path / "out")]
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and f"{named} not found" in err
    assert not (tmp_path / "out").exists()


def test_gibbs_artifacts(gibbs_dir):
    manifest = json.loads((gibbs_dir / "manifest.json").read_text())
    assert manifest["stored_draws"] == 480
    assert manifest["sign_flips"] >= 0 and "rejections" not in manifest
    assert (gibbs_dir / "draws.npz").exists()


def test_gibbs_manifest_times_the_sampler_without_the_command_io(gibbs_dir):
    # The panel read and the draw-store write count in the command's wall
    # time only, as the fit's own timer leaves them out.
    manifest = json.loads((gibbs_dir / "manifest.json").read_text())
    assert 0 < manifest["sampler_wall_time_s"] < manifest["wall_time_s"]


def test_compare_reports(sim_dir, fit_dir, gibbs_dir, tmp_path):
    out = tmp_path / "cmp"
    code = _run(
        [
            "compare", "--panel", str(sim_dir / "panel.csv"),
            "--fit", str(fit_dir), "--gibbs", str(gibbs_dir),
            "--out", str(out), "--horizons", "2", "--smf-draws", "2000",
            "--seed", "1",
        ]
    )
    assert code == 0
    summary = json.loads((out / "report_summary.json").read_text())
    assert set(summary["pm_errors"]) >= {
        "transition", "loadings", "noise", "factors", "insample", "oos_h1", "oos_h2",
    }
    for block, errs in summary["pm_errors"].items():
        assert np.isfinite(errs["mae"])
    # one coverage row per element and level
    rows = list(csv.reader((out / "report_coverage.csv").open()))[1:]
    pan_cells = 40 * 6
    insample_rows = [r for r in rows if r[0] == "insample"]
    assert len(insample_rows) == 3 * pan_cells
    factors_rows = [r for r in rows if r[0] == "factors" and r[1] == "95"]
    assert len(factors_rows) == 40
    cov_values = np.array([float(r[3]) for r in rows])
    assert np.all((cov_values >= 0) & (cov_values <= 100))
    # the bytes csv.writer gives: "\r\n" terminators and repr floats
    want = io.StringIO()
    writer = csv.writer(want)
    writer.writerow(["block", "level", "element", "coverage_pct"])
    for block, level, e, val in rows:
        writer.writerow([block, int(level), int(e), repr(float(val))])
    assert (out / "report_coverage.csv").read_bytes() == want.getvalue().encode()


def test_compare_rerun_byte_identical(sim_dir, fit_dir, gibbs_dir, tmp_path):
    outs = [tmp_path / "cmp1", tmp_path / "cmp2"]
    for out in outs:
        code = _run(
            [
                "compare", "--panel", str(sim_dir / "panel.csv"),
                "--fit", str(fit_dir), "--gibbs", str(gibbs_dir),
                "--out", str(out), "--horizons", "2", "--smf-draws", "500",
                "--seed", "4",
            ]
        )
        assert code == 0
    for name in ("report_pm_errors.csv", "report_coverage.csv", "report_summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


@pytest.mark.parametrize("source", ["smf", "gibbs"])
def test_forecast_rerun_byte_identical(sim_dir, fit_dir, gibbs_dir, tmp_path, source):
    outs = [tmp_path / "fc1", tmp_path / "fc2"]
    for out in outs:
        code = _run(
            [
                "forecast", "--panel", str(sim_dir / "panel.csv"),
                "--fit", str(fit_dir), "--gibbs", str(gibbs_dir),
                "--source", source, "--out", str(out), "--horizons", "3",
                "--smf-draws", "500", "--seed", "5",
            ]
        )
        assert code == 0
    for name in ("forecast_draws.npz", "forecast_summary.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_compare_refuses_mismatched_artifacts(sim_dir, fit_dir, tmp_path, capsys):
    other_gibbs = tmp_path / "gibbs_other"
    code = _run(
        [
            "gibbs", "--panel", str(sim_dir / "panel.csv"), "--out",
            str(other_gibbs), "--seed", "3", "--draws", "200",
            "--burn-in", "0.2",  # no identification anchor
        ]
    )
    assert code == 0
    out = tmp_path / "cmp_bad"
    code = _run(
        [
            "compare", "--panel", str(sim_dir / "panel.csv"),
            "--fit", str(fit_dir), "--gibbs", str(other_gibbs),
            "--out", str(out), "--horizons", "1", "--smf-draws", "500",
        ]
    )
    assert code == 1
    assert "identification" in capsys.readouterr().err


def test_forecast_command(sim_dir, fit_dir, tmp_path):
    out = tmp_path / "fc"
    code = _run(
        [
            "forecast", "--panel", str(sim_dir / "panel.csv"),
            "--fit", str(fit_dir), "--out", str(out), "--horizons", "3",
            "--smf-draws", "1500", "--seed", "2", "--original-units",
        ]
    )
    assert code == 0
    rows = list(csv.reader((out / "forecast_summary.csv").open()))
    assert rows[0][:3] == ["variable", "h", "mean"]
    assert len(rows) == 1 + 3 * 6
    draws = np.load(out / "forecast_draws.npz")["draws"]
    assert draws.shape == (1500, 3, 6)
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["source"] == "smf" and config["original_units"] is True


def test_fit_and_forecast_with_all_missing_last_rows(sim_dir, tmp_path):
    # The ragged-edge nowcast: the last two time steps carry no data at all.
    lines = (sim_dir / "panel.csv").read_text().splitlines()
    blank = "," * (len(lines[0].split(",")) - 1)
    panel = tmp_path / "panel.csv"
    panel.write_text("\n".join(lines[:-2] + [blank, blank]) + "\n")
    fit_out, fc_out = tmp_path / "fit", tmp_path / "fc"
    assert _run(
        [
            "fit", "--panel", str(panel), "--out", str(fit_out),
            "--seed", "3", "--identify", "0:0", "--tolerance", "1e-7",
        ]
    ) == 0
    assert _run(
        [
            "forecast", "--panel", str(panel), "--fit", str(fit_out),
            "--out", str(fc_out), "--horizons", "2", "--smf-draws", "500",
            "--seed", "2",
        ]
    ) == 0
    rows = list(csv.reader((fit_out / "states.csv").open()))
    states = np.array([[float(v) for v in row[1:]] for row in rows[1:]])
    assert states.shape[0] == len(lines)  # origin state plus T = len(lines) - 1
    assert np.isfinite(states).all()
    draws = np.load(fc_out / "forecast_draws.npz")["draws"]
    assert draws.shape == (500, 2, 6)
    assert np.isfinite(draws).all()


def test_config_file_roundtrip(sim_dir, tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps({"r": 1, "p": 0, "tolerance": 1e-6, "seed": 11,
                    "identification": [[0, 0]]})
    )
    out = tmp_path / "fit_cfg"
    code = _run(
        [
            "fit", "--panel", str(sim_dir / "panel.csv"), "--out", str(out),
            "--config", str(cfg_path),
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["config"]["identification"] == [[0, 0]]


def test_config_file_rejects_unknown_keys(sim_dir, tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"tolerence": 1e-6}))
    out = tmp_path / "fit_bad"
    code = _run(
        [
            "fit", "--panel", str(sim_dir / "panel.csv"), "--out", str(out),
            "--config", str(cfg_path),
        ]
    )
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_eta_grid_stub(sim_dir, tmp_path):
    out = tmp_path / "fit_grid"
    code = _run(
        [
            "fit", "--panel", str(sim_dir / "panel.csv"), "--out", str(out),
            "--seed", "3", "--eta-grid", "0.5,1.0",
        ]
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["eta_grid"]) == 2
    assert manifest["config"]["eta_lambda"] in (0.5, 1.0)


def test_forecast_from_gibbs_refuses_mismatched_artifacts(
    sim_dir, fit_dir, tmp_path, capsys
):
    other_gibbs = tmp_path / "gibbs_other"
    code = _run(
        [
            "gibbs", "--panel", str(sim_dir / "panel.csv"), "--out",
            str(other_gibbs), "--seed", "3", "--draws", "200",
            "--burn-in", "0.2",  # no identification anchor
        ]
    )
    assert code == 0
    out = tmp_path / "fc_bad"
    code = _run(
        [
            "forecast", "--panel", str(sim_dir / "panel.csv"),
            "--fit", str(fit_dir), "--gibbs", str(other_gibbs),
            "--source", "gibbs", "--out", str(out), "--horizons", "1",
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "differing fields" in err and "identification" in err
    assert not (out / "forecast_draws.npz").exists()


_MODEL_FLAGS = (
    "--r --p --eta-lambda --eta-phi --ell-lambda --ell-phi --nu --tau2 "
    "--no-standardize --identify"
)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("simulate", "--out --config --n --r --p --t --seed --missing-rate "
                     "--ragged --periodic"),
        ("fit", f"--panel --out --config {_MODEL_FLAGS} --tolerance --max-iters "
                "--seed --eta-grid"),
        ("gibbs", f"--panel --out --config {_MODEL_FLAGS} --draws --burn-in "
                  "--thin --seed"),
        ("forecast", "--panel --fit --out --config --source --gibbs --horizons "
                     "--smf-draws --seed --original-units"),
        ("compare", "--panel --fit --gibbs --out --config --horizons --smf-draws "
                    "--levels --seed"),
    ],
)
def test_command_options(command, flags):
    sub = cli.build_parser()._subparsers._group_actions[0].choices[command]
    options = {s for action in sub._actions for s in action.option_strings}
    assert options - {"-h", "--help"} == set(flags.split())


def test_cached_parser_runs_the_current_command_function(sim_dir, monkeypatch):
    # The parser is built once; main still runs whatever cmd_fit the module
    # holds when it is called, and one parser serves two commands in turn.
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    seen = []
    monkeypatch.setattr(cli, "cmd_fit", lambda args, p: seen.append(args) or 0)
    assert cli.main(["fit", "--panel", str(sim_dir / "panel.csv"), "--out", "x",
                     "--seed", "4"]) == 0
    assert [(a.command, a.seed, a.out) for a in seen] == [("fit", 4, "x")]
    args = parser.parse_args(["simulate", "--out", "y", "--t", "30", "--ragged", "0:9"])
    assert (args.command, args.out, args.T, args.ragged, args.seed) == (
        "simulate", "y", 30, "0:9", None
    )
    args = parser.parse_args(["forecast", "--panel", "p", "--fit", "f", "--out", "z"])
    assert (args.command, args.source, args.horizons, args.gibbs) == (
        "forecast", "smf", None, None
    )
    assert not hasattr(args, "ragged")


def test_fit_settings_by_flags_and_by_config_agree(sim_dir, tmp_path):
    settings = {
        "n": 6, "r": 1, "p": 1, "eta_lambda": 0.8, "eta_phi": 0.7,
        "ell_lambda": 2.5, "ell_phi": 1.5, "nu": 2.0, "tau2": 1.5,
        "standardize": False, "identification": ["0:0"], "seed": 9,
        "tolerance": 1e-5, "max_iters": 40,
    }
    flags = [
        "--r", "1", "--p", "1", "--eta-lambda", "0.8",
        "--eta-phi", "0.7", "--ell-lambda", "2.5", "--ell-phi", "1.5",
        "--nu", "2.0", "--tau2", "1.5", "--no-standardize", "--identify", "0:0",
        "--seed", "9", "--tolerance", "1e-5", "--max-iters", "40",
    ]
    # A config's n is a simulate setting: the fit ignores it and echoes the
    # panel's width.
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**settings, "n": 99}))
    panel = ["fit", "--panel", str(sim_dir / "panel.csv")]
    assert _run(panel + ["--out", str(tmp_path / "flags")] + flags) == 0
    assert _run(panel + ["--out", str(tmp_path / "cfg"), "--config", str(cfg_path)]) == 0
    by_flags = (tmp_path / "flags" / "variational.json").read_bytes()
    assert by_flags == (tmp_path / "cfg" / "variational.json").read_bytes()
    echo = json.loads(by_flags)["config"]
    assert echo == {**settings, "identification": [[0, 0]], "eta_grid": []}


@pytest.mark.parametrize(
    "argv, config, named",
    [
        pytest.param(["simulate", "--ragged", "a:3"], None, "--ragged", id="ragged-text"),
        pytest.param(["simulate", "--ragged", "0"], None, "--ragged", id="ragged-no-cutoff"),
        pytest.param(["simulate", "--ragged", "9:5"], None, "ragged", id="ragged-var-past-n"),
        pytest.param(["simulate", "--ragged=-1:5"], None, "ragged", id="ragged-negative-var"),
        pytest.param(["simulate", "--ragged=0:-5"], None, "ragged", id="ragged-negative-cut"),
        pytest.param(["simulate", "--periodic", "0:0"], None, "periodic", id="periodic-zero"),
        pytest.param(["fit", "--identify", "0:x"], None, "--identify", id="identify-text"),
        pytest.param(["fit"], '{"identification": [[0.7, 0]]}', "expects VAR:FACTOR",
                     id="config-identify-float"),
        pytest.param(["fit"], '{"identification": [[0, true]]}', "expects VAR:FACTOR",
                     id="config-identify-bool"),
        pytest.param(["fit"], '{"identification": [[0, 0, 1]]}', "expects VAR:FACTOR",
                     id="config-identify-triple"),
        pytest.param(["fit"], '{"r": 1,', "config file", id="config-broken-json"),
        pytest.param(["fit"], '{"r": "two"}', "'r'", id="config-int-as-text"),
        pytest.param(["compare"], '{"levels": 5}', "'levels'", id="config-list-as-int"),
        pytest.param(["fit"], '{"standardize": "no"}', "'standardize'", id="config-bool-as-text"),
        pytest.param(["fit"], '{"eta_grid": ["x"]}', "'eta_grid'", id="config-eta-grid-text"),
        pytest.param(["fit"], '{"eta_grid": [true]}', "'eta_grid'", id="config-eta-grid-bool"),
        pytest.param(["compare"], '{"levels": ["a"]}', "'levels'", id="config-levels-text"),
        pytest.param(["compare"], '{"levels": [50.5]}', "'levels'", id="config-levels-float"),
        pytest.param(["forecast", "--smf-draws", "0"], None, "draws", id="forecast-zero-draws"),
        pytest.param(["forecast", "--smf-draws=-1"], None, "draws", id="forecast-negative-draws"),
        pytest.param(["compare", "--smf-draws", "0"], None, "draws", id="compare-zero-draws"),
        pytest.param(["compare", "--horizons=-1"], None, "horizons", id="compare-negative-horizons"),
        pytest.param(["compare", "--levels", "50,50"], None, "levels", id="compare-repeated-levels"),
        pytest.param(["compare"], '{"levels": []}', "levels", id="config-no-levels"),
        pytest.param(["fit", "--tolerance", "nan"], None, "--tolerance", id="tolerance-nan"),
        pytest.param(["fit", "--eta-grid", "nan"], None, "--eta-grid", id="eta-grid-nan"),
        pytest.param(["fit", "--eta-lambda", "inf"], None, "--eta-lambda", id="eta-lambda-inf"),
        pytest.param(["fit"], '{"nu": NaN}', "--nu", id="config-nan"),
        pytest.param(["fit"], '{"eta_grid": [1.0, -Infinity]}', "--eta-grid", id="config-eta-grid-inf"),
        pytest.param(["simulate", "--missing-rate", "nan"], None, "--missing-rate", id="missing-rate-nan"),
        pytest.param(["simulate", "--missing-rate", "1.5"], None, "missing rate", id="missing-rate-above-one"),
        pytest.param(["simulate", "--missing-rate=-0.1"], None, "missing rate", id="missing-rate-negative"),
        pytest.param(["simulate", "--r", "7"], None, "r <= n", id="simulate-more-factors-than-series"),
        pytest.param(["simulate", "--seed=-1"], None, "--seed", id="simulate-negative-seed"),
        pytest.param(["fit", "--seed=-1"], None, "--seed", id="fit-negative-seed"),
        pytest.param(["gibbs", "--seed=-1"], None, "--seed", id="gibbs-negative-seed"),
        pytest.param(["gibbs"], '{"seed": -2}', "--seed", id="config-negative-seed"),
        pytest.param(["fit", "--max-iters", "0"], None, "max_iters", id="max-iters-zero"),
        pytest.param(["fit", "--max-iters=-3"], None, "max_iters", id="max-iters-negative"),
        pytest.param(["fit"], '{"n": null}', "'n'", id="fit-config-n-null"),
        pytest.param(["gibbs"], '{"n": null}', "'n'", id="gibbs-config-n-null"),
    ],
)
def test_malformed_input_is_reported_without_traceback(
    sim_dir, fit_dir, gibbs_dir, tmp_path, capsys, argv, config, named
):
    panel = ["--panel", str(sim_dir / "panel.csv")]
    argv = argv + {
        "simulate": ["--n", "6", "--t", "20"],
        "fit": panel,
        "gibbs": panel,
        "forecast": panel + ["--fit", str(fit_dir)],
        "compare": panel + ["--fit", str(fit_dir), "--gibbs", str(gibbs_dir)],
    }[argv[0]] + ["--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.json").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.json")]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err
    assert not (tmp_path / "out" / "forecast_draws.npz").exists()
    assert not (tmp_path / "out" / "report_summary.json").exists()
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_forecast_and_compare_refuse_another_panel(
    sim_dir, fit_dir, gibbs_dir, tmp_path, capsys
):
    # A panel of the same width but other values than the fit's.
    lines = (sim_dir / "panel.csv").read_text().splitlines()
    cells = lines[1].split(",")
    cells[-1] = "0.125"
    other = tmp_path / "other.csv"
    other.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]) + "\n")
    fitted = json.loads((fit_dir / "manifest.json").read_text())["model"]
    for command in ("forecast", "compare"):
        argv = [
            command, "--panel", str(other), "--fit", str(fit_dir),
            "--gibbs", str(gibbs_dir), "--out", str(tmp_path / command),
        ]
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and fitted["panel_sha256"] in err
        assert hashlib.sha256(other.read_bytes()).hexdigest() in err


def test_original_units_ignore_a_stale_standardization_record(sim_dir, tmp_path):
    # A standardized fit, then an unstandardized one into the same directory:
    # the first fit's standardization.json stays behind and must not be used.
    panel, fit = str(sim_dir / "panel.csv"), str(tmp_path / "fit")
    assert _run(["fit", "--panel", panel, "--out", fit, "--seed", "3"]) == 0
    assert (tmp_path / "fit" / "standardization.json").exists()
    assert _run(
        ["fit", "--panel", panel, "--out", fit, "--seed", "3", "--no-standardize"]
    ) == 0
    draws = []
    for name, units in (("fc", []), ("fc_orig", ["--original-units"])):
        argv = [
            "forecast", "--panel", panel, "--fit", fit, "--out", str(tmp_path / name),
            "--horizons", "2", "--smf-draws", "300", "--seed", "2",
        ]
        assert _run(argv + units) == 0
        draws.append(np.load(tmp_path / name / "forecast_draws.npz")["draws"])
    assert draws[0].tobytes() == draws[1].tobytes()


@pytest.mark.parametrize(
    "command, extra",
    [
        pytest.param("compare", [], id="compare"),
        pytest.param("forecast", ["--source", "smf"], id="forecast-smf"),
        pytest.param("forecast", ["--source", "gibbs"], id="forecast-gibbs"),
    ],
)
def test_state_pass_runs_once_per_command(
    sim_dir, fit_dir, gibbs_dir, tmp_path, monkeypatch, command, extra
):
    # Once per pipeline, that is: in fit.  forecast and compare read the
    # fit's stored moments, and hash the panel without parsing it.
    calls = _count_calls(monkeypatch, (vi, "update_states"), *_PANEL_READS)
    argv = [
        command, "--panel", str(sim_dir / "panel.csv"), "--fit", str(fit_dir),
        "--gibbs", str(gibbs_dir), "--out", str(tmp_path / "out"),
        "--horizons", "1", "--smf-draws", "200",
    ]
    assert _run(argv + extra) == 0
    assert calls == []


@pytest.mark.parametrize(
    "sign, flips",
    [pytest.param(-1.0, 1, id="flipped"), pytest.param(1.0, 0, id="unflipped")],
)
def test_stored_moments_equal_the_fits_bitwise(
    sim_dir, tmp_path, monkeypatch, sign, flips
):
    # Every column is multiplied by the sign of its true loading, so all load
    # alike and the start, signed by the data, loads positively on each.
    # With the anchor column negated (sign -1) the anchor loads against the
    # other five, its loading converges negative and fit_smf's final
    # alignment (Restrictions.signs, applied by model.flip) flips the factor;
    # with sign +1 it converges positive and nothing is flipped.
    pan = panel_mod.load_csv(sim_dir / "panel.csv")
    truth = json.loads((sim_dir / "truth.json").read_text(encoding="utf-8"))
    signs = np.sign(np.asarray(truth["loadings"])[:, 0])
    signs[0] = sign
    panel = tmp_path / "panel.csv"
    panel_mod.write_csv(panel_mod.TimeSeriesPanel(signs * pan.values, pan.names), panel)
    returned, flipped = [], []
    fit_smf, flip = vi.fit_smf, vi.flip
    monkeypatch.setattr(
        vi, "fit_smf", lambda *a, **k: returned.append(fit_smf(*a, **k)) or returned[-1]
    )
    monkeypatch.setattr(
        vi, "flip", lambda s, *a, **k: flipped.append(tuple(s)) or flip(s, *a, **k)
    )
    fit = tmp_path / "fit"
    assert _run(
        ["fit", "--panel", str(panel), "--out", str(fit), "--seed", "3", "--identify", "0:0"]
    ) == 0
    assert set(flipped) == ({(-1.0,)} if flips else set())
    state, free, manifest, moments, names = cli._load_fit_run(
        argparse.Namespace(panel=str(panel), fit=str(fit))
    )
    assert names == list(pan.names)
    # The anchor leaves a one-factor, no-lag mask free: the record's mask.
    assert free.dtype == bool and free.shape == (pan.n, 1) and free.all()
    # The state pass that forecast and compare ran on the stored state
    # before the moments were stored gives the same bits.
    std, _ = panel_mod.standardize(panel_mod.load_csv(panel))
    prior = cli._prepare_model(std, manifest["config"])[1]
    recomputed = vi.update_states(std, state.loadings, state.transition, prior)
    for want in (returned[0][1], recomputed):
        for field in dataclasses.fields(want):
            got, expected = getattr(moments, field.name), getattr(want, field.name)
            assert type(got) is type(expected)
            assert np.shape(got) == np.shape(expected)
            assert np.asarray(got).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("damage", ["panel_sha256", "seed"])
def test_forecast_and_compare_refuse_missing_or_foreign_moments(
    sim_dir, fit_dir, gibbs_dir, tmp_path, capsys, damage
):
    # Moments of another fit; a missing moments file is a usage error
    # (test_missing_panel_exits_with_usage).
    fit = tmp_path / "fit"
    shutil.copytree(fit_dir, fit)
    path = fit / "moments.npz"
    with np.load(path) as data:
        stored = dict(data)
    stored[damage] = np.array("0" * 64 if damage == "panel_sha256" else 4)
    np.savez(path, **stored)
    for command in ("forecast", "compare"):
        argv = [
            command, "--panel", str(sim_dir / "panel.csv"), "--fit", str(fit),
            "--gibbs", str(gibbs_dir), "--out", str(tmp_path / command),
        ]
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert not (tmp_path / command / "forecast_draws.npz").exists()


def test_compare_and_forecast_refuse_a_draw_store_without_a_key(
    sim_dir, fit_dir, gibbs_dir, tmp_path, capsys
):
    # A store from before the sign fold holds ``rejections``, not ``sign_flips``.
    gibbs = tmp_path / "gibbs"
    shutil.copytree(gibbs_dir, gibbs)
    path = gibbs / "draws.npz"
    with np.load(path) as data:
        stored = dict(data)
    stored["rejections"] = stored.pop("sign_flips")
    np.savez(path, **stored)
    common = [
        "--panel", str(sim_dir / "panel.csv"), "--fit", str(fit_dir),
        "--gibbs", str(gibbs),
    ]
    for argv in (
        ["compare", *common, "--out", str(tmp_path / "cmp")],
        ["forecast", "--source", "gibbs", *common, "--out", str(tmp_path / "fc")],
    ):
        assert _run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err
        assert "sign_flips" in err and "rerun dfmvi gibbs" in err


# ---------------------------------------------------------------------------
# fit and gibbs keep the last panel they read, keyed by its bytes.  Each test
# reads its own panel first where it needs the entry, since the entry
# outlives a test.


def _artifacts(directory):
    """Every artifact's bytes, the manifest's model fingerprint for the
    manifest (its wall times differ between runs)."""
    return {
        name: json.loads(path.read_text())["model"]
        if name == "manifest.json" else path.read_bytes()
        for name, path in ((p.name, p) for p in sorted(directory.iterdir()))
    }


def test_reused_panel_gives_the_artifacts_of_fresh_interpreters(sim_dir, tmp_path):
    # In this process gibbs and the second fit reuse the first fit's panel;
    # in fresh interpreters each command parses it.
    panel = ["--panel", str(sim_dir / "panel.csv")]
    commands = {
        "fit": ["fit", "--seed", "3", "--identify", "0:0"],
        "gibbs": ["gibbs", "--seed", "3", "--identify", "0:0", "--draws", "200"],
        "refit": ["fit", "--seed", "5", "--identify", "0:0", "--max-iters", "20"],
    }
    for label, argv in commands.items():
        assert _run(argv + panel + ["--out", str(tmp_path / "warm" / label)]) == 0
    for label, argv in commands.items():
        proc = _fresh(argv + panel + ["--out", str(tmp_path / "cold" / label)])
        assert proc.returncode == 0, proc.stderr
    for label in commands:
        warm = _artifacts(tmp_path / "warm" / label)
        assert warm == _artifacts(tmp_path / "cold" / label)
        assert warm["manifest.json"]["panel_sha256"] == hashlib.sha256(
            (sim_dir / "panel.csv").read_bytes()
        ).hexdigest()


def test_a_panel_read_again_is_not_parsed_again(sim_dir, tmp_path, monkeypatch):
    panel = ["--panel", str(sim_dir / "panel.csv")]
    assert _run(["fit", *panel, "--out", str(tmp_path / "first"), "--max-iters", "3"]) == 0
    calls = _count_calls(monkeypatch, *_PANEL_READS)
    assert _run(["gibbs", *panel, "--out", str(tmp_path / "gibbs"), "--draws", "20"]) == 0
    assert _run(["fit", *panel, "--out", str(tmp_path / "fit"), "--max-iters", "3"]) == 0
    assert calls == []


def test_new_bytes_at_the_same_path_are_parsed_again(sim_dir, tmp_path, monkeypatch):
    path = tmp_path / "panel.csv"
    first = (sim_dir / "panel.csv").read_bytes()
    path.write_bytes(first)
    argv = ["fit", "--panel", str(path), "--max-iters", "3"]
    assert _run(argv + ["--out", str(tmp_path / "first")]) == 0
    edited = first.replace(b"\r\n", b"\n")  # the same cells, other bytes
    path.write_bytes(edited)
    calls = _count_calls(monkeypatch, *_PANEL_READS)
    assert _run(argv + ["--out", str(tmp_path / "edited")]) == 0
    assert calls == ["load_csv", "standardize"]
    manifest = json.loads((tmp_path / "edited" / "manifest.json").read_text())
    assert manifest["model"]["panel_sha256"] == hashlib.sha256(edited).hexdigest()
    assert manifest["model"]["panel_sha256"] != hashlib.sha256(first).hexdigest()


def test_unstandardized_run_does_not_get_the_standardized_panel(
    sim_dir, tmp_path, monkeypatch
):
    panel = ["--panel", str(sim_dir / "panel.csv"), "--max-iters", "3"]
    assert _run(["fit", *panel, "--out", str(tmp_path / "standardized")]) == 0
    calls = _count_calls(monkeypatch, *_PANEL_READS)
    fitted, fit_smf = [], vi.fit_smf
    monkeypatch.setattr(
        vi, "fit_smf", lambda pan, *a, **k: fitted.append(pan) or fit_smf(pan, *a, **k)
    )
    argv = ["fit", *panel, "--out", str(tmp_path / "raw"), "--no-standardize"]
    assert _run(argv) == 0
    assert calls == ["load_csv"]
    raw = panel_mod.load_csv(sim_dir / "panel.csv")
    assert fitted[0].values.tobytes() == raw.values.tobytes()
    assert not (tmp_path / "raw" / "standardization.json").exists()


@pytest.mark.parametrize(
    "body, reads, named",
    [
        pytest.param("a,b\n1,x\n", ["load_csv"], "panel.csv: row 2, column 'b'", id="parse"),
        pytest.param(
            "a,b\n1,2\n1,3\n", ["load_csv", "standardize"], "column 'a' has zero",
            id="standardize",
        ),
    ],
)
def test_a_failed_panel_read_is_not_kept(tmp_path, monkeypatch, capsys, body, reads, named):
    path = tmp_path / "panel.csv"
    path.write_text(body)
    calls = _count_calls(monkeypatch, *_PANEL_READS)
    for _ in range(2):
        assert _run(["fit", "--panel", str(path), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
    assert calls == reads * 2


def test_fit_reads_a_panel_with_a_byte_order_mark(sim_dir, tmp_path):
    # The BOM is not part of the first name, so var1 can anchor; the
    # manifest records the digest of the file's own bytes.
    plain = (sim_dir / "panel.csv").read_bytes()
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + plain)
    argv = ["fit", "--seed", "3", "--identify", "var1:0", "--max-iters", "20"]
    for name, path in (("bom", tmp_path / "bom.csv"), ("plain", sim_dir / "panel.csv")):
        assert _run(argv + ["--panel", str(path), "--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert manifest["model"]["panel_sha256"] == hashlib.sha256(
            path.read_bytes()
        ).hexdigest()
    for name in ("elbo_trace.csv", "states.csv", "standardization.json"):
        assert (tmp_path / "bom" / name).read_bytes() == (
            tmp_path / "plain" / name
        ).read_bytes()


def test_text_artifacts_are_utf8_under_the_c_locale(tmp_path):
    # Under the C locale without UTF-8 mode, a file opened without an
    # encoding is ASCII and cannot hold the name.
    rng = np.random.default_rng(0)
    pan = panel_mod.TimeSeriesPanel(rng.standard_normal((40, 3)), ["\u00d6lpreis", "b", "c"])
    panel_mod.write_csv(pan, tmp_path / "panel.csv")
    env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    panel = ["--panel", str(tmp_path / "panel.csv")]
    for argv in (
        ["fit", *panel, "--out", str(tmp_path / "fit"), "--max-iters", "5"],
        ["forecast", *panel, "--fit", str(tmp_path / "fit"), "--out",
         str(tmp_path / "fc"), "--horizons", "1", "--smf-draws", "20"],
    ):
        proc = _fresh(argv, **env)
        assert proc.returncode == 0, proc.stderr
    text = (tmp_path / "fc" / "forecast_summary.csv").read_bytes().decode("utf-8")
    assert "\n\u00d6lpreis,1," in text.replace("\r\n", "\n")


def test_a_non_ascii_anchor_name_resolves_under_the_c_locale(tmp_path):
    # The C locale cannot decode the name's UTF-8 bytes in argv, so Python
    # hands them over as lone surrogates; the anchor must still find column 1.
    rng = np.random.default_rng(0)
    pan = panel_mod.TimeSeriesPanel(rng.standard_normal((40, 3)), ["b", "Ölpreis", "c"])
    panel_mod.write_csv(pan, tmp_path / "panel.csv")
    env = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    proc = _fresh(
        ["fit", "--panel", str(tmp_path / "panel.csv"), "--out", str(tmp_path / "fit"),
         "--max-iters", "5", "--identify", "Ölpreis:0"],
        **env,
    )
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((tmp_path / "fit" / "manifest.json").read_text("utf-8"))
    assert manifest["config"]["identification"] == [[1, 0]]


@pytest.mark.parametrize("command", ["fit", "gibbs"])
def test_a_panel_too_short_for_its_lags_is_refused(tmp_path, capsys, command):
    sim = tmp_path / "sim"
    assert _run(["simulate", "--out", str(sim), "--n", "5", "--t", "3"]) == 0
    extra = ["--draws", "20"] if command == "gibbs" else []
    for p in (2, 5):
        argv = [command, "--panel", str(sim / "panel.csv"), "--out", str(tmp_path / "run"),
                "--p", str(p), *extra]
        assert _run(argv) == 1
        assert f"need T > p + 1 = {p + 1}, got T = 3" in capsys.readouterr().err
