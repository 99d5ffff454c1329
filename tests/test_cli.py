import csv
import io
import json

import numpy as np
import pytest

from dfmvi import cli


def _run(argv):
    return cli.main(argv)


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
    # ragged edge applied
    from dfmvi.panel import load_csv

    pan = load_csv(sim_dir / "panel.csv")
    assert not pan.mask[35:, 0].any()


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


def test_fit_rerun_byte_identical(sim_dir, fit_dir, tmp_path):
    out2 = tmp_path / "fit2"
    code = _run(
        [
            "fit", "--panel", str(sim_dir / "panel.csv"), "--out", str(out2),
            "--seed", "3", "--identify", "0:0", "--tolerance", "1e-7",
        ]
    )
    assert code == 0
    for name in ("variational.json", "elbo_trace.csv", "states.csv"):
        assert (out2 / name).read_bytes() == (fit_dir / name).read_bytes()


def test_missing_panel_exits_with_usage(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        _run(["fit", "--panel", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err


def test_gibbs_artifacts(gibbs_dir):
    manifest = json.loads((gibbs_dir / "manifest.json").read_text())
    assert manifest["stored_draws"] == 480
    assert (gibbs_dir / "draws.npz").exists()


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
