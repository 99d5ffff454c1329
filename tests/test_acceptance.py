"""Acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance.
Running ``pytest -v tests/test_acceptance.py`` yields one pass/fail line
per criterion; every test additionally prints an ``ACCEPTANCE k: PASS``
summary with the measured numbers (visible with ``-s`` or ``-rP``).
"""

import csv
import json
import time

import numpy as np
import pytest
from scipy import stats

from dfmvi import cli, gibbs, vi
from dfmvi.model import ModelSpec, PriorSpec, default_prior
from dfmvi.panel import from_arrays, load_csv, standardize
from dfmvi.sim import RaggedEdge, RandomMissing, simulate_dfm, stationary_sim_config
from tests import oracles
from tests.conftest import point_mass_moments, random_masked_panel
from tests.oracles import dense_fixed_moments, dense_gaussian_oracle, mc_elbo_oracle

RAGGED_CUTOFFS = {18: 196, 19: 194, 20: 192, 21: 190, 22: 188, 23: 186, 24: 184}


def _acceptance_panel(seed):
    """n=25, r=1, p=0, T=200 panel with 10% random missing and ragged edge."""
    spec = ModelSpec(n=25, r=1, p=0)
    cfg = stationary_sim_config(
        spec,
        T=200,
        seed=seed,
        missing=(RandomMissing(0.10), RaggedEdge(RAGGED_CUTOFFS)),
    )
    pan, _ = simulate_dfm(cfg)
    pan, _ = standardize(pan)
    return pan, spec


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """Shared fit/gibbs/compare artifacts for criteria 5, 6 and 7."""
    base = tmp_path_factory.mktemp("acceptance")
    sim_dir = base / "sim"
    fit_dir = base / "fit"
    gibbs_dir = base / "gibbs"
    cmp_dir = base / "cmp"
    ragged = ",".join(f"{i}:{c}" for i, c in RAGGED_CUTOFFS.items())
    assert cli.main(
        [
            "simulate", "--out", str(sim_dir), "--n", "25", "--r", "1", "--p",
            "0", "--t", "200", "--seed", "0", "--missing-rate", "0.1",
            "--ragged", ragged,
        ]
    ) == 0
    panel_path = str(sim_dir / "panel.csv")
    assert cli.main(
        [
            "fit", "--panel", panel_path, "--out", str(fit_dir), "--seed", "0",
            "--identify", "0:0", "--tolerance", "1e-7", "--max-iters", "500",
        ]
    ) == 0
    assert cli.main(
        [
            "gibbs", "--panel", panel_path, "--out", str(gibbs_dir), "--seed",
            "1", "--identify", "0:0", "--draws", "50000", "--burn-in", "0.1",
        ]
    ) == 0
    assert cli.main(
        [
            "compare", "--panel", panel_path, "--fit", str(fit_dir), "--gibbs",
            str(gibbs_dir), "--out", str(cmp_dir), "--horizons", "6",
            "--smf-draws", "20000", "--seed", "5",
        ]
    ) == 0
    return {
        "panel": panel_path,
        "fit": fit_dir,
        "gibbs": gibbs_dir,
        "cmp": cmp_dir,
        "fit_manifest": json.loads((fit_dir / "manifest.json").read_text()),
        "gibbs_manifest": json.loads((gibbs_dir / "manifest.json").read_text()),
        "summary": json.loads((cmp_dir / "report_summary.json").read_text()),
    }


def test_criterion_01_elbo_monotone_convergence():
    """20 seeded panels: monotone trace, tolerance 1e-7, < 500 iters, < 1 min."""
    start = time.perf_counter()
    iters = []
    for seed in range(20):
        pan, spec = _acceptance_panel(seed)
        prior = default_prior(spec)
        state, moments, report = vi.fit_smf(
            pan, spec, prior, tolerance=1e-7, max_iters=500, seed=seed
        )
        trace = report.elbo_trace
        assert report.converged, f"seed {seed} did not converge"
        assert report.iterations < 500
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1])), (
            f"seed {seed}: objective decreased beyond slack"
        )
        iters.append(report.iterations)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"20 fits took {elapsed:.1f}s (budget 60s)"
    print(
        f"ACCEPTANCE 1 [elbo monotone + convergence]: PASS "
        f"(iters {min(iters)}..{max(iters)}, total {elapsed:.1f}s)"
    )


def _random_instances(count):
    rng = np.random.default_rng(777)
    out = []
    for k in range(count):
        spec = ModelSpec(
            n=int(rng.integers(2, 5)), r=1, p=int(rng.integers(0, 2))
        )
        T = int(rng.integers(3, 7))
        pan, _, _ = random_masked_panel(
            spec, T=T, seed=5000 + k, missing_prob=float(rng.uniform(0.1, 0.6))
        )
        prior = default_prior(spec)
        state = vi.init_from_pca(pan, spec, prior, seed=k)
        out.append((pan, spec, prior, state))
    return out


def test_criterion_02_smoother_exactness():
    """Collapsed smoother matches the dense oracle on 50 random instances."""
    worst = 0.0
    for pan, spec, prior, state in _random_instances(50):
        moments = vi.update_states(pan, state.loadings, state.transition, prior)
        oracle = dense_gaussian_oracle(pan, state, prior)
        second = oracle.marg_cov + oracle.mean[:, :, None] * oracle.mean[:, None, :]
        for got, want in (
            (moments.mean, oracle.mean),
            (moments.cov, oracle.marg_cov),
            (moments.second_moment, second),
            (moments.lag_one, oracle.lag_one),
        ):
            err = float(np.abs(got - want).max())
            worst = max(worst, err)
            assert err < 1e-8
    print(f"ACCEPTANCE 2 [smoother exactness]: PASS (max abs error {worst:.2e})")


def test_criterion_03_collapse_equivalence():
    """Collapsed == augmented moments; decomposed loglik == augmented loglik."""
    worst_m = 0.0
    worst_l = 0.0
    for pan, spec, prior, state in _random_instances(50):
        loadings, transition = state.loadings, state.transition
        moments = vi.update_states(pan, loadings, transition, prior)
        aug_mean, aug_cov, aug_lag, aug_ll = oracles.augmented_moments(
            pan.values, pan.mask, loadings.mean, loadings.cov,
            loadings.noise_scale, transition.mean, transition.cov,
            prior.init_state_cov,
        )
        worst_m = max(
            worst_m,
            float(np.abs(moments.mean - aug_mean).max()),
            float(np.abs(moments.cov - aug_cov).max()),
            float(np.abs(moments.lag_one - aug_lag).max()),
        )
        assert worst_m < 1e-8
        dec = oracles.decomposed_loglik(
            pan, loadings, transition, prior, moments.prec_logdet, moments.info_quad
        )
        worst_l = max(worst_l, abs(dec - aug_ll))
        assert worst_l < 1e-8
    print(
        f"ACCEPTANCE 3 [collapse equivalence]: PASS "
        f"(moments {worst_m:.2e}, loglik {worst_l:.2e})"
    )


def test_criterion_04_elbo_formula_against_mc_oracle():
    """Analytic bound within 3 MC standard errors on 10 tiny instances."""
    spec = ModelSpec(n=2, r=1, p=0)
    prior = default_prior(spec)
    zs = []
    start = time.perf_counter()
    for k in range(10):
        pan, _, _ = random_masked_panel(spec, T=3, seed=300 + k, missing_prob=0.3)
        state, _, _ = vi.fit_smf(
            pan, spec, prior, tolerance=1e-9, max_iters=3 + k, seed=k
        )
        moments = vi.update_states(pan, state.loadings, state.transition, prior)
        exact = vi.compute_elbo(pan, state.loadings, state.transition, moments, prior)
        est, se = mc_elbo_oracle(pan, state, prior, n_samples=1_000_000, seed=k)
        zs.append((exact - est) / se)
        assert abs(exact - est) < 3 * se, f"instance {k}: z = {zs[-1]:.2f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(
        f"ACCEPTANCE 4 [elbo vs MC oracle]: PASS "
        f"(max |z| {max(abs(z) for z in zs):.2f}, {elapsed:.0f}s)"
    )


def test_criterion_05_smf_matches_mcmc_at_desk_scale(small_run):
    """Prediction posterior means and coverage against the 50k-draw chain."""
    summary = small_run["summary"]
    mae = summary["pm_errors"]["insample"]["mae"]
    cov95 = summary["coverage"]["insample"]["95"]["mean"]
    cov50 = summary["coverage"]["insample"]["50"]["mean"]
    assert mae <= 0.01, f"in-sample prediction MAE {mae:.4f} > 0.01"
    assert abs(cov95 - 95.0) <= 1.5, f"95% coverage {cov95:.2f} outside 95 +/- 1.5"
    assert abs(cov50 - 50.0) <= 2.0, f"50% coverage {cov50:.2f} outside 50 +/- 2"
    # qualitative benchmark pattern: prediction coverage far closer to
    # nominal than loading coverage
    lam95 = summary["coverage"]["loadings"]["95"]["mean"]
    assert abs(cov95 - 95.0) < abs(lam95 - 95.0)
    print(
        f"ACCEPTANCE 5 [SMF ~ MCMC]: PASS "
        f"(MAE {mae:.5f}, cov95 {cov95:.2f}, cov50 {cov50:.2f}, "
        f"loadings95 {lam95:.2f})"
    )


def test_criterion_06_speed_ratio(small_run):
    """Variational fit at least 50x faster than the 50k-draw chain."""
    fit_time = small_run["fit_manifest"]["fit_wall_time_s"]
    gibbs_time = small_run["gibbs_manifest"]["sampler_wall_time_s"]
    ratio = gibbs_time / fit_time
    assert fit_time <= gibbs_time / 50.0, f"speed ratio only {ratio:.0f}x"
    print(
        f"ACCEPTANCE 6 [speed ratio]: PASS "
        f"(fit {fit_time:.2f}s, gibbs {gibbs_time:.0f}s, {ratio:.0f}x)"
    )


def test_criterion_07_rotation_invariance(small_run):
    """Sign-flip rotation changes the converged objective by < 1e-8."""
    with open(small_run["fit"] / "variational.json", encoding="utf-8") as fh:
        state = vi.state_from_dict(json.load(fh)["state"])
    pan, _ = standardize(load_csv(small_run["panel"]))
    spec = ModelSpec(n=25, r=1, p=0)
    prior = default_prior(spec)
    moments = vi.update_states(pan, state.loadings, state.transition, prior)
    elbo = vi.compute_elbo(pan, state.loadings, state.transition, moments, prior)
    flipped, _ = vi.flip_factor_signs(state, moments, np.array([-1.0]))
    fl_m = vi.update_states(pan, flipped.loadings, flipped.transition, prior)
    fl_elbo = vi.compute_elbo(pan, flipped.loadings, flipped.transition, fl_m, prior)
    assert abs(fl_elbo - elbo) < 1e-8, f"objective moved by {fl_elbo - elbo:.2e}"
    print(
        f"ACCEPTANCE 7 [rotation invariance]: PASS "
        f"(|delta| {abs(fl_elbo - elbo):.2e})"
    )


def test_criterion_08_prior_reduction_for_unobserved_variable():
    """A never-observed variable ends the fit at exactly its prior."""
    spec = ModelSpec(n=6, r=1, p=0)
    cfg = stationary_sim_config(spec, T=60, seed=42)
    pan_full, _ = simulate_dfm(cfg)
    values = pan_full.values.copy()
    values[:, 3] = np.nan
    pan = from_arrays(values, names=pan_full.names)
    pan, _ = standardize(pan)
    prior = default_prior(spec, nu=2.0, tau2=0.5)
    state, _, report = vi.fit_smf(pan, spec, prior, tolerance=1e-7, max_iters=400)
    assert report.converged
    assert np.array_equal(state.loadings.mean[3], np.zeros(1))
    assert state.loadings.noise_df[3] == prior.noise_df[3]
    assert state.loadings.noise_scale[3] == prior.noise_scale[3]
    assert np.array_equal(
        state.loadings.cov[3], np.linalg.inv(prior.loading_prec)
    )
    print("ACCEPTANCE 8 [prior reduction]: PASS (exact equality)")


def test_criterion_09_limit_equivalences():
    """Flat priors + point-mass moments reproduce least-squares estimates."""
    rng = np.random.default_rng(17)
    r, p = 1, 1
    s = 2
    T = 40
    factors = np.zeros((T + 1, s))
    for t in range(1, T + 1):
        factors[t, 0] = 0.6 * factors[t - 1, 0] + 0.2 * factors[t - 1, 1] + rng.standard_normal()
        factors[t, 1] = factors[t - 1, 0]
    lam_true = np.array([[0.9, -0.3], [0.5, 0.7]])
    noise = np.array([0.4, 0.8])
    y = factors[1:] @ lam_true.T + rng.standard_normal((T, 2)) * np.sqrt(noise)
    mask = rng.random((T, 2)) > 0.2
    pan = from_arrays(np.where(mask, y, np.nan))
    flat = PriorSpec(
        loading_prec=1e-12 * np.eye(s),
        trans_prec=1e-12 * np.eye(s),
        init_state_cov=np.eye(s),
        noise_df=np.full(2, 1e-12),
        noise_scale=np.ones(2),
    )
    point = point_mass_moments(factors, r)
    loadings = vi.update_loadings(pan, point, flat)
    worst = 0.0
    for i in range(2):
        rows = mask[:, i]
        ols, res, *_ = np.linalg.lstsq(factors[1:][rows], y[rows, i], rcond=None)
        worst = max(worst, float(np.abs(loadings.mean[i] - ols).max()))
        resid = y[rows, i] - factors[1:][rows] @ ols
        ml_var = float(resid @ resid) / rows.sum()
        worst = max(worst, abs(loadings.noise_scale[i] - ml_var))
    trans = vi.update_transition(point, flat)
    ols_var = np.linalg.lstsq(factors[:-1], factors[1:, 0], rcond=None)[0]
    worst = max(worst, float(np.abs(trans.mean[0] - ols_var).max()))
    assert worst < 1e-6
    print(f"ACCEPTANCE 9 [limit equivalences]: PASS (max dev {worst:.2e})")


def test_criterion_10_gibbs_correctness():
    """FFBS draw mean matches the smoother; calibration ranks are uniform."""
    # part 1: 50k state draws at fixed parameters vs the dense-oracle mean
    spec = ModelSpec(n=3, r=1, p=0)
    pan, cfg, _ = random_masked_panel(spec, T=6, seed=909, missing_prob=0.3)
    prior = default_prior(spec)
    rng = np.random.default_rng(2)
    n_draws = 50_000
    acc = np.zeros((pan.T + 1, 1))
    acc2 = np.zeros((pan.T + 1, 1))
    for _ in range(n_draws):
        path = gibbs.sample_states_ffbs(
            pan, cfg.loadings, cfg.noise_var, cfg.trans, prior, rng
        )
        acc += path
        acc2 += path**2
    mean = acc / n_draws
    se = np.sqrt((acc2 / n_draws - mean**2) / n_draws)
    oracle = dense_fixed_moments(
        pan, cfg.loadings, cfg.noise_var, cfg.trans, prior.init_state_cov
    )
    zmax = float(np.abs((mean - oracle.mean) / se).max())
    assert np.all(np.abs(mean - oracle.mean) <= 3.0 * se), f"max z {zmax:.2f}"

    # part 2: simulation-based calibration rank test on a tiny model
    sbc_spec = ModelSpec(n=3, r=1, p=0)
    nu0, tau0 = 5.0, 1.0
    sbc_prior = PriorSpec(
        loading_prec=np.eye(1),
        trans_prec=np.eye(1),
        init_state_cov=np.eye(1),
        noise_df=np.full(3, nu0),
        noise_scale=np.full(3, tau0),
    )
    T, reps, L, thin, burn = 10, 150, 100, 6, 80
    mask = np.ones((T, 3), dtype=bool)
    mask[3, 1] = False
    mask[7, 2] = False
    ranks = {"loading": [], "noise": [], "transition": []}
    for k in range(reps):
        rep_rng = np.random.default_rng(1000 + k)
        sig2 = nu0 * tau0 / rep_rng.chisquare(nu0, size=3)
        lam = np.sqrt(sig2)[:, None] * rep_rng.standard_normal((3, 1))
        phi = rep_rng.standard_normal((1, 1))
        f = np.zeros(T + 1)
        f[0] = rep_rng.standard_normal()
        for t in range(1, T + 1):
            f[t] = phi[0, 0] * f[t - 1] + rep_rng.standard_normal()
        y = f[1:, None] * lam[:, 0][None, :]
        y = y + rep_rng.standard_normal((T, 3)) * np.sqrt(sig2)
        pan_k = from_arrays(np.where(mask, y, np.nan))
        cl, cs, cp = lam.copy(), sig2.copy(), phi.copy()
        chain_rng = np.random.default_rng(50_000 + k)
        kept = {"loading": [], "noise": [], "transition": []}
        for d in range(burn + L * thin):
            states = gibbs.sample_states_ffbs(pan_k, cl, cs, cp, sbc_prior, chain_rng)
            cl, cs, cp, _ = gibbs.sample_parameters(
                pan_k, states, sbc_spec, sbc_prior, None, chain_rng
            )
            if d >= burn and (d - burn) % thin == 0:
                kept["loading"].append(cl[0, 0])
                kept["noise"].append(cs[0])
                kept["transition"].append(cp[0, 0])
        ranks["loading"].append(int(np.sum(np.array(kept["loading"]) < lam[0, 0])))
        ranks["noise"].append(int(np.sum(np.array(kept["noise"]) < sig2[0])))
        ranks["transition"].append(int(np.sum(np.array(kept["transition"]) < phi[0, 0])))
    bins = 6
    pvals = {}
    for name, rank_list in ranks.items():
        arr = np.asarray(rank_list)
        counts = np.bincount(np.minimum(arr * bins // (L + 1), bins - 1), minlength=bins)
        pvals[name] = float(stats.chisquare(counts).pvalue)
        assert pvals[name] > 0.01 / 3, f"{name} ranks non-uniform, p={pvals[name]:.4f}"
    print(
        f"ACCEPTANCE 10 [gibbs correctness]: PASS "
        f"(ffbs max z {zmax:.2f}; SBC p-values "
        + ", ".join(f"{k}={v:.2f}" for k, v in pvals.items())
        + ")"
    )
