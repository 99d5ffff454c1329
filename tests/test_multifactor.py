"""Multi-factor / multi-lag configurations exercising the companion form."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dfmvi import gibbs, oracles, vi
from dfmvi.model import ModelSpec, default_prior, identification_restrictions
from dfmvi.panel import TimeSeriesPanel, standardize
from dfmvi.oracles import dense_gaussian_oracle
from dfmvi.sim import (
    PeriodicMissing,
    RandomMissing,
    simulate_dfm,
    stationary_sim_config,
)
from tests.conftest import random_masked_panel


@pytest.fixture(scope="module")
def two_factor_panel():
    spec = ModelSpec(n=10, r=2, p=2)
    cfg = stationary_sim_config(
        spec, T=120, seed=31, missing=(RandomMissing(0.12),)
    )
    pan, _ = simulate_dfm(cfg)
    pan, _ = standardize(pan)
    return pan, spec


def test_fit_two_factors_two_lags(two_factor_panel):
    pan, spec = two_factor_panel
    prior = default_prior(spec)
    restr = identification_restrictions(spec, [(0, 0), (1, 1)])
    state, moments, report = vi.fit_smf(
        pan, spec, prior, restrictions=restr, tolerance=1e-7, max_iters=500
    )
    assert report.converged
    trace = report.elbo_trace
    assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
    # anchor variables load on exactly one contemporaneous factor
    assert state.loadings.mean[0, 0] > 0
    assert state.loadings.mean[1, 1] > 0
    assert np.all(state.loadings.mean[0, 1:] == 0.0)
    assert state.loadings.mean[1, 0] == 0.0
    assert np.all(state.loadings.mean[1, 2:] == 0.0)


def test_partial_sign_flip_keeps_objective(two_factor_panel):
    pan, spec = two_factor_panel
    prior = default_prior(spec)
    state, _, _ = vi.fit_smf(pan, spec, prior, tolerance=1e-6, max_iters=200)
    moments = vi.update_states(pan, state.loadings, state.transition, prior)
    elbo = vi.compute_elbo(pan, state.loadings, state.transition, moments, prior)
    for flips in ([True, False], [False, True], [True, True]):
        flipped, _ = vi.flip_factor_signs(state, None, np.array(flips))
        fl_m = vi.update_states(pan, flipped.loadings, flipped.transition, prior)
        fl_elbo = vi.compute_elbo(
            pan, flipped.loadings, flipped.transition, fl_m, prior
        )
        assert abs(fl_elbo - elbo) < 1e-8, flips


def test_smoother_exactness_two_factors_two_lags():
    spec = ModelSpec(n=4, r=2, p=2)
    prior = default_prior(spec)
    for seed in range(5):
        pan, _, _ = random_masked_panel(spec, T=8, seed=400 + seed, missing_prob=0.3)
        state = vi.init_from_pca(pan, spec, prior, seed=seed)
        moments = vi.update_states(pan, state.loadings, state.transition, prior)
        oracle = dense_gaussian_oracle(pan, state, prior)
        assert_allclose(moments.mean, oracle.mean, atol=1e-8)
        assert_allclose(moments.cov, oracle.marg_cov, atol=1e-8)
        assert_allclose(moments.lag_one, oracle.lag_one, atol=1e-8)
        aug_mean, aug_cov, aug_lag, aug_ll = oracles.augmented_moments(
            pan.values, pan.mask, state.loadings.mean, state.loadings.cov,
            state.loadings.noise_scale, state.transition.mean,
            state.transition.cov, prior.init_state_cov,
        )
        dec = oracles.decomposed_loglik(
            pan, state.loadings, state.transition, prior,
            moments.prec_logdet, moments.info_quad,
        )
        assert_allclose(dec, aug_ll, atol=1e-8)


def test_fit_with_periodic_missingness_mixed_frequency_analogue():
    spec = ModelSpec(n=6, r=1, p=1)
    cfg = stationary_sim_config(
        spec,
        T=90,
        seed=33,
        missing=(PeriodicMissing(strides={4: 3, 5: 3}), RandomMissing(0.05)),
    )
    pan, _ = simulate_dfm(cfg)
    pan, _ = standardize(pan)
    prior = default_prior(spec)
    state, moments, report = vi.fit_smf(
        pan, spec, prior, tolerance=1e-7, max_iters=500
    )
    assert report.converged
    trace = report.elbo_trace
    assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
    # the low-frequency series is observed only at stride positions, and
    # still gets loadings informed by those cells
    observed_at = np.flatnonzero(pan.mask[:, 4]) + 1
    assert np.all(observed_at % 3 == 0)
    assert 25 <= pan.mask[:, 4].sum() <= 30
    assert np.any(state.loadings.mean[4] != 0.0)


def test_gibbs_two_factor_anchors_hold():
    spec = ModelSpec(n=6, r=2, p=1)
    cfg = stationary_sim_config(spec, T=30, seed=35)
    pan, _ = simulate_dfm(cfg)
    pan, _ = standardize(pan)
    prior = default_prior(spec)
    config = gibbs.GibbsConfig(
        n_draws=250, burn_in_fraction=0.2, seed=6,
        identification=((0, 0), (1, 1)),
    )
    store = gibbs.run_gibbs(pan, spec, prior, config)
    assert np.all(store.lambdas[:, 0, 0] > 0)
    assert np.all(store.lambdas[:, 1, 1] > 0)
    assert np.all(store.lambdas[:, 0, 1:] == 0.0)
    assert np.all(store.lambdas[:, 1, 0] == 0.0)
    # companion copies hold exactly inside every stored state path
    assert_allclose(store.states[:, 1:, 2:], store.states[:, :-1, :2], atol=0)


def test_large_panel_fit_stays_fast():
    # n >> s is where collapsing pays: a 100-series, two-factor, two-lag
    # fit must stay interactive.
    import time

    spec = ModelSpec(n=100, r=2, p=2)
    cfg = stationary_sim_config(
        spec, T=150, seed=37, missing=(RandomMissing(0.15),)
    )
    pan, _ = simulate_dfm(cfg)
    pan, _ = standardize(pan)
    prior = default_prior(spec)
    start = time.perf_counter()
    state, moments, report = vi.fit_smf(
        pan, spec, prior, tolerance=1e-7, max_iters=500
    )
    elapsed = time.perf_counter() - start
    assert report.converged
    trace = report.elbo_trace
    assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))
    assert elapsed < 30.0, f"large fit took {elapsed:.1f}s"


def test_lagged_model_posteriors_agree_across_methods():
    # The only place a semantic mismatch between the variational and Gibbs
    # treatments of the companion form could surface is a cross-method
    # comparison; predictive coverage must sit at nominal here too.
    from dfmvi import forecast

    spec = ModelSpec(n=10, r=1, p=1)
    cfg = stationary_sim_config(
        spec, T=60, seed=77, missing=(RandomMissing(0.08),)
    )
    pan, _ = simulate_dfm(cfg)
    pan, _ = standardize(pan)
    prior = default_prior(spec)
    state, moments, report = vi.fit_smf(
        pan, spec, prior, tolerance=1e-7, max_iters=500
    )
    assert report.converged
    store = gibbs.run_gibbs(
        pan, spec, prior,
        gibbs.GibbsConfig(n_draws=8_000, burn_in_fraction=0.2, seed=3),
    )
    rep = forecast.compare_posteriors(
        state, moments, store, horizons=2, n_smf_draws=15_000, seed=9
    )
    summary = rep.coverage_summary()
    assert rep.pm_errors["insample"]["mae"] <= 0.02
    assert abs(summary["insample"][95]["mean"] - 95.0) <= 1.5
    assert abs(summary["insample"][50]["mean"] - 50.0) <= 2.5
    assert abs(summary["oos_h1"][95]["mean"] - 95.0) <= 1.5


def test_all_missing_final_row_matches_dense_oracle():
    # The ragged-edge nowcast: no data at the last step, where the zero
    # pseudo-observations carry no parameter covariance either.
    spec = ModelSpec(n=3, r=1, p=1)
    cfg = stationary_sim_config(spec, T=10, seed=36)
    pan, _ = simulate_dfm(cfg)
    values = pan.values.copy()
    values[-1, :] = np.nan
    ragged = TimeSeriesPanel(
        values=values, mask=~np.isnan(values), names=pan.names
    )
    prior = default_prior(spec)
    state = vi.init_from_pca(ragged, spec, prior, seed=0)
    moments = vi.update_states(ragged, state.loadings, state.transition, prior)
    oracle = dense_gaussian_oracle(ragged, state, prior)
    assert_allclose(moments.mean, oracle.mean, atol=1e-8)
    assert_allclose(moments.cov, oracle.marg_cov, atol=1e-8)
    assert_allclose(moments.lag_one, oracle.lag_one, atol=1e-8)
