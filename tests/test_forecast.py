import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from dfmvi import forecast, gibbs, vi
from dfmvi.errors import DomainError
from dfmvi.model import ModelSpec, default_prior
from dfmvi.sim import companion
from tests.conftest import random_masked_panel


@pytest.fixture(scope="module")
def small_fit():
    spec = ModelSpec(n=3, r=1, p=0)
    prior = default_prior(spec)
    pan, cfg, _ = random_masked_panel(spec, T=40, seed=200, missing_prob=0.1)
    state, moments, _ = vi.fit_smf(pan, spec, prior, tolerance=1e-7, max_iters=400)
    return pan, spec, prior, state, moments


def _insample_smf(state, moments, n_draws, seed):
    """In-sample draws as ``compare_posteriors`` makes them, all steps at once."""
    rng = np.random.default_rng(seed)
    sigma2, lam, _ = forecast._draw_variational_theta(state, n_draws, rng)
    T, s = moments.mean.shape[0] - 1, moments.mean.shape[1]
    states = forecast._marginal_draws(
        moments, 1, T + 1, rng.standard_normal((n_draws, T, s))
    )
    noisy = rng.standard_normal((n_draws, T, lam.shape[1]))
    forecast._observe(lam, states, np.sqrt(sigma2), noisy)
    return noisy


def test_point_forecast_in_degenerate_limit(small_fit):
    pan, spec, prior, state, moments = small_fit
    tight = vi.VariationalState(
        loadings=vi.LoadingsVariational(
            mean=state.loadings.mean,
            cov=state.loadings.cov * 1e-18,
            noise_df=state.loadings.noise_df,
            noise_scale=state.loadings.noise_scale * 1e-18,
            free=state.loadings.free,
        ),
        transition=vi.TransitionVariational(
            mean=state.transition.mean, cov=state.transition.cov * 1e-18
        ),
    )
    # with all posterior spreads collapsed, every in-sample draw equals the
    # plug-in fitted value
    moments_t, _ = vi.update_states(pan, tight.loadings, tight.transition, prior)
    ins = _insample_smf(tight, moments_t, n_draws=64, seed=0)
    want = moments_t.mean[1:] @ tight.loadings.mean.T
    assert ins.std(axis=0).max() < 1e-6
    assert_allclose(ins[0], want, atol=1e-6)
    # out of sample the fresh state innovations keep unit spread, but the
    # mean collapses onto the iterated plug-in forecast
    oos = forecast.draw_predictive((tight, moments_t), 1, n_draws=120_000, seed=0)
    trans = companion(tight.transition.mean)
    want1 = tight.loadings.mean @ (trans @ moments_t.mean[-1])
    se = oos[:, 0, :].std(axis=0) / np.sqrt(oos.shape[0])
    assert np.all(np.abs(oos[:, 0, :].mean(axis=0) - want1) < 4 * se)


def test_one_step_predictive_mean(small_fit):
    pan, spec, prior, state, moments = small_fit
    draws = forecast.draw_predictive((state, moments), 1, n_draws=200_000, seed=1)
    trans = companion(state.transition.mean)
    want = state.loadings.mean @ (trans @ moments.mean[-1])
    got = draws[:, 0, :].mean(axis=0)
    se = draws[:, 0, :].std(axis=0) / np.sqrt(draws.shape[0])
    assert np.all(np.abs(got - want) < 4 * se)


def test_predictive_variance_weakly_increasing_in_h(small_fit):
    _, _, _, state, moments = small_fit
    draws = forecast.draw_predictive((state, moments), 6, n_draws=100_000, seed=2)
    var_by_h = draws.var(axis=0).mean(axis=1)
    assert np.all(np.diff(var_by_h) > -0.01 * var_by_h[:-1])


def test_draw_predictive_rejects_bad_horizon(small_fit):
    _, _, _, state, moments = small_fit
    with pytest.raises(DomainError, match="horizons"):
        forecast.draw_predictive((state, moments), 0, n_draws=10)


def test_equal_seed_determinism(small_fit):
    _, _, _, state, moments = small_fit
    a = forecast.draw_predictive((state, moments), 3, n_draws=500, seed=9)
    b = forecast.draw_predictive((state, moments), 3, n_draws=500, seed=9)
    assert_array_equal(a, b)


def test_mcmc_predictive_paths(small_fit):
    pan, spec, prior, state, _ = small_fit
    store = gibbs.run_gibbs(
        pan, spec, prior,
        gibbs.GibbsConfig(n_draws=400, burn_in_fraction=0.25, seed=5),
    )
    out = forecast.draw_predictive(store, 2, n_draws=200, seed=3)
    assert out.shape == (200, 2, pan.n)
    # in sample, every stored draw is observed, as compare_posteriors does
    rng = np.random.default_rng(3)
    ins = rng.standard_normal((store.n_draws, pan.T, pan.n))
    fitted = forecast._observe(
        store.lambdas, store.states[:, 1:], np.sqrt(store.sigma2), ins
    )
    assert ins.shape == fitted.shape == (store.n_draws, pan.T, pan.n)
    assert np.isfinite(ins).all()


def test_posterior_mean_errors_basics():
    zero = forecast.posterior_mean_errors(np.ones(4), np.ones(4))
    assert zero == {"me": 0.0, "mae": 0.0, "rmse": 0.0}
    signed = forecast.posterior_mean_errors(np.array([1.0, -1.0]), np.zeros(2))
    assert_allclose([signed["me"], signed["mae"], signed["rmse"]], [0.0, 1.0, 1.0])
    with pytest.raises(DomainError):
        forecast.posterior_mean_errors(np.ones(3), np.ones(4))


def test_posterior_mean_errors_against_recompute():
    rng = np.random.default_rng(4)
    a, b = rng.standard_normal(5), rng.standard_normal(5)
    got = forecast.posterior_mean_errors(a, b)
    d = a - b
    assert_allclose(got["me"], d.mean(), atol=1e-14)
    assert_allclose(got["mae"], np.abs(d).mean(), atol=1e-14)
    assert_allclose(got["rmse"], np.sqrt((d**2).mean()), atol=1e-14)


def test_self_coverage_near_nominal():
    rng = np.random.default_rng(6)
    draws = rng.standard_normal((40_000, 5))
    cov = forecast.coverage_probability(draws, draws, levels=(50, 95))
    assert_allclose(cov[50], 50.0, atol=1.0)
    assert_allclose(cov[95], 95.0, atol=0.6)


def test_infinite_interval_full_coverage():
    rng = np.random.default_rng(7)
    draws = rng.standard_normal((1000, 3))
    lo = np.full(3, -np.inf)
    hi = np.full(3, np.inf)
    assert_array_equal(forecast.interval_coverage(lo, hi, draws), [100.0, 100.0, 100.0])


def test_coverage_known_normals_closed_form():
    # N(0,1) intervals against N(0,2) draws at the 95% level:
    # coverage = 2 Phi(z_{97.5} / sqrt(2)) - 1.
    rng = np.random.default_rng(8)
    smf = rng.standard_normal((400_000, 1))
    mcmc = rng.standard_normal((400_000, 1)) * np.sqrt(2.0)
    cov = forecast.coverage_probability(smf, mcmc, levels=(95,))
    z = stats.norm.ppf(0.975)
    want = 100.0 * (2.0 * stats.norm.cdf(z / np.sqrt(2.0)) - 1.0)
    assert_allclose(cov[95][0], want, atol=0.5)
    assert_allclose(want, 83.4, atol=0.1)


def test_coverage_rejects_empty_and_mismatched():
    with pytest.raises(DomainError):
        forecast.coverage_probability(np.empty((0, 2)), np.ones((5, 2)))
    with pytest.raises(DomainError):
        forecast.coverage_probability(np.ones((5, 2)), np.ones((5, 3)))
    with pytest.raises(DomainError):
        forecast.coverage_probability(
            np.ones((5, 2)), np.ones((5, 2)), levels=(0,)
        )


def test_coverage_rejects_non_finite_draws():
    good = np.ones((5, 2))
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[3, 1] = bad_value
        with pytest.raises(DomainError, match="SMF draw set"):
            forecast.coverage_probability(bad, good)
        with pytest.raises(DomainError, match="MCMC draw set"):
            forecast.coverage_probability(good, bad)


def test_coverage_rejects_repeated_or_no_levels():
    # One table per distinct level: a repeated level would be dropped.
    draws = np.ones((5, 2))
    for levels in ((50, 95, 50), ()):
        with pytest.raises(DomainError, match="levels"):
            forecast.coverage_probability(draws, draws, levels=levels)


@pytest.mark.parametrize("n", [1, 2, 3, 7, 450, 2500])
def test_sorted_quantiles_equal_numpy_linear_quantiles_bitwise(n):
    rng = np.random.default_rng(n)
    q = np.arange(1, 100) / 100.0
    continuous = rng.standard_normal((n, 9))
    # ties: every draw repeats one of a few values
    tied = rng.choice(rng.standard_normal(max(n // 3, 1)), size=(n, 9))
    for draws in (continuous, tied):
        want = np.quantile(draws, q, axis=0)
        got = forecast._sorted_quantiles(np.sort(draws.T, axis=-1), q)
        assert got.shape == want.shape
        assert_array_equal(got.view(np.int64), want.view(np.int64))


def _quantile_coverage(smf, mcmc, levels):
    """Coverage per level from numpy's own quantiles, one level at a time."""
    out = {}
    for level in levels:
        alpha = 0.5 * (1.0 - level / 100.0)
        lo, hi = np.quantile(smf, [alpha, 1.0 - alpha], axis=0)
        out[level] = 100.0 * ((mcmc >= lo) & (mcmc <= hi)).mean(axis=0)
    return out


def test_coverage_probability_equals_per_level_quantile_reference_bitwise():
    reference = _quantile_coverage
    rng = np.random.default_rng(9)
    levels = (1, 50, 75, 95, 99)
    for _ in range(10):
        n_smf, n_mcmc = rng.integers(1, 700, size=2)
        smf = rng.standard_normal((n_smf, 4, 6))
        mcmc = 1.3 * rng.standard_normal((n_mcmc, 4, 6))
        want = reference(smf, mcmc, levels)
        got = forecast.coverage_probability(smf, mcmc, levels)
        assert list(got) == list(levels)
        for level in levels:
            assert got[level].shape == (4, 6)
            assert_array_equal(got[level].view(np.int64), want[level].view(np.int64))


def test_summarize_coverage():
    summary = forecast.summarize_coverage({95: np.array([90.0, 95.0, 100.0])})
    assert_allclose(summary[95]["mean"], 95.0)
    assert_allclose(summary[95]["median"], 95.0)
    assert summary[95]["stdev"] > 0


def test_compare_posterior_with_itself(small_fit):
    # A draw store synthesized from the variational densities compared back
    # against the fit: mean errors vanish and coverage sits at nominal.
    pan, spec, prior, state, moments = small_fit
    rng = np.random.default_rng(21)
    n_draws = 30_000
    sig2, lam, phi = forecast._draw_variational_theta(state, n_draws, rng)
    states = np.empty((n_draws, pan.T + 1, spec.s))
    for t in range(pan.T + 1):
        root = np.linalg.cholesky(moments.cov[t] + 1e-14 * np.eye(spec.s))
        states[:, t, :] = moments.mean[t] + rng.standard_normal(
            (n_draws, spec.s)
        ) @ root.T
    store = gibbs.DrawStore(
        lambdas=lam, sigma2=sig2, phi=phi, states=states,
        seed=0, thin=1, burn_in=0, sign_flips=0,
    )
    report = forecast.compare_posteriors(
        state, moments, store, horizons=1, n_smf_draws=30_000, seed=3
    )
    for block in ("transition", "loadings", "noise", "factors", "insample"):
        assert report.pm_errors[block]["mae"] < 0.05, block
    summary = report.coverage_summary()
    for block in ("transition", "loadings", "factors", "insample"):
        for level in (50, 75, 95):
            assert abs(summary[block][level]["mean"] - level) < 2.5, (block, level)


def test_noise_precision_bookkeeping(small_fit):
    # The reciprocal noise scale used as the collapse precision equals the
    # mean reciprocal variance of the variational noise density.
    _, _, _, state, _ = small_fit
    rng = np.random.default_rng(22)
    draws = (
        state.loadings.noise_df
        * state.loadings.noise_scale
        / rng.chisquare(state.loadings.noise_df, size=(400_000, 3))
    )
    implied = (1.0 / draws).mean(axis=0)
    assert_allclose(implied, state.loadings.noise_prec, rtol=0.01)


def test_insample_posterior_mean_tracks_data_when_noise_small():
    # Small idiosyncratic noise concentrates in-sample predictions on the
    # observed values.
    spec = ModelSpec(n=4, r=1, p=0)
    prior = default_prior(spec)
    rng = np.random.default_rng(23)
    T = 80
    f = np.zeros(T + 1)
    for t in range(1, T + 1):
        f[t] = 0.8 * f[t - 1] + rng.standard_normal()
    lam = np.array([1.0, -0.8, 0.6, 1.2])
    y = f[1:, None] * lam[None, :] + 0.02 * rng.standard_normal((T, 4))
    from dfmvi.panel import from_arrays, standardize

    pan, _ = standardize(from_arrays(y))
    state, moments, _ = vi.fit_smf(pan, spec, prior, tolerance=1e-7, max_iters=400)
    pred = moments.mean[1:] @ state.loadings.mean.T
    corr = np.corrcoef(pred.ravel(), pan.values.ravel())[0, 1]
    assert corr > 0.99


def test_insample_smf_draws_cover_observations(small_fit):
    # sanity: observed cells mostly fall inside wide predictive intervals
    pan, _, _, state, moments = small_fit
    ins = _insample_smf(state, moments, n_draws=4000, seed=11)
    lo, hi = np.quantile(ins, [0.025, 0.975], axis=0)
    inside = ((pan.values >= lo) & (pan.values <= hi))[pan.mask]
    assert inside.mean() > 0.85


@pytest.fixture(scope="module")
def small_store(small_fit):
    pan, spec, prior, _, _ = small_fit
    return gibbs.run_gibbs(
        pan, spec, prior, gibbs.GibbsConfig(n_draws=120, burn_in_fraction=0.25, seed=6)
    )


@pytest.fixture(scope="module")
def lagged_fit():
    """r=2, p=1 (s=4) on T=35 with series 4 never observed, and a short chain."""
    spec = ModelSpec(n=5, r=2, p=1)
    prior = default_prior(spec)
    pan, _, _ = random_masked_panel(spec, T=35, seed=31, missing_prob=0.1)
    mask = pan.mask.copy()
    mask[:, 4] = False
    mask[-1, 0] = True
    pan = type(pan)(
        values=np.where(mask, pan.values, np.nan), mask=mask, names=pan.names
    )
    state, moments, _ = vi.fit_smf(pan, spec, prior, tolerance=1e-6, max_iters=80)
    store = gibbs.run_gibbs(
        pan, spec, prior, gibbs.GibbsConfig(n_draws=80, burn_in_fraction=0.25, seed=4)
    )
    return state, moments, store


def _serial_insample(state, moments, store, n_smf_draws, seed, levels):
    """The in-sample block loop of ``compare_posteriors``, run serially.

    The stream is replayed up to the loop (parameter and factor-path draws),
    then each time block draws its states, SMF noise and MCMC noise and is
    scored at once, with numpy's quantiles for the coverage.
    """
    rng = np.random.default_rng(seed)
    sig2, lam, _ = forecast._draw_variational_theta(state, n_smf_draws, rng)
    T, s = moments.mean.shape[0] - 1, moments.mean.shape[1]
    n, r = lam.shape[1], state.transition.mean.shape[0]
    rng.standard_normal((n_smf_draws, T, r))  # the factor-path draws
    sd_smf, sd_mc = np.sqrt(sig2), np.sqrt(store.sigma2)
    mc_mean = np.zeros((T, n))
    cov = {level: np.zeros((T, n)) for level in levels}
    for start in range(0, T, forecast._TIME_BLOCK):
        stop = min(start + forecast._TIME_BLOCK, T)
        steps = stop - start
        z = rng.standard_normal((n_smf_draws, steps, s))
        states = forecast._marginal_draws(moments, start + 1, stop + 1, z)
        smf = rng.standard_normal((n_smf_draws, steps, n))
        forecast._observe(lam, states, sd_smf, smf)
        mc = rng.standard_normal((store.n_draws, steps, n))
        mc_fit = forecast._observe(
            store.lambdas, store.states[:, start + 1 : stop + 1], sd_mc, mc
        )
        mc_mean[start:stop] = mc_fit.mean(axis=0)
        blk = _quantile_coverage(
            smf.reshape(n_smf_draws, -1), mc.reshape(store.n_draws, -1), levels
        )
        for level in levels:
            cov[level][start:stop] = blk[level].reshape(steps, n)
    smf_mean = moments.mean[1:] @ state.loadings.mean.T
    return forecast.posterior_mean_errors(smf_mean, mc_mean), cov


def _assert_reports_equal_bitwise(a, b):
    assert a.pm_errors == b.pm_errors and a.levels == b.levels
    assert list(a.coverage) == list(b.coverage)
    for block, per_level in a.coverage.items():
        assert list(per_level) == list(b.coverage[block])
        for level, cov in per_level.items():
            want = b.coverage[block][level]
            assert_array_equal(cov.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("fixture", ["small", "lagged"])
def test_compare_pipeline_equals_serial_block_loop_bitwise(
    fixture, small_fit, small_store, lagged_fit, monkeypatch
):
    # T = 40 and 35, not multiples of the 16-step time block; s = 1 and s = 4,
    # the latter with one series never observed.
    if fixture == "small":
        _, _, _, state, moments = small_fit
        store = small_store
    else:
        state, moments, store = lagged_fit
    levels, n_draws, seed = (50, 80, 95), 300, 12
    report = forecast.compare_posteriors(
        state, moments, store, horizons=2, n_smf_draws=n_draws, seed=seed,
        levels=levels,
    )
    pm_want, cov_want = _serial_insample(state, moments, store, n_draws, seed, levels)
    assert report.pm_errors["insample"] == pm_want
    for level in levels:
        got = report.coverage["insample"][level]
        assert_array_equal(got.view(np.int64), cov_want[level].view(np.int64))
    # Chunks of a few values (one draw, one element) move no bit of any block.
    monkeypatch.setattr(forecast, "_CHUNK_VALUES", 7)
    chunked = forecast.compare_posteriors(
        state, moments, store, horizons=2, n_smf_draws=n_draws, seed=seed,
        levels=levels,
    )
    _assert_reports_equal_bitwise(report, chunked)


def test_compare_worker_error_reaches_caller_and_thread_exits(lagged_fit, monkeypatch):
    state, moments, store = lagged_fit
    before = threading.active_count()
    forecast.compare_posteriors(state, moments, store, horizons=1, n_smf_draws=50)
    assert threading.active_count() == before

    # A non-finite lagged state coordinate (s > r) reaches only the in-sample
    # block of steps 16..31, which is scored on the worker thread.
    states = store.states.copy()
    states[3, 20, 2] = np.inf
    bad = gibbs.DrawStore(
        lambdas=store.lambdas, sigma2=store.sigma2, phi=store.phi, states=states,
        seed=store.seed, thin=store.thin, burn_in=store.burn_in,
        sign_flips=store.sign_flips,
    )
    raised = []
    real = forecast.coverage_probability

    def spy(smf, mcmc, levels=(50, 75, 95)):
        try:
            return real(smf, mcmc, levels)
        except DomainError as exc:
            raised.append((threading.current_thread(), exc))
            raise

    monkeypatch.setattr(forecast, "coverage_probability", spy)
    with pytest.raises(DomainError, match="MCMC draw set") as excinfo:
        forecast.compare_posteriors(state, moments, bad, horizons=1, n_smf_draws=50)
    [(thread, exc)] = raised
    assert thread is not threading.main_thread()
    assert excinfo.value is exc
    assert threading.active_count() == before
