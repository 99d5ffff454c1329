import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dfmvi import vi
from dfmvi.errors import DomainError
from dfmvi.model import ModelSpec, default_prior
from dfmvi.panel import TimeSeriesPanel
from dfmvi.sim import (
    PeriodicMissing,
    RaggedEdge,
    RandomMissing,
    SimConfig,
    companion,
    simulate_dfm,
    spectral_radius,
    stationary_sim_config,
)
from tests.conftest import random_masked_panel, unanchored
from tests.oracles import (
    dense_fixed_moments,
    dense_gaussian_oracle,
    mc_elbo_oracle,
    mc_log_marginal,
)


def test_zero_loadings_gives_pure_noise():
    spec = ModelSpec(n=3, r=1, p=0)
    config = SimConfig(
        spec=spec,
        loadings=np.zeros((3, 1)),
        noise_var=np.array([1.0, 0.5, 2.0]),
        trans=np.array([[0.5]]),
        T=20_000,
        seed=4,
    )
    pan, _ = simulate_dfm(config)
    cov = np.cov(pan.values.T)
    off = cov - np.diag(np.diag(cov))
    assert np.abs(off).max() < 0.05
    assert_allclose(np.diag(cov), config.noise_var, rtol=0.1)


def test_zero_rate_random_missingness_keeps_full_mask():
    spec = ModelSpec(n=2, r=1, p=0)
    cfg = stationary_sim_config(spec, T=10, seed=1, missing=(RandomMissing(0.0),))
    pan, _ = simulate_dfm(cfg)
    assert pan.mask.all()


def test_missingness_patterns_compose():
    spec = ModelSpec(n=3, r=1, p=0)
    cfg = stationary_sim_config(
        spec,
        T=12,
        seed=2,
        missing=(RaggedEdge(cutoffs={0: 8}), PeriodicMissing(strides={1: 3})),
    )
    pan, _ = simulate_dfm(cfg)
    assert not pan.mask[8:, 0].any() and pan.mask[:8, 0].all()
    expected = (np.arange(1, 13) % 3) == 0
    assert (pan.mask[:, 1] == expected).all()
    assert pan.mask[:, 2].all()


def test_sample_autocovariance_matches_model_implied():
    # One factor, AR(1) coefficient phi: observable autocovariance at lag h
    # is loading^2 * phi^h / (1 - phi^2); the lag-0 variance adds noise.
    phi, lam, noise = 0.8, 1.3, 0.6
    spec = ModelSpec(n=1, r=1, p=0)
    config = SimConfig(
        spec=spec,
        loadings=np.array([[lam]]),
        noise_var=np.array([noise]),
        trans=np.array([[phi]]),
        T=50_000,
        seed=9,
    )
    pan, _ = simulate_dfm(config)
    y = pan.values[:, 0]
    y = y - y.mean()
    gamma_f = 1.0 / (1.0 - phi**2)
    acov0 = float(np.mean(y * y))
    acov1 = float(np.mean(y[1:] * y[:-1]))
    acov2 = float(np.mean(y[2:] * y[:-2]))
    assert_allclose(acov0, lam**2 * gamma_f + noise, rtol=0.05)
    assert_allclose(acov1, lam**2 * phi * gamma_f, rtol=0.05)
    assert_allclose(acov2, lam**2 * phi**2 * gamma_f, rtol=0.08)


def test_dense_oracle_no_data_returns_prior_process():
    values = np.full((3, 2), np.nan)
    pan = TimeSeriesPanel(values)
    lam = np.array([[1.0, 0.0], [0.0, 1.0]])
    trans = np.array([[0.6, 0.1]])
    out = dense_fixed_moments(pan, lam, np.ones(2), trans, np.eye(2))
    assert_allclose(out.mean, np.zeros((4, 2)))
    comp = np.array([[0.6, 0.1], [1.0, 0.0]])
    q = np.diag([1.0, 0.0])
    cov = np.eye(2)
    for t in range(1, 4):
        cov = comp @ cov @ comp.T + q
        assert_allclose(out.marg_cov[t], cov, atol=1e-12)


def test_dense_oracle_single_observation_rank_one_update():
    # One scalar observation at the last step: conditioning is the
    # textbook rank-one formula mean = Cov(F, z) z / Var(z).
    phi, lam, noise = 0.5, 2.0, 0.3
    values = np.array([[np.nan], [1.7]])
    pan = TimeSeriesPanel(values)
    out = dense_fixed_moments(
        pan, np.array([[lam]]), np.array([noise]), np.array([[phi]]), np.eye(1)
    )
    var_f0 = 1.0
    var_f1 = phi**2 * var_f0 + 1.0
    var_f2 = phi**2 * var_f1 + 1.0
    var_z = lam**2 * var_f2 + noise
    cov_f2_z = lam * var_f2
    cov_f1_z = lam * phi * var_f1
    cov_f0_z = lam * phi**2 * var_f0
    z = 1.7
    assert_allclose(out.mean[2, 0], cov_f2_z * z / var_z, atol=1e-12)
    assert_allclose(out.mean[1, 0], cov_f1_z * z / var_z, atol=1e-12)
    assert_allclose(out.mean[0, 0], cov_f0_z * z / var_z, atol=1e-12)
    assert_allclose(out.marg_cov[2, 0, 0], var_f2 - cov_f2_z**2 / var_z, atol=1e-12)
    assert_allclose(out.loglik, -0.5 * (math.log(2 * math.pi * var_z) + z**2 / var_z))


def test_dense_oracle_size_cap():
    spec = ModelSpec(n=2, r=1, p=0)
    pan, _, _ = random_masked_panel(spec, T=600, seed=0)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, unanchored(spec), seed=0)
    with pytest.raises(DomainError, match="capped"):
        dense_gaussian_oracle(pan, state, prior)


def test_mc_oracle_se_scaling(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=3, seed=5, missing_prob=0.2)
    state, _, _ = vi.fit_smf(pan, tiny_spec, tiny_prior, tolerance=1e-8, max_iters=50)
    restr = unanchored(tiny_spec)
    _, se_small = mc_elbo_oracle(pan, state, tiny_prior, restr, n_samples=20_000, seed=3)
    _, se_big = mc_elbo_oracle(pan, state, tiny_prior, restr, n_samples=80_000, seed=3)
    assert_allclose(se_small / se_big, 2.0, rtol=0.25)


def test_mc_oracle_near_point_mass_parameters(tiny_spec, tiny_prior):
    # Shrink the parameter block toward a point mass: the oracle must stay
    # numerically sound there and keep matching the analytic bound.
    pan, _, _ = random_masked_panel(tiny_spec, T=3, seed=6, missing_prob=0.2)
    state, _, _ = vi.fit_smf(pan, tiny_spec, tiny_prior, tolerance=1e-8, max_iters=50)
    tight = vi.VariationalState(
        loadings=vi.LoadingsVariational(
            mean=state.loadings.mean,
            cov=state.loadings.cov * 1e-6,
            noise_df=state.loadings.noise_df,
            noise_scale=state.loadings.noise_scale,
        ),
        transition=vi.TransitionVariational(
            mean=state.transition.mean, cov=state.transition.cov * 1e-6
        ),
    )
    restr = unanchored(tiny_spec)
    est1, se1 = mc_elbo_oracle(pan, tight, tiny_prior, restr, n_samples=50_000, seed=0)
    est2, se2 = mc_elbo_oracle(pan, tight, tiny_prior, restr, n_samples=50_000, seed=99)
    assert abs(est1 - est2) < 6 * (se1 + se2)
    moments = vi.update_states(pan, tight.loadings, tight.transition, tiny_prior)
    exact = vi.compute_elbo(
        pan, tight.loadings, tight.transition, moments, tiny_prior, restr
    )
    assert abs(exact - est1) < 4 * se1


def test_oracles_share_no_code_with_production_filter():
    # The oracles and the generator they are checked on must stay
    # independent implementations: neither may import the production
    # state-space module.
    import dfmvi.sim
    import tests.oracles

    for module in (tests.oracles, dfmvi.sim):
        with open(module.__file__, encoding="utf-8") as fh:
            assert "statespace" not in fh.read()


def test_mc_log_marginal_bounds_elbo(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=3, seed=8, missing_prob=0.1)
    state, _, report = vi.fit_smf(
        pan, tiny_spec, tiny_prior, tolerance=1e-9, max_iters=200
    )
    restr = unanchored(tiny_spec)
    moments = vi.update_states(pan, state.loadings, state.transition, tiny_prior)
    elbo = vi.compute_elbo(
        pan, state.loadings, state.transition, moments, tiny_prior, restr
    )
    logml, se = mc_log_marginal(pan, state, tiny_prior, restr, n_samples=200_000, seed=2)
    assert elbo <= logml + 3 * se


def test_companion_structure():
    trans = companion(np.array([[0.2, 0.3, 0.4, 0.5]]))
    assert_allclose(trans[0], [0.2, 0.3, 0.4, 0.5])
    assert_allclose(trans[1:, :3], np.eye(3))
    assert_allclose(trans[1:, 3], np.zeros(3))


@pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, math.nan])
def test_random_missing_rate_outside_unit_interval_rejected(rate):
    spec = ModelSpec(n=2, r=1, p=0)
    cfg = stationary_sim_config(spec, T=10, seed=1, missing=(RandomMissing(rate),))
    with pytest.raises(DomainError, match="missing rate"):
        simulate_dfm(cfg)


def test_more_factors_than_series_rejected():
    with pytest.raises(DomainError, match="r <= n"):
        stationary_sim_config(ModelSpec(n=2, r=3, p=0), T=10)


@pytest.mark.parametrize("r, p", [(1, 0), (2, 1), (3, 2)])
def test_stationary_config_draws_a_stationary_transition(r, p):
    for seed in range(20):
        cfg = stationary_sim_config(ModelSpec(n=4, r=r, p=p), T=5, seed=seed)
        assert spectral_radius(cfg.trans) < 0.95


def test_origin_state_is_the_first_standard_normal_draw():
    cfg = stationary_sim_config(ModelSpec(n=3, r=2, p=1), T=5, seed=6)
    _, states = simulate_dfm(cfg)
    want = np.random.default_rng(6).standard_normal(4)
    assert states[0].tobytes() == want.tobytes()
