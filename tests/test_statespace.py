import math

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from dfmvi import sim, statespace, vi
from dfmvi.errors import NumericalError
from dfmvi.model import ModelSpec, default_prior
from dfmvi.sim import dense_gaussian_oracle
from tests.conftest import random_masked_panel

LN2PI = math.log(2.0 * math.pi)


def _gls_collapse_oracle(y, mask, loading_mean, noise_var, sigma_theta):
    """Brute-force GLS on the stacked (available rows + zero block) system."""
    avail = mask.astype(bool)
    s = loading_mean.shape[1]
    design = np.vstack([loading_mean[avail], np.eye(s)])
    cov = scipy.linalg.block_diag(
        np.diag(noise_var[avail]), np.linalg.inv(sigma_theta)
    )
    obs = np.concatenate([y[avail], np.zeros(s)])
    prec = design.T @ np.linalg.inv(cov) @ design
    h_star = np.linalg.inv(prec)
    y_star = h_star @ design.T @ np.linalg.inv(cov) @ obs
    return y_star, h_star


def test_collapse_all_missing_step():
    out = sim.collapse_observation(
        y_t=np.array([5.0, -1.0]),
        mask_t=np.zeros(2, dtype=bool),
        loading_mean=np.array([[1.0], [2.0]]),
        noise_prec=np.array([1.0, 1.0]),
        sigma_theta_t=np.eye(1),
    )
    assert_allclose(out.y_star, [0.0])
    assert_allclose(out.H_star, np.eye(1))


def test_collapse_scalar_hand_values():
    out = sim.collapse_observation(
        y_t=np.array([3.0]),
        mask_t=np.array([True]),
        loading_mean=np.array([[2.0]]),
        noise_prec=np.array([1.0]),
        sigma_theta_t=np.array([[1.0]]),
    )
    assert_allclose(out.H_star, [[1.0 / 5.0]])
    assert_allclose(out.y_star, [6.0 / 5.0])


def test_collapse_masked_content_ignored():
    base = sim.collapse_observation(
        np.array([3.0, 0.0]),
        np.array([True, False]),
        np.array([[2.0], [1.0]]),
        np.array([1.0, 1.0]),
        np.eye(1),
    )
    poisoned = sim.collapse_observation(
        np.array([3.0, 1e9]),
        np.array([True, False]),
        np.array([[2.0], [1.0]]),
        np.array([1.0, 1.0]),
        np.eye(1),
    )
    assert_allclose(poisoned.y_star, base.y_star)
    assert_allclose(poisoned.H_star, base.H_star)


def test_collapse_matches_dense_gls_oracle():
    rng = np.random.default_rng(11)
    for k in range(25):
        n, s = 3, 2
        mask = rng.random(n) > 0.4
        y = rng.standard_normal(n)
        lam = rng.standard_normal((n, s))
        noise_var = rng.uniform(0.2, 2.0, n)
        a = rng.standard_normal((s, s))
        sigma_theta = a @ a.T + 0.3 * np.eye(s)
        got = sim.collapse_observation(
            y, mask, lam, 1.0 / noise_var, sigma_theta
        )
        want_y, want_h = _gls_collapse_oracle(y, mask, lam, noise_var, sigma_theta)
        assert_allclose(got.y_star, want_y, atol=1e-10)
        assert_allclose(got.H_star, want_h, atol=1e-10)


def test_collapse_singular_precision_raises():
    with pytest.raises(NumericalError, match="positive definite priors"):
        sim.collapse_observation(
            np.array([1.0]),
            np.array([False]),
            np.array([[1.0]]),
            np.array([1.0]),
            np.zeros((1, 1)),
        )


def test_build_sigma_theta_cases():
    covs = np.stack([np.eye(2)] * 3)
    trans_cov = np.eye(2)
    none_avail = sim.build_sigma_theta(
        np.zeros(3, dtype=bool), covs, trans_cov, r=2, is_last=False
    )
    assert_allclose(none_avail, 2.0 * np.eye(2))
    all_last = sim.build_sigma_theta(
        np.ones(3, dtype=bool), covs, trans_cov, r=2, is_last=True
    )
    assert_allclose(all_last, 3.0 * np.eye(2))
    two_of_three = sim.build_sigma_theta(
        np.array([True, False, True]), covs, trans_cov, r=2, is_last=False
    )
    assert_allclose(two_of_three, 4.0 * np.eye(2))


def test_filter_scalar_single_step():
    # One step, transition 0.5, origin variance 1, collapsed noise 1, y*=0.
    # Predicted variance 0.5^2 + 1 = 1.25; innovation covariance adds H*.
    params = statespace.SsmParams(
        transition=np.array([[0.5]]),
        init_cov=np.array([[1.0]]),
        y_star=np.array([[0.0]]),
        H_star=np.array([[[1.0]]]),
        r=1,
        h_star_logdet=np.array([0.0]),
        sigma_theta_logdet=np.array([0.0]),
        remainder_quads=np.array([0.0]),
    )
    filt = statespace.kalman_filter(params)
    assert_allclose(filt.pred_mean[0], [0.0])
    assert_allclose(filt.innovation_cov[0], [[2.25]])
    assert_allclose(filt.loglik, -0.5 * LN2PI - 0.5 * math.log(2.25))

    smoothed = statespace.kalman_smoother(filt, params)
    assert_allclose(smoothed.mean[1], filt.filt_mean[1])
    assert_allclose(smoothed.cov[1], filt.filt_cov[1])


def test_filter_names_first_non_positive_definite_innovation_step():
    # H_star at time 3 is negative definite, so the innovation covariance
    # P_3 + H_3 is not positive definite there and nowhere before.
    s, T = 2, 5
    h = np.stack([0.5 * np.eye(s)] * T)
    h[2] = -10.0 * np.eye(s)
    params = statespace.SsmParams(
        transition=statespace.companion(np.array([[0.5, 0.2]])),
        init_cov=np.eye(s),
        y_star=np.ones((T, s)),
        H_star=h,
        r=1,
        h_star_logdet=np.zeros(T),
        sigma_theta_logdet=np.zeros(T),
        remainder_quads=np.zeros(T),
    )
    with pytest.raises(NumericalError, match=r"innovation covariance at time step 3\b"):
        statespace.kalman_filter(params)


def test_filter_vacuous_observation_returns_prior_process():
    # Enormous collapsed noise carries no information, so the smoothed
    # moments equal the prior process moments.
    trans = np.array([[0.7]])
    params = statespace.SsmParams(
        transition=trans,
        init_cov=np.array([[2.0]]),
        y_star=np.array([[3.0], [-1.0]]),
        H_star=np.full((2, 1, 1), 1e14),
        r=1,
        h_star_logdet=np.zeros(2),
        sigma_theta_logdet=np.zeros(2),
        remainder_quads=np.zeros(2),
    )
    moments = statespace.smooth_collapsed(params)
    var0 = 2.0
    var1 = 0.49 * var0 + 1.0
    var2 = 0.49 * var1 + 1.0
    assert_allclose(moments.mean, np.zeros((3, 1)), atol=1e-8)
    assert_allclose(
        [moments.cov[0, 0, 0], moments.cov[1, 0, 0], moments.cov[2, 0, 0]],
        [var0, var1, var2],
        rtol=1e-6,
    )


def test_smoother_zero_transition_isolates_time_steps():
    # With a zero transition the smoothed state at t depends only on the
    # collapsed observation at t and the process prior, so it equals the
    # single-step conditional.
    y = np.array([[1.4], [-0.3], [0.8]])
    h = np.full((3, 1, 1), 0.5)
    params = statespace.SsmParams(
        transition=np.array([[0.0]]),
        init_cov=np.array([[1.0]]),
        y_star=y,
        H_star=h,
        r=1,
        h_star_logdet=np.zeros(3),
        sigma_theta_logdet=np.zeros(3),
        remainder_quads=np.zeros(3),
    )
    moments = statespace.smooth_collapsed(params)
    for t in range(1, 4):
        prior_var = 1.0
        gain = prior_var / (prior_var + 0.5)
        assert_allclose(moments.mean[t, 0], gain * y[t - 1, 0])
        assert_allclose(moments.cov[t, 0, 0], prior_var - gain * prior_var)


def test_remainder_terms_all_missing_and_perfect_fit():
    lam = np.array([[2.0]])
    # all missing: residual reduces to the zero-block part
    y_star = np.array([0.7])
    sigma_theta = np.array([[3.0]])
    quad = sim.remainder_loglik_terms(
        np.array([9.9]), np.array([False]), lam, np.array([1.0]), sigma_theta, y_star
    )
    assert_allclose(quad, 0.7 * 3.0 * 0.7)
    # perfect fit at a zero summary
    quad0 = sim.remainder_loglik_terms(
        np.array([0.0]), np.array([True]), lam, np.array([1.0]), sigma_theta,
        np.array([0.0]),
    )
    assert_allclose(quad0, 0.0)


def test_remainder_terms_scalar_hand_value():
    # y=3, loading 2, unit noise, sigma_theta=1 gives summary 6/5; the
    # residual stacks 3 - 2*6/5 = 3/5 and -6/5 with unit weights.
    quad = sim.remainder_loglik_terms(
        np.array([3.0]),
        np.array([True]),
        np.array([[2.0]]),
        np.array([1.0]),
        np.array([[1.0]]),
        np.array([6.0 / 5.0]),
    )
    assert_allclose(quad, (3.0 / 5.0) ** 2 + (6.0 / 5.0) ** 2)


def test_build_system_matches_per_step_ops():
    spec = ModelSpec(n=3, r=1, p=1)
    pan, cfg, _ = random_masked_panel(spec, T=5, seed=3)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, seed=1)
    loadings, transition = state.loadings, state.transition
    params = statespace.build_collapsed_system(
        pan, loadings.mean, loadings.cov, loadings.noise_prec,
        transition.mean, transition.cov, prior.init_state_cov,
    )
    T = pan.T
    for t in range(1, T + 1):
        sigma_theta = sim.build_sigma_theta(
            pan.mask[t - 1], loadings.cov, transition.cov, spec.r, t == T
        )
        single = sim.collapse_observation(
            pan.filled(0.0)[t - 1], pan.mask[t - 1], loadings.mean,
            loadings.noise_prec, sigma_theta,
        )
        assert_allclose(params.y_star[t - 1], single.y_star, atol=1e-12)
        assert_allclose(params.H_star[t - 1], single.H_star, atol=1e-12)
        fetched = sim.collapsed(params, t)
        assert_allclose(fetched.y_star, params.y_star[t - 1], atol=0)
        assert_allclose(fetched.H_star, params.H_star[t - 1], atol=0)
        quad = sim.remainder_loglik_terms(
            pan.filled(0.0)[t - 1], pan.mask[t - 1], loadings.mean,
            loadings.noise_scale, sigma_theta, single.y_star,
        )
        assert_allclose(params.remainder_quads[t - 1], quad, atol=1e-12)
        sign, logdet = np.linalg.slogdet(sigma_theta)
        assert_allclose(params.sigma_theta_logdet[t - 1], logdet, atol=1e-10)


def test_smoother_matches_dense_oracle_random_instances():
    rng = np.random.default_rng(20)
    for k in range(12):
        spec = ModelSpec(n=int(rng.integers(2, 5)), r=1, p=int(rng.integers(0, 2)))
        pan, cfg, _ = random_masked_panel(spec, T=int(rng.integers(3, 7)), seed=30 + k)
        prior = default_prior(spec)
        state = vi.init_from_pca(pan, spec, prior, seed=k)
        moments, _ = vi.update_states(pan, state.loadings, state.transition, prior)
        oracle = dense_gaussian_oracle(pan, state, prior)
        assert_allclose(moments.mean, oracle.mean, atol=1e-8)
        assert_allclose(moments.cov, oracle.marg_cov, atol=1e-8)
        assert_allclose(moments.lag_one, oracle.lag_one, atol=1e-8)
        assert_allclose(
            moments.second_moment,
            oracle.marg_cov + oracle.mean[:, :, None] * oracle.mean[:, None, :],
            atol=1e-8,
        )


def test_collapsed_matches_augmented_and_decomposition():
    rng = np.random.default_rng(40)
    for k in range(10):
        spec = ModelSpec(n=int(rng.integers(2, 5)), r=1, p=int(rng.integers(0, 2)))
        pan, cfg, _ = random_masked_panel(spec, T=int(rng.integers(3, 7)), seed=60 + k)
        prior = default_prior(spec)
        state = vi.init_from_pca(pan, spec, prior, seed=k)
        loadings, transition = state.loadings, state.transition
        moments, params = vi.update_states(pan, loadings, transition, prior)
        aug_mean, aug_cov, aug_lag, aug_ll = sim.augmented_moments(
            pan.values, pan.mask, loadings.mean, loadings.cov,
            loadings.noise_scale, transition.mean, transition.cov,
            prior.init_state_cov,
        )
        assert_allclose(moments.mean, aug_mean, atol=1e-8)
        assert_allclose(moments.cov, aug_cov, atol=1e-8)
        assert_allclose(moments.lag_one, aug_lag, atol=1e-8)
        filt = statespace.kalman_filter(params)
        dec = sim.decomposed_loglik(
            params, filt, pan.mask, loadings.noise_scale
        )
        assert_allclose(dec, aug_ll, atol=1e-8)


def test_returned_covariances_symmetric():
    spec = ModelSpec(n=3, r=1, p=1)
    pan, _, _ = random_masked_panel(spec, T=6, seed=77)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, seed=0)
    moments, params = vi.update_states(pan, state.loadings, state.transition, prior)
    for arr in (moments.cov, moments.second_moment, moments.innovation_cov, params.H_star):
        assert np.abs(arr - arr.swapaxes(-1, -2)).max() <= 1e-12


def test_companion_structure():
    trans = statespace.companion(np.array([[0.2, 0.3, 0.4, 0.5]]))
    assert_allclose(trans[0], [0.2, 0.3, 0.4, 0.5])
    assert_allclose(trans[1:, :3], np.eye(3))
    assert_allclose(trans[1:, 3], np.zeros(3))
