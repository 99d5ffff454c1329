from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from dfmvi import forecast, gibbs, statespace, vi
from dfmvi.errors import DomainError, NumericalError
from dfmvi.model import (
    ModelSpec,
    PriorSpec,
    Restrictions,
    default_prior,
    identification_restrictions,
)
from dfmvi.panel import from_arrays, standardize
from dfmvi.oracles import dense_fixed_moments, dense_gaussian_oracle, mc_elbo_oracle
from dfmvi.sim import simulate_dfm, stationary_sim_config
from tests import reference_kernels
from tests.conftest import assert_same_bits, empty_edge_panel
from tests.conftest import point_mass_moments as _point_mass_moments
from tests.conftest import random_masked_panel, random_variational


def test_update_loadings_no_data_reduces_to_prior():
    spec = ModelSpec(n=2, r=1, p=1)
    prior = default_prior(spec, nu=3.0, tau2=0.7)
    values = np.array([[1.0, np.nan], [2.0, np.nan], [0.5, np.nan]])
    pan = from_arrays(values)
    rng = np.random.default_rng(0)
    factors = rng.standard_normal((4, 2))
    loadings = vi.update_loadings(pan, _point_mass_moments(factors, 1), prior)
    assert_array_equal(loadings.mean[1], np.zeros(2))
    assert_array_equal(loadings.cov[1], np.linalg.inv(prior.loading_prec))
    assert loadings.noise_df[1] == prior.noise_df[1]
    assert loadings.noise_scale[1] == prior.noise_scale[1]


def test_update_loadings_flat_prior_point_mass_is_ols():
    spec = ModelSpec(n=1, r=1, p=1)
    rng = np.random.default_rng(1)
    T = 30
    factors = rng.standard_normal((T + 1, 2))
    lam_true = np.array([0.8, -0.4])
    y = factors[1:] @ lam_true + 0.1 * rng.standard_normal(T)
    pan = from_arrays(y[:, None])
    prior = PriorSpec(
        loading_prec=1e-12 * np.eye(2),
        trans_prec=np.eye(2),
        init_state_cov=np.eye(2),
        noise_df=np.array([1e-12]),
        noise_scale=np.array([1.0]),
    )
    loadings = vi.update_loadings(pan, _point_mass_moments(factors, 1), prior)
    ols = np.linalg.lstsq(factors[1:], y, rcond=None)[0]
    assert_allclose(loadings.mean[0], ols, atol=1e-6)


def test_update_loadings_scalar_hand_values():
    spec = ModelSpec(n=1, r=1, p=0)
    prior = default_prior(spec)
    pan = from_arrays(np.array([[1.0], [1.0]]))
    moments = statespace.StateMoments(
        mean=np.array([[0.0], [1.0], [2.0]]),
        cov=np.zeros((3, 1, 1)),
        second_moment=np.array([[[0.0]], [[1.5]], [[4.5]]]),
        lag_one=np.zeros((2, 1, 1)),
        prec_logdet=0.0,
        info_quad=0.0,
    )
    loadings = vi.update_loadings(pan, moments, prior)
    assert_allclose(loadings.cov[0], [[1.0 / 7.0]], atol=1e-14)
    assert_allclose(loadings.mean[0], [3.0 / 7.0], atol=1e-14)
    assert loadings.noise_df[0] == 3.0
    assert_allclose(loadings.noise_scale[0], 4.0 / 7.0, atol=1e-14)


def test_update_transition_prior_only():
    spec = ModelSpec(n=1, r=1, p=0)
    prior = default_prior(spec)
    T = 3
    moments = _point_mass_moments(np.zeros((T + 1, 1)), 1)
    trans = vi.update_transition(moments, prior)
    assert_allclose(trans.mean, [[0.0]])
    assert_allclose(trans.cov, [[1.0]])


def test_update_transition_scalar_hand_values():
    spec = ModelSpec(n=1, r=1, p=0)
    prior = default_prior(spec)
    moments = statespace.StateMoments(
        mean=np.zeros((3, 1)),
        cov=np.zeros((3, 1, 1)),
        second_moment=np.array([[[1.0]], [[2.0]], [[9.9]]]),
        lag_one=np.array([[[0.5]], [[1.0]]]),
        prec_logdet=0.0,
        info_quad=0.0,
    )
    trans = vi.update_transition(moments, prior)
    assert_allclose(trans.cov, [[0.25]])
    assert_allclose(trans.mean, [[0.375]])


def test_update_transition_flat_prior_point_mass_is_ols_var():
    rng = np.random.default_rng(2)
    r, p = 1, 1
    s = 2
    T = 60
    factors = np.zeros((T + 1, s))
    phi_true = np.array([0.6, 0.2])
    for t in range(1, T + 1):
        factors[t, 0] = float(phi_true @ factors[t - 1]) + rng.standard_normal()
        factors[t, 1] = factors[t - 1, 0]
    prior = PriorSpec(
        loading_prec=np.eye(s),
        trans_prec=1e-12 * np.eye(s),
        init_state_cov=np.eye(s),
        noise_df=np.ones(1),
        noise_scale=np.ones(1),
    )
    trans = vi.update_transition(_point_mass_moments(factors, r), prior)
    ols = np.linalg.lstsq(factors[:-1], factors[1:, 0], rcond=None)[0]
    assert_allclose(trans.mean[0], ols, atol=1e-6)


def test_update_states_tight_parameters_approach_fixed_smoother():
    spec = ModelSpec(n=3, r=1, p=0)
    cfg = stationary_sim_config(spec, T=5, seed=4)
    pan, _ = simulate_dfm(cfg)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, seed=0)
    tight_loadings = vi.LoadingsVariational(
        mean=state.loadings.mean,
        cov=state.loadings.cov * 1e-9,
        noise_df=state.loadings.noise_df,
        noise_scale=state.loadings.noise_scale,
        free=state.loadings.free,
    )
    tight_trans = vi.TransitionVariational(
        mean=state.transition.mean, cov=state.transition.cov * 1e-9
    )
    moments = vi.update_states(pan, tight_loadings, tight_trans, prior)
    fixed = dense_fixed_moments(
        pan,
        state.loadings.mean,
        state.loadings.noise_scale,
        state.transition.mean,
        prior.init_state_cov,
    )
    assert_allclose(moments.mean, fixed.mean, atol=1e-6)
    assert_allclose(moments.cov, fixed.marg_cov, atol=1e-6)


def test_update_states_parameter_uncertainty_shrinks_states():
    spec = ModelSpec(n=3, r=1, p=0)
    cfg = stationary_sim_config(spec, T=6, seed=5)
    pan, _ = simulate_dfm(cfg)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, seed=0)
    norms = []
    for scale in (1e-6, 1.0, 50.0):
        loadings = vi.LoadingsVariational(
            mean=state.loadings.mean,
            cov=state.loadings.cov * scale,
            noise_df=state.loadings.noise_df,
            noise_scale=state.loadings.noise_scale,
            free=state.loadings.free,
        )
        moments = vi.update_states(pan, loadings, state.transition, prior)
        norms.append(np.linalg.norm(moments.mean))
    assert norms[0] > norms[1] > norms[2]


def test_update_states_pipeline_matches_dense_oracle():
    spec = ModelSpec(n=2, r=1, p=0)
    pan, _, _ = random_masked_panel(spec, T=4, seed=11, missing_prob=0.25)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, seed=3)
    moments = vi.update_states(pan, state.loadings, state.transition, prior)
    oracle = dense_gaussian_oracle(pan, state, prior)
    assert_allclose(moments.mean, oracle.mean, atol=1e-8)
    assert_allclose(moments.cov, oracle.marg_cov, atol=1e-8)
    assert_allclose(moments.lag_one, oracle.lag_one, atol=1e-8)


def test_elbo_zero_divergence_at_prior(tiny_spec, tiny_prior):
    # Variational parameters equal to the prior make the loading and
    # transition term groups exactly zero.
    pan, _, _ = random_masked_panel(tiny_spec, T=4, seed=12, missing_prob=0.9)
    counts = pan.mask.sum(axis=0)
    s = tiny_spec.s
    loadings = vi.LoadingsVariational(
        mean=np.zeros((tiny_spec.n, s)),
        cov=np.stack([np.linalg.inv(tiny_prior.loading_prec)] * tiny_spec.n),
        noise_df=tiny_prior.noise_df + counts,
        noise_scale=tiny_prior.noise_scale,
        free=np.ones((tiny_spec.n, s), dtype=bool),
    )
    transition = vi.TransitionVariational(
        mean=np.zeros((tiny_spec.r, s)),
        cov=np.linalg.inv(tiny_prior.trans_prec),
    )
    moments = vi.update_states(pan, loadings, transition, tiny_prior)
    _, terms = vi.compute_elbo(
        pan, loadings, transition, moments, tiny_prior, return_terms=True
    )
    assert_allclose(terms["loadings"], 0.0, atol=1e-12)
    assert_allclose(terms["transition"], 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "values, noise_scale, quad",
    [
        pytest.param([[3.0]], [1.0], 9.0, id="scalar"),
        # a missing cell adds nothing, whatever its variable's noise
        pytest.param([[3.0, np.nan]], [1.0, 1e-9], 9.0, id="masked-cell"),
        # a step without data adds nothing
        pytest.param(
            [[1.0, 2.0], [np.nan, np.nan], [0.5, -1.0]], [1.0, 0.5], 11.25,
            id="empty-step",
        ),
        pytest.param(np.full((3, 2), np.nan), [1.0, 1.0], 0.0, id="no-data"),
    ],
)
def test_elbo_data_quadratic_hand_values(values, noise_scale, quad):
    # The state term is the fit's constant less half of log|Q| and of the
    # data quadratic sum_ti mask_ti y_ti^2 / tau_i less b' Q^-1 b.  The same
    # expression with the quadratic worked out by hand gives the same bits.
    pan = from_arrays(np.asarray(values, dtype=float))
    spec = ModelSpec(n=pan.n, r=1, p=0)
    prior = default_prior(spec)
    loadings = vi.LoadingsVariational(
        mean=np.ones((pan.n, 1)),
        cov=np.full((pan.n, 1, 1), 0.1),
        noise_df=prior.noise_df + pan.counts,
        noise_scale=np.asarray(noise_scale),
        free=np.ones((pan.n, 1), dtype=bool),
    )
    transition = vi.TransitionVariational(mean=np.array([[0.5]]), cov=np.array([[0.2]]))
    moments = vi.update_states(pan, loadings, transition, prior)
    _, terms = vi.compute_elbo(
        pan, loadings, transition, moments, prior, return_terms=True
    )
    state_terms = vi._fit_constants(pan, prior).state_terms
    want = state_terms - 0.5 * moments.prec_logdet - 0.5 * (quad - moments.info_quad)
    assert terms["state"] == want


def test_elbo_matches_mc_oracle(tiny_spec, tiny_prior):
    for k in range(3):
        pan, _, _ = random_masked_panel(tiny_spec, T=3, seed=20 + k, missing_prob=0.3)
        state, _, _ = vi.fit_smf(
            pan, tiny_spec, tiny_prior, tolerance=1e-9, max_iters=4 + k
        )
        moments = vi.update_states(pan, state.loadings, state.transition, tiny_prior)
        exact = vi.compute_elbo(
            pan, state.loadings, state.transition, moments, tiny_prior
        )
        est, se = mc_elbo_oracle(pan, state, tiny_prior, n_samples=200_000, seed=k)
        assert abs(exact - est) < 3 * se


def test_elbo_requires_consistent_noise_df(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=3, seed=23, missing_prob=0.2)
    state = vi.init_from_pca(pan, tiny_spec, tiny_prior, seed=0)
    moments = vi.update_states(pan, state.loadings, state.transition, tiny_prior)
    broken = vi.LoadingsVariational(
        mean=state.loadings.mean,
        cov=state.loadings.cov,
        noise_df=state.loadings.noise_df + 1.0,
        noise_scale=state.loadings.noise_scale,
        free=state.loadings.free,
    )
    with pytest.raises(DomainError, match="noise_df"):
        vi.compute_elbo(pan, broken, state.transition, moments, tiny_prior)


def test_fit_monotone_and_converges_over_seeds():
    spec = ModelSpec(n=5, r=1, p=0)
    prior = default_prior(spec)
    for seed in range(5):
        pan, _, _ = random_masked_panel(spec, T=25, seed=40 + seed, missing_prob=0.15)
        state, moments, report = vi.fit_smf(
            pan, spec, prior, tolerance=1e-7, max_iters=400, seed=seed
        )
        trace = report.elbo_trace
        assert report.converged
        assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))


def test_fit_from_converged_state_stops_immediately(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=6, seed=50, missing_prob=0.2)
    state, _, report = vi.fit_smf(
        pan, tiny_spec, tiny_prior, tolerance=1e-9, max_iters=500
    )
    assert report.converged
    _, _, again = vi.fit_smf(
        pan, tiny_spec, tiny_prior, init=state, tolerance=1e-9, max_iters=500
    )
    assert again.converged
    assert again.iterations == 1


def test_fit_raises_on_objective_decrease(monkeypatch, tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=5, seed=51, missing_prob=0.2)
    fake = iter([0.0, -1.0])
    monkeypatch.setattr(
        vi, "compute_elbo", lambda *args, **kwargs: next(fake)
    )
    with pytest.raises(NumericalError, match="decreased"):
        vi.fit_smf(pan, tiny_spec, tiny_prior, tolerance=1e-9, max_iters=5)


def test_fit_rejects_too_short_panel():
    spec = ModelSpec(n=2, r=1, p=2)
    prior = default_prior(spec)
    pan = from_arrays(np.ones((3, 2)) + np.arange(6).reshape(3, 2))
    with pytest.raises(DomainError, match="T > p"):
        vi.fit_smf(pan, spec, prior)


@pytest.mark.parametrize("tolerance", [0.0, -1e-7, float("nan")])
def test_fit_rejects_a_tolerance_that_is_not_positive(tiny_spec, tiny_prior, tolerance):
    pan, _, _ = random_masked_panel(tiny_spec, T=5, seed=51, missing_prob=0.2)
    with pytest.raises(DomainError, match="tolerance must be positive"):
        vi.fit_smf(pan, tiny_spec, tiny_prior, tolerance=tolerance)


@pytest.mark.parametrize("max_iters", [0, -3])
def test_fit_rejects_fewer_than_one_iteration(tiny_spec, tiny_prior, max_iters):
    pan, _, _ = random_masked_panel(tiny_spec, T=5, seed=51, missing_prob=0.2)
    with pytest.raises(DomainError, match="max_iters must be at least 1"):
        vi.fit_smf(pan, tiny_spec, tiny_prior, max_iters=max_iters)


def test_fit_warns_fewer_series_than_factors():
    spec = ModelSpec(n=1, r=2, p=0)
    prior = default_prior(spec)
    rng = np.random.default_rng(0)
    pan = from_arrays(rng.standard_normal((12, 1)))
    with pytest.warns(UserWarning, match="fewer series"):
        vi.fit_smf(pan, spec, prior, tolerance=1e-5, max_iters=30)


def test_init_from_pca_deterministic(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=10, seed=60, missing_prob=0.3)
    a = vi.init_from_pca(pan, tiny_spec, tiny_prior, seed=9)
    b = vi.init_from_pca(pan, tiny_spec, tiny_prior, seed=9)
    assert_array_equal(a.loadings.mean, b.loadings.mean)
    assert_array_equal(a.loadings.cov, b.loadings.cov)
    assert_array_equal(a.transition.mean, b.transition.mean)
    assert_array_equal(a.loadings.noise_scale, b.loadings.noise_scale)


def test_init_from_pca_complete_data_ignores_seed(tiny_spec, tiny_prior):
    cfg = stationary_sim_config(tiny_spec, T=15, seed=3)
    pan, _ = simulate_dfm(cfg)
    a = vi.init_from_pca(pan, tiny_spec, tiny_prior, seed=1)
    b = vi.init_from_pca(pan, tiny_spec, tiny_prior, seed=2)
    assert_array_equal(a.loadings.mean, b.loadings.mean)
    assert_array_equal(a.transition.mean, b.transition.mean)


def test_init_from_pca_finite_initial_elbo():
    spec = ModelSpec(n=4, r=2, p=1)
    prior = default_prior(spec)
    for seed in range(4):
        pan, _, _ = random_masked_panel(spec, T=12, seed=70 + seed, missing_prob=0.3)
        state = vi.init_from_pca(pan, spec, prior, seed=seed)
        moments = vi.update_states(pan, state.loadings, state.transition, prior)
        elbo = vi.compute_elbo(pan, state.loadings, state.transition, moments, prior)
        assert np.isfinite(elbo)


def test_rotation_invariance_sign_flip(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=8, seed=80, missing_prob=0.2)
    state, moments, report = vi.fit_smf(
        pan, tiny_spec, tiny_prior, tolerance=1e-8, max_iters=300
    )
    moments = vi.update_states(pan, state.loadings, state.transition, tiny_prior)
    elbo = vi.compute_elbo(pan, state.loadings, state.transition, moments, tiny_prior)
    flipped, _ = vi.flip_factor_signs(state, moments, np.array([True]))
    fl_moments = vi.update_states(pan, flipped.loadings, flipped.transition, tiny_prior)
    fl_elbo = vi.compute_elbo(
        pan, flipped.loadings, flipped.transition, fl_moments, tiny_prior
    )
    assert abs(fl_elbo - elbo) < 1e-8


def test_fit_with_identification_restrictions():
    spec = ModelSpec(n=4, r=1, p=1)
    prior = default_prior(spec)
    pan, _, _ = random_masked_panel(spec, T=30, seed=90, missing_prob=0.1)
    restr = identification_restrictions(spec, [(0, 0)])
    state, moments, report = vi.fit_smf(
        pan, spec, prior, restrictions=restr, tolerance=1e-7, max_iters=400
    )
    assert report.converged
    # zero-restricted coordinates are exact zeros, anchor is positive
    assert state.loadings.mean[0, 1] == 0.0
    assert np.all(state.loadings.cov[0, 1, :] == 0.0)
    assert state.loadings.mean[0, 0] > 0
    trace = report.elbo_trace
    assert np.all(np.diff(trace) >= -1e-8 * np.abs(trace[:-1]))


def test_fit_refuses_a_prior_coupling_an_anchored_factor():
    # The fit ends by flipping factor 0 onto a positive anchor loading.
    # Under this prior the flip lowers the objective (-2174.66 at the end
    # of the trace, -2187.64 for the flipped state), so the returned state
    # would not be the one the trace scores.
    spec = ModelSpec(n=12, r=2, p=0)
    pan, _ = simulate_dfm(stationary_sim_config(spec, T=120, seed=0))
    prior = replace(
        default_prior(spec), loading_prec=np.array([[1.0, 0.6], [0.6, 1.0]])
    )
    restr = identification_restrictions(spec, [(0, 0)])
    with pytest.raises(DomainError, match="loading_prec couples anchored factor 0"):
        vi.fit_smf(pan, spec, prior, restrictions=restr)


@pytest.mark.parametrize(
    "positive, match",
    [
        pytest.param(((0, 0), (4, 0)), "factor 0 anchored more than once", id="factor"),
        pytest.param(
            ((0, 0), (0, 1)), "variable 0 anchors more than one factor", id="variable"
        ),
    ],
)
def test_fit_refuses_hand_built_restrictions_that_anchor_twice(positive, match):
    spec = ModelSpec(n=12, r=2, p=0)
    pan, _ = simulate_dfm(stationary_sim_config(spec, T=120, seed=0))
    restr = Restrictions(np.ones((spec.n, spec.s), dtype=bool), positive)
    with pytest.raises(DomainError, match=match):
        vi.fit_smf(pan, spec, default_prior(spec), restrictions=restr)


def test_fit_sign_flip_leaves_restricted_loadings_positive_zero(monkeypatch):
    # Both anchored factors converge with negative anchor loadings and are
    # flipped; a restricted 0.0 times -1 would be stored as -0.0.
    spec = ModelSpec(n=12, r=2, p=1)
    pan, _ = standardize(simulate_dfm(stationary_sim_config(spec, T=120, seed=0))[0])
    restr = identification_restrictions(spec, [(0, 0), (1, 1)])
    flips, flip = [], vi.flip_factor_signs
    monkeypatch.setattr(
        vi, "flip_factor_signs", lambda *a: flips.append(a[2].tolist()) or flip(*a)
    )
    state, _, _ = vi.fit_smf(pan, spec, default_prior(spec), restrictions=restr)
    assert flips == [[True, True]]
    assert not np.signbit(state.loadings.mean[~restr.free]).any()
    assert not np.signbit(state.loadings.cov[~restr.free_pairs]).any()
    assert np.all(state.loadings.mean[[0, 1], [0, 1]] > 0)


def test_fit_refuses_an_init_with_another_free_mask():
    # An unanchored start would have its first objective evaluated under a
    # mask the restrictions do not share.
    spec = ModelSpec(n=4, r=1, p=1)
    prior = default_prior(spec)
    pan, _, _ = random_masked_panel(spec, T=30, seed=90, missing_prob=0.1)
    restr = identification_restrictions(spec, [(0, 0)])
    init = vi.init_from_pca(pan, spec, prior, seed=0)
    match = r"rows \[0\]: init \[\[True, True\]\], restrictions \[\[True, False\]\]"
    with pytest.raises(DomainError, match=match):
        vi.fit_smf(pan, spec, prior, init=init, restrictions=restr)


def test_state_dict_round_trip(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=6, seed=91, missing_prob=0.2)
    state, _, _ = vi.fit_smf(pan, tiny_spec, tiny_prior, tolerance=1e-6, max_iters=50)
    back = vi.state_from_dict(vi.state_to_dict(state))
    assert_array_equal(back.loadings.mean, state.loadings.mean)
    assert_array_equal(back.loadings.cov, state.loadings.cov)
    assert_array_equal(back.transition.cov, state.transition.cov)


def _restricted_three_factor_case():
    # r=3, p=0 with one anchor per factor, plus a column never observed.
    spec = ModelSpec(n=7, r=3, p=0)
    pan, _, _ = random_masked_panel(spec, T=40, seed=61, missing_prob=0.2)
    values = pan.values.copy()
    values[:, 5] = np.nan
    pan = from_arrays(values, names=pan.names)
    prior = default_prior(spec, nu=2.0, tau2=0.5)
    restr = identification_restrictions(spec, [(0, 0), (1, 1), (2, 2)])
    state = vi.init_from_pca(pan, spec, prior, seed=4, restrictions=restr)
    moments = vi.update_states(pan, state.loadings, state.transition, prior)
    return spec, pan, prior, restr, moments


@pytest.mark.parametrize("root_kind", ["cholesky", "psd_sqrt"])
def test_draw_loadings_law_on_anchored_posterior(root_kind):
    # Each anchored row's covariance is singular: only the anchor coordinate
    # is free.  Given the noise variance that coordinate is normal, so its
    # marginal is a Student t with the posterior degrees of freedom.
    spec = ModelSpec(n=5, r=2, p=1)
    prior = default_prior(spec)
    pan, _, states = random_masked_panel(spec, T=30, seed=61, missing_prob=0.2)
    restr = identification_restrictions(spec, [(0, 0), (1, 1)])
    f = states[1:]
    post, root = vi.loading_posterior(
        pan, f, f[:, :, None] * f[:, None, :], prior, restr
    )
    if root_kind == "psd_sqrt":
        root = forecast._psd_sqrt(post.cov)
    n_draws = 20_000
    sig, lam = vi.draw_loadings(
        post.mean, root, post.noise_df, post.noise_scale,
        np.random.default_rng(62), lead=(n_draws,),
    )
    assert sig.shape == (n_draws, spec.n) and lam.shape == (n_draws, spec.n, spec.s)
    for var, coord in restr.positive:
        assert np.all(lam[:, var, ~restr.free[var]] == 0.0)
        law = stats.t(
            df=post.noise_df[var],
            loc=post.mean[var, coord],
            scale=np.sqrt(post.noise_scale[var] * post.cov[var, coord, coord]),
        )
        assert stats.kstest(lam[:, var, coord], law.cdf).pvalue > 0.01


def test_draw_transition_moments_within_monte_carlo_error():
    spec = ModelSpec(n=3, r=2, p=1)
    r, s = spec.r, spec.s
    x = np.random.default_rng(63).standard_normal((40, s))
    trans = vi.transition_posterior(
        x[:-1].T @ x[:-1], x[1:, :r].T @ x[:-1], default_prior(spec)
    )
    n_draws = 40_000
    phi = vi.draw_transition(trans, np.random.default_rng(64), lead=(n_draws,))
    assert phi.shape == (n_draws, r, s)
    var = np.diagonal(trans.cov)
    assert np.all(np.abs(phi.mean(axis=0) - trans.mean) < 4 * np.sqrt(var / n_draws))
    # every row has column covariance trans.cov; entry (a, b) of a sample
    # covariance has standard error sqrt((c_aa c_bb + c_ab^2) / N)
    se = np.sqrt((np.outer(var, var) + trans.cov**2) / n_draws)
    for row in range(r):
        emp = np.cov(phi[:, row, :], rowvar=False)
        assert np.all(np.abs(emp - trans.cov) < 4 * se)


def test_batched_loading_update_matches_per_equation_reference():
    spec, pan, prior, restr, moments = _restricted_three_factor_case()
    loadings = vi.update_loadings(pan, moments, prior, restr)
    mask = pan.mask
    filled = np.where(mask, pan.values, 0.0)
    f, ff = moments.mean[1:], moments.second_moment[1:]
    v_inv = prior.loading_prec
    for i in range(spec.n):
        idx = np.flatnonzero(restr.free[i])
        rows = mask[:, i]
        df = prior.noise_df[i] + rows.sum()
        want_mean, want_cov = np.zeros(spec.s), np.zeros((spec.s, spec.s))
        if rows.any():
            prec = ff[rows].sum(axis=0)[np.ix_(idx, idx)] + v_inv[np.ix_(idx, idx)]
            rhs = filled[rows, i] @ f[rows][:, idx]
            mu = np.linalg.solve(prec, rhs)
            want_mean[idx] = mu
            want_cov[np.ix_(idx, idx)] = np.linalg.inv(prec)
            want_scale = (
                prior.noise_df[i] * prior.noise_scale[i]
                + filled[rows, i] @ filled[rows, i]
                - mu @ prec @ mu
            ) / df
        else:
            want_cov[np.ix_(idx, idx)] = np.linalg.inv(v_inv[np.ix_(idx, idx)])
            want_scale = prior.noise_scale[i]
        assert_allclose(loadings.mean[i], want_mean, rtol=1e-12, atol=1e-12)
        assert_allclose(loadings.cov[i], want_cov, rtol=1e-12, atol=1e-12)
        assert_allclose(loadings.noise_scale[i], want_scale, rtol=1e-12)
        assert loadings.noise_df[i] == df
        # restricted entries are exact zeros
        held = ~restr.free[i]
        assert np.all(loadings.mean[i][held] == 0.0)
        assert np.all(loadings.cov[i][held, :] == 0.0)
        assert np.all(loadings.cov[i][:, held] == 0.0)
    # the never-observed column sits exactly at its prior
    assert loadings.noise_scale[5] == prior.noise_scale[5]
    assert_array_equal(loadings.cov[5], np.linalg.inv(prior.loading_prec))
    # the Gibbs draws share the kernel and its exact zeros
    rng = np.random.default_rng(62)
    for _ in range(50):
        lam, _, _, _ = gibbs.sample_parameters(
            pan, moments.mean, spec, prior, restr, rng
        )
        assert np.all(lam[~restr.free] == 0.0)
        assert np.all(lam[[0, 1, 2], [0, 1, 2]] > 0)


def test_batched_elbo_loadings_term_matches_per_equation_reference():
    spec, pan, prior, restr, moments = _restricted_three_factor_case()
    loadings = vi.update_loadings(pan, moments, prior, restr)
    transition = vi.update_transition(moments, prior)
    moments = vi.update_states(pan, loadings, transition, prior)
    _, terms = vi.compute_elbo(pan, loadings, transition, moments, prior, return_terms=True)
    want = 0.0
    for i in range(spec.n):
        idx = np.flatnonzero(loadings.free[i])
        v_inv = prior.loading_prec[np.ix_(idx, idx)]
        cov = loadings.cov[i][np.ix_(idx, idx)]
        mu = loadings.mean[i][idx]
        want += (
            0.5 * idx.size
            - 0.5 * np.trace(v_inv @ cov)
            - 0.5 * (mu @ v_inv @ mu) / loadings.noise_scale[i]
            + 0.5 * (np.linalg.slogdet(v_inv)[1] + np.linalg.slogdet(cov)[1])
        )
    assert_allclose(terms["loadings"], want, rtol=1e-12)


def test_loading_update_names_first_non_positive_definite_equation():
    # An indefinite (unvalidated) prior precision that only the data of
    # equation 0 can outweigh: the batched Cholesky fails, and the
    # per-equation fallback names equation 1 after its jitter retries.
    spec = ModelSpec(n=3, r=1, p=0)
    rng = np.random.default_rng(63)
    T = 30
    factors = rng.standard_normal((T + 1, 1))
    values = rng.standard_normal((T, 3))
    values[1:, 1:] = np.nan
    prior = PriorSpec(
        loading_prec=np.array([[-25.0]]),
        trans_prec=np.eye(1),
        init_state_cov=np.eye(1),
        noise_df=np.ones(3),
        noise_scale=np.ones(3),
    )
    with pytest.raises(NumericalError, match=r"equation 1$"):
        vi.update_loadings(
            from_arrays(values), _point_mass_moments(factors, 1), prior
        )


@pytest.mark.parametrize("anchored", [True, False], ids=["anchored", "unanchored"])
@pytest.mark.parametrize("r, p", [(1, 0), (1, 1), (2, 1)], ids=["s1", "s2", "s4"])
def test_fit_equals_the_reference_fit_bitwise(r, p, anchored):
    # The last time step and the last series hold no data.
    spec = ModelSpec(n=6, r=r, p=p)
    pan = empty_edge_panel(spec, T=30, seed=70 + 10 * r + p)
    prior = default_prior(spec)
    restr = (
        identification_restrictions(spec, [(k, k) for k in range(r)]) if anchored else None
    )
    state, moments, report = vi.fit_smf(
        pan, spec, prior, restrictions=restr, max_iters=60, seed=71
    )
    want_state, want_moments, want_trace = reference_kernels.fit_smf(
        pan, spec, prior, restr, max_iters=60, seed=71
    )
    assert_same_bits(report.elbo_trace, want_trace)
    for name in ("mean", "cov", "second_moment", "lag_one", "prec_logdet", "info_quad"):
        assert_same_bits(getattr(moments, name), getattr(want_moments, name))
    for got, want in (
        (state.loadings, want_state.loadings),
        (state.transition, want_state.transition),
    ):
        for name, value in vars(want).items():
            assert_same_bits(getattr(got, name), value)


def test_one_prior_on_two_panels_equals_fresh_priors_bitwise():
    # The prior keeps its constants for the last panel passed: alternating
    # fits and chains on two panels with different counts (one with an
    # empty series) must give the bits of runs that each get a fresh prior.
    spec = ModelSpec(n=6, r=1, p=1)
    panels = (
        empty_edge_panel(spec, T=30, seed=81),
        random_masked_panel(spec, T=30, seed=82, missing_prob=0.4)[0],
    )
    assert not np.array_equal(panels[0].counts, panels[1].counts)
    config = gibbs.GibbsConfig(
        n_draws=10, burn_in_fraction=0.2, seed=83, identification=((0, 0),)
    )
    restr = identification_restrictions(spec, [(0, 0)])

    def runs(prior_for):
        out = []
        for pan in panels + panels:
            _, _, report = vi.fit_smf(
                pan, spec, prior_for(), restrictions=restr, max_iters=30, seed=84
            )
            out.append((report.elbo_trace,))
        for pan in panels + panels:
            store = gibbs.run_gibbs(pan, spec, prior_for(), config)
            out.append((store.lambdas, store.sigma2, store.phi, store.states))
        return out

    shared = default_prior(spec, nu=2.0, tau2=0.8)
    for got, want in zip(
        runs(lambda: shared), runs(lambda: default_prior(spec, nu=2.0, tau2=0.8))
    ):
        for a, b in zip(got, want):
            assert_same_bits(a, b)


def test_fit_constants_are_read_only_and_kept_per_panel():
    spec = ModelSpec(n=4, r=1, p=0)
    prior = default_prior(spec)
    pan = random_masked_panel(spec, T=20, seed=85)[0]
    other = random_masked_panel(spec, T=20, seed=85)[0]
    consts = vi._fit_constants(pan, prior)
    assert vi._fit_constants(pan, prior) is consts
    # an equal panel that is another object gets its own constants
    assert vi._fit_constants(other, prior) is not consts
    assert vi._fit_constants(other, prior).panel is other
    assert_array_equal(consts.noise_df, prior.noise_df + pan.counts)
    for name, value in vars(consts).items():
        if isinstance(value, np.ndarray):
            with pytest.raises(ValueError, match="read-only"):
                value[...] = 0


@pytest.mark.parametrize("seed", range(0, 60, 20))
def test_objective_equals_the_reference_objective_bitwise(seed):
    # Random priors and variational parameters, which vary the rounding of
    # each term far more than a fit's trace does: the kept constants must
    # enter in the order of the expression written out.
    for case in range(seed, seed + 20):
        rng = np.random.default_rng(case)
        spec = ModelSpec(n=8, r=1 + case % 2, p=case % 3 // 2)
        pan = random_masked_panel(spec, T=25, seed=case)[0]
        loadings, transition, prior = random_variational(rng, pan, spec)
        root = rng.standard_normal((spec.s, spec.s))
        prior = PriorSpec(
            prior.loading_prec,
            prior.trans_prec,
            root @ root.T + np.eye(spec.s),
            np.full(spec.n, rng.uniform(0.5, 4.0)),
            np.full(spec.n, rng.uniform(0.2, 2.0)),
        )
        loadings = replace(loadings, noise_df=prior.noise_df + pan.counts)
        moments = vi.update_states(pan, loadings, transition, prior)
        got = vi.compute_elbo(pan, loadings, transition, moments, prior)
        want = reference_kernels.compute_elbo(
            pan, loadings, transition, moments, prior
        )
        assert_same_bits(got, want)
