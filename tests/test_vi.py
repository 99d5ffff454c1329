import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from dfmvi import gibbs, statespace, vi
from dfmvi.errors import DomainError, NumericalError
from dfmvi.model import (
    ModelSpec,
    PriorSpec,
    default_prior,
    identification_restrictions,
)
from dfmvi.panel import from_arrays
from dfmvi.sim import (
    dense_fixed_moments,
    dense_gaussian_oracle,
    mc_elbo_oracle,
    stationary_sim_config,
    simulate_dfm,
)
from tests.conftest import point_mass_moments as _point_mass_moments
from tests.conftest import random_masked_panel


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
    moments, _ = vi.update_states(pan, tight_loadings, tight_trans, prior)
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
        moments, _ = vi.update_states(pan, loadings, state.transition, prior)
        norms.append(np.linalg.norm(moments.mean))
    assert norms[0] > norms[1] > norms[2]


def test_update_states_pipeline_matches_dense_oracle():
    spec = ModelSpec(n=2, r=1, p=0)
    pan, _, _ = random_masked_panel(spec, T=4, seed=11, missing_prob=0.25)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, seed=3)
    moments, _ = vi.update_states(pan, state.loadings, state.transition, prior)
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
    moments, params = vi.update_states(pan, loadings, transition, tiny_prior)
    _, terms = vi.compute_elbo(
        pan, loadings, transition, moments, tiny_prior, params, return_terms=True
    )
    assert_allclose(terms["loadings"], 0.0, atol=1e-12)
    assert_allclose(terms["transition"], 0.0, atol=1e-12)


def test_elbo_matches_mc_oracle(tiny_spec, tiny_prior):
    for k in range(3):
        pan, _, _ = random_masked_panel(tiny_spec, T=3, seed=20 + k, missing_prob=0.3)
        state, _, _ = vi.fit_smf(
            pan, tiny_spec, tiny_prior, tolerance=1e-9, max_iters=4 + k
        )
        moments, params = vi.update_states(
            pan, state.loadings, state.transition, tiny_prior
        )
        exact = vi.compute_elbo(
            pan, state.loadings, state.transition, moments, tiny_prior, params
        )
        est, se = mc_elbo_oracle(pan, state, tiny_prior, n_samples=200_000, seed=k)
        assert abs(exact - est) < 3 * se


def test_elbo_requires_consistent_noise_df(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=3, seed=23, missing_prob=0.2)
    state = vi.init_from_pca(pan, tiny_spec, tiny_prior, seed=0)
    moments, params = vi.update_states(
        pan, state.loadings, state.transition, tiny_prior
    )
    broken = vi.LoadingsVariational(
        mean=state.loadings.mean,
        cov=state.loadings.cov,
        noise_df=state.loadings.noise_df + 1.0,
        noise_scale=state.loadings.noise_scale,
        free=state.loadings.free,
    )
    with pytest.raises(DomainError, match="noise_df"):
        vi.compute_elbo(pan, broken, state.transition, moments, tiny_prior, params)


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
        moments, params = vi.update_states(
            pan, state.loadings, state.transition, prior
        )
        elbo = vi.compute_elbo(
            pan, state.loadings, state.transition, moments, prior, params
        )
        assert np.isfinite(elbo)


def test_rotation_invariance_sign_flip(tiny_spec, tiny_prior):
    pan, _, _ = random_masked_panel(tiny_spec, T=8, seed=80, missing_prob=0.2)
    state, moments, report = vi.fit_smf(
        pan, tiny_spec, tiny_prior, tolerance=1e-8, max_iters=300
    )
    moments, params = vi.update_states(
        pan, state.loadings, state.transition, tiny_prior
    )
    elbo = vi.compute_elbo(
        pan, state.loadings, state.transition, moments, tiny_prior, params
    )
    flipped, _ = vi.flip_factor_signs(state, moments, np.array([True]))
    fl_moments, fl_params = vi.update_states(
        pan, flipped.loadings, flipped.transition, tiny_prior
    )
    fl_elbo = vi.compute_elbo(
        pan, flipped.loadings, flipped.transition, fl_moments, tiny_prior, fl_params
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
    moments, _ = vi.update_states(pan, state.loadings, state.transition, prior)
    return spec, pan, prior, restr, moments


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
    moments, params = vi.update_states(pan, loadings, transition, prior)
    _, terms = vi.compute_elbo(
        pan, loadings, transition, moments, prior, params, return_terms=True
    )
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
