import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dfmvi import gibbs, statespace, vi
from dfmvi.errors import NumericalError
from dfmvi.model import ModelSpec, default_prior, identification_restrictions
from dfmvi.panel import TimeSeriesPanel
from tests import oracles
from tests.conftest import assert_same_bits, empty_edge_panel, random_masked_panel
from tests.conftest import random_variational, unanchored
from tests.oracles import dense_gaussian_oracle


def _system(values, lam, noise_var, trans, trans_cov=None, loading_cov=None,
            init_cov=None):
    """Kernel system of a NaN-masked panel under point-valued parameters."""
    lam = np.asarray(lam, dtype=float)
    trans = np.asarray(trans, dtype=float)
    n, s = lam.shape
    return statespace.build_collapsed_system(
        TimeSeriesPanel(np.asarray(values, dtype=float)),
        lam,
        np.zeros((n, s, s)) if loading_cov is None else np.asarray(loading_cov),
        1.0 / np.asarray(noise_var, dtype=float),
        trans,
        np.zeros((s, s)) if trans_cov is None else np.asarray(trans_cov),
        np.eye(s) if init_cov is None else np.linalg.inv(init_cov),
    )


def _moments(params):
    return statespace.kalman_smoother(*statespace.kalman_filter(params), params)


def _dense_precision(band):
    """Symmetric dense matrix of a lower band (Q[i, j] at [i - j, j])."""
    width, size = band.shape
    q = np.zeros((size, size))
    for d in range(width):
        idx = np.arange(size - d)
        q[idx + d, idx] = band[d, : size - d]
        q[idx, idx + d] = band[d, : size - d]
    return q


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
    # Time step 2 has no data: it contributes no information and no data
    # precision, so the band column of x_2 (coordinate r (T - 2) = 1) is
    # that of a panel without any data.
    kwargs = dict(
        lam=[[1.0], [2.0]], noise_var=[1.0, 1.0], trans=[[0.5]],
        trans_cov=[[0.2]], loading_cov=np.full((2, 1, 1), 0.1),
    )
    params = _system([[1.0, 2.0], [np.nan, np.nan], [0.5, -1.0]], **kwargs)
    empty = _system(np.full((3, 2), np.nan), **kwargs)
    assert_allclose(params.y_star[1], [0.0], atol=0)
    assert_allclose(params.band[:, 1], empty.band[:, 1], atol=0)
    assert_allclose(empty.info, np.zeros(4), atol=0)


def test_collapse_scalar_hand_values():
    # y = 3, loading 2 with variance 1, unit noise, transition 0.5 with
    # variance 0.2, unit origin variance.  Path z = (f_1, f_0):
    # Q = [[1 + 4 + 1, -0.5], [-0.5, 0.25 + 0.2 + 1]], b = (6, 0).
    params = _system(
        [[3.0]], lam=[[2.0]], noise_var=[1.0], trans=[[0.5]],
        trans_cov=[[0.2]], loading_cov=[[[1.0]]],
    )
    q = np.array([[6.0, -0.5], [-0.5, 1.45]])
    assert_allclose(_dense_precision(params.band), q, atol=1e-15)
    assert_allclose(params.info, [6.0, 0.0], atol=0)
    assert_allclose(params.y_star, [[6.0]], atol=0)
    moments = _moments(params)
    det = 6.0 * 1.45 - 0.25
    assert_allclose(moments.prec_logdet, math.log(det), rtol=1e-14)
    assert_allclose(moments.info_quad, 36.0 * 1.45 / det, rtol=1e-14)
    assert_allclose(moments.mean[:, 0], [3.0 / det, 6.0 * 1.45 / det], rtol=1e-14)
    assert_allclose(moments.cov[:, 0, 0], [6.0 / det, 1.45 / det], rtol=1e-14)


def test_collapse_masked_content_ignored():
    # A missing cell contributes nothing, whatever its variable's loading
    # and noise: the system equals that of the panel without the variable.
    base = _system([[3.0]], lam=[[2.0]], noise_var=[1.0], trans=[[0.5]])
    padded = _system(
        [[3.0, np.nan]], lam=[[2.0], [1e9]], noise_var=[1.0, 1e-9], trans=[[0.5]],
        loading_cov=np.array([[[0.0]], [[1e9]]]),
    )
    for field in ("band", "info", "y_star"):
        assert_allclose(getattr(padded, field), getattr(base, field), atol=0)


def test_collapse_matches_dense_gls_oracle():
    # On x_1 of a two-step path, Q holds I from window 1, M'M + r V from
    # window 2 and the expected data precision.  Less I + M'M, the block
    # and the information vector are the GLS normal equations of the
    # stacked system with Sigma_theta = sum_i V_i + r V.
    rng = np.random.default_rng(11)
    for k in range(25):
        n, r = 3, 2
        mask = rng.random(n) > 0.4
        y = rng.standard_normal(n)
        lam = rng.standard_normal((n, r))
        noise_var = rng.uniform(0.2, 2.0, n)
        a = rng.standard_normal((n, r, r))
        covs = a @ a.swapaxes(1, 2) + 0.1 * np.eye(r)
        b = rng.standard_normal((r, r))
        trans_cov = b @ b.T + 0.1 * np.eye(r)
        trans = 0.5 * rng.standard_normal((r, r))
        values = np.vstack([np.where(mask, y, np.nan), rng.standard_normal(n)])
        params = _system(values, lam, noise_var, trans, trans_cov, covs)
        sigma_theta = oracles.build_sigma_theta(mask, covs, trans_cov, r, is_last=False)
        want_y, want_h = _gls_collapse_oracle(y, mask, lam, noise_var, sigma_theta)
        block = _dense_precision(params.band)[r : 2 * r, r : 2 * r]
        got_prec = block - np.eye(r) - trans.T @ trans
        assert_allclose(got_prec, np.linalg.inv(want_h), atol=1e-10)
        assert_allclose(params.y_star[0], np.linalg.solve(want_h, want_y), atol=1e-10)


def test_collapse_singular_precision_raises():
    # No data, a zero transition and a zero origin precision leave the
    # origin coordinate without precision.
    band, _, _ = statespace.path_precision(
        TimeSeriesPanel(np.array([[np.nan]])),
        np.ones((1, 1, 1)),
        np.ones((1, 1)),
        np.array([[1.0, 0.0], [0.0, 0.0]]),
        np.zeros((1, 1)),
    )
    with pytest.raises(NumericalError, match=r"not positive definite at time step 0\b"):
        statespace.band_cholesky(band, 1)


def test_build_sigma_theta_cases():
    covs = np.stack([np.eye(2)] * 3)
    trans_cov = np.eye(2)
    none_avail = oracles.build_sigma_theta(
        np.zeros(3, dtype=bool), covs, trans_cov, r=2, is_last=False
    )
    assert_allclose(none_avail, 2.0 * np.eye(2))
    all_last = oracles.build_sigma_theta(
        np.ones(3, dtype=bool), covs, trans_cov, r=2, is_last=True
    )
    assert_allclose(all_last, 3.0 * np.eye(2))
    two_of_three = oracles.build_sigma_theta(
        np.array([True, False, True]), covs, trans_cov, r=2, is_last=False
    )
    assert_allclose(two_of_three, 4.0 * np.eye(2))


def test_filter_scalar_single_step():
    # One step, transition 0.5, unit origin variance, unit data precision,
    # y = 0: Q = [[2, -0.5], [-0.5, 1.25]], |Q| = 2.25.  The smoothed
    # variance of f_1 is the filtered one, 1.25 / 2.25.
    moments = _moments(_system([[0.0]], lam=[[1.0]], noise_var=[1.0], trans=[[0.5]]))
    assert_allclose(moments.prec_logdet, math.log(2.25), rtol=1e-14)
    assert moments.info_quad == 0.0
    assert_allclose(moments.mean, np.zeros((2, 1)), atol=0)
    assert_allclose(moments.cov[:, 0, 0], [2.0 / 2.25, 1.25 / 2.25], rtol=1e-14)
    assert_allclose(moments.lag_one[0], [[0.5 / 2.25]], rtol=1e-14)


def test_filter_names_first_non_positive_definite_innovation_step():
    # Variable 2, seen only at time 3, has a negative definite precision,
    # so the leading minors of Q fail first at a coordinate of x_3.
    s, T = 2, 5
    values = np.ones((T, 2))
    values[[0, 1, 3, 4], 1] = np.nan
    band, _, _ = statespace.path_precision(
        TimeSeriesPanel(values),
        np.stack([0.5 * np.eye(s), -10.0 * np.eye(s)]),
        np.ones((2, s)),
        np.array([[1.0, -0.5, -0.2], [-0.5, 0.25, 0.1], [-0.2, 0.1, 0.04]]),
        np.eye(s),
    )
    params = statespace.SsmParams(
        band=band, info=np.zeros(T + s), y_star=np.zeros((T, s)), r=1
    )
    with pytest.raises(NumericalError, match=r"at time step 3\b"):
        statespace.kalman_filter(params)


def test_filter_vacuous_observation_returns_prior_process():
    # Without data the moments are those of the prior process.
    moments = _moments(
        _system(np.full((2, 1), np.nan), lam=[[1.0]], noise_var=[1.0],
                trans=[[0.7]], init_cov=[[2.0]])
    )
    var0 = 2.0
    var1 = 0.49 * var0 + 1.0
    var2 = 0.49 * var1 + 1.0
    assert_allclose(moments.mean, np.zeros((3, 1)), atol=1e-8)
    assert_allclose(moments.cov[:, 0, 0], [var0, var1, var2], rtol=1e-6)
    assert_allclose(moments.lag_one[:, 0, 0], [0.7 * var0, 0.7 * var1], rtol=1e-6)


def test_smoother_zero_transition_isolates_time_steps():
    # With a zero transition the state at t depends only on the data at t
    # and the process prior, so it equals the single-step conditional.
    y = np.array([[1.4], [-0.3], [0.8]])
    moments = _moments(_system(y, lam=[[1.0]], noise_var=[0.5], trans=[[0.0]]))
    for t in range(1, 4):
        prior_var = 1.0
        gain = prior_var / (prior_var + 0.5)
        assert_allclose(moments.mean[t, 0], gain * y[t - 1, 0])
        assert_allclose(moments.cov[t, 0, 0], prior_var - gain * prior_var)


def test_build_system_matches_per_step_ops():
    # Dense Q summed window by window: the expected transition block on
    # (f_t, x_{t-1}), the expected data precision on x_t, F0^-1 on x_0.
    spec = ModelSpec(n=3, r=1, p=1)
    pan, cfg, _ = random_masked_panel(spec, T=5, seed=3)
    prior = default_prior(spec)
    restr = unanchored(spec)
    state = vi.init_from_pca(pan, spec, prior, restr, seed=1)
    loadings, transition = state.loadings, state.transition
    params = statespace.build_collapsed_system(
        pan, loadings.mean, loadings.cov, loadings.noise_prec,
        transition.mean, transition.cov, prior.init_state_prec,
    )
    T, r, s = pan.T, spec.r, spec.s
    a = np.hstack([np.eye(r), -transition.mean])
    trans_block = a.T @ a
    trans_block[r:, r:] += r * transition.cov
    q = np.zeros((r * T + s, r * T + s))
    info = np.zeros(r * T + s)
    y = np.where(pan.mask, pan.values, 0.0)
    quad = 0.0
    for t in range(1, T + 1):
        start = r * (T - t)
        q[start : start + r + s, start : start + r + s] += trans_block
        step_info = np.zeros(s)
        for i in np.flatnonzero(pan.mask[t - 1]):
            mu, tau = loadings.mean[i], loadings.noise_scale[i]
            q[start : start + s, start : start + s] += np.outer(mu, mu) / tau
            q[start : start + s, start : start + s] += loadings.cov[i]
            step_info += y[t - 1, i] * mu / tau
            quad += y[t - 1, i] ** 2 / tau
        info[start : start + s] += step_info
        assert_allclose(params.y_star[t - 1], step_info, atol=1e-12)
    q[r * T :, r * T :] += np.linalg.inv(prior.init_state_cov)
    assert_allclose(_dense_precision(params.band), q, atol=1e-12)
    assert_allclose(params.info, info, atol=1e-12)
    # The objective's state term reads the data quadratic summed cell by cell.
    moments = vi.update_states(pan, loadings, transition, prior)
    _, terms = vi.compute_elbo(
        pan, loadings, transition, moments, prior, restr, return_terms=True
    )
    state_terms = vi._fit_constants(pan, prior, restr).state_terms
    want = state_terms - 0.5 * moments.prec_logdet - 0.5 * (quad - moments.info_quad)
    assert_allclose(terms["state"], want, rtol=1e-12)


def test_smoother_matches_dense_oracle_random_instances():
    rng = np.random.default_rng(20)
    for k in range(12):
        spec = ModelSpec(n=int(rng.integers(2, 5)), r=1, p=int(rng.integers(0, 2)))
        pan, cfg, _ = random_masked_panel(spec, T=int(rng.integers(3, 7)), seed=30 + k)
        prior = default_prior(spec)
        state = vi.init_from_pca(pan, spec, prior, unanchored(spec), seed=k)
        moments = vi.update_states(pan, state.loadings, state.transition, prior)
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
        state = vi.init_from_pca(pan, spec, prior, unanchored(spec), seed=k)
        loadings, transition = state.loadings, state.transition
        moments = vi.update_states(pan, loadings, transition, prior)
        aug_mean, aug_cov, aug_lag, aug_ll = oracles.augmented_moments(
            pan.values, pan.mask, loadings.mean, loadings.cov,
            loadings.noise_scale, transition.mean, transition.cov,
            prior.init_state_cov,
        )
        assert_allclose(moments.mean, aug_mean, atol=1e-8)
        assert_allclose(moments.cov, aug_cov, atol=1e-8)
        assert_allclose(moments.lag_one, aug_lag, atol=1e-8)
        dec = oracles.decomposed_loglik(
            pan, loadings, transition, prior, moments.prec_logdet, moments.info_quad
        )
        assert_allclose(dec, aug_ll, atol=1e-8)


def test_returned_covariances_symmetric():
    spec = ModelSpec(n=3, r=1, p=1)
    pan, _, _ = random_masked_panel(spec, T=6, seed=77)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, unanchored(spec), seed=0)
    moments = vi.update_states(pan, state.loadings, state.transition, prior)
    for arr in (moments.cov, moments.second_moment):
        assert np.abs(arr - arr.swapaxes(-1, -2)).max() <= 1e-12


def _masked_panel(rng, T, n, empty_rows=(), empty_cols=()):
    mask = rng.random((T, n)) > 0.3
    mask[list(empty_rows)] = False
    mask[:, list(empty_cols)] = False
    values = np.where(mask, rng.standard_normal((T, n)), np.nan)
    return TimeSeriesPanel(values, [f"v{i}" for i in range(n)])


def _assert_matches_dense_oracle(pan, loadings, transition, prior):
    moments = vi.update_states(pan, loadings, transition, prior)
    oracle = oracles.dense_variational_moments(pan, loadings, transition, prior)
    assert_allclose(moments.mean, oracle.mean, atol=1e-8)
    assert_allclose(moments.cov, oracle.marg_cov, atol=1e-8)
    assert_allclose(moments.lag_one, oracle.lag_one, atol=1e-8)
    return moments


@pytest.mark.parametrize("T", [1, 2, 3, 37, 64, 65])
@pytest.mark.parametrize(
    "r, p", [(1, 0), (1, 1), (2, 1), (2, 2), (1, 3), (3, 0), (3, 1)]
)
def test_scan_matches_dense_oracle_across_split_levels(T, r, p):
    # Odd and even lengths at every level of the odd-even scan, with whole
    # empty rows, the last one included; (2, 2) and (1, 3) have s > 2 r.
    rng = np.random.default_rng(1000 * T + 10 * r + p)
    spec = ModelSpec(n=3, r=r, p=p)
    empty = {T - 1} | set(np.flatnonzero(rng.random(T) < 0.2).tolist())
    pan = _masked_panel(rng, T, spec.n, empty)
    _assert_matches_dense_oracle(pan, *random_variational(rng, pan, spec))


def test_lower_inverse_matches_the_lu_inverse():
    # Forward substitution against np.linalg.inv: the reciprocal bit for bit
    # at r = 1, and to rounding above it; the upper triangles are not read.
    rng = np.random.default_rng(71)
    for r in (1, 2, 3, 4):
        d = np.tril(rng.uniform(-0.5, 0.5, (50, r, r)))
        d[:, np.arange(r), np.arange(r)] = rng.uniform(0.5, 2.0, (50, r))
        want = np.linalg.inv(d)
        upper = np.triu_indices(r, 1)
        d[:, upper[0], upper[1]] = np.nan
        got = statespace.lower_inverse(d)
        if r == 1:
            assert got.tobytes() == want.tobytes()
        assert_allclose(got, want, rtol=0, atol=1e-14 * np.abs(want).max())


def test_chol_inverse_reads_the_lower_triangle_only():
    # NaN above the diagonal, as the smoother's strided view of L_0 carries
    # other entries of the factor there.
    rng = np.random.default_rng(72)
    for s in (1, 2, 3, 6):
        a = rng.standard_normal((s, s + 2))
        prec = a @ a.T + np.eye(s)
        chol = np.linalg.cholesky(prec)
        chol[np.triu_indices(s, 1)] = np.nan
        got = statespace.chol_inverse(chol)
        assert got.tobytes() == statespace.chol_inverse(np.tril(chol)).tobytes()
        assert_allclose(got @ prec, np.eye(s), atol=1e-12)


def _state_pass(p, T):
    """The one-factor state pass on a 25-series panel from a fixed start."""
    spec = ModelSpec(n=25, r=1, p=p)
    pan, _, _ = random_masked_panel(spec, T=T, seed=17 + p, missing_prob=0.1)
    prior = default_prior(spec)
    state = vi.init_from_pca(pan, spec, prior, unanchored(spec), seed=3)

    def run():
        moments = vi.update_states(pan, state.loadings, state.transition, prior)
        return [moments.cov, moments.second_moment, moments.lag_one]

    return run


def _fit_and_chain(r, p, chain):
    """An anchored fit and, if ``chain``, an anchored chain on a panel whose
    last time step and last series hold no data."""
    spec = ModelSpec(n=6, r=r, p=p)
    pan = empty_edge_panel(spec, T=30, seed=90 + 10 * r + p)
    prior = default_prior(spec)
    restr = identification_restrictions(spec, [(k, k) for k in range(r)])
    config = gibbs.GibbsConfig(n_draws=40, burn_in_fraction=0.25, seed=61)

    def run():
        state, moments, report = vi.fit_smf(
            pan, spec, prior, restrictions=restr, max_iters=200, seed=71
        )
        out = [
            report.iterations,
            *vars(state.loadings).values(),
            *vars(state.transition).values(),
            moments.mean,
            moments.cov,
        ]
        if chain:
            store = gibbs.run_gibbs(pan, spec, prior, config, restr)
            out += [
                store.lambdas, store.sigma2, store.phi, store.states, store.sign_flips
            ]
        return out

    return run


@pytest.mark.parametrize(
    "make, atol",
    [
        (partial(_state_pass, 0, 200), 0.0),
        (partial(_state_pass, 1, 1000), 0.0),
        (partial(_fit_and_chain, 1, 0, True), 0.0),
        (partial(_fit_and_chain, 2, 1, False), 1e-12),
    ],
    ids=["desk", "long", "fit-and-chain", "s4-fit"],
)
def test_one_factor_moments_equal_the_lu_inverse_ones_bitwise(make, atol):
    # With every triangular inverse taken by np.linalg.inv of the lower
    # triangle, the part substitution reads (the smoother's blocks carry
    # other entries of the factor above it), instead of substitution.  At
    # r = 1 the smoother's blocks are 1 x 1, and at s = 1 so are the loading
    # regressions' factors: there the substitution is a reciprocal, and the
    # state pass, the fit and the chain keep their bits.  At s = 4 the fit
    # moves by rounding only.
    run = make()
    got = run()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(statespace, "lower_inverse", lambda d: np.linalg.inv(np.tril(d)))
        want = run()
    for a, b in zip(got, want, strict=True):
        if atol:
            assert_allclose(a, b, rtol=0, atol=atol)
        else:
            assert_same_bits(a, b)


def test_scan_near_unit_root_long_path_stays_finite():
    # A transition mean of 0.98 over 400 steps, with a gap of empty rows:
    # no product of the scan may overflow or turn into NaN.
    rng = np.random.default_rng(98)
    spec = ModelSpec(n=3, r=1, p=0)
    pan = _masked_panel(rng, 400, spec.n, range(150, 200))
    params = random_variational(rng, pan, spec, trans_mean=np.array([[0.98]]))
    with np.errstate(over="raise", invalid="raise"):
        _assert_matches_dense_oracle(pan, *params)


@settings(deadline=None, derandomize=True, max_examples=40)
@given(
    n=st.integers(1, 4),
    T=st.integers(1, 8),
    r=st.integers(1, 2),
    p=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
    empty_rows=st.sets(st.integers(0, 7)),
    empty_cols=st.sets(st.integers(0, 3)),
)
def test_kernel_matches_dense_and_augmented_oracles(
    n, T, r, p, seed, empty_rows, empty_cols
):
    # Random masks with whole empty rows (the last one included) and empty
    # columns, under random variational parameters.
    rng = np.random.default_rng(seed)
    spec = ModelSpec(n=n, r=r, p=p)
    pan = _masked_panel(
        rng, T, n, [t for t in empty_rows if t < T], [i for i in empty_cols if i < n]
    )
    loadings, transition, prior = random_variational(rng, pan, spec)
    moments = _assert_matches_dense_oracle(pan, loadings, transition, prior)
    if pan.mask[-1].any():  # otherwise Sigma_theta at T is zero
        _, _, _, aug_ll = oracles.augmented_moments(
            pan.values, pan.mask, loadings.mean, loadings.cov,
            loadings.noise_scale, transition.mean, transition.cov,
            prior.init_state_cov,
        )
        dec = oracles.decomposed_loglik(
            pan, loadings, transition, prior, moments.prec_logdet, moments.info_quad
        )
        assert_allclose(dec, aug_ll, atol=1e-8)
