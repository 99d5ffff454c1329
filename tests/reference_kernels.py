"""Bitwise references for the Gibbs sweep and the CAVI fit.

Each function rebuilds every constant on every call, through the library
wrappers the kernels used before they cached them: the inverse origin
covariance and the prior covariance of equations without data by
``np.linalg.inv``, ``[I, -Phi]`` by ``np.hstack``, the restriction masks
and identity padding per call, the sweep's anchor signs from a dict and the
start's and the fit's sign alignment by a loop over the sign restrictions
with the products written out (``_align``), the solves by
``scipy.linalg.cho_solve_banded`` and ``cho_solve``, the path states by
``sliding_window_view`` and the prior log-determinants of the objective by
``np.linalg.slogdet`` at every iteration.  The principal-component start
writes its lagged proxies by a loop over the lags (``init_from_pca``), and
the smoother gathers its factor blocks through an index table built per call,
with zeros above each block's diagonal (``kalman_smoother``), where the
library reads both as strided views of the path layout.  The loading
regressions and the smoother invert their triangular factors by
``statespace.lower_inverse``, and the smoother composes its covariances by
``statespace._compose_scan``, as the library does; ``test_statespace.py``
checks that inverse against the LU one and the scan against a dense oracle.
The principal components come from ``vi._leading_scores``, which
``test_vi.py`` checks on its own.  The library must reproduce these chains
bit for bit.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view
from scipy.special import gammaln

from dfmvi import statespace, vi
from dfmvi.statespace import StateMoments


def restrict_to_free(a, free):
    return np.where(free[:, :, None] & free[:, None, :], a, 0.0)


def pad_restricted(a, free):
    return restrict_to_free(a, free) + np.eye(free.shape[1]) * ~free[:, None, :]


def loading_posterior(panel, mean, second_moment, prior, restrictions=None):
    s = mean.shape[1]
    free = np.ones((panel.n, s), dtype=bool) if restrictions is None else restrictions.free
    T, n = panel.values.shape
    counts = panel.counts
    empty = counts == 0
    gram = (panel.mask_float.T @ second_moment.reshape(T, s * s)).reshape(n, s, s)
    rhs = np.where(free, panel.zero_filled.T @ mean, 0.0)
    prec = pad_restricted(gram + prior.loading_prec, free)
    chol = statespace.chol_factor(prec, "equation")
    chol_inv = statespace.lower_inverse(chol)
    root = restrict_to_free(chol_inv.swapaxes(-1, -2), free)
    cov = restrict_to_free(statespace.symmetrize(root @ chol_inv), free)
    mu = np.einsum("iab,ib->ia", cov, rhs)
    quad = np.einsum("ia,iab,ib->i", mu, prec, mu)
    noise_df = prior.noise_df + counts
    scale = (prior.noise_df * prior.noise_scale + panel.sums_of_squares - quad) / noise_df
    if empty.any():
        prior_prec = pad_restricted(prior.loading_prec, free[empty])
        cov[empty] = restrict_to_free(
            statespace.symmetrize(np.linalg.inv(prior_prec)), free[empty]
        )
    posterior = vi.LoadingsVariational(
        mean=np.where(free & ~empty[:, None], mu, 0.0),
        cov=cov,
        noise_df=noise_df,
        noise_scale=np.where(empty, prior.noise_scale, scale),
        free=free,
    )
    return posterior, root


def chol_inverse(chol_lower):
    eye = np.eye(chol_lower.shape[0])
    return scipy.linalg.cho_solve((chol_lower, True), eye, check_finite=False)


def transition_posterior(gram, cross, prior):
    chol = statespace.chol_factor(gram + prior.trans_prec, "transition update")
    cov = statespace.symmetrize(chol_inverse(chol))
    return vi.TransitionVariational(mean=cross @ cov, cov=cov)


def init_from_pca(panel, spec, prior, seed, restrictions):
    """``vi.init_from_pca`` on the reference regressions, with the lagged
    proxies written in by a loop over the lags."""
    rng = np.random.default_rng(seed)
    T, n = panel.T, panel.n
    r, p, s = spec.r, spec.p, spec.s
    x = np.where(panel.mask, panel.values, rng.standard_normal((T, n)))
    x = x - x.mean(axis=0)
    scores, weak = vi._leading_scores(x, r)
    if weak.any():
        warnings.warn("panel has deficient rank; padding factor proxies with noise")
        scores[:, weak] = rng.standard_normal((T, int(weak.sum())))
    scores = scores / scores.std(axis=0, ddof=1)
    factors = np.zeros((T + 1, s))
    for lag in range(p + 1):
        src = np.arange(1, T + 1) - lag
        ok = src >= 1
        factors[np.arange(1, T + 1)[ok], lag * r : (lag + 1) * r] = scores[src[ok] - 1]
    outer = factors[:, :, None] * factors[:, None, :]
    loadings, _ = loading_posterior(panel, factors[1:], outer[1:], prior, restrictions)
    transition = transition_posterior(
        outer[:-1].sum(axis=0),
        (factors[1:, :r, None] * factors[:-1, None, :]).sum(axis=0),
        prior,
    )
    return vi.VariationalState(loadings=loadings, transition=transition)


def path_precision(panel, eq_prec, eq_info, trans_block, origin_prec):
    T = panel.T
    n, s = eq_info.shape
    width = trans_block.shape[0]
    r = width - s
    obs_prec = (panel.mask_float @ eq_prec.reshape(n, s * s)).reshape(T, s, s)
    obs_info = panel.zero_filled @ eq_info
    windows = np.broadcast_to(trans_block, (T, width, width)).copy()
    windows[:, :s, :s] += obs_prec[::-1]
    windows[-1, r:, r:] += origin_prec
    band = np.zeros((width, r * T + s))
    info = np.zeros(r * T + s)
    for j in range(width):
        for d in range(width - j):
            band[d, j : j + r * T : r] += windows[:, j + d, j]
    for j in range(s):
        info[j : j + r * T : r] += obs_info[::-1, j]
    return band, info, obs_info


def path_states(z, r, s):
    return sliding_window_view(z, s)[::r][::-1]


# -- Gibbs sweep --------------------------------------------------------------


def sample_states_ffbs(panel, lambdas, sigma2, phi, prior, rng):
    r, s = phi.shape
    scaled = lambdas / sigma2[:, None]
    resid = np.hstack([np.eye(r), -phi])
    band, info, _ = path_precision(
        panel,
        scaled[:, :, None] * lambdas[:, None, :],
        scaled,
        resid.T @ resid,
        np.linalg.inv(prior.init_state_cov),
    )
    chol = statespace.band_cholesky(band, r)
    eps = rng.standard_normal(info.size)
    shock = chol[0] * eps
    for d in range(1, r + s):
        shock[d:] += chol[d, :-d] * eps[:-d]
    z = scipy.linalg.cho_solve_banded((chol, True), info + shock, check_finite=False)
    return path_states(z, r, s).copy()


def sample_parameters(panel, states, spec, prior, restrictions, rng):
    r = spec.r
    f = states[1:]
    post, root = loading_posterior(panel, f, f[:, :, None] * f[:, None, :], prior, restrictions)
    sigma2, lambdas = vi.draw_loadings(
        post.mean, root, post.noise_df, post.noise_scale, rng
    )
    fprev = states[:-1]
    trans = transition_posterior(fprev.T @ fprev, f[:, :r].T @ fprev, prior)
    phi = vi.draw_transition(trans, rng)
    anchors = {} if restrictions is None else dict(restrictions.positive)
    signs = np.ones(spec.s)
    flips = 0
    for var, coord in anchors.items():
        if lambdas[var, coord] < 0:
            signs[coord % r :: r] = -1.0
            flips += 1
    if flips:
        lambdas = np.where(restrictions.free, lambdas * signs, 0.0)
        phi = phi * np.outer(signs[:r], signs)
        states[:] = states * signs
    return lambdas, sigma2, phi, flips


def anchor_signs(loading_mean, restrictions, r):
    """(s,) signs flipping, at every lag, each factor whose sign-restricted
    loading in ``loading_mean`` is negative: the loop over ``positive`` that
    ``Restrictions.signs`` replaced."""
    signs = np.ones(loading_mean.shape[1])
    for var, coord in restrictions.positive:
        if loading_mean[var, coord] < 0:
            signs[coord % r :: r] = -1.0
    return signs


def _align(state, moments, restrictions):
    """Flip factors so every sign-restricted loading mean is positive, with
    the products written out; exact zeros of the loadings stay +0.0."""
    loadings, transition = state.loadings, state.transition
    r = transition.mean.shape[0]
    signs = anchor_signs(loadings.mean, restrictions, r)
    if np.all(signs > 0):
        return state, moments
    outer = np.outer(signs, signs)
    free = loadings.free
    state = vi.VariationalState(
        loadings=replace(
            loadings,
            mean=np.where(free, loadings.mean * signs, 0.0) + 0.0,
            cov=restrict_to_free(loadings.cov * outer, free) + 0.0,
        ),
        transition=vi.TransitionVariational(
            mean=transition.mean * outer[:r], cov=transition.cov * outer
        ),
    )
    if moments is None:
        return state, None
    return state, replace(
        moments,
        mean=moments.mean * signs,
        cov=moments.cov * outer,
        second_moment=moments.second_moment * outer,
        lag_one=moments.lag_one * outer[:r],
    )


def run_gibbs(panel, spec, prior, config, restrictions):
    """Every sweep of one chain, burn-in included, as (lambda, sigma2, phi,
    states) tuples, and the total count of folded factors."""
    rng = np.random.default_rng(config.seed)
    start = init_from_pca(panel, spec, prior, config.seed, restrictions)
    if restrictions is not None:
        start, _ = _align(start, None, restrictions)
    lambdas = start.loadings.mean.copy()
    sigma2 = start.loadings.noise_scale.copy()
    phi = start.transition.mean.copy()
    sweeps, sign_flips = [], 0
    for _ in range(config.n_draws):
        states = sample_states_ffbs(panel, lambdas, sigma2, phi, prior, rng)
        lambdas, sigma2, phi, flips = sample_parameters(
            panel, states, spec, prior, restrictions, rng
        )
        sign_flips += flips
        sweeps.append((lambdas, sigma2, phi, states))
    return sweeps, sign_flips


# -- CAVI fit -----------------------------------------------------------------


def update_states(panel, loadings, transition, prior):
    r = transition.mean.shape[0]
    eq_info = loadings.mean * loadings.noise_prec[:, None]
    eq_prec = eq_info[:, :, None] * loadings.mean[:, None, :] + loadings.cov
    resid = np.hstack([np.eye(r), -transition.mean])
    trans_block = resid.T @ resid
    trans_block[r:, r:] += r * transition.cov
    band, info, y_star = path_precision(
        panel, eq_prec, eq_info, trans_block, np.linalg.inv(prior.init_state_cov)
    )
    chol = statespace.band_cholesky(band, r)
    z = scipy.linalg.cho_solve_banded((chol, True), info, check_finite=False)
    return kalman_smoother(chol, z, info, r, y_star.shape[0])


def kalman_smoother(chol, z, info, r, T):
    """``statespace.kalman_smoother`` with its blocks gathered from an index
    table built on every call, zeros above each block's diagonal."""
    s = chol.shape[0] - r
    width = r + s
    a, b = np.arange(width)[:, None], np.arange(r)
    col = r * np.arange(T - 1, -1, -1)[:, None, None] + b
    a0, b0 = np.arange(s)[:, None], np.arange(s)
    lower = np.concatenate(
        [np.broadcast_to(a >= b, (T, width, r)).ravel(), (a0 >= b0).ravel()]
    )
    where = np.concatenate(
        [(a - b + width * col).ravel(), (a0 - b0 + width * (r * T + b0)).ravel()]
    )
    where[~lower] = 0
    entries = np.where(lower, chol.ravel(order="F")[where], 0.0)
    blocks = entries[: T * width * r].reshape(T, width, r)
    origin = entries[T * width * r :].reshape(s, s)

    diag_inv = statespace.lower_inverse(blocks[:, :r])
    diag_inv_t = diag_inv.swapaxes(-1, -2)
    trans = np.zeros((T + 1, s, s))
    trans[1:, :r] = -diag_inv_t @ blocks[:, r:].swapaxes(-1, -2)
    trans[1:, r:, : s - r] = np.eye(s - r)
    noise = np.zeros((T + 1, s, s))
    noise[1:, :r, :r] = diag_inv_t @ diag_inv
    noise[0] = chol_inverse(origin)
    cov = statespace.symmetrize(statespace._compose_scan(trans, noise))
    lag_cov = trans[1:, :r] @ cov[:-1]

    mean = path_states(z, r, s).copy()
    return StateMoments(
        mean=mean,
        cov=cov,
        second_moment=cov + mean[:, :, None] * mean[:, None, :],
        lag_one=lag_cov + mean[1:, :r, None] * mean[:-1, None, :],
        prec_logdet=2.0 * float(np.log(chol[0]).sum()),
        info_quad=float(info @ z),
    )


def compute_elbo(panel, loadings, transition, moments, prior):
    counts = panel.counts
    s = loadings.mean.shape[1]
    r = transition.mean.shape[0]
    _, logdet_f0 = np.linalg.slogdet(prior.init_state_cov)
    data_quad = float(panel.sums_of_squares @ loadings.noise_prec)
    f_terms = (
        -0.5 * counts.sum() * float(np.log(np.pi))
        - 0.5 * logdet_f0
        - 0.5 * moments.prec_logdet
        - 0.5 * (data_quad - moments.info_quad)
    )
    free, cov, mu = loadings.free, loadings.cov, loadings.mean
    v_inv = prior.loading_prec
    _, logdet_vinv = np.linalg.slogdet(pad_restricted(v_inv, free))
    _, logdet_cov = np.linalg.slogdet(pad_restricted(cov, free))
    lam_terms = float(
        np.sum(
            0.5 * free.sum(axis=1)
            - 0.5 * np.einsum("ab,iab->i", v_inv, cov)
            - 0.5 * np.einsum("ia,ab,ib->i", mu, v_inv, mu) / loadings.noise_scale
            + 0.5 * (logdet_vinv + logdet_cov)
        )
    )
    w_inv = prior.trans_prec
    _, logdet_winv = np.linalg.slogdet(w_inv)
    _, logdet_pcov = np.linalg.slogdet(transition.cov)
    phi_terms = (
        0.5 * r * s
        - 0.5 * r * float(np.sum(w_inv * transition.cov))
        - 0.5 * float(np.sum((transition.mean @ w_inv) * transition.mean))
        + 0.5 * r * (logdet_winv + logdet_pcov)
    )
    nu_q, tau_q = loadings.noise_df, loadings.noise_scale
    nu_0, tau_0 = prior.noise_df, prior.noise_scale
    sigma_terms = float(
        np.sum(
            gammaln(0.5 * nu_q)
            - gammaln(0.5 * nu_0)
            - 0.5 * nu_q * np.log(nu_q * tau_q)
            + 0.5 * nu_0 * np.log(nu_0 * tau_0)
            + 0.5 * (nu_q * tau_q - nu_0 * tau_0) / tau_q
        )
    )
    return f_terms + lam_terms + phi_terms + sigma_terms


def fit_smf(panel, spec, prior, restrictions, tolerance=1e-7, max_iters=500, seed=0):
    """The CAVI loop of ``vi.fit_smf``: (state, moments, ELBO trace)."""
    state = init_from_pca(panel, spec, prior, seed, restrictions)
    moments = update_states(panel, state.loadings, state.transition, prior)
    elbo = compute_elbo(panel, state.loadings, state.transition, moments, prior)
    trace = [elbo]
    for _ in range(max_iters):
        f = moments.mean[1:]
        loadings, _ = loading_posterior(
            panel, f, moments.second_moment[1:], prior, restrictions
        )
        transition = transition_posterior(
            moments.second_moment[:-1].sum(axis=0), moments.lag_one.sum(axis=0), prior
        )
        state = vi.VariationalState(loadings=loadings, transition=transition)
        moments = update_states(panel, loadings, transition, prior)
        elbo_new = compute_elbo(panel, loadings, transition, moments, prior)
        criteria = (elbo_new - elbo) / max(
            0.5 * (abs(elbo_new) + abs(elbo)), np.finfo(float).tiny
        )
        trace.append(elbo_new)
        elbo = elbo_new
        if criteria <= tolerance:
            break
    if restrictions is not None and restrictions.positive:
        state, moments = _align(state, moments, restrictions)
    return state, moments, np.asarray(trace)
