"""Synthetic panel generation and independent brute-force test oracles.

The oracles here deliberately avoid the production filter code: state
moments come from conditioning an explicitly assembled joint Gaussian or
from a covariance-form filter over the uncollapsed augmented system, whose
log-likelihood is also rebuilt from the determinant and quadratic form of
the path precision, and the objective is cross-checked by plain Monte
Carlo averaging over the variational densities.  Desk-scale only; hard
size caps keep the dense constructions honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import gammaln, logsumexp

from .errors import DomainError, NumericalError
from .model import ModelSpec
from .panel import TimeSeriesPanel

_DENSE_CAP = 64
_LN2PI = float(np.log(2.0 * np.pi))


# ---------------------------------------------------------------------------
# data generation


@dataclass(frozen=True)
class RandomMissing:
    """Blank each cell independently with the given probability."""

    rate: float


@dataclass(frozen=True)
class RaggedEdge:
    """Blank variable i after its cutoff: cells with t > cutoffs[i] (1-based)."""

    cutoffs: dict[int, int]


@dataclass(frozen=True)
class PeriodicMissing:
    """Keep variable i only every strides[i]-th period (t = k, 2k, ...)."""

    strides: dict[int, int]


@dataclass(frozen=True)
class SimConfig:
    """Generative configuration: true parameters, length, missingness, seed."""

    spec: ModelSpec
    loadings: np.ndarray  # (n, s)
    noise_var: np.ndarray  # (n,)
    trans: np.ndarray  # (r, s)
    T: int
    missing: tuple = ()
    seed: int = 0
    init_cov: np.ndarray = None
    require_stationary: bool = False


def companion(trans: np.ndarray) -> np.ndarray:
    """Companion-form transition: the r x s block on top, shifted identity below."""
    r, s = trans.shape
    out = np.zeros((s, s))
    out[:r, :] = trans
    if s > r:
        out[r:, : s - r] = np.eye(s - r)
    return out


def state_noise_cov(r: int, s: int) -> np.ndarray:
    """Covariance of the state innovation: identity on the top r coordinates."""
    q = np.zeros((s, s))
    q[:r, :r] = np.eye(r)
    return q


def spectral_radius(trans: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(companion(trans))).max())


def _apply_missing(mask: np.ndarray, patterns, rng) -> np.ndarray:
    T, n = mask.shape
    out = mask.copy()
    for pat in patterns:
        if isinstance(pat, RandomMissing):
            out &= rng.random((T, n)) >= pat.rate
        elif isinstance(pat, RaggedEdge):
            for i, cutoff in pat.cutoffs.items():
                out[cutoff:, i] = False
        elif isinstance(pat, PeriodicMissing):
            for i, stride in pat.strides.items():
                keep = (np.arange(1, T + 1) % stride) == 0
                out[~keep, i] = False
        else:
            raise DomainError(f"unknown missingness pattern {pat!r}")
    return out


def simulate_dfm(config: SimConfig) -> tuple[TimeSeriesPanel, np.ndarray]:
    """Draw a panel from the generative model and blank cells per config.

    Returns the panel and the true state paths (T+1, s) for diagnostics.
    """
    spec = config.spec
    n, r, s = spec.n, spec.r, spec.s
    loadings = np.asarray(config.loadings, dtype=float)
    noise_var = np.asarray(config.noise_var, dtype=float)
    trans = np.asarray(config.trans, dtype=float)
    if loadings.shape != (n, s) or noise_var.shape != (n,) or trans.shape != (r, s):
        raise DomainError("parameter shapes inconsistent with the model spec")
    if np.any(noise_var <= 0):
        raise DomainError("noise variances must be positive")
    if config.require_stationary and spectral_radius(trans) >= 1.0:
        raise DomainError("transition is explosive but stationarity was requested")
    init_cov = np.eye(s) if config.init_cov is None else np.asarray(config.init_cov)

    rng = np.random.default_rng(config.seed)
    states = np.zeros((config.T + 1, s))
    states[0] = np.linalg.cholesky(init_cov) @ rng.standard_normal(s)
    for t in range(1, config.T + 1):
        shock = rng.standard_normal(r)
        states[t, :r] = trans @ states[t - 1] + shock
        if s > r:
            states[t, r:] = states[t - 1, : s - r]

    eps = rng.standard_normal((config.T, n)) * np.sqrt(noise_var)
    values = states[1:] @ loadings.T + eps
    mask = _apply_missing(np.ones((config.T, n), dtype=bool), config.missing, rng)
    panel = TimeSeriesPanel(
        values=np.where(mask, values, np.nan),
        mask=mask,
        names=[f"var{i + 1}" for i in range(n)],
    )
    return panel, states


def stationary_sim_config(
    spec: ModelSpec,
    T: int,
    seed: int = 0,
    missing: tuple = (),
    anchor_loading: float = 1.0,
) -> SimConfig:
    """Convenience DGP: stationary transition, unit-scale loadings.

    The first variable of each factor gets a fixed positive contemporaneous
    loading so the same variable can serve as an identification anchor.
    """
    rng = np.random.default_rng(seed + 982451653)
    n, r, s = spec.n, spec.r, spec.s
    while True:
        trans = rng.uniform(-0.4, 0.8, size=(r, s))
        trans[:, : r * spec.p] *= 0.3  # keep higher-lag pull mild
        if spectral_radius(trans) < 0.95:
            break
        trans *= 0.8
        if spectral_radius(trans) < 0.95:
            break
    loadings = rng.normal(0.0, 0.7, size=(n, s))
    for j in range(r):
        loadings[j, :] = 0.0
        loadings[j, j] = anchor_loading
    noise_var = rng.uniform(0.3, 1.0, size=n)
    return SimConfig(
        spec=spec,
        loadings=loadings,
        noise_var=noise_var,
        trans=trans,
        T=T,
        missing=missing,
        seed=seed,
        require_stationary=True,
    )


# ---------------------------------------------------------------------------
# dense joint-Gaussian oracle


@dataclass(frozen=True)
class DenseMoments:
    """Posterior state law from explicit joint-Gaussian conditioning."""

    mean: np.ndarray  # (T+1, s)
    cov: np.ndarray  # ((T+1)s, (T+1)s), full posterior covariance
    marg_cov: np.ndarray  # (T+1, s, s)
    lag_one: np.ndarray  # (T, r, s), E[f_t F_{t-1}']
    loglik: float


def dense_conditional_moments(
    trans: np.ndarray,
    init_cov: np.ndarray,
    observations: list,
    r: int,
) -> DenseMoments:
    """Condition the joint normal of all states on stacked observations.

    ``observations[t-1]`` is a triple (C_t, R_t, z_t) describing
    z_t = C_t F_t + noise with noise covariance R_t; an entry may be None
    when time t carries no observation.  The prior over the stacked state
    path is built from the transition recursion, the conditioning is one
    dense solve.  Capped at (T+1) * s <= 64.
    """
    s = trans.shape[0]
    T = len(observations)
    dim = (T + 1) * s
    if dim > _DENSE_CAP:
        raise DomainError(f"dense oracle capped at (T+1)*s <= {_DENSE_CAP}, got {dim}")
    q = state_noise_cov(r, s)

    # Joint prior covariance of (F_0, ..., F_T): propagate marginals, then
    # fill cross blocks Cov(F_t, F_u) = trans^(t-u) Cov(F_u).
    K = np.zeros((dim, dim))
    K[:s, :s] = init_cov
    for t in range(1, T + 1):
        prev = K[(t - 1) * s : t * s, (t - 1) * s : t * s]
        K[t * s : (t + 1) * s, t * s : (t + 1) * s] = trans @ prev @ trans.T + q
    for u in range(T + 1):
        for t in range(u + 1, T + 1):
            upper = K[(t - 1) * s : t * s, u * s : (u + 1) * s]
            block = trans @ upper
            K[t * s : (t + 1) * s, u * s : (u + 1) * s] = block
            K[u * s : (u + 1) * s, t * s : (t + 1) * s] = block.T
    K = 0.5 * (K + K.T)

    blocks = [(t, obs) for t, obs in enumerate(observations, start=1) if obs is not None]
    if blocks:
        m_obs = sum(obs[0].shape[0] for _, obs in blocks)
        C = np.zeros((m_obs, dim))
        R = np.zeros((m_obs, m_obs))
        z = np.zeros(m_obs)
        row = 0
        for t, (c_t, r_t, z_t) in blocks:
            k = c_t.shape[0]
            C[row : row + k, t * s : (t + 1) * s] = c_t
            R[row : row + k, row : row + k] = r_t
            z[row : row + k] = z_t
            row += k
        cross = K @ C.T
        szz = C @ cross + R
        szz = 0.5 * (szz + szz.T)
        sol = np.linalg.solve(szz, np.column_stack([z, cross.T]))
        mean_flat = cross @ sol[:, 0]
        cov_full = K - cross @ sol[:, 1:]
        sign, logdet = np.linalg.slogdet(szz)
        loglik = -0.5 * (m_obs * _LN2PI + logdet + float(z @ sol[:, 0]))
    else:
        mean_flat = np.zeros(dim)
        cov_full = K
        loglik = 0.0

    cov_full = 0.5 * (cov_full + cov_full.T)
    mean = mean_flat.reshape(T + 1, s)
    marg = np.stack(
        [cov_full[t * s : (t + 1) * s, t * s : (t + 1) * s] for t in range(T + 1)]
    )
    lag_one = np.zeros((T, r, s))
    for t in range(1, T + 1):
        cross_block = cov_full[t * s : (t + 1) * s, (t - 1) * s : t * s]
        lag_one[t - 1] = (cross_block + np.outer(mean[t], mean[t - 1]))[:r, :]
    return DenseMoments(mean=mean, cov=cov_full, marg_cov=marg, lag_one=lag_one, loglik=loglik)


def dense_variational_moments(panel, loadings, transition, prior) -> DenseMoments:
    """Oracle for the variational state law via the uncollapsed augmented system.

    Builds, per time step, the observation that stacks available data rows
    on s zero pseudo-observations whose covariance is the inverse of the
    summed parameter covariances, then conditions the dense joint normal.
    A step with neither data nor parameter covariance (an all-missing last
    step) contributes no observation, the limit of a vanishing precision.
    """
    values, mask = panel.values, panel.mask
    T, n = values.shape
    lam = loadings.mean
    r, s = transition.mean.shape
    noise_var = loadings.noise_scale
    observations = []
    for t in range(1, T + 1):
        avail = mask[t - 1]
        sigma_theta = np.einsum("i,iab->ab", avail.astype(float), loadings.cov)
        if t < T:
            sigma_theta = sigma_theta + r * transition.cov
        if not avail.any() and not sigma_theta.any():
            observations.append(None)
            continue
        c = np.vstack([lam[avail], np.eye(s)])
        robs = scipy.linalg.block_diag(
            np.diag(noise_var[avail]), np.linalg.inv(sigma_theta)
        )
        z = np.concatenate([values[t - 1][avail], np.zeros(s)])
        observations.append((c, robs, z))
    init_cov = np.linalg.inv(
        np.linalg.inv(prior.init_state_cov) + r * transition.cov
    )
    return dense_conditional_moments(companion(transition.mean), init_cov, observations, r)


def dense_fixed_moments(
    panel,
    loadings: np.ndarray,
    noise_var: np.ndarray,
    trans: np.ndarray,
    init_cov: np.ndarray,
) -> DenseMoments:
    """Oracle for the plain fixed-parameter model (no augmentation)."""
    values, mask = panel.values, panel.mask
    T = values.shape[0]
    r = trans.shape[0]
    observations = []
    for t in range(1, T + 1):
        avail = mask[t - 1]
        if not avail.any():
            observations.append(None)
            continue
        c = loadings[avail]
        robs = np.diag(noise_var[avail])
        z = values[t - 1][avail]
        observations.append((c, robs, z))
    return dense_conditional_moments(companion(trans), init_cov, observations, r)


def dense_gaussian_oracle(panel, state, prior) -> DenseMoments:
    """Exact posterior state moments for a variational state (desk scale)."""
    return dense_variational_moments(panel, state.loadings, state.transition, prior)


# ---------------------------------------------------------------------------
# the uncollapsed reference filter


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.swapaxes(-1, -2))


def _chol(a: np.ndarray, context: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        raise NumericalError(f"matrix not positive definite: {context}") from None


def _chol_solve(chol_lower: np.ndarray, b: np.ndarray) -> np.ndarray:
    return scipy.linalg.cho_solve((chol_lower, True), b, check_finite=False)


def build_sigma_theta(
    mask_t: np.ndarray,
    loading_covs: np.ndarray,
    trans_cov: np.ndarray,
    r: int,
    is_last: bool,
) -> np.ndarray:
    """Parameter-uncertainty precision attached to the zero pseudo-observations.

    Sums the loading covariances of the variables available at time t and,
    for every step but the last, adds r times the transition covariance.
    The final step omits the transition term: its contribution is carried
    by the origin state covariance instead.
    """
    out = np.einsum("i,iab->ab", mask_t.astype(float), loading_covs)
    if not is_last:
        out = out + r * trans_cov
    return _sym(out)


def decomposed_loglik(panel, loadings, transition, prior, prec_logdet, info_quad):
    """Augmented-system log-likelihood from the path precision Q and vector b.

    Integrating the path out of the augmented system (data rows and s zero
    pseudo-observations per step) leaves the normal log-likelihood
    -1/2 [(N + T s) ln 2 pi + sum_i count_i ln tau_i - sum_t ln|Sigma_theta_t|
    - ln|F0^-1 + r V| + ln|Q| + sum_ti mask_ti y_ti^2 / tau_i - b' Q^-1 b],
    with N observed cells.  ``prec_logdet`` and ``info_quad`` are ln|Q| and
    b' Q^-1 b; the rest is computed here.  Matches the log-likelihood of
    the uncollapsed augmented filter exactly.
    """
    mask = panel.mask
    T = panel.T
    r, s = transition.mean.shape
    noise_var = loadings.noise_scale
    counts = mask.sum(axis=0).astype(float)
    data_quad = float(np.sum(np.where(mask, panel.values, 0.0) ** 2 / noise_var))
    sigma_theta_logdet = sum(
        np.linalg.slogdet(
            build_sigma_theta(mask[t - 1], loadings.cov, transition.cov, r, t == T)
        )[1]
        for t in range(1, T + 1)
    )
    init_prec = np.linalg.inv(prior.init_state_cov) + r * transition.cov
    return -0.5 * (
        (counts.sum() + T * s) * _LN2PI
        + float(np.dot(counts, np.log(noise_var)))
        - float(sigma_theta_logdet)
        - float(np.linalg.slogdet(init_prec)[1])
        + prec_logdet
        + data_quad
        - info_quad
    )


def augmented_moments(
    values: np.ndarray,
    mask: np.ndarray,
    loading_mean: np.ndarray,
    loading_covs: np.ndarray,
    noise_var: np.ndarray,
    trans_mean: np.ndarray,
    trans_cov: np.ndarray,
    init_state_cov: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Reference path: filter and smooth the uncollapsed augmented system.

    Stacks, at each time step, the available data rows on the s zero
    pseudo-observations with covariance blockdiag(noise, inverse of the
    parameter-uncertainty precision), and runs a standard covariance-form
    filter/smoother.  Returns (smoothed means, smoothed covariances,
    lag-one top-r cross moments, log-likelihood).  Intended for
    validation; cost grows with n.
    """
    T, n = values.shape
    r, s = trans_mean.shape
    trans = companion(trans_mean)
    q = state_noise_cov(r, s)

    init_prec = np.linalg.inv(init_state_cov) + r * trans_cov
    p0 = _sym(np.linalg.inv(_sym(init_prec)))

    filt_mean = np.zeros((T + 1, s))
    filt_cov = np.zeros((T + 1, s, s))
    pred_mean = np.zeros((T, s))
    pred_cov = np.zeros((T, s, s))
    filt_cov[0] = p0
    loglik = 0.0
    for t in range(1, T + 1):
        a = trans @ filt_mean[t - 1]
        p = _sym(trans @ filt_cov[t - 1] @ trans.T + q)
        pred_mean[t - 1] = a
        pred_cov[t - 1] = p

        avail = mask[t - 1]
        sigma_theta = build_sigma_theta(avail, loading_covs, trans_cov, r, t == T)
        c = np.vstack([loading_mean[avail], np.eye(s)])
        robs = scipy.linalg.block_diag(
            np.diag(noise_var[avail]), np.linalg.inv(sigma_theta)
        )
        z = np.concatenate([values[t - 1][avail], np.zeros(s)])

        innov = z - c @ a
        g = c @ p @ c.T + robs
        chol = _chol(_sym(g), f"augmented system at time step {t}")
        gain = _chol_solve(chol, c @ p).T
        filt_mean[t] = a + gain @ innov
        imkc = np.eye(s) - gain @ c
        filt_cov[t] = _sym(imkc @ p @ imkc.T + gain @ robs @ gain.T)
        logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
        loglik += -0.5 * (
            z.shape[0] * _LN2PI + logdet + float(innov @ _chol_solve(chol, innov))
        )

    mean = filt_mean.copy()
    cov = filt_cov.copy()
    lag_one = np.zeros((T, r, s))
    gains = np.zeros((T, s, s))
    for t in range(T - 1, -1, -1):
        chol = _chol(pred_cov[t], f"augmented smoother at time step {t + 1}")
        j = _chol_solve(chol, trans @ filt_cov[t]).T
        gains[t] = j
        mean[t] = filt_mean[t] + j @ (mean[t + 1] - pred_mean[t])
        cov[t] = _sym(filt_cov[t] + j @ (cov[t + 1] - pred_cov[t]) @ j.T)
    for t in range(1, T + 1):
        cross = cov[t] @ gains[t - 1].T + np.outer(mean[t], mean[t - 1])
        lag_one[t - 1] = cross[:r, :]
    return mean, cov, lag_one, loglik


# ---------------------------------------------------------------------------
# Monte Carlo objective oracle


def _siinv_chi2_logpdf(x, df, scale):
    """Log density of the scaled inverse chi-square distribution."""
    half = 0.5 * df
    return (
        half * np.log(half * scale)
        - gammaln(half)
        - (1.0 + half) * np.log(x)
        - half * scale / x
    )


def _mn_logpdf(x, mean, col_cov_logdet, col_prec):
    """Matrix-normal log density with identity row covariance, batched."""
    r, s = mean.shape
    diff = x - mean
    quad = np.einsum("dra,ab,drb->d", diff, col_prec, diff)
    return -0.5 * (r * s * _LN2PI + r * col_cov_logdet + quad)


def _draw_q_theta(state, n_samples, rng):
    """Vectorized draws of (noise variances, loadings, transition) from q."""
    loadings, transition = state.loadings, state.transition
    n, s = loadings.mean.shape
    r = transition.mean.shape[0]
    sig2 = (
        loadings.noise_df
        * loadings.noise_scale
        / rng.chisquare(loadings.noise_df, size=(n_samples, n))
    )
    chols = np.linalg.cholesky(loadings.cov)
    z = rng.standard_normal((n_samples, n, s))
    lam = loadings.mean[None] + np.sqrt(sig2)[:, :, None] * np.einsum(
        "iab,dib->dia", chols, z
    )
    l_phi = np.linalg.cholesky(transition.cov)
    zp = rng.standard_normal((n_samples, r, s))
    phi = transition.mean[None] + np.einsum("dra,sa->drs", zp, l_phi)
    return sig2, lam, phi


def _log_joint_and_logq_theta(panel, state, prior, sig2, lam, phi, f_paths):
    """Vectorized log p(data, states, params) and log q(params)."""
    values, mask = panel.values, panel.mask
    maskf = mask.astype(float)
    filled = np.where(mask, values, 0.0)
    n, s = state.loadings.mean.shape
    r = state.transition.mean.shape[0]
    T = values.shape[0]
    counts = maskf.sum(axis=0)

    fitted = np.einsum("dia,dta->dti", lam, f_paths[:, 1:, : s])
    resid2 = (filled[None] - fitted) ** 2
    ln_sig = np.log(sig2)
    ll_data = (
        -0.5 * counts.sum() * _LN2PI
        - 0.5 * (counts[None, :] * ln_sig).sum(axis=1)
        - 0.5 * np.einsum("ti,dti,di->d", maskf, resid2, 1.0 / sig2)
    )

    f0 = f_paths[:, 0, :]
    prec0 = np.linalg.inv(prior.init_state_cov)
    sign0, logdet0 = np.linalg.slogdet(prior.init_state_cov)
    ll_f0 = -0.5 * (s * _LN2PI + logdet0 + np.einsum("da,ab,db->d", f0, prec0, f0))
    innov = f_paths[:, 1:, :r] - np.einsum("dra,dta->dtr", phi, f_paths[:, :-1, :])
    ll_trans = -0.5 * (T * r * _LN2PI + np.einsum("dtr,dtr->d", innov, innov))

    v_inv = prior.loading_prec
    sign_v, logdet_vinv = np.linalg.slogdet(v_inv)
    quad_lam = np.einsum("dia,ab,dib->di", lam, v_inv, lam)
    ll_lam_prior = (
        -0.5 * n * s * _LN2PI
        - 0.5 * s * ln_sig.sum(axis=1)
        + 0.5 * n * logdet_vinv
        - 0.5 * (quad_lam / sig2).sum(axis=1)
    )
    ll_sig_prior = _siinv_chi2_logpdf(
        sig2, prior.noise_df[None, :], prior.noise_scale[None, :]
    ).sum(axis=1)
    w_inv = prior.trans_prec
    sign_w, logdet_winv = np.linalg.slogdet(w_inv)
    ll_phi_prior = _mn_logpdf(phi, np.zeros((r, s)), -logdet_winv, w_inv)

    log_joint = ll_data + ll_f0 + ll_trans + ll_lam_prior + ll_sig_prior + ll_phi_prior

    loadings, transition = state.loadings, state.transition
    diff = lam - loadings.mean[None]
    prec_lam = np.linalg.inv(loadings.cov)
    sign_l, logdet_lcov = np.linalg.slogdet(loadings.cov)
    quad_q = np.einsum("dia,iab,dib->di", diff, prec_lam, diff)
    lq_lam = (
        -0.5 * n * s * _LN2PI
        - 0.5 * s * ln_sig.sum(axis=1)
        - 0.5 * logdet_lcov.sum()
        - 0.5 * (quad_q / sig2).sum(axis=1)
    )
    lq_sig = _siinv_chi2_logpdf(
        sig2, loadings.noise_df[None, :], loadings.noise_scale[None, :]
    ).sum(axis=1)
    sign_p, logdet_pcov = np.linalg.slogdet(transition.cov)
    lq_phi = _mn_logpdf(
        phi, transition.mean, logdet_pcov, np.linalg.inv(transition.cov)
    )
    log_q_theta = lq_lam + lq_sig + lq_phi
    return log_joint, log_q_theta


def _mc_terms(panel, state, prior, n_samples, seed):
    r, s = state.transition.mean.shape
    if s != r:
        raise DomainError("Monte Carlo oracle supports p = 0 models only")
    if not np.all(state.loadings.free):
        raise DomainError("Monte Carlo oracle does not support loading restrictions")
    dense = dense_variational_moments(panel, state.loadings, state.transition, prior)
    T = panel.T
    dim = (T + 1) * s
    rng = np.random.default_rng(seed)

    sig2, lam, phi = _draw_q_theta(state, n_samples, rng)
    l_f = np.linalg.cholesky(dense.cov + 1e-13 * np.eye(dim))
    zf = rng.standard_normal((n_samples, dim))
    flat = dense.mean.reshape(-1)[None] + zf @ l_f.T
    f_paths = flat.reshape(n_samples, T + 1, s)

    log_joint, log_q_theta = _log_joint_and_logq_theta(
        panel, state, prior, sig2, lam, phi, f_paths
    )
    diff = flat - dense.mean.reshape(-1)[None]
    sol = np.linalg.solve(dense.cov, diff.T).T
    sign_f, logdet_f = np.linalg.slogdet(dense.cov)
    log_q_f = -0.5 * (dim * _LN2PI + logdet_f + np.einsum("dk,dk->d", diff, sol))
    return log_joint, log_q_theta, log_q_f


def mc_elbo_oracle(panel, state, prior, n_samples: int = 100_000, seed: int = 0):
    """Monte Carlo estimate of the evidence lower bound under q.

    Samples (parameters, state paths) from the variational densities and
    averages log joint minus log q.  Returns (estimate, standard error).
    Tiny (p = 0) models only; the state density is evaluated through the
    dense joint-Gaussian oracle.
    """
    log_joint, log_q_theta, log_q_f = _mc_terms(panel, state, prior, n_samples, seed)
    draws = log_joint - log_q_theta - log_q_f
    return float(draws.mean()), float(draws.std(ddof=1) / math.sqrt(n_samples))


def mc_log_marginal(panel, state, prior, n_samples: int = 100_000, seed: int = 0):
    """Importance-sampling estimate of the log marginal likelihood.

    Uses q as the proposal; returns (estimate, approximate standard error
    of the log estimate via the delta method).
    """
    log_joint, log_q_theta, log_q_f = _mc_terms(panel, state, prior, n_samples, seed)
    log_w = log_joint - log_q_theta - log_q_f
    log_est = float(logsumexp(log_w) - math.log(n_samples))
    w = np.exp(log_w - log_w.max())
    se = float(w.std(ddof=1) / (w.mean() * math.sqrt(n_samples)))
    return log_est, se
