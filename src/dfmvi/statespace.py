"""One state-space kernel for the collapsed factor system of the variational fit.

The factor density targeted by the variational state update is the
smoothing law of a linear-Gaussian system whose observation vector stacks
the available data rows on top of s pseudo-observations of zero.  The zero
block carries the accumulated parameter-uncertainty precision, so wider
parameter densities shrink the state toward its unconditional mean.

Collapsing projects that (n_t + s)-dimensional observation onto the
s-dimensional GLS summary of the state, which is sufficient for filtering
and much cheaper when n >> s.  The collapsed system observes the state
through the identity, so the forward loop runs in information form: step
t takes an observation precision O_t and an information vector b_t, and a
step with O_t = 0 is a pure prediction.  :func:`kalman_filter` feeds
O_t = H_star_t^-1 and b_t = O_t y_star_t, then forms the innovation
covariances, their log-determinants and quadratic forms in one batched
pass over time; :func:`kalman_smoother` takes all its gains from one
batched solve.  The Gibbs sampler does not filter: it draws the state path
from its banded precision (``dfmvi.gibbs.sample_states_ffbs``).

The per-step collapse, the uncollapsed reference filter and the
log-likelihood decomposition that validate this module live with the test
oracles in ``dfmvi.sim``.

Conventions: time-major arrays; index t = 0 is the pre-sample state, data
run t = 1..T.  ``y_star[t-1]`` and friends refer to time t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .panel import TimeSeriesPanel

_JITTER = 1e-10
_MAX_JITTER_TRIES = 3
_LN2PI = float(np.log(2.0 * np.pi))


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a (stack of) square matrices with their transpose."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def chol_factor(a: np.ndarray, context: str = "") -> np.ndarray:
    """Lower Cholesky factor, retrying with diagonal jitter.

    Jitter of 1e-10 is added to the diagonal at most three times before a
    NumericalError is raised with the given context string.
    """
    mat = a
    for attempt in range(_MAX_JITTER_TRIES + 1):
        try:
            return np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            if attempt == _MAX_JITTER_TRIES:
                break
            mat = mat + _JITTER * np.eye(a.shape[-1])
    raise NumericalError(
        f"matrix not positive definite after jitter{': ' + context if context else ''}"
    )


def chol_inverse(chol_lower: np.ndarray) -> np.ndarray:
    eye = np.eye(chol_lower.shape[0])
    return scipy.linalg.cho_solve((chol_lower, True), eye, check_finite=False)


def companion(trans_mean: np.ndarray) -> np.ndarray:
    """Companion-form transition: the r x s block on top, shifted identity below."""
    r, s = trans_mean.shape
    out = np.zeros((s, s))
    out[:r, :] = trans_mean
    if s > r:
        out[r:, : s - r] = np.eye(s - r)
    return out


def state_noise_cov(r: int, s: int) -> np.ndarray:
    """Covariance of the state innovation: identity on the top r coordinates."""
    q = np.zeros((s, s))
    q[:r, :r] = np.eye(r)
    return q


@dataclass(frozen=True)
class SsmParams:
    """Collapsed state-space system for one parameter setting.

    ``transition`` is the companion-form matrix, ``init_cov`` the origin
    state covariance after absorbing the transition-uncertainty term, and
    ``y_star``/``H_star`` the per-time collapsed observations.  The logdet
    and remainder-quadratic arrays are byproducts of the collapse reused
    by the objective and by the log-likelihood decomposition.
    """

    transition: np.ndarray  # (s, s)
    init_cov: np.ndarray  # (s, s)
    y_star: np.ndarray  # (T, s)
    H_star: np.ndarray  # (T, s, s)
    r: int
    h_star_logdet: np.ndarray  # (T,)
    sigma_theta_logdet: np.ndarray  # (T,)
    remainder_quads: np.ndarray  # (T,)

    @property
    def T(self) -> int:
        return self.y_star.shape[0]

    @property
    def s(self) -> int:
        return self.transition.shape[0]


@dataclass(frozen=True)
class FilterResult:
    """Forward-pass output of the collapsed filter."""

    filt_mean: np.ndarray  # (T+1, s), index 0 is the origin state
    filt_cov: np.ndarray  # (T+1, s, s)
    pred_mean: np.ndarray  # (T, s), one-step-ahead mean of state t
    pred_cov: np.ndarray  # (T, s, s)
    innovations: np.ndarray  # (T, s)
    innovation_cov: np.ndarray  # (T, s, s)
    innovation_quads: np.ndarray  # (T,)
    innovation_logdets: np.ndarray  # (T,)
    loglik: float


@dataclass(frozen=True)
class StateMoments:
    """Smoothed state moments plus the filter byproducts behind them.

    ``lag_one[t-1]`` holds E[f_t F_{t-1}'] (top-r rows of the smoothed
    cross second moment) for t = 1..T.
    """

    mean: np.ndarray  # (T+1, s)
    cov: np.ndarray  # (T+1, s, s)
    second_moment: np.ndarray  # (T+1, s, s)
    lag_one: np.ndarray  # (T, r, s)
    innovations: np.ndarray  # (T, s)
    innovation_cov: np.ndarray  # (T, s, s)
    innovation_quads: np.ndarray  # (T,)
    innovation_logdets: np.ndarray  # (T,)
    loglik: float


def build_collapsed_system(
    panel: TimeSeriesPanel,
    loading_mean: np.ndarray,
    loading_covs: np.ndarray,
    noise_prec: np.ndarray,
    trans_mean: np.ndarray,
    trans_cov: np.ndarray,
    init_state_cov: np.ndarray,
) -> SsmParams:
    """Assemble the collapsed system for a full panel in vectorized form.

    The sigma_theta_t precision sums the loading covariances of the
    variables available at time t and, for every step but the last, r
    times the transition covariance; the final step's transition term is
    carried by the origin state covariance instead.  The collapse
    byproducts (logdets and remainder quadratics) are computed along the
    way.  ``dfmvi.sim`` holds the per-step reference construction.
    """
    r, s = trans_mean.shape
    maskf = panel.mask_float
    filled = panel.zero_filled

    weighted_outer = (loading_mean[:, :, None] * loading_mean[:, None, :]) * noise_prec[
        :, None, None
    ]
    gram = np.einsum("ti,iab->tab", maskf, weighted_outer)
    sigma_theta = np.einsum("ti,iab->tab", maskf, loading_covs)
    sigma_theta[:-1] += r * trans_cov
    sigma_theta = symmetrize(sigma_theta)

    prec = gram + sigma_theta
    sign, prec_logdet = np.linalg.slogdet(prec)
    if np.any(sign <= 0) or not np.all(np.isfinite(prec_logdet)):
        bad = int(np.argmax((sign <= 0) | ~np.isfinite(prec_logdet)))
        raise NumericalError(
            f"singular collapsed observation precision at time step {bad + 1}; "
            "use positive definite priors or trim trailing all-missing time steps"
        )
    h_star = symmetrize(np.linalg.inv(prec))
    rhs = (filled * noise_prec) @ loading_mean
    y_star = np.einsum("tab,tb->ta", h_star, rhs)

    sign_th, sigma_theta_logdet = np.linalg.slogdet(sigma_theta)
    sigma_theta_logdet = np.where(sign_th > 0, sigma_theta_logdet, -np.inf)

    resid = filled - y_star @ loading_mean.T
    quad_data = np.einsum("ti,ti->t", maskf, resid**2 * noise_prec)
    quad_zero = np.einsum("ta,tab,tb->t", y_star, sigma_theta, y_star)

    init_prec = np.linalg.inv(init_state_cov) + r * trans_cov
    init_cov = symmetrize(np.linalg.inv(symmetrize(init_prec)))

    return SsmParams(
        transition=companion(trans_mean),
        init_cov=init_cov,
        y_star=y_star,
        H_star=h_star,
        r=r,
        h_star_logdet=-prec_logdet,
        sigma_theta_logdet=sigma_theta_logdet,
        remainder_quads=quad_data + quad_zero,
    )


def information_filter(
    transition: np.ndarray,
    noise_cov: np.ndarray,
    init_cov: np.ndarray,
    obs_prec: np.ndarray,
    obs_info: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Forward filter with an identity observation matrix, in information form.

    The forward pass of :func:`kalman_filter` over the collapsed system.
    Time t (1-based) contributes precision ``obs_prec[t-1]`` and information
    vector ``obs_info[t-1]``; a zero precision makes the step a pure
    prediction.  Each step predicts a = F m and P = F C F' + Q, then updates
    C = (I + P O)^-1 P, the inverse of P^-1 + O, and m = a + C (b - O a).

    Returns the filtered means (T+1, s) and covariances (T+1, s, s), index 0
    being the origin state, and the one-step predicted means (T, s) and
    covariances (T, s, s) of states 1..T.

    Raises
    ------
    NumericalError
        If an update matrix I + P O is singular (names the time step).
    """
    T, s = obs_info.shape
    trans_t = transition.T
    eye = np.eye(s)
    filt_mean = np.zeros((T + 1, s))
    filt_cov = np.empty((T + 1, s, s))
    pred_mean = np.empty((T, s))
    pred_cov = np.empty((T, s, s))
    filt_cov[0] = init_cov
    m, c = filt_mean[0], init_cov
    try:
        for t in range(T):
            a = transition @ m
            p = transition @ c @ trans_t + noise_cov
            p = 0.5 * (p + p.T)
            o = obs_prec[t]
            c = np.linalg.solve(eye + p @ o, p)
            c = 0.5 * (c + c.T)
            m = a + c @ (obs_info[t] - o @ a)
            pred_mean[t] = a
            pred_cov[t] = p
            filt_mean[t + 1] = m
            filt_cov[t + 1] = c
    except np.linalg.LinAlgError:
        raise NumericalError(f"singular state update at time step {t + 1}") from None
    return filt_mean, filt_cov, pred_mean, pred_cov


def backward_conditionals(
    transition: np.ndarray,
    filt_mean: np.ndarray,
    filt_cov: np.ndarray,
    pred_cov: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Law of state t given state t+1 and the data up to t, for t = 0..T-1.

    State t given state t+1 = x is normal with mean offset_t + J_t x and
    covariance C_t - J_t F C_t, where J_t = C_t F' P_{t+1}^-1 and
    offset_t = m_t - J_t F m_t.  Returns (gains, offsets, covariances),
    all gains from one batched solve, for :func:`kalman_smoother`.

    Raises
    ------
    NumericalError
        If a predicted state covariance is singular.
    """
    try:
        gains = np.linalg.solve(pred_cov, transition @ filt_cov[:-1]).swapaxes(-1, -2)
    except np.linalg.LinAlgError:
        raise NumericalError(
            "singular predicted state covariance in the backward pass"
        ) from None
    gain_trans = gains @ transition
    offsets = filt_mean[:-1] - np.einsum("tab,tb->ta", gain_trans, filt_mean[:-1])
    covs = symmetrize(filt_cov[:-1] - gain_trans @ filt_cov[:-1])
    return gains, offsets, covs


def batched_cholesky(a: np.ndarray, context) -> np.ndarray:
    """Lower Cholesky factors of a (k, s, s) stack in one batched call.

    Falls back to :func:`chol_factor` entry by entry when the stack holds a
    matrix that is not positive definite, so the jitter retries apply and
    the error carries ``context(j)`` for the first failing entry j.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.stack([chol_factor(m, context=context(j)) for j, m in enumerate(a)])


def kalman_filter(params: SsmParams) -> FilterResult:
    """Forward pass over the collapsed system.

    The observation matrix is the identity, so :func:`information_filter`
    runs with precision H_star_t^-1 and information H_star_t^-1 y_star_t.
    The innovations y_star_t minus the one-step state prediction, their
    covariances P_t + H_star_t, the log-determinants, the quadratic forms
    and the Gaussian log-likelihood of the collapsed sequence then follow
    in one batched pass over time.
    """
    s = params.s
    try:
        obs_prec = np.linalg.inv(params.H_star)
    except np.linalg.LinAlgError:
        raise NumericalError("singular collapsed observation covariance") from None
    obs_info = np.einsum("tab,tb->ta", obs_prec, params.y_star)
    filt_mean, filt_cov, pred_mean, pred_cov = information_filter(
        params.transition,
        state_noise_cov(params.r, s),
        symmetrize(params.init_cov),
        obs_prec,
        obs_info,
    )

    innovations = params.y_star - pred_mean
    innovation_cov = symmetrize(pred_cov + params.H_star)
    chol = batched_cholesky(
        innovation_cov, lambda j: f"innovation covariance at time step {j + 1}"
    )
    whitened = np.linalg.solve(chol, innovations[:, :, None])[:, :, 0]
    quads = np.einsum("ta,ta->t", whitened, whitened)
    logdets = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    loglik = -0.5 * float(np.sum(s * _LN2PI + logdets + quads))

    return FilterResult(
        filt_mean=filt_mean,
        filt_cov=filt_cov,
        pred_mean=pred_mean,
        pred_cov=pred_cov,
        innovations=innovations,
        innovation_cov=innovation_cov,
        innovation_quads=quads,
        innovation_logdets=logdets,
        loglik=loglik,
    )


def kalman_smoother(filt: FilterResult, params: SsmParams) -> StateMoments:
    """Fixed-interval smoother with lag-one cross second moments.

    With the backward conditionals of :func:`backward_conditionals`, the
    smoothed mean at t is offset_t + J_t times the smoothed mean at t+1 and
    the smoothed covariance adds J_t (smoothed covariance at t+1) J_t' to
    the conditional covariance; the loop carries only these recursions.
    The lag-one covariance Cov[F_t, F_{t-1} | data] equals the smoothed
    covariance at t times the transpose of the gain at t-1, an identity
    that follows from the backward conditional mean being linear in the
    next state; it is validated against a dense joint-Gaussian oracle in
    the tests.
    """
    gains, offsets, cond_covs = backward_conditionals(
        params.transition, filt.filt_mean, filt.filt_cov, filt.pred_cov
    )
    gains_t = gains.swapaxes(-1, -2)

    mean = filt.filt_mean.copy()
    cov = filt.filt_cov.copy()
    for t in range(params.T - 1, -1, -1):
        mean[t] = offsets[t] + gains[t] @ mean[t + 1]
        cov[t] = cond_covs[t] + gains[t] @ cov[t + 1] @ gains_t[t]
    cov = symmetrize(cov)

    second = symmetrize(cov + mean[:, :, None] * mean[:, None, :])
    cross = cov[1:] @ gains_t + mean[1:, :, None] * mean[:-1, None, :]

    return StateMoments(
        mean=mean,
        cov=cov,
        second_moment=second,
        lag_one=cross[:, : params.r, :],
        innovations=filt.innovations,
        innovation_cov=filt.innovation_cov,
        innovation_quads=filt.innovation_quads,
        innovation_logdets=filt.innovation_logdets,
        loglik=filt.loglik,
    )


def smooth_collapsed(params: SsmParams) -> StateMoments:
    """Filter and smooth in one call."""
    return kalman_smoother(kalman_filter(params), params)
