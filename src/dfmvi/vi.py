"""Variational parameter updates, objective evaluation and the fit driver.

The approximating family factorizes the latent states away from the static
parameters, which in turn splits the parameter block into per-equation
Gaussian/scaled-inverse-chi-square loadings-noise pairs and one
matrix-normal transition block.  Each update is the conjugate Bayesian
regression with sufficient statistics replaced by smoothed state moments;
all n loading regressions run as one batched kernel,
:func:`loading_posterior`, which the Gibbs parameter draw shares.

The objective trace records, once per iteration, the exact bound of the
consistent pair (state density implied by the just-updated parameters,
those parameters).  Every recorded value is then guaranteed nondecreasing
under coordinate ascent, and the evaluation agrees with the Monte Carlo
oracle because bound formula and state pass always share one parameter
setting.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from . import statespace
from .errors import DomainError, NumericalError
from .model import ModelSpec, PriorSpec, Restrictions, state_sign_vector
from .panel import TimeSeriesPanel
from .statespace import SsmParams, StateMoments

_LNPI = float(np.log(np.pi))


@dataclass(frozen=True)
class LoadingsVariational:
    """Per-equation loading/noise variational parameters.

    ``mean[i]`` and ``cov[i]`` parameterize the Gaussian over the loading
    row of variable i (scaled by its noise variance); ``noise_df`` and
    ``noise_scale`` parameterize the scaled-inverse-chi-square noise
    variances.  ``free[i]`` marks the unrestricted loading coordinates;
    restricted entries carry exact zeros in mean and cov.
    """

    mean: np.ndarray  # (n, s)
    cov: np.ndarray  # (n, s, s)
    noise_df: np.ndarray  # (n,)
    noise_scale: np.ndarray  # (n,)
    free: np.ndarray  # (n, s) bool

    @property
    def noise_prec(self) -> np.ndarray:
        """Expected noise precision, the reciprocal of the scale."""
        return 1.0 / self.noise_scale


@dataclass(frozen=True)
class TransitionVariational:
    """Matrix-normal transition block: r x s mean, s x s column covariance."""

    mean: np.ndarray
    cov: np.ndarray


@dataclass(frozen=True)
class VariationalState:
    loadings: LoadingsVariational
    transition: TransitionVariational


@dataclass(frozen=True)
class FitReport:
    elbo_trace: np.ndarray
    iterations: int
    converged: bool
    final_criteria: float
    wall_time: float


def _restrict_to_free(a: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Zero every entry of an (n, s, s) stack outside row i's free block."""
    return np.where(free[:, :, None] & free[:, None, :], a, 0.0)


def _pad_restricted(a: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Free block of ``a`` per row, identity on the restricted coordinates.

    After a permutation each matrix is then block diagonal with an identity
    block, so its log-determinant, Cholesky factor and solves on the free
    coordinates are exactly those of the free block.
    """
    return _restrict_to_free(a, free) + np.eye(free.shape[1]) * ~free[:, None, :]


def loading_posterior(
    panel: TimeSeriesPanel,
    mean: np.ndarray,
    second_moment: np.ndarray,
    prior: PriorSpec,
    restrictions: Restrictions | None = None,
) -> tuple[LoadingsVariational, np.ndarray]:
    """Conjugate regressions of all n equations on the states, batched.

    ``mean`` (T, s) and ``second_moment`` (T, s, s) are the state moments of
    times 1..T.  Zero restrictions enter as identity rows and columns with a
    zero right-hand side; one batched Cholesky solves every equation, and
    equations without observations take their prior exactly.  Returns the
    posterior (exact zeros on restricted entries) and roots R R' = cov.

    Raises
    ------
    NumericalError
        If a precision is not positive definite after jitter or a noise
        scale is not positive (both name the first such equation).
    """
    s = mean.shape[1]
    free = np.ones((panel.n, s), dtype=bool) if restrictions is None else restrictions.free
    T, n = panel.values.shape
    counts = panel.counts
    empty = counts == 0
    gram = (panel.mask_float.T @ second_moment.reshape(T, s * s)).reshape(n, s, s)
    rhs = np.where(free, panel.zero_filled.T @ mean, 0.0)
    ssq = panel.sums_of_squares

    prec = _pad_restricted(gram + prior.loading_prec, free)
    chol = statespace.batched_cholesky(
        prec, lambda i: f"loading posterior, equation {i}"
    )
    chol_inv = np.linalg.inv(chol)
    root = _restrict_to_free(chol_inv.swapaxes(-1, -2), free)
    cov = _restrict_to_free(statespace.symmetrize(root @ chol_inv), free)
    mu = np.einsum("iab,ib->ia", cov, rhs)
    quad = np.einsum("ia,iab,ib->i", mu, prec, mu)

    noise_df = prior.noise_df + counts
    scale = (prior.noise_df * prior.noise_scale + ssq - quad) / noise_df
    bad = np.flatnonzero(~empty & (scale <= 0.0))
    if bad.size:
        raise NumericalError(
            f"nonpositive noise scale for equation {bad[0]}; state moments are "
            "inconsistent with the data"
        )
    if empty.any():
        prior_prec = _pad_restricted(prior.loading_prec, free[empty])
        cov[empty] = _restrict_to_free(
            statespace.symmetrize(np.linalg.inv(prior_prec)), free[empty]
        )
    posterior = LoadingsVariational(
        mean=np.where(free & ~empty[:, None], mu, 0.0),
        cov=cov,
        noise_df=noise_df,
        noise_scale=np.where(empty, prior.noise_scale, scale),
        free=free,
    )
    return posterior, root


def update_loadings(
    panel: TimeSeriesPanel,
    moments: StateMoments,
    prior: PriorSpec,
    restrictions: Restrictions | None = None,
) -> LoadingsVariational:
    """Loading/noise update: :func:`loading_posterior` on the smoothed moments."""
    posterior, _ = loading_posterior(
        panel, moments.mean[1:], moments.second_moment[1:], prior, restrictions
    )
    return posterior


def transition_posterior(
    gram: np.ndarray, cross: np.ndarray, prior: PriorSpec
) -> TransitionVariational:
    """Matrix-normal regression of the factors on the lagged state.

    ``gram`` is the sum over t of x_{t-1} x_{t-1}' and ``cross`` that of
    f_t x_{t-1}', with f_t the top r coordinates of the state x_t.
    """
    chol = statespace.chol_factor(gram + prior.trans_prec, context="transition update")
    cov = statespace.symmetrize(statespace.chol_inverse(chol))
    return TransitionVariational(mean=cross @ cov, cov=cov)


def update_transition(moments: StateMoments, prior: PriorSpec) -> TransitionVariational:
    """Conjugate matrix regression update of the transition block."""
    return transition_posterior(
        moments.second_moment[:-1].sum(axis=0), moments.lag_one.sum(axis=0), prior
    )


def update_states(
    panel: TimeSeriesPanel,
    loadings: LoadingsVariational,
    transition: TransitionVariational,
    prior: PriorSpec,
) -> tuple[StateMoments, SsmParams]:
    """Assemble the path precision under the current parameters and invert it.

    Returns the state moments together with the assembled system, whose
    data quadratic feeds the objective.
    """
    params = statespace.build_collapsed_system(
        panel,
        loadings.mean,
        loadings.cov,
        loadings.noise_prec,
        transition.mean,
        transition.cov,
        prior.init_state_cov,
    )
    moments = statespace.kalman_smoother(statespace.kalman_filter(params), params)
    return moments, params


def compute_elbo(
    panel: TimeSeriesPanel,
    loadings: LoadingsVariational,
    transition: TransitionVariational,
    moments: StateMoments,
    prior: PriorSpec,
    params: SsmParams,
    return_terms: bool = False,
):
    """Evidence lower bound for a consistent (parameters, state pass) pair.

    ``moments``/``params`` must come from :func:`update_states` under the
    same ``loadings``/``transition`` passed here.  Terms group into a state
    part (log|F0|, log|Q| and the data quadratic less b' Q^-1 b of the path
    precision), a loadings part and a
    transition part (negative Gaussian divergences from their priors, zero
    when variational equals prior), and a noise part (the scaled-inverse-
    chi-square bookkeeping).
    """
    counts = panel.counts
    s = loadings.mean.shape[1]
    r = transition.mean.shape[0]
    # The closed form substitutes the identity noise_df = prior df + count;
    # off-manifold inputs would silently evaluate the wrong quantity.
    if not np.allclose(loadings.noise_df, prior.noise_df + counts):
        raise DomainError(
            "loadings noise_df must equal prior noise_df plus the per-variable "
            "observation counts"
        )

    sign0, logdet_f0 = np.linalg.slogdet(prior.init_state_cov)
    f_terms = (
        -0.5 * counts.sum() * _LNPI
        - 0.5 * logdet_f0
        - 0.5 * moments.prec_logdet
        - 0.5 * (params.data_quad - moments.info_quad)
    )

    # Restricted entries are exact zeros, and identity padding leaves each
    # log-determinant that of the free block; the mean quadratic is scaled
    # by the expected noise precision (averaging over the noise variance).
    free, cov, mu = loadings.free, loadings.cov, loadings.mean
    v_inv = prior.loading_prec
    _, logdet_vinv = np.linalg.slogdet(_pad_restricted(v_inv, free))
    _, logdet_cov = np.linalg.slogdet(_pad_restricted(cov, free))
    lam_terms = float(
        np.sum(
            0.5 * free.sum(axis=1)
            - 0.5 * np.einsum("ab,iab->i", v_inv, cov)
            - 0.5 * np.einsum("ia,ab,ib->i", mu, v_inv, mu) / loadings.noise_scale
            + 0.5 * (logdet_vinv + logdet_cov)
        )
    )

    w_inv = prior.trans_prec
    sign_w, logdet_winv = np.linalg.slogdet(w_inv)
    sign_p, logdet_pcov = np.linalg.slogdet(transition.cov)
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

    elbo = f_terms + lam_terms + phi_terms + sigma_terms
    terms = {
        "state": f_terms,
        "loadings": lam_terms,
        "transition": phi_terms,
        "noise": sigma_terms,
    }
    if not np.isfinite(elbo):
        raise NumericalError(f"objective is not finite; term breakdown: {terms}")
    if return_terms:
        return elbo, terms
    return elbo


def init_from_pca(
    panel: TimeSeriesPanel,
    spec: ModelSpec,
    prior: PriorSpec,
    seed: int = 0,
    restrictions: Restrictions | None = None,
) -> VariationalState:
    """Starting parameters from principal components of the filled panel.

    Missing cells are filled with seeded standard-normal draws, the first r
    principal components (unit sample variance) and their lags form factor
    proxies, and the conjugate regressions on these proxies yield the
    initial loading, noise and transition parameters.
    """
    rng = np.random.default_rng(seed)
    T, n = panel.T, panel.n
    r, p, s = spec.r, spec.p, spec.s
    x = np.where(panel.mask, panel.values, rng.standard_normal((T, n)))
    x = x - x.mean(axis=0)
    u, sv, _ = np.linalg.svd(x, full_matrices=False)
    k = min(r, sv.size)
    scores = np.zeros((T, r))
    scores[:, :k] = u[:, :k] * sv[:k]
    weak = np.ones(r, dtype=bool)
    weak[:k] = sv[:k] < 1e-10 * max(float(sv[0]) if sv.size else 0.0, 1.0)
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
    return VariationalState(loadings=loadings, transition=transition)


def flip_factor_signs(
    state: VariationalState,
    moments: StateMoments | None,
    flips: np.ndarray,
) -> tuple[VariationalState, StateMoments | None]:
    """Apply a per-factor sign rotation to the variational state and moments.

    Sign flips leave second moments, covariances and the objective
    unchanged; only loading means, transition rows/columns and state means
    change sign patterns.
    """
    loadings, transition = state.loadings, state.transition
    r, s = transition.mean.shape
    signs = state_sign_vector(np.asarray(flips, dtype=bool), s)
    outer = signs[:, None] * signs
    new_state = VariationalState(
        loadings=replace(loadings, mean=loadings.mean * signs, cov=loadings.cov * outer),
        transition=TransitionVariational(
            mean=transition.mean * outer[:r], cov=transition.cov * outer
        ),
    )
    if moments is None:
        return new_state, None
    return new_state, replace(
        moments,
        mean=moments.mean * signs,
        cov=moments.cov * outer,
        second_moment=moments.second_moment * outer,
        lag_one=moments.lag_one * outer[:r],
    )


def align_identification_signs(
    state: VariationalState,
    moments: StateMoments | None,
    restrictions: Restrictions,
) -> tuple[VariationalState, StateMoments | None]:
    """Flip factors so every sign-restricted loading mean is positive."""
    r = state.transition.mean.shape[0]
    flips = np.zeros(r, dtype=bool)
    for var, coord in restrictions.positive:
        if state.loadings.mean[var, coord] < 0:
            flips[coord % r] = True
    if not flips.any():
        return state, moments
    return flip_factor_signs(state, moments, flips)


def fit_smf(
    panel: TimeSeriesPanel,
    spec: ModelSpec,
    prior: PriorSpec,
    init: VariationalState | None = None,
    tolerance: float = 1e-7,
    max_iters: int = 500,
    restrictions: Restrictions | None = None,
    seed: int = 0,
) -> tuple[VariationalState, StateMoments, FitReport]:
    """Coordinate-ascent fit of the structured mean-field approximation.

    Alternates the state pass with the parameter updates until the relative
    objective change (difference over the mean of absolute values) falls to
    the tolerance.  The trace holds the initial bound followed by one exact
    bound per iteration; a decrease beyond 1e-8 relative slack raises,
    since the updates guarantee ascent.

    Returns the final parameters, the state moments consistent with them,
    and a fit report.
    """
    if tolerance <= 0:
        raise DomainError("tolerance must be positive")
    if panel.T <= spec.p + 1:
        raise DomainError(f"need T > p + 1 = {spec.p + 1}, got T = {panel.T}")
    if panel.n < spec.r:
        warnings.warn("fewer series than factors; the model is weakly identified")

    start = time.perf_counter()
    state = init if init is not None else init_from_pca(
        panel, spec, prior, seed=seed, restrictions=restrictions
    )
    moments, params = update_states(panel, state.loadings, state.transition, prior)
    elbo = compute_elbo(
        panel, state.loadings, state.transition, moments, prior, params
    )
    trace = [elbo]
    converged = False
    criteria = np.inf
    iterations = 0
    for iterations in range(1, max_iters + 1):
        loadings = update_loadings(panel, moments, prior, restrictions)
        transition = update_transition(moments, prior)
        state = VariationalState(loadings=loadings, transition=transition)
        moments, params = update_states(panel, loadings, transition, prior)
        elbo_new = compute_elbo(
            panel, loadings, transition, moments, prior, params
        )
        if elbo_new < elbo - 1e-8 * abs(elbo):
            raise NumericalError(
                f"objective decreased at iteration {iterations}: "
                f"{elbo} -> {elbo_new}"
            )
        denom = max(0.5 * (abs(elbo_new) + abs(elbo)), np.finfo(float).tiny)
        criteria = (elbo_new - elbo) / denom
        trace.append(elbo_new)
        elbo = elbo_new
        if criteria <= tolerance:
            converged = True
            break

    if restrictions is not None and restrictions.positive:
        state, moments = align_identification_signs(state, moments, restrictions)

    report = FitReport(
        elbo_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
        final_criteria=float(criteria),
        wall_time=time.perf_counter() - start,
    )
    return state, moments, report


def state_to_dict(state: VariationalState) -> dict:
    """JSON-serializable view of all variational parameters."""
    return {
        "loading_mean": state.loadings.mean.tolist(),
        "loading_cov": state.loadings.cov.tolist(),
        "noise_df": state.loadings.noise_df.tolist(),
        "noise_scale": state.loadings.noise_scale.tolist(),
        "free": state.loadings.free.tolist(),
        "trans_mean": state.transition.mean.tolist(),
        "trans_cov": state.transition.cov.tolist(),
    }


def state_from_dict(obj: dict) -> VariationalState:
    return VariationalState(
        loadings=LoadingsVariational(
            mean=np.asarray(obj["loading_mean"], dtype=float),
            cov=np.asarray(obj["loading_cov"], dtype=float),
            noise_df=np.asarray(obj["noise_df"], dtype=float),
            noise_scale=np.asarray(obj["noise_scale"], dtype=float),
            free=np.asarray(obj["free"], dtype=bool),
        ),
        transition=TransitionVariational(
            mean=np.asarray(obj["trans_mean"], dtype=float),
            cov=np.asarray(obj["trans_cov"], dtype=float),
        ),
    )
