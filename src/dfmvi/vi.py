"""Variational parameter updates, objective evaluation and the fit driver.

The approximating family factorizes the latent states away from the static
parameters, which in turn splits the parameter block into per-equation
Gaussian/scaled-inverse-chi-square loadings-noise pairs and one
matrix-normal transition block.  Each update is the conjugate Bayesian
regression with sufficient statistics replaced by smoothed state moments;
all n loading regressions run as one batched kernel,
:func:`loading_posterior`, which the Gibbs parameter draw shares.  The
unconditional parameter draws, :func:`draw_loadings` and
:func:`draw_transition`, serve the Gibbs sweep, the predictive draws and
the Monte Carlo oracle alike.

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

from . import statespace
from .errors import DomainError, NumericalError
from .model import ModelSpec, PriorSpec, Restrictions, check_sign_fold, factor_signs
from .model import identification_restrictions
from .panel import TimeSeriesPanel
from .statespace import StateMoments

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
    wall_time: float


@dataclass(frozen=True)
class _FitConstants:
    """Read-only constants of the loadings update and the objective for one
    prior on one panel.

    Each is the leading part of the expression it serves, evaluated in that
    expression's order, so every result keeps the bits of the expression
    written out.  ``panel`` is held so that no other panel matches it.
    """

    panel: TimeSeriesPanel
    empty: np.ndarray  # (n,) equations without observations
    observed: np.ndarray  # (n,) the others
    any_empty: bool
    noise_df: np.ndarray  # nu_0 + counts, the posterior degrees of freedom
    noise_ss: np.ndarray  # nu_0 tau_0 + sum_t y_ti^2
    state_terms: float  # -1/2 sum counts log pi - 1/2 log|F0|
    noise_gammaln: np.ndarray  # gammaln(nu_q / 2) - gammaln(nu_0 / 2)
    half_df: np.ndarray  # nu_q / 2
    prior_noise_terms: np.ndarray  # nu_0 / 2 log(nu_0 tau_0)
    prior_ss: np.ndarray  # nu_0 tau_0

    def __post_init__(self):
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False


def _fit_constants(panel: TimeSeriesPanel, prior: PriorSpec) -> _FitConstants:
    """The prior's constants on this panel, built on the first call and kept
    on the prior for the last panel passed: a fit or a chain passes the same
    panel at every iteration."""
    kept = prior.__dict__.get("_fit_constants")
    if kept is None or kept.panel is not panel:
        from scipy.special import gammaln

        counts = panel.counts
        nu_0, tau_0 = prior.noise_df, prior.noise_scale
        empty = counts == 0
        noise_df = nu_0 + counts
        prior_ss = nu_0 * tau_0
        kept = _FitConstants(
            panel=panel,
            empty=empty,
            observed=~empty,
            any_empty=bool(empty.any()),
            noise_df=noise_df,
            noise_ss=prior_ss + panel.sums_of_squares,
            state_terms=-0.5 * counts.sum() * _LNPI - 0.5 * prior.init_state_logdet,
            noise_gammaln=gammaln(0.5 * noise_df) - gammaln(0.5 * nu_0),
            half_df=0.5 * noise_df,
            prior_noise_terms=0.5 * nu_0 * np.log(prior_ss),
            prior_ss=prior_ss,
        )
        # A frozen dataclass: keep beside its fields, as PriorSpec.free_blocks does.
        prior.__dict__["_fit_constants"] = kept
    return kept


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
    zero right-hand side (the masks cached on ``restrictions``; None leaves
    every loading free); one batched Cholesky solves every equation, and
    equations without observations take their prior exactly.  Returns the
    posterior (exact zeros on restricted entries) and roots R R' = cov.

    Raises
    ------
    NumericalError
        If a precision is not positive definite after jitter or a noise
        scale is not positive (both name the first such equation).
    """
    s = mean.shape[1]
    if restrictions is None:
        restrictions = Restrictions(np.ones((panel.n, s), dtype=bool), ())
    free = restrictions.free
    T, n = panel.values.shape
    consts = _fit_constants(panel, prior)
    gram = (panel.mask_float.T @ second_moment.reshape(T, s * s)).reshape(n, s, s)
    rhs = np.where(free, panel.zero_filled.T @ mean, 0.0)

    prec = restrictions.pad(gram + prior.loading_prec)
    chol = statespace.batched_cholesky(
        prec, lambda i: f"loading posterior, equation {i}"
    )
    chol_inv = np.linalg.inv(chol)
    root = restrictions.restrict(chol_inv.swapaxes(-1, -2))
    cov = restrictions.restrict(statespace.symmetrize(root @ chol_inv))
    mu = np.einsum("iab,ib->ia", cov, rhs)
    quad = np.einsum("ia,iab,ib->i", mu, prec, mu)

    scale = (consts.noise_ss - quad) / consts.noise_df
    bad = np.flatnonzero(consts.observed & (scale <= 0.0))
    if bad.size:
        raise NumericalError(
            f"nonpositive noise scale for equation {bad[0]}; state moments are "
            "inconsistent with the data"
        )
    empty = consts.empty
    if consts.any_empty:
        prior_prec = restrictions.pad(prior.loading_prec, empty)
        cov[empty] = restrictions.restrict(
            statespace.symmetrize(np.linalg.inv(prior_prec)), empty
        )
    posterior = LoadingsVariational(
        mean=np.where(free & consts.observed[:, None], mu, 0.0),
        cov=cov,
        noise_df=consts.noise_df,
        noise_scale=np.where(empty, prior.noise_scale, scale),
        free=free,
    )
    return posterior, root


def draw_loadings(mean, root, noise_df, noise_scale, rng, lead=()):
    """Joint (noise variance, loading row) draws of every equation.

    sigma2 = df scale / chi2(df) and lambda = mean + sqrt(sigma2) R z, with
    R R' the loading covariance and z standard normal; restricted entries
    stay exact zeros when R is zero there.  ``lead`` prepends independent
    draw axes.  Returns (sigma2 (lead + (n,)), lambda (lead + (n, s))).
    """
    shape = tuple(lead) + noise_df.shape
    sigma2 = noise_df * noise_scale / rng.chisquare(noise_df, size=shape)
    z = rng.standard_normal(shape + mean.shape[-1:])
    shock = np.einsum("iab,...ib->...ia", root, z)
    return sigma2, mean + np.sqrt(sigma2)[..., None] * shock


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


def draw_transition(transition: TransitionVariational, rng, lead=()) -> np.ndarray:
    """Matrix-normal transition draws, lead + (r, s)."""
    z = rng.standard_normal(tuple(lead) + transition.mean.shape)
    return transition.mean + z @ np.linalg.cholesky(transition.cov).T


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
) -> StateMoments:
    """Assemble the path precision under the current parameters and invert it.

    Returns the state moments, which carry log|Q| and b' Q^-1 b for the
    objective.
    """
    params = statespace.build_collapsed_system(
        panel,
        loadings.mean,
        loadings.cov,
        loadings.noise_prec,
        transition.mean,
        transition.cov,
        prior.init_state_prec,
    )
    return statespace.kalman_smoother(*statespace.kalman_filter(params), params)


def compute_elbo(
    panel: TimeSeriesPanel,
    loadings: LoadingsVariational,
    transition: TransitionVariational,
    moments: StateMoments,
    prior: PriorSpec,
    return_terms: bool = False,
):
    """Evidence lower bound for a consistent (parameters, state pass) pair.

    ``moments`` must come from :func:`update_states` under the same
    ``loadings``/``transition`` passed here.  Terms group into a state part
    (log|F0|, log|Q| and b' Q^-1 b from the moments, and the data quadratic
    sum_ti mask_ti y_ti^2 / tau_i), a loadings part and a transition part
    (negative Gaussian divergences from their priors, zero when variational
    equals prior), and a noise part (the scaled-inverse-chi-square
    bookkeeping).
    """
    s = loadings.mean.shape[1]
    r = transition.mean.shape[0]
    # The closed form substitutes the identity noise_df = prior df + count;
    # off-manifold inputs would silently evaluate the wrong quantity.  The
    # terms that depend on the prior and the panel alone are constants of the
    # fit, and each is the leading part of its expression.
    consts = _fit_constants(panel, prior)
    if not np.array_equal(loadings.noise_df, consts.noise_df):
        raise DomainError(
            "loadings noise_df must equal prior noise_df plus the per-variable "
            "observation counts"
        )

    data_quad = float(panel.sums_of_squares @ loadings.noise_prec)
    f_terms = (
        consts.state_terms
        - 0.5 * moments.prec_logdet
        - 0.5 * (data_quad - moments.info_quad)
    )

    # Restricted entries are exact zeros, and identity padding leaves each
    # log-determinant that of the free block; the mean quadratic is scaled
    # by the expected noise precision (averaging over the noise variance).
    # The masks and the prior's log-determinants are constants of the fit.
    free, cov, mu = loadings.free, loadings.cov, loadings.mean
    v_inv = prior.loading_prec
    masks, logdet_vinv = prior.free_blocks(free)
    _, logdet_cov = np.linalg.slogdet(masks.pad(cov))
    lam_terms = float(
        np.sum(
            masks.half_free
            - 0.5 * np.einsum("ab,iab->i", v_inv, cov)
            - 0.5 * np.einsum("ia,ab,ib->i", mu, v_inv, mu) / loadings.noise_scale
            + 0.5 * (logdet_vinv + logdet_cov)
        )
    )

    w_inv = prior.trans_prec
    _, logdet_pcov = np.linalg.slogdet(transition.cov)
    phi_terms = (
        0.5 * r * s
        - 0.5 * r * float(np.sum(w_inv * transition.cov))
        - 0.5 * float(np.sum((transition.mean @ w_inv) * transition.mean))
        + 0.5 * r * (prior.trans_prec_logdet + logdet_pcov)
    )

    ss_q, tau_q = loadings.noise_df * loadings.noise_scale, loadings.noise_scale
    sigma_terms = float(
        np.sum(
            consts.noise_gammaln
            - consts.half_df * np.log(ss_q)
            + consts.prior_noise_terms
            + 0.5 * (ss_q - consts.prior_ss) / tau_q
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

    Flipping factor k negates its state coordinates at every lag.  Sign
    flips leave second moments, covariances and the objective unchanged;
    only loading means, transition rows/columns and state means change
    sign patterns.  Restricted loading entries stay exact +0.0.
    """
    loadings, transition = state.loadings, state.transition
    r, s = transition.mean.shape
    signs = factor_signs(flips, s)
    outer = signs[:, None] * signs
    # where(), not a bare product: a restricted 0.0 times -1 is -0.0.
    masks = Restrictions(loadings.free, ())
    new_state = VariationalState(
        loadings=replace(
            loadings,
            mean=np.where(masks.free, loadings.mean * signs, 0.0),
            cov=masks.restrict(loadings.cov * outer),
        ),
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
    and a fit report.  A starting state ``init`` must carry the free
    loading mask of ``restrictions``, and anchored restrictions must pass
    :func:`dfmvi.model.check_sign_fold` with the prior, since the fit ends
    by flipping factors onto their anchors (DomainError otherwise).
    """
    if not tolerance > 0:  # also false for NaN
        raise DomainError(f"tolerance must be positive, got {tolerance!r}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters!r}")
    if panel.T <= spec.p + 1:
        raise DomainError(f"need T > p + 1 = {spec.p + 1}, got T = {panel.T}")
    if panel.n < spec.r:
        warnings.warn("fewer series than factors; the model is weakly identified")

    start = time.perf_counter()
    if restrictions is None:  # once, so every iteration reads the same masks
        restrictions = identification_restrictions(spec, [])
    if restrictions.positive:
        check_sign_fold(prior, restrictions, spec.r)
    if init is not None and not np.array_equal(init.loadings.free, restrictions.free):
        # The first objective would be taken under init's mask and every
        # later one under the restrictions', so the ascent would not hold.
        rows = np.flatnonzero(np.any(init.loadings.free != restrictions.free, axis=1))
        raise DomainError(
            "init loadings' free mask differs from the restrictions' in rows "
            f"{rows.tolist()}: init {init.loadings.free[rows].tolist()}, "
            f"restrictions {restrictions.free[rows].tolist()}"
        )
    state = init if init is not None else init_from_pca(
        panel, spec, prior, seed=seed, restrictions=restrictions
    )
    moments = update_states(panel, state.loadings, state.transition, prior)
    elbo = compute_elbo(panel, state.loadings, state.transition, moments, prior)
    trace = [elbo]
    converged = False
    for iterations in range(1, max_iters + 1):
        loadings = update_loadings(panel, moments, prior, restrictions)
        transition = update_transition(moments, prior)
        state = VariationalState(loadings=loadings, transition=transition)
        moments = update_states(panel, loadings, transition, prior)
        elbo_new = compute_elbo(panel, loadings, transition, moments, prior)
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

    if restrictions.positive:
        state, moments = align_identification_signs(state, moments, restrictions)

    report = FitReport(
        elbo_trace=np.asarray(trace),
        iterations=iterations,
        converged=converged,
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
