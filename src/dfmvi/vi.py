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
the Monte Carlo oracle alike.  Every kernel takes the run's one
``Restrictions`` (:func:`run_restrictions`), the only holder of the mask.

The fit ends by folding its factors onto the anchor loadings with the one
sign rule and action of :mod:`dfmvi.model` (``Restrictions.signs``,
``model.flip``), which the Gibbs chain's start and sweeps share.

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
from .model import ModelSpec, PriorSpec, Restrictions, check_sign_fold, flip
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
    variances.  The entries a run's :class:`Restrictions` hold at zero carry
    exact zeros in mean and cov.
    """

    mean: np.ndarray  # (n, s)
    cov: np.ndarray  # (n, s, s)
    noise_df: np.ndarray  # (n,)
    noise_scale: np.ndarray  # (n,)

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
    prior on one panel under one ``Restrictions``.

    Each is the leading part of the expression it serves, evaluated in that
    expression's order, so every result keeps the bits of the expression
    written out.  ``panel`` and ``restrictions`` are matched by identity.
    """

    panel: TimeSeriesPanel
    restrictions: Restrictions
    half_free: np.ndarray  # (n,) half the number of free coordinates per row
    logdet_vinv: np.ndarray  # (n,) log|V^-1| of each row's free block
    empty: np.ndarray  # (n,) equations without observations
    observed: np.ndarray  # (n,) the others
    empty_cov: np.ndarray  # (k, s, s) the prior covariance of the k empty rows
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


def _fit_constants(
    panel: TimeSeriesPanel, prior: PriorSpec, restrictions: Restrictions
) -> _FitConstants:
    """The prior's constants on this panel under these restrictions, built on
    the first call and kept on the prior for the last pair passed (compared
    by identity): a fit or a chain passes the same pair at every iteration."""
    kept = prior.__dict__.get("_fit_constants")
    if kept is None or kept.panel is not panel or kept.restrictions is not restrictions:
        from scipy.special import gammaln

        counts = panel.counts
        nu_0, tau_0 = prior.noise_df, prior.noise_scale
        empty = counts == 0
        noise_df = nu_0 + counts
        prior_ss = nu_0 * tau_0
        empty_cov = np.linalg.inv(restrictions.pad(prior.loading_prec, empty))
        kept = _FitConstants(
            panel=panel,
            restrictions=restrictions,
            half_free=0.5 * restrictions.free.sum(axis=1),
            logdet_vinv=np.linalg.slogdet(restrictions.pad(prior.loading_prec))[1],
            empty=empty,
            observed=~empty,
            empty_cov=restrictions.restrict(statespace.symmetrize(empty_cov), empty),
            noise_df=noise_df,
            noise_ss=prior_ss + panel.sums_of_squares,
            state_terms=-0.5 * counts.sum() * _LNPI - 0.5 * prior.init_state_logdet,
            noise_gammaln=gammaln(0.5 * noise_df) - gammaln(0.5 * nu_0),
            half_df=0.5 * noise_df,
            prior_noise_terms=0.5 * nu_0 * np.log(prior_ss),
            prior_ss=prior_ss,
        )
        # A frozen dataclass: keep beside its fields, as cached_property does.
        prior.__dict__["_fit_constants"] = kept
    return kept


def loading_posterior(
    panel: TimeSeriesPanel,
    mean: np.ndarray,
    second_moment: np.ndarray,
    prior: PriorSpec,
    restrictions: Restrictions,
) -> tuple[LoadingsVariational, np.ndarray]:
    """Conjugate regressions of all n equations on the states, batched.

    ``mean`` (T, s) and ``second_moment`` (T, s, s) are the state moments of
    times 1..T.  Zero restrictions enter as identity rows and columns with a
    zero right-hand side (the masks of ``restrictions``, with the constants
    :func:`_fit_constants` keeps for them); one batched Cholesky factor L,
    inverted by the smoother's substitution (:func:`statespace.lower_inverse`),
    solves every equation, and equations without observations take their
    prior exactly.  Returns the posterior (exact zeros on restricted entries)
    and roots R = L^-T, R R' = cov.

    Raises
    ------
    NumericalError
        If a precision is not positive definite after jitter or a noise
        scale is not positive (both name the first such equation).
    """
    s = mean.shape[1]
    T, n = panel.values.shape
    consts = _fit_constants(panel, prior, restrictions)
    gram = (panel.mask_float.T @ second_moment.reshape(T, s * s)).reshape(n, s, s)
    rhs = np.where(restrictions.free, panel.zero_filled.T @ mean, 0.0)

    prec = restrictions.pad(gram + prior.loading_prec)
    chol = statespace.chol_factor(prec, "loading posterior, equation")
    chol_inv = statespace.lower_inverse(chol)
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
    cov[empty] = consts.empty_cov
    posterior = LoadingsVariational(
        mean=np.where(restrictions.free & consts.observed[:, None], mu, 0.0),
        cov=cov,
        noise_df=consts.noise_df,
        noise_scale=np.where(empty, prior.noise_scale, scale),
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
    restrictions: Restrictions,
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
    chol = statespace.chol_factor(gram + prior.trans_prec, "transition update")
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
    restrictions: Restrictions,
    return_terms: bool = False,
):
    """Evidence lower bound for a consistent (parameters, state pass) pair.

    ``moments`` must come from :func:`update_states` under the same
    ``loadings``/``transition`` passed here, ``loadings`` must be zero off
    the free mask of ``restrictions`` and ``loadings.noise_df`` the prior's
    plus the panel's counts (:func:`run_restrictions` checks a start's).
    Terms group into a state part
    (log|F0|, log|Q| and b' Q^-1 b from the moments, and the data quadratic
    sum_ti mask_ti y_ti^2 / tau_i), a loadings part and a transition part
    (negative Gaussian divergences from their priors, zero when variational
    equals prior), and a noise part (the scaled-inverse-chi-square
    bookkeeping).
    """
    s = loadings.mean.shape[1]
    r = transition.mean.shape[0]
    # The closed form substitutes the identity noise_df = prior df + count.
    # The terms that depend on the prior and the panel alone are constants of
    # the fit, and each is the leading part of its expression.
    consts = _fit_constants(panel, prior, restrictions)

    data_quad = float(panel.sums_of_squares @ loadings.noise_prec)
    f_terms = (
        consts.state_terms
        - 0.5 * moments.prec_logdet
        - 0.5 * (data_quad - moments.info_quad)
    )

    # Restricted entries are exact zeros, and identity padding leaves each
    # log-determinant that of the free block; the mean quadratic is scaled
    # by the expected noise precision (averaging over the noise variance).
    # The prior's log-determinants are constants of the fit.
    cov, mu = loadings.cov, loadings.mean
    v_inv = prior.loading_prec
    _, logdet_cov = np.linalg.slogdet(restrictions.pad(cov))
    lam_terms = float(
        np.sum(
            consts.half_free
            - 0.5 * np.einsum("ab,iab->i", v_inv, cov)
            - 0.5 * np.einsum("ia,ab,ib->i", mu, v_inv, mu) / loadings.noise_scale
            + 0.5 * (consts.logdet_vinv + logdet_cov)
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


def _leading_eigenpairs(apply, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k <= m leading eigenpairs of the symmetric positive semidefinite
    m x m operator ``apply``, by Lanczos iteration.

    The Krylov basis starts from one fixed unit vector, a draw of a
    constant-seed generator (no caller's stream is touched), and each new
    vector is orthogonalized against the whole basis by two passes of
    classical Gram-Schmidt.  The Ritz pairs of the tridiagonal (alpha on the
    diagonal, beta off it) are checked every 4 steps, and the loop stops at
    the first of: the k leading Ritz pairs have residual bounds
    beta_j |s_ji| <= 1e-13 max(theta_1, 1); breakdown, beta_j at that level,
    when the Ritz pairs are exact and any eigenvalue not found is 0; or m
    basis vectors, when the tridiagonal is the whole operator in another
    basis and the result is exact.  So it takes at most m applications, and
    few when the spectrum has a wide gap after its k leading eigenvalues, as
    a factor panel's has.

    Returns the (k,) eigenvalues, largest first, and the (m, k) orthonormal
    eigenvectors; the pairs not found are zero.
    """
    basis = np.empty((m, m))
    tri = np.zeros((m, m))
    start = np.random.default_rng(0).standard_normal(m)
    basis[0] = start / np.sqrt(start @ start)
    top = 1.0  # max(alpha_1, ..., alpha_j, 1) <= max(theta_1, 1)
    for j in range(m):
        size = j + 1
        done = basis[:size]
        w = apply(basis[j])
        coef = done @ w
        w -= coef @ done
        w -= (done @ w) @ done
        tri[j, j] = coef[j]
        top = max(top, coef[j])
        beta = float(np.sqrt(w @ w))
        if size == m or beta <= 1e-13 * top or (size >= k and size % 4 == 0):
            theta, s = np.linalg.eigh(tri[:size, :size])
            tol = 1e-13 * max(float(theta[-1]), 1.0)
            if (
                size == m
                or beta <= tol
                or (size >= k and beta * np.abs(s[-1, -k:]).max() <= tol)
            ):
                break
        tri[j, j + 1] = tri[j + 1, j] = beta
        basis[j + 1] = w / beta
    found = min(k, size)
    lam, vec = np.zeros(k), np.zeros((m, k))
    lam[:found] = theta[::-1][:found]
    vec[:, :found] = done.T @ s[:, ::-1][:, :found]
    return lam, vec


def _leading_scores(x: np.ndarray, r: int) -> tuple[np.ndarray, np.ndarray]:
    """The r leading principal-component scores of the centred (T, n) panel
    ``x``, from the leading eigenpairs of its smaller Gram matrix.

    The eigenpairs come from :func:`_leading_eigenpairs`, Lanczos iteration
    on x'x when n <= T and on xx' when T < n, applied through x without
    forming the Gram; it stops once the min(r, T, n) leading Ritz pairs
    reach residual 1e-13 max(lambda_1, 1), and after min(T, n) steps at most.
    Scores are x v for the eigenvectors v of x'x, and the eigenvectors of
    xx' themselves: each is a left singular vector of x, to scale and sign.
    Each is signed so that the panel's summed covariance with it is
    nonnegative, so the result does not depend on the sign the iteration
    returns.  Returns the (T, r) scores and an (r,) mask of the components
    the Gram cannot resolve: those whose eigenvalue lambda_j is below
    1e-10 max(lambda_1, 1), far above its rounding floor, and the zero
    columns beyond min(T, n).
    """
    T, n = x.shape
    k = min(r, T, n)
    if n <= T:
        lam, vec = _leading_eigenpairs(lambda v: x.T @ (x @ v), n, k)
    else:
        lam, vec = _leading_eigenpairs(lambda v: x @ (x.T @ v), T, k)
    scores = np.zeros((T, r))
    scores[:, :k] = x @ vec if n <= T else vec
    weak = np.ones(r, dtype=bool)
    weak[:k] = lam < 1e-10 * max(float(lam[0]), 1.0)
    return np.where((x.T @ scores).sum(axis=0) < 0.0, -scores, scores), weak


def init_from_pca(
    panel: TimeSeriesPanel,
    spec: ModelSpec,
    prior: PriorSpec,
    restrictions: Restrictions,
    seed: int = 0,
) -> VariationalState:
    """Starting parameters from principal components of the filled panel.

    Missing cells are filled with seeded standard-normal draws, the first r
    principal components (unit sample variance) and their lags form factor
    proxies, and the conjugate regressions on these proxies under
    ``restrictions`` yield the initial loading, noise and transition parameters.

    The components are the leading eigenpairs of the smaller of x'x and xx'
    (:func:`_leading_scores`), found by Lanczos iteration that stops once
    they reach residual 1e-13 max(lambda_1, 1): after min(T, n) steps at
    most, and after a few when the panel has a factor structure.  Its fixed
    start vector draws nothing from the seeded stream below.  Each component
    is signed so that the panel's summed covariance with it is nonnegative:
    the start, and with it the sign of every unanchored fit and chain, is a
    function of the data and the seed alone.  A component whose eigenvalue
    is below 1e-10 max(lambda_1, 1), a level the Gram resolves, and each of
    the r beyond min(T, n), is replaced by seeded noise with a deficient-rank
    warning.
    """
    rng = np.random.default_rng(seed)
    T, n = panel.T, panel.n
    r, s = spec.r, spec.s
    x = np.where(panel.mask, panel.values, rng.standard_normal((T, n)))
    x = x - x.mean(axis=0)
    scores, weak = _leading_scores(x, r)
    if weak.any():
        warnings.warn("panel has deficient rank; padding factor proxies with noise")
        scores[:, weak] = rng.standard_normal((T, int(weak.sum())))
    scores = scores / scores.std(axis=0, ddof=1)

    # The proxies laid out as a factor path, zero before t = 1: its states
    # x_0..x_T carry the lags.
    path = np.concatenate([scores[::-1].ravel(), np.zeros(s)])
    factors = statespace.path_states(path, r, s).copy()
    outer = factors[:, :, None] * factors[:, None, :]
    loadings, _ = loading_posterior(panel, factors[1:], outer[1:], prior, restrictions)
    transition = transition_posterior(
        outer[:-1].sum(axis=0),
        (factors[1:, :r, None] * factors[:-1, None, :]).sum(axis=0),
        prior,
    )
    return VariationalState(loadings=loadings, transition=transition)


def flip_factor_signs(
    state: VariationalState, moments: StateMoments, signs, restrictions: Restrictions
) -> tuple[VariationalState, StateMoments]:
    """The variational state and its moments with the factors flipped by the
    (s,) ``signs`` of :meth:`Restrictions.signs`, through :func:`model.flip`.

    Sign flips leave second moments, covariances and the objective unchanged;
    only loading means, transition rows/columns and state means change sign
    patterns.  Exact zeros in the loadings stay +0.0: the restricted entries,
    and the free ones of a series with no observations, which keep the
    prior's zeros.
    """
    loadings, transition = state.loadings, state.transition
    r, s = transition.mean.shape
    new_state = VariationalState(
        loadings=replace(
            loadings,
            mean=flip(signs, loadings.mean, free=restrictions.free),
            cov=flip(signs, loadings.cov, s, restrictions.free_pairs),
        ),
        transition=TransitionVariational(
            mean=flip(signs, transition.mean, r), cov=flip(signs, transition.cov, s)
        ),
    )
    return new_state, replace(
        moments,
        mean=flip(signs, moments.mean),
        cov=flip(signs, moments.cov, s),
        second_moment=flip(signs, moments.second_moment, s),
        lag_one=flip(signs, moments.lag_one, r),
    )


def run_restrictions(
    panel: TimeSeriesPanel, spec: ModelSpec, prior: PriorSpec, restrictions, init=None
) -> Restrictions:
    """The restrictions a fit or a chain runs under, built once if None (no
    restrictions): the one check of the inputs against ``spec``.

    DomainError, naming the input and both sizes, if the panel, the prior, the
    restrictions' mask or any array of the start ``init`` do not fit ``spec``;
    DomainError too if the panel is too short for the loading lags, the sign
    fold would not be exact (:func:`check_sign_fold`), or ``init`` has a
    loading mean or covariance entry that is nonzero outside the restrictions'
    free mask (naming the rows) or a ``noise_df`` other than the prior's plus
    the panel's counts, as the objective assumes.  Warns if there are fewer
    series than factors.
    """
    if restrictions is None:
        restrictions = identification_restrictions(spec, [])
    n, r, s = spec.n, spec.r, spec.s
    starts = () if init is None else (
        ("init loadings' mean shape", init.loadings.mean.shape, (n, s)),
        ("init loadings' covariance shape", init.loadings.cov.shape, (n, s, s)),
        ("init loadings' noise_df shape", init.loadings.noise_df.shape, (n,)),
        ("init loadings' noise_scale shape", init.loadings.noise_scale.shape, (n,)),
        ("init transition mean shape", init.transition.mean.shape, (r, s)),
        ("init transition covariance shape", init.transition.cov.shape, (s, s)),
    )
    for name, got, want in (
        ("panel width", (panel.n,), (n,)),
        ("prior matrix shape", prior.loading_prec.shape, (s, s)),
        ("prior vector length", prior.noise_df.shape, (n,)),
        ("restrictions' free mask shape", restrictions.free.shape, (n, s)),
        *starts,
    ):
        if got != want:
            got, want = (" x ".join(map(str, dims)) for dims in (got, want))
            raise DomainError(f"{name} is {got} but the spec needs {want}")
    if panel.T <= spec.p + 1:
        raise DomainError(f"need T > p + 1 = {spec.p + 1}, got T = {panel.T}")
    check_sign_fold(prior, restrictions, r)
    if init is not None:
        # The objective takes restricted loadings to be exact zeros.
        for name, value, free in (
            ("mean", init.loadings.mean, restrictions.free),
            ("covariance", init.loadings.cov, restrictions.free_pairs),
        ):
            rows = np.flatnonzero(((value != 0.0) & ~free).reshape(n, -1).any(axis=1))
            if rows.size:
                raise DomainError(
                    f"init loadings' {name} is nonzero outside the restrictions' "
                    f"free mask in rows {rows.tolist()}"
                )
        if not np.array_equal(init.loadings.noise_df, prior.noise_df + panel.counts):
            raise DomainError(
                "init loadings' noise_df must equal the prior's noise_df plus the "
                "panel's per-variable observation counts"
            )
    if panel.n < r:
        warnings.warn("fewer series than factors; the model is weakly identified")
    return restrictions


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
    and a fit report.  Every input but ``tolerance`` and ``max_iters``, a
    starting state ``init`` too, is checked (and ``restrictions`` defaulted)
    by :func:`run_restrictions`, as in :func:`dfmvi.gibbs.run_gibbs`.  The
    fit ends by flipping the factors :meth:`Restrictions.signs` marks.
    """
    if not tolerance > 0:  # also false for NaN
        raise DomainError(f"tolerance must be positive, got {tolerance!r}")
    if max_iters < 1:
        raise DomainError(f"max_iters must be at least 1, got {max_iters!r}")
    restrictions = run_restrictions(panel, spec, prior, restrictions, init)

    start = time.perf_counter()
    state = init if init is not None else init_from_pca(
        panel, spec, prior, restrictions, seed=seed
    )
    moments = update_states(panel, state.loadings, state.transition, prior)
    elbo = compute_elbo(
        panel, state.loadings, state.transition, moments, prior, restrictions
    )
    trace = [elbo]
    converged = False
    for iterations in range(1, max_iters + 1):
        loadings = update_loadings(panel, moments, prior, restrictions)
        transition = update_transition(moments, prior)
        state = VariationalState(loadings=loadings, transition=transition)
        moments = update_states(panel, loadings, transition, prior)
        elbo_new = compute_elbo(
            panel, loadings, transition, moments, prior, restrictions
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

    signs = restrictions.signs(state.loadings.mean, spec.r)
    if signs is not None:
        state, moments = flip_factor_signs(state, moments, signs, restrictions)

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
        ),
        transition=TransitionVariational(
            mean=np.asarray(obj["trans_mean"], dtype=float),
            cov=np.asarray(obj["trans_cov"], dtype=float),
        ),
    )
