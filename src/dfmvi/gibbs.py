"""Gibbs-sampling benchmark: exact posterior draws for comparison runs.

One sweep draws the full state path given the parameters (forward filter,
backward sampling; for s > 1 on the shared kernel of ``statespace``) and
then the parameters given the states (the batched conjugate regressions of
``vi.loading_posterior`` and a matrix-normal transition draw).  Missing
data enter only through the availability mask; identification is enforced
by zero restrictions and sign rejection on anchor loadings.

Draw storage is columnar: arrays ``lambda`` (D, n, s), ``sigma2`` (D, n),
``phi`` (D, r, s) and ``states`` (D, T+1, s) in draw order, serialized
together in one ``.npz`` archive with the seed and bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr, stdtrit

from . import vi
from .errors import DomainError
from .model import ModelSpec, PriorSpec, Restrictions, identification_restrictions
from .panel import TimeSeriesPanel
from .statespace import (
    backward_conditionals,
    batched_cholesky,
    chol_factor,
    companion,
    information_filter,
    state_noise_cov,
)


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler run configuration.

    ``identification`` lists (variable, factor) anchors; each zeroes the
    variable's other loadings and restricts the anchored one positive.
    """

    n_draws: int = 200_000
    burn_in_fraction: float = 0.10
    seed: int = 0
    identification: tuple[tuple[int, int], ...] = ()
    thin: int = 1

    def __post_init__(self):
        if not (0.0 <= self.burn_in_fraction < 1.0):
            raise DomainError("burn_in_fraction must be in [0, 1)")
        if self.n_draws <= self.burn_in():
            raise DomainError("n_draws must exceed the burn-in count")
        if self.thin < 1:
            raise DomainError("thin must be >= 1")

    def burn_in(self) -> int:
        return int(math.floor(self.n_draws * self.burn_in_fraction))


@dataclass(frozen=True)
class DrawStore:
    """Post-burn-in (optionally thinned) draws from one chain."""

    lambdas: np.ndarray  # (D, n, s)
    sigma2: np.ndarray  # (D, n)
    phi: np.ndarray  # (D, r, s)
    states: np.ndarray  # (D, T+1, s)
    seed: int
    thin: int
    burn_in: int
    rejections: int

    @property
    def n_draws(self) -> int:
        return self.lambdas.shape[0]


def save_draws(store: DrawStore, path) -> None:
    np.savez(
        path,
        lambdas=store.lambdas,
        sigma2=store.sigma2,
        phi=store.phi,
        states=store.states,
        seed=np.asarray(store.seed),
        thin=np.asarray(store.thin),
        burn_in=np.asarray(store.burn_in),
        rejections=np.asarray(store.rejections),
    )


def load_draws(path) -> DrawStore:
    with np.load(path) as data:
        return DrawStore(
            lambdas=data["lambdas"],
            sigma2=data["sigma2"],
            phi=data["phi"],
            states=data["states"],
            seed=int(data["seed"]),
            thin=int(data["thin"]),
            burn_in=int(data["burn_in"]),
            rejections=int(data["rejections"]),
        )


def _filter_fixed_theta(values, mask, lambdas, sigma2, phi, init_cov):
    """Forward filter of the plain model at one parameter draw.

    The data at time t enter in information form, with precision
    Lambda' A_t Sigma^-1 Lambda and information Lambda' A_t Sigma^-1 y_t, so
    every step costs s x s whatever the number of series observed and a
    step without data is a pure prediction.  Returns the filtered means
    (T+1, s) and covariances (T+1, s, s), index 0 being the origin state,
    and the one-step predicted covariances (T, s, s).
    """
    T = values.shape[0]
    r, s = phi.shape
    maskf = mask.astype(float)
    filled = np.where(mask, values, 0.0)
    w = 1.0 / sigma2
    weighted_outer = (lambdas[:, :, None] * lambdas[:, None, :]) * w[:, None, None]
    obs_prec = np.einsum("ti,iab->tab", maskf, weighted_outer)
    obs_rhs = (maskf * filled * w) @ lambdas

    if s == 1:
        # Scalar recursion; avoids per-step linear algebra overhead.
        filt_mean = np.zeros((T + 1, 1))
        filt_cov = np.zeros((T + 1, 1, 1))
        filt_cov[0] = init_cov
        ph = float(phi[0, 0])
        m, pv = 0.0, float(init_cov[0, 0])
        op = obs_prec[:, 0, 0]
        ob = obs_rhs[:, 0]
        for t in range(1, T + 1):
            a = ph * m
            pp = ph * ph * pv + 1.0
            post_prec = 1.0 / pp + op[t - 1]
            pv = 1.0 / post_prec
            m = pv * (a / pp + ob[t - 1])
            filt_mean[t, 0] = m
            filt_cov[t, 0, 0] = pv
        return filt_mean, filt_cov, ph * ph * filt_cov[:-1] + 1.0

    filt_mean, filt_cov, _, pred_cov = information_filter(
        companion(phi), state_noise_cov(r, s), init_cov, obs_prec, obs_rhs
    )
    return filt_mean, filt_cov, pred_cov


def backward_sample_paths(
    filt_mean: np.ndarray,
    filt_cov: np.ndarray,
    pred_cov: np.ndarray,
    trans: np.ndarray,
    r: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """One joint state-path draw from the filtered moments.

    Works backward, conditioning each state on its drawn successor, whose
    last s - r coordinates it copies; only its last r (the oldest lag) are
    drawn, through the batched Cholesky roots of their conditional
    covariances, so the draw is a continuous function of its inputs.
    """
    T = filt_mean.shape[0] - 1
    s = trans.shape[0]
    lag = s - r
    gains, offsets, covs = backward_conditionals(trans, filt_mean, filt_cov, pred_cov)
    roots = batched_cholesky(
        covs[:, lag:, lag:], lambda t: f"backward state draw at time step {t}"
    )
    last_root = chol_factor(filt_cov[T], context=f"state draw at time step {T}")
    path = np.empty((T + 1, s))
    path[T] = filt_mean[T] + last_root @ rng.standard_normal(s)
    shocks = np.einsum("tab,tb->ta", roots, rng.standard_normal((T, r)))
    offsets, gains = offsets[:, lag:], gains[:, lag:]
    for t in range(T - 1, -1, -1):
        path[t, :lag] = path[t + 1, r:]
        path[t, lag:] = offsets[t] + gains[t] @ path[t + 1] + shocks[t]
    return path


def sample_states_ffbs(
    panel: TimeSeriesPanel,
    lambdas: np.ndarray,
    sigma2: np.ndarray,
    phi: np.ndarray,
    prior: PriorSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """One exact joint draw of the state path given a parameter draw.

    With no available data the draw comes from the prior state process.
    Returns a (T+1, s) path including the origin state.
    """
    filt_mean, filt_cov, pred_cov = _filter_fixed_theta(
        panel.values, panel.mask, lambdas, sigma2, phi, prior.init_state_cov
    )
    r, s = phi.shape
    if s == 1:
        T = panel.T
        ph = float(phi[0, 0])
        z = rng.standard_normal(T + 1)
        path = np.empty(T + 1)
        m = filt_mean[:, 0]
        pv = filt_cov[:, 0, 0]
        pp = pred_cov[:, 0, 0]
        path[T] = m[T] + math.sqrt(pv[T]) * z[T]
        for t in range(T - 1, -1, -1):
            gain = pv[t] * ph / pp[t]
            mean_c = m[t] + gain * (path[t + 1] - ph * m[t])
            var_c = pv[t] - gain * ph * pv[t]
            path[t] = mean_c + math.sqrt(max(var_c, 0.0)) * z[t]
        return path[:, None]
    return backward_sample_paths(filt_mean, filt_cov, pred_cov, companion(phi), r, rng)


def _draw_sign_truncated(post, rejected, rng, max_rejects):
    """Exact (noise variance, loading row) draws of anchors cut at zero.

    For each (equation, coordinate) pair in ``rejected``, the anchor's sole
    free loading is mu + sqrt(scale cov) times a Student t with the
    posterior degrees of freedom; it is drawn by inversion on its positive
    side, then the noise variance given it, scaled inverse chi-square with
    one more degree of freedom.  Raises DomainError for a row with other
    free loadings or a positive side without representable mass.
    """
    rows, coord = rejected.T
    mu, var = post.mean[rows, coord], post.cov[rows, coord, coord]
    df, scale = post.noise_df[rows], post.noise_scale[rows]
    alone = post.free[rows, coord] & (post.free[rows].sum(axis=1) == 1)
    width = np.where(alone, np.sqrt(scale * var), 1.0)
    mass = np.where(alone, stdtr(df, mu / width), 0.0)
    if np.any(mass == 0.0):
        raise DomainError(
            f"sign restriction on variable {rows[np.argmax(mass == 0.0)]} rejected "
            f"{max_rejects} draws; choose a different identifying variable"
        )
    lam_c = mu - width * stdtrit(df, mass * (1.0 - rng.random(rows.size)))
    sigma2 = (df * scale + (lam_c - mu) ** 2 / var) / rng.chisquare(df + 1)
    lam = np.zeros((rows.size, post.mean.shape[1]))
    lam[np.arange(rows.size), coord] = lam_c
    return sigma2, lam


def sample_parameters(
    panel: TimeSeriesPanel,
    states: np.ndarray,
    spec: ModelSpec,
    prior: PriorSpec,
    restrictions: Restrictions | None,
    rng: np.random.Generator,
    max_rejects: int = 1000,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Conjugate parameter draws given a state path.

    All loading/noise pairs are drawn at once from the conditionals of
    :func:`vi.loading_posterior` on the path.  Equations whose sign
    restriction rejects are redrawn together; one still rejected after
    ``max_rejects`` draws is drawn exactly from its sign-truncated
    conditional, so a chain whose anchor loading drifts to zero does not
    stall.  The transition block is one matrix-normal draw.

    Returns (loadings, noise variances, transition, rejection count).
    """
    r, s = spec.r, spec.s
    f = states[1:]
    post, root = vi.loading_posterior(
        panel, f, f[:, :, None] * f[:, None, :], prior, restrictions
    )

    def draw(rows):
        sig = post.noise_df[rows] * post.noise_scale[rows] / rng.chisquare(
            post.noise_df[rows]
        )
        shock = np.einsum("iab,ib->ia", root[rows], rng.standard_normal((rows.size, s)))
        return sig, post.mean[rows] + np.sqrt(sig)[:, None] * shock

    sigma2, lambdas = draw(np.arange(panel.n))
    anchors = {} if restrictions is None else dict(restrictions.positive)
    positive = np.array(list(anchors.items()), dtype=int).reshape(-1, 2)
    rejected = positive[lambdas[positive[:, 0], positive[:, 1]] <= 0]
    rejections = 0
    for _ in range(max_rejects - 1):
        if not rejected.size:
            break
        rows = rejected[:, 0]
        rejections += rows.size
        sigma2[rows], lambdas[rows] = draw(rows)
        rejected = rejected[lambdas[rows, rejected[:, 1]] <= 0]
    if rejected.size:
        rows = rejected[:, 0]
        rejections += rows.size
        sigma2[rows], lambdas[rows] = _draw_sign_truncated(
            post, rejected, rng, max_rejects
        )

    fprev = states[:-1]
    trans = vi.transition_posterior(fprev.T @ fprev, f[:, :r].T @ fprev, prior)
    phi = trans.mean + rng.standard_normal((r, s)) @ np.linalg.cholesky(trans.cov).T
    return lambdas, sigma2, phi, rejections


def run_gibbs(
    panel: TimeSeriesPanel,
    spec: ModelSpec,
    prior: PriorSpec,
    config: GibbsConfig,
    init: vi.VariationalState | None = None,
) -> DrawStore:
    """Run one chain: alternate state and parameter draws, keep the tail.

    The chain starts from the principal-component regression initializer
    (sign-aligned to the anchors) and is fully determined by the seed.
    Explosive transition draws are retained, not rejected.
    """
    rng = np.random.default_rng(config.seed)
    restrictions = (
        identification_restrictions(spec, list(config.identification))
        if config.identification
        else None
    )
    start = init if init is not None else vi.init_from_pca(
        panel, spec, prior, seed=config.seed, restrictions=restrictions
    )
    if restrictions is not None:
        start, _ = vi.align_identification_signs(start, None, restrictions)
    lambdas = start.loadings.mean.copy()
    sigma2 = start.loadings.noise_scale.copy()
    phi = start.transition.mean.copy()

    burn = config.burn_in()
    kept = (config.n_draws - burn + config.thin - 1) // config.thin
    r, s = spec.r, spec.s
    out_lam = np.empty((kept, spec.n, s))
    out_sig = np.empty((kept, spec.n))
    out_phi = np.empty((kept, r, s))
    out_states = np.empty((kept, panel.T + 1, s))
    rejections = 0
    k = 0
    for d in range(1, config.n_draws + 1):
        states = sample_states_ffbs(panel, lambdas, sigma2, phi, prior, rng)
        lambdas, sigma2, phi, rej = sample_parameters(
            panel, states, spec, prior, restrictions, rng
        )
        rejections += rej
        if d > burn and (d - burn - 1) % config.thin == 0:
            out_lam[k] = lambdas
            out_sig[k] = sigma2
            out_phi[k] = phi
            out_states[k] = states
            k += 1
    return DrawStore(
        lambdas=out_lam[:k],
        sigma2=out_sig[:k],
        phi=out_phi[:k],
        states=out_states[:k],
        seed=config.seed,
        thin=config.thin,
        burn_in=burn,
        rejections=rejections,
    )
