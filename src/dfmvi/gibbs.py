"""Gibbs-sampling benchmark: exact posterior draws for comparison runs.

One sweep draws the full state path given the parameters (forward filter,
backward sampling; for s > 1 on the shared kernel of ``statespace``) and
then the parameters given the states (conjugate per-equation regressions
and a matrix-normal transition draw).  Missing data enter only through row
selection; identification is enforced by zero restrictions and sign
rejection on anchor loadings.

Draw storage is columnar: arrays ``lambda`` (D, n, s), ``sigma2`` (D, n),
``phi`` (D, r, s) and ``states`` (D, T+1, s) in draw order, serialized
together in one ``.npz`` archive with the seed and bookkeeping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import vi
from .errors import DomainError, NumericalError
from .model import ModelSpec, PriorSpec, Restrictions, identification_restrictions
from .panel import TimeSeriesPanel
from .statespace import (
    chol_factor,
    chol_inverse,
    chol_solve,
    companion,
    backward_conditionals,
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


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Root R with R R' = a of a PSD matrix or stack, tolerant of exact degeneracy."""
    w, v = np.linalg.eigh(a)
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


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

    Works backward conditioning each state on the drawn successor, with
    the backward conditionals and their PSD roots computed for all t at
    once and one (T+1, s) normal block whose row k serves time T - k.  The
    companion structure makes part of each conditional degenerate; the
    lagged coordinates are overwritten with exact copies after drawing.
    """
    T = filt_mean.shape[0] - 1
    s = trans.shape[0]
    gains, offsets, covs = backward_conditionals(trans, filt_mean, filt_cov, pred_cov)
    roots = _psd_sqrt(np.concatenate([covs, filt_cov[T:]]))
    z = rng.standard_normal((T + 1, s))[::-1]
    shocks = np.einsum("tab,tb->ta", roots, z)
    path = np.empty((T + 1, s))
    path[T] = filt_mean[T] + shocks[T]
    for t in range(T - 1, -1, -1):
        path[t] = offsets[t] + gains[t] @ path[t + 1] + shocks[t]
        if s > r:
            path[t, : s - r] = path[t + 1, r:]
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

    Per equation, the loading/noise pair comes from the Gaussian/scaled-
    inverse-chi-square conditional over the available observations, with
    zero-restricted coordinates excluded from the regression and sign
    restrictions enforced by redrawing the equation (capped).  The
    transition block is one matrix-normal draw.

    Returns (loadings, noise variances, transition, rejection count).
    """
    values, mask = panel.values, panel.mask
    T, n = values.shape
    r, s = spec.r, spec.s
    maskf = mask.astype(float)
    filled = np.where(mask, values, 0.0)
    f = states[1:]
    ff = f[:, :, None] * f[:, None, :]
    gram = np.einsum("ti,tab->iab", maskf, ff)
    rhs = np.einsum("ti,ta->ia", maskf * filled, f)
    ssq = (maskf * filled**2).sum(axis=0)
    counts = maskf.sum(axis=0)

    free = np.ones((n, s), dtype=bool) if restrictions is None else restrictions.free
    positive = {} if restrictions is None else dict(restrictions.positive)

    lambdas = np.zeros((n, s))
    sigma2 = np.empty(n)
    rejections = 0
    for i in range(n):
        idx = np.flatnonzero(free[i])
        df = prior.noise_df[i] + counts[i]
        if idx.size:
            prec = gram[i][np.ix_(idx, idx)] + prior.loading_prec[np.ix_(idx, idx)]
            chol = chol_factor(prec, context=f"loading draw, equation {i}")
            mu = chol_solve(chol, rhs[i][idx])
            cov_i = chol_inverse(chol)
            cov_chol = np.linalg.cholesky(0.5 * (cov_i + cov_i.T))
            quad = float(mu @ prec @ mu)
        else:
            mu, cov_chol, quad = None, None, 0.0
        scale = (prior.noise_df[i] * prior.noise_scale[i] + ssq[i] - quad) / df
        if scale <= 0:
            raise NumericalError(f"nonpositive posterior noise scale, equation {i}")
        sign_coord = positive.get(i)
        sign_pos = int(np.searchsorted(idx, sign_coord)) if sign_coord is not None else -1
        lam = None
        for _ in range(max_rejects):
            sig = df * scale / rng.chisquare(df)
            if mu is not None:
                lam = mu + math.sqrt(sig) * (cov_chol @ rng.standard_normal(idx.size))
            if sign_coord is None or lam[sign_pos] > 0:
                break
            rejections += 1
        else:
            raise DomainError(
                f"sign restriction on variable {i} rejected {max_rejects} draws; "
                "choose a different identifying variable"
            )
        sigma2[i] = sig
        if lam is not None:
            lambdas[i][idx] = lam

    fprev = states[:-1]
    gram0 = fprev.T @ fprev + prior.trans_prec
    chol0 = chol_factor(gram0, context="transition draw")
    cov0 = chol_inverse(chol0)
    cov0 = 0.5 * (cov0 + cov0.T)
    m_phi = (f[:, :r].T @ fprev) @ cov0
    phi = m_phi + rng.standard_normal((r, s)) @ np.linalg.cholesky(cov0).T
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
