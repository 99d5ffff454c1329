"""Gibbs-sampling benchmark: exact posterior draws for comparison runs.

One sweep draws the full state path given the parameters (one banded
Cholesky of its precision and one banded solve, at every state dimension)
and then the parameters given the states (the batched conjugate
regressions of ``vi.loading_posterior`` and ``vi.transition_posterior``,
drawn by the shared ``vi.draw_loadings`` and ``vi.draw_transition``).
Missing data enter only through the availability mask, so a time step
without data, the last one included, needs no special case;
identification is enforced by zero restrictions and sign rejection on
anchor loadings.

A chain's constants are built once: ``run_gibbs`` makes one
``Restrictions`` (all loadings free without anchors), whose restriction
masks, identity padding and anchor rows are cached on it, and the origin
precision is cached on the prior (``PriorSpec.init_state_prec``).  Every
sweep reads them, and its banded solve calls LAPACK ``dpbtrs`` directly, so
the draws are bit for bit those of a sweep that rebuilt them.

Draw storage is columnar: arrays ``lambda`` (D, n, s), ``sigma2`` (D, n),
``phi`` (D, r, s) and ``states`` (D, T+1, s) in draw order, serialized
together in one ``.npz`` archive with the seed and bookkeeping.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtr, stdtrit

from . import statespace, vi
from .errors import DomainError
from .model import ModelSpec, PriorSpec, Restrictions, identification_restrictions
from .panel import TimeSeriesPanel


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


def sample_states_ffbs(
    panel: TimeSeriesPanel,
    lambdas: np.ndarray,
    sigma2: np.ndarray,
    phi: np.ndarray,
    prior: PriorSpec,
    rng: np.random.Generator,
) -> np.ndarray:
    """One exact joint draw of the state path given a parameter draw.

    Given the parameters, the factor path z = (f_T, ..., f_{-p}) is
    Gaussian with the banded precision Q and information vector b of
    :func:`statespace.path_precision`: the block A'A of the residual
    f_t - Phi x_{t-1}, A = [I, -Phi], on every window, the data precision
    Lambda' A_t Sigma^-1 Lambda on x_t and the inverse origin covariance on
    x_0.  One banded Cholesky Q = L L' and one banded solve give
    z = Q^-1 (b + L eps), eps standard normal; each state is a slice of z,
    so the lagged coordinates of the path are exact copies.

    Returns a (T+1, s) path including the origin state.

    Raises
    ------
    NumericalError
        If Q is not positive definite (names the time step of the first
        coordinate whose leading minor fails).
    """
    r, s = phi.shape
    scaled = lambdas / sigma2[:, None]
    band, info, _ = statespace.path_precision(
        panel,
        scaled[:, :, None] * lambdas[:, None, :],
        scaled,
        statespace.residual_gram(phi),
        prior.init_state_prec,
    )
    chol = statespace.band_cholesky(band, r)
    eps = rng.standard_normal(info.size)
    shock = chol[0] * eps
    for d in range(1, r + s):
        shock[d:] += chol[d, :-d] * eps[:-d]
    z = statespace.band_solve(chol, info + shock)
    return statespace.path_states(z, r, s).copy()


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
    r = spec.r
    if restrictions is None:
        restrictions = identification_restrictions(spec, [])
    f = states[1:]
    post, root = vi.loading_posterior(
        panel, f, f[:, :, None] * f[:, None, :], prior, restrictions
    )

    def draw(rows):
        return vi.draw_loadings(
            post.mean[rows], root[rows], post.noise_df[rows], post.noise_scale[rows], rng
        )

    sigma2, lambdas = draw(slice(None))
    positive = restrictions.anchors
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
    return lambdas, sigma2, vi.draw_transition(trans, rng), rejections


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not report it."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def run_gibbs(
    panel: TimeSeriesPanel,
    spec: ModelSpec,
    prior: PriorSpec,
    config: GibbsConfig,
) -> DrawStore:
    """Run one chain: alternate state and parameter draws, keep the tail.

    The chain starts from the principal-component regression initializer
    (sign-aligned to the anchors) and is fully determined by the seed.
    Explosive transition draws are retained, not rejected.

    Raises
    ------
    DomainError
        If the float64 draw store of the kept draws would exceed the
        machine's physical memory (states its size and points to thinning).
    """
    r, s = spec.r, spec.s
    burn = config.burn_in()
    kept = (config.n_draws - burn + config.thin - 1) // config.thin
    store_bytes = 8 * kept * (spec.n * s + spec.n + r * s + (panel.T + 1) * s)
    memory = _physical_memory()
    if memory is not None and store_bytes > memory:
        raise DomainError(
            f"the draw store of {kept} kept draws needs {store_bytes / 2**30:.2f} GiB "
            f"but the machine has {memory / 2**30:.2f} GiB of physical memory; "
            "keep fewer draws with --thin"
        )
    rng = np.random.default_rng(config.seed)
    # Built once: every sweep reads its cached masks and anchor rows.
    restrictions = identification_restrictions(spec, list(config.identification))
    start = vi.init_from_pca(
        panel, spec, prior, seed=config.seed, restrictions=restrictions
    )
    start, _ = vi.align_identification_signs(start, None, restrictions)
    lambdas = start.loadings.mean.copy()
    sigma2 = start.loadings.noise_scale.copy()
    phi = start.transition.mean.copy()

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
