"""Gibbs-sampling benchmark: exact posterior draws for comparison runs.

One sweep draws the full state path given the parameters (one banded
Cholesky of its precision and one banded solve, at every state dimension)
and then the parameters given the states (the batched conjugate
regressions of ``vi.loading_posterior`` and ``vi.transition_posterior``,
drawn by the shared ``vi.draw_loadings`` and ``vi.draw_transition``).
Missing data enter only through the availability mask, so a time step
without data, the last one included, needs no special case.

Identification is enforced by zero restrictions and a sign fold onto the
anchor loadings (:func:`sample_parameters`), exact for a prior that
couples no anchored factor with another (:func:`model.check_sign_fold`).
``run_gibbs`` takes the same ``Restrictions`` as :func:`vi.fit_smf`, checks
its inputs and warns of fewer series than factors the same way
(:func:`vi.run_restrictions`) and folds its start and every sweep by the
same rule and action as the fit, :meth:`Restrictions.signs` and
:func:`model.flip`.

A chain's constants are built once: its masks and anchor rows on the one
``Restrictions`` that ``run_gibbs`` resolves and every kernel of the chain
takes, its origin precision and panel constants on the prior.  Draws are
stored columnar, in draw order, in one ``.npz`` archive (:class:`DrawStore`).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from . import statespace, vi
from .errors import DomainError
from .model import ModelSpec, PriorSpec, Restrictions, flip
from .panel import TimeSeriesPanel


@dataclass(frozen=True)
class GibbsConfig:
    """Sampler run configuration."""

    n_draws: int
    burn_in_fraction: float = 0.10
    seed: int = 0
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
    sign_flips: int  # factors folded onto their anchors, summed over sweeps

    @property
    def n_draws(self) -> int:
        return self.lambdas.shape[0]


def save_draws(store: DrawStore, path) -> None:
    np.savez(path, **{f.name: getattr(store, f.name) for f in fields(DrawStore)})


def load_draws(path) -> DrawStore:
    """Read a draw store; a missing key raises DomainError naming it and the file."""
    names = [f.name for f in fields(DrawStore)]
    with np.load(path) as data:
        missing = [name for name in names if name not in data.files]
        if missing:
            raise DomainError(
                f"draw store {path} has no {', '.join(missing)}; it was written by "
                "an older version or is damaged: rerun dfmvi gibbs"
            )
        arrays = {name: data[name] for name in names}
    # The bookkeeping scalars are stored as 0-d arrays.
    return DrawStore(**{k: a if a.ndim else int(a) for k, a in arrays.items()})


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


def sample_parameters(
    panel: TimeSeriesPanel,
    states: np.ndarray,
    spec: ModelSpec,
    prior: PriorSpec,
    restrictions: Restrictions,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Conjugate parameter draws given a state path, folded onto the anchors.

    All loading/noise pairs are drawn at once from the conditionals of
    :func:`vi.loading_posterior` on the path, unrestricted in sign, then the
    transition block as one matrix-normal draw.  Each anchored factor whose
    anchor loading came out negative is then flipped (:func:`model.flip`):
    its loading columns at every lag, its transition row and columns, and
    its coordinates of ``states``, in place, so path and parameters stay one
    joint draw.  The likelihood and a prior passing :func:`check_sign_fold`
    are invariant under the flip and the sweep is equivariant under it, so
    the folded chain targets the sign-restricted posterior exactly
    (Frühwirth-Schnatter, JASA 2001; Aßmann, Boysen-Hogrefe & Pape,
    J. Econometrics 2016).

    Returns (loadings, noise variances, transition, factors folded).
    """
    r = spec.r
    f = states[1:]
    post, root = vi.loading_posterior(
        panel, f, f[:, :, None] * f[:, None, :], prior, restrictions
    )
    sigma2, lambdas = vi.draw_loadings(post.mean, root, post.noise_df, post.noise_scale, rng)
    fprev = states[:-1]
    trans = vi.transition_posterior(fprev.T @ fprev, f[:, :r].T @ fprev, prior)
    phi = vi.draw_transition(trans, rng)

    signs = restrictions.signs(lambdas, r)
    if signs is None:
        return lambdas, sigma2, phi, 0
    lambdas, phi = flip(signs, lambdas, free=restrictions.free), flip(signs, phi, r)
    states[...] = flip(signs, states)
    return lambdas, sigma2, phi, int(np.count_nonzero(signs[:r] < 0))


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
    restrictions: Restrictions | None = None,
) -> DrawStore:
    """Run one chain: alternate state and parameter draws, keep the tail.

    ``restrictions`` are those :func:`vi.fit_smf` takes (None: none).  The
    chain starts from the principal-component regression initializer,
    folded onto the anchors, and is fully determined by the seed.
    Explosive transition draws are retained, not rejected.

    Raises
    ------
    DomainError
        If the float64 draw store of the kept draws would exceed the
        machine's physical memory (states its size and points to thinning),
        or as :func:`vi.run_restrictions` does: an input does not fit
        ``spec``, the panel is too short or the sign fold would not be exact.
    """
    restrictions = vi.run_restrictions(panel, spec, prior, restrictions)
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
    start = vi.init_from_pca(panel, spec, prior, restrictions, seed=config.seed)
    lambdas, sigma2 = start.loadings.mean, start.loadings.noise_scale
    phi = start.transition.mean
    signs = restrictions.signs(lambdas, r)
    if signs is not None:
        lambdas, phi = flip(signs, lambdas, free=restrictions.free), flip(signs, phi, r)

    out_lam = np.empty((kept, spec.n, s))
    out_sig = np.empty((kept, spec.n))
    out_phi = np.empty((kept, r, s))
    out_states = np.empty((kept, panel.T + 1, s))
    sign_flips = 0
    k = 0
    for d in range(1, config.n_draws + 1):
        states = sample_states_ffbs(panel, lambdas, sigma2, phi, prior, rng)
        lambdas, sigma2, phi, flips = sample_parameters(
            panel, states, spec, prior, restrictions, rng
        )
        sign_flips += flips
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
        sign_flips=sign_flips,
    )
