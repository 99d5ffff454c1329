"""Predictive sampling and posterior comparison metrics.

Draws of observables come either from the variational densities (loadings
and noise per equation, matrix-normal transition, Gaussian state marginals)
or from a stored Gibbs chain.  Parameter draws come from the shared
``vi.draw_loadings`` and ``vi.draw_transition``, in-sample state vectors
from ``_marginal_draws`` and every observation lambda x_t + noise, for
either source, from ``_observe``.  Comparison metrics mirror a benchmark
protocol: mean/absolute/root-mean-square errors between posterior means,
and the share of benchmark draws falling inside equal-tailed variational
intervals, aggregated across elements.

Quantiles are numpy's "linear" sample quantiles (Hyndman and Fan 1996,
type 7), which need only order statistics: each draw block is sorted once,
and the quantiles of every requested level are read from the sorted block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import vi
from .errors import DomainError
from .gibbs import DrawStore

_TIME_BLOCK = 16  # time steps per in-sample comparison block, bounding memory


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Root R with R R' = a of a PSD matrix or stack, tolerant of exact degeneracy."""
    w, v = np.linalg.eigh(a)
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _draw_variational_theta(state: vi.VariationalState, n_draws: int, rng):
    """Draws of (noise variances, loadings, transition) from the fit."""
    loadings, lead = state.loadings, (n_draws,)
    sigma2, lam = vi.draw_loadings(
        loadings.mean, _psd_sqrt(loadings.cov),
        loadings.noise_df, loadings.noise_scale, rng, lead,
    )
    return sigma2, lam, vi.draw_transition(state.transition, rng, lead)


def _marginal_draws(moments, t0: int, t1: int, n_draws: int, rng) -> np.ndarray:
    """Draws (n_draws, t1 - t0, s) of x_t0..x_{t1-1}, each from its smoothed marginal."""
    roots = _psd_sqrt(moments.cov[t0:t1])
    z = rng.standard_normal((n_draws, t1 - t0, roots.shape[-1]))
    return moments.mean[t0:t1] + np.einsum("tab,dtb->dta", roots, z)


def _observe(lam, states, sd, rng):
    """Fitted values lambda x_t of (draws, steps, s) states and their noisy copies.

    ``sd`` (draws, n) holds the noise standard deviations.  Returns
    (fitted, fitted + noise), both (draws, steps, n).
    """
    fitted = np.einsum("dis,dts->dti", lam, states)
    noisy = rng.standard_normal(fitted.shape)
    noisy *= sd[:, None, :]
    noisy += fitted
    return fitted, noisy


def _iterate_forward(states_T, phi, sigma2, lam, horizons, rng):
    """Propagate terminal states forward and emit noisy observations."""
    n_draws, s = states_T.shape
    r = phi.shape[1]
    sd = np.sqrt(sigma2)
    out = np.empty((n_draws, horizons, lam.shape[1]))
    cur = states_T
    for h in range(horizons):
        top = np.einsum("drs,ds->dr", phi, cur) + rng.standard_normal((n_draws, r))
        cur = np.concatenate([top, cur[:, : s - r]], axis=1)
        out[:, h : h + 1] = _observe(lam, cur[:, None], sd, rng)[1]
    return out


def draw_predictive(source, horizons: int, n_draws: int = 10_000, seed: int = 0):
    """Predictive draws ``horizons`` steps beyond the sample, (draws, steps, series).

    ``source`` is a Gibbs :class:`~dfmvi.gibbs.DrawStore` or a fit's (state,
    moments) pair, as :func:`~dfmvi.vi.fit_smf` returns it.  The state
    equation is iterated with fresh innovations from a terminal state; a
    variational one is drawn from the terminal smoothed marginal, which is
    also the terminal law of any joint path draw.
    """
    if horizons < 1 or n_draws < 1:
        raise DomainError(
            f"horizons and n_draws must be >= 1, got {horizons} and {n_draws}"
        )
    rng = np.random.default_rng(seed)
    if isinstance(source, DrawStore):
        stored = source.n_draws
        if stored == 0:
            raise DomainError("draw store is empty")
        if stored > n_draws:
            idx = rng.choice(stored, size=n_draws, replace=False)
            idx.sort()
        else:
            idx = np.arange(stored)
        sigma2, lam, phi = source.sigma2[idx], source.lambdas[idx], source.phi[idx]
        states = source.states[idx, -1]
    else:
        state, moments = source
        sigma2, lam, phi = _draw_variational_theta(state, n_draws, rng)
        z = rng.standard_normal((n_draws, moments.mean.shape[-1]))
        states = moments.mean[-1] + z @ _psd_sqrt(moments.cov[-1]).T
    return _iterate_forward(states, phi, sigma2, lam, horizons, rng)


def posterior_mean_errors(a: np.ndarray, b: np.ndarray) -> dict:
    """Mean error, mean absolute error and RMSE between two mean arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DomainError(f"shape mismatch: {a.shape} vs {b.shape}")
    diff = (a - b).ravel()
    return {
        "me": float(diff.mean()),
        "mae": float(np.abs(diff).mean()),
        "rmse": float(np.sqrt((diff**2).mean())),
    }


def _sorted_quantiles(srt: np.ndarray, q) -> np.ndarray:
    """Sample quantiles at probabilities ``q`` of rows sorted on the last axis.

    Bit for bit numpy's "linear" method: the virtual index (n - 1) q lies
    between order statistics prev = floor and next = prev + 1; an index
    below 0 takes the first order statistic and one at or above n - 1 the
    last.  With gamma = index - prev the value is a + (b - a) gamma, or
    b - (b - a) (1 - gamma) where gamma >= 0.5.  A row holding NaN (sorted
    last) gives NaN, as in numpy.  Only the sign of a zero quantile can
    differ, where a row holds both -0.0 and 0.0, which sort and partition
    may order differently.  Returns shape (len(q),) + srt.shape[:-1].
    """
    n = srt.shape[-1]
    virtual = (n - 1) * np.asarray(q, dtype=float)
    prev = np.floor(virtual)
    nxt = prev + 1
    above, below = virtual >= n - 1, virtual < 0
    prev[above] = nxt[above] = -1
    prev[below] = nxt[below] = 0
    gamma = virtual - prev
    a = srt[..., prev.astype(np.intp)]
    b = srt[..., nxt.astype(np.intp)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    last = srt[..., -1:]
    np.copyto(out, last, where=np.isnan(last))
    return np.moveaxis(out, -1, 0)


def draw_quantiles(draws: np.ndarray, q) -> np.ndarray:
    """``np.quantile(draws, q, axis=0)`` from one sort of the draws (axis 0)."""
    srt = np.moveaxis(np.asarray(draws, dtype=float), 0, -1).copy()
    srt.sort(axis=-1)
    return _sorted_quantiles(srt, q)


def draw_summary(draws: np.ndarray, q) -> tuple[np.ndarray, np.ndarray]:
    """Per-element means and :func:`draw_quantiles` of draws on axis 0.

    The means are taken over the contiguous copy before it is sorted, which
    gives the bits of ``draws[:, j].mean()`` for each element j (the strided
    ``draws.mean(axis=0)`` sums in another order).
    """
    srt = np.moveaxis(np.asarray(draws, dtype=float), 0, -1).copy()
    mean = srt.mean(axis=-1)
    srt.sort(axis=-1)
    return mean, _sorted_quantiles(srt, q)


def interval_coverage(
    lower: np.ndarray, upper: np.ndarray, draws: np.ndarray
) -> np.ndarray:
    """Percent of draws (axis 0) inside the per-element [lower, upper]."""
    inside = (draws >= lower) & (draws <= upper)
    return 100.0 * (np.count_nonzero(inside, axis=0) / inside.shape[0])


def coverage_probability(
    smf_draws: np.ndarray,
    mcmc_draws: np.ndarray,
    levels=(50, 75, 95),
) -> dict[int, np.ndarray]:
    """Share of benchmark draws inside equal-tailed variational intervals.

    Both draw arrays index draws on axis 0 and target the same elements on
    the remaining axes.  Returns, per level, the percent coverage for each
    element.  The variational draws are sorted once for all levels.

    Raises
    ------
    DomainError
        On mismatched element shapes, an empty draw set, a draw set holding
        a non-finite value (names the set) or a level outside (0, 100).
    """
    smf = np.asarray(smf_draws, dtype=float)
    mcmc = np.asarray(mcmc_draws, dtype=float)
    if smf.shape[1:] != mcmc.shape[1:]:
        raise DomainError("draw sets target different element shapes")
    if smf.shape[0] == 0 or mcmc.shape[0] == 0:
        raise DomainError("empty draw set")
    for name, draws in (("SMF", smf), ("MCMC", mcmc)):
        if not np.isfinite(draws).all():
            raise DomainError(f"{name} draw set holds a non-finite value")
    for level in levels:
        if not (0 < level < 100):
            raise DomainError(f"level {level} outside (0, 100)")
    alpha = np.array([0.5 * (1.0 - level / 100.0) for level in levels])
    bounds = draw_quantiles(smf, np.concatenate([alpha, 1.0 - alpha]))
    lower, upper = bounds[: len(alpha)], bounds[len(alpha) :]
    return {
        int(level): interval_coverage(lower[k], upper[k], mcmc)
        for k, level in enumerate(levels)
    }


def summarize_coverage(per_element: dict[int, np.ndarray]) -> dict[int, dict]:
    """Mean/median/stdev of per-element coverage at each level."""
    out = {}
    for level, cov in per_element.items():
        flat = np.asarray(cov, dtype=float).ravel()
        out[int(level)] = {
            "mean": float(flat.mean()),
            "median": float(np.median(flat)),
            "stdev": float(flat.std(ddof=1)) if flat.size > 1 else 0.0,
        }
    return out


@dataclass
class ComparisonReport:
    """Per-block posterior-mean errors and coverage tables."""

    pm_errors: dict
    coverage: dict  # block -> level -> per-element coverage array
    levels: tuple

    def coverage_summary(self) -> dict:
        return {
            block: summarize_coverage(per_level)
            for block, per_level in self.coverage.items()
        }


def compare_posteriors(
    state: vi.VariationalState,
    moments,
    store: DrawStore,
    horizons: int = 6,
    n_smf_draws: int = 10_000,
    seed: int = 0,
    levels=(50, 75, 95),
) -> ComparisonReport:
    """Full comparison of a fit (``state``, ``moments``) against a Gibbs chain.

    Blocks: transition and loading coefficients, noise variances, factor
    paths, in-sample predictions and each out-of-sample horizon.
    Posterior means on the variational side are analytic; coverage uses
    equal-tailed quantile intervals from variational draws.  In-sample
    prediction blocks are processed in time blocks to bound memory at
    large draw counts.
    """
    if horizons < 0 or n_smf_draws < 1:
        raise DomainError(
            f"need horizons >= 0 and n_smf_draws >= 1, got {horizons} and {n_smf_draws}"
        )
    rng = np.random.default_rng(seed)
    loadings, transition = state.loadings, state.transition
    r = transition.mean.shape[0]
    n, T = loadings.mean.shape[0], moments.mean.shape[0] - 1
    free = loadings.free
    pm_errors, coverage = {}, {}

    def add_block(block, smf_mean, mcmc_mean, smf, mcmc):
        pm_errors[block] = posterior_mean_errors(smf_mean, mcmc_mean)
        coverage[block] = coverage_probability(smf, mcmc, levels)

    # Parameter blocks.  The analytic noise mean needs more than two degrees
    # of freedom; fall back to the draw mean otherwise.
    sig2_smf, lam_smf, phi_smf = _draw_variational_theta(state, n_smf_draws, rng)
    df, scale = loadings.noise_df, loadings.noise_scale
    smf_sigma_mean = np.where(
        df > 2, df * scale / np.maximum(df - 2, 1e-12), sig2_smf.mean(axis=0)
    )
    add_block(
        "transition", transition.mean.ravel(), store.phi.mean(axis=0).ravel(),
        phi_smf.reshape(n_smf_draws, -1), store.phi.reshape(store.n_draws, -1),
    )
    # The mean before the selection: selecting first moves the last bits.
    add_block(
        "loadings", loadings.mean[free], store.lambdas.mean(axis=0)[free],
        lam_smf[:, free], store.lambdas[:, free],
    )
    add_block(
        "noise", smf_sigma_mean, store.sigma2.mean(axis=0), sig2_smf, store.sigma2
    )

    # Factor paths.
    f_mean = moments.mean[1:, :r]
    f_sd = np.sqrt(np.diagonal(moments.cov[1:], axis1=1, axis2=2)[:, :r])
    f_smf = f_mean[None] + rng.standard_normal((n_smf_draws, T, r)) * f_sd[None]
    f_mcmc = store.states[:, 1:, :r]
    add_block(
        "factors", f_mean, f_mcmc.mean(axis=0),
        f_smf.reshape(n_smf_draws, -1), f_mcmc.reshape(store.n_draws, -1),
    )

    # In-sample predictions, blocked over time.
    smf_pred_mean = moments.mean[1:] @ loadings.mean.T
    mcmc_pred_mean = np.zeros((T, n))
    cov_acc = {int(level): np.zeros((T, n)) for level in levels}
    sd_mc = np.sqrt(store.sigma2)
    sd_smf = np.sqrt(sig2_smf)
    for start in range(0, T, _TIME_BLOCK):
        stop = min(start + _TIME_BLOCK, T)
        f_blk = _marginal_draws(moments, start + 1, stop + 1, n_smf_draws, rng)
        smf_blk = _observe(lam_smf, f_blk, sd_smf, rng)[1]
        mc_fit, mc_blk = _observe(
            store.lambdas, store.states[:, start + 1 : stop + 1], sd_mc, rng
        )
        mcmc_pred_mean[start:stop] = mc_fit.mean(axis=0)
        cov_blk = coverage_probability(
            smf_blk.reshape(n_smf_draws, -1), mc_blk.reshape(store.n_draws, -1), levels
        )
        for level in levels:
            cov_acc[int(level)][start:stop] = cov_blk[int(level)].reshape(-1, n)
        del smf_blk, mc_fit, mc_blk  # free this block before drawing the next
    pm_errors["insample"] = posterior_mean_errors(smf_pred_mean, mcmc_pred_mean)
    coverage["insample"] = cov_acc

    # Out-of-sample horizons.
    if horizons >= 1:
        smf_oos = draw_predictive((state, moments), horizons, n_smf_draws, seed + 1)
        mcmc_oos = draw_predictive(store, horizons, store.n_draws, seed + 2)
        for h in range(horizons):
            smf, mcmc = smf_oos[:, h], mcmc_oos[:, h]
            add_block(f"oos_h{h + 1}", smf.mean(axis=0), mcmc.mean(axis=0), smf, mcmc)

    return ComparisonReport(
        pm_errors=pm_errors, coverage=coverage, levels=tuple(int(v) for v in levels)
    )
