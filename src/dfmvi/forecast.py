"""Predictive sampling and posterior comparison metrics.

Draws of observables come either from the variational densities (loadings
and noise per equation, matrix-normal transition, Gaussian state marginals)
or from a stored Gibbs chain.  Comparison metrics mirror a benchmark
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
from .model import ModelSpec, PriorSpec
from .panel import TimeSeriesPanel


@dataclass(frozen=True)
class PredictiveDraws:
    """Stacked draws of predicted observations, (draws, steps, series)."""

    draws: np.ndarray
    source: str
    seed: int


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Root R with R R' = a of a PSD matrix or stack, tolerant of exact degeneracy."""
    w, v = np.linalg.eigh(a)
    return v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]


def _draw_variational_theta(state: vi.VariationalState, n_draws: int, rng):
    """Draws of (noise variances, loadings, transition) from the fit."""
    loadings, transition = state.loadings, state.transition
    n, s = loadings.mean.shape
    r = transition.mean.shape[0]
    sigma2 = (
        loadings.noise_df
        * loadings.noise_scale
        / rng.chisquare(loadings.noise_df, size=(n_draws, n))
    )
    roots = _psd_sqrt(loadings.cov)
    z = rng.standard_normal((n_draws, n, s))
    lam = loadings.mean[None] + np.sqrt(sigma2)[:, :, None] * np.einsum(
        "iab,dib->dia", roots, z
    )
    l_phi = np.linalg.cholesky(transition.cov)
    phi = transition.mean[None] + rng.standard_normal((n_draws, r, s)) @ l_phi.T
    return sigma2, lam, phi


def _iterate_forward(states_T, phi, sigma2, lam, horizons, rng):
    """Propagate terminal states forward and emit noisy observations."""
    n_draws, s = states_T.shape
    r = phi.shape[1]
    n = lam.shape[1]
    out = np.empty((n_draws, horizons, n))
    cur = states_T
    for h in range(horizons):
        shock = rng.standard_normal((n_draws, r))
        top = np.einsum("drs,ds->dr", phi, cur) + shock
        if s > r:
            cur = np.concatenate([top, cur[:, : s - r]], axis=1)
        else:
            cur = top
        eps = rng.standard_normal((n_draws, n)) * np.sqrt(sigma2)
        out[:, h, :] = np.einsum("dis,ds->di", lam, cur) + eps
    return out


def draw_predictive(
    source,
    panel: TimeSeriesPanel,
    spec: ModelSpec,
    prior: PriorSpec,
    horizons: int | None = None,
    n_draws: int = 10_000,
    seed: int = 0,
    in_sample: bool = False,
) -> PredictiveDraws:
    """Predictive draws from a fitted posterior.

    ``source`` is either a fitted :class:`~dfmvi.vi.VariationalState` or a
    Gibbs :class:`~dfmvi.gibbs.DrawStore`.  With ``in_sample`` the draws
    cover every sample time step; otherwise ``horizons`` steps beyond the
    sample are generated by iterating the state equation with fresh
    innovations.  Variational state draws use the smoothed marginal at
    each time step (the terminal marginal for forecasts, which is also the
    terminal law of any joint path draw).
    """
    if not in_sample:
        if horizons is None or horizons < 1:
            raise DomainError("horizons must be >= 1 for out-of-sample prediction")
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
        lam = source.lambdas[idx]
        sigma2 = source.sigma2[idx]
        phi = source.phi[idx]
        if in_sample:
            fitted = np.einsum("dis,dts->dti", lam, source.states[idx][:, 1:, :])
            eps = rng.standard_normal(fitted.shape) * np.sqrt(sigma2)[:, None, :]
            return PredictiveDraws(draws=fitted + eps, source="mcmc", seed=seed)
        out = _iterate_forward(
            source.states[idx][:, -1, :], phi, sigma2, lam, horizons, rng
        )
        return PredictiveDraws(draws=out, source="mcmc", seed=seed)

    state = source
    moments, _ = vi.update_states(panel, state.loadings, state.transition, prior)
    sigma2, lam, phi = _draw_variational_theta(state, n_draws, rng)
    if in_sample:
        T = panel.T
        n = panel.n
        out = np.empty((n_draws, T, n))
        for t in range(1, T + 1):
            root = _psd_sqrt(moments.cov[t])
            f_t = moments.mean[t] + rng.standard_normal((n_draws, spec.s)) @ root.T
            eps = rng.standard_normal((n_draws, n)) * np.sqrt(sigma2)
            out[:, t - 1, :] = np.einsum("dis,ds->di", lam, f_t) + eps
        return PredictiveDraws(draws=out, source="smf", seed=seed)
    root = _psd_sqrt(moments.cov[-1])
    states_T = moments.mean[-1] + rng.standard_normal((n_draws, spec.s)) @ root.T
    out = _iterate_forward(states_T, phi, sigma2, lam, horizons, rng)
    return PredictiveDraws(draws=out, source="smf", seed=seed)


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
    panel: TimeSeriesPanel,
    spec: ModelSpec,
    prior: PriorSpec,
    state: vi.VariationalState,
    store: DrawStore,
    horizons: int = 6,
    n_smf_draws: int = 10_000,
    seed: int = 0,
    levels=(50, 75, 95),
    time_block: int = 16,
) -> ComparisonReport:
    """Full comparison of a variational fit against a Gibbs chain.

    Blocks: transition and loading coefficients, noise variances, factor
    paths, in-sample predictions and each out-of-sample horizon.
    Posterior means on the variational side are analytic; coverage uses
    equal-tailed quantile intervals from variational draws.  In-sample
    prediction blocks are processed in time blocks to bound memory at
    large draw counts.
    """
    rng = np.random.default_rng(seed)
    loadings, transition = state.loadings, state.transition
    r, s = transition.mean.shape
    n, T = panel.n, panel.T
    moments, _ = vi.update_states(panel, loadings, transition, prior)
    free = loadings.free

    pm_errors = {}
    coverage = {}

    # Parameter blocks.  The analytic noise mean needs more than two degrees
    # of freedom; fall back to the draw mean otherwise.
    sig2_smf, lam_smf, phi_smf = _draw_variational_theta(state, n_smf_draws, rng)
    smf_sigma_mean = np.where(
        loadings.noise_df > 2,
        loadings.noise_df
        * loadings.noise_scale
        / np.maximum(loadings.noise_df - 2, 1e-12),
        sig2_smf.mean(axis=0),
    )
    pm_errors["transition"] = posterior_mean_errors(
        transition.mean.ravel(), store.phi.mean(axis=0).ravel()
    )
    pm_errors["loadings"] = posterior_mean_errors(
        loadings.mean[free], store.lambdas.mean(axis=0)[free]
    )
    pm_errors["noise"] = posterior_mean_errors(
        smf_sigma_mean, store.sigma2.mean(axis=0)
    )
    coverage["transition"] = coverage_probability(
        phi_smf.reshape(n_smf_draws, -1), store.phi.reshape(store.n_draws, -1), levels
    )
    coverage["loadings"] = coverage_probability(
        lam_smf[:, free], store.lambdas[:, free], levels
    )
    coverage["noise"] = coverage_probability(sig2_smf, store.sigma2, levels)

    # Factor paths.
    f_mean = moments.mean[1:, :r]
    f_sd = np.sqrt(np.diagonal(moments.cov[1:], axis1=1, axis2=2)[:, :r])
    f_smf = f_mean[None] + rng.standard_normal((n_smf_draws, T, r)) * f_sd[None]
    pm_errors["factors"] = posterior_mean_errors(
        f_mean, store.states[:, 1:, :r].mean(axis=0)
    )
    coverage["factors"] = coverage_probability(
        f_smf.reshape(n_smf_draws, -1),
        store.states[:, 1:, :r].reshape(store.n_draws, -1),
        levels,
    )

    # In-sample predictions, blocked over time.
    smf_pred_mean = moments.mean[1:] @ loadings.mean.T
    mcmc_pred_mean = np.zeros((T, n))
    cov_acc = {int(level): np.zeros((T, n)) for level in levels}
    d_mc = store.n_draws
    sd_mc = np.sqrt(store.sigma2)
    sd_smf = np.sqrt(sig2_smf)
    for start in range(0, T, time_block):
        block = slice(start, min(start + time_block, T))
        nb = block.stop - block.start
        roots = _psd_sqrt(moments.cov[block.start + 1 : block.stop + 1])
        zf = rng.standard_normal((n_smf_draws, nb, s))
        f_blk = moments.mean[block.start + 1 : block.stop + 1][None] + np.einsum(
            "tab,dtb->dta", roots, zf
        )
        smf_blk = np.einsum("dis,dts->dti", lam_smf, f_blk)
        smf_blk += rng.standard_normal(smf_blk.shape) * sd_smf[:, None, :]
        mc_blk = np.einsum(
            "dis,dts->dti", store.lambdas, store.states[:, 1 + block.start : 1 + block.stop, :]
        )
        mcmc_pred_mean[block] = mc_blk.mean(axis=0)
        mc_blk += rng.standard_normal(mc_blk.shape) * sd_mc[:, None, :]
        cov_blk = coverage_probability(
            smf_blk.reshape(n_smf_draws, -1), mc_blk.reshape(d_mc, -1), levels
        )
        for level in levels:
            cov_acc[int(level)][block] = cov_blk[int(level)].reshape(nb, n)
    pm_errors["insample"] = posterior_mean_errors(smf_pred_mean, mcmc_pred_mean)
    coverage["insample"] = cov_acc

    # Out-of-sample horizons.
    if horizons >= 1:
        smf_oos = draw_predictive(
            state, panel, spec, prior, horizons=horizons,
            n_draws=n_smf_draws, seed=seed + 1,
        ).draws
        mcmc_oos = draw_predictive(
            store, panel, spec, prior, horizons=horizons,
            n_draws=store.n_draws, seed=seed + 2,
        ).draws
        for h in range(1, horizons + 1):
            block = f"oos_h{h}"
            pm_errors[block] = posterior_mean_errors(
                smf_oos[:, h - 1, :].mean(axis=0), mcmc_oos[:, h - 1, :].mean(axis=0)
            )
            coverage[block] = coverage_probability(
                smf_oos[:, h - 1, :], mcmc_oos[:, h - 1, :], levels
            )

    return ComparisonReport(
        pm_errors=pm_errors, coverage=coverage, levels=tuple(int(v) for v in levels)
    )
