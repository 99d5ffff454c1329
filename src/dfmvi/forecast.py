"""Predictive sampling and posterior comparison metrics.

Draws of observables come either from the variational densities (loadings
and noise per equation, matrix-normal transition, Gaussian state marginals)
or from a stored Gibbs chain.  Parameter draws come from the shared
``vi.draw_loadings`` and ``vi.draw_transition``, in-sample state vectors
from ``_marginal_draws`` and every observation lambda x_t + noise, for
either source, from ``_observe``.  Both take their standard normals as
arrays, drawn by the caller, so the random stream does not depend on where
the arithmetic runs.  Comparison metrics mirror a benchmark protocol:
mean/absolute/root-mean-square errors between posterior means, and the
share of benchmark draws falling inside equal-tailed variational intervals,
aggregated across elements.

Quantiles are numpy's "linear" sample quantiles (Hyndman and Fan 1996,
type 7), which need only order statistics: the draws of each element are
sorted once, in chunks of elements, and the quantiles of every requested
level are read from the sorted rows.

``compare_posteriors`` scores its in-sample time blocks on one worker
thread while the calling thread draws the normals of the next block; every
random number is drawn on the calling thread, in the order of a serial
loop, so its reports do not depend on the thread timing or the core count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import vi
from .errors import DomainError
from .gibbs import DrawStore

# Time steps per in-sample comparison block.  It bounds memory, and it also
# fixes the order of every in-sample draw (per block: states, SMF noise,
# MCMC noise), so changing it changes every comparison report.
_TIME_BLOCK = 16
# Float values per temporary when observations are formed in chunks of draws
# and draws are sorted in chunks of elements.  Every value is computed per
# element, so the chunk size moves memory only, never a bit of a result.
_CHUNK_VALUES = 1 << 17


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


def _marginal_draws(moments, t0: int, t1: int, z: np.ndarray) -> np.ndarray:
    """Draws of x_t0..x_{t1-1}, each from its smoothed marginal.

    ``z`` (draws, t1 - t0, s) holds standard normals; returns the state
    draws in the same shape.
    """
    roots = _psd_sqrt(moments.cov[t0:t1])
    return moments.mean[t0:t1] + np.einsum("tab,dtb->dta", roots, z)


def _observe(lam, states, sd, noise: np.ndarray) -> np.ndarray:
    """Turn standard normals into observations lambda x_t + sd e, in place.

    ``lam`` (draws, n, s) and ``sd`` (draws, n) hold each draw's loadings
    and noise standard deviations, ``states`` (draws, steps, s) its states
    and ``noise`` (draws, steps, n) its standard normals, which become the
    noisy observations.  Returns the fitted values lambda x_t, shaped like
    ``noise``.
    """
    fitted = np.einsum("dis,dts->dti", lam, states)
    noise *= sd[:, None, :]
    noise += fitted
    return fitted


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
        noisy = rng.standard_normal((n_draws, 1, lam.shape[1]))
        _observe(lam, cur[:, None], sd, noisy)
        out[:, h : h + 1] = noisy
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
    element.  The variational draws are sorted once for all levels, in
    chunks of elements that bound the sorted copy.

    Raises
    ------
    DomainError
        On mismatched element shapes, an empty draw set, a draw set holding
        a non-finite value (names the set), a level outside (0, 100), a
        repeated level or no level.
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
    if not levels or len({int(level) for level in levels}) < len(levels):
        raise DomainError(
            f"levels must be one or more distinct values, got {list(levels)}"
        )
    alpha = np.array([0.5 * (1.0 - level / 100.0) for level in levels])
    q, n_lev = np.concatenate([alpha, 1.0 - alpha]), len(alpha)
    shape = smf.shape[1:]
    smf, mcmc = smf.reshape(len(smf), -1), mcmc.reshape(len(mcmc), -1)
    out = np.empty((n_lev, smf.shape[1]))
    step = max(1, _CHUNK_VALUES // len(smf))
    for e0 in range(0, smf.shape[1], step):
        cols = slice(e0, e0 + step)
        bounds = draw_quantiles(smf[:, cols], q)
        for k in range(n_lev):
            out[k, cols] = interval_coverage(
                bounds[k], bounds[n_lev + k], mcmc[:, cols]
            )
    return {int(level): out[k].reshape(shape) for k, level in enumerate(levels)}


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
    predictions are processed in time blocks to bound memory at large draw
    counts, each scored on a worker thread while the next one is drawn.
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
    del f_smf  # free it before the in-sample blocks, which do not read it

    # In-sample predictions, blocked over time.  The calling thread draws
    # the normals of block k + 1 in the serial order (states, SMF noise, MCMC
    # noise) while one worker thread scores block k; at most two blocks are
    # alive.  The worker draws no random number and writes only the rows of
    # its own block.
    mcmc_pred_mean = np.empty((T, n))
    cov_acc = {int(level): np.empty((T, n)) for level in levels}
    sd_mc = np.sqrt(store.sigma2)
    sd_smf = np.sqrt(sig2_smf, out=sig2_smf)  # the variances are not read again

    def score_block(start, stop, z, smf_blk, mc_blk):
        f_blk = _marginal_draws(moments, start + 1, stop + 1, z)
        step = max(1, _CHUNK_VALUES // smf_blk[0].size)
        for d in range(0, n_smf_draws, step):
            chunk = slice(d, d + step)
            _observe(lam_smf[chunk], f_blk[chunk], sd_smf[chunk], smf_blk[chunk])
        mcmc_pred_mean[start:stop] = _observe(
            store.lambdas, store.states[:, start + 1 : stop + 1], sd_mc, mc_blk
        ).mean(axis=0)
        cov_blk = coverage_probability(
            smf_blk.reshape(n_smf_draws, -1), mc_blk.reshape(store.n_draws, -1), levels
        )
        for level in levels:
            cov_acc[int(level)][start:stop] = cov_blk[int(level)].reshape(-1, n)

    with ThreadPoolExecutor(max_workers=1) as worker:
        scoring = None
        for start in range(0, T, _TIME_BLOCK):
            stop = min(start + _TIME_BLOCK, T)
            steps = stop - start
            z = rng.standard_normal((n_smf_draws, steps, moments.mean.shape[-1]))
            smf_blk = rng.standard_normal((n_smf_draws, steps, n))
            mc_blk = rng.standard_normal((store.n_draws, steps, n))
            if scoring is not None:
                scoring.result()
            scoring = worker.submit(score_block, start, stop, z, smf_blk, mc_blk)
            del z, smf_blk, mc_blk  # the worker holds the only reference
        if scoring is not None:
            scoring.result()
    smf_pred_mean = moments.mean[1:] @ loadings.mean.T
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
