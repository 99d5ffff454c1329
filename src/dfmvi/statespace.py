"""One banded-precision state kernel for the variational fit and the Gibbs draw.

Given parameters, or expectations over them, the factor path
z = (f_T, f_{T-1}, ..., f_{-p}), r (T + p + 1) coordinates in reverse time
order, is Gaussian with a banded precision Q and information vector b
(Rue 2001; Chan and Jeliazkov 2009).  Each companion state
x_t = (f_t, ..., f_{t-p}) is the s-slice of z starting at coordinate
r (T - t), so its lagged coordinates are exact copies.
:func:`path_precision` assembles Q and b for both users:

- the Gibbs draw (``dfmvi.gibbs.sample_states_ffbs``) passes a parameter
  draw and samples z = Q^-1 (b + L eps) from one banded Cholesky Q = L L';
- the variational state pass passes expectations under the parameter
  density: the expected data precision mu mu'/tau + V of each equation and
  the expected transition block E[A'A], whose extra r V term is the
  shrinkage that parameter uncertainty puts on the factors.
  :func:`kalman_filter` factors Q once and solves for the mean path;
  :func:`kalman_smoother` reads the marginal and lag-one covariance blocks
  from a selected inversion of the factor (Takahashi, Fagan and Chen 1973;
  Rue and Held 2005, ch. 2), which touches only the band.

A time step without data, the last one included, adds no data precision
and needs no special case.  The dense and augmented-filter oracles that
validate this module live with the test oracles in ``dfmvi.sim``.

Conventions: time-major arrays; index t = 0 is the pre-sample state, data
run t = 1..T.  ``y_star[t-1]`` refers to time t.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError
from .panel import TimeSeriesPanel

_JITTER = 1e-10
_MAX_JITTER_TRIES = 3


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a (stack of) square matrices with their transpose."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def chol_factor(a: np.ndarray, context: str = "") -> np.ndarray:
    """Lower Cholesky factor, retrying with diagonal jitter.

    Jitter of 1e-10 is added to the diagonal at most three times before a
    NumericalError is raised with the given context string.
    """
    mat = a
    for attempt in range(_MAX_JITTER_TRIES + 1):
        try:
            return np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            if attempt == _MAX_JITTER_TRIES:
                break
            mat = mat + _JITTER * np.eye(a.shape[-1])
    raise NumericalError(
        f"matrix not positive definite after jitter{': ' + context if context else ''}"
    )


def chol_inverse(chol_lower: np.ndarray) -> np.ndarray:
    eye = np.eye(chol_lower.shape[0])
    return scipy.linalg.cho_solve((chol_lower, True), eye, check_finite=False)


def batched_cholesky(a: np.ndarray, context) -> np.ndarray:
    """Lower Cholesky factors of a (k, s, s) stack in one batched call.

    Falls back to :func:`chol_factor` entry by entry when the stack holds a
    matrix that is not positive definite, so the jitter retries apply and
    the error carries ``context(j)`` for the first failing entry j.
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return np.stack([chol_factor(m, context=context(j)) for j, m in enumerate(a)])


def path_precision(
    panel: TimeSeriesPanel,
    eq_prec: np.ndarray,
    eq_info: np.ndarray,
    trans_block: np.ndarray,
    origin_prec: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Banded precision Q and information vector b of the factor path z.

    Window t = 1..T of z, (f_t, x_{t-1}), carries the (r+s)-square
    ``trans_block`` plus, on its leading state x_t, the data precision
    sum_i mask_ti eq_prec[i] (zero at a time step without data); the last
    window adds ``origin_prec`` on x_0.  The per-step information vector
    sum_i mask_ti y_ti eq_info[i] lands on the slice of x_t.

    Returns the lower band of Q, (r + s, r T + s) with Q[i, j] at
    [i - j, j], the vector b (r T + s,) and the per-step information
    vectors (T, s).
    """
    T = panel.T
    n, s = eq_info.shape
    width = trans_block.shape[0]
    r = width - s
    obs_prec = (panel.mask_float @ eq_prec.reshape(n, s * s)).reshape(T, s, s)
    obs_info = panel.zero_filled @ eq_info

    windows = np.broadcast_to(trans_block, (T, width, width)).copy()
    windows[:, :s, :s] += obs_prec[::-1]
    windows[-1, r:, r:] += origin_prec
    # Window k = T - t starts at coordinate r k.
    band = np.zeros((width, r * T + s))
    info = np.zeros(r * T + s)
    for j in range(width):
        for d in range(width - j):
            band[d, j : j + r * T : r] += windows[:, j + d, j]
    for j in range(s):
        info[j : j + r * T : r] += obs_info[::-1, j]
    return band, info, obs_info


def band_cholesky(band: np.ndarray, r: int) -> np.ndarray:
    """Lower banded Cholesky factor of a path precision (one ``dpbtrf`` call).

    Raises
    ------
    NumericalError
        If the precision is not positive definite (names the time step of
        the first coordinate whose leading minor fails).
    """
    chol, fail = scipy.linalg.lapack.dpbtrf(band, lower=1)
    if fail:
        T = (band.shape[1] - band.shape[0]) // r + 1
        raise NumericalError(
            f"state precision not positive definite at time step {T - (fail - 1) // r}"
        )
    return chol


def path_states(z: np.ndarray, r: int, s: int) -> np.ndarray:
    """The (T+1, s) states x_0..x_T of a path z, as a read-only view."""
    return sliding_window_view(z, s)[::r][::-1]


def _selected_inverse(chol: np.ndarray) -> np.ndarray:
    """Entries of Q^-1 inside the band of its Cholesky factor L.

    The Takahashi recursion: with S = Q^-1, L' S = L^-1 is upper triangular
    with diagonal 1 / L_jj, so for i >= j
    S_ij = delta_ij / L_jj^2 - sum_{k > j} L_kj S_ik / L_jj.  Working from
    the last column back, the sum needs only entries of S inside the band.
    ``chol`` and the result use lower band storage, S[i, j] at [i - j, j].
    The recursion runs on Python floats: a column needs at most (r + s)^2
    multiply-adds, too few to pay for numpy calls.
    """
    width, size = chol.shape
    cols = chol.T.tolist()
    sel = [None] * size
    for j in range(size - 1, -1, -1):
        ell = cols[j]
        inv = 1.0 / ell[0]
        m = min(width - 1, size - 1 - j)
        col = [0.0] * width
        for a in range(1, m + 1):
            acc = 0.0
            for b in range(1, a + 1):
                acc += ell[b] * sel[j + b][a - b]
            for b in range(a + 1, m + 1):
                acc += ell[b] * sel[j + a][b - a]
            col[a] = -inv * acc
        acc = 0.0
        for b in range(1, m + 1):
            acc += ell[b] * col[b]
        col[0] = inv * (inv - acc)
        sel[j] = col
    return np.array(sel).T


@dataclass(frozen=True)
class SsmParams:
    """Path precision of the variational state density for one parameter setting.

    ``band``/``info`` are Q and b from :func:`path_precision`; ``y_star``
    holds the (T, s) per-step information vectors summed into b, so
    ``y_star.shape[0]`` is the number of time steps; ``data_quad`` is
    sum_ti mask_ti y_ti^2 / tau_i, the data part of the objective.
    """

    band: np.ndarray  # (r + s, r T + s)
    info: np.ndarray  # (r T + s,)
    y_star: np.ndarray  # (T, s)
    data_quad: float
    r: int

    @property
    def T(self) -> int:
        return self.y_star.shape[0]

    @property
    def s(self) -> int:
        return self.band.shape[0] - self.r


@dataclass(frozen=True)
class FilterResult:
    """Banded factor of Q, the mean path, log|Q| and b' Q^-1 b."""

    chol: np.ndarray  # (r + s, r T + s), lower band storage
    mean: np.ndarray  # (T+1, s), index 0 is the origin state
    prec_logdet: float
    info_quad: float


@dataclass(frozen=True)
class StateMoments:
    """Moments of the variational state density.

    ``lag_one[t-1]`` holds E[f_t x_{t-1}'] (top-r rows of the cross second
    moment) for t = 1..T; ``prec_logdet`` and ``info_quad`` are log|Q| and
    b' Q^-1 b of the path precision, which the objective uses.
    """

    mean: np.ndarray  # (T+1, s)
    cov: np.ndarray  # (T+1, s, s)
    second_moment: np.ndarray  # (T+1, s, s)
    lag_one: np.ndarray  # (T, r, s)
    prec_logdet: float
    info_quad: float


def build_collapsed_system(
    panel: TimeSeriesPanel,
    loading_mean: np.ndarray,
    loading_covs: np.ndarray,
    noise_prec: np.ndarray,
    trans_mean: np.ndarray,
    trans_cov: np.ndarray,
    init_state_cov: np.ndarray,
) -> SsmParams:
    """Assemble the path precision of the variational state density.

    Expected over the parameter density, equation i contributes precision
    mu_i mu_i' / tau_i + V_i and information mu_i / tau_i per available
    cell, and every transition window the block
    E[A'A] = [[I, -M], [-M', M'M + r V]], A = [I, -Phi].  The origin
    carries the inverse prior state covariance.  The name is the one the
    benchmark's tracer times; nothing is collapsed.
    """
    r = trans_mean.shape[0]
    eq_info = loading_mean * noise_prec[:, None]
    eq_prec = eq_info[:, :, None] * loading_mean[:, None, :] + loading_covs
    resid = np.hstack([np.eye(r), -trans_mean])
    trans_block = resid.T @ resid
    trans_block[r:, r:] += r * trans_cov
    band, info, y_star = path_precision(
        panel, eq_prec, eq_info, trans_block, np.linalg.inv(init_state_cov)
    )
    return SsmParams(
        band=band,
        info=info,
        y_star=y_star,
        data_quad=float(panel.sums_of_squares @ noise_prec),
        r=r,
    )


def kalman_filter(params: SsmParams) -> FilterResult:
    """Factor the path precision once and solve for the mean path.

    The name is the one the benchmark's tracer times; there is no forward
    recursion, only one banded Cholesky and one banded solve.
    """
    chol = band_cholesky(params.band, params.r)
    z = scipy.linalg.cho_solve_banded((chol, True), params.info, check_finite=False)
    return FilterResult(
        chol=chol,
        mean=path_states(z, params.r, params.s).copy(),
        prec_logdet=2.0 * float(np.log(chol[0]).sum()),
        info_quad=float(params.info @ z),
    )


def kalman_smoother(filt: FilterResult, params: SsmParams) -> StateMoments:
    """State moments from a selected inversion of the banded factor.

    The marginal covariance of x_t spans s consecutive coordinates of z and
    Cov[f_t, x_{t-1}] spans r + s, so both lie inside the band of Q^-1 that
    :func:`_selected_inverse` computes.  The name is the one the
    benchmark's tracer times.
    """
    r, s, T = params.r, params.s, params.T
    sel = _selected_inverse(filt.chol)
    # x_t starts at coordinate r (T - t); S[i, k] sits at [|i - k|, min(i, k)].
    a = np.arange(s)
    base = r * (T - np.arange(T + 1))
    cov = sel[np.abs(a[:, None] - a), base[:, None, None] + np.minimum(a[:, None], a)]
    top = np.arange(r)[:, None]
    lag_cov = sel[r + a - top, base[1:, None, None] + top]

    mean = filt.mean
    return StateMoments(
        mean=mean,
        cov=cov,
        second_moment=symmetrize(cov + mean[:, :, None] * mean[:, None, :]),
        lag_one=lag_cov + mean[1:, :r, None] * mean[:-1, None, :],
        prec_logdet=filt.prec_logdet,
        info_quad=filt.info_quad,
    )
