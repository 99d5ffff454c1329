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
  :func:`kalman_filter` factors Q = L L' once and solves Q z = b, and
  returns the two arrays; :func:`kalman_smoother` reads the mean path,
  log|Q| and b' Q^-1 b off them, which is all the objective needs of the
  path precision, and reads the factor as an affine recursion
  x_t = K_t x_{t-1} + noise over time to get the marginal and lag-one
  covariance blocks from one associative (odd-even) scan over its steps
  (Sarkka and Garcia-Fernandez, IEEE TAC 2021), about 2 log2 T batched
  products instead of a loop over the path coordinates.

A time step without data, the last one included, adds no data precision
and needs no special case.  The dense and augmented-filter oracles that
validate this module are test code, in ``tests/oracles.py``.

The origin precision is an argument, so callers pass the one their prior
caches (``PriorSpec.init_state_prec``) instead of inverting the origin
covariance per call.  Factorizations and solves call LAPACK through scipy
(``dpbtrf``, ``dpbtrs``, ``dpotrs``) without its checking wrappers, and
``np.linalg`` where numpy factors.  Keep each in its library: numpy's and
scipy's Cholesky factors can differ in the last bits, which changes the
draws.  scipy's LAPACK module is imported on the first factorization, so
importing this module loads numpy only.  One triangular inverse,
forward substitution in numpy (:func:`lower_inverse`), serves the
smoother's diagonal blocks and the batched Cholesky factors of the loading
regressions (``vi.loading_posterior``).  It is as stable as the LU route
(Higham 2002, ch. 8), and on 1 x 1 blocks it is the reciprocal, bit for
bit what ``np.linalg.inv`` gives.

Conventions: time-major arrays; index t = 0 is the pre-sample state, data
run t = 1..T.  ``y_star[t-1]`` refers to time t.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NumericalError
from .panel import TimeSeriesPanel, read_only

_JITTER = 1e-10
_MAX_JITTER_TRIES = 3


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Average a (stack of) square matrices with their transpose."""
    return 0.5 * (a + a.swapaxes(-1, -2))


def chol_factor(a: np.ndarray, context: str) -> np.ndarray:
    """Lower Cholesky factor of a matrix, or of a (k, s, s) stack in one
    batched call, retrying each matrix that is not positive definite with
    1e-10 added to its diagonal at most three times; then NumericalError names
    ``context`` (in a stack followed by the index of the failing entry).
    """
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        if a.ndim == 3:
            return np.stack([chol_factor(m, f"{context} {j}") for j, m in enumerate(a)])
    mat = a
    for _ in range(_MAX_JITTER_TRIES):
        mat = mat + _JITTER * np.eye(a.shape[-1])
        try:
            return np.linalg.cholesky(mat)
        except np.linalg.LinAlgError:
            pass
    raise NumericalError(f"matrix not positive definite after jitter: {context}")


@cache
def _lapack():
    """scipy's LAPACK module, imported on first use."""
    from scipy.linalg import lapack

    return lapack


def _check_solve(info: int, routine: str) -> None:
    if info:
        raise ValueError(f"illegal value in argument {-info} of LAPACK {routine}")


def chol_inverse(chol_lower: np.ndarray) -> np.ndarray:
    """Inverse of L L' from its lower Cholesky factor (one ``dpotrs`` call)."""
    eye = np.eye(chol_lower.shape[0])
    inv, info = _lapack().dpotrs(chol_lower, eye, lower=1, overwrite_b=1)
    _check_solve(info, "dpotrs")
    return inv


def band_solve(chol: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve Q x = rhs from the lower banded Cholesky factor of Q (``dpbtrs``)."""
    x, info = _lapack().dpbtrs(chol, rhs, lower=1)
    _check_solve(info, "dpbtrs")
    return x


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

    # windows[:, :, k] is window k = T - t, which starts at coordinate r k;
    # time runs along the last axis, so each update is one pass over T.
    windows = np.empty((width, width, T))
    windows[:] = trans_block[:, :, None]
    windows[:s, :s] += obs_prec[::-1].transpose(1, 2, 0)
    windows[r:, r:, -1] += origin_prec
    band = np.zeros((width, r * T + s))
    info = np.zeros(r * T + s)
    for j in range(width):
        # Column j of every window: its entry [j + d, j] is Q at [d, r k + j].
        band[: width - j, j : j + r * T : r] += windows[j:, j]
    for j in range(s):
        info[j : j + r * T : r] += obs_info[::-1, j]
    return band, info, obs_info


def residual_gram(trans: np.ndarray) -> np.ndarray:
    """A'A of the transition residual f_t - Phi x_{t-1}, A = [I, -Phi]."""
    r = trans.shape[0]
    resid = np.concatenate((np.eye(r), -trans), axis=1)
    return resid.T @ resid


def band_cholesky(band: np.ndarray, r: int) -> np.ndarray:
    """Lower banded Cholesky factor of a path precision (one ``dpbtrf`` call).

    Raises
    ------
    NumericalError
        If the precision is not positive definite (names the time step of
        the first coordinate whose leading minor fails).
    """
    chol, fail = _lapack().dpbtrf(band, lower=1)
    if fail:
        T = (band.shape[1] - band.shape[0]) // r + 1
        raise NumericalError(
            f"state precision not positive definite at time step {T - (fail - 1) // r}"
        )
    return chol


def path_states(z: np.ndarray, r: int, s: int) -> np.ndarray:
    """The (T+1, s) states x_0..x_T of a contiguous path z, as one read-only
    strided view.

    x_t starts at coordinate r (T - t), so the rows step back r coordinates.
    """
    T = (z.size - s) // r
    step = z.itemsize
    view = np.ndarray((T + 1, s), z.dtype, z, r * T * step, (-r * step, step))
    return read_only(view)


def _compose_scan(trans: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """All covariances of the recursion S_t = K_t S_{t-1} K_t' + E_t, S_{-1} = 0.

    ``trans`` and ``noise`` stack the steps (K_t, E_t), t = 0..n-1.  Two
    steps compose associatively,
    (K_1, E_1) o (K_2, E_2) = (K_1 K_2, E_1 + K_1 E_2 K_1'),
    so the odd-even scan composes neighbouring pairs, recurses on the
    n // 2 pairs for the odd entries and fills in the even ones from their
    predecessors: about 2 log2 n batched products (Blelloch 1990; Sarkka
    and Garcia-Fernandez 2021).
    """
    n = len(noise)
    if n == 1:
        return noise
    odd, even = trans[1::2], slice(0, n - n % 2, 2)
    out = np.empty_like(noise)
    out[1::2] = _compose_scan(
        odd @ trans[even], noise[1::2] + odd @ noise[even] @ odd.swapaxes(-1, -2)
    )
    out[0] = noise[0]
    step = trans[2::2]
    out[2::2] = noise[2::2] + step @ out[1 : n - 1 : 2] @ step.swapaxes(-1, -2)
    return out


def lower_inverse(d: np.ndarray) -> np.ndarray:
    """Inverses of a (k, r, r) stack of lower-triangular matrices.

    Forward substitution, one entry of the inverse at a time, each vectorised
    over the stack; only the lower triangles of ``d`` are read.
    """
    r = d.shape[-1]
    x = np.zeros_like(d)
    for i in range(r):
        x[:, i, i] = 1.0 / d[:, i, i]
        for j in range(i):
            acc = d[:, i, j] * x[:, j, j]
            for k in range(j + 1, i):
                acc += d[:, i, k] * x[:, k, j]
            x[:, i, j] = -acc / d[:, i, i]
    return x


@dataclass(frozen=True)
class SsmParams:
    """Path precision of the variational state density for one parameter setting.

    ``band``/``info`` are Q and b from :func:`path_precision`; ``y_star``
    holds the (T, s) per-step information vectors summed into b, so
    ``y_star.shape[0]`` is the number of time steps.
    """

    band: np.ndarray  # (r + s, r T + s)
    info: np.ndarray  # (r T + s,)
    y_star: np.ndarray  # (T, s)
    r: int

    @property
    def T(self) -> int:
        return self.y_star.shape[0]

    @property
    def s(self) -> int:
        return self.band.shape[0] - self.r


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
    origin_prec: np.ndarray,
) -> SsmParams:
    """Assemble the path precision of the variational state density.

    Expected over the parameter density, equation i contributes precision
    mu_i mu_i' / tau_i + V_i and information mu_i / tau_i per available
    cell, and every transition window the block
    E[A'A] = [[I, -M], [-M', M'M + r V]], A = [I, -Phi].  The origin
    carries ``origin_prec``, the inverse prior state covariance
    (``PriorSpec.init_state_prec``).  The name is the one the benchmark's
    tracer times; nothing is collapsed.
    """
    r = trans_mean.shape[0]
    eq_info = loading_mean * noise_prec[:, None]
    eq_prec = eq_info[:, :, None] * loading_mean[:, None, :] + loading_covs
    trans_block = residual_gram(trans_mean)
    trans_block[r:, r:] += r * trans_cov
    band, info, y_star = path_precision(
        panel, eq_prec, eq_info, trans_block, origin_prec
    )
    return SsmParams(band=band, info=info, y_star=y_star, r=r)


def kalman_filter(params: SsmParams) -> tuple[np.ndarray, np.ndarray]:
    """Factor the path precision once and solve for the mean path.

    Returns the lower banded Cholesky factor L of Q = L L' and the path
    z = Q^-1 b.  The name is the one the benchmark's tracer times; there is
    no forward recursion, only one banded Cholesky and one banded solve.
    """
    chol = band_cholesky(params.band, params.r)
    return chol, band_solve(chol, params.info)


def kalman_smoother(chol: np.ndarray, z: np.ndarray, params: SsmParams) -> StateMoments:
    """State moments from the banded factor and the solved path.

    The mean path is read off z (:func:`path_states`), log|Q| off the
    diagonal of L, and b' Q^-1 b is b' z.  The covariances come from an
    associative scan over the factor.

    With Q = L L', the path less its mean is L^-T eps for standard normal
    eps.  Column block j = T - t of L holds the r coordinates of f_t: a
    lower-triangular diagonal block D and the s x r block l below it, on
    x_{t-1}.  So f_t = -D^-T l' x_{t-1} + D^-T eps_t, and
    x_t = K_t x_{t-1} + noise with K_t = [[-D^-T l'], [I, 0]] and noise
    covariance E_t = blockdiag((D D')^-1, 0).  The covariances of x_0..x_T follow from
    Cov[x_0] = (L_0 L_0')^-1, L_0 the trailing s x s block, by
    :func:`_compose_scan`, and Cov[f_t, x_{t-1}] is the top r rows of
    K_t Cov[x_{t-1}].

    L[i, k] sits at position i - k + (r + s) k of the band read column by
    column, which is affine in a block's time step, row and column, so the
    blocks are strided views of the factor, as the states are of z: the T
    column blocks of f_t, in the order t = 1..T, and L_0.  Entries above a
    block's diagonal are other entries of L; nothing reads them, since the D
    are inverted by :func:`lower_inverse` and L_0 by ``dpotrs``, which read
    lower triangles only.  The name is the one the benchmark's tracer times.
    """
    r, s, T = params.r, params.s, params.T
    width, step = r + s, chol.itemsize
    flat = chol.ravel(order="F")
    blocks = np.ndarray(
        (T, width, r),
        flat.dtype,
        flat,
        width * r * (T - 1) * step,
        (-width * r * step, step, (width - 1) * step),
    )
    origin = np.ndarray(
        (s, s), flat.dtype, flat, width * r * T * step, (step, (width - 1) * step)
    )

    diag_inv = lower_inverse(blocks[:, :r])
    diag_inv_t = diag_inv.swapaxes(-1, -2)
    trans = np.zeros((T + 1, s, s))
    trans[1:, :r] = -diag_inv_t @ blocks[:, r:].swapaxes(-1, -2)
    trans[1:, r:, : s - r] = np.eye(s - r)
    noise = np.zeros((T + 1, s, s))
    noise[1:, :r, :r] = diag_inv_t @ diag_inv
    noise[0] = chol_inverse(origin)
    cov = symmetrize(_compose_scan(trans, noise))
    lag_cov = trans[1:, :r] @ cov[:-1]

    mean = path_states(z, r, s).copy()
    return StateMoments(
        mean=mean,
        cov=cov,
        second_moment=cov + mean[:, :, None] * mean[:, None, :],
        lag_one=lag_cov + mean[1:, :r, None] * mean[:-1, None, :],
        prec_logdet=2.0 * float(np.log(chol[0]).sum()),
        info_quad=float(params.info @ z),
    )
