"""Model dimensions, prior specification and identification restrictions.

The state vector stacks the current factors and their first p lags, so the
static state dimension is always s = r(p + 1).  Priors follow a conjugate
layout: per-equation Gaussian loadings scaled by an inverse-chi-square
noise variance, a matrix-normal transition block, and a Gaussian origin
state.

A ``PriorSpec`` and a ``Restrictions`` check themselves when built; that
they and a panel fit one ``ModelSpec`` is checked by ``vi.run_restrictions``.
Every sign fold onto the anchors, the fit's, the chain start's and each
Gibbs sweep's, takes one rule (:meth:`Restrictions.signs`) and one action
(:func:`flip`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DomainError
from .panel import read_only


@dataclass(frozen=True)
class ModelSpec:
    """Dimensions of the factor model: n series, r factors, p loading lags."""

    n: int
    r: int
    p: int

    def __post_init__(self):
        if self.n < 1 or self.r < 1 or self.p < 0:
            raise DomainError("require n >= 1, r >= 1, p >= 0")

    @property
    def s(self) -> int:
        """Static state dimension r(p + 1)."""
        return self.r * (self.p + 1)


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters, held as read-only float copies.

    Built only if the matrices share one size and the vectors one length
    and all are finite, proper and definite as listed below (else
    DomainError); the matrices are symmetrized.  The constants derived from
    them (the origin precision and the log-determinants the objective uses)
    are computed once, on first use.

    Attributes
    ----------
    loading_prec : (s, s) PSD precision of each loading row (given its
        noise variance).
    trans_prec : (s, s) PSD column precision of the transition block.
    init_state_cov : (s, s) PD covariance of the origin state.
    noise_df : (n,) positive prior degrees of freedom of the noise variances.
    noise_scale : (n,) positive prior scales of the noise variances.
    """

    loading_prec: np.ndarray
    trans_prec: np.ndarray
    init_state_cov: np.ndarray
    noise_df: np.ndarray
    noise_scale: np.ndarray

    def __post_init__(self):
        v_inv, w_inv, f0, nu, tau2 = (
            np.array(getattr(self, field.name), dtype=float) for field in fields(self)
        )
        s = max(len(v_inv), 1) if v_inv.ndim else 1
        for name, mat in (("loading_prec", v_inv), ("trans_prec", w_inv), ("init_state_cov", f0)):
            if mat.shape != (s, s):
                raise DomainError(f"{name} must be {s} x {s}, got {mat.shape}")
        if nu.ndim != 1 or not len(nu) or tau2.shape != nu.shape:
            raise DomainError(
                f"noise_df and noise_scale must have one length, got {nu.shape} "
                f"and {tau2.shape}"
            )
        for field, value in zip(fields(self), (v_inv, w_inv, f0, nu, tau2)):
            if not np.isfinite(value).all():
                raise DomainError(f"{field.name} must be finite")
        if np.any(nu <= 0) or np.any(tau2 <= 0):
            raise DomainError(
                "noise_df and noise_scale must be strictly positive; "
                "improper priors leave the objective undefined"
            )
        v_inv = 0.5 * (v_inv + v_inv.T)
        w_inv = 0.5 * (w_inv + w_inv.T)
        f0 = 0.5 * (f0 + f0.T)
        tol = 1e-10 * max(1.0, float(np.abs(v_inv).max()), float(np.abs(w_inv).max()))
        if np.linalg.eigvalsh(v_inv).min() < -tol:
            raise DomainError("loading_prec is not positive semidefinite")
        if np.linalg.eigvalsh(w_inv).min() < -tol:
            raise DomainError("trans_prec is not positive semidefinite")
        try:
            np.linalg.cholesky(f0)
        except np.linalg.LinAlgError:
            raise DomainError("init_state_cov is not positive definite") from None
        for field, value in zip(fields(self), (v_inv, w_inv, f0, nu, tau2)):
            object.__setattr__(self, field.name, read_only(value))

    @cached_property
    def init_state_prec(self) -> np.ndarray:
        """Inverse origin covariance, the precision the state path starts from."""
        return read_only(np.linalg.inv(self.init_state_cov))

    @cached_property
    def init_state_logdet(self) -> float:
        """log|F0| of the origin covariance."""
        return float(np.linalg.slogdet(self.init_state_cov)[1])

    @cached_property
    def trans_prec_logdet(self) -> float:
        """log|W^-1| of the transition column precision."""
        return float(np.linalg.slogdet(self.trans_prec)[1])


def minnesota_prior(
    spec: ModelSpec,
    eta_lambda: float = 1.0,
    eta_phi: float = 1.0,
    ell_lambda: float = 2.0,
    ell_phi: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal shrinkage precisions with overall tightness and lag decay.

    Returns the pair (loading precision, transition precision).  Each is
    block diagonal with one scalar per lag block: lag block k (zero-based)
    carries weight eta * (k + 1)**ell on all r of its diagonal entries, so
    within each lag block the entries are equal.  Both matrices are
    diagonal, which keeps the prior invariant under factor rotations.

    Raises
    ------
    DomainError
        If an overall tightness is not positive or a lag decay is <= 1.
    """
    if eta_lambda <= 0 or eta_phi <= 0:
        raise DomainError("overall shrinkage parameters must be positive")
    if ell_lambda <= 1 or ell_phi <= 1:
        raise DomainError("lag-decay parameters must exceed 1")
    lags = np.arange(1, spec.p + 2, dtype=float)
    v_inv = eta_lambda * np.kron(np.diag(lags**ell_lambda), np.eye(spec.r))
    w_inv = eta_phi * np.kron(np.diag(lags**ell_phi), np.eye(spec.r))
    return v_inv, w_inv


def default_prior(
    spec: ModelSpec,
    eta_lambda: float = 1.0,
    eta_phi: float = 1.0,
    ell_lambda: float = 2.0,
    ell_phi: float = 2.0,
    nu: float = 1.0,
    tau2: float = 1.0,
) -> PriorSpec:
    """Minnesota precisions, identity origin covariance, unit noise prior."""
    v_inv, w_inv = minnesota_prior(spec, eta_lambda, eta_phi, ell_lambda, ell_phi)
    return PriorSpec(
        loading_prec=v_inv,
        trans_prec=w_inv,
        init_state_cov=np.eye(spec.s),
        noise_df=np.full(spec.n, float(nu)),
        noise_scale=np.full(spec.n, float(tau2)),
    )


@dataclass(frozen=True)
class Restrictions:
    """Loading restrictions pinning the factor rotation.

    ``free[i, k]`` is False where the loading of variable i on state
    coordinate k is constrained to zero; ``positive`` lists (variable,
    state coordinate) pairs whose loading must be positive, at most one per
    variable; each must index a free entry of ``free``, else DomainError.
    The masks derived from them are computed once, on first use, and are
    read-only.
    """

    free: np.ndarray
    positive: tuple[tuple[int, int], ...]

    def __post_init__(self):
        free = read_only(np.array(self.free, dtype=bool))
        if free.ndim != 2:
            raise DomainError(f"free must be an n x s mask, got shape {free.shape}")
        positive = tuple((int(i), int(k)) for i, k in self.positive)
        variables = [i for i, _ in positive]
        for i in variables:
            if variables.count(i) > 1:
                raise DomainError(f"variable {i} anchors more than one factor")
        for i, k in positive:
            if not (0 <= i < free.shape[0] and 0 <= k < free.shape[1]):
                raise DomainError(
                    f"anchor ({i}, {k}) lies outside the {free.shape[0]} x "
                    f"{free.shape[1]} loading mask"
                )
            if not free[i, k]:
                raise DomainError(f"anchor ({i}, {k}) is on a zero-restricted loading")
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "positive", positive)

    @cached_property
    def free_pairs(self) -> np.ndarray:
        """(n, s, s) mask of the entries inside each row's free block."""
        return read_only(self.free[:, :, None] & self.free[:, None, :])

    @cached_property
    def padding(self) -> np.ndarray:
        """(n, s, s) identity on each row's restricted coordinates, else zero."""
        return read_only(np.eye(self.free.shape[1]) * ~self.free[:, None, :])

    @cached_property
    def anchors(self) -> np.ndarray:
        """(k, 2) (variable, coordinate) rows of the sign restrictions."""
        return read_only(np.array(self.positive, dtype=int).reshape(-1, 2))

    def signs(self, loading_mean: np.ndarray, r: int) -> np.ndarray | None:
        """(s,) signs folding the (n, s) ``loading_mean`` onto the anchors: -1
        on every lag of each anchored factor whose anchor loading is negative,
        +1 elsewhere; None when nothing folds.

        The one sign rule of the fit's final alignment, the chain's start and
        every Gibbs sweep; :func:`flip` applies it.
        """
        anchors = self.anchors
        negative = loading_mean[anchors[:, 0], anchors[:, 1]] < 0
        if not negative.any():
            return None
        signs = np.ones(r)
        signs[anchors[negative, 1] % r] = -1.0
        return signs[np.arange(loading_mean.shape[1]) % r]

    def restrict(self, a: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Zero every entry of an (n, s, s) stack outside row i's free block.

        ``rows`` selects the rows of the restrictions that ``a`` stacks.
        """
        return np.where(self.free_pairs[rows], a, 0.0)

    def pad(self, a: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Free block of ``a`` per row, identity on the restricted coordinates.

        After a permutation each matrix is then block diagonal with an
        identity block, so its log-determinant, Cholesky factor and solves on
        the free coordinates are exactly those of the free block.
        """
        return self.restrict(a, rows) + self.padding[rows]


def identification_restrictions(
    spec: ModelSpec, anchors: list[tuple[int, int]]
) -> Restrictions:
    """Anchor-variable identification scheme.

    Each (variable, factor) anchor zeroes all loadings of that variable
    except its contemporaneous loading on the anchored factor, and
    constrains that loading to be positive.  One anchor per factor pins the
    rotation up to nothing at all (sign flips included).
    """
    free = np.ones((spec.n, spec.s), dtype=bool)
    for var, fac in anchors:
        if not (0 <= var < spec.n) or not (0 <= fac < spec.r):
            raise DomainError(f"anchor ({var}, {fac}) out of range")
        free[var, :] = False
        free[var, fac] = True
    return Restrictions(free=free, positive=tuple(anchors))


def flip(signs: np.ndarray, a: np.ndarray, rows: int = 0, free=None) -> np.ndarray:
    """``a`` with its factors flipped by the (s,) ``signs`` D.

    The last axis is multiplied by D and, if ``rows`` > 0, the one before it
    by D's first ``rows`` entries: a D for loadings and states, D_r a D for a
    transition (rows = r), D a D for a covariance (rows = s).  Given a loading
    mask ``free``, entries outside it and exact zeros are +0.0 (0.0 times -1
    is -0.0).  The only code that multiplies by a sign vector.
    """
    a = a * (signs[:rows, None] * signs if rows else signs)
    return a if free is None else np.where(free, a, 0.0) + 0.0


def check_sign_fold(prior: PriorSpec, restrictions: Restrictions, r: int) -> None:
    """Raise DomainError unless folding onto the anchors is exact.

    The fit's final alignment, the chain's start and every sweep flip the
    factors :meth:`Restrictions.signs` marks.  That leaves the posterior
    unchanged only if each factor anchors at most once (each variable does, by
    construction) and the prior is invariant under the flip (sign matrix D):
    D M D = M for M each of ``loading_prec``, ``trans_prec`` and
    ``init_state_cov``.
    """
    factors = restrictions.anchors[:, 1] % r
    for k in factors:
        if np.count_nonzero(factors == k) > 1:
            raise DomainError(f"factor {k} anchored more than once")
    for k in factors:
        signs = np.where(np.arange(prior.loading_prec.shape[0]) % r == k, -1.0, 1.0)
        for name in ("loading_prec", "trans_prec", "init_state_cov"):
            m = getattr(prior, name)
            if not np.array_equal(flip(signs, m, len(m)), m):
                raise DomainError(
                    f"prior {name} couples anchored factor {k} with another factor; "
                    "the sign fold needs a prior invariant under flipping it"
                )
