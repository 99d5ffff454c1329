"""Model dimensions, prior specification and identification restrictions.

The state vector stacks the current factors and their first p lags, so the
static state dimension is always s = r(p + 1).  Priors follow a conjugate
layout: per-equation Gaussian loadings scaled by an inverse-chi-square
noise variance, a matrix-normal transition block, and a Gaussian origin
state.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import DomainError


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PriorSpec:
    """Prior hyperparameters, held as read-only float copies.

    The constants derived from them (the origin precision and the
    log-determinants the objective uses) are computed once, on first use.

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
        for field in fields(self):
            value = np.array(getattr(self, field.name), dtype=float)
            object.__setattr__(self, field.name, _read_only(value))

    @cached_property
    def init_state_prec(self) -> np.ndarray:
        """Inverse origin covariance, the precision the state path starts from."""
        return _read_only(np.linalg.inv(self.init_state_cov))

    @cached_property
    def init_state_logdet(self) -> float:
        """log|F0| of the origin covariance."""
        return float(np.linalg.slogdet(self.init_state_cov)[1])

    @cached_property
    def trans_prec_logdet(self) -> float:
        """log|W^-1| of the transition column precision."""
        return float(np.linalg.slogdet(self.trans_prec)[1])

    def free_blocks(self, free: np.ndarray) -> tuple[Restrictions, np.ndarray]:
        """Zero restrictions of an (n, s) free mask, with the masks they cache,
        and log|V^-1| of the free block of V^-1 for each row.

        Both are kept for the last mask passed: a fit passes the same mask at
        every iteration.
        """
        key = (free.shape, free.tobytes())
        kept = self.__dict__.get("_free_blocks")
        if kept is None or kept[0] != key:
            masks = Restrictions(free, ())
            logdets = _read_only(np.linalg.slogdet(masks.pad(self.loading_prec))[1])
            kept = (key, masks, logdets)
            # A frozen dataclass: store beside the fields, as cached_property does.
            self.__dict__["_free_blocks"] = kept
        return kept[1], kept[2]


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
    return validate_prior(
        PriorSpec(
            loading_prec=v_inv,
            trans_prec=w_inv,
            init_state_cov=np.eye(spec.s),
            noise_df=np.full(spec.n, float(nu)),
            noise_scale=np.full(spec.n, float(tau2)),
        ),
        spec,
    )


def validate_prior(prior: PriorSpec, spec: ModelSpec) -> PriorSpec:
    """Check dimensions and definiteness, returning a normalized copy.

    Symmetry is enforced by averaging with the transpose.  PSD of the
    precisions is verified through an eigenvalue bound and PD of the origin
    covariance through a Cholesky factorization.  Improper priors (zero
    degrees of freedom or scales) are rejected since they leave the
    objective undefined.
    """
    s, n = spec.s, spec.n
    v_inv = np.asarray(prior.loading_prec, dtype=float)
    w_inv = np.asarray(prior.trans_prec, dtype=float)
    f0 = np.asarray(prior.init_state_cov, dtype=float)
    nu = np.asarray(prior.noise_df, dtype=float)
    tau2 = np.asarray(prior.noise_scale, dtype=float)
    for name, mat in (("loading_prec", v_inv), ("trans_prec", w_inv), ("init_state_cov", f0)):
        if mat.shape != (s, s):
            raise DomainError(f"{name} must be {s} x {s}, got {mat.shape}")
    if nu.shape != (n,) or tau2.shape != (n,):
        raise DomainError(f"noise_df and noise_scale must have length {n}")
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
    return PriorSpec(
        loading_prec=v_inv,
        trans_prec=w_inv,
        init_state_cov=f0,
        noise_df=nu,
        noise_scale=tau2,
    )


@dataclass(frozen=True)
class Restrictions:
    """Loading restrictions pinning the factor rotation.

    ``free[i, k]`` is False where the loading of variable i on state
    coordinate k is constrained to zero; ``positive`` lists (variable,
    state coordinate) pairs whose loading must be positive.  The masks
    derived from them are computed once, on first use, and are read-only.
    """

    free: np.ndarray
    positive: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "free", _read_only(np.array(self.free, dtype=bool)))
        object.__setattr__(
            self, "positive", tuple((int(i), int(k)) for i, k in self.positive)
        )

    @cached_property
    def free_pairs(self) -> np.ndarray:
        """(n, s, s) mask of the entries inside each row's free block."""
        return _read_only(self.free[:, :, None] & self.free[:, None, :])

    @cached_property
    def padding(self) -> np.ndarray:
        """(n, s, s) identity on each row's restricted coordinates, else zero."""
        return _read_only(np.eye(self.free.shape[1]) * ~self.free[:, None, :])

    @cached_property
    def half_free(self) -> np.ndarray:
        """(n,) half the number of free coordinates in each row."""
        return _read_only(0.5 * self.free.sum(axis=1))

    @cached_property
    def anchors(self) -> np.ndarray:
        """(k, 2) (variable, coordinate) rows of the sign restrictions, one
        per variable (the last listed wins)."""
        pairs = list(dict(self.positive).items())
        return _read_only(np.array(pairs, dtype=int).reshape(-1, 2))

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
    restrictions = Restrictions(free=free, positive=tuple(anchors))
    _check_one_anchor_each(restrictions, spec.r)
    return restrictions


def factor_signs(flips: np.ndarray, s: int) -> np.ndarray:
    """(s,) state-coordinate signs of flipping the factors an (r,) bool mask
    marks: -1 on every lag of each flipped factor, +1 elsewhere."""
    return np.where(np.tile(flips, s // len(flips)), -1.0, 1.0)


def _check_one_anchor_each(restrictions: Restrictions, r: int) -> None:
    """Raise DomainError if a factor or a variable anchors more than once."""
    variables = [var for var, _ in restrictions.positive]
    factors = [coord % r for _, coord in restrictions.positive]
    for fac in factors:
        if factors.count(fac) > 1:
            raise DomainError(f"factor {fac} anchored more than once")
    for var in variables:
        if variables.count(var) > 1:
            raise DomainError(f"variable {var} anchors more than one factor")


def check_sign_fold(prior: PriorSpec, restrictions: Restrictions, r: int) -> None:
    """Raise DomainError unless folding onto the anchors is exact.

    The fit's sign alignment and the chain's fold flip each anchored factor
    whose anchor loading is negative.  That leaves the posterior unchanged
    only if each factor and each variable anchors at most once and the
    prior is invariant under the flip (sign matrix D): D M D = M for M each
    of ``loading_prec``, ``trans_prec`` and ``init_state_cov``.
    """
    _check_one_anchor_each(restrictions, r)
    for k in restrictions.anchors[:, 1] % r:
        signs = factor_signs(np.arange(r) == k, prior.loading_prec.shape[0])
        for name in ("loading_prec", "trans_prec", "init_state_cov"):
            m = getattr(prior, name)
            if not np.array_equal(signs[:, None] * m * signs, m):
                raise DomainError(
                    f"prior {name} couples anchored factor {k} with another factor; "
                    "the sign fold needs a prior invariant under flipping it"
                )
