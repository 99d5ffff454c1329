"""Synthetic panel generation: the generative model and its missingness.

Draws a panel and its true state paths from given parameters, or from a
stationary convenience configuration, and blanks cells by composable
missingness patterns.  Needs numpy only; the brute-force test oracles
that check the estimators against these panels are in ``dfmvi.oracles``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import ModelSpec
from .panel import TimeSeriesPanel



@dataclass(frozen=True)
class RandomMissing:
    """Blank each cell independently with the given probability."""

    rate: float


@dataclass(frozen=True)
class RaggedEdge:
    """Blank variable i after its cutoff: cells with t > cutoffs[i] (1-based)."""

    cutoffs: dict[int, int]


@dataclass(frozen=True)
class PeriodicMissing:
    """Keep variable i only every strides[i]-th period (t = k, 2k, ...)."""

    strides: dict[int, int]


@dataclass(frozen=True)
class SimConfig:
    """Generative configuration: true parameters, length, missingness, seed."""

    spec: ModelSpec
    loadings: np.ndarray  # (n, s)
    noise_var: np.ndarray  # (n,)
    trans: np.ndarray  # (r, s)
    T: int
    missing: tuple = ()
    seed: int = 0
    init_cov: np.ndarray = None
    require_stationary: bool = False


def companion(trans: np.ndarray) -> np.ndarray:
    """Companion-form transition: the r x s block on top, shifted identity below."""
    r, s = trans.shape
    out = np.zeros((s, s))
    out[:r, :] = trans
    out[r:, : s - r] = np.eye(s - r)
    return out


def state_noise_cov(r: int, s: int) -> np.ndarray:
    """Covariance of the state innovation: identity on the top r coordinates."""
    q = np.zeros((s, s))
    q[:r, :r] = np.eye(r)
    return q


def spectral_radius(trans: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(companion(trans))).max())


def _check_per_variable(what: str, values: dict, n: int, least: int) -> None:
    """Reject a variable index outside [0, n) or a value below ``least``."""
    for i, v in values.items():
        if not 0 <= i < n:
            raise DomainError(f"{what}: variable {i} outside [0, {n})")
        if v < least:
            raise DomainError(f"{what} {v} for variable {i} is below {least}")


def _apply_missing(mask: np.ndarray, patterns, rng) -> np.ndarray:
    T, n = mask.shape
    out = mask.copy()
    for pat in patterns:
        if isinstance(pat, RandomMissing):
            if not 0.0 <= pat.rate < 1.0:  # also false for NaN
                raise DomainError(f"missing rate {pat.rate!r} outside [0, 1)")
            out &= rng.random((T, n)) >= pat.rate
        elif isinstance(pat, RaggedEdge):
            _check_per_variable("ragged-edge cutoff", pat.cutoffs, n, 0)
            for i, cutoff in pat.cutoffs.items():
                out[cutoff:, i] = False
        elif isinstance(pat, PeriodicMissing):
            _check_per_variable("periodic stride", pat.strides, n, 1)
            for i, stride in pat.strides.items():
                keep = (np.arange(1, T + 1) % stride) == 0
                out[~keep, i] = False
        else:
            raise DomainError(f"unknown missingness pattern {pat!r}")
    return out


def simulate_dfm(config: SimConfig) -> tuple[TimeSeriesPanel, np.ndarray]:
    """Draw a panel from the generative model and blank cells per config.

    Returns the panel and the true state paths (T+1, s) for diagnostics.
    """
    spec = config.spec
    n, r, s = spec.n, spec.r, spec.s
    loadings = np.asarray(config.loadings, dtype=float)
    noise_var = np.asarray(config.noise_var, dtype=float)
    trans = np.asarray(config.trans, dtype=float)
    if loadings.shape != (n, s) or noise_var.shape != (n,) or trans.shape != (r, s):
        raise DomainError("parameter shapes inconsistent with the model spec")
    if np.any(noise_var <= 0):
        raise DomainError("noise variances must be positive")
    if config.require_stationary and spectral_radius(trans) >= 1.0:
        raise DomainError("transition is explosive but stationarity was requested")
    init_cov = np.eye(s) if config.init_cov is None else np.asarray(config.init_cov)

    rng = np.random.default_rng(config.seed)
    states = np.zeros((config.T + 1, s))
    states[0] = np.linalg.cholesky(init_cov) @ rng.standard_normal(s)
    for t in range(1, config.T + 1):
        shock = rng.standard_normal(r)
        states[t, :r] = trans @ states[t - 1] + shock
        states[t, r:] = states[t - 1, : s - r]

    eps = rng.standard_normal((config.T, n)) * np.sqrt(noise_var)
    values = states[1:] @ loadings.T + eps
    mask = _apply_missing(np.ones((config.T, n), dtype=bool), config.missing, rng)
    panel = TimeSeriesPanel(
        values=np.where(mask, values, np.nan),
        mask=mask,
        names=[f"var{i + 1}" for i in range(n)],
    )
    return panel, states


def stationary_sim_config(
    spec: ModelSpec,
    T: int,
    seed: int = 0,
    missing: tuple = (),
) -> SimConfig:
    """Convenience DGP: stationary transition, unit-scale loadings.

    The first variable of each factor gets a unit contemporaneous loading
    and no other, so the same variable can serve as an identification
    anchor, which needs r <= n.
    """
    n, r, s = spec.n, spec.r, spec.s
    if r > n:
        raise DomainError(
            f"one anchor series per factor needs r <= n, got r = {r}, n = {n}"
        )
    rng = np.random.default_rng(seed + 982451653)
    while True:
        trans = rng.uniform(-0.4, 0.8, size=(r, s))
        trans[:, : r * spec.p] *= 0.3  # keep higher-lag pull mild
        if spectral_radius(trans) < 0.95:
            break
        trans *= 0.8
        if spectral_radius(trans) < 0.95:
            break
    loadings = rng.normal(0.0, 0.7, size=(n, s))
    for j in range(r):
        loadings[j, :] = 0.0
        loadings[j, j] = 1.0
    noise_var = rng.uniform(0.3, 1.0, size=n)
    return SimConfig(
        spec=spec,
        loadings=loadings,
        noise_var=noise_var,
        trans=trans,
        T=T,
        missing=missing,
        seed=seed,
        require_stationary=True,
    )
