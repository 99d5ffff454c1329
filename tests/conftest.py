import numpy as np
import pytest

from dfmvi import vi
from dfmvi.model import ModelSpec, default_prior, identification_restrictions
from dfmvi.panel import TimeSeriesPanel
from dfmvi.sim import simulate_dfm, stationary_sim_config
from dfmvi.statespace import StateMoments


def point_mass_moments(factors: np.ndarray, r: int) -> StateMoments:
    """StateMoments concentrated at given factor paths (T+1, s)."""
    T = factors.shape[0] - 1
    s = factors.shape[1]
    return StateMoments(
        mean=factors,
        cov=np.zeros((T + 1, s, s)),
        second_moment=factors[:, :, None] * factors[:, None, :],
        lag_one=np.stack(
            [np.outer(factors[t, :r], factors[t - 1]) for t in range(1, T + 1)]
        ),
        prec_logdet=0.0,
        info_quad=0.0,
    )


def unanchored(spec: ModelSpec):
    """The restrictions of an unanchored run: every loading free, no anchor."""
    return identification_restrictions(spec, [])


def random_masked_panel(spec: ModelSpec, T: int, seed: int, missing_prob=0.35):
    """Simulated panel with an arbitrary mask; the last row keeps >= 1 cell."""
    cfg = stationary_sim_config(spec, T=T, seed=seed)
    pan, states = simulate_dfm(cfg)
    rng = np.random.default_rng(seed + 10_000)
    mask = rng.random((T, spec.n)) > missing_prob
    if not mask[-1].any():
        mask[-1, int(rng.integers(spec.n))] = True
    return (
        TimeSeriesPanel(np.where(mask, pan.zero_filled, np.nan), pan.names),
        cfg,
        states,
    )


def random_variational(rng, pan, spec, trans_mean=None):
    """Random loadings and transition densities for a panel."""
    n, r, s = pan.n, spec.r, spec.s
    prior = default_prior(spec)
    a = rng.standard_normal((n, s, s))
    b = rng.standard_normal((s, s))
    loadings = vi.LoadingsVariational(
        mean=rng.normal(0.0, 0.7, (n, s)),
        cov=0.1 * (a @ a.swapaxes(1, 2)) / s + 0.05 * np.eye(s),
        noise_df=prior.noise_df + pan.counts,
        noise_scale=rng.uniform(0.3, 1.0, n),
    )
    if trans_mean is None:
        trans_mean = rng.uniform(-0.4, 0.6, (r, s)) / (spec.p + 1)
    transition = vi.TransitionVariational(
        mean=trans_mean, cov=0.05 * (b @ b.T) / s + 0.01 * np.eye(s)
    )
    return loadings, transition, prior


def empty_edge_panel(spec: ModelSpec, T: int, seed: int) -> TimeSeriesPanel:
    """Masked simulated panel whose last row and last column hold no data."""
    pan, _, _ = random_masked_panel(spec, T=T, seed=seed, missing_prob=0.2)
    values = pan.values.copy()
    values[-1] = np.nan
    values[:, -1] = np.nan
    return TimeSeriesPanel(values)


def assert_same_bits(actual, desired) -> None:
    """Equal dtype, shape and bytes: -0.0 differs from 0.0, NaN payloads count."""
    actual, desired = np.asarray(actual), np.asarray(desired)
    assert actual.dtype == desired.dtype and actual.shape == desired.shape
    assert actual.tobytes() == desired.tobytes()


@pytest.fixture
def tiny_spec():
    return ModelSpec(n=2, r=1, p=0)


@pytest.fixture
def tiny_prior(tiny_spec):
    return default_prior(tiny_spec)
