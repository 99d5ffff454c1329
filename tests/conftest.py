import numpy as np
import pytest

from dfmvi.model import ModelSpec, default_prior
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


def random_masked_panel(spec: ModelSpec, T: int, seed: int, missing_prob=0.35):
    """Simulated panel with an arbitrary mask; the last row keeps >= 1 cell."""
    cfg = stationary_sim_config(spec, T=T, seed=seed)
    pan, states = simulate_dfm(cfg)
    rng = np.random.default_rng(seed + 10_000)
    mask = rng.random((T, spec.n)) > missing_prob
    if not mask[-1].any():
        mask[-1, int(rng.integers(spec.n))] = True
    return (
        TimeSeriesPanel(
            values=np.where(mask, pan.filled(0.0), np.nan),
            mask=mask,
            names=pan.names,
        ),
        cfg,
        states,
    )


@pytest.fixture
def tiny_spec():
    return ModelSpec(n=2, r=1, p=0)


@pytest.fixture
def tiny_prior(tiny_spec):
    return default_prior(tiny_spec)
