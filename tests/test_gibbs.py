import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from dfmvi import gibbs, sim
from dfmvi.errors import DomainError, NumericalError
from dfmvi.model import (
    ModelSpec,
    PriorSpec,
    Restrictions,
    default_prior,
    identification_restrictions,
)
from dfmvi.panel import from_arrays
from tests import reference_kernels
from tests.conftest import assert_same_bits, empty_edge_panel, random_masked_panel
from tests.oracles import dense_fixed_moments, state_noise_cov


def test_config_validation():
    with pytest.raises(DomainError):
        gibbs.GibbsConfig(n_draws=10, burn_in_fraction=1.0)
    with pytest.raises(DomainError):
        gibbs.GibbsConfig(n_draws=5, burn_in_fraction=0.9, thin=0)
    cfg = gibbs.GibbsConfig(n_draws=1000, burn_in_fraction=0.1)
    assert cfg.burn_in() == 100


def test_state_draws_without_data_follow_prior_process():
    # Without data the precision holds only the origin and transition blocks;
    # at p=1 (s=2) the path also carries a lagged copy of each factor.
    for p, phi in ((0, np.array([[0.6]])), (1, np.array([[0.6, 0.2]]))):
        spec = ModelSpec(n=2, r=1, p=p)
        prior = default_prior(spec)
        pan = from_arrays(np.full((4, 2), np.nan))
        rng = np.random.default_rng(0)
        draws = np.stack(
            [
                gibbs.sample_states_ffbs(
                    pan, np.ones((2, spec.s)), np.ones(2), phi, prior, rng
                )
                for _ in range(30_000)
            ]
        )
        # marginal covariances follow the unobserved state recursion
        trans = sim.companion(phi)
        noise = state_noise_cov(1, spec.s)
        want_cov = [prior.init_state_cov]
        for _ in range(4):
            want_cov.append(trans @ want_cov[-1] @ trans.T + noise)
        want_var = np.stack([np.diag(c) for c in want_cov])
        assert_allclose(draws.mean(axis=0), np.zeros((5, spec.s)), atol=0.03)
        assert_allclose(draws.var(axis=0), want_var, rtol=0.05)
        # the lagged coordinate is an exact copy of the previous state
        if p:
            assert_array_equal(draws[:, 1:, 1], draws[:, :-1, 0])


@pytest.mark.parametrize("p", [0, 1])
def test_ffbs_mean_matches_smoother_mean(p):
    spec = ModelSpec(n=3, r=1, p=p)
    pan, cfg, _ = random_masked_panel(spec, T=5, seed=100 + p, missing_prob=0.3)
    prior = default_prior(spec)
    rng = np.random.default_rng(1)
    n_draws = 50_000 if p == 0 else 20_000
    acc = np.zeros((pan.T + 1, spec.s))
    acc2 = np.zeros((pan.T + 1, spec.s))
    for _ in range(n_draws):
        path = gibbs.sample_states_ffbs(
            pan, cfg.loadings, cfg.noise_var, cfg.trans, prior, rng
        )
        acc += path
        acc2 += path**2
    mean = acc / n_draws
    se = np.sqrt((acc2 / n_draws - mean**2) / n_draws)
    oracle = dense_fixed_moments(
        pan, cfg.loadings, cfg.noise_var, cfg.trans, prior.init_state_cov
    )
    assert np.all(np.abs(mean - oracle.mean) <= 3.5 * se + 1e-12)


def test_ffbs_single_step_matches_analytic_conditional():
    # T=1 scalar: posterior of (F0, F1) given one observation y = lam*F1+eps.
    lam, noise, phi = 1.5, 0.4, 0.7
    y = 0.9
    spec = ModelSpec(n=1, r=1, p=0)
    prior = default_prior(spec)
    pan = from_arrays(np.array([[y]]))
    rng = np.random.default_rng(5)
    draws = np.stack(
        [
            gibbs.sample_states_ffbs(
                pan, np.array([[lam]]), np.array([noise]), np.array([[phi]]),
                prior, rng,
            )[:, 0]
            for _ in range(60_000)
        ]
    )
    var_f1 = phi**2 + 1.0
    var_y = lam**2 * var_f1 + noise
    want_mean_f1 = lam * var_f1 * y / var_y
    want_var_f1 = var_f1 - (lam * var_f1) ** 2 / var_y
    got_mean = draws[:, 1].mean()
    got_var = draws[:, 1].var()
    assert abs(got_mean - want_mean_f1) < 4 * np.sqrt(want_var_f1 / 60_000)
    assert_allclose(got_var, want_var_f1, rtol=0.05)


def test_parameter_draws_flat_prior_fixed_factors_center_on_ols():
    spec = ModelSpec(n=1, r=1, p=0)
    rng_data = np.random.default_rng(3)
    T = 200
    states = rng_data.standard_normal((T + 1, 1))
    y = 0.7 * states[1:, 0] + 0.3 * rng_data.standard_normal(T)
    pan = from_arrays(y[:, None])
    prior = PriorSpec(
        loading_prec=1e-10 * np.eye(1),
        trans_prec=np.eye(1),
        init_state_cov=np.eye(1),
        noise_df=np.array([1e-8]),
        noise_scale=np.array([1.0]),
    )
    rng = np.random.default_rng(4)
    lam_draws = np.array(
        [
            gibbs.sample_parameters(pan, states, spec, prior, None, rng)[0][0, 0]
            for _ in range(6000)
        ]
    )
    ols = float(np.linalg.lstsq(states[1:], y, rcond=None)[0][0])
    assert abs(lam_draws.mean() - ols) < 4 * lam_draws.std() / np.sqrt(6000)


def test_parameter_draws_respect_zero_and_sign_restrictions():
    spec = ModelSpec(n=3, r=1, p=1)
    prior = default_prior(spec)
    pan, cfg, states = random_masked_panel(spec, T=20, seed=7, missing_prob=0.1)
    restr = identification_restrictions(spec, [(0, 0)])
    rng = np.random.default_rng(8)
    for _ in range(200):
        lam, sig2, phi, _ = gibbs.sample_parameters(
            pan, states, spec, prior, restr, rng
        )
        assert lam[0, 1] == 0.0
        assert lam[0, 0] > 0.0
        assert np.all(sig2 > 0)


def test_no_regressor_noise_draws_match_conjugate_posterior():
    # All loadings zero-restricted: the noise posterior is the analytic
    # scaled-inverse-chi-square update with the raw sum of squares.
    spec = ModelSpec(n=1, r=1, p=0)
    nu0, tau0 = 4.0, 0.8
    prior = PriorSpec(
        loading_prec=np.eye(1),
        trans_prec=np.eye(1),
        init_state_cov=np.eye(1),
        noise_df=np.array([nu0]),
        noise_scale=np.array([tau0]),
    )
    rng_data = np.random.default_rng(9)
    T = 25
    y = rng_data.standard_normal(T)
    pan = from_arrays(y[:, None])
    states = np.zeros((T + 1, 1))
    restr = gibbs.Restrictions(free=np.zeros((1, 1), dtype=bool), positive=())
    rng = np.random.default_rng(10)
    draws = np.array(
        [
            gibbs.sample_parameters(pan, states, spec, prior, restr, rng)[1][0]
            for _ in range(40_000)
        ]
    )
    df_post = nu0 + T
    scale_post = (nu0 * tau0 + float(y @ y)) / df_post
    want_mean = df_post * scale_post / (df_post - 2)
    assert_allclose(draws.mean(), want_mean, rtol=0.02)
    # full-distribution check against the analytic law
    ks = stats.kstest(
        draws, lambda x: stats.invgamma.cdf(
            x, a=df_post / 2, scale=df_post * scale_post / 2
        ),
    )
    assert ks.pvalue > 0.01


def test_run_gibbs_deterministic_and_restricted():
    spec = ModelSpec(n=3, r=1, p=0)
    pan, _, _ = random_masked_panel(spec, T=12, seed=11, missing_prob=0.2)
    prior = default_prior(spec)
    config = gibbs.GibbsConfig(n_draws=300, burn_in_fraction=0.1, seed=42)
    restr = identification_restrictions(spec, [(0, 0)])
    a = gibbs.run_gibbs(pan, spec, prior, config, restr)
    b = gibbs.run_gibbs(pan, spec, prior, config, restr)
    assert_array_equal(a.lambdas, b.lambdas)
    assert_array_equal(a.states, b.states)
    assert a.n_draws == 270
    assert np.all(a.lambdas[:, 0, 0] > 0)


def test_run_gibbs_thinning_counts():
    spec = ModelSpec(n=2, r=1, p=0)
    pan, _, _ = random_masked_panel(spec, T=8, seed=12, missing_prob=0.1)
    prior = default_prior(spec)
    config = gibbs.GibbsConfig(n_draws=100, burn_in_fraction=0.1, seed=0, thin=7)
    store = gibbs.run_gibbs(pan, spec, prior, config)
    assert store.n_draws == 13  # ceil(90 / 7)


def test_run_gibbs_refuses_draw_store_larger_than_memory(monkeypatch):
    spec = ModelSpec(n=2, r=1, p=0)
    pan, _, _ = random_masked_panel(spec, T=8, seed=12, missing_prob=0.1)
    prior = default_prior(spec)
    config = gibbs.GibbsConfig(n_draws=100, burn_in_fraction=0.1, seed=0)
    # 90 kept draws of 2 + 2 + 1 + 9 float64 values each
    needed = 8 * 90 * 14
    monkeypatch.setattr(gibbs, "_physical_memory", lambda: needed - 1)
    with pytest.raises(DomainError, match="--thin"):
        gibbs.run_gibbs(pan, spec, prior, config)
    monkeypatch.setattr(gibbs, "_physical_memory", lambda: needed)
    assert gibbs.run_gibbs(pan, spec, prior, config).n_draws == 90


def test_run_gibbs_conjugate_submodel_matches_analytic_posterior():
    # With every loading zero-restricted the data say nothing about the
    # states, and the stationary noise draws follow the analytic
    # scaled-inverse-chi-square update based on the raw sums of squares.
    spec = ModelSpec(n=2, r=1, p=0)
    nu0, tau0 = 6.0, 0.9
    prior = PriorSpec(
        loading_prec=np.eye(1),
        trans_prec=np.eye(1),
        init_state_cov=np.eye(1),
        noise_df=np.full(2, nu0),
        noise_scale=np.full(2, tau0),
    )
    rng_data = np.random.default_rng(15)
    T = 30
    y = rng_data.standard_normal((T, 2))
    pan = from_arrays(y)
    restr = gibbs.Restrictions(free=np.zeros((2, 1), dtype=bool), positive=())
    import dfmvi.vi as vi_mod

    start = vi_mod.init_from_pca(pan, spec, prior, seed=5, restrictions=restr)
    rng = np.random.default_rng(5)
    sig_draws = []
    lam, sig2, phi = (
        start.loadings.mean.copy(),
        start.loadings.noise_scale.copy(),
        start.transition.mean.copy(),
    )
    for d in range(5000):
        states = gibbs.sample_states_ffbs(pan, lam, sig2, phi, prior, rng)
        lam, sig2, phi, _ = gibbs.sample_parameters(
            pan, states, spec, prior, restr, rng
        )
        if d >= 500:
            sig_draws.append(sig2.copy())
    sig_draws = np.asarray(sig_draws)
    df_post = nu0 + T
    for i in range(2):
        scale_post = (nu0 * tau0 + float(y[:, i] @ y[:, i])) / df_post
        want_mean = df_post * scale_post / (df_post - 2)
        want_var = 2 * (df_post * scale_post) ** 2 / (
            (df_post - 2) ** 2 * (df_post - 4)
        )
        se = np.sqrt(want_var / len(sig_draws))
        assert abs(sig_draws[:, i].mean() - want_mean) < 5 * se


def test_explosive_transition_draws_are_retained():
    # Short sample and a weak transition prior leave the posterior with
    # real mass beyond the unit circle; such draws must be kept.
    spec = ModelSpec(n=2, r=1, p=0)
    rng_data = np.random.default_rng(13)
    values = np.cumsum(rng_data.standard_normal((6, 2)), axis=0)  # wandering data
    pan = from_arrays(values)
    prior = PriorSpec(
        loading_prec=np.eye(1),
        trans_prec=np.array([[1e-4]]),
        init_state_cov=np.eye(1),
        noise_df=np.ones(2),
        noise_scale=np.full(2, 0.05),
    )
    config = gibbs.GibbsConfig(n_draws=400, burn_in_fraction=0.1, seed=3)
    store = gibbs.run_gibbs(pan, spec, prior, config)
    assert np.any(np.abs(store.phi) > 1.0)


def test_draw_store_round_trip(tmp_path):
    spec = ModelSpec(n=2, r=1, p=0)
    pan, _, _ = random_masked_panel(spec, T=8, seed=14, missing_prob=0.1)
    prior = default_prior(spec)
    store = gibbs.run_gibbs(
        pan, spec, prior, gibbs.GibbsConfig(n_draws=50, burn_in_fraction=0.1, seed=1)
    )
    path = tmp_path / "draws.npz"
    gibbs.save_draws(store, path)
    back = gibbs.load_draws(path)
    assert_array_equal(back.lambdas, store.lambdas)
    assert_array_equal(back.states, store.states)
    assert back.seed == store.seed and back.thin == store.thin


class _ZeroRng:
    """Generator stand-in whose normal draws are all zero: the draw is the mean."""

    def standard_normal(self, size):
        return np.zeros(size)


@pytest.mark.parametrize("r, p", [(1, 0), (1, 1), (2, 1)])
def test_state_draw_matches_dense_oracle_with_empty_rows(r, p):
    spec = ModelSpec(n=5, r=r, p=p)
    pan, cfg, _ = random_masked_panel(spec, T=12, seed=50 + 10 * r + p, missing_prob=0.2)
    values = pan.values.copy()
    values[[3, -1]] = np.nan  # time step 4 and the last one hold no data
    pan = from_arrays(values)
    prior = default_prior(spec)
    oracle = dense_fixed_moments(
        pan, cfg.loadings, cfg.noise_var, cfg.trans, prior.init_state_cov
    )
    mean = gibbs.sample_states_ffbs(
        pan, cfg.loadings, cfg.noise_var, cfg.trans, prior, _ZeroRng()
    )
    assert_allclose(mean, oracle.mean, rtol=0, atol=1e-10)
    # the joint covariance of the whole path, entry by entry, within
    # Monte Carlo error
    rng = np.random.default_rng(51)
    n_draws = 20_000
    paths = np.stack(
        [
            gibbs.sample_states_ffbs(
                pan, cfg.loadings, cfg.noise_var, cfg.trans, prior, rng
            ).ravel()
            for _ in range(n_draws)
        ]
    )
    centred = paths - oracle.mean.ravel()
    cov = centred.T @ centred / n_draws
    sd = np.sqrt(np.diag(oracle.cov))
    se = np.sqrt((np.outer(sd, sd) ** 2 + oracle.cov**2) / n_draws)
    assert np.all(np.abs(cov - oracle.cov) <= 5.0 * se + 1e-12)


@pytest.mark.parametrize("r, p", [(2, 1), (1, 2)])
def test_state_draw_is_continuous_in_the_parameters(r, p):
    # s - r >= 2: the lagged coordinates are copies, so a same-seed path
    # must stay put under a rounding-level change of the parameters.
    spec = ModelSpec(n=5, r=r, p=p)
    pan, cfg, _ = random_masked_panel(spec, T=15, seed=31, missing_prob=0.2)
    prior = default_prior(spec)
    nudged = cfg.noise_var * (1.0 + 1e-13 * np.random.default_rng(32).standard_normal(5))

    def draw(sigma2):
        return gibbs.sample_states_ffbs(
            pan, cfg.loadings, sigma2, cfg.trans, prior, np.random.default_rng(33)
        )

    assert np.abs(draw(nudged) - draw(cfg.noise_var)).max() <= 1e-8


def test_state_draw_names_step_of_indefinite_precision():
    # a negative noise variance on a series seen only at time 5 makes the
    # state precision indefinite there
    spec = ModelSpec(n=2, r=1, p=0)
    values = np.random.default_rng(34).standard_normal((8, 2))
    values[np.arange(8) != 4, 0] = np.nan
    with pytest.raises(NumericalError, match=r"at time step 5\b"):
        gibbs.sample_states_ffbs(
            from_arrays(values), np.ones((2, 1)), np.array([-0.01, 1.0]),
            np.array([[0.5]]), default_prior(spec), np.random.default_rng(35),
        )


def _two_anchor_case():
    spec = ModelSpec(n=5, r=2, p=0)
    pan, _, states = random_masked_panel(spec, T=20, seed=41, missing_prob=0.1)
    return spec, pan, states, default_prior(spec)


class _CountingRng:
    """Generator stand-in that records the size of every noise-variance draw."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.chisquare_sizes = []

    def chisquare(self, df, size=None):
        self.chisquare_sizes.append(np.size(df))
        return self.rng.chisquare(df, size)

    def standard_normal(self, size):
        return self.rng.standard_normal(size)


def test_each_sweep_draws_every_equation_once():
    # Weak anchors (states unrelated to the anchor series) often come out
    # negative; the fold flips them instead of drawing again.
    spec, pan, states, prior = _two_anchor_case()
    restr = identification_restrictions(spec, [(0, 0), (1, 1)])
    weak = np.random.default_rng(42).standard_normal(states.shape)
    total = 0
    for seed in range(40):
        rng = _CountingRng(seed)
        lam, _, _, flips = gibbs.sample_parameters(
            pan, weak.copy(), spec, prior, restr, rng
        )
        assert rng.chisquare_sizes == [spec.n]
        assert lam[0, 0] > 0 and lam[1, 1] > 0
        assert_same_bits(lam[[0, 1], [1, 0]], np.zeros(2))
        total += flips
    assert total > 0


@pytest.mark.parametrize("r, p", [(1, 1), (2, 1)])
def test_anchored_draw_is_the_unanchored_draw_folded(r, p):
    # Equal seeds and equal free masks: the anchored draw negates, at every
    # lag, each factor whose anchor loading the unanchored draw left negative.
    spec = ModelSpec(n=5, r=r, p=p)
    pan, _, states = random_masked_panel(spec, T=20, seed=47 + r, missing_prob=0.1)
    prior = default_prior(spec)
    anchored = identification_restrictions(spec, [(k, k) for k in range(r)])
    unanchored = gibbs.Restrictions(anchored.free, ())
    weak = np.random.default_rng(48).standard_normal(states.shape)
    folded_any = kept_any = False
    for seed in range(30):
        path_a, path_u = weak.copy(), weak.copy()
        lam_a, sig_a, phi_a, flips = gibbs.sample_parameters(
            pan, path_a, spec, prior, anchored, np.random.default_rng(seed)
        )
        lam_u, sig_u, phi_u, none = gibbs.sample_parameters(
            pan, path_u, spec, prior, unanchored, np.random.default_rng(seed)
        )
        negative = np.diag(lam_u[:r, :r]) < 0
        signs = np.repeat(np.where(negative, -1.0, 1.0)[None], p + 1, axis=0).ravel()
        assert (flips, none) == (negative.sum(), 0)
        assert_same_bits(sig_a, sig_u)
        assert_array_equal(lam_a, lam_u * signs)
        assert_same_bits(lam_a[~anchored.free], np.zeros((~anchored.free).sum()))
        assert_array_equal(phi_a, np.outer(signs[:r], signs) * phi_u)
        assert_array_equal(path_a, weak * signs)
        assert_same_bits(path_u, weak)
        assert np.all(np.diag(lam_a[:r, :r]) > 0)
        folded_any |= bool(negative.any())
        kept_any |= bool(not negative.all())
    assert folded_any and kept_any


def test_anchored_chain_is_calibrated():
    # Simulation-based calibration under the anchor (0, 0): each replicate's
    # truth is a prior draw folded so that lambda_00 > 0, a draw from the
    # sign-restricted prior, and the chain starts from it.  Ranks of the
    # anchor loading, another loading (whose sign the fold sets) and the
    # transition among the thinned draws must be uniform.
    spec = ModelSpec(n=3, r=1, p=0)
    nu0, tau0 = 5.0, 1.0
    prior = PriorSpec(
        loading_prec=np.eye(1),
        trans_prec=np.eye(1),
        init_state_cov=np.eye(1),
        noise_df=np.full(3, nu0),
        noise_scale=np.full(3, tau0),
    )
    restr = identification_restrictions(spec, [(0, 0)])
    T, reps, L, thin, burn = 10, 120, 59, 6, 50
    ranks = {"anchor loading": [], "other loading": [], "transition": []}
    flips = 0
    for k in range(reps):
        rep_rng = np.random.default_rng(2000 + k)
        sig2 = nu0 * tau0 / rep_rng.chisquare(nu0, size=3)
        lam = np.sqrt(sig2)[:, None] * rep_rng.standard_normal((3, 1))
        phi = rep_rng.standard_normal((1, 1))
        f = np.zeros((T + 1, 1))
        f[0] = rep_rng.standard_normal()
        for t in range(1, T + 1):
            f[t] = phi[0, 0] * f[t - 1] + rep_rng.standard_normal()
        if lam[0, 0] < 0:
            lam, f = -lam, -f
        y = f[1:] * lam[:, 0] + rep_rng.standard_normal((T, 3)) * np.sqrt(sig2)
        pan = from_arrays(y)
        cl, cs, cp = lam.copy(), sig2.copy(), phi.copy()
        chain_rng = np.random.default_rng(60_000 + k)
        kept = []
        for d in range(burn + L * thin):
            states = gibbs.sample_states_ffbs(pan, cl, cs, cp, prior, chain_rng)
            cl, cs, cp, folded = gibbs.sample_parameters(
                pan, states, spec, prior, restr, chain_rng
            )
            flips += folded
            assert cl[0, 0] > 0
            if d >= burn and (d - burn) % thin == 0:
                kept.append((cl[0, 0], cl[1, 0], cp[0, 0]))
        truth = (lam[0, 0], lam[1, 0], phi[0, 0])
        for name, draws, value in zip(ranks, np.transpose(kept), truth):
            ranks[name].append(int(np.sum(draws < value)))
    assert flips > 0
    bins = 6
    for name, rank_list in ranks.items():
        counts = np.bincount(np.asarray(rank_list) * bins // (L + 1), minlength=bins)
        pvalue = stats.chisquare(counts).pvalue
        assert pvalue > 0.01 / 3, f"{name} ranks non-uniform, p={pvalue:.4f}"


@pytest.mark.parametrize("name", ["loading_prec", "trans_prec", "init_state_cov"])
def test_prior_coupling_an_anchored_factor_is_refused(name):
    spec = ModelSpec(n=4, r=2, p=0)
    pan, _, _ = random_masked_panel(spec, T=10, seed=70, missing_prob=0.1)
    coupled = np.array([[1.0, 0.3], [0.3, 1.0]])
    prior = dataclasses.replace(default_prior(spec), **{name: coupled})
    config = gibbs.GibbsConfig(n_draws=20, burn_in_fraction=0.1, seed=0)
    restr = identification_restrictions(spec, [(0, 0)])
    with pytest.raises(DomainError, match=f"{name} couples anchored factor 0"):
        gibbs.run_gibbs(pan, spec, prior, config, restr)
    # without an anchor nothing is folded, so the coupling is allowed
    assert gibbs.run_gibbs(pan, spec, prior, config).sign_flips == 0


def test_prior_coupling_the_lags_of_one_factor_is_allowed():
    # The fold flips a factor at every lag together, so coupling its own
    # lags leaves the prior invariant.
    spec = ModelSpec(n=4, r=1, p=1)
    pan, _, _ = random_masked_panel(spec, T=10, seed=71, missing_prob=0.1)
    prior = dataclasses.replace(
        default_prior(spec),
        loading_prec=np.array([[1.0, 0.3], [0.3, 4.0]]),
        init_state_cov=np.array([[1.0, 0.5], [0.5, 1.0]]),
    )
    config = gibbs.GibbsConfig(n_draws=20, burn_in_fraction=0.1, seed=0)
    restr = identification_restrictions(spec, [(0, 0)])
    store = gibbs.run_gibbs(pan, spec, prior, config, restr)
    assert np.all(store.lambdas[:, 0, 0] > 0)


def test_two_anchors_on_one_factor_are_refused():
    spec = ModelSpec(n=4, r=1, p=1)
    pan, _, _ = random_masked_panel(spec, T=10, seed=72, missing_prob=0.1)
    prior = default_prior(spec)
    config = gibbs.GibbsConfig(n_draws=20, burn_in_fraction=0.1, seed=0)
    # A factor anchored twice needs r to see, so the restrictions build and
    # run_gibbs refuses them.
    restr = Restrictions(np.ones((spec.n, spec.s), dtype=bool), ((0, 0), (1, 0)))
    with pytest.raises(DomainError, match="factor 0 anchored more than once"):
        gibbs.run_gibbs(pan, spec, prior, config, restr)


@pytest.mark.parametrize("anchored", [True, False], ids=["anchored", "unanchored"])
@pytest.mark.parametrize("r, p", [(1, 0), (1, 1), (2, 1)], ids=["s1", "s2", "s4"])
def test_run_gibbs_equals_the_reference_chain_bitwise(r, p, anchored):
    # The last time step and the last series hold no data.
    spec = ModelSpec(n=6, r=r, p=p)
    pan = empty_edge_panel(spec, T=30, seed=60 + 10 * r + p)
    prior = default_prior(spec)
    config = gibbs.GibbsConfig(n_draws=12, burn_in_fraction=0.25, seed=61)
    restr = (
        identification_restrictions(spec, [(k, k) for k in range(r)]) if anchored else None
    )
    store = gibbs.run_gibbs(pan, spec, prior, config, restr)
    sweeps, sign_flips = reference_kernels.run_gibbs(pan, spec, prior, config, restr)
    kept = sweeps[config.burn_in():]
    for k, got in enumerate((store.lambdas, store.sigma2, store.phi, store.states)):
        assert_same_bits(got, np.stack([sweep[k] for sweep in kept]))
    assert store.sign_flips == sign_flips


def test_folded_sweeps_equal_the_reference_bitwise():
    # Weak anchors fold often: the folded parameters, the path folded in
    # place and the next state draw all match the reference.
    spec, pan, states, prior = _two_anchor_case()
    restr = identification_restrictions(spec, [(0, 0), (1, 1)])
    weak = np.random.default_rng(42).standard_normal(states.shape)
    total = 0
    for seed in range(20):
        draws = []
        for module in (gibbs, reference_kernels):
            rng = np.random.default_rng(seed)
            path = weak.copy()
            lam, sig, phi, flips = module.sample_parameters(
                pan, path, spec, prior, restr, rng
            )
            after = module.sample_states_ffbs(pan, lam, sig, phi, prior, rng)
            draws.append((lam, sig, phi, flips, path, after))
        for got, want in zip(*draws):
            assert_same_bits(got, want)
        total += draws[0][3]
    assert total > 0
