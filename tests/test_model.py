import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from dfmvi import vi
from dfmvi.errors import DomainError
from dfmvi.model import (
    ModelSpec,
    PriorSpec,
    Restrictions,
    check_sign_fold,
    default_prior,
    identification_restrictions,
    minnesota_prior,
)
from dfmvi.vi import (
    LoadingsVariational,
    TransitionVariational,
    VariationalState,
    flip_factor_signs,
)
from tests import reference_kernels
from tests.conftest import assert_same_bits, empty_edge_panel, point_mass_moments


def test_spec_static_dimension():
    assert ModelSpec(n=5, r=2, p=3).s == 8
    with pytest.raises(DomainError):
        ModelSpec(n=0, r=1, p=0)
    with pytest.raises(DomainError):
        ModelSpec(n=1, r=1, p=-1)


def test_minnesota_single_block():
    v_inv, w_inv = minnesota_prior(ModelSpec(n=1, r=1, p=0), eta_lambda=1.0)
    assert_allclose(v_inv, [[1.0]])
    assert_allclose(w_inv, [[1.0]])


def test_minnesota_lag_decay_blocks():
    v_inv, _ = minnesota_prior(
        ModelSpec(n=1, r=2, p=1), eta_lambda=1.0, ell_lambda=2.0
    )
    assert_allclose(v_inv, np.diag([1.0, 1.0, 4.0, 4.0]))


def test_minnesota_scales_linearly():
    spec = ModelSpec(n=1, r=2, p=2)
    base, _ = minnesota_prior(spec, eta_lambda=1.0)
    scaled, _ = minnesota_prior(spec, eta_lambda=3.5)
    assert_array_equal(scaled, 3.5 * base)


def test_minnesota_domain_errors():
    spec = ModelSpec(n=1, r=1, p=1)
    with pytest.raises(DomainError):
        minnesota_prior(spec, eta_lambda=0.0)
    with pytest.raises(DomainError):
        minnesota_prior(spec, eta_phi=-1.0)
    with pytest.raises(DomainError):
        minnesota_prior(spec, ell_lambda=1.0)


@settings(deadline=None, max_examples=50)
@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=1.001, max_value=6.0),
)
def test_minnesota_diagonal_with_equal_blocks(r, p, eta, ell):
    spec = ModelSpec(n=1, r=r, p=p)
    v_inv, w_inv = minnesota_prior(spec, eta, eta, ell, ell)
    for mat in (v_inv, w_inv):
        assert_array_equal(mat - np.diag(np.diag(mat)), np.zeros_like(mat))
        diag = np.diag(mat)
        for lag in range(p + 1):
            block = diag[lag * r : (lag + 1) * r]
            assert np.all(block == block[0])


def _prior(**changes) -> dict:
    """Keyword arguments of a valid s = 2, n = 3 prior, with ``changes``."""
    fields = dict(
        loading_prec=np.eye(2),
        trans_prec=np.eye(2),
        init_state_cov=np.eye(2),
        noise_df=np.ones(3),
        noise_scale=np.ones(3),
    )
    return fields | changes


def test_validate_prior_accepts_identity():
    prior = PriorSpec(**_prior())
    assert_array_equal(prior.loading_prec, np.eye(2))
    assert_array_equal(prior.noise_df, np.ones(3))


def test_validate_prior_rejects_indefinite_init_cov():
    # A prior checks itself when it is built.
    with pytest.raises(DomainError, match="init_state_cov is not positive definite"):
        PriorSpec(**_prior(init_state_cov=np.diag([1.0, -0.5])))


def test_validate_prior_symmetrizes_tiny_asymmetry():
    v = np.eye(2)
    v[0, 1] = 1e-14
    prior = PriorSpec(**_prior(loading_prec=v))
    assert_array_equal(prior.loading_prec, prior.loading_prec.T)
    assert prior.loading_prec[0, 1] == 0.5e-14


def test_validate_prior_rejects_improper():
    with pytest.raises(DomainError, match="improper"):
        PriorSpec(**_prior(noise_df=np.zeros(3)))


def test_validate_prior_dimension_mismatch():
    # Mixed sizes are refused when the prior is built; a prior sized for
    # another spec is refused by fit_smf and run_gibbs (test_vi.py).
    with pytest.raises(DomainError, match=r"trans_prec must be 3 x 3, got \(2, 2\)"):
        PriorSpec(**_prior(loading_prec=np.eye(3)))


_REFUSED_PRIORS = {
    "matrix-size": (
        {"trans_prec": np.eye(3)},
        r"trans_prec must be 2 x 2, got \(3, 3\)",
    ),
    "vector-matrix": ({"loading_prec": np.ones(2)}, r"loading_prec must be 2 x 2"),
    "empty-matrix": ({"loading_prec": np.zeros((0, 0))}, r"loading_prec must be 1 x 1"),
    "vector-length": (
        {"noise_scale": np.ones(2)},
        r"one length, got \(3,\) and \(2,\)",
    ),
    "scalar-vector": ({"noise_df": 1.0}, r"one length, got \(\)"),
    "empty-vector": ({"noise_df": np.ones(0), "noise_scale": np.ones(0)}, "one length"),
    "zero-scale": ({"noise_scale": np.array([1.0, 0.0, 1.0])}, "improper"),
    "negative-df": ({"noise_df": -np.ones(3)}, "improper"),
    "nan-df": ({"noise_df": np.array([1.0, np.nan, 1.0])}, "noise_df must be finite"),
    "inf-matrix": ({"trans_prec": np.diag([np.inf, 1.0])}, "trans_prec must be finite"),
    "indefinite-loading": (
        {"loading_prec": np.array([[1.0, 2.0], [2.0, 1.0]])},
        "loading_prec is not positive semidefinite",
    ),
    "indefinite-transition": (
        {"trans_prec": np.diag([1.0, -1e-3])},
        "trans_prec is not positive semidefinite",
    ),
    "singular-origin": (
        {"init_state_cov": np.zeros((2, 2))},
        "init_state_cov is not positive definite",
    ),
}


@pytest.mark.parametrize(
    "changes, match", _REFUSED_PRIORS.values(), ids=_REFUSED_PRIORS.keys()
)
def test_a_hand_built_prior_is_refused_when_it_is_built(changes, match):
    with pytest.raises(DomainError, match=match):
        PriorSpec(**_prior(**changes))


def test_a_semidefinite_precision_within_tolerance_is_accepted():
    # The precisions may be singular (a flat direction), and an eigenvalue
    # down to -1e-10 relative to the largest entry counts as zero.
    flat = np.zeros((2, 2))
    prior = PriorSpec(**_prior(loading_prec=np.diag([1.0, -5e-11]), trans_prec=flat))
    assert prior.loading_prec[1, 1] == -5e-11


def test_identification_restrictions_anchor_scheme():
    spec = ModelSpec(n=4, r=2, p=1)
    restr = identification_restrictions(spec, [(0, 0), (2, 1)])
    assert restr.free[0].tolist() == [True, False, False, False]
    assert restr.free[2].tolist() == [False, True, False, False]
    assert restr.free[1].all() and restr.free[3].all()
    assert restr.positive == ((0, 0), (2, 1))
    # A factor anchored twice needs r to see, so the fold's check refuses it.
    twice = identification_restrictions(spec, [(0, 0), (1, 0)])
    with pytest.raises(DomainError, match="factor 0 anchored more than once"):
        check_sign_fold(default_prior(spec), twice, spec.r)
    with pytest.raises(DomainError):
        identification_restrictions(spec, [(9, 0)])
    with pytest.raises(DomainError, match=r"variable 0 anchors more than one"):
        identification_restrictions(ModelSpec(n=3, r=2, p=0), [(0, 0), (0, 1)])


def test_sign_flips_preserve_fit():
    rng = np.random.default_rng(5)
    r, p, n = 2, 1, 3
    s = r * (p + 1)
    lam = rng.standard_normal((n, s))
    phi = rng.standard_normal((r, s))
    states = rng.standard_normal((4, s))
    signs = np.ones(s)
    signs[0::r] = -1.0
    state = VariationalState(
        loadings=LoadingsVariational(
            mean=lam,
            cov=np.zeros((n, s, s)),
            noise_df=np.ones(n),
            noise_scale=np.ones(n),
        ),
        transition=TransitionVariational(mean=phi, cov=np.eye(s)),
    )
    flipped, moments = flip_factor_signs(
        state, point_mass_moments(states, r), signs,
        identification_restrictions(ModelSpec(n, r, p), []),
    )
    lam2, phi2 = flipped.loadings.mean, flipped.transition.mean
    # factor 0 flips at every lag: its columns change sign, nothing else
    assert_array_equal(lam2, lam * signs)
    assert_array_equal(phi2, phi * signs[:r, None] * signs)
    assert_array_equal(moments.mean, states * signs)
    # common component and transition dynamics are unchanged
    assert_allclose(lam2 @ (states * signs).T, lam @ states.T)
    assert_allclose(
        (phi2 @ (states * signs).T) * signs[:r, None], phi @ states.T
    )


def test_default_prior_composition():
    spec = ModelSpec(n=3, r=1, p=1)
    prior = default_prior(spec)
    assert_allclose(prior.loading_prec, np.diag([1.0, 4.0]))
    assert_allclose(prior.init_state_cov, np.eye(2))
    assert_allclose(prior.noise_df, np.ones(3))


def _write_fails(a):
    with pytest.raises(ValueError, match="read-only"):
        a[...] = 0


def test_prior_holds_read_only_copies_and_caches_bitwise_constants():
    spec = ModelSpec(n=3, r=2, p=1)
    rng = np.random.default_rng(5)
    root = rng.standard_normal((spec.s, spec.s))
    f0 = root @ root.T + np.eye(spec.s)
    v_inv, w_inv = minnesota_prior(spec)
    prior = PriorSpec(
        loading_prec=v_inv,
        trans_prec=w_inv,
        init_state_cov=f0,
        noise_df=np.ones(3),
        noise_scale=np.ones(3),
    )
    source = np.eye(spec.s)
    copied = PriorSpec(source, source, source, np.ones(3), np.ones(3))
    source[0, 0] = 7.0
    assert copied.loading_prec[0, 0] == 1.0
    for name in ("loading_prec", "trans_prec", "init_state_cov", "noise_df", "noise_scale"):
        _write_fails(getattr(prior, name))
    # computed on first use only, then kept
    assert "init_state_prec" not in vars(prior)
    prec = prior.init_state_prec
    assert prior.init_state_prec is prec
    assert prec.tobytes() == np.linalg.inv(prior.init_state_cov).tobytes()
    _write_fails(prec)
    assert prior.init_state_logdet == np.linalg.slogdet(prior.init_state_cov)[1]
    assert prior.trans_prec_logdet == np.linalg.slogdet(prior.trans_prec)[1]


def test_restrictions_cache_read_only_masks_and_anchor_rows():
    spec = ModelSpec(n=4, r=2, p=1)
    restr = identification_restrictions(spec, [(0, 0), (2, 1)])
    free = restr.free
    assert "free_pairs" not in vars(restr)
    assert_array_equal(restr.free_pairs, free[:, :, None] & free[:, None, :])
    assert_array_equal(restr.padding, np.eye(spec.s) * ~free[:, None, :])
    assert restr.anchors.tolist() == [[0, 0], [2, 1]]
    assert restr.free_pairs is restr.free_pairs and restr.padding is restr.padding
    for mask in (restr.free, restr.free_pairs, restr.padding, restr.anchors):
        _write_fails(mask)
    a = np.random.default_rng(6).standard_normal((4, spec.s, spec.s))
    assert_array_equal(restr.pad(a)[1:3], restr.pad(a[1:3], slice(1, 3)))
    assert Restrictions(free, ()).anchors.shape == (0, 2)


def test_restrictions_that_anchor_one_variable_twice_are_refused_when_built():
    # On an all-free mask both anchors index free entries; naming one
    # variable twice is refused all the same, before any fit or chain.
    all_free = np.ones((4, 4), dtype=bool)
    with pytest.raises(DomainError, match="variable 0 anchors more than one factor"):
        Restrictions(all_free, ((0, 0), (0, 1)))


@pytest.mark.parametrize(
    "positive, match",
    [
        (((9, 0),), r"anchor \(9, 0\) lies outside the 6 x 2"),
        (((0, 2),), r"anchor \(0, 2\) lies outside the 6 x 2"),
        (((-1, 0),), r"anchor \(-1, 0\) lies outside"),
        (((0, 0), (1, 1)), r"anchor \(1, 1\) is on a zero-restricted"),
    ],
    ids=["variable", "coordinate", "negative", "restricted"],
)
def test_restrictions_refuse_anchors_outside_or_off_the_free_mask(positive, match):
    # Out of range, an anchor would index outside the loading mean in flips;
    # on a restricted coordinate it reads an exact zero, so its factor would
    # never fold.
    free = np.ones((6, 2), dtype=bool)
    free[1, 1] = False
    with pytest.raises(DomainError, match=match):
        Restrictions(free, positive)


def test_restrictions_refuse_a_mask_that_is_not_a_matrix():
    with pytest.raises(DomainError, match=r"n x s mask, got shape \(6,\)"):
        Restrictions(np.ones(6, dtype=bool), ((0, 0),))


def test_restrictions_flips_follow_the_reference_alignment():
    # The reference is the loop over the sign restrictions that the fit and
    # the chain start used before.
    spec = ModelSpec(n=5, r=2, p=1)
    rng = np.random.default_rng(87)
    seen = set()
    for anchors in ([(0, 0), (1, 1)], [(3, 1)], [(4, 0)], [(2, 1), (1, 0)]):
        restr = identification_restrictions(spec, anchors)
        for _ in range(25):
            mean = np.where(restr.free, rng.standard_normal((spec.n, spec.s)), 0.0)
            want = reference_kernels.anchor_signs(mean, restr, spec.r)
            got = restr.signs(mean, spec.r)
            if np.all(want > 0):
                assert got is None
                seen.add("none")
                continue
            assert_same_bits(got, want)
            seen.add(tuple(want[: spec.r].tolist()))
    assert {"none", (-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)} <= seen
    # No anchors, or no negative anchor loading: nothing folds.
    mean = -np.ones((spec.n, spec.s))
    assert identification_restrictions(spec, []).signs(mean, spec.r) is None
    assert identification_restrictions(spec, [(0, 0)]).signs(-mean, spec.r) is None


@pytest.mark.parametrize("r, p", [(1, 0), (2, 1)], ids=["s1", "r2p1"])
def test_folding_twice_returns_every_bit(r, p):
    # The last series has no data, so its free loadings keep the prior's
    # exact zeros beside the anchors' restricted ones; flipping factor 0 twice
    # must give back every array of the fit, loadings, transition and moments.
    spec = ModelSpec(n=6, r=r, p=p)
    pan = empty_edge_panel(spec, T=30, seed=91 + r)
    restr = identification_restrictions(spec, [(k, k) for k in range(r)])
    state, moments, _ = vi.fit_smf(pan, spec, default_prior(spec), restrictions=restr)
    mean = state.loadings.mean
    assert np.all(mean[~restr.free] == 0.0) and np.all(mean[-1] == 0.0)
    signs = np.where(np.arange(spec.s) % r == 0, -1.0, 1.0)
    once = flip_factor_signs(state, moments, signs, restr)
    twice = flip_factor_signs(*once, signs, restr)

    def arrays(fit):
        state, moments = fit
        return [*vars(state.loadings).values(), *vars(state.transition).values(),
                *vars(moments).values()]

    assert not np.array_equal(once[0].loadings.mean, mean)
    for got, want in zip(arrays(twice), arrays((state, moments)), strict=True):
        assert_same_bits(got, want)
