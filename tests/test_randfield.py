"""Moving-average field simulation and its exponential-kernel covariance."""

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from spatial_lp import randfield
from spatial_lp.dataset import Region

from _oracles import conv_exponential_2d


# --- covariance closed forms ---------------------------------------------


@pytest.mark.parametrize("lam", [0.5, 1.0])
@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_covariance_2d_matches_direct_convolution(lam, t):
    model = randfield.car1(lam)
    closed = randfield.covariance_exponential(model, np.array([t, 0.0]))
    quad = conv_exponential_2d(lam, t, grid=800, span=40.0)
    assert closed == pytest.approx(quad, rel=1e-4)


def test_covariance_2d_lag_zero():
    model = randfield.car1(1.0)
    c0 = randfield.covariance_exponential(model, np.zeros(2))
    assert c0 == pytest.approx(np.pi / 2.0)
    # continuous at 0: small lags approach the lag-0 value
    near = randfield.covariance_exponential(model, np.array([1e-6, 0.0]))
    assert near == pytest.approx(c0, rel=1e-4)


def test_covariance_1d_closed_form():
    model = randfield.car1(2.0)
    # int e^{-2|u|} e^{-2|u - t|} du = e^{-2t}(t + 1/2) for t >= 0
    assert randfield.covariance_exponential(model, [0.0]) == pytest.approx(0.5)
    t = 1.3
    assert randfield.covariance_exponential(model, [t]) == pytest.approx(
        np.exp(-2 * t) * (t + 0.5)
    )


def test_covariance_is_isotropic():
    model = randfield.car1(0.7)
    a = randfield.covariance_exponential(model, np.array([0.6, 0.8]))
    b = randfield.covariance_exponential(model, np.array([1.0, 0.0]))
    assert a == pytest.approx(b, rel=1e-12)


def test_field_variance():
    model = randfield.car1(1.0, tau2=0.01)
    # RHO * tau2 * pi / (2 lam^2) = 0.0314159...
    assert randfield.field_variance(model, Region(A=(10.0, 10.0))) == pytest.approx(
        0.01 * np.pi, rel=1e-12
    )


# --- simulation -----------------------------------------------------------


def _sites(region, n, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(-np.asarray(region.A) / 2, np.asarray(region.A) / 2, (n, region.d))


def test_simulate_deterministic_and_order_equivariant():
    region = Region(A=(10.0, 10.0))
    model = randfield.car1(1.0, tau2=0.01, n_knots=400)
    sites = _sites(region, 30, 0)
    e1 = randfield.simulate_field(model, region, sites, 7)
    e2 = randfield.simulate_field(model, region, sites, 7)
    np.testing.assert_array_equal(e1, e2)
    # knots and jumps do not depend on the sites, so permuting the sites
    # permutes the field values
    perm = np.random.default_rng(1).permutation(30)
    e3 = randfield.simulate_field(model, region, sites[perm], 7)
    np.testing.assert_allclose(e3, e1[perm], rtol=1e-12)


def test_simulate_zero_variance():
    region = Region(A=(10.0, 10.0))
    model = randfield.car1(1.0, tau2=0.0)
    sites = _sites(region, 10, 2)
    np.testing.assert_array_equal(
        randfield.simulate_field(model, region, sites, 0), np.zeros(10)
    )


def test_compound_poisson_empirical_variance():
    """Fixed 800 knots on the doubled region gives intensity 800/400 = 2."""
    region = Region(A=(10.0, 10.0))
    model = randfield.car1(1.0, tau2=0.01, n_knots=800, buffer=2.0)
    sites = _sites(region, 60, 3)
    sq = []
    for rep in range(200):
        e = randfield.simulate_field(model, region, sites, rep)
        sq.append(np.mean(e * e))
    target = randfield.field_variance(model, region)
    assert np.mean(sq) == pytest.approx(target, rel=0.12)


def test_fixed_knot_count_sets_the_field_variance():
    """800 knots on the doubled 20 x 20 region: intensity 800/1600 = 0.5, not RHO."""
    region = Region(A=(20.0, 20.0))
    model = randfield.car1(1.0, tau2=0.01, n_knots=800, buffer=2.0)
    target = randfield.field_variance(model, region)
    # intensity * tau2 * pi / (2 lam^2)
    assert target == pytest.approx(0.5 * 0.01 * np.pi / 2, rel=1e-12)
    sites = _sites(region, 60, 3)
    sq = [
        np.mean(randfield.simulate_field(model, region, sites, rep) ** 2)
        for rep in range(400)
    ]
    assert np.mean(sq) == pytest.approx(target, rel=0.05)


def test_bivariate_shared_measure():
    region = Region(A=(10.0, 10.0))
    model = randfield.FieldModel(
        kernels=((1.0, 1.0), (1.0, 1.0)), tau2=0.01, n_knots=300
    )
    sites = _sites(region, 25, 4)
    e1, e2 = randfield.simulate_bivariate(model, region, sites, sites, 11)
    # identical kernels and shared knots/jumps give identical components
    np.testing.assert_array_equal(e1, e2)
    # and the draw is nondegenerate
    assert np.std(e1) > 0


def test_bivariate_distinct_kernels_differ():
    region = Region(A=(10.0, 10.0))
    model = randfield.FieldModel(
        kernels=((1.0, 0.5), (1.0, 2.0)), tau2=0.01, n_knots=300
    )
    sites = _sites(region, 25, 4)
    e1, e2 = randfield.simulate_bivariate(model, region, sites, sites, 11)
    assert not np.array_equal(e1, e2)


def test_knot_region_buffer():
    region = Region(A=(10.0, 4.0))
    model = randfield.car1(1.0, buffer=2.0)
    np.testing.assert_allclose(
        randfield._knot_halfwidths(model, region), [10.0, 4.0]
    )
    auto = randfield.car1(1.0, buffer=None)
    margin = -np.log(1e-8)
    np.testing.assert_allclose(
        randfield._knot_halfwidths(auto, region), [5.0 + margin, 2.0 + margin]
    )


# --- superposition in row blocks -------------------------------------------


def _dense_superposition(kernel, sites, knots, jumps):
    """The one-array reference: r0 exp(-r1 ||x - a||) @ jumps."""
    r0, r1 = kernel
    return r0 * np.exp(-r1 * cdist(sites, knots)) @ jumps


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@pytest.mark.parametrize("block_rows", [1, 7, None])
def test_superposition_matches_dense_reference(block_rows):
    rng = np.random.default_rng(8)
    sites = rng.uniform(-5.0, 5.0, (52, 2))  # 52 is not a multiple of 7
    knots = rng.uniform(-10.0, 10.0, (30, 2))
    jumps = rng.normal(0.0, 0.1, 30)
    kernel = (1.5, 0.7)
    with pytest.MonkeyPatch.context() as mp:
        if block_rows is not None:
            mp.setattr(randfield, "BLOCK_PAIRS", block_rows * len(knots))
        e = randfield._superposition(kernel, sites, knots, jumps)
    ref = _dense_superposition(kernel, sites, knots, jumps)
    assert e.shape == (52,)
    assert _rel_err(e, ref) <= 1e-12


def test_superposition_edge_cases():
    rng = np.random.default_rng(9)
    sites = rng.uniform(-5.0, 5.0, (6, 2))
    kernel = (1.0, 1.0)
    np.testing.assert_array_equal(
        randfield._superposition(kernel, sites, np.zeros((0, 2)), np.zeros(0)),
        np.zeros(6),
    )
    one_knot, one_jump = np.array([[0.5, -0.5]]), np.array([0.3])
    e = randfield._superposition(kernel, sites, one_knot, one_jump)
    ref = _dense_superposition(kernel, sites, one_knot, one_jump)
    assert _rel_err(e, ref) <= 1e-12
    knots, jumps = rng.uniform(-10.0, 10.0, (40, 2)), rng.normal(size=40)
    e = randfield._superposition(kernel, sites[:1], knots, jumps)
    ref = _dense_superposition(kernel, sites[:1], knots, jumps)
    assert e.shape == (1,)
    assert _rel_err(e, ref) <= 1e-12


def test_bivariate_matches_dense_reference():
    region = Region(A=(10.0, 10.0))
    model = randfield.FieldModel(
        kernels=((1.0, 0.5), (2.0, 2.0)), tau2=0.01, n_knots=300
    )
    sites1, sites2 = _sites(region, 23, 5), _sites(region, 17, 6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(randfield, "BLOCK_PAIRS", 7 * model.n_knots)
        e1, e2 = randfield.simulate_bivariate(model, region, sites1, sites2, 13)
    rng = np.random.default_rng(13)
    knots = randfield._draw_knots(model, region, rng)
    jumps = rng.normal(0.0, np.sqrt(model.tau2), len(knots))
    for e, kernel, sites in zip((e1, e2), model.kernels, (sites1, sites2)):
        assert _rel_err(e, _dense_superposition(kernel, sites, knots, jumps)) <= 1e-12


def test_validation_errors():
    region = Region(A=(10.0, 10.0))
    with pytest.raises(ValueError):
        randfield.FieldModel(kernels=((1.0, 1.0),), tau2=-1.0)
    with pytest.raises(ValueError):
        randfield.car1(-0.5)
    model = randfield.car1(1.0, n_knots=10)
    with pytest.raises(ValueError):
        randfield.simulate_field(model, region, np.array([[20.0, 0.0]]), 0)
    bivar = randfield.FieldModel(kernels=((1.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError):
        randfield.simulate_field(bivar, region, np.zeros((1, 2)), 0)
    with pytest.raises(ValueError):
        randfield.simulate_bivariate(model, region, np.zeros((1, 2)), np.zeros((1, 2)), 0)
