"""Local polynomial fitting: exactness, bias plug-in, bandwidth selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatial_lp import basis, kernels, lpfit
from spatial_lp.dataset import Region, SpatialDataset


def _config(d, p, h, pilot_h=None, family="product-triangular"):
    return lpfit.FitConfig(
        p=p,
        kernel=kernels.KernelSpec(family=family, d=d),
        h=(h,) * d,
        pilot_h=(pilot_h,) * d if pilot_h is not None else None,
    )


def _uniform_dataset(d, n, seed, responses=None, A=10.0):
    region = Region(A=(A,) * d)
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-A / 2, A / 2, (n, d))
    y = np.zeros(n) if responses is None else responses(sites / A)
    return SpatialDataset(region=region, sites=sites, responses=y)


def _poly_mean(layout, coeffs, z0):
    """Polynomial in rescaled coordinates with Taylor coefficients at z0."""

    def mean(u):
        u = np.atleast_2d(u)
        t = u - np.asarray(z0)
        out = np.zeros(u.shape[0])
        for k, idx in enumerate(layout.indices):
            term = np.full(u.shape[0], coeffs[k])
            for j in idx:
                term = term * t[:, j - 1]
            out += term
        return out

    return mean


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_polynomial_recovery_is_exact(d, p):
    """A degree-p trend is reproduced exactly from noiseless data."""
    layout = basis.build_layout(d, p)
    rng = np.random.default_rng(100 * d + p)
    coeffs = rng.uniform(-2, 2, layout.D)
    z0 = (0.1,) * d
    data = _uniform_dataset(d, 600, 17 + d + p, _poly_mean(layout, coeffs, z0))
    fit = lpfit.fit_at(data, _config(d, p, 0.3), z0)
    np.testing.assert_allclose(fit.beta_hat, coeffs, atol=1e-9)
    # derivative(idx) = s! * beta_k
    for k, idx in enumerate(layout.indices):
        assert fit.derivative(idx) == pytest.approx(
            basis.s_factorial(idx) * coeffs[k], abs=1e-8
        )


def test_quadratic_bias_plug_in():
    """m(u) = u1^2 + u2^2, p = 1, h = 0.2, triangular kernel.

    The order-2 pilot recovers the curvature exactly, so the intercept
    bias is (kappa_2/2)(m_11 + m_22) h^2 = (1/12)(2 + 2)(0.04) = 1/75.
    """
    data = _uniform_dataset(
        2, 800, 23, lambda u: u[:, 0] ** 2 + u[:, 1] ** 2
    )
    config = _config(2, 1, 0.2, pilot_h=0.3)
    bias = lpfit.estimate_bias(data, config, (0.0, 0.0))
    assert bias[0] == pytest.approx(1 / 75, abs=1e-9)
    # odd components vanish for the symmetric kernel
    assert bias[1] == pytest.approx(0.0, abs=1e-9)
    assert bias[2] == pytest.approx(0.0, abs=1e-9)


def test_derivative_bias_scaling():
    config = _config(2, 1, 0.2)
    vec = np.array([0.5, 0.02, -0.04])
    layout, h = config.layout(), config.h
    assert lpfit.derivative_bias(layout, (), vec, h) == pytest.approx(0.5)
    assert lpfit.derivative_bias(layout, (1,), vec, h) == pytest.approx(0.02 / 0.2)
    assert lpfit.derivative_bias(layout, (2,), vec, h) == pytest.approx(-0.04 / 0.2)


def test_cubic_bias_with_mixed_terms_and_unequal_bandwidths():
    """A noiseless cubic with every third-order monomial, p = 2, d = 2.

    The order-3 pilot recovers each top-order coefficient c_t exactly, so
    the bias vector is S^{-1} B M with M_t = c_t prod_l h_{j_l} at the fit
    bandwidths (not the pilot's). With p = 2 the mixed indices (1, 1, 2)
    and (1, 2, 2) reach the first-order rows of B, so a wrong s! or a
    swapped bandwidth on them moves the result.
    """
    top = {(1, 1, 1): 1.5, (1, 1, 2): -2.0, (1, 2, 2): 3.0, (2, 2, 2): -1.0}

    def mean(u):
        lower = 0.4 + 0.3 * u[:, 0] - 0.2 * u[:, 1] + u[:, 0] * u[:, 1]
        return lower + sum(c * np.prod(u[:, np.array(t) - 1], axis=1)
                           for t, c in top.items())

    data = _uniform_dataset(2, 2000, 31, mean)
    h = (0.2, 0.3)
    config = lpfit.FitConfig(
        p=2, kernel=kernels.KernelSpec(family="product-triangular", d=2),
        h=h, pilot_h=(0.3, 0.35),
    )
    z = (0.05, -0.1)
    tops = config.layout().top_indices
    M = np.array([top[t] * np.prod([h[j - 1] for j in t]) for t in tops])
    mom = config.moments()
    assert mom.B[1, tops.index((1, 2, 2))] and mom.B[2, tops.index((1, 1, 2))]
    expected = np.linalg.solve(mom.S, mom.B @ M)
    got = lpfit.estimate_bias(data, config, z)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_fit_mean_at_is_intercept():
    data = _uniform_dataset(2, 400, 3, lambda u: 1.0 + u[:, 0])
    config = _config(2, 1, 0.3)
    z = (0.2, -0.1)
    assert lpfit.fit_at(data, config, z).beta_hat[0] == pytest.approx(1.2, abs=1e-10)


def test_no_local_data():
    data = _uniform_dataset(2, 20, 5)
    with pytest.raises(lpfit.NoLocalData):
        lpfit.fit_at(data, _config(2, 1, 0.01), (0.0, 0.0))


def test_rank_deficient_on_coincident_sites():
    region = Region(A=(10.0, 10.0))
    data = SpatialDataset(
        region=region, sites=np.zeros((8, 2)), responses=np.arange(8.0)
    )
    with pytest.raises(lpfit.RankDeficient):
        lpfit.fit_at(data, _config(2, 1, 0.3), (0.0, 0.0))


def test_evaluation_point_must_be_interior():
    data = _uniform_dataset(2, 100, 6)
    config = _config(2, 1, 0.2)
    with pytest.raises(ValueError):
        lpfit.fit_at(data, config, (0.5, 0.0))
    with pytest.raises(ValueError):
        lpfit.fit_at(data, config, (0.0, -0.7))
    with pytest.raises(ValueError):
        lpfit.fit_at(data, config, (0.0,))


def test_boundary_flag():
    data = _uniform_dataset(2, 500, 7)
    config = _config(2, 1, 0.2)
    assert not lpfit.fit_at(data, config, (0.0, 0.0)).boundary_flag
    assert lpfit.fit_at(data, config, (0.4, 0.0)).boundary_flag


def test_config_validation():
    kern = kernels.KernelSpec(family="product-triangular", d=2)
    with pytest.raises(ValueError):
        lpfit.FitConfig(p=1, kernel=kern, h=(0.2, -0.1))
    with pytest.raises(ValueError):
        lpfit.FitConfig(p=1, kernel=kern, h=(0.2,))


def test_pilot_config():
    config = _config(2, 1, 0.2, pilot_h=0.25)
    pilot = config.pilot()
    assert pilot.p == 2
    assert pilot.h == (0.25, 0.25)
    assert pilot.pilot_h is None


def test_mse_estimate_is_bias_squared_plus_variance():
    data = _uniform_dataset(
        2, 800, 23, lambda u: u[:, 0] ** 2 + u[:, 1] ** 2
    )
    config = _config(2, 1, 0.2, pilot_h=0.3)
    z = (0.0, 0.0)
    W = 0.5
    mse = lpfit.mse_estimate(data, config, z, (), W)
    bias = lpfit.estimate_bias(data, config, z)[0]
    sks00 = config.moments().sks()[0, 0]
    var = W * sks00 / (data.region.volume * 0.2 * 0.2)
    assert mse == pytest.approx(bias**2 + var, rel=1e-12)
    with pytest.raises(ValueError):
        lpfit.mse_estimate(data, config, z, (), -1.0)


def test_select_bandwidth_minimizes_plug_in_mse():
    data = _uniform_dataset(
        2, 1500, 29, lambda u: 4 * u[:, 0] ** 2 + 4 * u[:, 1] ** 2
    )
    config = _config(2, 1, 0.2, pilot_h=0.3)
    z = (0.0, 0.0)
    cands = [0.1, 0.15, 0.2, 0.3, 0.4]
    W = 1e-4
    best = lpfit.select_bandwidth(data, config, z, (), cands, W)
    scores = {
        h: lpfit.mse_estimate(
            data, _config(2, 1, h, pilot_h=0.3), z, (), W
        )
        for h in cands
    }
    assert best == (min(scores, key=scores.get),) * 2
    # zero responses give exactly zero MSE at every candidate; the tie
    # goes to the largest kernel window
    flat = _uniform_dataset(2, 1500, 29)
    best = lpfit.select_bandwidth(flat, config, z, (), cands, 0.0)
    assert best == (0.4, 0.4)


def test_select_bandwidth_failure_paths():
    data = _uniform_dataset(2, 30, 31)
    config = _config(2, 1, 0.2, pilot_h=0.3)
    with pytest.raises(ValueError):
        lpfit.select_bandwidth(data, config, (0.0, 0.0), (), [], 1.0)
    # without a fixed pilot bandwidth the pilot inherits each candidate,
    # so windows that are too small fail and are reported collectively
    loose = _config(2, 1, 0.2)
    with pytest.raises(lpfit.FitError):
        with pytest.warns(UserWarning):
            lpfit.select_bandwidth(
                data, loose, (0.0, 0.0), (), [0.001, 0.002], 1.0
            )


# --- batched fits: properties at random (d, p, Z) ---------------------------

PROPERTY = settings(max_examples=30, deadline=None)


@st.composite
def _batches(draw, lo=-0.3, hi=0.3):
    d = draw(st.integers(1, 3))
    p = draw(st.integers(1, 2))
    m = draw(st.integers(1, 7))
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    Z = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                               min_size=m, max_size=m)))
    return d, p, Z, draw(st.integers(0, 2**32 - 1))


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


@PROPERTY
@given(_batches(), st.integers(1, 4))
def test_fit_many_equals_stacked_single_fits(batch, block_rows):
    d, p, Z, seed = batch
    rng = np.random.default_rng(seed)
    data = _uniform_dataset(d, 400, seed, lambda u: rng.standard_normal(len(u)))
    config = _config(d, p, 0.3)
    _, L = lpfit._strips(data, config.kernel, config.h, Z)
    blocks = []
    fit_block = lpfit._fit_block

    def counting_fit_block(dataset, config, Zb):
        blocks.append(len(Zb))
        return fit_block(dataset, config, Zb)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpfit, "BLOCK_PAIRS", block_rows * L)
        mp.setattr(lpfit, "_fit_block", counting_fit_block)
        beta, n_eff = lpfit.fit_many(data, config, Z)
    m = len(Z)
    assert blocks == [min(block_rows, m - s) for s in range(0, m, block_rows)]
    single = [lpfit.fit_at(data, config, z) for z in Z]
    assert _rel_err(beta, np.stack([f.beta_hat for f in single])) <= 1e-12
    assert n_eff.tolist() == [f.n_eff for f in single]


@st.composite
def _edge_windows(draw):
    d = draw(st.integers(1, 3))
    family = draw(st.sampled_from(kernels.FAMILIES))
    C = draw(st.sampled_from([0.5, 1.0, 1.5]))
    A = tuple(draw(st.floats(2.0, 20.0)) for _ in range(d))
    h = tuple(draw(st.floats(0.05, 0.3)) for _ in range(d))
    # rows near the region edge on some axes, anywhere on others
    coord = st.one_of(
        st.floats(-0.499, -0.4), st.floats(0.4, 0.499), st.floats(-0.4, 0.4)
    )
    m = draw(st.integers(1, 6))
    Z = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                               min_size=m, max_size=m)))
    return kernels.KernelSpec(family, C, d), A, h, Z, draw(st.integers(0, 2**32 - 1))


def _last_inside(c, a, C, sign):
    """The outermost double x on side sign of c with |((x - c) / a) / C| <= 1.

    Bisects between c (inside) and c + 2 sign a C (outside): the test is
    monotone in x, and halving ends in at most ~1100 steps even when the
    boundary is 0 and the doubles next to it are subnormal.
    """
    c, a, C = float(c), float(a), float(C)
    inside, outside = c, c + sign * 2.0 * a * C
    while True:
        mid = inside + (outside - inside) / 2.0
        if mid == inside or mid == outside:
            return inside
        if abs(((mid - c) / a) / C) <= 1.0:
            inside = mid
        else:
            outside = mid


@settings(max_examples=100, deadline=None)
@given(_edge_windows())
def test_window_weights_equal_the_dense_kernel(case):
    """The engine's positive (row, site) set and its weights equal a dense pass.

    Besides uniform sites, every row gets sites at exactly A z +- A h C on each
    axis and at two corners of its window, where the uniform kernel is still
    positive, and the outermost sites that rounding leaves inside the uniform
    kernel's support. Weights are compared bitwise.
    """
    kern, A, h, Z, seed = case
    d = kern.d
    Av, hv, C = np.asarray(A), np.asarray(h), kern.support_halfwidth
    region = Region(A=A)
    edges = []
    for z in Z:
        c = Av * z
        for j in range(d):
            for sign in (-1.0, 1.0):
                for xj in (c[j] + sign * Av[j] * hv[j] * C,
                           _last_inside(c[j], Av[j] * hv[j], C, sign)):
                    x = c.copy()
                    x[j] = xj
                    edges.append(x)
        edges += [c + Av * hv * C, c - Av * hv * C]
    edges = np.array(edges)
    rng = np.random.default_rng(seed)
    sites = np.vstack(
        [rng.uniform(-Av / 2, Av / 2, (300, d)), edges[region.contains(edges)]]
    )
    data = SpatialDataset(region=region, sites=sites, responses=np.zeros(len(sites)))

    start, L = lpfit._strips(data, kern, h, Z)
    W = lpfit._weigh(data, kern, h, Z, start, L)
    order = data.by_first_axis.order
    for r, z in enumerate(Z):
        dense = 1.0
        for j in range(d):
            u = (data.sites[:, j] - Av[j] * z[j]) / (Av[j] * hv[j])
            dense = dense * kernels.eval_kernel_axis(kern, u)
        expected = np.flatnonzero(dense > 0.0)
        k = np.flatnonzero(W[r] > 0.0)
        rows, w = lpfit.window(data, kern, h, z)
        for got_rows, got_w in ((order[start[r] + k], W[r, k]), (rows, w)):
            by_row = np.argsort(got_rows)
            assert got_rows[by_row].tolist() == expected.tolist()
            assert got_w[by_row].tobytes() == dense[expected].tobytes()


@PROPERTY
@given(_batches())
def test_fit_many_reproduces_polynomials(batch):
    d, p, Z, seed = batch
    layout = basis.build_layout(d, p)
    coeffs = np.random.default_rng(seed).uniform(-2, 2, layout.D)
    mean = _poly_mean(layout, coeffs, Z[0])
    data = _uniform_dataset(d, 400, seed, mean)
    beta, _ = lpfit.fit_many(data, _config(d, p, 0.3), Z)
    np.testing.assert_allclose(beta[0], coeffs, atol=1e-9)
    np.testing.assert_allclose(beta[:, 0], mean(Z), atol=1e-9)


@PROPERTY
@given(_batches())
def test_fit_many_invariant_under_site_permutation(batch):
    d, p, Z, seed = batch
    rng = np.random.default_rng(seed)
    data = _uniform_dataset(d, 400, seed, lambda u: rng.standard_normal(len(u)))
    perm = rng.permutation(data.n)
    shuffled = SpatialDataset(
        region=data.region, sites=data.sites[perm], responses=data.responses[perm]
    )
    config = _config(d, p, 0.3)
    beta, n_eff = lpfit.fit_many(data, config, Z)
    beta_s, n_eff_s = lpfit.fit_many(shuffled, config, Z)
    assert _rel_err(beta_s, beta) <= 1e-12
    assert n_eff_s.tolist() == n_eff.tolist()


@PROPERTY
@given(_batches(lo=-0.4, hi=-0.3), st.booleans(), st.integers(0, 7))
def test_degenerate_row_raises_as_its_single_fit(batch, coincident, where):
    """Sites fill x1 < 0, plus D coincident sites at 0.4 A on every axis.

    A row at the cluster is rank deficient, a row elsewhere in x1 > 0 has
    no local data; the batch raises what the single fit of that row raises.
    """
    d, p, Z, seed = batch
    layout = basis.build_layout(d, p)
    A = 10.0
    rng = np.random.default_rng(seed)
    left = rng.uniform(-A / 2, A / 2, (2000, d))
    left[:, 0] = -np.abs(left[:, 0])
    cluster = np.full((layout.D, d), 0.4 * A)
    sites = np.vstack([left, cluster])
    data = SpatialDataset(
        region=Region(A=(A,) * d), sites=sites, responses=rng.standard_normal(len(sites))
    )
    bad = np.full(d, 0.4) if coincident else np.full(d, 0.2)
    config = _config(d, p, 0.15)
    with pytest.raises(lpfit.FitError) as single:
        lpfit.fit_at(data, config, bad)
    expected = lpfit.RankDeficient if coincident else lpfit.NoLocalData
    assert type(single.value) is expected
    Z = np.insert(Z, min(where, len(Z)), bad, axis=0)
    with pytest.raises(expected):
        lpfit.fit_many(data, config, Z)


def test_ill_conditioned_row_alone_takes_the_ridge_rescue(monkeypatch):
    """Sites on a line (jitter 1e-7) make a window full rank but over COND_LIMIT.

    Only that row of the batch is solved with the ridge
    RIDGE_SCALE * trace(X'WX) on its diagonal, every other row without one,
    and every row matches its single fit.
    """
    rng = np.random.default_rng(8)
    A = 10.0
    left = np.column_stack(
        [rng.uniform(-A / 2, 0.0, 400), rng.uniform(-A / 2, A / 2, 400)]
    )
    line = np.column_stack(
        [rng.uniform(0.2 * A, 0.45 * A, 60), A * (0.3 + 1e-7 * rng.standard_normal(60))]
    )
    sites = np.vstack([left, line])
    data = SpatialDataset(
        region=Region(A=(A, A)), sites=sites, responses=rng.standard_normal(len(sites))
    )
    config = _config(2, 1, 0.1)
    Z = np.array([[-0.3, 0.0], [0.33, 0.3], [-0.25, 0.1]])
    single = np.stack([lpfit.fit_at(data, config, z).beta_hat for z in Z])

    systems = []
    solve_stack = lpfit._solve_stack

    def recording_solve_stack(XWX, XWY):
        systems.append((XWX.copy(), XWY.copy()))
        return solve_stack(XWX, XWY)

    monkeypatch.setattr(lpfit, "_solve_stack", recording_solve_stack)
    beta, _ = lpfit.fit_many(data, config, Z)
    [(XWX, XWY)] = systems
    cond = np.linalg.cond(XWX)
    ill = cond > lpfit.COND_LIMIT
    assert ill.tolist() == [False, True, False]
    assert cond[1] < 1.0 / np.finfo(float).eps
    for r in range(len(Z)):
        ridge = lpfit.RIDGE_SCALE * np.trace(XWX[r]) if ill[r] else 0.0
        expected = np.linalg.solve(XWX[r] + ridge * np.eye(3), XWY[r])
        assert _rel_err(beta[r], expected) <= 1e-12
    assert _rel_err(beta, single) <= 1e-12
