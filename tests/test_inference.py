"""Variance estimation, confidence intervals, and the two-sample test."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spatial_lp import basis, inference, kernels, lpfit
from spatial_lp.dataset import Region, SpatialDataset

from _oracles import bisect_normal_quantile

KERN = kernels.KernelSpec(family="product-triangular", d=2)
MOM = kernels.moment_matrices(KERN, basis.build_layout(2, 1))
LAYOUT = basis.build_layout(2, 1)


def _dataset(n, seed, mean=None, noise=1.0, A=10.0):
    region = Region(A=(A, A))
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-A / 2, A / 2, (n, 2))
    y = rng.standard_normal(n) * noise
    if mean is not None:
        y = y + mean(sites / A)
    return SpatialDataset(region=region, sites=sites, responses=y)


# --- normal distribution helpers -----------------------------------------


@pytest.mark.parametrize("u", [0.025, 0.1, 0.5, 0.9, 0.975, 0.999])
def test_normal_quantile_matches_bisection(u):
    assert inference.normal_quantile(u) == pytest.approx(
        bisect_normal_quantile(u), abs=1e-8
    )


def test_cdf_quantile_round_trip():
    for x in (-2.3, -0.5, 0.0, 1.7):
        assert inference.normal_quantile(inference.normal_cdf(x)) == pytest.approx(
            x, abs=1e-9
        )


# --- density and variance estimation --------------------------------------


def test_density_hat_uniform_sites():
    data = _dataset(4000, 0)
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    g = inference.variance_hat(
        data, lambda z: 0.0, KERN, (0.3, 0.3), taper, (0.0, 0.0)
    ).g_hat
    assert g == pytest.approx(1.0, abs=0.06)


def test_variance_zero_for_exact_residuals():
    mean = lambda z: 1.0 + 2.0 * z[:, 0]
    data = _dataset(500, 1, mean=mean, noise=0.0)
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    est = inference.variance_hat(
        data, lambda Z: mean(np.atleast_2d(Z)), KERN, (0.25, 0.25),
        taper, (0.0, 0.0),
    )
    assert est.W_hat == pytest.approx(0.0, abs=1e-18)
    assert est.g_hat > 0


def test_vanishing_taper_keeps_only_diagonal():
    data = _dataset(300, 2)
    h = (0.25, 0.25)
    z = np.zeros(2)
    mhat = lambda z: 0.0
    taper = kernels.TaperSpec(widths=(1e-9, 1e-9))
    est = inference.variance_hat(data, mhat, KERN, h, taper, z)

    A = data.region.sides()
    w = kernels.eval_kernel_many(KERN, (data.sites - A * z) / (A * np.asarray(h)))
    direct = float(np.sum((w * data.responses) ** 2))
    g = w.sum() / (data.n * 0.0625)
    expected_W1 = data.region.volume / (data.n**2 * 0.0625) * direct
    assert est.g_hat == pytest.approx(g, rel=1e-12)
    assert est.W_hat == pytest.approx(
        expected_W1 / (MOM.kappa0_r2 * g**2), rel=1e-10
    )


def test_degenerate_window():
    region = Region(A=(10.0, 10.0))
    data = SpatialDataset(
        region=region, sites=np.full((20, 2), 4.5), responses=np.zeros(20)
    )
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    with pytest.raises(inference.DegenerateWindow):
        inference.variance_hat(
            data, lambda z: 0.0, KERN, (0.05, 0.05), taper, (-0.4, -0.4)
        )


def test_variance_hat_with_fitted_residuals_runs():
    data = _dataset(400, 3, mean=lambda z: np.cos(z[:, 0] + z[:, 1]))
    config = lpfit.FitConfig(p=1, kernel=KERN, h=(0.25, 0.25))
    mhat = inference.make_residual_provider(data, config)
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    est = inference.variance_hat(data, mhat, KERN, (0.25, 0.25), taper, (0.0, 0.0))
    assert est.W_hat >= 0.0
    assert est.g_hat > 0.0


# --- intervals -------------------------------------------------------------


@st.composite
def _tapered_windows(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(20, 150))
    h = tuple(draw(st.floats(0.15, 0.4)) for _ in range(d))
    b = tuple(draw(st.floats(0.05, 8.0)) for _ in range(d))
    z = tuple(draw(st.floats(-0.3, 0.3)) for _ in range(d))
    return d, n, h, b, z, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_tapered_windows())
def test_W_hat_nonnegative_when_taper_matrix_is_psd(window):
    """W_hat is a quadratic form in the residuals, so a PSD taper keeps it >= 0.

    The radial Bartlett taper is not positive definite in 2-D in general, so
    only windows whose taper matrix is PSD are drawn.
    """
    d, n, h, b, z, seed = window
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-5.0, 5.0, (n, d))
    data = SpatialDataset(
        region=Region(A=(10.0,) * d), sites=sites, responses=rng.standard_normal(n)
    )
    slope = rng.uniform(-2.0, 2.0, d)
    mhat = lambda Z: 0.3 + Z @ slope
    kern = kernels.KernelSpec(family="product-triangular", d=d)
    taper = kernels.TaperSpec(widths=b)
    try:
        _, X, _ = inference._window(data, kern, h, z, mhat)
    except inference.DegenerateWindow:
        assume(False)
    eig = np.linalg.eigvalsh(kernels.eval_taper_pairs(taper, X, X))
    assume(eig.min() >= -1e-12 * eig.max())
    est = inference.variance_hat(data, mhat, kern, h, taper, z)
    assert est.W_hat >= 0.0


def test_interval_halfwidth_formula():
    An, h, W, tau = 100.0, np.array([0.2, 0.2]), 0.5, 0.05
    hw = inference.interval_halfwidth(MOM, LAYOUT, (1,), W, An, h, tau)
    sks = MOM.sks()
    var = W * sks[1, 1] / (An * 0.04 * 0.2**2)
    q = inference.normal_quantile(0.975)
    assert hw == pytest.approx(q * np.sqrt(var), rel=1e-12)
    # quadrupling W doubles the width
    hw4 = inference.interval_halfwidth(MOM, LAYOUT, (1,), 4 * W, An, h, tau)
    assert hw4 == pytest.approx(2 * hw, rel=1e-12)


def _fit_result(beta, h=(0.2, 0.2), An=100.0, bias=None):
    return lpfit.FitResult(
        z=np.zeros(2),
        beta_hat=np.asarray(beta, dtype=float),
        layout=LAYOUT,
        h=np.asarray(h, dtype=float),
        An=An,
        n_eff=50,
        boundary_flag=False,
        bias_hat=None if bias is None else np.asarray(bias, dtype=float),
    )


def test_confidence_interval_is_bias_corrected():
    fit = _fit_result([2.0, 0.1, -0.1], bias=[0.3, 0.0, 0.0])
    varest = inference.VarianceEstimate(g_hat=1.0, W_hat=0.5)
    lo, hi = inference.confidence_interval(fit, varest, MOM, (), 0.05)
    assert 0.5 * (lo + hi) == pytest.approx(1.7, rel=1e-12)
    hw = inference.interval_halfwidth(MOM, LAYOUT, (), 0.5, 100.0, fit.h, 0.05)
    assert hi - lo == pytest.approx(2 * hw, rel=1e-12)
    with pytest.raises(ValueError):
        inference.confidence_interval(fit, varest, MOM, (), 1.5)


# --- two-sample test --------------------------------------------------------


def test_two_sample_variance_identical_samples_is_zero():
    data = _dataset(300, 4)
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    mhat = lambda z: 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        V = inference.two_sample_variance(
            data, data, KERN, (0.25, 0.25), taper, np.zeros(2), mhat, mhat
        )
    assert V == pytest.approx(0.0, abs=1e-12)


def test_two_sample_variance_positive_for_independent_samples():
    d1 = _dataset(400, 5)
    d2 = _dataset(400, 6)
    taper = kernels.TaperSpec(widths=(1.0, 1.0))
    mhat = lambda z: 0.0
    V = inference.two_sample_variance(
        d1, d2, KERN, (0.25, 0.25), taper, np.zeros(2), mhat, mhat
    )
    assert V > 0.0


@st.composite
def _sample_pairs(draw):
    d = draw(st.integers(1, 2))
    n1 = draw(st.integers(20, 150))
    n2 = draw(st.integers(20, 150).filter(lambda n: n != n1))
    h = tuple(draw(st.floats(0.15, 0.4)) for _ in range(d))
    b = tuple(draw(st.floats(0.05, 8.0)) for _ in range(d))
    z = tuple(draw(st.floats(-0.3, 0.3)) for _ in range(d))
    return d, n1, n2, h, b, z, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_sample_pairs())
def test_two_sample_variance_is_the_three_term_form(pair):
    """V_check = (V1/g1^2 + V2/g2^2 - 2 V3/(g1 g2)) / kappa_0^(2), clamped at 0.

    V1, V2 are the within-sample tapered sums, V3 the cross-sample one,
    each scaled by A_n / (n_a n_b h_1...h_d). The tolerance is relative to
    the sum of the terms' magnitudes, which bounds any cancellation.
    """
    d, n1, n2, h, b, z, seed = pair
    rng = np.random.default_rng(seed)
    region = Region(A=(10.0,) * d)
    samples = [
        SpatialDataset(
            region=region, sites=rng.uniform(-5.0, 5.0, (n, d)),
            responses=rng.standard_normal(n),
        )
        for n in (n1, n2)
    ]
    slopes = [rng.uniform(-2.0, 2.0, d) for _ in samples]
    mhats = [lambda Z, s=s: 0.3 + Z @ s for s in slopes]
    kern = kernels.KernelSpec(family="product-triangular", d=d)
    taper = kernels.TaperSpec(widths=b)
    An, hv = region.volume, float(np.prod(h))

    gs, wins = [], []
    A = region.sides()
    for data, mhat in zip(samples, mhats):
        w = kernels.eval_kernel_many(kern, (data.sites - A * z) / (A * np.asarray(h)))
        act = w > 0
        gs.append(w.sum() / (data.n * hv))
        res = data.responses[act] - mhat(data.sites[act] / data.region.sides())
        wins.append((data.sites[act], w[act] * res))
    assume(min(gs) > 0)

    def V(i, j):
        (Xi, wri), (Xj, wrj) = wins[i], wins[j]
        s = wri @ kernels.eval_taper_pairs(taper, Xi, Xj) @ wrj
        return An / (samples[i].n * samples[j].n * hv) * s

    g1, g2 = gs
    terms = [V(0, 0) / g1**2, V(1, 1) / g2**2, -2.0 * V(0, 1) / (g1 * g2)]
    expected = max(sum(terms), 0.0) / kernels.kappa0_r2(kern)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        got = inference.two_sample_variance(
            *samples, kern, h, taper, np.asarray(z), *mhats
        )
    scale = sum(abs(t) for t in terms) / kernels.kappa0_r2(kern)
    assert abs(got - expected) <= 1e-12 * scale


def test_two_sample_variance_fits_each_window_residual_once(monkeypatch):
    fits = []
    fit_many = lpfit.fit_many

    def counting_fit_many(dataset, config, Z):
        fits.extend((id(dataset), tuple(np.round(z, 12))) for z in Z)
        return fit_many(dataset, config, Z)

    monkeypatch.setattr(lpfit, "fit_many", counting_fit_many)
    d1, d2 = _dataset(400, 5), _dataset(300, 6)
    h, z = (0.25, 0.25), np.array([0.05, -0.05])
    config = lpfit.FitConfig(p=1, kernel=KERN, h=h)
    inference.two_sample_variance(
        d1, d2, KERN, h, kernels.TaperSpec(widths=(1.0, 1.0)), z,
        inference.make_residual_provider(d1, config),
        inference.make_residual_provider(d2, config),
    )
    expected = []
    for data in (d1, d2):
        u = (data.sites / data.region.sides() - z) / np.asarray(h)
        window = data.rescaled_sites()[(np.abs(u) < 1.0).all(axis=1)]
        expected += [(id(data), tuple(np.round(x, 12))) for x in window]
    assert len(expected) > 0
    assert sorted(fits) == sorted(expected)


def test_two_sample_variance_region_mismatch():
    d1 = _dataset(50, 7, A=10.0)
    d2 = _dataset(50, 8, A=8.0)
    taper = kernels.TaperSpec(widths=(1.0, 1.0))
    with pytest.raises(ValueError):
        inference.two_sample_variance(
            d1, d2, KERN, (0.25, 0.25), taper, np.zeros(2),
            lambda z: 0.0, lambda z: 0.0,
        )


def test_two_sample_test_decisions():
    h = (0.25, 0.25)
    fit1 = _fit_result([2.0, 0.0, 0.0], h=h)
    # An = 100, prod h = 0.0625, V = 1, sks00 = 4/9 -> T = 3.75 * diff
    fit2 = _fit_result([1.0, 0.0, 0.0], h=h)
    report = inference.two_sample_test(fit1, fit2, 1.0, MOM, (), 0.05)
    assert report.T == pytest.approx(3.75, rel=1e-12)
    assert report.decision == "reject"
    assert report.p_value < 0.001

    fit3 = _fit_result([1.9, 0.0, 0.0], h=h)
    report = inference.two_sample_test(fit1, fit3, 1.0, MOM, (), 0.05)
    assert report.T == pytest.approx(0.375, rel=1e-9)
    assert report.decision == "accept"
    assert report.p_value > 0.05


def test_two_sample_test_inconclusive_and_validation():
    fit1 = _fit_result([1.0, 0.0, 0.0])
    fit2 = _fit_result([2.0, 0.0, 0.0])
    report = inference.two_sample_test(fit1, fit2, 0.0, MOM, (), 0.05)
    assert report.decision == "inconclusive"
    assert np.isnan(report.T)

    other_h = _fit_result([1.0, 0.0, 0.0], h=(0.3, 0.3))
    with pytest.raises(ValueError):
        inference.two_sample_test(fit1, other_h, 1.0, MOM, (), 0.05)
    with pytest.raises(ValueError):
        inference.two_sample_test(fit1, fit2, 1.0, MOM, (), 0.8)
