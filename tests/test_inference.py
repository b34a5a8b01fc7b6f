"""Variance estimation, confidence intervals, and the two-sample test."""

import dataclasses
import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist
from scipy.special import ndtri

from spatial_lp import basis, inference, kernels, lpfit
from spatial_lp.dataset import Region, SpatialDataset, save_csv

from _oracles import bisect_normal_quantile, kernel_values, taper_pairs

KERN = kernels.KernelSpec(family="product-triangular", d=2)
MOM = kernels.moment_matrices(KERN, basis.build_layout(2, 1))


def _config(h, kern=KERN):
    return lpfit.FitConfig(p=1, kernel=kern, h=tuple(h))


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


@pytest.mark.parametrize("tau", [0.01, 0.05, 0.1])
def test_normal_quantile_matches_scipy(tau):
    """The stdlib quantile agrees with scipy's ndtri to a few ulp.

    Near u = 0.95 one ulp of u moves the quantile by about 5 ulp of q, so
    two accurate routines may differ by that much; at tau = 0.1 the two
    differ by 3 ulp.
    """
    u = 1.0 - tau / 2.0
    ref = float(ndtri(u))
    assert abs(inference.normal_quantile(u) - ref) <= 4 * math.ulp(ref)


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
        data, _config((0.3, 0.3)), taper, (0.0, 0.0), lambda z: 0.0
    ).g_hat
    assert g == pytest.approx(1.0, abs=0.06)


def test_variance_zero_for_exact_residuals():
    mean = lambda z: 1.0 + 2.0 * z[:, 0]
    data = _dataset(500, 1, mean=mean, noise=0.0)
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    est = inference.variance_hat(
        data, _config((0.25, 0.25)), taper, (0.0, 0.0),
        lambda Z: mean(np.atleast_2d(Z)),
    )
    assert est.W_hat == pytest.approx(0.0, abs=1e-18)
    assert est.g_hat > 0


def test_vanishing_taper_keeps_only_diagonal():
    data = _dataset(300, 2)
    h = (0.25, 0.25)
    z = np.zeros(2)
    mhat = lambda z: 0.0
    taper = kernels.TaperSpec(widths=(1e-9, 1e-9))
    est = inference.variance_hat(data, _config(h), taper, z, mhat)

    A = data.region.sides()
    w = kernel_values(KERN, (data.sites - A * z) / (A * np.asarray(h)))
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
            data, _config((0.05, 0.05)), taper, (-0.4, -0.4), lambda z: 0.0
        )


def test_variance_hat_with_fitted_residuals_runs():
    data = _dataset(400, 3, mean=lambda z: np.cos(z[:, 0] + z[:, 1]))
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    est = inference.variance_hat(data, _config((0.25, 0.25)), taper, (0.0, 0.0))
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
    config = _config(h, kern)
    try:
        _, X, _ = inference._window(data, config, z, mhat)
    except inference.DegenerateWindow:
        assume(False)
    eig = np.linalg.eigvalsh(taper_pairs(taper, X, X))
    assume(eig.min() >= -1e-12 * eig.max())
    est = inference.variance_hat(data, config, taper, z, mhat)
    assert est.W_hat >= 0.0


@st.composite
def _window_sets(draw):
    """One or two sorted windows on [-2.5, 2.5]^d, residuals, b, a pair budget."""
    d = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    grid = draw(st.booleans())  # sites on a 0.25 grid: ties and distances of exactly b
    windows = []
    for _ in range(draw(st.integers(1, 2))):
        X = rng.uniform(-2.5, 2.5, (draw(st.integers(1, 60)), d))
        if grid:
            X = np.round(X * 4.0) / 4.0
        windows.append((X[np.argsort(X[:, 0], kind="stable")], rng.standard_normal(len(X))))
    b = tuple(
        draw(st.one_of(st.floats(0.1, 12.0), st.sampled_from([0.25, 0.5, 1.0])))
        for _ in range(d)
    )
    pairs = draw(st.sampled_from([1, 7, 64, 500, inference.TAPER_PAIRS]))
    return d, windows, b, pairs


@settings(max_examples=100, deadline=None)
@given(_window_sets())
def test_blocked_taper_sum_equals_dense_double_sum(case):
    """The strip-limited, blocked, one-triangle sum over the pooled windows is
    the dense cdist sum.

    b runs from 0.1 to past the window's width of 5; the pair budget runs
    from one pair to the default, so blocks range from one row to all. The
    tolerance is relative to the sum of the terms' magnitudes.
    """
    d, windows, b, pairs = case
    config = lpfit.FitConfig(
        p=1, kernel=kernels.KernelSpec(family="product-triangular", d=d), h=(0.25,) * d
    )
    taper = kernels.TaperSpec(widths=b)
    X = np.concatenate([Xa for Xa, _ in windows])
    u = np.concatenate([ua for _, ua in windows])
    order = np.argsort(X[:, 0], kind="stable")
    with mock.patch.object(inference, "TAPER_PAIRS", pairs):
        got = inference._long_run_variance(X[order], u[order], config, taper, 1.0)
    scale = float(np.prod(config.h)) * kernels.kappa0_r2(config.kernel)
    dense = magnitude = 0.0
    bb = np.asarray(b)
    for Xa, ua in windows:
        for Xc, uc in windows:
            K = np.maximum(0.0, 1.0 - cdist(Xa / bb, Xc / bb))
            dense += ua @ K @ uc
            magnitude += np.abs(ua) @ K @ np.abs(uc)
    assert abs(got * scale - dense) <= 1e-12 * magnitude


RSS_PROBE = """
import resource
import numpy as np
from spatial_lp import inference, kernels, lpfit
from spatial_lp.dataset import Region, SpatialDataset
# Table-1 case (ii) geometry at n = 16 000: about 4 000 window sites
rng = np.random.default_rng(3)
n = 16_000
data = SpatialDataset(
    Region(A=(10.0, 10.0)), rng.uniform(-5.0, 5.0, (n, 2)), rng.standard_normal(n)
)
config = lpfit.FitConfig(
    p=1, kernel=kernels.KernelSpec("product-triangular", d=2), h=(0.25, 0.25)
)
rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
inference.variance_hat(data, config, kernels.TaperSpec((8.0, 8.0)), (0.0, 0.0))
print((resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0) / 1024.0)
"""


def test_variance_hat_at_large_n_keeps_memory_bounded():
    """One variance_hat call at n = 16 000 grows peak RSS by little.

    Runs in a fresh interpreter. A dense m x m taper matrix over the 4 000
    window sites would take 128 MB and grow peak RSS by about 122 MB.
    """
    src = str(Path(inference.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", RSS_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=600,
    )
    assert float(out.stdout) <= 32.0


def test_interval_halfwidth_formula():
    An, h, W, tau = 100.0, (0.2, 0.2), 0.5, 0.05
    fit = _fit_result([1.0, 0.0, 0.0], h=h, An=An)

    def halfwidth(W):
        lo, hi = inference.confidence_interval(fit, None, W, (1,), tau)
        return 0.5 * (hi - lo)

    sks = MOM.sks()
    var = W * sks[1, 1] / (An * 0.04 * 0.2**2)
    q = inference.normal_quantile(0.975)
    assert halfwidth(W) == pytest.approx(q * np.sqrt(var), rel=1e-12)
    # quadrupling W doubles the width
    assert halfwidth(4 * W) == pytest.approx(2 * halfwidth(W), rel=1e-12)


def _fit_result(beta, h=(0.2, 0.2), An=100.0, p=1):
    return lpfit.FitResult(
        z=np.zeros(2),
        beta_hat=np.asarray(beta, dtype=float),
        config=lpfit.FitConfig(p=p, kernel=KERN, h=tuple(h)),
        An=An,
        n_eff=50,
        boundary_flag=False,
    )


def test_confidence_interval_is_bias_corrected():
    fit = _fit_result([2.0, 0.1, -0.1])
    bias = np.array([0.3, 0.0, 0.0])
    lo, hi = inference.confidence_interval(fit, bias, 0.5, (), 0.05)
    assert 0.5 * (lo + hi) == pytest.approx(1.7, rel=1e-12)
    var = lpfit.derivative_variance(fit.config, (), 0.5, 100.0)
    hw = inference.normal_quantile(0.975) * np.sqrt(var)
    assert hi - lo == pytest.approx(2 * hw, rel=1e-12)
    # a first-order bias is on the H scale: divided by its axis bandwidth
    fit = _fit_result([2.0, 0.1, -0.1], h=(0.2, 0.4))
    bias = np.array([0.3, 0.02, 0.04])
    lo, hi = inference.confidence_interval(fit, bias, 0.5, (2,), 0.05)
    assert 0.5 * (lo + hi) == pytest.approx(-0.1 - 0.04 / 0.4, rel=1e-12)
    with pytest.raises(ValueError):
        inference.confidence_interval(fit, bias, 0.5, (), 1.5)


def test_readme_library_example_runs(tmp_path, monkeypatch):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    (tmp_path / "data").mkdir()
    data = _dataset(2000, 11, mean=lambda z: np.cos(z[:, 0] + z[:, 1]))
    save_csv(data, tmp_path / "data" / "data.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["lo"] < namespace["hi"]


# --- two-sample test --------------------------------------------------------


def test_two_sample_variance_identical_samples_is_zero():
    data = _dataset(300, 4)
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    mhat = lambda z: 0.0
    V = inference.two_sample_variance(
        data, data, _config((0.25, 0.25)), taper, np.zeros(2), mhat, mhat
    )
    assert V == pytest.approx(0.0, abs=1e-12)


def test_two_sample_variance_positive_for_independent_samples():
    d1 = _dataset(400, 5)
    d2 = _dataset(400, 6)
    taper = kernels.TaperSpec(widths=(1.0, 1.0))
    mhat = lambda z: 0.0
    V = inference.two_sample_variance(
        d1, d2, _config((0.25, 0.25)), taper, np.zeros(2), mhat, mhat
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


def _two_samples(pair):
    """Two samples of the pair, their mhats, kernel and taper, and the three
    terms of V_check times kappa_0^(2): V1/g1^2, V2/g2^2, -2 V3/(g1 g2).

    V1, V2 are the within-sample tapered sums, V3 the cross-sample one,
    each scaled by A_n / (n_a n_b h_1...h_d).
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
        w = kernel_values(kern, (data.sites - A * z) / (A * np.asarray(h)))
        act = w > 0
        gs.append(w.sum() / (data.n * hv))
        res = data.responses[act] - mhat(data.sites[act] / data.region.sides())
        wins.append((data.sites[act], w[act] * res))
    assume(min(gs) > 0)

    def V(i, j):
        (Xi, wri), (Xj, wrj) = wins[i], wins[j]
        s = wri @ taper_pairs(taper, Xi, Xj) @ wrj
        return An / (samples[i].n * samples[j].n * hv) * s

    g1, g2 = gs
    terms = [V(0, 0) / g1**2, V(1, 1) / g2**2, -2.0 * V(0, 1) / (g1 * g2)]
    return samples, mhats, _config(h, kern), taper, np.asarray(z), terms


@settings(max_examples=60, deadline=None)
@given(_sample_pairs())
def test_two_sample_variance_is_the_three_term_form(pair):
    """V_check = (V1/g1^2 + V2/g2^2 - 2 V3/(g1 g2)) / kappa_0^(2), unclamped.

    The tolerance is relative to the sum of the terms' magnitudes, which
    bounds any cancellation.
    """
    samples, mhats, config, taper, z, terms = _two_samples(pair)
    kappa = kernels.kappa0_r2(config.kernel)
    got = inference.two_sample_variance(*samples, config, taper, z, *mhats)
    scale = sum(abs(t) for t in terms) / kappa
    assert abs(got - sum(terms) / kappa) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(_sample_pairs())
def test_two_sample_variance_is_symmetric_in_the_samples(pair):
    """Swapping the samples negates every u_i of the pooled window, which
    leaves its quadratic form unchanged up to rounding."""
    samples, mhats, config, taper, z, terms = _two_samples(pair)
    V12 = inference.two_sample_variance(*samples, config, taper, z, *mhats)
    V21 = inference.two_sample_variance(*samples[::-1], config, taper, z, *mhats[::-1])
    scale = sum(abs(t) for t in terms) / kernels.kappa0_r2(config.kernel)
    assert abs(V12 - V21) <= 1e-12 * scale


def test_two_sample_variance_fits_each_window_residual_once(monkeypatch):
    fits = []
    fit_many = lpfit.fit_many

    def counting_fit_many(dataset, config, Z):
        fits.extend((id(dataset), tuple(np.round(z, 12))) for z in Z)
        return fit_many(dataset, config, Z)

    monkeypatch.setattr(lpfit, "fit_many", counting_fit_many)
    d1, d2 = _dataset(400, 5), _dataset(300, 6)
    h, z = (0.25, 0.25), np.array([0.05, -0.05])
    inference.two_sample_variance(
        d1, d2, _config(h), kernels.TaperSpec(widths=(1.0, 1.0)), z
    )
    expected = []
    for data in (d1, d2):
        rescaled = data.sites / data.region.sides()
        u = (rescaled - z) / np.asarray(h)
        window = rescaled[(np.abs(u) < 1.0).all(axis=1)]
        expected += [(id(data), tuple(np.round(x, 12))) for x in window]
    assert len(expected) > 0
    assert sorted(fits) == sorted(expected)


def test_two_sample_variance_region_mismatch():
    d1 = _dataset(50, 7, A=10.0)
    d2 = _dataset(50, 8, A=8.0)
    taper = kernels.TaperSpec(widths=(1.0, 1.0))
    with pytest.raises(ValueError):
        inference.two_sample_variance(
            d1, d2, _config((0.25, 0.25)), taper, np.zeros(2),
            lambda z: 0.0, lambda z: 0.0,
        )


def test_two_sample_test_decisions():
    h = (0.25, 0.25)
    fit1 = _fit_result([2.0, 0.0, 0.0], h=h)
    # An = 100, prod h = 0.0625, V = 1, sks00 = 4/9 -> T = 3.75 * diff
    fit2 = _fit_result([1.0, 0.0, 0.0], h=h)
    report = inference.two_sample_test(fit1, fit2, 1.0, (), 0.05)
    assert report.T == pytest.approx(3.75, rel=1e-12)
    assert report.decision == "reject"
    assert report.p_value < 0.001

    fit3 = _fit_result([1.9, 0.0, 0.0], h=h)
    report = inference.two_sample_test(fit1, fit3, 1.0, (), 0.05)
    assert report.T == pytest.approx(0.375, rel=1e-9)
    assert report.decision == "accept"
    assert report.p_value > 0.05


def test_two_sample_p_value_keeps_the_far_tail():
    """2 (1 - Phi(|T|)) cancels to 0 near |T| = 8.3; 2 Phi(-|T|) does not."""
    h = (0.25, 0.25)
    fit1 = _fit_result([3.4, 0.0, 0.0], h=h)
    fit2 = _fit_result([1.0, 0.0, 0.0], h=h)
    report = inference.two_sample_test(fit1, fit2, 1.0, (), 0.05)
    assert report.T == pytest.approx(9.0, rel=1e-12)
    exact = math.erfc(abs(report.T) / math.sqrt(2.0))
    assert exact == pytest.approx(2.257e-19, rel=1e-3)
    assert report.p_value == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_two_sample_test_inconclusive_and_validation():
    fit1 = _fit_result([1.0, 0.0, 0.0])
    fit2 = _fit_result([2.0, 0.0, 0.0])
    report = inference.two_sample_test(fit1, fit2, 0.0, (), 0.05)
    assert report.decision == "inconclusive"
    assert np.isnan(report.T)

    other_h = _fit_result([1.0, 0.0, 0.0], h=(0.3, 0.3))
    with pytest.raises(ValueError):
        inference.two_sample_test(fit1, other_h, 1.0, (), 0.05)
    with pytest.raises(ValueError):
        inference.two_sample_test(fit1, fit2, 1.0, (), 0.8)


def test_two_sample_test_requires_one_fit_config():
    """Equal bandwidths are not enough: the two fits must share p as well.

    An order-2 fit's coefficients are on another basis, so a report built
    on the first fit's layout would compare unlike quantities.
    """
    fit1 = _fit_result([1.0, 0.0, 0.0])
    fit2 = _fit_result([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], p=2)
    assert fit1.config.h == fit2.config.h
    with pytest.raises(ValueError, match="fit configuration"):
        inference.two_sample_test(fit1, fit2, 1.0, (), 0.05)
    with pytest.raises(ValueError, match="fit configuration"):
        inference.two_sample_test(fit2, fit1, 1.0, (1,), 0.05)


def test_fit_result_is_frozen():
    fit = _fit_result([1.0, 0.0, 0.0])
    with pytest.raises(dataclasses.FrozenInstanceError):
        fit.beta_hat = np.ones(3)
    assert fit.layout is fit.config.layout()
