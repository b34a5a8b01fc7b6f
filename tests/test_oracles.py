"""Checks of the conditional-moment oracle in _oracles against the package.

On noise-free responses the conditional moments collapse to realized
values, so the oracle's mean terms must reproduce the package's numbers
exactly; these checks anchor the oracle used by acceptance criterion 1.
"""

import numpy as np
import pytest

from spatial_lp import inference, kernels, lpfit, mc
from spatial_lp.dataset import SpatialDataset, generate_sites, rep_rng

from _oracles import InterceptOracle, covariance_exponential, exponential_self_convolution

# error process of the bundled case (ii) config; the ExperimentSpec defaults
# carry its bandwidths and taper
CASE_II_ERROR = mc.ErrorCase(
    "car1", sigma2=0.01, lam=1.0, tau2=0.01, n_knots=800, buffer=2.0
)


def _spec(p: int, z) -> mc.ExperimentSpec:
    return mc.ExperimentSpec(
        reps=1, n=1000, A=(10.0, 10.0), error=CASE_II_ERROR, p=p, z=tuple(z)
    )


def _sites(spec: mc.ExperimentSpec, rep: int) -> np.ndarray:
    return generate_sites(spec.region(), spec.density, spec.n, rep_rng(7, rep))


def _program_numerator(spec, data, m_z: float) -> float:
    config = lpfit.FitConfig(
        p=spec.p, kernel=spec.kernel(), h=spec.fit_h, pilot_h=spec.pilot_h
    )
    z = np.asarray(spec.z)
    fit = lpfit.fit_at(data, config, z)
    return float(fit.beta_hat[0] - lpfit.estimate_bias(data, config, z)[0] - m_z)


def _program_var0(spec, data) -> float:
    """var0 as the MC harness forms it from W_hat."""
    kern = spec.kernel()
    res_config = lpfit.FitConfig(p=spec.p, kernel=kern, h=spec.variance_h)
    taper = kernels.TaperSpec(widths=spec.taper_b)
    est = inference.variance_hat(data, res_config, taper, np.asarray(spec.z))
    fit_config = lpfit.FitConfig(p=spec.p, kernel=kern, h=spec.fit_h)
    sks00 = fit_config.moments().sks()[0, 0]
    return est.W_hat * sks00 / (data.region.volume * float(np.prod(spec.fit_h)))


@pytest.mark.parametrize("lam", [0.5, 1.0])
def test_self_convolution_table_matches_closed_form(lam):
    t = np.array([0.0, 1e-3, 0.05, 0.5, 1.0, 2.5, 7.0, 14.0])
    got = exponential_self_convolution(lam, t)
    want = [covariance_exponential(lam, np.array([v, 0.0])) for v in t]
    np.testing.assert_allclose(got, want, rtol=1e-10)


@pytest.mark.parametrize("p, z", [(1, (0.0, 0.0)), (2, (0.1, -0.05))])
def test_misfit_term_equals_program_var0_without_noise(p, z):
    spec = _spec(p, z)
    oracle = InterceptOracle(spec)
    for rep in range(2):
        sites = _sites(spec, rep)
        mu = mc.paper_mean(sites / spec.region().sides())
        data = SpatialDataset(region=spec.region(), sites=sites, responses=mu)
        m_z = float(mc.paper_mean(np.asarray(z)[None, :])[0])
        mom = oracle.moments(sites, mu, m_z, mu)

        var0 = _program_var0(spec, data)
        assert mom["misfit"] == pytest.approx(var0, rel=1e-10, abs=0.0)
        N = _program_numerator(spec, data, m_z)
        assert mom["EN"] == pytest.approx(N, rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("p, z", [(1, (0.0, 0.0)), (2, (0.1, -0.05))])
def test_numerator_mean_vanishes_for_linear_trend(p, z):
    spec = _spec(p, z)
    oracle = InterceptOracle(spec)
    sites = _sites(spec, 0)
    s = sites / spec.region().sides()
    mu = 2.0 + 3.0 * s[:, 0] - 1.5 * s[:, 1]
    m_z = 2.0 + 3.0 * z[0] - 1.5 * z[1]
    mom = oracle.moments(sites, mu, m_z)
    assert abs(mom["EN"]) <= 1e-10
    data = SpatialDataset(region=spec.region(), sites=sites, responses=mu)
    assert abs(_program_numerator(spec, data, m_z)) <= 1e-10


def test_realized_statistic_matches_program_with_noise():
    spec = _spec(1, (0.0, 0.0))
    oracle = InterceptOracle(spec)
    rng = rep_rng(11, 0)
    sites = generate_sites(spec.region(), spec.density, spec.n, rng)
    y = mc.simulate_responses(spec, sites, rng)
    data = SpatialDataset(region=spec.region(), sites=sites, responses=y)
    m_z = float(mc.paper_mean(np.zeros((1, 2)))[0])
    mu = mc.paper_mean(sites / spec.region().sides())
    mom = oracle.moments(sites, mu, m_z, y)
    assert mom["N"] == pytest.approx(_program_numerator(spec, data, m_z), rel=1e-10)
    assert mom["var0"] == pytest.approx(_program_var0(spec, data), rel=1e-10)
