"""Asymptotic variance estimation, confidence intervals, two-sample test.

The long-run variance factor is estimated by a Bartlett-tapered double sum
over residual products, restricted to site pairs inside the kernel window
(all other terms vanish identically).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from . import basis, kernels, lpfit
from .dataset import SpatialDataset
from .lpfit import FitConfig, FitResult, derivative_variance, kernel_weights


class DegenerateWindow(Exception):
    """Density estimate vanished at the evaluation point."""


def normal_quantile(u: float) -> float:
    return float(ndtri(u))


def normal_cdf(x: float) -> float:
    return float(ndtr(x))


@dataclass
class VarianceEstimate:
    """Plug-in estimate of the asymptotic variance factor W_n."""

    g_hat: float
    W1_hat: float
    W_hat: float
    residual_bandwidth: tuple[float, ...]


@dataclass
class TestReport:
    """Outcome of the two-sample derivative test."""

    idx: tuple
    T: float
    V_check: float
    p_value: float
    level: float
    decision: str  # "reject", "accept", or "inconclusive"


def density_hat(dataset: SpatialDataset, kernel: kernels.KernelSpec, h, z) -> float:
    """(n h_1...h_d)^{-1} sum_i K_Ah(X_i - A z)."""
    h = np.asarray(h, dtype=float)
    w = kernel_weights(dataset, kernel, h, z)
    return float(w.sum() / (dataset.n * np.prod(h)))


def make_residual_provider(dataset: SpatialDataset, config: FitConfig):
    """m_hat by local polynomial fits: (m, d) rescaled points to (m,) intercepts."""
    return lambda Z: lpfit.fit_many(dataset, config, Z)[0][:, 0]


def _window_residuals(dataset: SpatialDataset, kernel, h, z, mhat):
    """In-window sites X_i and their K_i r_i, with r_i = Y_i - m_hat(X_i / A).

    Sites outside the kernel window carry zero weight, so they drop out of
    every tapered sum and need no residual fit.
    """
    w = kernel_weights(dataset, kernel, h, z)
    active = np.flatnonzero(w > 0.0)
    sites = dataset.sites[active]
    res = dataset.responses[active] - mhat(sites / dataset.region.sides())
    return sites, w[active] * res


def _tapered_sum(window1, window2, taper: kernels.TaperSpec) -> float:
    """sum_{i,j} wr_i Kbar(X_i - Y_j) wr'_j over two windows (X, wr), (Y, wr')."""
    (X, wr), (Y, wr2) = window1, window2
    if wr.size == 0 or wr2.size == 0:
        return 0.0
    return float(wr @ kernels.eval_taper_pairs(taper, X, Y) @ wr2)


def variance_hat(
    dataset: SpatialDataset,
    mhat,
    kernel: kernels.KernelSpec,
    h,
    taper: kernels.TaperSpec,
    z,
) -> VarianceEstimate:
    """Tapered double-sum estimate of the asymptotic variance factor.

    mhat maps an (m, d) array of rescaled points to the (m,) fitted means;
    it supplies the residuals Y_i - m_hat(X_i / A).
    """
    z = np.asarray(z, dtype=float)
    h = tuple(float(v) for v in np.atleast_1d(h))
    g = density_hat(dataset, kernel, h, z)
    if g <= 0.0:
        raise DegenerateWindow(f"estimated density at z={z} is zero")
    window = _window_residuals(dataset, kernel, h, z, mhat)
    s = _tapered_sum(window, window, taper)
    An = dataset.region.volume
    W1 = An / (dataset.n**2 * float(np.prod(h))) * s
    W = W1 / (kernels.kappa0_r2(kernel) * g * g)
    return VarianceEstimate(g_hat=g, W1_hat=W1, W_hat=W, residual_bandwidth=h)


def interval_halfwidth(
    moments: kernels.MomentMatrices,
    layout,
    idx,
    W_hat: float,
    An: float,
    h,
    tau: float,
) -> float:
    var = derivative_variance(moments, layout, idx, W_hat, An, h)
    return normal_quantile(1.0 - tau / 2.0) * np.sqrt(max(var, 0.0))


def confidence_interval(
    fit: FitResult,
    varest: VarianceEstimate,
    moments: kernels.MomentMatrices,
    idx,
    tau: float,
) -> tuple[float, float]:
    """Bias-corrected normal confidence interval for a derivative of the mean."""
    if not 0.0 < tau < 1.0:
        raise ValueError("level tau must be in (0, 1)")
    idx = tuple(idx)
    center = fit.derivative(idx)
    if fit.bias_hat is not None:
        k = fit.layout.position(idx)
        center -= basis.derivative_scale(idx, fit.h) * fit.bias_hat[k]
    hw = interval_halfwidth(
        moments, fit.layout, idx, varest.W_hat, fit.An, fit.h, tau
    )
    return (center - hw, center + hw)


def two_sample_variance(
    ds1: SpatialDataset,
    ds2: SpatialDataset,
    kernel: kernels.KernelSpec,
    h,
    taper: kernels.TaperSpec,
    z,
    mhat1,
    mhat2,
) -> float:
    """Pooled variance V_check = V1/g1^2 + V2/g2^2 - 2 V3/(g1 g2), kappa_0^(2)-scaled."""
    if ds1.region != ds2.region:
        raise ValueError("both samples must share one sampling region")
    z = np.asarray(z, dtype=float)
    h = tuple(float(v) for v in np.atleast_1d(h))
    An = ds1.region.volume
    hv = float(np.prod(h))

    g1 = density_hat(ds1, kernel, h, z)
    g2 = density_hat(ds2, kernel, h, z)
    if g1 <= 0.0 or g2 <= 0.0:
        raise DegenerateWindow("estimated density vanished in one of the samples")

    win1 = _window_residuals(ds1, kernel, h, z, mhat1)
    win2 = _window_residuals(ds2, kernel, h, z, mhat2)
    V1 = An / (ds1.n**2 * hv) * _tapered_sum(win1, win1, taper)
    V2 = An / (ds2.n**2 * hv) * _tapered_sum(win2, win2, taper)
    V3 = An / (ds1.n * ds2.n * hv) * _tapered_sum(win1, win2, taper)

    V = (V1 / g1**2 + V2 / g2**2 - 2.0 * V3 / (g1 * g2)) / kernels.kappa0_r2(kernel)
    if V < 0.0:
        warnings.warn("pooled two-sample variance negative; clamped to 0")
        return 0.0
    return V


def two_sample_test(
    fit1: FitResult,
    fit2: FitResult,
    V_check: float,
    moments: kernels.MomentMatrices,
    idx,
    tau: float,
) -> TestReport:
    """Normal test of equal derivatives at a point, per the pooled statistic."""
    if not 0.0 < tau < 0.5:
        raise ValueError("test level tau must be in (0, 1/2)")
    idx = tuple(idx)
    if not np.allclose(fit1.h, fit2.h) or not np.allclose(fit1.z, fit2.z):
        raise ValueError("both fits must use the same z and bandwidths")
    if V_check <= 0.0:
        return TestReport(
            idx=idx, T=float("nan"), V_check=V_check, p_value=float("nan"),
            level=tau, decision="inconclusive",
        )
    diff = fit1.derivative(idx) - fit2.derivative(idx)
    T = diff / np.sqrt(
        derivative_variance(moments, fit1.layout, idx, V_check, fit1.An, fit1.h)
    )
    p = 2.0 * (1.0 - normal_cdf(abs(T)))
    q = normal_quantile(1.0 - tau / 2.0)
    return TestReport(
        idx=idx,
        T=float(T),
        V_check=float(V_check),
        p_value=float(p),
        level=tau,
        decision="reject" if abs(T) >= q else "accept",
    )
