"""Asymptotic variance estimation, confidence intervals, two-sample test.

The long-run variance factor is estimated by a Bartlett-tapered double sum
over residual products, restricted to site pairs inside the kernel window
and, among those, to pairs within the taper's first-axis reach (all other
terms vanish identically).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from . import kernels, lpfit
from .dataset import SpatialDataset
from .lpfit import FitConfig, FitError, FitResult, derivative_bias, derivative_variance


# site pairs per block of the tapered sum: its taper values and one axis's
# squares, 256 KiB each
TAPER_PAIRS = 1 << 15


class DegenerateWindow(FitError):
    """Density estimate vanished at the evaluation point."""


def normal_quantile(u: float) -> float:
    return NormalDist().inv_cdf(u)


def normal_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


@dataclass
class VarianceEstimate:
    """Plug-in estimate of the asymptotic variance factor W_n."""

    g_hat: float
    W_hat: float


@dataclass
class TestReport:
    """Outcome of the two-sample derivative test."""

    idx: tuple
    T: float
    V_check: float
    p_value: float
    level: float
    decision: str  # "reject", "accept", or "inconclusive"


def _window(dataset: SpatialDataset, config: FitConfig, z, mhat):
    """(g_hat, X, u): density at z, in-window sites and u_i = K_i r_i / (n g_hat).

    g_hat = (n h_1...h_d)^{-1} sum_i K_i with K_i = K_Ah(X_i - A z), and
    r_i = Y_i - m_hat(X_i / A), m_hat the order-p fit of config at each
    window site unless mhat maps the (m, d) rescaled sites to their means.
    Sites outside the kernel window carry zero weight, so they drop out of
    every tapered sum and need no residual fit.
    """
    rows, w = lpfit.window(dataset, config.kernel, config.h, z)
    g = float(w.sum() / (dataset.n * np.prod(config.h)))
    if g <= 0.0:
        raise DegenerateWindow(f"estimated density at z={z} is zero")
    X = dataset.sites[rows]
    Z = X / dataset.region.sides()
    m = _residual_means(dataset, config, Z) if mhat is None else mhat(Z)
    return g, X, w * (dataset.responses[rows] - m) / (dataset.n * g)


def _residual_means(dataset: SpatialDataset, config: FitConfig, Z) -> np.ndarray:
    """m_hat at the (m, d) rescaled points Z: the intercepts of config's fits."""
    return lpfit.fit_many(dataset, config, Z)[0][:, 0]


def residual_means_once(dataset: SpatialDataset, config: FitConfig):
    """An mhat for variance_hat at many z: _window's own residual means, each
    distinct site fitted once across calls, as the windows of a grid overlap."""
    fitted = {}

    def mhat(Z):
        new = {z.tobytes(): z for z in Z if z.tobytes() not in fitted}
        if new:
            m = _residual_means(dataset, config, np.array(list(new.values())))
            fitted.update(zip(new, m))
        return np.array([fitted[z.tobytes()] for z in Z])

    return mhat


def _long_run_variance(X, u, config: FitConfig, taper, An) -> float:
    """A_n / (h_1...h_d kappa_0^(2)) sum_{i,j} u_i Kbar(X_i - X_j) u_j.

    The rows of X ascend in first coordinate. The taper vanishes once
    |X_i1 - X_j1| >= b_1, so row i meets only the columns of its first-axis
    strip; a block of rows meets the union of their strips. The taper is
    symmetric, so a block of rows r0..r1-1 takes only the columns from r0 on
    and counts those from r1 on twice: each unordered pair is evaluated
    once. Every block of taper values lives in one buffer of at most
    TAPER_PAIRS pairs, so memory stays bounded whatever the window size, and
    slices the taper operands built once for the whole window.
    """
    m = len(u)
    x = X[:, 0] / taper.widths[0]
    # one b_1 plus STRIP_PAD: far more than the rounding in a scaled
    # difference, so every pair of positive weight lies in its row's strip
    lo, hi = lpfit.strips(x, x, 1.0 + lpfit.STRIP_PAD)
    lo = np.maximum(lo, np.arange(m))
    # a block holds at least one row, whose strip has at most m columns
    buf = np.empty((2, min(max(TAPER_PAIRS, m), m * m)))
    left, right = kernels.taper_operands(taper, X)
    s = 0.0
    for r0, r1, c0, c1 in lpfit.row_blocks(lo, hi, buf.shape[1]):
        rows, cols = r1 - r0, c1 - c0
        out, work = (part[: rows * cols].reshape(rows, cols) for part in buf)
        K = kernels.taper_block(left[:, r0:r1], right[:, :, c0:c1], out, work)
        Ku = K[:, :rows] @ u[r0:r1]
        Ku += K[:, rows:] @ (2.0 * u[r1:c1])
        s += float(u[r0:r1] @ Ku)
    return An / (float(np.prod(config.h)) * kernels.kappa0_r2(config.kernel)) * s


def variance_hat(
    dataset: SpatialDataset,
    config: FitConfig,
    taper: kernels.TaperSpec,
    z,
    mhat=None,
) -> VarianceEstimate:
    """Tapered double-sum estimate of the asymptotic variance factor.

    The window is config's kernel at config.h; the residuals are
    Y_i - m_hat(X_i / A) with m_hat the order-p fit of config, or mhat,
    which maps an (m, d) array of rescaled points to the (m,) means.
    """
    z = np.asarray(z, dtype=float)
    g, X, u = _window(dataset, config, z, mhat)
    W = _long_run_variance(X, u, config, taper, dataset.region.volume)
    return VarianceEstimate(g_hat=g, W_hat=W)


def confidence_interval(
    fit: FitResult, bias: np.ndarray | None, W: float, idx, tau: float
) -> tuple[float, float]:
    """Normal confidence interval for a derivative of the mean, W the variance factor.

    Bias-corrected by estimate_bias's vector for fit.config unless bias is None.
    A W that leaves no positive variance raises lpfit.NonPositiveVariance.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("level tau must be in (0, 1)")
    idx = tuple(idx)
    center = fit.derivative(idx)
    if bias is not None:
        center -= derivative_bias(fit.config, idx, bias)
    var = derivative_variance(fit.config, idx, W, fit.An)
    hw = normal_quantile(1.0 - tau / 2.0) * np.sqrt(var)
    return (center - hw, center + hw)


def two_sample_variance(
    ds1: SpatialDataset,
    ds2: SpatialDataset,
    config: FitConfig,
    taper: kernels.TaperSpec,
    z,
    mhat1=None,
    mhat2=None,
) -> float:
    """Pooled variance V_check: the tapered double sum over both samples, u_2 negated.

    It equals (V1/g1^2 + V2/g2^2 - 2 V3/(g1 g2)) / kappa_0^(2) with the
    within-sample sums V1, V2 and the cross-sample sum V3. Each sample's
    window and residuals are those of variance_hat. The radial Bartlett
    taper is not positive definite in d >= 2, so V_check may be negative:
    it is returned unclamped, and two_sample_test reads V <= 0 as
    inconclusive.
    """
    if ds1.region != ds2.region:
        raise ValueError("both samples must share one sampling region")
    z = np.asarray(z, dtype=float)
    _, X1, u1 = _window(ds1, config, z, mhat1)
    _, X2, u2 = _window(ds2, config, z, mhat2)
    X, u = np.concatenate([X1, X2]), np.concatenate([u1, -u2])
    order = np.argsort(X[:, 0], kind="stable")
    return _long_run_variance(X[order], u[order], config, taper, ds1.region.volume)


def two_sample_test(
    fit1: FitResult,
    fit2: FitResult,
    V_check: float,
    idx,
    tau: float,
) -> TestReport:
    """Normal test of equal derivatives at a point, per the pooled statistic."""
    if not 0.0 < tau < 0.5:
        raise ValueError("test level tau must be in (0, 1/2)")
    idx = tuple(idx)
    if fit1.config != fit2.config or not np.allclose(fit1.z, fit2.z):
        raise ValueError("both fits must use the same z and fit configuration")
    if V_check <= 0.0:
        return TestReport(
            idx=idx, T=float("nan"), V_check=V_check, p_value=float("nan"),
            level=tau, decision="inconclusive",
        )
    diff = fit1.derivative(idx) - fit2.derivative(idx)
    T = diff / np.sqrt(derivative_variance(fit1.config, idx, V_check, fit1.An))
    p = 2.0 * normal_cdf(-abs(T))
    q = normal_quantile(1.0 - tau / 2.0)
    return TestReport(
        idx=idx,
        T=float(T),
        V_check=float(V_check),
        p_value=float(p),
        level=tau,
        decision="reject" if abs(T) >= q else "accept",
    )
