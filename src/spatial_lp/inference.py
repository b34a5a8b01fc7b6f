"""Asymptotic variance estimation, confidence intervals, two-sample test.

The long-run variance factor is estimated by a Bartlett-tapered double sum
over residual products, restricted to site pairs inside the kernel window
and, among those, to pairs within the taper's first-axis reach (all other
terms vanish identically).
"""

from __future__ import annotations

import math
import warnings
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


def _long_run_variance(windows, config: FitConfig, taper, An) -> float:
    """A_n / (h_1...h_d kappa_0^(2)) sum_{a,b} u_a' Kbar(X_a, X_b) u_b.

    windows holds one (X_a, u_a) per sample, its rows ascending in first
    coordinate. The taper is symmetric, so each pair of samples a < b, and
    each pair of sites within a sample, is evaluated once and counted twice.
    Every block of taper values lives in one buffer of at most TAPER_PAIRS
    pairs, so memory stays bounded whatever the window sizes.
    """
    m = max(len(u) for _, u in windows)
    # a block holds at least one row, whose strip has at most m columns
    buf = np.empty((2, min(max(TAPER_PAIRS, m), m * m)))
    s = 0.0
    for a, (Xa, ua) in enumerate(windows):
        for b, (Xb, ub) in enumerate(windows[a:], start=a):
            term = _taper_sum(taper, Xa, ua, Xb, ub, a == b, buf)
            s += term if a == b else 2.0 * term
    return An / (float(np.prod(config.h)) * kernels.kappa0_r2(config.kernel)) * s


def _taper_sum(taper, X, u, Y, v, same: bool, buf: np.ndarray) -> float:
    """u' Kbar(X, Y) v over the pairs the taper can weigh, in row blocks.

    The taper vanishes once |X_i1 - Y_j1| >= b_1, and the rows of X and Y
    ascend in first coordinate, so row i meets only the columns of its
    first-axis strip; a block of rows meets the union of their strips. A
    block ends before rows x strip would pass the buffer's pairs. With same
    (X is Y and u is v), a block of rows r0..r1-1 takes only the columns
    from r0 on and counts those from r1 on twice, so each unordered pair is
    evaluated once.
    """
    b1 = taper.widths[0]
    # one b_1 plus STRIP_PAD: far more than the rounding in a scaled
    # difference, so every pair of positive weight lies in its row's strip
    lo, hi = lpfit.strips(Y[:, 0] / b1, X[:, 0] / b1, 1.0 + lpfit.STRIP_PAD)
    if same:
        lo = np.maximum(lo, np.arange(len(lo)))
    s = 0.0
    for r0, r1, c0, c1 in lpfit.row_blocks(lo, hi, buf.shape[1]):
        shape = (r1 - r0, c1 - c0)
        K = kernels.eval_taper_pairs(
            taper, X[r0:r1], Y[c0:c1],
            out=buf[0, : shape[0] * shape[1]].reshape(shape),
            work=buf[1, : shape[0] * shape[1]].reshape(shape),
        )
        if same:
            Kv = K[:, : shape[0]] @ v[r0:r1]
            Kv += K[:, shape[0]:] @ (2.0 * v[r1:c1])
        else:
            Kv = K @ v[c0:c1]
        s += float(u[r0:r1] @ Kv)
    return s


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
    W = _long_run_variance([(X, u)], config, taper, dataset.region.volume)
    return VarianceEstimate(g_hat=g, W_hat=W)


def confidence_interval(
    fit: FitResult, bias: np.ndarray | None, W: float, idx, tau: float
) -> tuple[float, float]:
    """Normal confidence interval for a derivative of the mean, W the variance factor.

    Bias-corrected by estimate_bias's vector for fit.config unless bias is None.
    """
    if not 0.0 < tau < 1.0:
        raise ValueError("level tau must be in (0, 1)")
    idx = tuple(idx)
    center = fit.derivative(idx)
    if bias is not None:
        center -= derivative_bias(fit.config, idx, bias)
    var = derivative_variance(fit.config, idx, W, fit.An)
    hw = normal_quantile(1.0 - tau / 2.0) * np.sqrt(max(var, 0.0))
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
    window and residuals are those of variance_hat.
    """
    if ds1.region != ds2.region:
        raise ValueError("both samples must share one sampling region")
    z = np.asarray(z, dtype=float)
    _, X1, u1 = _window(ds1, config, z, mhat1)
    _, X2, u2 = _window(ds2, config, z, mhat2)
    V = _long_run_variance([(X1, u1), (X2, -u2)], config, taper, ds1.region.volume)
    if V < 0.0:
        warnings.warn("pooled two-sample variance negative; clamped to 0")
        return 0.0
    return V


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
