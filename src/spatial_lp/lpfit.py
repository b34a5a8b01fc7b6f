"""Order-p local polynomial fitting by kernel-weighted least squares.

The regressors at evaluation point z are the monomials of
(X_i - A*z) / A in canonical basis order; the weights are
K((X_i1 - A_1 z_1)/(A_1 h_1), ..., (X_id - A_d z_d)/(A_d h_d)).
Coefficient j_1...j_L times s! estimates the mixed partial derivative of
the mean surface at z.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import basis, kernels
from .dataset import SpatialDataset

COND_LIMIT = 1e12
RIDGE_SCALE = 1e-10
# candidate (row, site) pairs per block of fit_many: each (rows x strip)
# temporary is at most 256 KiB, the monomials and their weighted copy 2D
# times that. A case-(ii) variance window takes four or five blocks;
# smaller blocks spend more of each fit on per-call overhead
BLOCK_PAIRS = 1 << 15
# how far a strip reaches past the kernel window on the first axis, in units
# of A_1: far more than the rounding in a kernel argument, so every site of
# positive weight lies in its row's strip
STRIP_PAD = 1e-9


class FitError(Exception):
    """Base class for local-fit failures."""


class NoLocalData(FitError):
    """Fewer sites with positive weight than basis functions."""


class RankDeficient(FitError):
    """Weighted normal equations singular to working precision."""


@dataclass(frozen=True)
class FitConfig:
    """Fit configuration: order, kernel, bandwidths (rescaled units)."""

    p: int
    kernel: kernels.KernelSpec
    h: tuple[float, ...]
    pilot_h: tuple[float, ...] | None = None

    def __post_init__(self):
        if any(hj <= 0 for hj in self.h):
            raise ValueError("bandwidths must be positive")
        if len(self.h) != self.kernel.d:
            raise ValueError("bandwidth vector length must equal dimension")

    @property
    def d(self) -> int:
        return self.kernel.d

    def layout(self) -> basis.BasisLayout:
        return _layout_cached(self.d, self.p)

    def moments(self) -> kernels.MomentMatrices:
        return _moments_cached(self.kernel, self.p)

    def pilot(self) -> "FitConfig":
        ph = self.pilot_h if self.pilot_h is not None else self.h
        return replace(self, p=self.p + 1, h=tuple(ph), pilot_h=None)


@functools.cache
def _layout_cached(d, p):
    return basis.build_layout(d, p)


@functools.cache
def _moments_cached(spec, p):
    return kernels.moment_matrices(spec, _layout_cached(spec.d, p))


@dataclass
class FitResult:
    """Coefficients and derivative estimates of one local fit."""

    z: np.ndarray
    beta_hat: np.ndarray
    layout: basis.BasisLayout
    h: np.ndarray
    An: float
    n_eff: int
    boundary_flag: bool
    bias_hat: np.ndarray | None = None

    def derivative(self, idx) -> float:
        idx = tuple(idx)
        k = self.layout.position(idx)
        return float(basis.s_factorial(idx) * self.beta_hat[k])


def _strips(dataset: SpatialDataset, kernel: kernels.KernelSpec, h, Z: np.ndarray):
    """Candidate sites of each row of Z as a padded block: (start, L).

    Row r's candidates are the L sites from sorted position start[r]. They
    hold its first-axis strip |X_i1 - A_1 z_r1| <= A_1 (h_1 C + STRIP_PAD), a
    superset of its kernel window. L is the longest strip; a shorter strip
    is padded with its neighbouring sites, which the kernel weighs zero.
    """
    x = dataset.by_first_axis.columns[0]
    A = dataset.region.sides()[0]
    c = A * Z[:, 0]
    r = A * (h[0] * kernel.support_halfwidth + STRIP_PAD)
    lo = np.searchsorted(x, c - r, side="left")
    L = int(np.max(np.searchsorted(x, c + r, side="right") - lo, initial=0))
    return np.minimum(lo, dataset.n - L), L


def _gather(x: np.ndarray, start: np.ndarray, L: int) -> np.ndarray:
    """Rows x[s:s + L] for each s in start, copied into one (len(start), L) array.

    x is contiguous and 1-D; the copy comes from a window view of it.
    """
    windows = np.ndarray((x.size - L + 1, L), x.dtype, buffer=x, strides=2 * x.strides)
    return windows[start]


def _weigh(dataset: SpatialDataset, kernel: kernels.KernelSpec, h, Z, start, L, t=None):
    """K((X_i - A z) / (A h)) for each row of Z on the L sites from its start.

    W[r, k] weighs the site at sorted position start[r] + k. The kernel is
    evaluated axis by axis in place. With t, t[j] receives the monomial
    argument (X_ij - A_j z_j) / A_j on the same (rows, L) layout.
    """
    srt = dataset.by_first_axis
    A = dataset.region.sides()
    W = None
    for j, hj in enumerate(h):
        u = _gather(srt.columns[j], start, L)
        np.subtract(u, (A[j] * Z[:, j])[:, None], out=u)
        if t is not None:
            np.divide(u, A[j], out=t[j])
        np.divide(u, A[j] * hj, out=u)
        kernels.eval_kernel_axis(kernel, u, out=u)
        W = u if W is None else np.multiply(W, u, out=W)
    return W


def window(dataset: SpatialDataset, kernel: kernels.KernelSpec, h, z):
    """Sites of positive kernel weight at z: (dataset rows, weights).

    The rows come in ascending order of first coordinate.
    """
    Z = np.asarray(z, dtype=float)[None]
    start, L = _strips(dataset, kernel, h, Z)
    w = _weigh(dataset, kernel, h, Z, start, L)[0]
    k = np.flatnonzero(w)
    return dataset.by_first_axis.order[start[0] + k], w[k]


def _check_interior(Z: np.ndarray, d: int) -> None:
    if Z.ndim != 2 or Z.shape[1] != d:
        raise ValueError(f"evaluation point must have dimension {d}")
    outside = (np.abs(Z) >= 0.5).any(axis=1)
    if outside.any():
        raise ValueError(
            f"evaluation point {Z[outside.argmax()]} is not in (-1/2, 1/2)^d"
        )


def fit_at(dataset: SpatialDataset, config: FitConfig, z) -> FitResult:
    """Weighted least squares fit at z, the one-row case of fit_many.

    Raises FitError on degenerate windows.
    """
    z = np.asarray(z, dtype=float)
    _check_interior(z[None], config.d)
    beta, n_eff = _fit_block(dataset, config, z[None])
    ck = config.kernel.support_halfwidth
    boundary = bool(
        (np.abs(z) + ck * np.asarray(config.h) > 0.5).any()
    )
    return FitResult(
        z=z,
        beta_hat=beta[0],
        layout=config.layout(),
        h=np.asarray(config.h, dtype=float),
        An=dataset.region.volume,
        n_eff=int(n_eff[0]),
        boundary_flag=boundary,
    )


def fit_many(dataset: SpatialDataset, config: FitConfig, Z):
    """Local fits at every row of Z (m, d): coefficients (m, D) and n_eff (m,).

    Row r equals the fit_at coefficients at Z[r]. The rows go through in
    blocks of at most BLOCK_PAIRS candidate (row, site) pairs, so memory
    stays bounded whatever m is.
    """
    Z = np.asarray(Z, dtype=float)
    _check_interior(Z, config.d)
    _, L = _strips(dataset, config.kernel, config.h, Z)
    beta = np.empty((len(Z), config.layout().D))
    n_eff = np.empty(len(Z), dtype=np.int64)
    step = max(1, BLOCK_PAIRS // max(1, L))
    for s in range(0, len(Z), step):
        beta[s:s + step], n_eff[s:s + step] = _fit_block(
            dataset, config, Z[s:s + step]
        )
    return beta, n_eff


def _fit_block(dataset: SpatialDataset, config: FitConfig, Z: np.ndarray):
    """Normal equations of each row of Z on its candidate sites, solved.

    The rows share one padded (rows x L) block of candidates. X'WX and X'WY
    of every row are one batched matmul each.
    """
    layout = config.layout()
    D = layout.D
    start, L = _strips(dataset, config.kernel, config.h, Z)
    # X and X * W share one allocation, the block's largest: glibc raises its
    # mmap threshold to the largest block freed and trims the heap only above
    # twice that, so the next block reuses these pages instead of faulting
    # them in again
    XXw = np.empty((len(Z), 2, D, L))
    X, Xw = XXw[:, 0], XXw[:, 1]
    # monomials of t = (X_i - A z) / A, one row per basis index: the first
    # order rows come from the weight pass, every other index is its prefix
    # times one more axis
    X[:, 0] = 1.0
    t = [X[:, layout.position((j + 1,))] for j in range(config.d)] if layout.p else None
    W = _weigh(dataset, config.kernel, config.h, Z, start, L, t)
    counts = np.count_nonzero(W, axis=1)
    short = counts < D
    if short.any():
        r = short.argmax()
        raise NoLocalData(
            f"{counts[r]} sites in the kernel window at z={Z[r]}, need >= {D}"
        )
    for k, idx in enumerate(layout.indices[1:], start=1):
        if len(idx) > 1:
            np.multiply(X[:, layout.position(idx[:-1])], t[idx[-1] - 1], out=X[:, k])
    np.multiply(X, W[:, None, :], out=Xw)
    y = _gather(dataset.by_first_axis.responses, start, L)
    XWX = np.matmul(X, Xw.transpose(0, 2, 1))
    XWY = np.matmul(Xw, y[..., None])[..., 0]
    return _solve_stack(XWX, XWY), counts


def _solve_stack(XWX: np.ndarray, XWY: np.ndarray) -> np.ndarray:
    """Solve a stack of normal equations in one batched LU solve.

    A row over COND_LIMIT (2-norm condition) gets the ridge
    RIDGE_SCALE * trace(X'WX) added to its diagonal, in place: the rescue for
    ill-conditioned full-rank systems. A row singular to working precision is
    a data problem, not a scaling one, and raises RankDeficient.
    """
    cond = np.linalg.cond(XWX)
    singular = ~(cond <= 1.0 / np.finfo(float).eps)  # nan is singular too
    if singular.any():
        c = cond[singular.argmax()]
        raise RankDeficient(f"normal equations numerically singular (cond {c:.3g})")
    ill = cond > COND_LIMIT
    if ill.any():
        tr = np.trace(XWX[ill], axis1=1, axis2=2)
        XWX[ill] += RIDGE_SCALE * tr[:, None, None] * np.eye(XWX.shape[1])
    return np.linalg.solve(XWX, XWY[..., None])[..., 0]


def estimate_bias(dataset: SpatialDataset, config: FitConfig, z) -> np.ndarray:
    """Plug-in bias vector S^{-1} B M_hat from an order-(p+1) pilot fit.

    M_hat holds each top-order pilot coefficient times prod_l h_{j_l}, the
    (p+1)-th derivative over s! on the H scale. The result is on the same
    scale: the intercept component is the bias of beta_hat[0], and
    derivative_bias maps component j_1..j_L to the derivative scale.
    """
    pilot = fit_at(dataset, config.pilot(), z)
    Mn = np.array([
        pilot.beta_hat[pilot.layout.position(idx)] * basis.monomial(idx, config.h)
        for idx in config.layout().top_indices
    ])
    mom = config.moments()
    return np.linalg.solve(mom.S, mom.B @ Mn)


def derivative_bias(layout, idx, bias_vec: np.ndarray, h) -> float:
    """Map a component of the H-scale bias vector to the derivative scale."""
    idx = tuple(idx)
    return float(basis.derivative_scale(idx, h) * bias_vec[layout.position(idx)])


def derivative_variance(
    moments: kernels.MomentMatrices, layout, idx, W: float, An: float, h
) -> float:
    """Plug-in variance of a derivative estimate with long-run variance factor W.

    W s!^2 [S^{-1} Kcal S^{-1}]_kk / (A_n prod_j h_j prod_l h_{j_l}^2).
    """
    idx = tuple(idx)
    k = layout.position(idx)
    scale = basis.derivative_scale(idx, h)
    return float(W * scale**2 * moments.sks()[k, k] / (An * float(np.prod(h))))


def mse_estimate(
    dataset: SpatialDataset,
    config: FitConfig,
    z,
    idx,
    variance_factor: float,
) -> float:
    """Plug-in MSE of the derivative estimator: squared bias plus variance."""
    if variance_factor < 0:
        raise ValueError("variance factor must be nonnegative")
    b = derivative_bias(
        config.layout(), idx, estimate_bias(dataset, config, z), config.h
    )
    var = derivative_variance(
        config.moments(), config.layout(), idx, variance_factor,
        dataset.region.volume, config.h,
    )
    return b * b + var


def select_bandwidth(
    dataset: SpatialDataset,
    config: FitConfig,
    z,
    idx,
    candidates,
    variance_factor: float,
):
    """Grid-search minimizer of the plug-in MSE; ties go to the largest h."""
    if not len(candidates):
        raise ValueError("candidate bandwidth grid is empty")
    scored = []
    failures = []
    for h in candidates:
        h = tuple(float(v) for v in np.atleast_1d(h)) if np.ndim(h) else (float(h),) * config.d
        if len(h) == 1 and config.d > 1:
            h = h * config.d
        cand = replace(config, h=h, pilot_h=config.pilot_h)
        try:
            mse = mse_estimate(dataset, cand, z, idx, variance_factor)
        except FitError as exc:
            failures.append((h, str(exc)))
            warnings.warn(f"bandwidth candidate {h} skipped: {exc}")
            continue
        scored.append((mse, float(np.prod(h)), h))
    if not scored:
        raise FitError(
            "no feasible bandwidth candidate: "
            + "; ".join(f"{h}: {msg}" for h, msg in failures)
        )
    # sort by MSE ascending, then by window volume descending
    scored.sort(key=lambda s: (s[0], -s[1]))
    return scored[0][2]
