"""Order-p local polynomial fitting by kernel-weighted least squares.

The regressors at evaluation point z are the monomials of
(X_i - A*z) / A in canonical basis order; the weights are
K((X_i1 - A_1 z_1)/(A_1 h_1), ..., (X_id - A_d z_d)/(A_d h_d)).
Coefficient j_1...j_L times s! estimates the mixed partial derivative of
the mean surface at z.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import NamedTuple

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
# how far a strip or box reaches past the kernel window on each axis it
# bounds, in units of A_j: far more than the rounding in a kernel argument,
# so every site of positive weight lies among its row's candidates
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


@dataclass(frozen=True)
class FitResult:
    """Coefficients and derivative estimates of one local fit under config."""

    z: np.ndarray
    beta_hat: np.ndarray
    config: FitConfig
    An: float
    n_eff: int
    boundary_flag: bool

    @property
    def layout(self) -> basis.BasisLayout:
        return self.config.layout()

    def derivative(self, idx) -> float:
        idx = tuple(idx)
        k = self.layout.position(idx)
        return float(basis.s_factorial(idx) * self.beta_hat[k])


class _Strips(NamedTuple):
    """Candidates of a block of rows: row r's are the L sites from start[r] on."""

    start: np.ndarray
    L: int

    def gather(self, x: np.ndarray) -> np.ndarray:
        """Rows x[s:s + L] for each s in start, copied into one (rows, L) array.

        x is contiguous and 1-D; the copy comes from a window view of it.
        """
        L = self.L
        windows = np.ndarray(
            (x.size - L + 1, L), x.dtype, buffer=x, strides=2 * x.strides
        )
        return windows[self.start]


class _Box(NamedTuple):
    """Candidates of one row: the sites at sorted positions pos, ascending."""

    pos: np.ndarray

    @property
    def L(self) -> int:
        return self.pos.size

    def gather(self, x: np.ndarray) -> np.ndarray:
        """x at the box's positions as one (1, L) row."""
        return x[self.pos][None]


def _reach(dataset: SpatialDataset, kernel: kernels.KernelSpec, h) -> np.ndarray:
    """A_j (h_j C + STRIP_PAD): how far a candidate may lie from A_j z_j on axis j."""
    C = kernel.support_halfwidth
    return dataset.region.sides() * (np.asarray(h) * C + STRIP_PAD)


def _strips(dataset: SpatialDataset, kernel: kernels.KernelSpec, h, Z) -> _Strips:
    """Candidate sites of each row of Z as one padded block.

    Row r's strip holds the sites with |X_i1 - A_1 z_r1| <= A_1 (h_1 C +
    STRIP_PAD), a superset of its kernel window. L is the longest strip; a
    shorter strip is padded with its neighbouring sites, which the kernel
    weighs zero.
    """
    x = dataset.by_first_axis.columns[0]
    c = dataset.region.sides()[0] * Z[:, 0]
    r = _reach(dataset, kernel, h)[0]
    lo = np.searchsorted(x, c - r, side="left")
    L = int(np.max(np.searchsorted(x, c + r, side="right") - lo, initial=0))
    return _Strips(np.minimum(lo, dataset.n - L), L)


def _box(dataset: SpatialDataset, kernel: kernels.KernelSpec, h, z: np.ndarray) -> _Box:
    """Candidate sites of the one point z: its padded box.

    The box holds the sites with |X_ij - A_j z_j| <= A_j (h_j C + STRIP_PAD)
    on every axis, a superset of the kernel window: the first-axis strip,
    masked on each further axis. Its positions ascend, so the sites come in
    ascending order of first coordinate.
    """
    srt = dataset.by_first_axis
    c = dataset.region.sides() * z
    r = _reach(dataset, kernel, h)
    lo, hi = c - r, c + r
    a = int(np.searchsorted(srt.columns[0], lo[0], side="left"))
    b = int(np.searchsorted(srt.columns[0], hi[0], side="right"))
    inside = np.ones(b - a, dtype=bool)
    for j in range(1, len(c)):
        x = srt.columns[j][a:b]
        inside &= x >= lo[j]
        inside &= x <= hi[j]
    return _Box(a + np.flatnonzero(inside))


def _weigh(dataset: SpatialDataset, kernel: kernels.KernelSpec, h, Z, cand, t=None):
    """K((X_i - A z) / (A h)) for each row of Z on its candidate sites.

    cand is the block's candidate layout (_Strips or _Box): W[r, k] weighs
    row r's k-th candidate. The kernel is evaluated axis by axis in place.
    With t, t[j] receives the monomial argument (X_ij - A_j z_j) / A_j on
    the same (rows, L) layout.
    """
    srt = dataset.by_first_axis
    A = dataset.region.sides()
    W = None
    for j, hj in enumerate(h):
        u = cand.gather(srt.columns[j])
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
    cand = _box(dataset, kernel, h, Z[0])
    w = _weigh(dataset, kernel, h, Z, cand)[0]
    k = np.flatnonzero(w)
    return dataset.by_first_axis.order[cand.pos[k]], w[k]


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
    beta, n_eff = _fit_rows(dataset, config, z[None])
    ck = config.kernel.support_halfwidth
    boundary = bool(
        (np.abs(z) + ck * np.asarray(config.h) > 0.5).any()
    )
    return FitResult(
        z=z,
        beta_hat=beta[0],
        config=config,
        An=dataset.region.volume,
        n_eff=int(n_eff[0]),
        boundary_flag=boundary,
    )


def fit_many(dataset: SpatialDataset, config: FitConfig, Z):
    """Local fits at every row of Z (m, d): coefficients (m, D) and n_eff (m,).

    Row r equals the fit_at coefficients at Z[r], up to rounding. The rows
    go through in blocks of at most BLOCK_PAIRS candidate (row, site)
    pairs, so memory stays bounded whatever m is; one batched solve then
    takes every row's normal equations.
    """
    Z = np.asarray(Z, dtype=float)
    _check_interior(Z, config.d)
    return _fit_rows(dataset, config, Z)


def _fit_rows(dataset: SpatialDataset, config: FitConfig, Z: np.ndarray):
    """fit_many's coefficients and n_eff, for rows already checked."""
    D = config.layout().D
    XWX = np.empty((len(Z), D, D))
    XWY = np.empty((len(Z), D))
    n_eff = np.empty(len(Z), dtype=np.int64)
    for rows, cand in _blocks(dataset, config, Z):
        n_eff[rows] = _fit_block(dataset, config, Z[rows], cand, XWX[rows], XWY[rows])
    return _solve_stack(XWX, XWY), n_eff


def _blocks(dataset: SpatialDataset, config: FitConfig, Z: np.ndarray):
    """(rows, candidates) of each block of fit_many: a slice of Z and its layout.

    One row scans its box, a share prod_j 2 h_j C of the region. Several
    rows scan padded first-axis strips, a share 2 h_1 C each: one window
    view gathers a whole block of strips, where boxes would need a gather
    per row or padding to the longest box, and boxes shared by a tile of
    rows took more CPU than strips on residual fits.
    """
    kernel, h = config.kernel, config.h
    if len(Z) == 1:
        yield slice(0, 1), _box(dataset, kernel, h, Z[0])
        return
    step = max(1, BLOCK_PAIRS // max(1, _strips(dataset, kernel, h, Z).L))
    for s in range(0, len(Z), step):
        rows = slice(s, s + step)
        yield rows, _strips(dataset, kernel, h, Z[rows])


def _fit_block(dataset: SpatialDataset, config: FitConfig, Z, cand, XWX, XWY):
    """Normal equations of each row of Z on its candidate sites, into XWX and XWY.

    cand is the block's candidate layout (_Strips or _Box), one (rows x L)
    block. X'WX and X'WY of every row are one batched matmul each. Returns
    each row's count of positive weights; a row with fewer than D raises
    NoLocalData.
    """
    layout = config.layout()
    D = layout.D
    # X and X * W share one allocation, the block's largest: glibc raises its
    # mmap threshold to the largest block freed and trims the heap only above
    # twice that, so the next block reuses these pages instead of faulting
    # them in again
    XXw = np.empty((len(Z), 2, D, cand.L))
    X, Xw = XXw[:, 0], XXw[:, 1]
    # monomials of t = (X_i - A z) / A, one row per basis index: the first
    # order rows come from the weight pass, every other index is its prefix
    # times one more axis
    X[:, 0] = 1.0
    t = [X[:, layout.position((j + 1,))] for j in range(config.d)] if layout.p else None
    W = _weigh(dataset, config.kernel, config.h, Z, cand, t)
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
    y = cand.gather(dataset.by_first_axis.responses)
    XWX[...] = np.matmul(X, Xw.transpose(0, 2, 1))
    XWY[...] = np.matmul(Xw, y[..., None])[..., 0]
    return counts


def _solve_stack(XWX: np.ndarray, XWY: np.ndarray) -> np.ndarray:
    """Solve a stack of normal equations in one batched LU solve.

    A row over COND_LIMIT (2-norm condition) gets the ridge
    RIDGE_SCALE * trace(X'WX) added to its diagonal, in place: the rescue for
    ill-conditioned full-rank systems. A row singular to working precision is
    a data problem, not a scaling one, and raises RankDeficient. The
    conditions come from an SVD of every row, unless _well_conditioned
    clears the whole stack first.
    """
    if not _well_conditioned(XWX):
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


def _well_conditioned(XWX: np.ndarray) -> bool:
    """Whether every row's 2-norm condition is surely under COND_LIMIT.

    For any invertible A, cond(A) <= ||A||_F ||A^{-1}||_F (compared here
    squared). Up to cond 1e12 the computed inverse, and the SVD's smallest singular
    value, are within a relative 1e-4 of exact, so a row whose computed
    bound is under COND_LIMIT / 2 gets the SVD's decision: no ridge, no
    raise. A bound that is larger or not finite, or a row that inv finds
    singular, decides nothing.
    """
    try:
        inv = np.linalg.inv(XWX)
    except np.linalg.LinAlgError:
        return False
    bound2 = np.einsum("rij,rij->r", XWX, XWX) * np.einsum("rij,rij->r", inv, inv)
    return bool((bound2 < (COND_LIMIT / 2) ** 2).all())


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


def derivative_bias(config: FitConfig, idx, bias_vec: np.ndarray) -> float:
    """Map a component of config's H-scale bias vector to the derivative scale."""
    idx = tuple(idx)
    k = config.layout().position(idx)
    return float(basis.derivative_scale(idx, config.h) * bias_vec[k])


def derivative_variance(config: FitConfig, idx, W: float, An: float) -> float:
    """Plug-in variance of a derivative estimate with long-run variance factor W.

    W s!^2 [S^{-1} Kcal S^{-1}]_kk / (A_n prod_j h_j prod_l h_{j_l}^2).
    """
    idx = tuple(idx)
    k = config.layout().position(idx)
    scale = basis.derivative_scale(idx, config.h)
    sks = config.moments().sks()
    return float(W * scale**2 * sks[k, k] / (An * float(np.prod(config.h))))
