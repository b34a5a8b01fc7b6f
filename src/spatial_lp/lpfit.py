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

import numpy as np

from . import basis, kernels
from .dataset import SpatialDataset

COND_LIMIT = 1e12
RIDGE_SCALE = 1e-10
# multiply-adds (m n k) of one block's moment GEMM, (rows x L) @ (L x (D_2p
# + D)): OpenBLAS runs a GEMM of at most 65536 * 4 of them on the calling
# thread, so no block wakes a BLAS worker. A case-(ii) residual fit (9
# columns) gets about 29 000 candidate pairs a block
BLOCK_MNK = 1 << 18
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


class NonPositiveVariance(FitError):
    """A plug-in variance that is not positive, such as one from W_hat <= 0."""


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


def _reach(dataset: SpatialDataset, kernel: kernels.KernelSpec, h) -> np.ndarray:
    """A_j (h_j C + STRIP_PAD): how far a candidate may lie from A_j z_j on axis j."""
    C = kernel.support_halfwidth
    return dataset.region.sides() * (np.asarray(h) * C + STRIP_PAD)


def _box(dataset: SpatialDataset, kernel: kernels.KernelSpec, h, z: np.ndarray) -> np.ndarray:
    """Candidate sites of the one point z, its padded box, as sorted positions.

    The box holds the sites with |X_ij - A_j z_j| <= A_j (h_j C + STRIP_PAD)
    on every axis, a superset of the kernel window: the first-axis strip,
    masked on each further axis. Its positions ascend, so the sites come in
    ascending order of first coordinate.
    """
    srt = dataset.by_first_axis
    c = dataset.region.sides() * z
    r = _reach(dataset, kernel, h)
    a, b = strips(srt.columns[0], c[0], r[0])
    inside = np.ones(b - a, dtype=bool)
    for j in range(1, len(c)):
        x = srt.columns[j][a:b]
        inside &= x >= c[j] - r[j]
        inside &= x <= c[j] + r[j]
    return a + np.flatnonzero(inside)


def strips(x: np.ndarray, centres, reach: float):
    """(lo, hi): x[lo:hi] holds the x within reach of each centre.

    x ascends; lo and hi take the shape of centres and ascend with them.
    """
    return (
        np.searchsorted(x, centres - reach, side="left"),
        np.searchsorted(x, centres + reach, side="right"),
    )


def row_blocks(lo: np.ndarray, hi: np.ndarray, pairs: int):
    """(r0, r1, c0, c1) of each block: rows r0..r1-1 and columns c0..c1-1.

    Row i's strip is columns lo[i]..hi[i]-1, both ends ascending in i. A
    block is a run of rows with the union of their strips, cut before rows x
    columns would pass pairs, unless it is one row.
    """
    lo, hi = lo.tolist(), hi.tolist()
    s = 0
    for e in range(1, len(lo)):
        # rows s..e meet columns lo[s]..hi[e]-1: a count that grows with e
        if (e - s + 1) * (hi[e] - lo[s]) > pairs:
            yield s, e, lo[s], hi[e - 1]
            s = e
    if lo:
        yield s, len(lo), lo[s], hi[-1]


def _weigh(
    dataset: SpatialDataset, kernel: kernels.KernelSpec, h, Z, pos, t=None, out=None
):
    """K((X_i - A z) / (A h)) for each row of Z on the sorted sites at pos.

    pos is the candidates shared by every row: a slice of the sorted sites,
    or one row's box positions. W[r, k] weighs row r on the k-th candidate.
    The kernel is evaluated axis by axis in place. With t, t[j] receives
    (X_ij - A_j z_j) / A_j on the same (rows, L) layout. With out, a (2,
    rows, L) array, W is out[0] and out[1] takes each further axis's factor.
    """
    srt = dataset.by_first_axis
    A = dataset.region.sides()
    block = isinstance(pos, slice)
    if block:
        # X_ij - A_j z_j as the GEMM [1, -A_j z_j] @ [X_ij, 1]': both products
        # are exact, so its one rounding is the subtraction's. On a block of
        # rows it outruns a broadcast subtract; on one row's box it does not
        left = np.ones((len(Z), 2))
        right = np.ones((2, pos.stop - pos.start))
    W = None
    for j, hj in enumerate(h):
        dst = None if out is None else out[0 if W is None else 1]
        if block:
            np.multiply(Z[:, j], -A[j], out=left[:, 1])
            right[0] = srt.columns[j][pos]
            u = np.matmul(left, right, out=dst)
        else:
            u = np.subtract(srt.columns[j][pos], (A[j] * Z[:, j])[:, None], out=dst)
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
    pos = _box(dataset, kernel, h, Z[0])
    w = _weigh(dataset, kernel, h, Z, pos)[0]
    k = np.flatnonzero(w)
    return dataset.by_first_axis.order[pos[k]], w[k]


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
    beta, n_eff = fit_many(dataset, config, z[None])
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

    Row r equals the fit_at coefficients at Z[r], up to rounding, and its
    n_eff, ridge and raise decisions are those of fit_at. One row is fit
    over its box. Several rows go, in order of first coordinate, through
    blocks whose moment GEMM stays under BLOCK_MNK multiply-adds, so memory
    stays bounded whatever m is; one batched solve then takes every row's
    normal equations.

    A row of several whose system the condition certificate cannot clear is
    rebuilt over its box, as fit_at builds it, before the SVD rule decides:
    so every ridge and raise decision, and the coefficients of every row
    that takes the ridge, are those of its single fit.
    """
    Z = np.asarray(Z, dtype=float)
    _check_interior(Z, config.d)
    if len(Z) == 1:
        XWX, XWY, n_eff = _fit_box(dataset, config, Z[0])
        _check_counts(config, Z, n_eff)
        return _solve_stack(XWX, XWY), n_eff
    cols = _moment_columns(config)
    mu = np.empty((len(Z), cols))
    delta = np.empty_like(Z)
    n_eff = np.empty(len(Z), dtype=np.int64)
    # rows in order of first coordinate, each meeting its first-axis strip; a
    # block's moment GEMM, rows x L x cols, stays under BLOCK_MNK
    order = np.argsort(Z[:, 0], kind="stable")
    lo, hi = strips(
        dataset.by_first_axis.columns[0],
        dataset.region.sides()[0] * Z[order, 0],
        _reach(dataset, config.kernel, config.h)[0],
    )
    blocks = list(row_blocks(lo, hi, BLOCK_MNK // cols))
    # one scratch buffer for every block's weights and monomials, sized to the
    # largest, so no block maps and faults in fresh pages
    scratch = np.empty(max(
        ((2 * (r1 - r0) + cols) * (c1 - c0) for r0, r1, c0, c1 in blocks), default=0
    ))
    for r0, r1, c0, c1 in blocks:
        r = order[r0:r1]
        mu[r], delta[r], n_eff[r] = _block_moments(
            dataset, config, Z[r], slice(c0, c1), scratch
        )
    _check_counts(config, Z, n_eff)
    XWX, XWY = _shift_moments(config, mu, delta)
    cleared = _well_conditioned(XWX)
    for r in np.flatnonzero(~cleared):
        XWX_r, XWY_r, _ = _fit_box(dataset, config, Z[r])
        XWX[r], XWY[r] = XWX_r[0], XWY_r[0]
    return _solve_stack(XWX, XWY, cleared), n_eff


def _check_counts(config: FitConfig, Z: np.ndarray, n_eff: np.ndarray) -> None:
    """Raise NoLocalData for the first row with fewer positive weights than D."""
    D = config.layout().D
    short = n_eff < D
    if short.any():
        r = short.argmax()
        raise NoLocalData(
            f"{n_eff[r]} sites in the kernel window at z={Z[r]}, need >= {D}"
        )


def _fit_box(dataset: SpatialDataset, config: FitConfig, z: np.ndarray):
    """Normal equations of the one point z over its padded box.

    Returns X'WX (1, D, D), X'WY (1, D) and the count of positive weights
    (1,), each one matmul over the box's monomials of t = (X_i - A z) / A.
    """
    layout = config.layout()
    pos = _box(dataset, config.kernel, config.h, z)
    # X and X * W share one allocation, the fit's largest: glibc raises its
    # mmap threshold to the largest block freed and trims the heap only above
    # twice that, so the next fit reuses these pages instead of faulting them
    # in again
    XXw = np.empty((1, 2, layout.D, pos.size))
    X, Xw = XXw[:, 0], XXw[:, 1]
    # mono[k] is basis index k: the weight pass writes the first-order rows
    mono = X.transpose(1, 0, 2)
    W = _weigh(dataset, config.kernel, config.h, z[None], pos, mono[1:config.d + 1])
    basis.fill_monomials(layout, mono)
    np.multiply(X, W[:, None, :], out=Xw)
    y = dataset.by_first_axis.responses[pos][None]
    XWX = np.matmul(X, Xw.transpose(0, 2, 1))
    XWY = np.matmul(Xw, y[..., None])[..., 0]
    return XWX, XWY, np.count_nonzero(W, axis=1)


def _moment_columns(config: FitConfig) -> int:
    """Columns of a block's moment GEMM: m(t') to order 2p, then Y m(t') to order p."""
    return _layout_cached(config.d, 2 * config.p).D + config.layout().D


def _block_moments(
    dataset: SpatialDataset, config: FitConfig, Z, pos: slice, scratch: np.ndarray
):
    """Moments of each row of Z over the sorted sites in the slice pos.

    They are taken about the block's centre c0, the midpoint of its rows: with
    t' = (X_i - A c0) / A, one GEMM of the weights (rows x L) with the
    monomials m(t') up to order 2p and with Y_i m(t') up to order p gives
    each row's sums of W_i m_a(t') and of W_i Y_i m_a(t'), in the order-2p
    layout and then the order-p one. Returns them (rows, D_2p + D), each
    row's offset Z - c0 and its count of positive weights. The weights and
    monomials are written to the flat scratch, of at least (2 rows + D_2p +
    D) L entries.
    """
    double = _layout_cached(config.d, 2 * config.p)
    srt = dataset.by_first_axis
    A = dataset.region.sides()
    c0 = (Z.min(axis=0) + Z.max(axis=0)) / 2.0
    L = pos.stop - pos.start
    cols = _moment_columns(config)
    weights = scratch[: 2 * len(Z) * L].reshape(2, len(Z), L)
    W = _weigh(dataset, config.kernel, config.h, Z, pos, out=weights)
    M = scratch[weights.size : weights.size + cols * L].reshape(cols, L)
    for j in range(config.d):
        np.subtract(srt.columns[j][pos], A[j] * c0[j], out=M[j + 1])
        M[j + 1] /= A[j]
    basis.fill_monomials(double, M[:double.D])
    np.multiply(M[:config.layout().D], srt.responses[pos], out=M[double.D:])
    return W @ M.T, Z - c0, np.count_nonzero(W, axis=1)


def _shift_moments(config: FitConfig, mu: np.ndarray, delta: np.ndarray):
    """Each row's X'WX and X'WY from its moments mu about z_r - delta_r.

    With T = T(delta_r), m(t) = T m(t') for t = t' - delta_r, so
    X'WX = T G T' with G[a, b] the moment of the index a + b, and
    X'WY = T g.
    """
    tables = basis.shift_tables(config.d, config.p)
    T = basis.shift_matrices(config.layout(), delta)
    g = mu[:, -config.layout().D:, None]
    return T @ mu[:, tables.product] @ T.transpose(0, 2, 1), (T @ g)[..., 0]


def _solve_stack(XWX: np.ndarray, XWY: np.ndarray, cleared=None) -> np.ndarray:
    """Solve a stack of normal equations in one batched LU solve.

    A row over COND_LIMIT (2-norm condition) gets the ridge
    RIDGE_SCALE * trace(X'WX) added to its diagonal, in place: the rescue for
    ill-conditioned full-rank systems. A row singular to working precision is
    a data problem, not a scaling one, and raises RankDeficient. Each row's
    condition comes from its SVD unless _well_conditioned clears it; cleared
    is that mask when the caller already has it.
    """
    if cleared is None:
        cleared = _well_conditioned(XWX)
    rest = np.flatnonzero(~cleared)
    if rest.size:
        cond = np.linalg.cond(XWX[rest])
        singular = ~(cond <= 1.0 / np.finfo(float).eps)  # nan is singular too
        if singular.any():
            c = cond[singular.argmax()]
            raise RankDeficient(f"normal equations numerically singular (cond {c:.3g})")
        ill = rest[cond > COND_LIMIT]
        if ill.size:
            tr = np.trace(XWX[ill], axis1=1, axis2=2)
            XWX[ill] += RIDGE_SCALE * tr[:, None, None] * np.eye(XWX.shape[1])
    return np.linalg.solve(XWX, XWY[..., None])[..., 0]


def _well_conditioned(XWX: np.ndarray) -> np.ndarray:
    """Which rows' 2-norm condition is surely under COND_LIMIT.

    For any invertible A, cond(A) <= ||A||_F ||A^{-1}||_F (compared here
    squared). Up to cond 1e12 the computed inverse, and the SVD's smallest singular
    value, are within a relative 1e-4 of exact, so a row whose computed
    bound is under COND_LIMIT / 2 gets the SVD's decision: no ridge, no
    raise. A bound that is larger or not finite, or a row that inv finds
    singular, decides nothing for its row. A stack with a singular row is
    taken one row at a time, so the other rows are still cleared.
    """
    try:
        inv = np.linalg.inv(XWX)
    except np.linalg.LinAlgError:
        if len(XWX) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_well_conditioned(A[None]) for A in XWX])
    bound2 = np.einsum("rij,rij->r", XWX, XWX) * np.einsum("rij,rij->r", inv, inv)
    return bound2 < (COND_LIMIT / 2) ** 2


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

    W s!^2 [S^{-1} Kcal S^{-1}]_kk / (A_n prod_j h_j prod_l h_{j_l}^2). The
    radial Bartlett taper allows W <= 0 in d >= 2; a variance that is not
    positive, NaN included, raises NonPositiveVariance.
    """
    idx = tuple(idx)
    k = config.layout().position(idx)
    scale = basis.derivative_scale(idx, config.h)
    sks = config.moments().sks()
    var = float(W * scale**2 * sks[k, k] / (An * float(np.prod(config.h))))
    if not var > 0.0:
        raise NonPositiveVariance(f"variance {var:g} of index {idx} at W = {W:g}")
    return var
