"""Product kernels, the Bartlett taper, and kernel moment matrices.

All 1-D kernels live on [-C, C] and are normalized so the d-dimensional
product integrates to 1.  Moments of the form int u^a k(u)^r du are
computed in closed form (the kernels are piecewise polynomial), so the
moment matrices are exact up to floating point rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("product-triangular", "product-epanechnikov", "product-uniform")

COND_LIMIT = 1e12


@dataclass(frozen=True)
class KernelSpec:
    """Product kernel with per-axis support half-width C_K."""

    family: str
    support_halfwidth: float = 1.0
    d: int = 2

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.support_halfwidth <= 0:
            raise ValueError("support half-width must be positive")
        if self.d < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class TaperSpec:
    """Radial Bartlett taper with per-axis widths b (original coordinates)."""

    widths: tuple[float, ...]

    def __post_init__(self):
        if any(b <= 0 for b in self.widths):
            raise ValueError("taper widths must be positive")


def _base_1d(family: str, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Unit-halfwidth 1-D kernel, normalized to integrate to 1 on [-1, 1].

    The result is written to out, which may be u itself.
    """
    if out is None:
        out = np.empty(np.shape(u))
    if family == "product-triangular":
        v = np.abs(u, out=out)
        np.subtract(1.0, v, out=v)
        return np.maximum(0.0, v, out=v)
    if family == "product-epanechnikov":
        # u * u > 1 exactly when |u| > 1, so clipping at 0 cuts the support
        v = np.multiply(u, u, out=out)
        np.subtract(1.0, v, out=v)
        np.multiply(0.75, v, out=v)
        return np.maximum(v, 0.0, out=v)
    if family == "product-uniform":
        v = np.abs(u, out=out)
        np.less_equal(v, 1.0, out=v)
        return np.multiply(v, 0.5, out=v)
    raise ValueError(family)


def eval_kernel_axis(
    spec: KernelSpec, u: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The 1-D factor k(u / C) / C of the product kernel, elementwise.

    The result is written to out, which may be u itself. With C = 1 the
    two divisions by C are skipped: x / 1.0 is x in IEEE arithmetic.
    """
    C = spec.support_halfwidth
    if C == 1.0:
        return _base_1d(spec.family, u, out=out)
    v = np.divide(u, C, out=out)
    return np.divide(_base_1d(spec.family, v, out=v), C, out=v)


def taper_operands(spec: TaperSpec, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left, right), the operands of taper_block for the (m, d) sites X.

    left[j, i] = [x, 1] and right[j, :, i] = [1, -x] with x = X_ij / b_j.
    Built once per window, they are sliced by sites for each block of pairs.
    """
    Xb = (X / np.asarray(spec.widths, dtype=float)).T
    left, right = np.ones(Xb.shape + (2,)), np.ones((len(Xb), 2, Xb.shape[1]))
    left[..., 0] = Xb
    np.negative(Xb, out=right[:, 1])
    return left, right


def taper_block(left, right, out=None, work=None) -> np.ndarray:
    """Kbar between the m1 sites X of left and the m2 sites Y of right.

    The squared differences of X / b and Y / b are summed in axis order
    before the square root, as scipy's euclidean cdist sums them, so the
    distances are cdist's to the bit. The result is written to out, and work
    takes the squares of each axis past the first; both are (m1, m2) arrays,
    allocated when None.
    """
    # x_i - y_j as the GEMM [x_i, 1] @ [1, -y_j]': both products are exact,
    # so its one rounding is the subtraction's. With inner dimension 2 it
    # outruns a broadcast subtract, and up to 2^17 pairs it is under the
    # size at which OpenBLAS wakes a worker thread
    K = None
    for j in range(len(left)):
        D = np.matmul(left[j], right[j], out=out if K is None else work)
        np.multiply(D, D, out=D)
        K = D if K is None else np.add(K, D, out=K)
    np.sqrt(K, out=K)
    np.subtract(1.0, K, out=K)
    return np.maximum(K, 0.0, out=K)


def _base_moment_1d(family: str, a: int, r: int) -> float:
    """int_{-1}^{1} u^a k(u)^r du for the unit-halfwidth kernel."""
    if a % 2 == 1:
        return 0.0
    if family == "product-triangular":
        # 2 * int_0^1 u^a (1-u)^r du = 2 * B(a+1, r+1)
        return 2.0 * math.factorial(a) * math.factorial(r) / math.factorial(a + r + 1)
    if family == "product-epanechnikov":
        # substitution t = u^2: (3/4)^r B((a+1)/2, r+1), and for integer r
        # B(x, r+1) = r! / (x (x+1) ... (x+r))
        x = (a + 1) / 2.0
        return 0.75**r * math.factorial(r) / math.prod(x + k for k in range(r + 1))
    if family == "product-uniform":
        return 0.5**r * 2.0 / (a + 1)
    raise ValueError(family)


def moment_1d(spec: KernelSpec, a: int, r: int) -> float:
    """int u^a k_C(u)^r du per axis, with k_C(u) = k(u/C)/C."""
    C = spec.support_halfwidth
    return C ** (a + 1 - r) * _base_moment_1d(spec.family, a, r)


def kappa0_r2(spec: KernelSpec) -> float:
    """kappa_0^(2) = int K^2(z) dz, the K^2 mass in every variance factor."""
    return float(moment_1d(spec, 0, 2) ** spec.d)


@dataclass(frozen=True)
class MomentMatrices:
    """S, the K^2 analogue, the top-order bias matrix B, and kappa_0^(2)."""

    S: np.ndarray
    Kcal: np.ndarray
    B: np.ndarray
    kappa0_r2: float
    _sks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Sinv = np.linalg.inv(self.S)
        sks = Sinv @ self.Kcal @ Sinv
        sks.setflags(write=False)
        object.__setattr__(self, "_sks", sks)

    def sks(self) -> np.ndarray:
        """S^{-1} Kcal S^{-1}, the sandwich appearing in every variance.

        Computed once per object; the read-only array is shared by callers.
        """
        return self._sks


def moment_matrices(spec: KernelSpec, layout) -> MomentMatrices:
    """Exact moment matrices for the given kernel and basis layout."""
    if layout.d != spec.d:
        raise ValueError(f"layout dimension {layout.d} != kernel dimension {spec.d}")
    counts = layout.counts_matrix()
    top_counts = layout.counts_matrix(top=True)
    D, D_bar = layout.D, layout.D_bar

    # per-axis 1-D moments are reused heavily; cache by (power, r)
    max_pow = 2 * max(layout.p, 1) + 2
    m1 = np.array([moment_1d(spec, a, 1) for a in range(max_pow + 1)])
    m2 = np.array([moment_1d(spec, a, 2) for a in range(max_pow + 1)])

    def entry(pa, pb, m):
        return float(np.prod(m[pa + pb]))

    S = np.empty((D, D))
    Kcal = np.empty((D, D))
    for i in range(D):
        for j in range(i, D):
            S[i, j] = S[j, i] = entry(counts[i], counts[j], m1)
            Kcal[i, j] = Kcal[j, i] = entry(counts[i], counts[j], m2)
    B = np.empty((D, D_bar))
    for i in range(D):
        for t in range(D_bar):
            B[i, t] = entry(counts[i], top_counts[t], m1)

    if np.linalg.cond(S) > COND_LIMIT:
        raise ValueError(
            f"kernel moment matrix S is numerically singular for {spec.family} "
            f"(d={layout.d}, p={layout.p}); kernel spec is unusable"
        )
    return MomentMatrices(S=S, Kcal=Kcal, B=B, kappa0_r2=kappa0_r2(spec))
