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
from scipy import special
from scipy.spatial.distance import cdist

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


def eval_kernel(spec: KernelSpec, v) -> float:
    """Kernel value at a point of R^d."""
    return float(eval_kernel_many(spec, np.asarray(v, dtype=float)[None, :])[0])


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


def eval_kernel_many(spec: KernelSpec, V: np.ndarray) -> np.ndarray:
    """Kernel values for an (n, d) array of points."""
    out = eval_kernel_axis(spec, V[:, 0])
    for j in range(1, V.shape[1]):
        out = out * eval_kernel_axis(spec, V[:, j])
    return out


def eval_taper(spec: TaperSpec, w) -> float:
    """Bartlett taper at displacement w: max(0, 1 - ||w / b||)."""
    w = np.asarray(w, dtype=float)[None, :]
    return float(eval_taper_pairs(spec, w, np.zeros_like(w))[0, 0])


def eval_taper_pairs(spec: TaperSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kbar(X_i - Y_j) for every row pair of X (m1, d) and Y (m2, d)."""
    b = np.asarray(spec.widths, dtype=float)
    K = cdist(X / b, Y / b)
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
        # substitution t = u^2: (3/4)^r * B((a+1)/2, r+1)
        return 0.75**r * special.beta((a + 1) / 2.0, r + 1)
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


def kappa_moment(spec: KernelSpec, powers, r: int) -> float:
    """int prod_j z_j^{a_j} K^r(z) dz via per-axis closed forms."""
    powers = np.asarray(powers, dtype=int)
    if powers.shape != (spec.d,):
        raise ValueError(f"expected {spec.d} per-axis powers, got {powers.shape}")
    if r not in (1, 2):
        raise ValueError("kernel power r must be 1 or 2")
    out = 1.0
    for a in powers:
        out *= moment_1d(spec, int(a), r)
    return out


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
