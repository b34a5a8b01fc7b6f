"""Levy-driven moving-average random fields with exponential kernels.

e(x) = sum_j Z_j * phi(x - a_j) with phi(x) = r0 * exp(-r1 ||x||), where
the knots a_j of the compound Poisson random measure are uniform on an
enlarged copy of the sampling region and the jumps Z_j are centered
Gaussian with variance tau2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataset import Region

# site-knot pairs per row block of the superposition (twice lpfit's budget)
BLOCK_PAIRS = 1 << 16
# knots per unit volume of the knot region, unless a model fixes n_knots
RHO = 2.0


@dataclass(frozen=True)
class FieldModel:
    """Moving-average field configuration.

    kernels holds one (r0, r1) pair per output component; car1(lam) is
    (1.0, lam).  The compound Poisson measure has jump variance tau2;
    either RHO knots per unit volume or a fixed `n_knots` drives its knot
    count.  `buffer` enlarges the knot region: knots are uniform on
    prod_j [-buffer * A_j / 2, buffer * A_j / 2]; with None the region
    grows until the kernel tail is negligible at its boundary.
    """

    kernels: tuple[tuple[float, float], ...]
    tau2: float = 0.01
    n_knots: int | None = None
    buffer: float | None = 2.0

    def __post_init__(self):
        if self.tau2 < 0:
            raise ValueError("jump variance tau2 must be >= 0")
        if self.n_knots is not None and self.n_knots < 0:
            raise ValueError("knot count n_knots must be >= 0")
        if self.buffer is not None and self.buffer <= 0:
            raise ValueError("knot-region buffer must be positive")
        for r0, r1 in self.kernels:
            if r1 <= 0:
                raise ValueError("kernel decay rate must be positive")

    @property
    def dims(self) -> int:
        return len(self.kernels)


def car1(lam: float, **kw) -> FieldModel:
    """CAR(1) field: exponential kernel with r0 = 1 and decay lam."""
    return FieldModel(kernels=((1.0, lam),), **kw)


def _knot_halfwidths(model: FieldModel, region: Region) -> np.ndarray:
    half = region.sides() / 2.0
    if model.buffer is not None:
        return half * model.buffer
    # enlarge until the truncated kernel tail is negligible at the boundary
    r1 = min(r1 for _, r1 in model.kernels)
    margin = -math.log(1e-8) / r1
    return half + margin


def _draw_knots(model: FieldModel, region: Region, rng: np.random.Generator):
    half = _knot_halfwidths(model, region)
    if model.n_knots is not None:
        count = int(model.n_knots)
    else:
        count = int(rng.poisson(RHO * float(np.prod(2.0 * half))))
    return rng.uniform(-half, half, size=(count, region.d))


def _superposition(kernel, sites: np.ndarray, knots: np.ndarray, jumps: np.ndarray):
    """sum_j (r0 jumps_j) exp(-r1 ||x - a_j||) at every site, in row blocks.

    A block holds at most BLOCK_PAIRS site-knot pairs, so memory stays
    O(block) whatever the site and knot counts.
    """
    # scipy.spatial costs about 0.1 s to import, so only the field loads it
    from scipy.spatial.distance import cdist

    r0, r1 = kernel
    n = sites.shape[0]
    out = np.zeros(n)
    if len(knots) == 0:
        return out
    jumps = r0 * jumps
    step = max(1, BLOCK_PAIRS // len(knots))
    buf = np.empty((min(step, n), len(knots)))
    for s in range(0, n, step):
        block = sites[s : s + step]
        phi = cdist(block, knots, out=buf[: len(block)])
        phi *= -r1
        np.exp(phi, out=phi)
        # einsum without optimize runs its own C loop on this thread; a BLAS
        # GEMV would wake a worker thread that then spins for the whole run
        np.einsum("ij,j->i", phi, jumps, out=out[s : s + step])
    return out


def simulate_field(
    model: FieldModel, region: Region, sites: np.ndarray, seed
) -> np.ndarray:
    """Simulate a univariate field at the given sites; deterministic per seed."""
    if model.dims != 1:
        raise ValueError("simulate_field is univariate; use simulate_bivariate")
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if not region.contains(sites).all():
        raise ValueError("all evaluation sites must lie inside the region")
    rng = np.random.default_rng(seed)

    if model.tau2 == 0.0:
        return np.zeros(sites.shape[0])

    knots = _draw_knots(model, region, rng)
    jumps = rng.normal(0.0, math.sqrt(model.tau2), size=len(knots))
    return _superposition(model.kernels[0], sites, knots, jumps)


def simulate_bivariate(
    model: FieldModel, region: Region, sites1: np.ndarray, sites2: np.ndarray, seed
):
    """Two components driven by one shared knot/jump set (shared measure)."""
    if model.dims != 2:
        raise ValueError("model must declare two component kernels")
    sites1 = np.atleast_2d(np.asarray(sites1, dtype=float))
    sites2 = np.atleast_2d(np.asarray(sites2, dtype=float))
    for s in (sites1, sites2):
        if not region.contains(s).all():
            raise ValueError("all evaluation sites must lie inside the region")
    rng = np.random.default_rng(seed)
    knots = _draw_knots(model, region, rng)
    jumps = rng.normal(0.0, math.sqrt(model.tau2), size=len(knots))
    e1 = _superposition(model.kernels[0], sites1, knots, jumps)
    e2 = _superposition(model.kernels[1], sites2, knots, jumps)
    return e1, e2


def covariance_exponential(model: FieldModel, x) -> float:
    """Kernel self-convolution int phi(x - u) phi(u) du per unit measure variance.

    Closed forms: d=1 gives r0^2 e^{-r1 t}(t + 1/r1); d=2 gives
    r0^2 pi t^2 K_2(r1 t) / 4 with value pi / (2 r1^2) at t = 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r0, r1 = model.kernels[0]
    t = float(np.linalg.norm(x))
    d = x.size
    if d == 1:
        return r0 * r0 * math.exp(-r1 * t) * (t + 1.0 / r1)
    if d == 2:
        if t == 0.0:
            return r0 * r0 * math.pi / (2.0 * r1 * r1)
        from scipy import special

        return r0 * r0 * math.pi * t * t * float(special.kv(2, r1 * t)) / 4.0
    raise ValueError(f"exponential-kernel covariance unsupported for d={d}")


def field_variance(model: FieldModel, region: Region) -> float:
    """Stationary variance of the field simulated on region (lag-0 covariance).

    The knot intensity is RHO, or a fixed n_knots over the knot region's volume.
    """
    intensity = RHO
    if model.n_knots is not None:
        volume = float(np.prod(2.0 * _knot_halfwidths(model, region)))
        intensity = model.n_knots / volume
    return intensity * model.tau2 * covariance_exponential(model, np.zeros(region.d))
