"""Levy-driven moving-average random fields with an exponential kernel.

e(x) = sum_j Z_j exp(-lam ||x - a_j||), the CAR(1) field, where the knots
a_j of the compound Poisson random measure are uniform on an enlarged copy
of the sampling region and the jumps Z_j are centered Gaussian with
variance tau2.
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
    """CAR(1) field configuration: exponential kernel with decay rate lam.

    The compound Poisson measure has jump variance tau2; either RHO knots
    per unit volume or a fixed `n_knots` drives its knot count.  `buffer`
    enlarges the knot region: knots are uniform on
    prod_j [-buffer * A_j / 2, buffer * A_j / 2]; with None the region
    grows until the kernel tail is negligible at its boundary.
    """

    lam: float
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
        if self.lam <= 0:
            raise ValueError("kernel decay rate must be positive")


def _knot_halfwidths(model: FieldModel, region: Region) -> np.ndarray:
    half = region.sides() / 2.0
    if model.buffer is not None:
        return half * model.buffer
    # enlarge until the truncated kernel tail is negligible at the boundary
    margin = -math.log(1e-8) / model.lam
    return half + margin


def _draw_knots(model: FieldModel, region: Region, rng: np.random.Generator):
    half = _knot_halfwidths(model, region)
    if model.n_knots is not None:
        count = int(model.n_knots)
    else:
        count = int(rng.poisson(RHO * float(np.prod(2.0 * half))))
    return rng.uniform(-half, half, size=(count, region.d))


def _superposition(lam: float, sites: np.ndarray, knots: np.ndarray, jumps: np.ndarray):
    """sum_j jumps_j exp(-lam ||x - a_j||) at every site, in row blocks.

    A block holds at most BLOCK_PAIRS site-knot pairs, so memory stays
    O(block) whatever the site and knot counts.
    """
    # scipy.spatial costs about 0.1 s to import, so only the field loads it
    from scipy.spatial.distance import cdist

    n = sites.shape[0]
    out = np.zeros(n)
    if len(knots) == 0:
        return out
    step = max(1, BLOCK_PAIRS // len(knots))
    buf = np.empty((min(step, n), len(knots)))
    for s in range(0, n, step):
        block = sites[s : s + step]
        phi = cdist(block, knots, out=buf[: len(block)])
        phi *= -lam
        np.exp(phi, out=phi)
        # einsum without optimize runs its own C loop on this thread; a BLAS
        # GEMV would wake a worker thread that then spins for the whole run
        np.einsum("ij,j->i", phi, jumps, out=out[s : s + step])
    return out


def simulate_field(
    model: FieldModel, region: Region, sites: np.ndarray, seed
) -> np.ndarray:
    """Simulate the field at the given sites; deterministic per seed."""
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    if not region.contains(sites).all():
        raise ValueError("all evaluation sites must lie inside the region")
    rng = np.random.default_rng(seed)

    if model.tau2 == 0.0:
        return np.zeros(sites.shape[0])

    knots = _draw_knots(model, region, rng)
    jumps = rng.normal(0.0, math.sqrt(model.tau2), size=len(knots))
    return _superposition(model.lam, sites, knots, jumps)
