"""Levy-driven moving-average random fields with exponential kernels.

e(x) = sum_j Z_j * phi(x - a_j) with phi(x) = r0 * exp(-r1 ||x||), where
the knots a_j come from a (compound) Poisson measure on an enlarged copy
of the sampling region and the jumps Z_j are centered Gaussian.  A
Gaussian random measure is sampled exactly from its covariance for small
site counts and by knot superposition otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import linalg, special
from scipy.spatial.distance import cdist

from .dataset import Region

GAUSSIAN_EXACT_MAX_N = 4000

# site-knot pairs per row block of the superposition (lpfit's budget)
BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class FieldModel:
    """Moving-average field configuration.

    kernels holds one (r0, r1) pair per output component; car1(lam) is
    (1.0, lam).  measure is "gaussian" or "compound_poisson".  For the
    compound-Poisson measure either `rho` (knots per unit area) or a fixed
    `n_knots` drives the knot count.  `buffer` enlarges the knot region:
    knots are uniform on prod_j [-buffer * A_j / 2, buffer * A_j / 2].
    """

    kernels: tuple[tuple[float, float], ...]
    measure: str = "compound_poisson"
    tau2: float = 0.01
    rho: float = 2.0
    n_knots: int | None = None
    buffer: float | None = 2.0

    def __post_init__(self):
        if self.measure not in ("gaussian", "compound_poisson"):
            raise ValueError(f"unknown random-measure type {self.measure!r}")
        if self.tau2 < 0:
            raise ValueError("jump variance tau2 must be >= 0")
        if self.rho <= 0:
            raise ValueError("knot intensity rho must be positive")
        for r0, r1 in self.kernels:
            if r1 <= 0:
                raise ValueError("kernel decay rate must be positive")

    @property
    def dims(self) -> int:
        return len(self.kernels)


def car1(lam: float, measure: str = "compound_poisson", **kw) -> FieldModel:
    """CAR(1) field: exponential kernel with r0 = 1 and decay lam."""
    return FieldModel(kernels=((1.0, lam),), measure=measure, **kw)


@dataclass(frozen=True)
class NoiseModel:
    """Variance functions for the error decomposition eta(z) e + sigma(z) eps.

    eta and sigma_eps are constants or callables on rescaled coordinates.
    """

    eta: object = 1.0
    sigma_eps: object = 1.0

    def eta_at(self, z: np.ndarray) -> np.ndarray:
        return _eval_varfunc(self.eta, z)

    def sigma_at(self, z: np.ndarray) -> np.ndarray:
        return _eval_varfunc(self.sigma_eps, z)


def _eval_varfunc(f, z: np.ndarray) -> np.ndarray:
    z = np.atleast_2d(z)
    if callable(f):
        out = np.asarray(f(z), dtype=float)
    else:
        out = np.full(z.shape[0], float(f))
    if (out < 0).any():
        raise ValueError("variance functions must be nonnegative")
    return out


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
    volume = float(np.prod(2.0 * half))
    if model.n_knots is not None:
        count = int(model.n_knots)
    else:
        count = int(rng.poisson(model.rho * volume))
    knots = rng.uniform(-half, half, size=(count, region.d))
    return knots, volume


def _superposition(kernel, sites: np.ndarray, knots: np.ndarray, jumps: np.ndarray):
    """sum_j jumps_j r0 exp(-r1 ||x - a_j||) at every site, in row blocks.

    A block holds at most BLOCK_PAIRS site-knot pairs, so memory stays
    O(block) whatever the site and knot counts.
    """
    r0, r1 = kernel
    n = sites.shape[0]
    out = np.zeros(n)
    if len(knots) == 0:
        return out
    step = max(1, BLOCK_PAIRS // len(knots))
    buf = np.empty((min(step, n), len(knots)))
    for s in range(0, n, step):
        block = sites[s : s + step]
        phi = cdist(block, knots, out=buf[: len(block)])
        phi *= -r1
        np.exp(phi, out=phi)
        phi *= r0
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

    if model.measure == "gaussian" and sites.shape[0] <= GAUSSIAN_EXACT_MAX_N:
        return _gaussian_exact(model, sites, rng)

    knots, _ = _draw_knots(model, region, rng)
    if model.measure == "compound_poisson":
        jump_sd = math.sqrt(model.tau2)
    else:
        # knot superposition approximating the Gaussian measure: matching
        # total variance requires jump variance tau2 / rho per knot
        jump_sd = math.sqrt(model.tau2 / model.rho)
    jumps = rng.normal(0.0, jump_sd, size=len(knots))
    return _superposition(model.kernels[0], sites, knots, jumps)


def simulate_bivariate(
    model: FieldModel, region: Region, sites1: np.ndarray, sites2: np.ndarray, seed
):
    """Two components driven by one shared knot/jump set (shared measure)."""
    if model.dims != 2:
        raise ValueError("model must declare two component kernels")
    if model.measure != "compound_poisson":
        raise ValueError("shared-measure simulation supports compound_poisson only")
    sites1 = np.atleast_2d(np.asarray(sites1, dtype=float))
    sites2 = np.atleast_2d(np.asarray(sites2, dtype=float))
    for s in (sites1, sites2):
        if not region.contains(s).all():
            raise ValueError("all evaluation sites must lie inside the region")
    rng = np.random.default_rng(seed)
    knots, _ = _draw_knots(model, region, rng)
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
        return r0 * r0 * math.pi * t * t * float(special.kv(2, r1 * t)) / 4.0
    raise ValueError(f"exponential-kernel covariance unsupported for d={d}")


def field_variance(model: FieldModel, d: int = 2) -> float:
    """Stationary variance of the simulated field (lag-0 covariance)."""
    c0 = covariance_exponential(model, np.zeros(d))
    if model.measure == "compound_poisson":
        return model.rho * model.tau2 * c0
    return model.tau2 * c0


def _gaussian_exact(model: FieldModel, sites: np.ndarray, rng) -> np.ndarray:
    n, d = sites.shape
    if d not in (1, 2):
        raise ValueError(f"Gaussian exact sampling unsupported for d={d}")
    r0, r1 = model.kernels[0]
    # the covariance is built in place on the distance matrix, with one
    # second n x n array for the exp / K_2 factor
    cov = cdist(sites, sites)
    if d == 1:
        # r0^2 e^{-r1 t} (t + 1/r1)
        factor = np.multiply(cov, -r1)
        np.exp(factor, out=factor)
        cov += 1.0 / r1
        cov *= factor
        cov *= model.tau2 * r0 * r0
    else:
        # r0^2 pi t^2 K_2(r1 t) / 4, with its limit pi r0^2 / (2 r1^2) at t = 0;
        # the mask comes first, as K_2(0) = inf and inf * 0 is nan
        zero = cov == 0.0
        cov *= r1
        factor = special.kv(2, cov)
        factor[zero] = 0.0
        cov *= cov
        cov *= factor
        cov *= model.tau2 * r0 * r0 * math.pi / (4.0 * r1 * r1)
        cov[zero] = model.tau2 * r0 * r0 * math.pi / (2.0 * r1 * r1)
    del factor
    # tiny jitter keeps the factorization stable for near-coincident sites
    cov.flat[:: n + 1] += 1e-12 * cov.diagonal().max()
    # cov is symmetric, so cov.T is the same matrix in the Fortran order
    # that LAPACK factors in place; cov itself would be copied first
    L = linalg.cholesky(cov.T, lower=True, overwrite_a=True)
    return L @ rng.standard_normal(n)


def apply_error_model(
    sites: np.ndarray,
    field_values: np.ndarray,
    noise: NoiseModel,
    region: Region,
    seed,
) -> np.ndarray:
    """eta(x/A) e(x) + sigma_eps(x/A) eps with i.i.d. standard normal eps."""
    sites = np.atleast_2d(np.asarray(sites, dtype=float))
    field_values = np.asarray(field_values, dtype=float)
    if sites.shape[0] != field_values.shape[0]:
        raise ValueError("sites and field values must have equal length")
    rng = np.random.default_rng(seed)
    z = sites / region.sides()
    eps = rng.standard_normal(sites.shape[0])
    return noise.eta_at(z) * field_values + noise.sigma_at(z) * eps
