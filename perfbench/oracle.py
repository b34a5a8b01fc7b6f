"""Reference computations for the benchmark's output checks.

Everything here is written from the estimators' definitions with numpy and
scipy alone. Nothing is imported from spatial_lp, so agreement with the
package is evidence that its outputs are right. Coefficients are kept on
the H scale, where the coefficient of the monomial with exponent vector e
is multiplied by prod_j h_j^e_j; there all entries are of one magnitude.
"""

from __future__ import annotations

import functools
import math
import statistics

import numpy as np
from scipy.spatial.distance import cdist

# Gauss-Legendre on [-C, 0] and [0, C] separately: the triangular kernel is
# polynomial on each half, so 32 nodes integrate every moment used exactly.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def exponents(d: int, p: int, exact: bool = False) -> list[tuple[int, ...]]:
    """Exponent vectors of total degree <= p (== p if exact)."""
    out = []
    for total in range(p + 1):
        if exact and total != p:
            continue
        if d == 1:
            out.append((total,))
            continue
        for first in range(total, -1, -1):
            for rest in exponents(d - 1, total - first, exact=True):
                out.append((first, *rest))
    return out


def index_exponent(idx, d: int) -> tuple[int, ...]:
    """Exponent vector of a multi-index (j_1, ..., j_L) over axes 1..d."""
    return tuple(sum(1 for j in idx if j == axis + 1) for axis in range(d))


def triangular(u: np.ndarray, C: float) -> np.ndarray:
    """Product kernel prod_j max(0, 1 - |u_j| / C) / C over the last axis."""
    return np.prod(np.maximum(0.0, 1.0 - np.abs(u) / C) / C, axis=-1)


def paper_mean(z: np.ndarray) -> np.ndarray:
    """(10 z1 + 15) cos(z1 + z2 + 1), the trend surface of the paper's study."""
    z = np.atleast_2d(z)
    return (10.0 * z[:, 0] + 15.0) * np.cos(z[:, 0] + z[:, 1] + 1.0)


def kernel_moment(C: float, a: int, r: int) -> float:
    """int u^a k(u)^r du for the 1-D triangular kernel of half-width C."""
    u = np.concatenate([(_GL_NODES - 1.0) * C / 2.0, (_GL_NODES + 1.0) * C / 2.0])
    w = np.concatenate([_GL_WEIGHTS, _GL_WEIGHTS]) * C / 2.0
    k = np.maximum(0.0, 1.0 - np.abs(u) / C) / C
    return float(np.sum(w * u**a * k**r))


@functools.cache
def moments(C: float, d: int, p: int) -> "Moments":
    return Moments(C, d, p)


class Moments:
    """S, Kcal and B of the order-p basis, from quadrature."""

    def __init__(self, C: float, d: int, p: int):
        self.exps = exponents(d, p)
        self.top = exponents(d, p + 1, exact=True)

        def matrix(rows, cols, r):
            return np.array(
                [
                    [np.prod([kernel_moment(C, a + b, r) for a, b in zip(ea, eb)])
                     for eb in cols]
                    for ea in rows
                ]
            )

        self.S = matrix(self.exps, self.exps, 1)
        self.Kcal = matrix(self.exps, self.exps, 2)
        self.B = matrix(self.exps, self.top, 1)
        Sinv = np.linalg.inv(self.S)
        self.sks00 = float((Sinv @ self.Kcal @ Sinv)[0, 0])
        self.kappa02 = kernel_moment(C, 0, 2) ** d


def design(u: np.ndarray, exps) -> np.ndarray:
    """Monomials u^e for each exponent vector, stacked on the last axis."""
    return np.stack([np.prod(u ** np.asarray(e), axis=-1) for e in exps], axis=-1)


def local_fit(sites, y, A, z, h, C, exps):
    """H-scale coefficients and window size of the local fit at z.

    Solved as a weighted least-squares problem in the scaled offsets
    u = (X - A z) / (A h), on the sites of positive weight only.
    """
    u = (sites - A * z) / (A * h)
    w = triangular(u, C)
    active = w > 0.0
    sw = np.sqrt(w[active])
    X = design(u[active], exps)
    coef, *_ = np.linalg.lstsq(X * sw[:, None], y[active] * sw, rcond=None)
    return dict(zip(map(tuple, exps), coef)), int(active.sum())


def bias_vector(sites, y, A, z, fit_h, pilot_h, C, d, p):
    """Plug-in bias of the order-p fit on the H scale, keyed by exponent."""
    mom = moments(C, d, p)
    pilot, _ = local_fit(sites, y, A, z, pilot_h, C, exponents(d, p + 1))
    M = np.array(
        [pilot[e] * np.prod((fit_h / pilot_h) ** np.asarray(e)) for e in mom.top]
    )
    bias = np.linalg.solve(mom.S, mom.B @ M)
    return dict(zip(map(tuple, mom.exps), bias))


def residuals(sites, y, A, points, h, C, p):
    """y_i - m_hat(X_i / A) at the given site indices, by batched fits."""
    exps = exponents(sites.shape[1], p)
    u = (sites[None, :, :] - sites[points, None, :]) / (A * h)
    w = triangular(u, C)
    X = design(u, exps)
    G = np.einsum("mka,mk,mkb->mab", X, w, X)
    rhs = np.einsum("mka,mk,k->ma", X, w, y)
    intercept = np.linalg.solve(G, rhs[:, :, None])[:, 0, 0]
    return y[points] - intercept


def taper(X1, X2, b) -> np.ndarray:
    """Radial Bartlett taper max(0, 1 - ||(x - y) / b||) for all pairs."""
    return np.maximum(0.0, 1.0 - cdist(X1 / b, X2 / b))


def window(sites, A, z, h, C):
    """Window weights and the indices of the sites where they are positive."""
    w = triangular((sites - A * z) / (A * h), C)
    active = np.flatnonzero(w > 0.0)
    return w[active], active


def pair_sum(sites1, wr1, sites2, wr2, b) -> float:
    """sum_{i,j} (w r)_i Kbar(X_i - X_j) (w r)_j, as a dense double sum."""
    return float(wr1 @ taper(sites1, sites2, b) @ wr2)


# --- mc-car1 ---------------------------------------------------------------


def replication_data(cfg: dict, master_seed: int, rep: int):
    """Sites and responses of one replication of a CAR(1) coverage config.

    The draws follow the replication's documented stream: sites, knots,
    jumps, then measurement noise, all from SeedSequence([master_seed, rep]).
    """
    err = cfg["error"]
    A = np.asarray(cfg["A"], dtype=float)
    n, d = int(cfg["n"]), A.size
    rng = np.random.default_rng(np.random.SeedSequence([int(master_seed), int(rep)]))
    sites = (rng.random((n, d)) - 0.5) * A
    half = A / 2.0 * err["buffer"]
    knots = rng.uniform(-half, half, size=(int(err["n_knots"]), d))
    jumps = rng.normal(0.0, math.sqrt(err["tau2"]), size=len(knots))
    field = np.exp(-err["lambda"] * cdist(sites, knots)) @ jumps
    noise = math.sqrt(err["sigma2"]) * rng.standard_normal(n)
    y = paper_mean(sites / A) + cfg.get("mean_offset", 0.0) + (field + noise)
    return sites, y


def check_mc_config(cfg: dict) -> None:
    """Reject a config outside what this reference covers."""
    covered = (
        cfg.get("mean", "paper_mean") == "paper_mean"
        and cfg.get("density") is None
        and cfg["kernel"]["family"] == "product-triangular"
        and cfg["error"]["kind"] == "car1"
        and cfg["error"].get("n_knots") is not None
        and len(cfg["A"]) == 2
    )
    if not covered:
        raise ValueError("reference covers paper_mean, uniform sites, the "
                         "triangular kernel and CAR(1) with a fixed knot count")


def mc_t_hat(cfg: dict, master_seed: int, rep: int) -> float:
    """T = (beta0 - bias0 - m(z)) / sqrt(var0) of one replication."""
    sites, y = replication_data(cfg, master_seed, rep)
    A = np.asarray(cfg["A"], dtype=float)
    z = np.asarray(cfg["z"], dtype=float)
    C = float(cfg["kernel"]["C_K"])
    p, d, n = int(cfg["p"]), A.size, sites.shape[0]
    fit_h, pilot_h, var_h = (
        np.asarray(cfg[k], dtype=float) for k in ("fit_h", "pilot_h", "variance_h")
    )
    b = np.asarray(cfg["taper_b"], dtype=float)
    mom = moments(C, d, p)

    fit, _ = local_fit(sites, y, A, z, fit_h, C, mom.exps)
    bias = bias_vector(sites, y, A, z, fit_h, pilot_h, C, d, p)
    zero = (0,) * d

    w, active = window(sites, A, z, var_h, C)
    wr = w * residuals(sites, y, A, active, var_h, C, p)
    hv, An = float(np.prod(var_h)), float(np.prod(A))
    g = w.sum() / (n * hv)
    W1 = An / (n * n * hv) * pair_sum(sites[active], wr, sites[active], wr, b)
    W = W1 / (mom.kappa02 * g * g)
    var0 = W * mom.sks00 / (An * float(np.prod(fit_h)))
    m_z = float(paper_mean(z)[0]) + cfg.get("mean_offset", 0.0)
    return (fit[zero] - bias[zero] - m_z) / math.sqrt(var0)


def normal_quantile(u: float) -> float:
    return statistics.NormalDist().inv_cdf(u)


# --- surface-grid ----------------------------------------------------------


def surface_point(sites, y, A, z, fit_h, pilot_h, C, p):
    """H-scale fit coefficients, bias vector and n_eff at one grid point."""
    d = A.size
    fit, n_eff = local_fit(sites, y, A, z, fit_h, C, exponents(d, p))
    bias = bias_vector(sites, y, A, z, fit_h, pilot_h, C, d, p)
    return fit, bias, n_eff


# --- two-sample ------------------------------------------------------------


def two_sample(s1, y1, s2, y2, A, z, h, b, C, p):
    """T, V_check and p-value of the two-sample intercept test."""
    d = A.size
    mom = moments(C, d, p)
    zero = (0,) * d
    hv, An = float(np.prod(h)), float(np.prod(A))
    parts = []
    for sites, y in ((s1, y1), (s2, y2)):
        fit, _ = local_fit(sites, y, A, z, h, C, mom.exps)
        w, active = window(sites, A, z, h, C)
        wr = w * residuals(sites, y, A, active, h, C, p)
        parts.append((fit[zero], sites[active], wr, w.sum() / (sites.shape[0] * hv)))
    (m1, X1, wr1, g1), (m2, X2, wr2, g2) = parts
    n1, n2 = s1.shape[0], s2.shape[0]
    V1 = An / (n1 * n1 * hv) * pair_sum(X1, wr1, X1, wr1, b)
    V2 = An / (n2 * n2 * hv) * pair_sum(X2, wr2, X2, wr2, b)
    V3 = An / (n1 * n2 * hv) * pair_sum(X1, wr1, X2, wr2, b)
    V = (V1 / g1**2 + V2 / g2**2 - 2.0 * V3 / (g1 * g2)) / mom.kappa02
    T = math.sqrt(An * hv) * (m1 - m2) / math.sqrt(V * mom.sks00)
    return T, V, math.erfc(abs(T) / math.sqrt(2.0))
