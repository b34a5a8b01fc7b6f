"""Independent reference computations used by the tests.

Everything here is deliberately written against the mathematical
definitions (numerical quadrature, bisection) rather than reusing the
closed forms in the package, so agreement is evidence of correctness.
The closed forms kept here, the exponential kernel's self-convolution and
the field variance, are checked against quadrature in turn
(`conv_exponential_2d`, `exponential_self_convolution`).
"""

import math

import numpy as np
from scipy import special
from scipy.spatial import distance

from spatial_lp import kernels, randfield

# 64-node Gauss-Legendre rule, exact for polynomials up to degree 127.
# The kernels are only piecewise polynomial (corner at 0), so every axis
# is integrated on [-C, 0] and [0, C] separately.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)


def paper_mean(z: np.ndarray) -> np.ndarray:
    """The coverage study's trend surface (10 z1 + 15) cos(z1 + z2 + 1) in
    closed form, the reference for the package's named mean."""
    z = np.atleast_2d(z)
    return (10.0 * z[:, 0] + 15.0) * np.cos(z[:, 0] + z[:, 1] + 1.0)


def _axis_rule(C: float):
    """Quadrature nodes/weights on [-C, C] split at the kernel's corner."""
    lo = (_GL_NODES - 1.0) * C / 2.0
    hi = (_GL_NODES + 1.0) * C / 2.0
    u = np.concatenate([lo, hi])
    w = np.concatenate([_GL_WEIGHTS, _GL_WEIGHTS]) * C / 2.0
    return u, w


def quad_moment_1d(spec: kernels.KernelSpec, a: int, r: int) -> float:
    """int u^a k_C(u)^r du by piecewise Gauss-Legendre quadrature."""
    C = spec.support_halfwidth
    u, w = _axis_rule(C)
    k = kernels._base_1d(spec.family, u / C) / C
    return float(np.sum(w * u**a * k**r))


def kernel_values(spec: kernels.KernelSpec, V: np.ndarray) -> np.ndarray:
    """Product-kernel values for an (n, d) array of points, axis by axis."""
    out = kernels.eval_kernel_axis(spec, V[:, 0])
    for j in range(1, V.shape[1]):
        out = out * kernels.eval_kernel_axis(spec, V[:, j])
    return out


def taper_pairs(spec: kernels.TaperSpec, X, Y, out=None, work=None) -> np.ndarray:
    """Kbar(X_i - Y_j) for every row pair of X (m1, d) and Y (m2, d), one block."""
    left, right = kernels.taper_operands(spec, X)[0], kernels.taper_operands(spec, Y)[1]
    return kernels.taper_block(left, right, out, work)


def quad_moment_matrices(spec: kernels.KernelSpec, layout):
    """S, Kcal, B for a basis layout, via tensor-product quadrature.

    Integrates the monomials against K and K^2 on the full d-dimensional
    support instead of using per-axis closed forms.
    """
    d = spec.d
    u, w = _axis_rule(spec.support_halfwidth)
    axes = [u] * d
    wts = [w] * d
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.ravel() for m in mesh])
    wmesh = np.meshgrid(*wts, indexing="ij")
    wprod = np.ones(pts.shape[0])
    for m in wmesh:
        wprod = wprod * m.ravel()

    K = kernel_values(spec, pts)
    counts = layout.counts_matrix()
    top_counts = layout.counts_matrix(top=True)

    def mono(c):
        out = np.ones(pts.shape[0])
        for j in range(d):
            if c[j]:
                out = out * pts[:, j] ** c[j]
        return out

    cols = np.column_stack([mono(c) for c in counts])
    top_cols = np.column_stack([mono(c) for c in top_counts])
    S = cols.T @ (cols * (wprod * K)[:, None])
    Kcal = cols.T @ (cols * (wprod * K * K)[:, None])
    B = cols.T @ (top_cols * (wprod * K)[:, None])
    return S, Kcal, B


def bisect_normal_quantile(u: float, tol: float = 1e-12) -> float:
    """Inverse standard-normal CDF by bisection on the erf-based CDF."""
    if not 0.0 < u < 1.0:
        raise ValueError("u must be in (0, 1)")
    lo, hi = -10.0, 10.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if 0.5 * (1.0 + math.erf(mid / math.sqrt(2.0))) < u:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def conv_exponential_2d(r1: float, t: float, grid: int = 400, span: float = 20.0):
    """(phi * phi)(t e_1) for phi(x) = exp(-r1 ||x||), by direct 2-D quadrature."""
    xs = np.linspace(-span / 2, span / 2, grid)
    step = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    f = np.exp(-r1 * np.sqrt(X**2 + Y**2))
    g = np.exp(-r1 * np.sqrt((X - t) ** 2 + Y**2))
    return float((f * g).sum() * step * step)


def covariance_exponential(lam: float, x) -> float:
    """(phi * phi)(x) for phi(u) = exp(-lam ||u||), per unit measure variance.

    Closed forms: d=1 gives e^{-lam t}(t + 1/lam); d=2 gives
    pi t^2 K_2(lam t) / 4 with value pi / (2 lam^2) at t = 0.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = float(np.linalg.norm(x))
    if x.size == 1:
        return math.exp(-lam * t) * (t + 1.0 / lam)
    if x.size == 2:
        if t == 0.0:
            return math.pi / (2.0 * lam * lam)
        return math.pi * t * t * float(special.kv(2, lam * t)) / 4.0
    raise ValueError(f"exponential-kernel covariance unsupported for d={x.size}")


def field_variance(model: randfield.FieldModel, region) -> float:
    """Stationary variance of the field simulated on region (lag-0 covariance).

    The knot intensity is RHO, or a fixed n_knots over the knot region's volume.
    """
    intensity = randfield.RHO
    if model.n_knots is not None:
        volume = float(np.prod(2.0 * randfield._knot_halfwidths(model, region)))
        intensity = model.n_knots / volume
    return intensity * model.tau2 * covariance_exponential(model.lam, np.zeros(region.d))


# --- conditional moments of the normalized-intercept statistic --------------
#
# Given the sites X, each piece of T_hat = N / sqrt(var0) is linear or
# quadratic in the responses Y = mu + e:
#   N    = a'Y - m(z),         a = fit intercept weights - pilot bias weights
#   var0 = c(X) (RY)' Q (RY),  R = residual operator on the variance window
# so E[N^2 | X] and E[var0 | X] follow from mu and the error covariance alone.


def _exponents(d: int, degree: int, exact: bool = False) -> list[tuple]:
    """Exponent vectors of total degree <= degree (== degree if exact)."""
    out = []
    for total in range(degree + 1):
        if exact and total != degree:
            continue
        if d == 1:
            out.append((total,))
            continue
        for first in range(total, -1, -1):
            for rest in _exponents(d - 1, total - first, exact=True):
                out.append((first, *rest))
    return out


def _triangular_weights(t, h, C: float) -> np.ndarray:
    """prod_j k(t_j / h_j) with k(u) = max(0, 1 - |u| / C) / C."""
    w = np.ones_like(t[0])
    for tj, hj in zip(t, h):
        w = w * np.maximum(0.0, 1.0 - np.abs(tj / hj) / C) / C
    return w


def _wls_rows(t, h, C: float, exps, rows=slice(None)) -> np.ndarray:
    """Rows of (X'WX)^{-1} X'W for a batch of local fits, shape (m, rows, n).

    t holds one (m, n) array per axis with the rescaled offsets X_k / A - z_i
    of every site k from fit point i; row k of fit i maps the responses to
    the coefficient of the monomial with exponent vector exps[k].
    """
    w = _triangular_weights(t, h, C)
    cols = []
    for e in exps:
        col = np.ones_like(w)
        for tj, power in zip(t, e):
            if power:
                col = col * tj**power
        cols.append(col)
    wcols = np.stack([w * col for col in cols])
    D = len(exps)
    G = np.empty((w.shape[0], D, D))
    for a in range(D):
        for b in range(a, D):
            G[:, a, b] = G[:, b, a] = np.einsum("ik,ik->i", wcols[a], cols[b])
    return np.einsum("iab,bik->iak", np.linalg.inv(G)[:, rows], wcols)


def _product_moments(spec, exps_a, exps_b, r: int = 1) -> np.ndarray:
    """int u^(e_a + e_b) K(u)^r du for a product kernel, axis by axis."""
    def entry(ea, eb):
        return np.prod([quad_moment_1d(spec, a + b, r) for a, b in zip(ea, eb)])

    return np.array([[entry(ea, eb) for eb in exps_b] for ea in exps_a])


def exponential_self_convolution(lam: float, t) -> np.ndarray:
    """(phi * phi)(t) on R^2 for phi(x) = exp(-lam ||x||), by quadrature.

    For t > 0 the plane is parametrized by elliptic coordinates (mu, nu)
    with foci at the two points, where ||u|| + ||u - x|| = t cosh(mu) and
    the area element is (t/2)^2 (sinh^2 mu + sin^2 nu); the nu-integral is
    elementary, leaving a smooth integral over mu.  At t = 0 the integrand
    is radial: 2 pi int r exp(-2 lam r) dr.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    nodes, weights = np.polynomial.legendre.leggauss(200)
    out = np.empty_like(t)
    zero = t == 0.0
    r_max = 40.0 / lam
    r = (nodes + 1.0) * r_max / 2.0
    radial = np.sum(weights * r * np.exp(-2.0 * lam * r)) * r_max / 2.0
    out[zero] = 2.0 * np.pi * radial
    x = lam * t[~zero][:, None]
    mu_max = np.arccosh(1.0 + 60.0 / x)
    mu = (nodes + 1.0) * mu_max / 2.0
    f = np.exp(-x * np.cosh(mu)) * (2.0 * np.pi * np.sinh(mu) ** 2 + np.pi)
    out[~zero] = t[~zero] ** 2 / 4.0 * np.sum(weights * f, axis=1) * mu_max[:, 0] / 2.0
    return out


class InterceptOracle:
    """Exact conditional moments of N and var0 for one MC experiment spec.

    The spec fixes the product-triangular kernel, the evaluation point z,
    the fit order p (pilot order p + 1, order-p residual fits) and the
    bandwidths.  The errors are Y - m = e(x) + sigma eps, where e is the
    moving average sum_j Z_j exp(-lam ||x - a_j||) over n_knots knots a_j
    uniform on the knot region (the region scaled by `buffer`) with
    Var Z_j = tau2, so that
        Cov(e(x), e(y)) = (n_knots / knot area) tau2 (phi * phi)(x - y),
    exact up to knot mass beyond the knot-region edge, which lies at least
    (buffer - 1) A_j / 2 away from every site.
    """

    COV_STEP = 1e-3

    def __init__(self, spec):
        if spec.kernel_family != "product-triangular":
            raise ValueError("oracle covers the product-triangular kernel only")
        self.A = np.asarray(spec.A, dtype=float)
        self.z = np.asarray(spec.z, dtype=float)
        self.C = float(spec.C_K)
        self.fit_h = np.asarray(spec.fit_h, dtype=float)
        self.pilot_h = np.asarray(spec.pilot_h, dtype=float)
        self.variance_h = np.asarray(spec.variance_h, dtype=float)
        self.taper_b = np.asarray(spec.taper_b, dtype=float)

        d = self.A.size
        self.exps = _exponents(d, spec.p)
        self.pilot_exps = _exponents(d, spec.p + 1)
        top_exps = _exponents(d, spec.p + 1, exact=True)
        self.top_rows = [self.pilot_exps.index(e) for e in top_exps]
        kernel = spec.kernel()
        S = _product_moments(kernel, self.exps, self.exps)
        Kcal = _product_moments(kernel, self.exps, self.exps, r=2)
        B = _product_moments(kernel, self.exps, top_exps)
        Sinv = np.linalg.inv(S)
        # intercept bias: sum_alpha (S^-1 B)_{0 alpha} h^alpha beta_alpha(pilot)
        self.bias_coef = (Sinv @ B)[0] * np.array(
            [np.prod(self.fit_h ** np.asarray(e)) for e in top_exps]
        )
        self.sks00 = float((Sinv @ Kcal @ Sinv)[0, 0])
        self.kappa02 = float(Kcal[0, 0])

        err = spec.error
        self.sigma2 = float(err.sigma2)
        self.field_scale = 0.0
        if err.kind == "car1" and err.tau2 > 0.0:
            if err.n_knots is None or err.buffer is None or d != 2:
                raise ValueError("oracle needs d = 2, a fixed knot count and a buffer")
            knot_area = float(np.prod(err.buffer * self.A))
            self.field_scale = err.n_knots / knot_area * err.tau2
            grid = np.arange(0.0, np.linalg.norm(self.A) + 2.0, self.COV_STEP)
            self.cov_table = exponential_self_convolution(err.lam, grid)
        elif err.kind != "iid":
            raise ValueError(f"oracle does not cover error kind {err.kind!r}")

    def _field_covariance(self, sites) -> np.ndarray:
        """(phi * phi)(X_k - X_l), linearly interpolated in the table."""
        u = distance.pdist(sites) / self.COV_STEP
        k = u.astype(np.intp)
        frac = u - k
        cov = distance.squareform(
            self.cov_table[k] * (1.0 - frac) + self.cov_table[k + 1] * frac
        )
        cov[np.diag_indices_from(cov)] = self.cov_table[0]
        return cov

    def _cov_trace(self, U, V, field) -> float:
        """trace(U Sigma V') for Sigma = sigma2 I + field_scale * field."""
        out = self.sigma2 * np.sum(U * V)
        if field is not None:
            out += self.field_scale * np.sum((U @ field) * V)
        return float(out)

    def numerator_weights(self, sites) -> np.ndarray:
        """a with N = a'Y - m(z): fit intercept minus pilot bias weights."""
        s = sites / self.A - self.z
        t = [s[None, :, j] for j in range(self.A.size)]
        fit = _wls_rows(t, self.fit_h, self.C, self.exps)[0]
        pilot = _wls_rows(t, self.pilot_h, self.C, self.pilot_exps)[0]
        return fit[0] - self.bias_coef @ pilot[self.top_rows]

    def variance_form(self, sites):
        """(R, Q, c) with var0 = c (RY)' Q (RY).

        R maps the responses to the residuals Y_i - m_hat(X_i / A) of the
        sites i inside the variance window, m_hat being the order-p fit at
        the variance bandwidth; Q is the kernel-weighted Bartlett taper
        matrix of those sites and c collects the normalizations of W_hat
        and of the intercept variance.
        """
        n, d = sites.shape
        s = sites / self.A
        w_all = _triangular_weights(
            [(s[:, j] - self.z[j]) for j in range(d)], self.variance_h, self.C
        )
        active = np.flatnonzero(w_all > 0.0)
        t = [s[None, :, j] - s[active, None, j] for j in range(d)]
        R = -_wls_rows(t, self.variance_h, self.C, self.exps, rows=[0])[:, 0]
        R[np.arange(active.size), active] += 1.0

        w = w_all[active]
        disp = (sites[active, None, :] - sites[None, active, :]) / self.taper_b
        taper = np.maximum(0.0, 1.0 - np.sqrt((disp**2).sum(axis=2)))
        Q = w[:, None] * taper * w[None, :]

        hv = float(np.prod(self.variance_h))
        g = w.sum() / (n * hv)
        An = float(np.prod(self.A))
        W_scale = An / (n * n * hv) / (self.kappa02 * g * g)
        c = W_scale * self.sks00 / (An * float(np.prod(self.fit_h)))
        return R, Q, c

    def moments(self, sites, mu, m_z: float, y=None) -> dict:
        """Conditional moments of N and var0 given the sites.

        mu is the mean at the sites and m_z the target m(z).  EN2 and Evar0
        are E[N^2 | X] and E[var0 | X]; misfit is the part of Evar0 that the
        mean alone contributes.  With responses y the realized N, var0 and
        T = N / sqrt(var0) are added.
        """
        field = self._field_covariance(sites) if self.field_scale else None
        a = self.numerator_weights(sites)
        EN = float(a @ mu - m_z)
        varN = self._cov_trace(a[None], a[None], field)

        R, Q, c = self.variance_form(sites)
        rmu = R @ mu
        misfit = c * float(rmu @ Q @ rmu)
        noise = c * self._cov_trace(Q @ R, R, field)
        out = {
            "EN": EN,
            "EN2": EN * EN + varN,
            "Evar0": misfit + noise,
            "misfit": misfit,
        }
        if y is not None:
            r = R @ y
            out["N"] = float(a @ y - m_z)
            out["var0"] = c * float(r @ Q @ r)
            out["t"] = out["N"] / math.sqrt(out["var0"])
        return out
