"""Kernel evaluation, taper, and exact moment matrices.

The closed-form moments are cross-checked against 64-node Gauss-Legendre
quadrature, which is exact for the piecewise-polynomial kernels used here.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.spatial.distance import cdist

from spatial_lp import basis, kernels

from _oracles import kernel_values, quad_moment_1d, quad_moment_matrices, taper_pairs


# --- evaluation ---------------------------------------------------------


@pytest.mark.parametrize("family", kernels.FAMILIES)
def test_kernel_integrates_to_one(family):
    spec = kernels.KernelSpec(family=family, support_halfwidth=0.7, d=1)
    assert quad_moment_1d(spec, 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_triangular_values():
    spec = kernels.KernelSpec(family="product-triangular", d=2)
    V = np.array([(0.0, 0.0), (0.5, 0.5), (1.0, 0.3), (-1.2, 0.0)])
    np.testing.assert_array_equal(
        kernel_values(spec, V), [1.0, 0.25, 0.0, 0.0]
    )


def test_support_halfwidth_rescaling():
    base = kernels.KernelSpec(family="product-epanechnikov", d=2)
    wide = kernels.KernelSpec(
        family="product-epanechnikov", support_halfwidth=2.0, d=2
    )
    v = np.array([[0.6, -0.8]])
    assert kernel_values(wide, v)[0] == pytest.approx(
        kernel_values(base, v / 2.0)[0] / 4.0
    )


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        kernels.KernelSpec(family="gaussian", d=2)
    with pytest.raises(ValueError):
        kernels.KernelSpec(family="product-uniform", support_halfwidth=0.0, d=2)
    with pytest.raises(ValueError):
        kernels.KernelSpec(family="product-uniform", d=0)


# --- taper --------------------------------------------------------------


def _taper_at(taper, w):
    """Kbar(w): the taper between displacement w and the origin."""
    w = np.asarray(w, dtype=float)
    return float(taper_pairs(taper, w[None], np.zeros_like(w)[None])[0, 0])


def test_taper_values():
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    assert _taper_at(taper, (0.0, 0.0)) == 1.0
    assert _taper_at(taper, (8.0, 0.0)) == 0.0
    # 1 - sqrt((3/8)^2 + (4/8)^2) = 1 - 5/8
    assert _taper_at(taper, (3.0, 4.0)) == pytest.approx(0.375)
    assert _taper_at(taper, (8.0, 8.0)) == 0.0


def test_taper_anisotropic_widths():
    taper = kernels.TaperSpec(widths=(2.0, 4.0))
    assert _taper_at(taper, (2.0, 0.0)) == 0.0
    assert _taper_at(taper, (0.0, 2.0)) == pytest.approx(0.5)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_taper_matches_cdist_bitwise(d, seed):
    """Kbar is max(0, 1 - cdist(X / b, Y / b)) to the bit, given out or not."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((int(rng.integers(1, 40)), d)) * 10.0 ** rng.uniform(-3, 3)
    Y = rng.standard_normal((int(rng.integers(1, 40)), d)) * 10.0 ** rng.uniform(-3, 3)
    taper = kernels.TaperSpec(widths=tuple(rng.uniform(0.05, 10.0, d)))
    b = np.asarray(taper.widths)
    expected = np.maximum(0.0, 1.0 - cdist(X / b, Y / b))
    np.testing.assert_array_equal(taper_pairs(taper, X, Y), expected)
    out, work = np.empty((2, len(X), len(Y)))
    got = taper_pairs(taper, X, Y, out=out, work=work)
    assert got is out
    np.testing.assert_array_equal(got, expected)


def test_taper_validation():
    with pytest.raises(ValueError):
        kernels.TaperSpec(widths=(1.0, -1.0))


# --- closed-form moments -------------------------------------------------


def test_triangular_d2_p1_matrices_exact():
    """Exact values for the default configuration.

    For the triangular kernel on [-1, 1]: int u^2 k = 1/6, int k^2 = 2/3,
    int u^2 k^2 = 1/15, int u^4 k = 1/15.
    """
    spec = kernels.KernelSpec(family="product-triangular", d=2)
    layout = basis.build_layout(2, 1)
    mom = kernels.moment_matrices(spec, layout)

    np.testing.assert_allclose(mom.S, np.diag([1.0, 1 / 6, 1 / 6]), atol=1e-10)
    np.testing.assert_allclose(
        mom.Kcal, np.diag([4 / 9, 2 / 45, 2 / 45]), atol=1e-10
    )
    # rows: intercept, z1, z2; columns: (1,1), (1,2), (2,2)
    B_expected = np.array(
        [
            [1 / 6, 0.0, 1 / 6],
            [0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0],
        ]
    )
    np.testing.assert_allclose(mom.B, B_expected, atol=1e-10)
    assert mom.kappa0_r2 == pytest.approx(4 / 9, abs=1e-12)


def test_sks_sandwich_d2_p1():
    spec = kernels.KernelSpec(family="product-triangular", d=2)
    mom = kernels.moment_matrices(spec, basis.build_layout(2, 1))
    sks = mom.sks()
    np.testing.assert_allclose(sks, np.diag([4 / 9, 72 / 45, 72 / 45]), atol=1e-10)


def test_sks_is_computed_once_and_read_only():
    spec = kernels.KernelSpec(family="product-epanechnikov", d=2)
    mom = kernels.moment_matrices(spec, basis.build_layout(2, 2))
    sks = mom.sks()
    assert mom.sks() is sks
    Sinv = np.linalg.inv(mom.S)
    np.testing.assert_allclose(sks, Sinv @ mom.Kcal @ Sinv, rtol=1e-14)
    with pytest.raises(ValueError):
        sks[0, 0] = 1.0


@pytest.mark.parametrize("family", kernels.FAMILIES)
@pytest.mark.parametrize("a", [0, 1, 2, 3, 4, 6, 8])
@pytest.mark.parametrize("r", [1, 2])
def test_moment_1d_matches_quadrature(family, a, r):
    for C in (1.0, 0.7):
        spec = kernels.KernelSpec(family=family, support_halfwidth=C, d=1)
        assert kernels.moment_1d(spec, a, r) == pytest.approx(
            quad_moment_1d(spec, a, r), abs=1e-12
        )


def _exact_epanechnikov_moment(a, r):
    """int_{-1}^{1} u^a ((3/4)(1 - u^2))^r du as a fraction, for even a."""
    x = Fraction(a + 1, 2)
    return Fraction(3, 4) ** r * math.factorial(r) / math.prod(x + k for k in range(r + 1))


@pytest.mark.parametrize("a", range(0, 15, 2))
@pytest.mark.parametrize("r", [0, 1, 2, 3])
def test_epanechnikov_moment_is_correctly_rounded(a, r):
    got = kernels._base_moment_1d("product-epanechnikov", a, r)
    assert got == float(_exact_epanechnikov_moment(a, r))


@pytest.mark.parametrize("a", range(0, 9, 2))  # every a = 2p + 2 for p <= 3
@pytest.mark.parametrize("r", [1, 2])
def test_epanechnikov_moment_matches_scipy_beta(a, r):
    """The closed form agrees with (3/4)^r B((a+1)/2, r+1) from scipy."""
    ref = 0.75**r * special.beta((a + 1) / 2.0, r + 1)
    got = kernels._base_moment_1d("product-epanechnikov", a, r)
    assert abs(got - ref) <= 2 * math.ulp(ref)


def test_odd_moments_vanish():
    spec = kernels.KernelSpec(family="product-epanechnikov", d=1)
    for a in (1, 3, 5):
        assert kernels.moment_1d(spec, a, 1) == 0.0
        assert kernels.moment_1d(spec, a, 2) == 0.0


@pytest.mark.parametrize("family", kernels.FAMILIES)
@pytest.mark.parametrize("d,p", [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_moment_matrices_match_tensor_quadrature(family, d, p):
    spec = kernels.KernelSpec(family=family, support_halfwidth=1.0, d=d)
    layout = basis.build_layout(d, p)
    mom = kernels.moment_matrices(spec, layout)
    S, Kcal, B = quad_moment_matrices(spec, layout)
    np.testing.assert_allclose(mom.S, S, atol=1e-9)
    np.testing.assert_allclose(mom.Kcal, Kcal, atol=1e-9)
    np.testing.assert_allclose(mom.B, B, atol=1e-9)


def test_kappa_moment_product_structure():
    # int z1^2 K(z) dz and int z1^2 z2^2 K^2(z) dz of the product kernel are
    # products of per-axis moments
    spec = kernels.KernelSpec(family="product-triangular", d=2)
    m1 = [kernels.moment_1d(spec, a, 1) for a in (2, 0)]
    assert m1[0] * m1[1] == pytest.approx(1 / 6, abs=1e-12)
    m2 = kernels.moment_1d(spec, 2, 2)
    assert m2 * m2 == pytest.approx((1 / 15) ** 2, abs=1e-12)


def test_moment_matrices_dimension_mismatch():
    spec = kernels.KernelSpec(family="product-triangular", d=3)
    with pytest.raises(ValueError):
        kernels.moment_matrices(spec, basis.build_layout(2, 1))
