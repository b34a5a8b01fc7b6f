"""Kernel evaluation, taper, and exact moment matrices.

The closed-form moments are cross-checked against 64-node Gauss-Legendre
quadrature, which is exact for the piecewise-polynomial kernels used here.
"""

import numpy as np
import pytest

from spatial_lp import basis, kernels

from _oracles import quad_moment_1d, quad_moment_matrices


# --- evaluation ---------------------------------------------------------


@pytest.mark.parametrize("family", kernels.FAMILIES)
def test_kernel_integrates_to_one(family):
    spec = kernels.KernelSpec(family=family, support_halfwidth=0.7, d=1)
    assert quad_moment_1d(spec, 0, 1) == pytest.approx(1.0, abs=1e-12)


def test_triangular_values():
    spec = kernels.KernelSpec(family="product-triangular", d=2)
    assert kernels.eval_kernel(spec, (0.0, 0.0)) == 1.0
    assert kernels.eval_kernel(spec, (0.5, 0.5)) == 0.25
    assert kernels.eval_kernel(spec, (1.0, 0.3)) == 0.0
    assert kernels.eval_kernel(spec, (-1.2, 0.0)) == 0.0


def test_support_halfwidth_rescaling():
    base = kernels.KernelSpec(family="product-epanechnikov", d=2)
    wide = kernels.KernelSpec(
        family="product-epanechnikov", support_halfwidth=2.0, d=2
    )
    v = np.array([0.6, -0.8])
    assert kernels.eval_kernel(wide, v) == pytest.approx(
        kernels.eval_kernel(base, v / 2.0) / 4.0
    )


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        kernels.KernelSpec(family="gaussian", d=2)
    with pytest.raises(ValueError):
        kernels.KernelSpec(family="product-uniform", support_halfwidth=0.0, d=2)
    with pytest.raises(ValueError):
        kernels.KernelSpec(family="product-uniform", d=0)


# --- taper --------------------------------------------------------------


def test_taper_values():
    taper = kernels.TaperSpec(widths=(8.0, 8.0))
    assert kernels.eval_taper(taper, (0.0, 0.0)) == 1.0
    assert kernels.eval_taper(taper, (8.0, 0.0)) == 0.0
    # 1 - sqrt((3/8)^2 + (4/8)^2) = 1 - 5/8
    assert kernels.eval_taper(taper, (3.0, 4.0)) == pytest.approx(0.375)
    assert kernels.eval_taper(taper, (8.0, 8.0)) == 0.0


def test_taper_anisotropic_widths():
    taper = kernels.TaperSpec(widths=(2.0, 4.0))
    assert kernels.eval_taper(taper, (2.0, 0.0)) == 0.0
    assert kernels.eval_taper(taper, (0.0, 2.0)) == pytest.approx(0.5)


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
    spec = kernels.KernelSpec(family="product-triangular", d=2)
    assert kernels.kappa_moment(spec, (2, 0), 1) == pytest.approx(1 / 6, abs=1e-12)
    assert kernels.kappa_moment(spec, (2, 2), 2) == pytest.approx(
        (1 / 15) ** 2, abs=1e-12
    )
    with pytest.raises(ValueError):
        kernels.kappa_moment(spec, (2,), 1)
    with pytest.raises(ValueError):
        kernels.kappa_moment(spec, (0, 0), 3)


def test_moment_matrices_dimension_mismatch():
    spec = kernels.KernelSpec(family="product-triangular", d=3)
    with pytest.raises(ValueError):
        kernels.moment_matrices(spec, basis.build_layout(2, 1))
