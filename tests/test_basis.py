"""Multi-index enumeration, ordering, and factorial bookkeeping."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatial_lp import basis


def test_layout_d2_p1_canonical_order():
    layout = basis.build_layout(2, 1)
    assert layout.indices == ((), (1,), (2,))
    assert layout.top_indices == ((1, 1), (1, 2), (2, 2))
    assert layout.D == 3
    assert layout.D_bar == 3


def test_layout_d2_p2_order():
    layout = basis.build_layout(2, 2)
    assert layout.indices == ((), (1,), (2,), (1, 1), (1, 2), (2, 2))
    assert layout.top_indices == ((1, 1, 1), (1, 1, 2), (1, 2, 2), (2, 2, 2))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_layout_sizes_match_combinatorics(d, p):
    layout = basis.build_layout(d, p)
    assert layout.D == sum(comb(d + L - 1, L) for L in range(p + 1))
    assert layout.D_bar == comb(d + p, p + 1)
    # indices are unique and sorted by length then lexicographically
    assert len(set(layout.indices)) == layout.D
    assert list(layout.indices) == sorted(layout.indices, key=lambda i: (len(i), i))


def test_s_factorial():
    assert basis.s_factorial(()) == 1
    assert basis.s_factorial((1,)) == 1
    assert basis.s_factorial((1, 1)) == 2
    assert basis.s_factorial((1, 2)) == 1
    assert basis.s_factorial((1, 1, 2)) == 2
    assert basis.s_factorial((1, 1, 1)) == 6
    assert basis.s_factorial((1, 1, 2, 2, 2)) == 2 * 6


def test_monomial_values():
    assert basis.monomial((), (0.3, -2.0)) == 1.0
    assert basis.monomial((1, 1), (0.5, -1.0)) == 0.25
    assert basis.monomial((1, 2), (0.5, -1.0)) == -0.5


def test_index_counts():
    np.testing.assert_array_equal(basis.index_counts((1, 1, 3), 3), [2, 0, 1])
    np.testing.assert_array_equal(basis.index_counts((), 2), [0, 0])


def test_validate_index_rejects_bad_tuples():
    basis.validate_index((1, 2, 2), 2)
    with pytest.raises(ValueError):
        basis.validate_index((2, 1), 2)
    with pytest.raises(ValueError):
        basis.validate_index((0,), 2)
    with pytest.raises(ValueError):
        basis.validate_index((3,), 2)


def test_position_lookup_and_missing_index():
    layout = basis.build_layout(2, 2)
    assert layout.position(()) == 0
    assert layout.position((1, 2)) == 4
    with pytest.raises(KeyError):
        layout.position((1, 1, 1))


def test_design_row_matches_monomials():
    layout = basis.build_layout(2, 2)
    v = (0.2, -0.4)
    row = [basis.monomial(idx, v) for idx in layout.indices]
    expected = [1.0, 0.2, -0.4, 0.04, -0.08, 0.16]
    np.testing.assert_allclose(row, expected, rtol=0, atol=1e-15)


def test_counts_matrix_shapes():
    layout = basis.build_layout(3, 2)
    assert layout.counts_matrix().shape == (layout.D, 3)
    assert layout.counts_matrix(top=True).shape == (layout.D_bar, 3)
    # row sums give the index length
    assert list(layout.counts_matrix().sum(axis=1)) == [len(i) for i in layout.indices]


def test_build_layout_validation():
    with pytest.raises(ValueError):
        basis.build_layout(0, 1)
    with pytest.raises(ValueError):
        basis.build_layout(2, 0)


def test_s_factorials_vector():
    layout = basis.build_layout(2, 2)
    facts = [basis.s_factorial(idx) for idx in layout.indices]
    assert facts == [1, 1, 1, 2, 1, 2]


def test_parse_index():
    assert basis.parse_index("") == ()
    assert basis.parse_index("12") == (1, 2)
    assert basis.parse_index("112") == (1, 1, 2)
    with pytest.raises(ValueError):
        basis.parse_index("1a")


@st.composite
def _points(draw, rows):
    """d, p, and `rows` points in [-1, 1]^d, drawn from a seed."""
    d, p = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return d, p, rng.uniform(-1.0, 1.0, (rows, d))


@settings(max_examples=60, deadline=None)
@given(_points(rows=2))
def test_monomials_match_the_scalar_monomial(case):
    d, p, t = case
    layout = basis.build_layout(d, p)
    got = basis.monomials(layout, t.T)
    for k, idx in enumerate(layout.indices):
        for i, v in enumerate(t):
            assert got[k, i] == pytest.approx(basis.monomial(idx, v), rel=1e-15, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(_points(rows=6))
def test_shift_matrix_moves_the_monomials(case):
    """m(t - delta) = T(delta) m(t), for each of 3 shifts of 3 points."""
    d, p, pts = case
    layout = basis.build_layout(d, p)
    t, delta = pts[:3], pts[3:]
    T = basis.shift_matrices(layout, delta)
    assert T.shape == (3, layout.D, layout.D)
    m = basis.monomials(layout, t.T)
    for r in range(3):
        shifted = basis.monomials(layout, (t - delta[r]).T)
        np.testing.assert_allclose(T[r] @ m, shifted, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(_points(rows=4))
def test_product_table_multiplies_monomials(case):
    """m_a(t) m_b(t) = m_{a + b}(t), a + b read in the order-2p layout."""
    d, p, t = case
    layout, double = basis.build_layout(d, p), basis.build_layout(d, 2 * p)
    product = basis.shift_tables(d, p).product
    m, m2 = basis.monomials(layout, t.T), basis.monomials(double, t.T)
    np.testing.assert_allclose(m2[product], m[:, None] * m[None], rtol=1e-14, atol=0)
    for a, ia in enumerate(layout.indices):
        for b, ib in enumerate(layout.indices):
            assert double.indices[product[a, b]] == tuple(sorted(ia + ib))
