"""Multi-index combinatorics for the order-p polynomial basis.

A multi-index is a non-decreasing tuple (j_1, ..., j_L) of coordinate axes
in 1..d.  The empty tuple is the intercept.  The canonical ordering of the
basis is L ascending, lexicographic within each L: intercept, then the d
first-order indices, then the second-order block, and so on.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb, factorial
from typing import NamedTuple

import numpy as np

MultiIndex = tuple[int, ...]


def index_counts(idx: MultiIndex, d: int) -> np.ndarray:
    """Occurrence counts per axis, as an integer vector of length d."""
    c = np.zeros(d, dtype=np.int64)
    for j in idx:
        c[j - 1] += 1
    return c


def s_factorial(idx: MultiIndex) -> int:
    """Product of per-axis occurrence factorials; 1 for the empty index."""
    out = 1
    i = 0
    while i < len(idx):
        j = i
        while j < len(idx) and idx[j] == idx[i]:
            j += 1
        out *= factorial(j - i)
        i = j
    return out


def derivative_scale(idx: MultiIndex, h) -> float:
    """s! / prod_l h_{j_l}: maps an H-scale coefficient to the derivative scale."""
    return s_factorial(idx) / float(np.prod([h[j - 1] for j in idx]))


def monomial(idx: MultiIndex, v) -> float:
    """prod_l v[j_l - 1]; equals 1.0 for the empty index."""
    out = 1.0
    for j in idx:
        out *= v[j - 1]
    return out


def validate_index(idx: MultiIndex, d: int) -> None:
    if any(not (1 <= j <= d) for j in idx):
        raise ValueError(f"multi-index {idx} has entries outside 1..{d}")
    if any(idx[k] > idx[k + 1] for k in range(len(idx) - 1)):
        raise ValueError(f"multi-index {idx} is not non-decreasing")


@dataclass(frozen=True)
class BasisLayout:
    """Enumeration of all multi-indices with 0 <= L <= p over d axes.

    Attributes
    ----------
    indices : tuple of MultiIndex
        All indices with length <= p in canonical order; len == D.
    top_indices : tuple of MultiIndex
        All indices of length exactly p + 1; len == D_bar.
    """

    d: int
    p: int
    indices: tuple[MultiIndex, ...]
    top_indices: tuple[MultiIndex, ...]
    _pos: dict = field(repr=False, hash=False, compare=False, default_factory=dict)

    @property
    def D(self) -> int:
        return len(self.indices)

    @property
    def D_bar(self) -> int:
        return len(self.top_indices)

    def position(self, idx: MultiIndex) -> int:
        try:
            return self._pos[tuple(idx)]
        except KeyError:
            raise KeyError(f"multi-index {idx} not in layout (d={self.d}, p={self.p})")

    def counts_matrix(self, top: bool = False) -> np.ndarray:
        """(D, d) or (D_bar, d) matrix of per-axis occurrence counts."""
        src = self.top_indices if top else self.indices
        return np.array([index_counts(idx, self.d) for idx in src], dtype=np.int64)


def build_layout(d: int, p: int) -> BasisLayout:
    """Enumerate the basis for dimension d and polynomial order p.

    Raises ValueError for d < 1 or p < 1.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if p < 1:
        raise ValueError(f"polynomial order must be >= 1, got {p}")
    indices: list[MultiIndex] = []
    for L in range(p + 1):
        indices.extend(combinations_with_replacement(range(1, d + 1), L))
    top = list(combinations_with_replacement(range(1, d + 1), p + 1))

    expected_D = sum(comb(d + L - 1, L) for L in range(p + 1))
    assert len(indices) == expected_D
    assert len(top) == comb(d + p, p + 1)

    layout = BasisLayout(d=d, p=p, indices=tuple(indices), top_indices=tuple(top))
    layout._pos.update({idx: k for k, idx in enumerate(indices)})
    return layout


def fill_monomials(layout: BasisLayout, out: np.ndarray) -> np.ndarray:
    """Complete out[k] = prod_l t[j_l - 1] for every basis index k, in place.

    out[1:d + 1] holds t on entry: the first-order indices (j,) sit at
    position j. Every index of order >= 2 is its prefix times one more axis,
    and canonical order puts each prefix before it is used.
    """
    out[0] = 1.0
    for k in range(layout.d + 1, layout.D):
        idx = layout.indices[k]
        np.multiply(out[layout.position(idx[:-1])], out[idx[-1]], out=out[k])
    return out


def monomials(layout: BasisLayout, t) -> np.ndarray:
    """Every basis monomial of t, shape (d, ...): out[k] is that of basis index k."""
    t = np.asarray(t, dtype=float)
    out = np.empty((layout.D, *t.shape[1:]))
    out[1:layout.d + 1] = t
    return fill_monomials(layout, out)


class ShiftTables(NamedTuple):
    """Integer tables for products and shifts of the order-p monomials m.

    product[a, b] is the position in the order-2p layout of the index whose
    counts are those of a plus those of b, so m_a(t) m_b(t) = m_product[a, b](t).
    Where b's counts are within a's, binom[a, b] = prod_j C(alpha_j, beta_j)
    and rest[a, b] is the position of the index with counts alpha - beta;
    elsewhere both are 0. Then T(delta)[a, b] = binom[a, b] m_rest[a, b](-delta)
    gives m(t - delta) = T(delta) m(t) by the binomial theorem on each axis.
    """

    product: np.ndarray
    binom: np.ndarray
    rest: np.ndarray


def _from_counts(counts) -> MultiIndex:
    return tuple(j + 1 for j, c in enumerate(counts) for _ in range(c))


@functools.cache
def shift_tables(d: int, p: int) -> ShiftTables:
    """The ShiftTables of the order-p basis on d axes, built once per (d, p)."""
    layout, double = build_layout(d, p), build_layout(d, 2 * p)
    counts = layout.counts_matrix()
    D = layout.D
    product = np.zeros((D, D), dtype=np.int64)
    binom = np.zeros((D, D), dtype=np.int64)
    rest = np.zeros((D, D), dtype=np.int64)
    for a, ca in enumerate(counts):
        for b, cb in enumerate(counts):
            product[a, b] = double.position(_from_counts(ca + cb))
            if (cb <= ca).all():
                binom[a, b] = np.prod([comb(x, y) for x, y in zip(ca, cb)])
                rest[a, b] = layout.position(_from_counts(ca - cb))
    for table in (product, binom, rest):
        table.flags.writeable = False
    return ShiftTables(product, binom, rest)


def shift_matrices(layout: BasisLayout, delta) -> np.ndarray:
    """T(delta_r) for each row of delta (m, d), shape (m, D, D).

    m(t - delta_r) = T(delta_r) m(t) for the monomial vector m of layout.
    """
    tables = shift_tables(layout.d, layout.p)
    mon = monomials(layout, -np.asarray(delta, dtype=float).T)
    return tables.binom * mon.T[:, tables.rest]


def parse_index(text: str) -> MultiIndex:
    """Parse a digit-string encoding, e.g. '' -> (), '12' -> (1, 2)."""
    if not isinstance(text, str) or not (text.isdigit() or text == ""):
        raise ValueError(f"multi-index string must be digits, got {text!r}")
    return tuple(int(c) for c in text)
