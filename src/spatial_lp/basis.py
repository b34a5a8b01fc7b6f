"""Multi-index combinatorics for the order-p polynomial basis.

A multi-index is a non-decreasing tuple (j_1, ..., j_L) of coordinate axes
in 1..d.  The empty tuple is the intercept.  The canonical ordering of the
basis is L ascending, lexicographic within each L: intercept, then the d
first-order indices, then the second-order block, and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from math import comb, factorial

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

    def s_factorials(self) -> np.ndarray:
        return np.array([s_factorial(idx) for idx in self.indices], dtype=float)

    def counts_matrix(self, top: bool = False) -> np.ndarray:
        """(D, d) or (D_bar, d) matrix of per-axis occurrence counts."""
        src = self.top_indices if top else self.indices
        return np.array([index_counts(idx, self.d) for idx in src], dtype=np.int64)

    def design_row(self, v) -> np.ndarray:
        """Monomial values (1, v_1, ..., products up to degree p) in layout order."""
        return np.array([monomial(idx, v) for idx in self.indices])


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


def parse_index(text: str) -> MultiIndex:
    """Parse a digit-string encoding, e.g. '' -> (), '12' -> (1, 2)."""
    if not text.isdigit() and text != "":
        raise ValueError(f"multi-index string must be digits, got {text!r}")
    return tuple(int(c) for c in text)
