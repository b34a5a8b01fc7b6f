"""Data model for irregularly spaced observations and site generation.

Sites live in the rectangle R_n = prod_j [-A_j/2, A_j/2].  Sampling draws
z ~ g on R_0 = [-1/2, 1/2]^d by per-axis inverse-CDF and scales by A, so
the sites have density A_n^{-1} g(x / A_n).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

GENERATOR_ID = "numpy-pcg64-seedseq-v1"

BOUNDARY_TOL = 1e-9

# rows of a data file formatted per write call, so the text and floats held
# at once stay at a few hundred kB, whatever the file's length
SAVE_ROWS = 1 << 10

# characters a CSV writer would quote, which load_csv does not unquote
_NEEDS_QUOTING = frozenset(',"\r\n')


@dataclass(frozen=True)
class Region:
    """Rectangular sampling region with side lengths A_j."""

    A: tuple[float, ...]

    def __post_init__(self):
        if not all(0 < a < math.inf for a in self.A):
            raise ValueError(
                f"region side lengths must be finite and positive, got {self.A}"
            )

    @property
    def d(self) -> int:
        return len(self.A)

    @property
    def volume(self) -> float:
        return float(np.prod(self.A))

    def sides(self) -> np.ndarray:
        return np.asarray(self.A, dtype=float)

    def contains(self, x: np.ndarray) -> np.ndarray:
        half = self.sides() / 2.0
        return (np.abs(np.atleast_2d(x)) <= half + BOUNDARY_TOL).all(axis=1)


@dataclass(frozen=True)
class SamplingDensity:
    """Product density on R_0 = [-1/2, 1/2]^d sampled by per-axis inverse CDF.

    kinds:
      uniform       -- no parameters
      product-beta  -- params["alpha"], params["beta"]: per-axis shape lists
      custom-grid   -- params["weights"]: per-axis lists of cell densities on
                       an equal-width grid over [-1/2, 1/2]; each axis must
                       integrate to 1
    """

    kind: str = "uniform"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("uniform", "product-beta", "custom-grid"):
            raise ValueError(f"unknown sampling density kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise ValueError(f"density params must be an object, got {self.params!r}")
        if self.kind == "custom-grid":
            for w in self.params["weights"]:
                w = np.asarray(w, dtype=float)
                if (w < 0).any():
                    raise ValueError("custom-grid densities must be nonnegative")
                if abs(w.mean() - 1.0) > 1e-8:
                    raise ValueError(
                        "custom-grid density does not integrate to 1 on [-1/2, 1/2]"
                    )

    def check_axes(self, d: int) -> None:
        """Raise ValueError unless the parameters give each of d axes its density.

        product-beta needs d finite positive alpha and d such beta;
        custom-grid needs d weight lists.
        """
        if self.kind == "product-beta":
            for name in ("alpha", "beta"):
                v = self.params.get(name)
                if not (
                    isinstance(v, (list, tuple))
                    and len(v) == d
                    and all(_is_positive(x) for x in v)
                ):
                    raise ValueError(
                        f"product-beta {name} must be {d} finite positive numbers, got {v!r}"
                    )
        if self.kind == "custom-grid" and len(self.params["weights"]) != d:
            raise ValueError(
                f"custom-grid has {len(self.params['weights'])} weight lists, expected {d}"
            )

    def ppf_axis(self, j: int, u: np.ndarray) -> np.ndarray:
        """Inverse CDF of axis j, mapping (0,1) to [-1/2, 1/2]."""
        if self.kind == "uniform":
            return u - 0.5
        if self.kind == "product-beta":
            from scipy.special import betaincinv

            a = self.params["alpha"][j]
            b = self.params["beta"][j]
            return betaincinv(a, b, u) - 0.5
        # custom-grid: piecewise-constant density -> piecewise-linear CDF
        w = np.asarray(self.params["weights"][j], dtype=float)
        k = len(w)
        cdf = np.concatenate([[0.0], np.cumsum(w) / k])
        cells = np.clip(np.searchsorted(cdf, u, side="right") - 1, 0, k - 1)
        frac = (u - cdf[cells]) / np.maximum(w[cells] / k, 1e-300)
        return (cells + np.clip(frac, 0.0, 1.0)) / k - 0.5


def _is_positive(x) -> bool:
    return (
        isinstance(x, (int, float)) and not isinstance(x, bool)
        and math.isfinite(x) and x > 0
    )


def rep_rng(master_seed: int, rep: int) -> np.random.Generator:
    """Per-replication stream: derived, reproducible, safe to run in parallel."""
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), int(rep)]))


def generate_sites(
    region: Region,
    density: SamplingDensity,
    n: int,
    seed,
) -> np.ndarray:
    """Draw n i.i.d. sites in R_n with density A_n^{-1} g(x / A_n)."""
    if n < 1:
        raise ValueError("site count must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random((n, region.d))
    z = np.column_stack([density.ppf_axis(j, u[:, j]) for j in range(region.d)])
    return z * region.sides()


@dataclass(frozen=True)
class SortedSites:
    """The sites in ascending order of their first coordinate.

    order[k] is the dataset row of the k-th site; columns[j] and responses
    are contiguous copies of coordinate j and of Y in that order.
    """

    order: np.ndarray
    columns: tuple[np.ndarray, ...]
    responses: np.ndarray


@dataclass(frozen=True)
class SpatialDataset:
    """n sites in R_n plus responses Y, optionally group-labelled.

    sites and responses are private read-only copies of the arrays passed
    in, so the sorted copies derived from them cannot go stale.
    """

    region: Region
    sites: np.ndarray
    responses: np.ndarray
    group: np.ndarray | None = None

    def __post_init__(self):
        sites = np.atleast_2d(np.array(self.sites, dtype=float))
        responses = np.array(self.responses, dtype=float)
        sites.setflags(write=False)
        responses.setflags(write=False)
        object.__setattr__(self, "sites", sites)
        object.__setattr__(self, "responses", responses)
        if self.sites.shape[0] != self.responses.shape[0]:
            raise ValueError("sites and responses must have equal length")
        if self.sites.shape[0] < 1:
            raise ValueError("dataset must contain at least one observation")
        bad = np.flatnonzero(~np.isfinite(self.responses))
        if bad.size:
            raise ValueError(
                f"response at row {bad[0]} is not finite: {self.responses[bad[0]]}"
            )
        if self.sites.shape[1] != self.region.d:
            raise ValueError("site dimension does not match region")
        if not self.region.contains(self.sites).all():
            bad = int(np.argmin(self.region.contains(self.sites)))
            raise ValueError(f"site {bad} lies outside the sampling region")

    @functools.cached_property
    def by_first_axis(self) -> SortedSites:
        """The sites sorted by first coordinate, computed on first use."""
        order = np.argsort(self.sites[:, 0], kind="stable")
        columns = tuple(self.sites[order, j] for j in range(self.d))
        responses = self.responses[order]
        for a in (order, *columns, responses):
            a.setflags(write=False)
        return SortedSites(order, columns, responses)

    @property
    def n(self) -> int:
        return self.sites.shape[0]

    @property
    def d(self) -> int:
        return self.region.d


def save_csv(dataset: SpatialDataset, path) -> None:
    """Write `# A=...` header comment, column header, then one row per site.

    The two header lines end in LF and the rows in CRLF. Each value is
    written as %.17g, which reads back as the same float; a group label
    follows as a ,group suffix, as is. A label holding a comma, a double
    quote, CR or LF is a ValueError naming its row, since load_csv cannot
    read it back. Rows go out SAVE_ROWS at a time, one write each.
    """
    path = Path(path)
    d = dataset.d
    cols = [f"x{j + 1}" for j in range(d)] + ["y"]
    row = ",".join(["%.17g"] * (d + 1))
    labels = None
    if dataset.group is not None:
        labels = [str(g) for g in dataset.group]
        for i, label in enumerate(labels):
            if not _NEEDS_QUOTING.isdisjoint(label):
                raise ValueError(
                    f"group label at row {i} needs quoting, which load_csv "
                    f"cannot read: {label!r}"
                )
        cols.append("group")
        row += ",%s"
    row += "\r\n"
    with path.open("w", newline="") as f:
        f.write("# A=" + ",".join(f"{a:.17g}" for a in dataset.region.A) + "\n")
        f.write(",".join(cols) + "\n")
        for i in range(0, dataset.n, SAVE_ROWS):
            chunk = slice(i, i + SAVE_ROWS)
            values = np.column_stack(
                (dataset.sites[chunk], dataset.responses[chunk])
            ).tolist()
            if labels is not None:
                for v, label in zip(values, labels[chunk]):
                    v.append(label)
            f.write("".join([row % tuple(v) for v in values]))


def _read_rows(rows: list[str], dtype: np.dtype) -> np.ndarray:
    """Parse comma-separated rows into records of dtype in one C-reader pass.

    Every row must have exactly one field per column of dtype.
    """
    return np.loadtxt(rows, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _first_bad_row(path, lines: list[str], rows: list[str], dtype, header, d) -> str:
    """Name the file line of the first row the reader rejects, and why.

    lines are the body lines as read, rows the non-blank ones stripped. The
    reader accepts every prefix of rows that ends before the bad row, so a
    bisection over prefixes finds it.
    """
    good, bad = 0, len(rows)
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            _read_rows(rows[:mid], dtype)
            good = mid
        except ValueError:
            bad = mid
    linenos = [k for k, line in enumerate(lines, start=3) if line.strip()]
    where = f"{path}: line {linenos[bad - 1]}"
    parts = rows[bad - 1].split(",")
    if len(parts) != len(header):
        return f"{where}: expected {len(header)} fields, got {len(parts)}"
    for v in parts[: d + 1]:
        try:
            float(v)  # a blank v would make the reader warn of an empty line
            _read_rows([v], np.dtype(float))
        except ValueError:
            return f"{where}: could not convert string to float: {v!r}"
    return f"{where}: unreadable row"


def load_csv(path) -> SpatialDataset:
    """Read a file written by save_csv.

    Blank and whitespace-only lines are skipped; spaces around a field are
    ignored. A value the reader cannot parse as a float, or a row with the
    wrong number of fields, is a ValueError naming its file line.
    """
    path = Path(path)
    with path.open() as f:
        first = f.readline().strip()
        if not first.startswith("# A="):
            raise ValueError(f"{path}: missing '# A=...' region header on line 1")
        A = tuple(float(v) for v in first[len("# A=") :].split(","))
        header = f.readline().strip().split(",")
        body = f.read()
    d = len(A)
    expected = [f"x{j + 1}" for j in range(d)] + ["y"]
    has_group = header == expected + ["group"]
    if not has_group and header != expected:
        raise ValueError(f"{path}: header {header} does not match region d={d}")
    # text mode turns every line ending into "\n", so these are the file's lines
    lines = body.split("\n")
    rows = [line for line in map(str.strip, lines) if line]
    dtype = np.dtype([("v", float, (d + 1,))] + ([("g", object)] if has_group else []))
    try:
        records = _read_rows(rows, dtype) if rows else np.empty(0, dtype)
    except ValueError:
        raise ValueError(_first_bad_row(path, lines, rows, dtype, header, d)) from None
    values = records["v"]
    return SpatialDataset(
        region=Region(A=A),
        sites=values[:, :d],
        responses=values[:, d],
        group=records["g"].astype(str) if has_group else None,
    )


def save_metadata(path, *, region: Region, n: int, seed, density: SamplingDensity):
    meta = {
        "A": list(region.A),
        "n": int(n),
        "seed": seed,
        "density": {"kind": density.kind, "params": density.params},
        "generator_id": GENERATOR_ID,
    }
    Path(path).write_text(json.dumps(meta, indent=2) + "\n")
