"""Region, sampling densities, dataset container, and CSV round trips."""

import dataclasses
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from spatial_lp import dataset as ds
from spatial_lp import inference, kernels, lpfit


def test_region_basic():
    r = ds.Region(A=(4.0, 8.0))
    assert r.d == 2
    assert r.volume == 32.0
    np.testing.assert_array_equal(r.sides(), [4.0, 8.0])


def test_region_validation():
    with pytest.raises(ValueError):
        ds.Region(A=(1.0, 0.0))


def test_region_contains():
    r = ds.Region(A=(2.0, 2.0))
    inside = r.contains(np.array([[1.0, -1.0], [0.0, 0.0], [1.1, 0.0]]))
    assert list(inside) == [True, True, False]


def test_generate_sites_deterministic():
    r = ds.Region(A=(10.0, 10.0))
    g = ds.SamplingDensity("uniform")
    a = ds.generate_sites(r, g, 50, ds.rep_rng(3, 7))
    b = ds.generate_sites(r, g, 50, ds.rep_rng(3, 7))
    c = ds.generate_sites(r, g, 50, ds.rep_rng(3, 8))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_uniform_sites_pass_ks():
    r = ds.Region(A=(6.0, 3.0))
    sites = ds.generate_sites(r, ds.SamplingDensity("uniform"), 2000, 42)
    for j, A in enumerate(r.A):
        stat = stats.kstest(sites[:, j], stats.uniform(-A / 2, A).cdf)
        assert stat.pvalue > 0.01


def test_product_beta_density():
    g = ds.SamplingDensity(
        "product-beta", {"alpha": [2.0, 5.0], "beta": [2.0, 1.0]}
    )
    r = ds.Region(A=(1.0, 1.0))
    z = ds.generate_sites(r, g, 4000, 0)
    # axis 0 is symmetric Beta(2,2) shifted to [-1/2, 1/2]
    assert abs(z[:, 0].mean()) < 0.02
    # axis 1 is Beta(5,1): mean 5/6 on [0,1] -> 1/3 after shifting
    assert z[:, 1].mean() == pytest.approx(5 / 6 - 0.5, abs=0.02)


def test_custom_grid_density():
    # all mass in the middle two of four cells
    g = ds.SamplingDensity("custom-grid", {"weights": [[0.0, 2.0, 2.0, 0.0]]})
    r = ds.Region(A=(8.0,))
    sites = ds.generate_sites(r, g, 1000, 5)
    z = sites[:, 0] / 8.0
    assert (np.abs(z) <= 0.25 + 1e-12).all()


def test_custom_grid_must_integrate_to_one():
    with pytest.raises(ValueError):
        ds.SamplingDensity("custom-grid", {"weights": [[1.0, 2.0]]})
    with pytest.raises(ValueError):
        ds.SamplingDensity("custom-grid", {"weights": [[-1.0, 3.0]]})


def test_unknown_density_kind():
    with pytest.raises(ValueError):
        ds.SamplingDensity("gaussian")


def test_dataset_validation():
    r = ds.Region(A=(2.0, 2.0))
    with pytest.raises(ValueError):
        ds.SpatialDataset(region=r, sites=[[0.0, 0.0]], responses=[1.0, 2.0])
    with pytest.raises(ValueError):
        ds.SpatialDataset(region=r, sites=[[3.0, 0.0]], responses=[1.0])
    with pytest.raises(ValueError):
        ds.SpatialDataset(region=r, sites=np.empty((0, 2)), responses=[])
    with pytest.raises(ValueError):
        ds.SpatialDataset(region=r, sites=[[0.0, 0.0, 0.0]], responses=[1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_response(bad):
    r = ds.Region(A=(2.0, 2.0))
    sites = [[0.0, 0.0], [0.5, 0.5], [-0.5, 0.5], [0.1, 0.2]]
    with pytest.raises(ValueError, match="row 2 is not finite"):
        ds.SpatialDataset(region=r, sites=sites, responses=[1.0, 2.0, bad, bad])


def test_load_csv_rejects_nan_response(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text("# A=2\nx1,y\n0.0,1.0\n0.5,nan\n")
    with pytest.raises(ValueError, match="row 1 is not finite"):
        ds.load_csv(path)


def test_csv_round_trip_is_exact(tmp_path):
    r = ds.Region(A=(10.0, 5.0))
    rng = np.random.default_rng(1)
    sites = ds.generate_sites(r, ds.SamplingDensity("uniform"), 37, rng)
    y = rng.standard_normal(37)
    data = ds.SpatialDataset(region=r, sites=sites, responses=y)
    path = tmp_path / "data.csv"
    ds.save_csv(data, path)
    back = ds.load_csv(path)
    assert back.region == r
    np.testing.assert_array_equal(back.sites, sites)
    np.testing.assert_array_equal(back.responses, y)
    assert back.group is None


def test_csv_round_trip_with_group(tmp_path):
    r = ds.Region(A=(2.0,))
    data = ds.SpatialDataset(
        region=r,
        sites=[[0.5], [-0.25]],
        responses=[1.0, 2.0],
        group=np.array(["a", "b"]),
    )
    path = tmp_path / "grouped.csv"
    ds.save_csv(data, path)
    back = ds.load_csv(path)
    assert list(back.group) == ["a", "b"]


def test_load_csv_missing_region_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,y\n0.0,1.0\n")
    with pytest.raises(ValueError, match="# A="):
        ds.load_csv(path)


def test_load_csv_reports_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# A=2\nx1,y\n0.0,1.0\n0.5\n")
    with pytest.raises(ValueError, match="line 4"):
        ds.load_csv(path)


def test_load_csv_header_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("# A=2,2\nx1,y\n")
    with pytest.raises(ValueError, match="header"):
        ds.load_csv(path)


def _per_line_parse(path, d):
    """The body of a CSV parsed line by line with float(), blank lines skipped."""
    sites, ys, groups = [], [], []
    with open(path) as f:
        f.readline()
        has_group = f.readline().strip().endswith(",group")
        for line in f:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            sites.append([float(v) for v in parts[:d]])
            ys.append(float(parts[d]))
            if has_group:
                groups.append(parts[d + 1])
    return np.array(sites), np.array(ys), np.array(groups) if has_group else None


_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
_PAD = st.sampled_from(["", " ", "  "])
_EOL = st.sampled_from(["\n", "\r\n"])
_FORMATS = (repr, "{:.6e}".format, "{:g}".format)


@st.composite
def _csv_files(draw, by_hand=None):
    """A dataset file: (lines, line endings, line index of each data row, d).

    By hand, each value is written in one of three formats with spaces around
    it, each line ends in LF or CRLF, and blank or whitespace-only lines sit
    between the rows. Otherwise save_csv writes the file (LF headers, CRLF
    rows).
    """
    d = draw(st.integers(1, 3))
    A = draw(st.lists(st.sampled_from([1.0, 2.5, 10.0]), min_size=d, max_size=d))
    n = draw(st.integers(1, 12))
    sites = np.array([[draw(st.floats(-a / 2, a / 2)) for a in A] for _ in range(n)])
    y = np.array(draw(st.lists(
        st.floats(-1e300, 1e300, allow_nan=False), min_size=n, max_size=n
    )))
    group = None
    if draw(st.booleans()):
        group = np.array(draw(st.lists(
            st.text(alphabet="ab_- 0", max_size=4), min_size=n, max_size=n
        )))
    if by_hand is None:
        by_hand = draw(st.booleans())
    if not by_hand:
        data = ds.SpatialDataset(ds.Region(tuple(A)), sites, y, group=group)
        with tempfile.TemporaryDirectory() as tmp:
            ds.save_csv(data, Path(tmp) / "data.csv")
            text = (Path(tmp) / "data.csv").read_text()
        lines = text.split("\n")[:-1]
        return lines, ["\n", "\n"] + ["\r\n"] * n, list(range(2, n + 2)), d
    cols = [f"x{j + 1}" for j in range(d)] + ["y"] + ([] if group is None else ["group"])
    lines = ["# A=" + ",".join(map(repr, A)), ",".join(cols)]
    rows = []
    for i in range(n):
        lines += draw(st.lists(_BLANK, max_size=2))
        fields = [
            draw(_PAD) + draw(st.sampled_from(_FORMATS))(float(v)) + draw(_PAD)
            for v in (*sites[i], y[i])
        ]
        if group is not None:
            fields.append(group[i])
        rows.append(len(lines))
        lines.append(",".join(fields))
    lines += draw(st.lists(_BLANK, max_size=2))
    eols = draw(st.lists(_EOL, min_size=len(lines), max_size=len(lines)))
    return lines, eols, rows, d


def _written(tmp, lines, eols):
    path = Path(tmp) / "data.csv"
    with open(path, "w", newline="") as f:
        f.write("".join(line + eol for line, eol in zip(lines, eols)))
    return path


@settings(max_examples=150, deadline=None)
@given(_csv_files())
def test_load_csv_equals_a_per_line_float_parse(csv_file):
    """The C reader gives the arrays a per-line float() parse gives, bit for bit.

    Files come from save_csv and by hand: d = 1-3, with and without group,
    blank and whitespace-only lines, CRLF endings, spaces around fields. No
    warning is emitted.
    """
    lines, eols, _, d = csv_file
    with tempfile.TemporaryDirectory() as tmp:
        path = _written(tmp, lines, eols)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ds.load_csv(path)
        sites, ys, groups = _per_line_parse(path, d)
    assert got.sites.dtype == sites.dtype and got.sites.tobytes() == sites.tobytes()
    assert got.responses.tobytes() == ys.tobytes()
    if groups is None:
        assert got.group is None
    else:
        assert got.group.dtype == groups.dtype
        assert got.group.tolist() == groups.tolist()


@settings(max_examples=150, deadline=None)
@given(
    _csv_files(by_hand=True),
    st.sampled_from(["extra", "short", "value"]),
    st.data(),
)
def test_load_csv_names_the_file_line_of_a_bad_row(csv_file, fault, data):
    """A wrong field count or an unparsable value names its line in the file.

    Line numbers count every line, blank ones included. Extra fields are an
    error, and so is 1_000, which float() would read.
    """
    lines, eols, rows, d = csv_file
    k = data.draw(st.sampled_from(rows))
    fields = lines[k].split(",")
    if fault == "extra":
        fields += data.draw(st.sampled_from([["1"], ["1", "2"]]))
    if fault == "short":
        fields = fields[:-1]
    if fault == "value":
        j = data.draw(st.integers(0, d))
        fields[j] = data.draw(st.sampled_from(["x", "1_000", "", " ", "0x10", "1.0.0"]))
    lines = [*lines[:k], ",".join(fields), *lines[k + 1:]]
    named = "could not convert" if fault == "value" else "expected"
    with tempfile.TemporaryDirectory() as tmp:
        path = _written(tmp, lines, eols)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                ds.load_csv(path)
    assert f": line {k + 1}: {named}" in str(exc.value)


def test_save_metadata(tmp_path):
    r = ds.Region(A=(10.0, 10.0))
    path = tmp_path / "meta.json"
    ds.save_metadata(
        path, region=r, n=100, seed=7, density=ds.SamplingDensity("uniform")
    )
    meta = json.loads(path.read_text())
    assert meta["A"] == [10.0, 10.0]
    assert meta["n"] == 100
    assert meta["seed"] == 7
    assert meta["generator_id"] == ds.GENERATOR_ID


def test_dataset_arrays_are_private_read_only_copies():
    rng = np.random.default_rng(3)
    sites = rng.uniform(-5.0, 5.0, (50, 2))
    y = rng.standard_normal(50)
    data = ds.SpatialDataset(region=ds.Region(A=(10.0, 10.0)), sites=sites, responses=y)
    with pytest.raises(ValueError, match="read-only"):
        data.sites[0, 0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        data.responses[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        data.sites = sites
    # the caller keeps a writable array, and its writes do not reach the dataset
    sites[0, 0], y[0] = 4.9, 100.0
    assert data.sites[0, 0] != 4.9 and data.responses[0] != 100.0


def test_sorted_copies_are_built_once_per_dataset(monkeypatch):
    built = []

    class CountingSortedSites(ds.SortedSites):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(ds, "SortedSites", CountingSortedSites)
    rng = np.random.default_rng(4)
    data = ds.SpatialDataset(
        region=ds.Region(A=(10.0, 10.0)),
        sites=rng.uniform(-5.0, 5.0, (300, 2)),
        responses=rng.standard_normal(300),
    )
    assert built == []
    kern = kernels.KernelSpec("product-triangular", d=2)
    config = lpfit.FitConfig(p=1, kernel=kern, h=(0.3, 0.3))
    z = np.array([0.1, -0.1])
    lpfit.fit_at(data, config, z)
    lpfit.fit_many(data, config, np.array([z, -z]))
    inference.variance_hat(data, config, kernels.TaperSpec(widths=(2.0, 2.0)), z)
    assert len(built) == 1
    srt = data.by_first_axis
    assert np.all(np.diff(srt.columns[0]) >= 0.0)
    assert sorted(srt.order.tolist()) == list(range(data.n))
    for j in range(2):
        np.testing.assert_array_equal(srt.columns[j], data.sites[srt.order, j])
    np.testing.assert_array_equal(srt.responses, data.responses[srt.order])
