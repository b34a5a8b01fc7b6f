"""Local polynomial fitting: exactness, bias and variance plug-ins."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spatial_lp import basis, kernels, lpfit
from spatial_lp.dataset import Region, SpatialDataset


def _config(d, p, h, pilot_h=None, family="product-triangular"):
    return lpfit.FitConfig(
        p=p,
        kernel=kernels.KernelSpec(family=family, d=d),
        h=(h,) * d,
        pilot_h=(pilot_h,) * d if pilot_h is not None else None,
    )


def _uniform_dataset(d, n, seed, responses=None, A=10.0):
    region = Region(A=(A,) * d)
    rng = np.random.default_rng(seed)
    sites = rng.uniform(-A / 2, A / 2, (n, d))
    y = np.zeros(n) if responses is None else responses(sites / A)
    return SpatialDataset(region=region, sites=sites, responses=y)


def _poly_mean(layout, coeffs, z0):
    """Polynomial in rescaled coordinates with Taylor coefficients at z0."""

    def mean(u):
        u = np.atleast_2d(u)
        t = u - np.asarray(z0)
        out = np.zeros(u.shape[0])
        for k, idx in enumerate(layout.indices):
            term = np.full(u.shape[0], coeffs[k])
            for j in idx:
                term = term * t[:, j - 1]
            out += term
        return out

    return mean


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_polynomial_recovery_is_exact(d, p):
    """A degree-p trend is reproduced exactly from noiseless data."""
    layout = basis.build_layout(d, p)
    rng = np.random.default_rng(100 * d + p)
    coeffs = rng.uniform(-2, 2, layout.D)
    z0 = (0.1,) * d
    data = _uniform_dataset(d, 600, 17 + d + p, _poly_mean(layout, coeffs, z0))
    fit = lpfit.fit_at(data, _config(d, p, 0.3), z0)
    np.testing.assert_allclose(fit.beta_hat, coeffs, atol=1e-9)
    # derivative(idx) = s! * beta_k
    for k, idx in enumerate(layout.indices):
        assert fit.derivative(idx) == pytest.approx(
            basis.s_factorial(idx) * coeffs[k], abs=1e-8
        )


def test_quadratic_bias_plug_in():
    """m(u) = u1^2 + u2^2, p = 1, h = 0.2, triangular kernel.

    The order-2 pilot recovers the curvature exactly, so the intercept
    bias is (kappa_2/2)(m_11 + m_22) h^2 = (1/12)(2 + 2)(0.04) = 1/75.
    """
    data = _uniform_dataset(
        2, 800, 23, lambda u: u[:, 0] ** 2 + u[:, 1] ** 2
    )
    config = _config(2, 1, 0.2, pilot_h=0.3)
    bias = lpfit.estimate_bias(data, config, (0.0, 0.0))
    assert bias[0] == pytest.approx(1 / 75, abs=1e-9)
    # odd components vanish for the symmetric kernel
    assert bias[1] == pytest.approx(0.0, abs=1e-9)
    assert bias[2] == pytest.approx(0.0, abs=1e-9)


def test_derivative_bias_scaling():
    config = _config(2, 1, 0.2)
    vec = np.array([0.5, 0.02, -0.04])
    assert lpfit.derivative_bias(config, (), vec) == pytest.approx(0.5)
    assert lpfit.derivative_bias(config, (1,), vec) == pytest.approx(0.02 / 0.2)
    assert lpfit.derivative_bias(config, (2,), vec) == pytest.approx(-0.04 / 0.2)


def test_cubic_bias_with_mixed_terms_and_unequal_bandwidths():
    """A noiseless cubic with every third-order monomial, p = 2, d = 2.

    The order-3 pilot recovers each top-order coefficient c_t exactly, so
    the bias vector is S^{-1} B M with M_t = c_t prod_l h_{j_l} at the fit
    bandwidths (not the pilot's). With p = 2 the mixed indices (1, 1, 2)
    and (1, 2, 2) reach the first-order rows of B, so a wrong s! or a
    swapped bandwidth on them moves the result.
    """
    top = {(1, 1, 1): 1.5, (1, 1, 2): -2.0, (1, 2, 2): 3.0, (2, 2, 2): -1.0}

    def mean(u):
        lower = 0.4 + 0.3 * u[:, 0] - 0.2 * u[:, 1] + u[:, 0] * u[:, 1]
        return lower + sum(c * np.prod(u[:, np.array(t) - 1], axis=1)
                           for t, c in top.items())

    data = _uniform_dataset(2, 2000, 31, mean)
    h = (0.2, 0.3)
    config = lpfit.FitConfig(
        p=2, kernel=kernels.KernelSpec(family="product-triangular", d=2),
        h=h, pilot_h=(0.3, 0.35),
    )
    z = (0.05, -0.1)
    tops = config.layout().top_indices
    M = np.array([top[t] * np.prod([h[j - 1] for j in t]) for t in tops])
    mom = config.moments()
    assert mom.B[1, tops.index((1, 2, 2))] and mom.B[2, tops.index((1, 1, 2))]
    expected = np.linalg.solve(mom.S, mom.B @ M)
    got = lpfit.estimate_bias(data, config, z)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)


def test_fit_mean_at_is_intercept():
    data = _uniform_dataset(2, 400, 3, lambda u: 1.0 + u[:, 0])
    config = _config(2, 1, 0.3)
    z = (0.2, -0.1)
    assert lpfit.fit_at(data, config, z).beta_hat[0] == pytest.approx(1.2, abs=1e-10)


def test_no_local_data():
    data = _uniform_dataset(2, 20, 5)
    with pytest.raises(lpfit.NoLocalData):
        lpfit.fit_at(data, _config(2, 1, 0.01), (0.0, 0.0))


def test_rank_deficient_on_coincident_sites():
    region = Region(A=(10.0, 10.0))
    data = SpatialDataset(
        region=region, sites=np.zeros((8, 2)), responses=np.arange(8.0)
    )
    with pytest.raises(lpfit.RankDeficient):
        lpfit.fit_at(data, _config(2, 1, 0.3), (0.0, 0.0))


def test_evaluation_point_must_be_interior():
    data = _uniform_dataset(2, 100, 6)
    config = _config(2, 1, 0.2)
    with pytest.raises(ValueError):
        lpfit.fit_at(data, config, (0.5, 0.0))
    with pytest.raises(ValueError):
        lpfit.fit_at(data, config, (0.0, -0.7))
    with pytest.raises(ValueError):
        lpfit.fit_at(data, config, (0.0,))


def test_boundary_flag():
    data = _uniform_dataset(2, 500, 7)
    config = _config(2, 1, 0.2)
    assert not lpfit.fit_at(data, config, (0.0, 0.0)).boundary_flag
    assert lpfit.fit_at(data, config, (0.4, 0.0)).boundary_flag


def test_config_validation():
    kern = kernels.KernelSpec(family="product-triangular", d=2)
    with pytest.raises(ValueError):
        lpfit.FitConfig(p=1, kernel=kern, h=(0.2, -0.1))
    with pytest.raises(ValueError):
        lpfit.FitConfig(p=1, kernel=kern, h=(0.2,))


def test_pilot_config():
    config = _config(2, 1, 0.2, pilot_h=0.25)
    pilot = config.pilot()
    assert pilot.p == 2
    assert pilot.h == (0.25, 0.25)
    assert pilot.pilot_h is None


def test_derivative_variance_closed_form():
    """W s!^2 [S^{-1} Kcal S^{-1}]_kk / (A_n h_1 h_2 prod_l h_{j_l}^2).

    Anisotropic bandwidths and indices of order 0, 1 and 2 pin the s!^2
    and prod_l h_{j_l}^2 scale as well as the sandwich entry.
    """
    h = (0.2, 0.3)
    config = lpfit.FitConfig(
        p=2, kernel=kernels.KernelSpec(family="product-triangular", d=2), h=h
    )
    layout, mom = config.layout(), config.moments()
    Sinv = np.linalg.inv(mom.S)
    sks = Sinv @ mom.Kcal @ Sinv
    W, An = 0.5, 100.0
    # index: (s!, prod_l h_{j_l})
    cases = {(): (1, 1.0), (2,): (1, 0.3), (1, 1): (2, 0.2 * 0.2), (1, 2): (1, 0.2 * 0.3)}
    for idx, (s_fact, h_prod) in cases.items():
        k = layout.position(idx)
        want = W * s_fact**2 * sks[k, k] / (An * 0.2 * 0.3 * h_prod**2)
        got = lpfit.derivative_variance(config, idx, W, An)
        assert got == pytest.approx(want, rel=1e-12), idx


GRID_FAULT_PROBE = """
import resource
import numpy as np
from spatial_lp import kernels, lpfit
from spatial_lp.dataset import Region, SpatialDataset
rng = np.random.default_rng(5)
sites = (rng.random((16000, 2)) - 0.5) * 40.0
data = SpatialDataset(Region(A=(40.0, 40.0)), sites, rng.standard_normal(16000))
config = lpfit.FitConfig(
    p=2, kernel=kernels.KernelSpec("product-triangular", 1.0, 2),
    h=(0.2, 0.2), pilot_h=(0.25, 0.25),
)
axis = np.linspace(-0.3, 0.3, 21)
grid = [np.array([a, b]) for a in axis for b in axis]
def fit(points):
    for z in points:
        lpfit.fit_at(data, config, z)
        lpfit.estimate_bias(data, config, z)
fit(grid[:21])
faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
fit(grid)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0) / len(grid))
"""


def test_one_row_fits_make_few_page_faults():
    """One-row fits and pilots over a 21 x 21 grid at n = 16 000 reuse heap memory.

    Runs in a fresh interpreter with the allocator's default settings. Each
    box holds a different number of sites, so each fit allocates a different
    size; with every such temporary mapped and unmapped (a fixed mmap
    threshold of 128 KiB) a grid point makes about 210 minor faults.
    """
    src = str(Path(lpfit.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", GRID_FAULT_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=600,
    )
    assert float(out.stdout) <= 20.0


# --- batched fits: properties at random (d, p, Z) ---------------------------

PROPERTY = settings(max_examples=30, deadline=None)
# largest relative gap of order-3 multi-row fits from their single fits
ORDER_3_BOUND = 1e-11


@st.composite
def _batches(draw, lo=-0.3, hi=0.3, orders=(1, 2)):
    d = draw(st.integers(1, 3))
    p = draw(st.sampled_from(orders))
    m = draw(st.integers(1, 7))
    coord = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
    Z = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                               min_size=m, max_size=m)))
    return d, p, Z, draw(st.integers(0, 2**32 - 1))


def _rel_err(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _gemm_columns(config):
    """Columns of a block's moment GEMM: the monomials to order 2p, then Y times those to p."""
    return basis.build_layout(config.d, 2 * config.p).D + config.layout().D


def _fit_many_by_block(data, config, Z, budget):
    """fit_many under a BLOCK_MNK of budget, and each block's (rows, candidate slice)."""
    blocks = []
    block_moments = lpfit._block_moments

    def recording_block_moments(dataset, config, Zb, pos, scratch):
        blocks.append((Zb.copy(), pos))
        return block_moments(dataset, config, Zb, pos, scratch)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lpfit, "BLOCK_MNK", budget)
        mp.setattr(lpfit, "_block_moments", recording_block_moments)
        beta, n_eff = lpfit.fit_many(data, config, Z)
    return beta, n_eff, blocks


def _assert_equals_stacked_single_fits(batch, block_rows, bound):
    d, p, Z, seed = batch
    rng = np.random.default_rng(seed)
    data = _uniform_dataset(d, 400, seed, lambda u: rng.standard_normal(len(u)))
    config = _config(d, p, 0.3)
    budget = block_rows * data.n * _gemm_columns(config)
    beta, n_eff, blocks = _fit_many_by_block(data, config, Z, budget)
    m = len(Z)
    if m == 1:
        assert blocks == []
    else:
        # the blocks take every row once, in order of first coordinate, each
        # one row or a GEMM within the budget
        by_x1 = Z[np.argsort(Z[:, 0], kind="stable")]
        assert np.concatenate([Zb for Zb, _ in blocks]).tobytes() == by_x1.tobytes()
        for Zb, pos in blocks:
            gemm = len(Zb) * (pos.stop - pos.start) * _gemm_columns(config)
            assert len(Zb) == 1 or gemm <= budget
    single = [lpfit.fit_at(data, config, z) for z in Z]
    assert _rel_err(beta, np.stack([f.beta_hat for f in single])) <= bound
    assert n_eff.tolist() == [f.n_eff for f in single]


@PROPERTY
@given(_batches(), st.integers(1, 4))
def test_fit_many_equals_stacked_single_fits(batch, block_rows):
    _assert_equals_stacked_single_fits(batch, block_rows, 1e-12)


@PROPERTY
@given(_batches(orders=(3,)), st.integers(1, 4))
def test_order_3_fit_many_equals_stacked_single_fits(batch, block_rows):
    """The moments reach order 6 and their shift to each row loses more digits."""
    _assert_equals_stacked_single_fits(batch, block_rows, ORDER_3_BOUND)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_no_block_gemm_passes_the_budget(d, p):
    """Every block's moment GEMM, rows x L x (D_2p + D), is at most BLOCK_MNK
    multiply-adds, which OpenBLAS runs on the calling thread."""
    assert lpfit.BLOCK_MNK <= 65536 * 4
    rng = np.random.default_rng(10 * d + p)
    data = _uniform_dataset(d, 2000, 10 * d + p, lambda u: rng.standard_normal(len(u)))
    config = _config(d, p, 0.3)
    Z = rng.uniform(-0.2, 0.2, (60, d))
    _, _, blocks = _fit_many_by_block(data, config, Z, lpfit.BLOCK_MNK)
    assert len(blocks) > 1 and sum(len(Zb) for Zb, _ in blocks) == len(Z)
    for Zb, pos in blocks:
        assert len(Zb) * (pos.stop - pos.start) * _gemm_columns(config) <= lpfit.BLOCK_MNK


@st.composite
def _strips(draw):
    """(lo, hi) of sorted sites on a coarse grid, so ties are common, and
    sorted centres whose reach may leave gaps between strips, or empty strips;
    with same, the tapered sum's triangle cut."""
    grid = st.integers(0, 40).map(lambda k: k / 4.0)
    x = np.sort(draw(st.lists(grid, max_size=60)))
    same = draw(st.booleans())
    centres = x if same else np.sort(draw(st.lists(grid, max_size=40)))
    lo, hi = lpfit.strips(x, centres, draw(st.sampled_from([0.0, 0.3, 1.0, 3.0, 20.0])))
    if same:
        lo = np.maximum(lo, np.arange(len(lo)))
    return lo, hi


@settings(max_examples=300, deadline=None)
@given(_strips(), st.integers(1, 400))
def test_row_blocks_cut_each_run_at_the_pair_budget(strips, pairs):
    lo, hi = strips
    blocks = list(lpfit.row_blocks(lo, hi, pairs))
    rows = [r for r0, r1, _, _ in blocks for r in range(r0, r1)]
    assert rows == list(range(len(lo)))
    for k, (r0, r1, c0, c1) in enumerate(blocks):
        assert r1 > r0 and (c0, c1) == (lo[r0], hi[r1 - 1])
        assert r1 - r0 == 1 or (r1 - r0) * (c1 - c0) <= pairs
        if k + 1 < len(blocks):
            # one more row would pass the budget
            assert (r1 - r0 + 1) * (hi[r1] - lo[r0]) > pairs


@st.composite
def _edge_windows(draw):
    d = draw(st.integers(1, 3))
    family = draw(st.sampled_from(kernels.FAMILIES))
    C = draw(st.sampled_from([0.5, 1.0, 1.5]))
    A = tuple(draw(st.floats(2.0, 20.0)) for _ in range(d))
    h = tuple(draw(st.floats(0.05, 0.3)) for _ in range(d))
    # rows near the region edge on some axes, anywhere on others
    coord = st.one_of(
        st.floats(-0.499, -0.4), st.floats(0.4, 0.499), st.floats(-0.4, 0.4)
    )
    m = draw(st.integers(1, 6))
    Z = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d),
                               min_size=m, max_size=m)))
    return kernels.KernelSpec(family, C, d), A, h, Z, draw(st.integers(0, 2**32 - 1))


def _last_inside(c, a, C, sign):
    """The outermost double x on side sign of c with |((x - c) / a) / C| <= 1.

    Bisects between c (inside) and c + 2 sign a C (outside): the test is
    monotone in x, and halving ends in at most ~1100 steps even when the
    boundary is 0 and the doubles next to it are subnormal.
    """
    c, a, C = float(c), float(a), float(C)
    inside, outside = c, c + sign * 2.0 * a * C
    while True:
        mid = inside + (outside - inside) / 2.0
        if mid == inside or mid == outside:
            return inside
        if abs(((mid - c) / a) / C) <= 1.0:
            inside = mid
        else:
            outside = mid


@settings(max_examples=100, deadline=None)
@given(_edge_windows())
def test_window_weights_equal_the_dense_kernel(case):
    """The engine's positive (row, site) set and its weights equal a dense pass.

    Besides uniform sites, every row gets sites at exactly A z +- A h C on each
    axis and at two corners of its window, where the uniform kernel is still
    positive, and the outermost sites that rounding leaves inside the uniform
    kernel's support. Weights are compared bitwise.
    """
    kern, A, h, Z, seed = case
    d = kern.d
    Av, hv, C = np.asarray(A), np.asarray(h), kern.support_halfwidth
    region = Region(A=A)
    edges = []
    for z in Z:
        c = Av * z
        for j in range(d):
            for sign in (-1.0, 1.0):
                for xj in (c[j] + sign * Av[j] * hv[j] * C,
                           _last_inside(c[j], Av[j] * hv[j], C, sign)):
                    x = c.copy()
                    x[j] = xj
                    edges.append(x)
        edges += [c + Av * hv * C, c - Av * hv * C]
    edges = np.array(edges)
    rng = np.random.default_rng(seed)
    sites = np.vstack(
        [rng.uniform(-Av / 2, Av / 2, (300, d)), edges[region.contains(edges)]]
    )
    data = SpatialDataset(region=region, sites=sites, responses=np.zeros(len(sites)))

    order = data.by_first_axis.order
    # several rows: blocks in order of first coordinate, each weighing the
    # union of its rows' first-axis strips
    by_x1 = np.argsort(Z[:, 0], kind="stable")
    blocks = {}
    config = lpfit.FitConfig(p=1, kernel=kern, h=h)
    lo, hi = lpfit.strips(
        data.by_first_axis.columns[0], Av[0] * Z[by_x1, 0], lpfit._reach(data, kern, h)[0]
    )
    pairs = lpfit.BLOCK_MNK // lpfit._moment_columns(config)
    for r0, r1, c0, c1 in lpfit.row_blocks(lo, hi, pairs):
        rows, pos = slice(r0, r1), slice(c0, c1)
        W = lpfit._weigh(data, kern, h, Z[by_x1[rows]], pos)
        for r, w_r in zip(by_x1[rows], W):
            blocks[r] = (order[pos], w_r)
    assert sorted(blocks) == list(range(len(Z)))
    for r, z in enumerate(Z):
        dense = 1.0
        for j in range(d):
            u = (data.sites[:, j] - Av[j] * z[j]) / (Av[j] * hv[j])
            dense = dense * kernels.eval_kernel_axis(kern, u)
        expected = np.flatnonzero(dense > 0.0)
        block_rows, w_r = blocks[r]
        k = np.flatnonzero(w_r > 0.0)
        # one row: its box, as fit_at, the pilot and window take it
        box = lpfit._box(data, kern, h, z)
        assert (np.diff(box) > 0).all()
        w_box = lpfit._weigh(data, kern, h, z[None], box)[0]
        kb = np.flatnonzero(w_box > 0.0)
        rows, w = lpfit.window(data, kern, h, z)
        assert (np.diff(data.sites[rows, 0]) >= 0.0).all()
        for got_rows, got_w in (
            (block_rows[k], w_r[k]),
            (order[box[kb]], w_box[kb]),
            (rows, w),
        ):
            by_row = np.argsort(got_rows)
            assert got_rows[by_row].tolist() == expected.tolist()
            assert got_w[by_row].tobytes() == dense[expected].tobytes()


def test_one_row_fit_scans_exactly_its_padded_box(monkeypatch):
    """fit_at weighs the sites with |X_ij - A_j z_j| <= A_j (h_j C + STRIP_PAD)
    on every axis, and no other site.

    Besides uniform sites, sites sit exactly on each face of the padded box
    and one double outside it. The kernel pass is recorded: per axis, the
    arguments (X_ij - A_j z_j) / (A_j h_j) of the sites it scans.
    """
    d, A = 3, 10.0
    config = _config(d, 1, 0.15)
    z = np.array([0.1, -0.2, 0.05])
    Av = np.full(d, A)
    c = Av * z
    reach = Av * (np.asarray(config.h) * config.kernel.support_halfwidth + lpfit.STRIP_PAD)
    rng = np.random.default_rng(12)
    faces = []
    for j in range(d):
        for sign in (-1.0, 1.0):
            on = c + rng.uniform(-0.5, 0.5, d) * reach
            on[j] = (c + sign * reach)[j]
            off = on.copy()
            off[j] = np.nextafter(on[j], sign * np.inf)
            faces += [on, off]
    sites = np.vstack([rng.uniform(-A / 2, A / 2, (4000, d)), faces])
    data = SpatialDataset(
        region=Region(A=(A,) * d), sites=sites, responses=rng.standard_normal(len(sites))
    )
    scanned = []
    eval_axis = kernels.eval_kernel_axis

    def recording_eval_axis(kernel, u, out=None):
        scanned.append(u.copy())
        return eval_axis(kernel, u, out=out)

    monkeypatch.setattr(kernels, "eval_kernel_axis", recording_eval_axis)
    lpfit.fit_at(data, config, z)
    inside = ((sites >= c - reach) & (sites <= c + reach)).all(axis=1)
    n_box = int(inside.sum())
    assert 0 < n_box < len(sites)
    expected = (sites[inside] - c) / (Av * np.asarray(config.h))
    assert [u.shape for u in scanned] == [(1, n_box)] * d
    got = np.column_stack([u[0] for u in scanned])
    assert sorted(map(tuple, got)) == sorted(map(tuple, expected))


@PROPERTY
@given(_batches())
def test_fit_many_reproduces_polynomials(batch):
    d, p, Z, seed = batch
    layout = basis.build_layout(d, p)
    coeffs = np.random.default_rng(seed).uniform(-2, 2, layout.D)
    mean = _poly_mean(layout, coeffs, Z[0])
    data = _uniform_dataset(d, 400, seed, mean)
    beta, _ = lpfit.fit_many(data, _config(d, p, 0.3), Z)
    np.testing.assert_allclose(beta[0], coeffs, atol=1e-9)
    np.testing.assert_allclose(beta[:, 0], mean(Z), atol=1e-9)


@PROPERTY
@given(_batches())
def test_fit_many_invariant_under_site_permutation(batch):
    d, p, Z, seed = batch
    rng = np.random.default_rng(seed)
    data = _uniform_dataset(d, 400, seed, lambda u: rng.standard_normal(len(u)))
    perm = rng.permutation(data.n)
    shuffled = SpatialDataset(
        region=data.region, sites=data.sites[perm], responses=data.responses[perm]
    )
    config = _config(d, p, 0.3)
    beta, n_eff = lpfit.fit_many(data, config, Z)
    beta_s, n_eff_s = lpfit.fit_many(shuffled, config, Z)
    assert _rel_err(beta_s, beta) <= 1e-12
    assert n_eff_s.tolist() == n_eff.tolist()


@PROPERTY
@given(_batches(lo=-0.4, hi=-0.3), st.booleans(), st.integers(0, 7))
def test_degenerate_row_raises_as_its_single_fit(batch, coincident, where):
    """Sites fill x1 < 0, plus D coincident sites at 0.4 A on every axis.

    A row at the cluster is rank deficient, a row elsewhere in x1 > 0 has
    no local data; the batch raises what the single fit of that row raises.
    """
    d, p, Z, seed = batch
    layout = basis.build_layout(d, p)
    A = 10.0
    rng = np.random.default_rng(seed)
    left = rng.uniform(-A / 2, A / 2, (2000, d))
    left[:, 0] = -np.abs(left[:, 0])
    cluster = np.full((layout.D, d), 0.4 * A)
    sites = np.vstack([left, cluster])
    data = SpatialDataset(
        region=Region(A=(A,) * d), sites=sites, responses=rng.standard_normal(len(sites))
    )
    bad = np.full(d, 0.4) if coincident else np.full(d, 0.2)
    config = _config(d, p, 0.15)
    with pytest.raises(lpfit.FitError) as single:
        lpfit.fit_at(data, config, bad)
    expected = lpfit.RankDeficient if coincident else lpfit.NoLocalData
    assert type(single.value) is expected
    Z = np.insert(Z, min(where, len(Z)), bad, axis=0)
    with pytest.raises(expected):
        lpfit.fit_many(data, config, Z)


def test_short_row_raises_before_any_solve(monkeypatch):
    """NoLocalData for a short row in a later block wins over a singular row in
    an earlier one: every block is built before the one solve."""
    rng = np.random.default_rng(4)
    A = 10.0
    left = rng.uniform(-A / 2, A / 2, (2000, 2))
    left[:, 0] = -np.abs(left[:, 0])
    cluster = np.full((3, 2), 0.4 * A)
    sites = np.vstack([left, cluster])
    data = SpatialDataset(
        region=Region(A=(A, A)), sites=sites, responses=rng.standard_normal(len(sites))
    )
    config = _config(2, 1, 0.15)
    solves = []
    solve_stack = lpfit._solve_stack

    def recording_solve_stack(XWX, XWY, *cleared):
        solves.append(len(XWX))
        return solve_stack(XWX, XWY, *cleared)

    monkeypatch.setattr(lpfit, "_solve_stack", recording_solve_stack)
    monkeypatch.setattr(lpfit, "BLOCK_MNK", 1)
    Z = np.array([[-0.3, 0.0], [0.4, 0.4], [-0.2, 0.1], [0.2, 0.2]])
    with pytest.raises(lpfit.NoLocalData, match=r"at z=\[0.2 0.2\], need >= 3"):
        lpfit.fit_many(data, config, Z)
    assert solves == []


def test_singular_row_alone_is_rebuilt_before_it_raises(monkeypatch):
    """D coincident sites make one window of a batch exactly singular.

    The certificate's batched inverse fails on that row; the other rows are
    still cleared one at a time, so only the singular row is rebuilt over its
    box before it raises RankDeficient, as its single fit does.
    """
    rng = np.random.default_rng(3)
    A = 10.0
    left = rng.uniform(-A / 2, A / 2, (2000, 2))
    left[:, 0] = -np.abs(left[:, 0])
    sites = np.vstack([left, np.full((3, 2), 0.4 * A)])
    data = SpatialDataset(
        region=Region(A=(A, A)), sites=sites, responses=rng.standard_normal(len(sites))
    )
    config = _config(2, 1, 0.15)
    Z = np.vstack([rng.uniform(-0.4, -0.2, (40, 2)), [[0.4, 0.4]]])
    rebuilt = []
    fit_box = lpfit._fit_box

    def recording_fit_box(dataset, config, z):
        rebuilt.append(z.tolist())
        return fit_box(dataset, config, z)

    monkeypatch.setattr(lpfit, "_fit_box", recording_fit_box)
    with pytest.raises(lpfit.RankDeficient):
        lpfit.fit_many(data, config, Z)
    assert rebuilt == [[0.4, 0.4]]


def test_ill_conditioned_row_alone_takes_the_ridge_rescue(monkeypatch):
    """Sites on a line (jitter 1e-7) make a window full rank but over COND_LIMIT.

    Only that row of the batch is solved with the ridge
    RIDGE_SCALE * trace(X'WX) on its diagonal, every other row without one,
    and every row matches its single fit: the ridge row bit for bit.
    """
    rng = np.random.default_rng(8)
    A = 10.0
    left = np.column_stack(
        [rng.uniform(-A / 2, 0.0, 400), rng.uniform(-A / 2, A / 2, 400)]
    )
    line = np.column_stack(
        [rng.uniform(0.2 * A, 0.45 * A, 60), A * (0.3 + 1e-7 * rng.standard_normal(60))]
    )
    sites = np.vstack([left, line])
    data = SpatialDataset(
        region=Region(A=(A, A)), sites=sites, responses=rng.standard_normal(len(sites))
    )
    config = _config(2, 1, 0.1)
    Z = np.array([[-0.3, 0.0], [0.33, 0.3], [-0.25, 0.1]])
    single = np.stack([lpfit.fit_at(data, config, z).beta_hat for z in Z])

    systems = []
    solve_stack = lpfit._solve_stack

    def recording_solve_stack(XWX, XWY, *cleared):
        systems.append((XWX.copy(), XWY.copy()))
        return solve_stack(XWX, XWY, *cleared)

    monkeypatch.setattr(lpfit, "_solve_stack", recording_solve_stack)
    beta, _ = lpfit.fit_many(data, config, Z)
    [(XWX, XWY)] = systems
    cond = np.linalg.cond(XWX)
    ill = cond > lpfit.COND_LIMIT
    assert ill.tolist() == [False, True, False]
    assert cond[1] < 1.0 / np.finfo(float).eps
    for r in range(len(Z)):
        ridge = lpfit.RIDGE_SCALE * np.trace(XWX[r]) if ill[r] else 0.0
        expected = np.linalg.solve(XWX[r] + ridge * np.eye(3), XWY[r])
        assert _rel_err(beta[r], expected) <= 1e-12
    assert _rel_err(beta, single) <= 1e-12
    # the ill row's system is rebuilt over its box, as its single fit builds it
    assert beta[1].tobytes() == single[1].tobytes()


def _svd_rule(XWX, XWY):
    """The solve rule with no certificate: the SVD condition of every row decides."""
    cond = np.linalg.cond(XWX)
    singular = ~(cond <= 1.0 / np.finfo(float).eps)
    if singular.any():
        c = cond[singular.argmax()]
        raise lpfit.RankDeficient(f"normal equations numerically singular (cond {c:.3g})")
    ill = cond > lpfit.COND_LIMIT
    if ill.any():
        tr = np.trace(XWX[ill], axis1=1, axis2=2)
        XWX[ill] += lpfit.RIDGE_SCALE * tr[:, None, None] * np.eye(XWX.shape[1])
    return np.linalg.solve(XWX, XWY[..., None])[..., 0]


# condition numbers placed just either side of the two decision limits
_EDGES = {
    "limit-": lpfit.COND_LIMIT * (1 - 1e-3),
    "limit+": lpfit.COND_LIMIT * (1 + 1e-3),
    "eps-": (1 - 1e-3) / np.finfo(float).eps,
    "eps+": (1 + 1e-3) / np.finfo(float).eps,
}


@st.composite
def _normal_stacks(draw):
    """A block of D x D systems Q diag(s) Q' with their right-hand sides.

    Each row is one of: singular values spread over 1e0-1e17, a condition
    just under or over COND_LIMIT or 1/eps, a NaN entry, or an exactly
    singular matrix (a zero row and column).
    """
    D = draw(st.sampled_from([3, 6, 10]))
    kinds = draw(st.lists(
        st.sampled_from(["spread", "spread", *_EDGES, "nan", "singular"]),
        min_size=1, max_size=8,
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        Q = np.linalg.qr(rng.standard_normal((D, D)))[0]
        if kind in _EDGES:
            s = 10.0 ** rng.uniform(0.0, 5.0) * np.geomspace(1.0, _EDGES[kind], D)
        else:
            s = 10.0 ** rng.uniform(0.0, 17.0, D)
        A = (Q * rng.permutation(s)) @ Q.T
        if kind == "nan":
            A[rng.integers(D), rng.integers(D)] = np.nan
        if kind == "singular":
            k = rng.integers(D)
            A[k, :] = A[:, k] = 0.0
        rows.append(A)
    return np.array(rows), rng.standard_normal((len(rows), D))


@settings(max_examples=300, deadline=None)
@given(_normal_stacks())
def test_condition_certificate_never_changes_a_decision(stack):
    """_solve_stack ridges, raises and solves exactly as the SVD rule does.

    Rows that the Frobenius certificate clears skip the SVD; any other row
    sends its block through it. The ridge goes into X'WX in place, so equal
    matrices afterwards mean equal ridge decisions.
    """
    XWX, XWY = stack
    ref_A, got_A = XWX.copy(), XWX.copy()
    # a NaN row makes the SVD itself fail with LinAlgError
    failures = (lpfit.RankDeficient, np.linalg.LinAlgError)
    try:
        ref = _svd_rule(ref_A, XWY.copy())
    except failures as exc:
        ref = repr(exc)
    try:
        got = lpfit._solve_stack(got_A, XWY.copy())
    except failures as exc:
        got = repr(exc)
    if isinstance(ref, str):
        assert got == ref
        return
    assert not isinstance(got, str)
    assert got_A.tobytes() == ref_A.tobytes()
    assert got.tobytes() == ref.tobytes()


def test_well_conditioned_block_skips_the_svd(monkeypatch):
    """A block of ordinary windows is solved without np.linalg.cond."""
    conds = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(1) or cond(a))
    data = _uniform_dataset(2, 800, 3, responses=lambda z: z[:, 0])
    Z = np.array([[-0.2, 0.1], [0.0, 0.0], [0.25, -0.3]])
    lpfit.fit_many(data, _config(2, 2, 0.25), Z)
    assert conds == []
    XWX = np.array([np.eye(3), np.diag([1.0, 1.0, 1e-13])])
    lpfit._solve_stack(XWX, np.ones((2, 3)))
    assert conds == [1]
