"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criterion 1 runs the three bundled benchmark configurations through the
`mc` command. It checks coverage and mean of T = N / sqrt(var0) in every
case, and Var(T) in case (i), against reference bands. It then rebuilds
each replication from its seed and ties it to the recorded t_hat through
the oracle in _oracles. Last, it gates the Monte Carlo means of N^2 and
var0 against the oracle's exact conditional moments, within 4 Monte Carlo
SE. Var(T) and the trend-misfit share of E[var0 | X] are printed for each
case but not gated; the README explains why the former [1.1, 1.9] band
for cases (ii) and (iii) is not asserted.

Criteria 2-6 are self-contained numerical checks. Criterion 7 is
informative only and never fails the suite.
"""

import csv
import json
import math
from importlib import resources

import numpy as np
import pytest

from spatial_lp import basis, cli, inference, kernels, lpfit, mc, randfield
from spatial_lp.dataset import (
    Region,
    SamplingDensity,
    SpatialDataset,
    generate_sites,
    rep_rng,
)

from _oracles import InterceptOracle, quad_moment_matrices

KERN2 = kernels.KernelSpec(family="product-triangular", d=2)
UNIFORM = SamplingDensity("uniform")


def _report(num: int, checks: list[tuple[str, bool]], gating: bool = True, notes=()):
    ok = all(good for _, good in checks)
    status = "PASS" if ok else "FAIL"
    suffix = "" if gating else " (informative, non-gating)"
    print(f"ACCEPTANCE {num}: {status}{suffix}")
    for name, good in checks:
        print(f"    {'ok  ' if good else 'FAIL'} {name}")
    for note in notes:
        print(f"    info {note}")
    if gating:
        failed = [name for name, good in checks if not good]
        assert ok, f"criterion {num} failed: " + "; ".join(failed)


# --- 1: benchmark coverage study ------------------------------------------


def _oracle_replications(spec: mc.ExperimentSpec, t_hat: dict) -> dict:
    """Rebuild each replication and pair its N, var0 with the oracle moments.

    N comes from the package's fit and bias on the rebuilt data and var0
    from the recorded t_hat = N / sqrt(var0); the oracle's own t ties the
    rebuild to the recorded run.
    """
    oracle = InterceptOracle(spec)
    region = spec.region()
    config = lpfit.FitConfig(
        p=spec.p, kernel=spec.kernel(), h=spec.fit_h, pilot_h=spec.pilot_h
    )
    zpt = np.asarray(spec.z)
    mean_fn = mc.make_mean_function(spec.mean)
    m_z = float(mean_fn(zpt[None, :])[0]) + spec.mean_offset

    rows = []
    for rep, t in t_hat.items():
        rng = rep_rng(spec.master_seed, rep)
        sites = generate_sites(region, spec.density, spec.n, rng)
        y = mc.simulate_responses(spec, sites, rng)
        data = SpatialDataset(region=region, sites=sites, responses=y)
        N = (
            lpfit.fit_at(data, config, zpt).beta_hat[0]
            - lpfit.estimate_bias(data, config, zpt)[0]
            - m_z
        )
        mu = mean_fn(sites / region.sides()) + spec.mean_offset
        mom = oracle.moments(sites, mu, m_z, y)
        rows.append(
            (N * N, mom["EN2"], (N / t) ** 2, mom["Evar0"], mom["misfit"], mom["t"] - t)
        )
    keys = ("N2", "EN2", "var0", "Evar0", "misfit", "t_gap")
    return dict(zip(keys, np.array(rows).T))


def _paired_gate(label: str, mc_vals, oracle_vals) -> tuple[str, bool]:
    """MC mean vs oracle mean within 4 SE of the paired differences."""
    diff = mc_vals - oracle_vals
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    dev = abs(diff.mean())
    return (
        f"{label}: MC {mc_vals.mean():.5f} vs oracle {oracle_vals.mean():.5f},"
        f" |diff| {dev:.5f} <= 4 SE = {4 * se:.5f}",
        dev <= 4 * se,
    )


def test_acceptance_1_benchmark_coverage(tmp_path):
    summaries, t_hats = {}, {}
    for case in ("i", "ii", "iii"):
        cfg = resources.files("spatial_lp") / "configs" / f"table1_case_{case}.json"
        # per-replication seeding makes t_hat independent of the worker count
        with resources.as_file(cfg) as path:
            rc = cli.main(
                ["mc", "--config", str(path), "--out", str(tmp_path / case),
                 "--threads", "2"]
            )
        assert rc == 0
        summaries[case] = json.loads(
            (tmp_path / case / "summary.json").read_text()
        )
        with (tmp_path / case / "that.csv").open() as f:
            t_hats[case] = {
                int(row["rep"]): float(row["t_hat"]) for row in csv.DictReader(f)
            }

    checks = []
    for case, s in summaries.items():
        checks.append(
            (
                f"case ({case}) coverage {s['coverage']:.3f} in [0.91, 0.97]",
                0.91 <= s["coverage"] <= 0.97,
            )
        )
        checks.append(
            (
                f"case ({case}) |mean| {abs(s['mean']):.3f} <= 0.45",
                abs(s["mean"]) <= 0.45,
            )
        )
    v = summaries["i"]["variance"]
    checks.append((f"case (i) variance {v:.3f} in [0.85, 1.20]", 0.85 <= v <= 1.20))

    notes = []
    for case, s in summaries.items():
        meta = s["metadata"]
        spec = mc.ExperimentSpec.from_config(
            meta["provenance"]["config"], master_seed=meta["master_seed"]
        )
        g = _oracle_replications(spec, t_hats[case])
        gap = float(np.max(np.abs(g["t_gap"])))
        checks.append(
            (
                f"case ({case}) {g['t_gap'].size} of {spec.reps} reps rebuilt,"
                f" oracle t vs that.csv max gap {gap:.1e} <= 1e-10",
                g["t_gap"].size == spec.reps and gap <= 1e-10,
            )
        )
        checks.append(_paired_gate(f"case ({case}) (a) E[N^2]", g["N2"], g["EN2"]))
        checks.append(_paired_gate(f"case ({case}) (b) E[var0]", g["var0"], g["Evar0"]))
        share = g["misfit"].mean() / g["Evar0"].mean()
        notes.append(
            f"case ({case}) Var(T) {s['variance']:.3f};"
            f" trend-misfit share of E[var0 | X] {share:.1%}"
        )
    _report(1, checks, notes=notes)


# --- 2: exact polynomial recovery ------------------------------------------


def test_acceptance_2_polynomial_recovery():
    rng = np.random.default_rng(20240202)
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(1, 3))
        p = int(rng.integers(1, 4))
        layout = basis.build_layout(d, p)
        z0 = rng.uniform(-0.25, 0.25, d)
        h = float(rng.uniform(0.22, 0.4))
        coeffs = rng.uniform(-3, 3, layout.D)

        A = 10.0
        n = 500 if d == 1 else 1200
        region = Region(A=(A,) * d)
        sites = rng.uniform(-A / 2, A / 2, (n, d))
        t = sites / A - z0
        y = np.zeros(n)
        for k, idx in enumerate(layout.indices):
            term = np.full(n, coeffs[k])
            for j in idx:
                term = term * t[:, j - 1]
            y += term
        data = SpatialDataset(region=region, sites=sites, responses=y)

        kern = kernels.KernelSpec(family="product-triangular", d=d)
        fit = lpfit.fit_at(
            data, lpfit.FitConfig(p=p, kernel=kern, h=(h,) * d), z0
        )
        for k, idx in enumerate(layout.indices):
            err = abs(
                fit.derivative(idx) - basis.s_factorial(idx) * coeffs[k]
            )
            worst = max(worst, err)
    _report(2, [(f"max derivative error {worst:.2e} <= 1e-8", worst <= 1e-8)])


# --- 3: kernel moment oracle -----------------------------------------------


def test_acceptance_3_moment_oracle():
    checks = []
    mom = kernels.moment_matrices(KERN2, basis.build_layout(2, 1))
    exact = [
        ("S", mom.S, np.diag([1.0, 1 / 6, 1 / 6])),
        ("Kcal", mom.Kcal, np.diag([4 / 9, 2 / 45, 2 / 45])),
        ("B", mom.B, np.array([[1 / 6, 0, 1 / 6], [0, 0, 0], [0, 0, 0]])),
    ]
    for name, got, want in exact:
        err = float(np.max(np.abs(got - want)))
        checks.append((f"triangular d=2 p=1 {name} error {err:.1e} <= 1e-10", err <= 1e-10))

    worst = 0.0
    for family in kernels.FAMILIES:
        for d in (1, 2, 3):
            for p in (1, 2, 3):
                spec = kernels.KernelSpec(family=family, d=d)
                layout = basis.build_layout(d, p)
                got = kernels.moment_matrices(spec, layout)
                S, Kcal, B = quad_moment_matrices(spec, layout)
                for a, b in ((got.S, S), (got.Kcal, Kcal), (got.B, B)):
                    worst = max(worst, float(np.max(np.abs(a - b))))
    checks.append(
        (f"all families d<=3 p<=3 vs quadrature, error {worst:.1e} <= 1e-9", worst <= 1e-9)
    )
    _report(3, checks)


# --- 4: field simulator covariance -----------------------------------------


def test_acceptance_4_field_covariance():
    region = Region(A=(10.0, 10.0))
    lags = (0.0, 0.5, 1.0, 2.0)
    gx, gy = np.meshgrid(np.linspace(-4.0, 2.0, 6), np.linspace(-4.0, 4.0, 6))
    base = np.column_stack([gx.ravel(), gy.ravel()])
    shifted = [base + np.array([t, 0.0]) for t in lags[1:]]
    sites = np.vstack([base, *shifted])
    nb = base.shape[0]

    checks = []
    for lam in (0.5, 1.0):
        model = randfield.car1(lam, tau2=0.01, n_knots=None, buffer=2.0)
        prods = {t: [] for t in lags}
        for rep in range(200):
            e = randfield.simulate_field(
                model, region, sites, rep_rng(int(1000 * lam), rep)
            )
            eb = e[:nb]
            prods[0.0].append(np.mean(eb * eb))
            for k, t in enumerate(lags[1:]):
                prods[t].append(np.mean(eb * e[(k + 1) * nb : (k + 2) * nb]))
        for t in lags:
            vals = np.asarray(prods[t])
            target = 2.0 * 0.01 * randfield.covariance_exponential(
                model, np.array([t, 0.0])
            )
            se = vals.std(ddof=1) / math.sqrt(len(vals))
            dev = abs(vals.mean() - target)
            checks.append(
                (
                    f"lam={lam} lag={t}: |{vals.mean():.4f} - {target:.4f}|"
                    f" = {dev:.4f} <= 3 SE = {3 * se:.4f}",
                    dev <= 3 * se,
                )
            )
    c0 = randfield.field_variance(randfield.car1(1.0, tau2=0.01), region)
    checks.append((f"lag-0 variance {c0:.4f} ~ 0.0314 for lam=1", abs(c0 - 0.0314) < 1e-3))
    _report(4, checks)


# --- 5: variance-estimator consistency -------------------------------------


def _w_hat_one_seed(n: int, rep: int, taper_width: float) -> float:
    A = math.sqrt(0.1 * n)
    region = Region(A=(A, A))
    rng = rep_rng(20240505, rep)
    sites = generate_sites(region, UNIFORM, n, rng)
    y = rng.standard_normal(n)
    data = SpatialDataset(region=region, sites=sites, responses=y)
    config = lpfit.FitConfig(p=1, kernel=KERN2, h=(0.25, 0.25))
    taper = kernels.TaperSpec(widths=(taper_width, taper_width))
    est = inference.variance_hat(data, config, taper, np.zeros(2))
    return est.W_hat


def test_acceptance_5_variance_consistency():
    """i.i.d. errors, sigma^2 = 1, uniform sites, A_n / n = 0.1.

    The limiting variance factor is sigma^2 A_n / n = 0.1.  The taper
    width is set to one distance unit: with independent errors only the
    near-diagonal pair terms carry signal, and wide tapers let the O(n^2)
    zero-mean cross terms dominate the double sum at these sample sizes.
    """
    medians = {}
    for n in (1000, 2000):
        vals = [_w_hat_one_seed(n, rep, 1.0) for rep in range(200)]
        medians[n] = float(np.median(vals))
    dev1 = abs(medians[1000] - 0.1)
    dev2 = abs(medians[2000] - 0.1)
    checks = [
        (
            f"median W_hat(n=1000) = {medians[1000]:.4f} within [0.075, 0.125]",
            0.075 <= medians[1000] <= 0.125,
        ),
        (
            f"median W_hat(n=2000) = {medians[2000]:.4f} within [0.075, 0.125]",
            0.075 <= medians[2000] <= 0.125,
        ),
        (f"deviation shrinks: {dev1:.4f} -> {dev2:.4f}", dev2 < dev1),
    ]
    _report(5, checks)


# --- 6: two-sample size and power ------------------------------------------


def _two_sample_rep(rep: int, n: int, gap: float, master: int) -> bool:
    region = Region(A=(10.0, 10.0))
    rng = rep_rng(master, rep)
    h = (0.25, 0.25)
    taper = kernels.TaperSpec(widths=(0.5, 0.5))
    config = lpfit.FitConfig(p=1, kernel=KERN2, h=h)

    datasets = []
    for offset in (0.0, gap):
        sites = generate_sites(region, UNIFORM, n, rng)
        z = sites / region.sides()
        y = 1.0 + z[:, 0] + offset + rng.standard_normal(n)
        datasets.append(SpatialDataset(region=region, sites=sites, responses=y))
    ds1, ds2 = datasets

    fit1 = lpfit.fit_at(ds1, config, np.zeros(2))
    fit2 = lpfit.fit_at(ds2, config, np.zeros(2))
    V = inference.two_sample_variance(ds1, ds2, config, taper, np.zeros(2))
    report = inference.two_sample_test(fit1, fit2, V, (), 0.05)
    return report.decision == "reject"


def test_acceptance_6_two_sample_size_and_power():
    rejections = sum(
        _two_sample_rep(rep, 1000, 0.0, 20240606) for rep in range(500)
    )
    size = rejections / 500.0

    power_rejections = sum(
        _two_sample_rep(rep, 2000, 1.0, 20240607) for rep in range(100)
    )
    power = power_rejections / 100.0

    checks = [
        (f"size {size:.3f} in [0.02, 0.08] at tau = 0.05", 0.02 <= size <= 0.08),
        (f"power {power:.3f} >= 0.95 at n = 2000, gap 1.0", power >= 0.95),
    ]
    _report(6, checks)


# --- 7: informative uniform-rate check --------------------------------------


def test_acceptance_7_uniform_rate_informative():
    grid_axis = np.linspace(-0.4, 0.4, 9)
    grid = [(z1, z2) for z1 in grid_axis for z2 in grid_axis]
    mean_fn = mc.paper_mean

    medians = []
    for n in (500, 1000, 2000, 4000):
        h = 0.5 * n ** (-1.0 / 6.0)
        config = lpfit.FitConfig(p=1, kernel=KERN2, h=(h, h))
        region = Region(A=(10.0, 10.0))
        sups = []
        for rep in range(50):
            rng = rep_rng(20240707 + n, rep)
            sites = generate_sites(region, UNIFORM, n, rng)
            z = sites / region.sides()
            y = mean_fn(z) + rng.standard_normal(n)
            data = SpatialDataset(region=region, sites=sites, responses=y)
            errs = []
            for zpt in grid:
                truth = float(mean_fn(np.asarray(zpt)[None, :])[0])
                try:
                    errs.append(
                        abs(lpfit.fit_at(data, config, zpt).beta_hat[0] - truth)
                    )
                except lpfit.FitError:
                    continue
            sups.append(max(errs))
        medians.append(float(np.median(sups)))

    monotone = all(a > b for a, b in zip(medians, medians[1:]))
    desc = " -> ".join(f"{m:.3f}" for m in medians)
    _report(7, [(f"median sup-error decreasing: {desc}", monotone)], gating=False)
