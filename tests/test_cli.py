"""End-to-end checks of the spatial-lp command line."""

import csv
import json
import os
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from spatial_lp import cli, kernels, lpfit, mc
from spatial_lp.dataset import Region, SpatialDataset, load_csv, save_csv
from spatial_lp.inference import two_sample_variance, variance_hat


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "spatial-lp" in capsys.readouterr().out


def test_cli_import_leaves_scipy_stats_unloaded():
    """The package needs no scipy.stats, which would double its import time."""
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, spatial_lp.cli; print('scipy.stats' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=600,
    )
    assert out.stdout.strip() == "False"


NO_SCIPY_PROBE = """
import contextlib, io, json, sys
from spatial_lp import cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
loaded = {"import": scipy_modules()}
for name, argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    loaded[name] = [rc] + scipy_modules()
print(json.dumps(loaded))
"""


def test_cli_paths_outside_the_field_load_no_scipy(tmp_path):
    """Only the CAR(1) field, product-beta sites and the d = 2 kernel
    covariance import scipy. A fresh interpreter imports the CLI, then runs
    two-sample, fit with taper_b, moments and a one-replication iid mc in
    process; after each, sys.modules must hold no scipy module.
    """
    rng = np.random.default_rng(5)
    data = []
    for k in range(2):
        sites = (rng.random((400, 2)) - 0.5) * 10.0
        path = tmp_path / f"s{k}.csv"
        save_csv(
            SpatialDataset(Region(A=(10.0, 10.0)), sites, rng.standard_normal(400)), path
        )
        data.append(str(path))
    fit = {"p": 1, "h": [0.25, 0.25], "z": [0.0, 0.0], "pilot_h": [0.3, 0.3],
           "taper_b": [2.0, 2.0], "variance_h": [0.25, 0.25]}
    commands = [
        ("two-sample", ["two-sample", "--config", _write(
            tmp_path / "ts.json",
            {"p": 1, "h": [0.25, 0.25], "taper_b": [0.5, 0.5], "z": [0.0, 0.0]},
        ), "--data1", data[0], "--data2", data[1]]),
        ("fit", ["fit", "--config", _write(tmp_path / "fit.json", fit),
                 "--data", data[0]]),
        ("moments", ["moments", "--config", _write(tmp_path / "m.json", {"d": 2, "p": 1})]),
        ("mc", ["mc", "--config", _write(
            tmp_path / "mc.json",
            {"reps": 1, "n": 300, "A": [10.0, 10.0], "error": {"kind": "iid"}},
        )]),
    ]
    argv = [(name, [*a, "--out", str(tmp_path / name)]) for name, a in commands]
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, json.dumps(argv)],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=600,
    )
    loaded = json.loads(out.stdout)
    assert loaded == {"import": [], **{name: [0] for name, _ in commands}}


def test_moments_command(tmp_path):
    cfg = _write(tmp_path / "cfg.json", {"d": 2, "p": 1})
    assert cli.main(["moments", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    payload = json.loads((tmp_path / "o" / "moments.json").read_text())
    np.testing.assert_allclose(payload["S"], np.diag([1.0, 1 / 6, 1 / 6]), atol=1e-12)
    assert payload["kappa0_r2"] == pytest.approx(4 / 9)
    assert payload["indices"] == ["", "1", "2"]
    assert payload["top_indices"] == ["11", "12", "22"]
    assert payload["provenance"]["version"]


def test_simulate_reproducible(tmp_path):
    cfg = _write(tmp_path / "sim.json", {"n": 100, "A": [10.0, 10.0], "seed": 4})
    for sub in ("a", "b"):
        assert (
            cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / sub)]) == 0
        )
    da = load_csv(tmp_path / "a" / "data.csv")
    db = load_csv(tmp_path / "b" / "data.csv")
    np.testing.assert_array_equal(da.sites, db.sites)
    np.testing.assert_array_equal(da.responses, db.responses)
    meta = json.loads((tmp_path / "a" / "data.meta.json").read_text())
    assert meta["n"] == 100 and meta["seed"] == 4

    # --seed overrides the config seed
    assert (
        cli.main(
            ["simulate", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "5"]
        )
        == 0
    )
    dc = load_csv(tmp_path / "c" / "data.csv")
    assert not np.array_equal(da.sites, dc.sites)


@pytest.mark.parametrize(
    "error", [{"kind": "iid", "sigma2": 0.3},
              {"kind": "car1", "sigma2": 0.04, "lambda": 0.7, "tau2": 0.5, "n_knots": 60,
               "buffer": 2.0}],
    ids=["iid", "car1"],
)
def test_simulate_stream_order(tmp_path, error):
    """data.csv rebuilt with numpy alone: one stream, drawn in a fixed order.

    Stream SeedSequence([seed, 0]): the sites, then for car1 the knots on
    the buffered region and their jumps, then the measurement noise.
    """
    n, A, seed = 40, np.array([10.0, 6.0]), 11
    cfg = _write(tmp_path / "sim.json", {
        "n": n, "A": A.tolist(), "mean": "x1 - 2 * x2", "error": error, "seed": seed,
    })
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    data = load_csv(tmp_path / "o" / "data.csv")

    rng = np.random.default_rng(np.random.SeedSequence([seed, 0]))
    sites = (rng.random((n, 2)) - 0.5) * A
    z = sites / A
    y = z[:, 0] - 2 * z[:, 1]
    if error["kind"] == "car1":
        half = A / 2 * error["buffer"]
        knots = rng.uniform(-half, half, (error["n_knots"], 2))
        jumps = rng.normal(0.0, np.sqrt(error["tau2"]), error["n_knots"])
        dist = np.sqrt(((sites[:, None, :] - knots[None, :, :]) ** 2).sum(axis=2))
        y = y + np.exp(-error["lambda"] * dist) @ jumps
    y = y + np.sqrt(error["sigma2"]) * rng.standard_normal(n)

    np.testing.assert_array_equal(data.sites, sites)
    if error["kind"] == "iid":
        np.testing.assert_array_equal(data.responses, y)
    else:
        assert np.max(np.abs(data.responses - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.fixture()
def sim_data(tmp_path):
    cfg = _write(
        tmp_path / "sim.json",
        {
            "n": 500,
            "A": [10.0, 10.0],
            "mean": "x1 + 2*x2",
            "error": {"kind": "iid", "sigma2": 0.01},
            "seed": 9,
        },
    )
    cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "data")])
    return tmp_path / "data" / "data.csv"


def test_fit_single_point(tmp_path, sim_data):
    cfg = _write(
        tmp_path / "fit.json",
        {"p": 1, "h": [0.25, 0.25], "z": [0.0, 0.0], "pilot_h": [0.3, 0.3]},
    )
    out = tmp_path / "fit_out"
    assert (
        cli.main(["fit", "--config", cfg, "--data", str(sim_data), "--out", str(out)])
        == 0
    )
    with (out / "fits.csv").open() as f:
        rows = list(csv.DictReader(f))
    assert [r["index"] for r in rows] == ["", "1", "2"]
    # the underlying trend is linear, so the slopes are near (1, 2)
    assert float(rows[1]["estimate"]) == pytest.approx(1.0, abs=0.5)
    assert float(rows[2]["estimate"]) == pytest.approx(2.0, abs=0.5)
    assert rows[0]["bias"] != ""
    assert "ci_lo" not in rows[0]


def test_fit_grid_with_intervals(tmp_path, sim_data):
    cfg = _write(
        tmp_path / "fit.json",
        {
            "p": 1,
            "h": [0.25, 0.25],
            "z_grid": [[-0.2, 0.0, 0.2], [0.0]],
            "pilot_h": [0.3, 0.3],
            "taper_b": [2.0, 2.0],
            "variance_h": [0.25, 0.25],
        },
    )
    out = tmp_path / "fit_out"
    assert (
        cli.main(["fit", "--config", cfg, "--data", str(sim_data), "--out", str(out)])
        == 0
    )
    with (out / "fits.csv").open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 9  # 3 grid points x 3 coefficients
    for r in rows:
        assert float(r["ci_lo"]) < float(r["ci_hi"])
        assert float(r["W_hat"]) >= 0.0


def test_fit_grid_fits_each_window_site_once(tmp_path, sim_data, monkeypatch):
    fitted = []
    fit_many = lpfit.fit_many

    def counting_fit_many(dataset, config, Z):
        fitted.extend(tuple(z) for z in Z)
        return fit_many(dataset, config, Z)

    monkeypatch.setattr(lpfit, "fit_many", counting_fit_many)
    h, grid = 0.25, [(0.0, 0.0), (0.05, 0.0)]
    cfg = _write(
        tmp_path / "fit.json",
        {"p": 1, "h": [h, h], "z_grid": [[0.0, 0.05], [0.0]], "taper_b": [2.0, 2.0]},
    )
    out = tmp_path / "fit_out"
    argv = ["fit", "--config", cfg, "--data", str(sim_data), "--out", str(out)]
    assert cli.main(argv) == 0
    data = load_csv(sim_data)
    rescaled = data.sites / data.region.sides()
    windows = [
        {tuple(x) for x in rescaled[(np.abs(rescaled - z) < h).all(axis=1)]}
        for z in grid
    ]
    assert len(windows[0] & windows[1]) > 0
    assert sorted(fitted) == sorted(windows[0] | windows[1])


def test_fit_grid_w_hat_equals_variance_hat(tmp_path, sim_data):
    """A grid's shared residual fits give each point variance_hat's own W_hat."""
    cfg = _write(
        tmp_path / "fit.json",
        {"p": 1, "h": [0.25, 0.25], "variance_h": [0.3, 0.2],
         "z_grid": [[-0.1, 0.0, 0.1], [-0.05, 0.05]], "taper_b": [2.0, 1.5],
         "kernel": {"family": "product-epanechnikov"}},
    )
    out = tmp_path / "fit_out"
    assert cli.main(["fit", "--config", cfg, "--data", str(sim_data), "--out", str(out)]) == 0
    with (out / "fits.csv").open() as f:
        w_hat = {r["z"]: float(r["W_hat"]) for r in csv.DictReader(f)}
    assert len(w_hat) == 6
    data = load_csv(sim_data)
    res_cfg = lpfit.FitConfig(
        p=1, kernel=kernels.KernelSpec("product-epanechnikov", d=2), h=(0.3, 0.2)
    )
    taper = kernels.TaperSpec(widths=(2.0, 1.5))
    for z in [(z1, z2) for z1 in (-0.1, 0.0, 0.1) for z2 in (-0.05, 0.05)]:
        W = variance_hat(data, res_cfg, taper, np.array(z)).W_hat
        assert w_hat[";".join(f"{v:g}" for v in z)] == pytest.approx(W, rel=1e-12, abs=0.0)


def test_fit_requires_evaluation_points(tmp_path, sim_data):
    cfg = _write(tmp_path / "fit.json", {"p": 1, "h": [0.25, 0.25]})
    assert (
        cli.main(
            ["fit", "--config", cfg, "--data", str(sim_data), "--out", str(tmp_path / "o")]
        )
        == 1
    )


def test_unknown_config_key(tmp_path, capsys):
    cfg = _write(tmp_path / "cfg.json", {"d": 2, "bogus": 1})
    assert cli.main(["moments", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, payload, key",
    [
        ("simulate", {"n": 50, "A": [10.0, 10.0], "error": {"lamda": 5}},
         "error.lamda"),
        ("simulate", {"n": 50, "A": [10.0, 10.0], "density": {"knd": "uniform"}},
         "density.knd"),
        ("moments", {"d": 2, "kernel": {"family": "product-uniform", "CK": 2.0}},
         "kernel.CK"),
    ],
)
def test_unknown_nested_config_key(tmp_path, capsys, command, payload, key):
    cfg = _write(tmp_path / "cfg.json", payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_required_key_is_named(tmp_path, capsys, sim_data):
    cfg = _write(tmp_path / "fit.json", {"p": 1, "z": [0.0, 0.0]})
    assert (
        cli.main(
            ["fit", "--config", cfg, "--data", str(sim_data), "--out", str(tmp_path / "o")]
        )
        == 1
    )
    err = capsys.readouterr().err
    assert "fit" in err and "missing required key 'h'" in err


def test_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["moments", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
    assert "malformed JSON" in capsys.readouterr().err


def test_missing_config(tmp_path):
    assert (
        cli.main(
            ["moments", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]
        )
        == 1
    )


def test_mc_small_run(tmp_path):
    cfg = _write(
        tmp_path / "mc.json",
        {"reps": 4, "n": 300, "A": [10.0, 10.0], "master_seed": 5},
    )
    out = tmp_path / "mc_out"
    assert cli.main(["mc", "--config", cfg, "--out", str(out)]) == 0
    payload = json.loads((out / "summary.json").read_text())
    assert payload["retained"] == 4
    assert (out / "that.csv").exists()
    assert (out / "hist.csv").exists()


def test_mc_failure_exit_code(tmp_path):
    cfg = _write(
        tmp_path / "mc.json",
        {
            "reps": 10,
            "n": 100,
            "A": [10.0, 10.0],
            "master_seed": 3,
            "fit_h": [0.15, 0.15],
            "pilot_h": [0.15, 0.15],
            "variance_h": [0.15, 0.15],
        },
    )
    assert cli.main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_two_sample_command(tmp_path):
    base = {"n": 400, "A": [10.0, 10.0], "seed": 1}
    cfg1 = _write(tmp_path / "s1.json", {**base, "mean": "1.0"})
    cfg2 = _write(tmp_path / "s2.json", {**base, "mean": "9.0", "seed": 2})
    cli.main(["simulate", "--config", cfg1, "--out", str(tmp_path / "d1")])
    cli.main(["simulate", "--config", cfg2, "--out", str(tmp_path / "d2")])

    cfg = _write(
        tmp_path / "ts.json",
        {"h": [0.3, 0.3], "taper_b": [2.0, 2.0], "z": [0.0, 0.0], "idx": ""},
    )
    out = tmp_path / "ts_out"
    assert (
        cli.main(
            [
                "two-sample",
                "--config",
                cfg,
                "--data1",
                str(tmp_path / "d1" / "data.csv"),
                "--data2",
                str(tmp_path / "d2" / "data.csv"),
                "--out",
                str(out),
            ]
        )
        == 0
    )
    report = json.loads((out / "report.json").read_text())
    # the two trends differ by 8 with unit noise: clear rejection
    assert report["decision"] == "reject"
    assert report["idx"] == ""
    assert report["p_value"] < 0.01


def test_two_sample_region_mismatch(tmp_path, capsys):
    cfg1 = _write(tmp_path / "s1.json", {"n": 50, "A": [10.0, 10.0]})
    cfg2 = _write(tmp_path / "s2.json", {"n": 50, "A": [8.0, 8.0]})
    cli.main(["simulate", "--config", cfg1, "--out", str(tmp_path / "d1")])
    cli.main(["simulate", "--config", cfg2, "--out", str(tmp_path / "d2")])
    cfg = _write(
        tmp_path / "ts.json", {"h": [0.3, 0.3], "taper_b": [2.0, 2.0]}
    )
    assert (
        cli.main(
            [
                "two-sample",
                "--config",
                cfg,
                "--data1",
                str(tmp_path / "d1" / "data.csv"),
                "--data2",
                str(tmp_path / "d2" / "data.csv"),
                "--out",
                str(tmp_path / "o"),
            ]
        )
        == 1
    )
    assert "region" in capsys.readouterr().err


def _cos_lattice(sign: float) -> SpatialDataset:
    """sign * cos(3.5 x_1) on the 0.25-spaced 40 x 40 lattice of A = (10, 10)."""
    step = np.arange(-4.875, 5.0, 0.25)
    sites = np.array(np.meshgrid(step, step)).reshape(2, -1).T
    return SpatialDataset(Region(A=(10.0, 10.0)), sites, sign * np.cos(3.5 * sites[:, 0]))


def test_fit_negative_W_hat_is_an_error_row(tmp_path):
    """On the lattice of the test below, W_hat at the origin is negative, so
    the interval has no variance: the point's row names NonPositiveVariance,
    with no estimate and no interval, and the run still succeeds."""
    data = tmp_path / "d.csv"
    save_csv(_cos_lattice(1.0), data)
    cfg = _write(tmp_path / "fit.json",
                 {"h": [0.45, 0.45], "taper_b": [2.0, 2.0], "z": [0.0, 0.0]})
    out = tmp_path / "o"
    assert cli.main(["fit", "--config", cfg, "--data", str(data), "--out", str(out)]) == 0
    with (out / "fits.csv").open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 1
    assert rows[0]["error"].startswith("NonPositiveVariance: ")
    assert rows[0]["ci_lo"] == rows[0]["ci_hi"] == rows[0]["estimate"] == ""


def test_mc_zero_variance_fails_every_replication(tmp_path, capsys):
    """A constant mean with no noise leaves W_hat = 0 in every replication:
    each fails as NonPositiveVariance, and the run ends with rc 2 and no
    summary, not with a -inf t_hat that strict JSON cannot hold."""
    path = Path(mc.__file__).parent / "configs" / "table1_case_i.json"
    base = json.loads(path.read_text())
    cfg = _write(tmp_path / "mc.json", {**base, "reps": 4, "mean": "1.0",
                                        "error": {"kind": "iid", "sigma2": 0.0}})
    assert cli.main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "all 4 replications failed; the first: NonPositiveVariance: " in err
    assert not (tmp_path / "o" / "summary.json").exists()


def test_two_sample_negative_pooled_form_is_inconclusive(tmp_path, capsys):
    """The radial Bartlett taper is not positive definite in 2-D: at b = 2
    its Fourier transform is negative near frequency 3.5. Both samples share
    a 0.25-spaced lattice, with responses cos(3.5 x_1) and its negative, so
    the pooled residual products follow that frequency and V_check < 0. It is
    reported raw, with no warning, and the decision is inconclusive."""
    paths = [tmp_path / "d1.csv", tmp_path / "d2.csv"]
    for path, sign in zip(paths, (1.0, -1.0)):
        save_csv(_cos_lattice(sign), path)
    cfg = _write(tmp_path / "ts.json", {"h": [0.45, 0.45], "taper_b": [2.0, 2.0]})
    out = tmp_path / "o"
    argv = ["two-sample", "--config", cfg, "--data1", str(paths[0]),
            "--data2", str(paths[1]), "--out", str(out)]
    capsys.readouterr()
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""
    report = json.loads((out / "report.json").read_text())
    config = lpfit.FitConfig(
        p=1, kernel=kernels.KernelSpec("product-triangular", d=2), h=(0.45, 0.45)
    )
    V = two_sample_variance(
        *map(load_csv, paths), config, kernels.TaperSpec((2.0, 2.0)), np.zeros(2)
    )
    assert V < 0.0 and report["V_check"] == V
    assert report["decision"] == "inconclusive"


def _beta(alpha, beta):
    return {"density": {"kind": "product-beta", "params": {"alpha": alpha, "beta": beta}}}


@pytest.mark.parametrize("command", ["simulate", "mc"])
@pytest.mark.parametrize(
    "section, named",
    [({"error": {"kind": "matern"}}, "matern"), ({"error": "car1"}, "error"),
     ({"density": ["uniform"]}, "density"),
     (_beta([2.0], [2.0, 2.0]), "alpha"), (_beta([2.0, 2.0], [2.0, -1.0]), "beta"),
     (_beta([2.0, float("inf")], [2.0, 2.0]), "alpha"), (_beta([2.0, 2.0], None), "beta"),
     ({"density": {"kind": "product-beta", "params": [1]}}, "params"),
     ({"density": {"kind": "custom-grid", "params": {"weights": [[1.0, 1.0]]}}},
      "weight")],
)
def test_bad_error_or_density_is_rejected(
    tmp_path, capsys, monkeypatch, command, section, named
):
    """One stderr line and rc 1, before any site is drawn."""
    monkeypatch.setattr(
        mc, "generate_sites", lambda *a: pytest.fail("sites were drawn")
    )
    monkeypatch.setattr(mc, "run_replication", lambda *a: pytest.fail("a replication ran"))
    payload = {"n": 50, "A": [10.0, 10.0], **section}
    if command == "mc":
        payload["reps"] = 2
    cfg = _write(tmp_path / "cfg.json", payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("mean", ["x3", "1/0"])
def test_mc_mean_fails_before_any_replication(tmp_path, capsys, monkeypatch, mean):
    """A mean naming an axis beyond d, or one that cannot be evaluated, is rc 1."""
    monkeypatch.setattr(mc, "run_replication", lambda *a: pytest.fail("a replication ran"))
    cfg = _write(tmp_path / "cfg.json", {"reps": 2, "n": 50, "A": [10.0, 10.0], "mean": mean})
    assert cli.main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert mean in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "mc"])
def test_default_mean_needs_two_axes(tmp_path, capsys, monkeypatch, command):
    """paper_mean reads x2, so in d = 1 with no mean the config is rc 1."""
    monkeypatch.setattr(mc, "run_replication", lambda *a: pytest.fail("a replication ran"))
    payload = {"n": 50, "A": [10.0]}
    if command == "mc":
        payload["reps"] = 2
    cfg = _write(tmp_path / "cfg.json", payload)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "x2" in err and err.count("\n") == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, payload, data_flags",
    [("mc", {"reps": 2, "n": 50, "A": [10.0, 10.0]}, ()),
     ("fit", {"h": [0.2, 0.2], "z": [0.0, 0.0]}, ("--data",)),
     ("two-sample", {"h": [0.2, 0.2], "taper_b": [8.0, 8.0]}, ("--data1", "--data2")),
     ("moments", {"d": 2}, ())],
    ids=["mc", "fit", "two-sample", "moments"],
)
def test_mc_kernel_must_be_an_object(tmp_path, capsys, command, payload, data_flags):
    """The config is rejected before any data file is read."""
    cfg = _write(tmp_path / "cfg.json", {**payload, "kernel": "x"})
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    for flag in data_flags:
        argv += [flag, str(tmp_path / "absent.csv")]
    assert cli.main(argv) == 1
    assert "kernel must be" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_in_one_dimension(tmp_path):
    cfg = _write(tmp_path / "sim.json", {"n": 50, "A": [10.0], "mean": "x1"})
    assert cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert load_csv(tmp_path / "o" / "data.csv").sites.shape == (50, 1)


@pytest.mark.parametrize(
    "given, named",
    [({}, "fit_h has no default in d = 1"),
     *(({f: [0.1, 0.1]}, f"{f} has 2 entries")
       for f in ("fit_h", "pilot_h", "variance_h", "taper_b", "z"))],
)
def test_mc_vectors_are_checked_before_any_replication(
    tmp_path, capsys, monkeypatch, given, named
):
    ran = []
    monkeypatch.setattr(mc, "run_replication", lambda spec, rep: ran.append(rep))
    cfg = _write(
        tmp_path / "mc.json", {"reps": 3, "n": 100, "A": [10.0], "mean": "x1", **given}
    )
    assert cli.main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert named in capsys.readouterr().err
    assert not ran
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "given, named",
    [({"error": {"kind": "car1", "lambda": -1}}, "decay rate must be positive"),
     ({"error": {"kind": "car1", "tau2": -1}}, "tau2 must be >= 0"),
     ({"error": {"kind": "car1", "sigma2": -1}}, "sigma2 must be >= 0"),
     ({"error": {"kind": "iid", "sigma2": -1}}, "sigma2 must be >= 0"),
     ({"error": {"kind": "car1", "n_knots": -5}}, "n_knots must be >= 0"),
     ({"error": {"kind": "car1", "buffer": 0}}, "buffer must be positive"),
     ({"n": 0}, "site count n must be >= 1"),
     ({"tau": 3.0}, "tau must be a number in (0, 1)"),
     ({"tau": 0.0}, "tau must be a number in (0, 1)")],
    ids=["car1-lambda", "car1-tau2", "car1-sigma2", "iid-sigma2", "car1-n_knots",
         "car1-buffer", "n", "tau-high", "tau-zero"],
)
def test_mc_error_model_size_and_level_are_checked_before_any_replication(
    tmp_path, capsys, monkeypatch, given, named
):
    ran = []
    monkeypatch.setattr(mc, "run_replication", lambda spec, rep: ran.append(rep))
    cfg = _write(tmp_path / "mc.json", {"reps": 3, "n": 300, "A": [10.0, 10.0], **given})
    capsys.readouterr()
    assert cli.main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: mc: ") and named in err
    assert len(err.strip().splitlines()) == 1
    assert not ran
    assert not (tmp_path / "o").exists()


def test_mc_every_replication_failing_exits_2(tmp_path, capsys):
    h = [0.05, 0.05]
    cfg = _write(
        tmp_path / "mc.json",
        {"reps": 6, "n": 100, "A": [10.0, 10.0], "fit_h": h, "pilot_h": h,
         "variance_h": h},
    )
    assert cli.main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "all 6 replications failed" in err
    assert "NoLocalData: " in err and "sites in the kernel window" in err


def test_mc_degenerate_variance_window_counts_as_failure(tmp_path, capsys):
    """An empty variance window fails its replication; it does not end the run."""
    cfg = _write(
        tmp_path / "mc.json",
        {"reps": 3, "n": 100, "A": [10.0, 10.0], "variance_h": [0.01, 0.01]},
    )
    assert cli.main(["mc", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "all 3 replications failed" in err
    assert "DegenerateWindow: estimated density" in err
    assert "Traceback" not in err


def test_fit_degenerate_variance_window_is_recorded_on_its_point(tmp_path, sim_data):
    cfg = _write(
        tmp_path / "fit.json",
        {"p": 1, "h": [0.25, 0.25], "z": [0.0, 0.0], "taper_b": [2.0, 2.0],
         "variance_h": [0.01, 0.01]},
    )
    out = tmp_path / "fit_out"
    assert cli.main(["fit", "--config", cfg, "--data", str(sim_data), "--out", str(out)]) == 0
    with (out / "fits.csv").open() as f:
        [row] = list(csv.DictReader(f))
    assert row["error"].startswith("DegenerateWindow: estimated density")


def test_two_sample_thin_window_is_a_one_line_error(tmp_path, capsys):
    for k in (1, 2):
        cfg = _write(tmp_path / f"s{k}.json", {"n": 1500, "A": [10.0, 10.0], "seed": k})
        cli.main(["simulate", "--config", cfg, "--out", str(tmp_path / f"d{k}")])
    cfg = _write(
        tmp_path / "ts.json", {"h": [0.01, 0.01], "taper_b": [2.0, 2.0], "z": [0.0, 0.0]}
    )
    argv = [
        "two-sample", "--config", cfg, "--out", str(tmp_path / "o"),
        "--data1", str(tmp_path / "d1" / "data.csv"),
        "--data2", str(tmp_path / "d2" / "data.csv"),
    ]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: two-sample: ")
    assert "sites in the kernel window" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size, runs in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


@pytest.mark.parametrize(
    "threads, pool", [("-3", None), ("0", None), ("1", None), ("2", 2), ("64", 3)]
)
def test_mc_threads_bound_the_pool(tmp_path, monkeypatch, threads, pool):
    monkeypatch.setattr(mc, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    cfg = _write(
        tmp_path / "mc.json", {"reps": 3, "n": 200, "A": [10.0, 10.0], "master_seed": 1}
    )
    argv = ["mc", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", threads]
    assert cli.main(argv) == (1 if int(threads) < 1 else 0)
    assert _RecordingPool.sizes == ([] if pool is None else [pool])


@pytest.mark.parametrize("seed", [None, 9])
def test_mc_summary_rebuilds_its_spec(tmp_path, seed):
    cfg = _write(
        tmp_path / "mc.json",
        {"reps": 3, "n": 300, "A": [10.0, 10.0], "master_seed": 5,
         "error": {"kind": "car1", "n_knots": 200}, "fit_h": [0.25, 0.25]},
    )
    out = tmp_path / "o"
    argv = ["mc", "--config", cfg, "--out", str(out)]
    assert cli.main(argv + ([] if seed is None else ["--seed", str(seed)])) == 0
    meta = json.loads((out / "summary.json").read_text())["metadata"]
    assert meta["master_seed"] == (5 if seed is None else seed)
    spec = mc.ExperimentSpec.from_config(
        meta["provenance"]["config"], master_seed=meta["master_seed"]
    )
    assert json.loads(json.dumps(asdict(spec))) == meta["spec"]
    rows = (out / "that.csv").read_text().splitlines()
    rebuilt = []
    for rep in range(spec.reps):
        t, covered = mc.run_replication(spec, rep)
        rebuilt.append(f"{rep},{t:.17g},{int(covered)}")
    assert rows == ["rep,t_hat,covered", *rebuilt]


@pytest.mark.parametrize(
    "command, payload, key",
    [("mc", {"reps": 2, "n": 50, "A": 10}, "A"),
     ("mc", {"reps": 2, "n": 50, "A": [10.0, 10.0], "fit_h": [0.2, "0.2"]}, "fit_h"),
     ("simulate", {"n": 50, "A": 10.0}, "A"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "taper_b": 2.0}, "taper_b"),
     ("fit", {"h": [0.25, 0.25], "z_grid": [0.0, 0.1]}, "z_grid"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "pilot_h": [float("nan"), 0.3]},
      "pilot_h"),
     ("two-sample", {"h": 0.25, "taper_b": [2.0, 2.0]}, "h"),
     ("two-sample", {"h": [0.25, 0.25], "taper_b": [2.0, 2.0], "z": [True, 0]}, "z")],
    ids=["mc-A", "mc-fit_h", "simulate-A", "fit-taper_b", "fit-z_grid",
         "fit-pilot_h", "two-sample-h", "two-sample-z"],
)
def test_per_axis_key_must_be_an_array_of_numbers(
    tmp_path, capsys, sim_data, command, payload, key
):
    cfg = _write(tmp_path / "cfg.json", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    flags = {"fit": ("--data",), "two-sample": ("--data1", "--data2")}
    for flag in flags.get(command, ()):
        argv += [flag, str(sim_data)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"{key} must be a JSON array" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, payload, key",
    [("mc", {"reps": "3", "n": 50, "A": [10.0, 10.0]}, "reps"),
     ("mc", {"reps": 2, "n": 50, "A": [10.0, 10.0], "p": "1"}, "p"),
     ("mc", {"reps": 2, "n": 200.5, "A": [10.0, 10.0]}, "n"),
     ("mc", {"reps": 2, "n": 50, "A": [10.0, 10.0], "master_seed": 1.5}, "master_seed"),
     ("mc", {"reps": 2, "n": 50, "A": [10.0, 10.0],
             "error": {"kind": "car1", "n_knots": 80.5}}, "error.n_knots"),
     ("simulate", {"n": "100", "A": [10.0, 10.0]}, "n"),
     ("simulate", {"n": 100, "A": [10.0, 10.0], "seed": True}, "seed"),
     ("fit", {"p": "1", "h": [0.25, 0.25], "z": [0.0, 0.0]}, "p"),
     ("moments", {"d": "2"}, "d"),
     ("moments", {"p": 1.5}, "p")],
    ids=["mc-reps", "mc-p", "mc-n", "mc-master_seed", "mc-n_knots", "simulate-n",
         "simulate-seed", "fit-p", "moments-d", "moments-p"],
)
def test_integer_key_must_be_an_integer(tmp_path, capsys, sim_data, command, payload, key):
    cfg = _write(tmp_path / "cfg.json", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command == "fit":
        argv += ["--data", str(sim_data)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"{key} must be an integer" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "o").exists()


MC_BASE = {"reps": 2, "n": 50, "A": [10.0, 10.0]}


@pytest.mark.parametrize(
    "command, payload, key, kind",
    [("mc", {**MC_BASE, "error": {"kind": "car1", "sigma2": "0.01"}},
      "error.sigma2", "a number or null"),
     ("mc", {**MC_BASE, "error": {"kind": "car1", "lambda": "1"}},
      "error.lambda", "a number"),
     ("mc", {**MC_BASE, "error": {"kind": "car1", "tau2": "0.01"}},
      "error.tau2", "a number"),
     ("mc", {**MC_BASE, "error": {"kind": "car1", "buffer": "2"}},
      "error.buffer", "a number or null"),
     ("mc", {**MC_BASE, "error": {"kind": ["car1"]}}, "error.kind", "a string"),
     ("mc", {**MC_BASE, "kernel": {"C_K": "1"}}, "kernel.C_K", "a number"),
     ("mc", {**MC_BASE, "mean_offset": "1"}, "mean_offset", "a number"),
     ("mc", {**MC_BASE, "outlier_threshold": "x"}, "outlier_threshold", "a number"),
     ("mc", {**MC_BASE, "max_failure_fraction": "x"}, "max_failure_fraction",
      "a number"),
     ("mc", {**MC_BASE, "mean": 5}, "mean", "a string"),
     ("simulate", {"n": 50, "A": [10.0, 10.0], "error": {"kind": "car1", "tau2": True}},
      "error.tau2", "a number"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "kernel": {"C_K": "1"}},
      "kernel.C_K", "a number")],
    ids=["mc-sigma2", "mc-lambda", "mc-tau2", "mc-buffer", "mc-kind", "mc-C_K",
         "mc-mean_offset", "mc-outlier_threshold", "mc-max_failure_fraction",
         "mc-mean", "simulate-tau2", "fit-C_K"],
)
def test_scalar_key_must_have_its_kind(
    tmp_path, capsys, monkeypatch, sim_data, command, payload, key, kind
):
    """A scalar of the wrong kind is one config error before any replication or fit."""
    calls = []
    monkeypatch.setattr(mc, "run_replication", lambda *args: calls.append(args))
    monkeypatch.setattr(cli, "fit_at", lambda *args: calls.append(args))
    cfg = _write(tmp_path / "cfg.json", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    if command == "fit":
        argv += ["--data", str(sim_data)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert f"{key} must be {kind}, got" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not calls
    assert not (tmp_path / "o").exists()


def test_knot_buffer_and_noise_variance_may_be_null(tmp_path):
    """null sets the automatic knot margin and the error kind's default sigma2."""
    cfg = _write(
        tmp_path / "mc.json",
        {**MC_BASE, "n": 200, "error": {"kind": "car1", "buffer": None, "sigma2": None}},
    )
    assert cli.main(["mc", "--config", cfg, "--out", str(tmp_path / "m")]) == 0
    spec = json.loads((tmp_path / "m" / "summary.json").read_text())["metadata"]["spec"]
    assert spec["error"]["buffer"] is None
    assert spec["error"]["sigma2"] == mc.SIGMA2["car1"]


def test_seed_and_knot_count_may_be_null(tmp_path):
    """null leaves the simulate seed and the mc knot count unset."""
    sim = _write(tmp_path / "sim.json", {"n": 50, "A": [10.0, 10.0], "seed": None})
    assert cli.main(["simulate", "--config", sim, "--out", str(tmp_path / "s")]) == 0
    unset = _write(tmp_path / "sim0.json", {"n": 50, "A": [10.0, 10.0]})
    assert cli.main(["simulate", "--config", unset, "--out", str(tmp_path / "s0")]) == 0
    data = (tmp_path / "s" / "data.csv").read_bytes()
    assert data == (tmp_path / "s0" / "data.csv").read_bytes()
    mc_cfg = _write(
        tmp_path / "mc.json",
        {"reps": 2, "n": 200, "A": [10.0, 10.0],
         "error": {"kind": "car1", "n_knots": None}},
    )
    assert cli.main(["mc", "--config", mc_cfg, "--out", str(tmp_path / "m")]) == 0


@pytest.mark.parametrize(
    "idx, p, named",
    [("21", 2, "not non-decreasing"), ("11", 1, "order 2 > p = 1"),
     ("3", 1, "outside 1..2"), ("1x", 1, "must be digits"), (12, 2, "must be digits")],
)
def test_two_sample_index_is_checked_before_any_fit(
    tmp_path, capsys, monkeypatch, sim_data, idx, p, named
):
    fits = []
    monkeypatch.setattr(cli, "fit_at", lambda *args: fits.append(args))
    cfg = _write(
        tmp_path / "ts.json",
        {"p": p, "h": [0.3, 0.3], "taper_b": [2.0, 2.0], "idx": idx},
    )
    argv = ["two-sample", "--config", cfg, "--out", str(tmp_path / "o"),
            "--data1", str(sim_data), "--data2", str(sim_data)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: two-sample: idx") and named in err
    assert not fits
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "command, payload, named",
    [("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0, 0.0]}, "z has 3 axes"),
     ("fit", {"h": [0.25, 0.25], "z_grid": [[0.0], [0.0], [0.1]]}, "z_grid has 3 axes"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "taper_b": [2.0, 2.0], "tau": 1.5},
      "tau must be a number in (0, 1)"),
     ("two-sample", {"h": [0.3, 0.3], "taper_b": [2.0, 2.0], "z": [0.0]},
      "z has 1 axes, expected 2"),
     ("two-sample", {"h": [0.3, 0.3], "taper_b": [2.0, 2.0], "tau": 0.5},
      "tau must be a number in (0, 0.5)"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "taper_b": [0.5]},
      "taper_b has 1 axes, expected 2"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "taper_b": [0.5, 0.5, 0.5]},
      "taper_b has 3 axes, expected 2"),
     ("two-sample", {"h": [0.3, 0.3], "taper_b": [0.5]},
      "taper_b has 1 axes, expected 2"),
     ("two-sample", {"h": [0.3, 0.3], "taper_b": [0.5, 0.5, 0.5]},
      "taper_b has 3 axes, expected 2"),
     ("fit", {"h": [0.25], "z": [0.0, 0.0]}, "h has 1 axes, expected 2"),
     ("fit", {"h": [0.25, 0.25, 0.25], "z": [0.0, 0.0]}, "h has 3 axes, expected 2"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "pilot_h": [0.25]},
      "pilot_h has 1 axes, expected 2"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "pilot_h": [0.3, 0.3, 0.3]},
      "pilot_h has 3 axes, expected 2"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "pilot_h": []},
      "pilot_h has 0 axes, expected 2"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "taper_b": [2.0, 2.0],
              "variance_h": [0.3]},
      "variance_h has 1 axes, expected 2"),
     ("two-sample", {"h": [0.3, 0.3], "taper_b": [2.0, 2.0], "variance_h": [0.3]},
      "variance_h has 1 axes, expected 2"),
     ("two-sample", {"h": [0.3, 0.3, 0.3], "taper_b": [2.0, 2.0, 2.0],
                     "z": [0.0, 0.0, 0.0]},
      "h has 3 axes, expected 2"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "pilot_h": [0.25, -0.1]},
      "pilot_h must be positive"),
     ("fit", {"p": 0, "h": [0.25, 0.25], "z": [0.0, 0.0]},
      "p must be an integer >= 1, got 0"),
     ("fit", {"h": [0.25, 0.0], "z": [0.0, 0.0]}, "h must be positive"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "taper_b": [2.0, 2.0],
              "variance_h": [0.3, -0.3]},
      "variance_h must be positive"),
     ("fit", {"h": [0.25, 0.25], "z": [0.0, 0.0], "taper_b": [2.0, 0.0]},
      "taper_b must be positive"),
     ("two-sample", {"h": [-0.3, 0.3], "taper_b": [2.0, 2.0]}, "h must be positive"),
     ("two-sample", {"h": [0.3, 0.3], "taper_b": [2.0, 2.0], "variance_h": [0.0, 0.3]},
      "variance_h must be positive"),
     ("two-sample", {"h": [0.3, 0.3], "taper_b": [-2.0, 2.0]},
      "taper_b must be positive"),
     ("mc", {"reps": 3, "n": 300, "A": [10.0, 10.0], "p": 0},
      "p must be an integer >= 1, got 0")],
    ids=["fit-z", "fit-z_grid", "fit-tau", "two-sample-z", "two-sample-tau",
         "fit-taper_b-short", "fit-taper_b-long", "two-sample-taper_b-short",
         "two-sample-taper_b-long", "fit-h-short", "fit-h-long", "fit-pilot_h-short",
         "fit-pilot_h-long", "fit-pilot_h-empty", "fit-variance_h",
         "two-sample-variance_h", "two-sample-three-axes-on-2d", "fit-pilot_h-negative",
         "fit-p-zero", "fit-h-zero", "fit-variance_h-negative", "fit-taper_b-zero",
         "two-sample-h-negative", "two-sample-variance_h-zero",
         "two-sample-taper_b-negative", "mc-p-zero"],
)
def test_point_and_level_are_config_errors(
    tmp_path, capsys, monkeypatch, sim_data, command, payload, named
):
    """A bandwidth, z or taper_b of the wrong length, a non-positive
    bandwidth or taper width, an order p below 1, or a tau out of range
    fails before any fit or draw, naming its key.

    two-sample checks its axis keys against the dimension of the data.
    """
    fits = []
    monkeypatch.setattr(cli, "fit_at", lambda *args: fits.append(args))
    monkeypatch.setattr(mc, "draw_dataset", lambda *args: fits.append(args))
    cfg = _write(tmp_path / "cfg.json", payload)
    argv = [command, "--config", cfg, "--out", str(tmp_path / "o")]
    flags = {"fit": ("--data",), "two-sample": ("--data1", "--data2"), "mc": ()}
    for flag in flags[command]:
        argv += [flag, str(sim_data)]
    capsys.readouterr()
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command}: ") and named in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not fits
    assert not (tmp_path / "o").exists()


def _outputs(out: Path) -> dict:
    return {
        str(f.relative_to(out)): f.read_bytes() for f in sorted(out.rglob("*")) if f.is_file()
    }


def test_shared_parser_carries_no_state(tmp_path, capsys, sim_data):
    """Commands run one after another in one process, the parser built once,
    write what each writes alone in a fresh interpreter."""
    ts = _write(tmp_path / "ts.json", {"h": [0.3, 0.3], "taper_b": [2.0, 2.0]})
    bad = _write(tmp_path / "bad.json", {"h": [0.3, 0.3], "taper_b": [2.0, 2.0], "idx": "3"})
    fit = _write(tmp_path / "fit.json", {"h": [0.3, 0.3], "z_grid": [[-0.1, 0.1], [0.0]]})
    mc_cfg = _write(tmp_path / "mc.json", {"reps": 3, "n": 300, "A": [10.0, 10.0]})
    data = ["--data1", str(sim_data), "--data2", str(sim_data)]
    commands = [
        ["two-sample", "--config", ts, *data],
        ["fit", "--config", fit, "--data", str(sim_data)],
        ["two-sample", "--config", bad, *data],
        ["mc", "--config", mc_cfg, "--seed", "11"],
        ["two-sample", "--config", ts, *data],
    ]
    src = str(Path(cli.__file__).resolve().parents[1])
    codes = []
    for k, argv in enumerate(commands):
        shared, fresh = tmp_path / f"shared{k}", tmp_path / f"fresh{k}"
        capsys.readouterr()
        rc = cli.main([*argv, "--out", str(shared)])
        got = capsys.readouterr()
        alone = subprocess.run(
            [sys.executable, "-m", "spatial_lp.cli", *argv, "--out", str(fresh)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=600,
        )
        assert (rc, got.out, got.err) == (alone.returncode, alone.stdout, alone.stderr)
        assert _outputs(shared) == _outputs(fresh)
        codes.append(rc)
    assert codes == [0, 0, 1, 0, 0]


TWO_SAMPLE_FAULT_PROBE = """
import contextlib, io, resource, sys
from spatial_lp import cli
config, out, *pairs = sys.argv[1:]
def call(k):
    a, b = pairs[2 * (k % 2)], pairs[2 * (k % 2) + 1]
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["two-sample", "--config", config, "--out", out,
                       "--data1", a, "--data2", b])
    assert rc == 0
for k in range(3):
    call(k)
faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for k in range(20):
    call(k)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0) / 20)
"""


def test_two_sample_call_makes_few_page_faults(tmp_path):
    """In-process two-sample calls on n = 1000 files reuse heap memory.

    Runs in a fresh interpreter with the allocator's default settings, so
    a temporary that is mapped and unmapped on every call shows as faults.
    """
    rng = np.random.default_rng(17)
    paths = []
    for k in range(4):
        sites = (rng.random((1000, 2)) - 0.5) * 10.0
        path = tmp_path / f"s{k}.csv"
        save_csv(
            SpatialDataset(Region(A=(10.0, 10.0)), sites, rng.standard_normal(1000)), path
        )
        paths.append(str(path))
    cfg = _write(
        tmp_path / "ts.json",
        {"p": 1, "h": [0.25, 0.25], "taper_b": [0.5, 0.5], "z": [0.0, 0.0]},
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", TWO_SAMPLE_FAULT_PROBE, cfg, str(tmp_path / "o"), *paths],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=600,
    )
    assert float(out.stdout) <= 100.0
