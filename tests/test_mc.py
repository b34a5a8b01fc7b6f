"""Monte Carlo harness: mean functions, error cases, summaries, outputs."""

import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from spatial_lp import mc, randfield


def test_paper_mean_values():
    assert mc.paper_mean(np.zeros((1, 2)))[0] == pytest.approx(15 * math.cos(1.0))
    assert mc.paper_mean(np.array([[0.2, -0.2]]))[0] == pytest.approx(
        17.0 * math.cos(1.0)
    )


def test_make_mean_function():
    f = mc.make_mean_function("paper_mean")
    assert f is mc.paper_mean

    g = mc.make_mean_function("x1 + 2*x2")
    np.testing.assert_allclose(g(np.array([[0.1, 0.2], [0.3, -0.1]])), [0.5, 0.1])

    const = mc.make_mean_function("1.5")
    np.testing.assert_allclose(const(np.zeros((3, 2))), [1.5, 1.5, 1.5])


@pytest.mark.parametrize(
    "expr",
    [
        "().__class__",
        "().__class__.__base__.__subclasses__()",
        "x1.real",
        "x1[0]",
        "np.cos(x1)",
        "__import__('os')",
        "[x1]",
        "x1 if x2 else 1",
        "cos(x1, x2)",
        "x1 % 2",
        "True",
        "x1 +",
    ],
)
def test_mean_expression_outside_whitelist_is_rejected(expr):
    with pytest.raises(ValueError):
        mc.make_mean_function(expr)
    with pytest.raises(ValueError):
        mc.ExperimentSpec(reps=1, n=100, A=(10.0, 10.0), mean=expr)


def test_mean_expression_whitelist():
    z = np.array([[0.1, 0.2], [0.3, -0.1]])
    f = mc.make_mean_function("-x1**2 + 3*cos(x2) - exp(x1)/sin(x2 + 1)")
    x1, x2 = z[:, 0], z[:, 1]
    np.testing.assert_allclose(
        f(z), -x1**2 + 3 * np.cos(x2) - np.exp(x1) / np.sin(x2 + 1), rtol=1e-15
    )
    with pytest.raises(ValueError):
        mc.make_mean_function("x3")(z)


def test_bundled_configs_resolve_their_mean():
    configs = sorted((Path(mc.__file__).parent / "configs").glob("*.json"))
    assert configs
    for path in configs:
        f = mc.make_mean_function(json.loads(path.read_text())["mean"])
        assert np.isfinite(f(np.zeros((3, 2)))).all()


def test_error_case_field_model():
    assert mc.ErrorCase("iid", sigma2=1.0).field_model() is None
    model = mc.ErrorCase("car1", lam=0.5, tau2=0.0025).field_model()
    assert isinstance(model, randfield.FieldModel)
    assert model.lam == 0.5
    assert model.tau2 == 0.0025
    assert model.n_knots == 800
    with pytest.raises(ValueError):
        mc.ErrorCase("white-noise").field_model()


def test_experiment_spec_validation():
    with pytest.raises(ValueError):
        mc.ExperimentSpec(reps=0, n=100, A=(10.0, 10.0))
    with pytest.raises(ValueError):
        mc.ExperimentSpec(reps=10, n=100, A=(10.0, 10.0), fit_h=(0.2, -0.2))


def test_summarize_outlier_rule():
    values = [-12.0, 0.0, 1.0]
    mean, var, coverage, retained = mc.summarize(values, [False, True, True], -10.0)
    # -12 is dropped from the moments but still counts against coverage
    assert retained == 2
    assert mean == pytest.approx(0.5)
    assert var == pytest.approx(0.5)
    assert coverage == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        mc.summarize([-20.0, -30.0], [False, False], -10.0)


def test_summarize_explicit_coverage():
    _, _, coverage, _ = mc.summarize(
        [0.0, 0.0, 0.0], np.array([True, False, True]), -10.0
    )
    assert coverage == pytest.approx(2 / 3)


def test_run_replication_deterministic():
    spec = mc.ExperimentSpec(reps=1, n=300, A=(10.0, 10.0), master_seed=5)
    t1, c1 = mc.run_replication(spec, 0)
    t2, c2 = mc.run_replication(spec, 0)
    assert t1 == t2 and c1 == c2
    t3, _ = mc.run_replication(spec, 1)
    assert t3 != t1


def test_run_experiment_reproducible_and_consistent():
    spec = mc.ExperimentSpec(reps=8, n=300, A=(10.0, 10.0), master_seed=5)
    s1 = mc.run_experiment(spec, threads=1)
    s2 = mc.run_experiment(spec, threads=1)
    assert s1.t_values == s2.t_values
    assert s1.covered == s2.covered
    assert s1.rep_ids == list(range(8))
    assert not s1.failures
    assert sum(s1.hist_counts) == len(s1.t_values)
    assert s1.coverage == pytest.approx(np.mean(s1.covered))
    # replication 0 matches the standalone entry point
    t0, _ = mc.run_replication(spec, 0)
    assert s1.t_values[0] == t0


def test_run_experiment_records_failures():
    spec = mc.ExperimentSpec(
        reps=10,
        n=100,
        A=(10.0, 10.0),
        master_seed=3,
        fit_h=(0.15, 0.15),
        pilot_h=(0.15, 0.15),
        variance_h=(0.15, 0.15),
    )
    s = mc.run_experiment(spec)
    assert 0 < len(s.failures) < spec.reps
    failed = {f["rep"] for f in s.failures}
    assert sorted(failed | set(s.rep_ids)) == list(range(spec.reps))
    assert len(s.rep_ids) == len(s.t_values) == len(s.covered)
    for f in s.failures:
        assert "error" in f and f["error"]


def test_car1_case_runs():
    spec = mc.ExperimentSpec(
        reps=2,
        n=300,
        A=(10.0, 10.0),
        master_seed=11,
        error=mc.ErrorCase("car1", sigma2=0.01, lam=1.0, tau2=0.01, n_knots=200),
    )
    s = mc.run_experiment(spec)
    assert len(s.t_values) == 2
    assert all(np.isfinite(s.t_values))


def test_write_outputs(tmp_path):
    spec = mc.ExperimentSpec(reps=5, n=300, A=(10.0, 10.0), master_seed=5)
    summary = mc.run_experiment(spec)
    mc.write_outputs(summary, tmp_path)

    payload = json.loads((tmp_path / "summary.json").read_text())
    assert payload["coverage"] == summary.coverage
    assert payload["retained"] == summary.retained
    assert payload["hist_edges"][0] == "-inf"
    assert payload["hist_edges"][-1] == "inf"
    assert payload["metadata"]["spec"]["n"] == 300

    with (tmp_path / "that.csv").open() as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 5
    assert float(rows[0]["t_hat"]) == summary.t_values[0]

    with (tmp_path / "hist.csv").open() as f:
        hist = list(csv.DictReader(f))
    assert len(hist) == len(summary.hist_counts)
    assert sum(int(r["count"]) for r in hist) == len(summary.t_values)


SPIN_PROBE = """
import time
from spatial_lp import mc
# Table-1 case (ii): n = 1000, CAR(1) field on 800 knots
spec = mc.ExperimentSpec(
    reps=20, n=1000, A=(10.0, 10.0), master_seed=20220718,
    error=mc.ErrorCase(
        "car1", sigma2=0.01, lam=1.0, tau2=0.01, n_knots=800, buffer=2.0
    ),
)
mc.run_replication(spec, 0)
cpu0, thread0 = time.process_time(), time.thread_time()
for rep in range(spec.reps):
    mc.run_replication(spec, rep)
print(time.process_time() - cpu0, time.thread_time() - thread0)
"""


def test_replication_leaves_blas_workers_idle():
    """Case-(ii) replications use no CPU off the calling thread.

    A BLAS call large enough to go multi-threaded wakes worker threads that
    then busy-wait: process CPU time runs ahead of the calling thread's.
    Runs in a fresh interpreter so the BLAS threads are the library default.
    On a one-core host BLAS starts no workers, and the check passes trivially.
    """
    src = str(Path(mc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", SPIN_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=600,
    )
    process_s, thread_s = map(float, out.stdout.split())
    assert process_s - thread_s <= 0.25 * thread_s


FAULT_PROBE = """
import resource
from spatial_lp import mc
# Table-1 case (ii): n = 1000, CAR(1) field on 800 knots
spec = mc.ExperimentSpec(
    reps=20, n=1000, A=(10.0, 10.0), master_seed=20220718,
    error=mc.ErrorCase(
        "car1", sigma2=0.01, lam=1.0, tau2=0.01, n_knots=800, buffer=2.0
    ),
)
for rep in range(3):
    mc.run_replication(spec, rep)
faults0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for rep in range(spec.reps):
    mc.run_replication(spec, rep)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults0) / spec.reps)
"""


def test_replication_makes_few_page_faults():
    """Case-(ii) replications reuse heap memory instead of faulting in pages.

    Runs in a fresh interpreter with the allocator's default settings. A
    temporary over glibc's mmap threshold is mapped on each allocation and
    unmapped on free, so every use faults its pages in again (about 2 500
    minor faults per replication with dense (rows x n) weight blocks).
    """
    src = str(Path(mc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", FAULT_PROBE],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True, timeout=600,
    )
    assert float(out.stdout) <= 100.0


def test_from_config_reads_only_present_keys():
    base = {"reps": 2, "n": 100, "A": [10.0, 10.0]}
    spec = mc.ExperimentSpec.from_config(base)
    assert spec == mc.ExperimentSpec(reps=2, n=100, A=(10.0, 10.0))
    assert (spec.fit_h, spec.pilot_h, spec.variance_h, spec.taper_b, spec.z) == (
        (0.2, 0.2), (0.25, 0.25), (0.25, 0.25), (8.0, 8.0), (0.0, 0.0)
    )
    # sigma2 defaults by error kind
    spec = mc.ExperimentSpec.from_config(
        {**base, "error": {"kind": "car1"}}, master_seed=4
    )
    assert spec.error == mc.ErrorCase(
        "car1", sigma2=0.01, lam=1.0, tau2=0.01, n_knots=800, buffer=2.0
    )
    assert spec.master_seed == 4
    assert mc.ErrorCase().sigma2 == 1.0
    # z is the origin in any dimension; the Table-1 widths are defaults in d = 2 only
    spec = mc.ExperimentSpec.from_config(
        {**base, "A": [10.0], "mean": "x1", "fit_h": [0.2]}
    )
    assert (spec.z, spec.fit_h, spec.pilot_h) == ((0.0,), (0.2,), None)
    with pytest.raises(ValueError, match="pilot_h has no default in d = 1"):
        mc.run_experiment(spec)
