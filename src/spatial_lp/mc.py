"""Monte Carlo harness for the normalized-intercept coverage study.

Each replication generates sites, simulates the error process, fits the
local polynomial at the evaluation point, plugs in the estimated bias and
variance, and records the normalized intercept statistic
T_hat = (beta0_hat - bias0_hat - m(z)) / sqrt(var_hat) together with the
confidence-interval coverage of m(z).
"""

from __future__ import annotations

import ast
import csv
import json
import math
import operator
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import kernels, randfield
from .dataset import Region, SamplingDensity, SpatialDataset, generate_sites, rep_rng
from .inference import normal_quantile, variance_hat
from .lpfit import FitConfig, FitError, derivative_variance, estimate_bias, fit_at
from .randfield import FieldModel

HIST_RANGE = (-5.0, 5.0)
HIST_BINS = 30


def paper_mean(z: np.ndarray) -> np.ndarray:
    """Benchmark trend surface (10 z1 + 15) cos(z1 + z2 + 1) on R_0 in d=2."""
    z = np.atleast_2d(z)
    if z.shape[1] < 2:
        raise ValueError(f"mean paper_mean uses x2 in d={z.shape[1]}")
    return (10.0 * z[:, 0] + 15.0) * np.cos(z[:, 0] + z[:, 1] + 1.0)


_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_FUNCTIONS = {"cos": np.cos, "sin": np.sin, "exp": np.exp}
_AXIS = re.compile(r"x([1-9][0-9]*)")


def _compile_mean(node):
    """Evaluator z -> value of a whitelisted expression tree; else ValueError.

    Allowed: numbers, x1..xd, + - * / **, unary minus and cos, sin, exp
    of one argument.
    """
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        value = float(node.value)  # an int power tower would never finish
        return lambda z: value
    if isinstance(node, ast.Name) and _AXIS.fullmatch(node.id):
        j = int(node.id[1:]) - 1

        def axis(z):
            if j >= z.shape[1]:
                raise ValueError(f"mean expression uses {node.id} in d={z.shape[1]}")
            return z[:, j]

        return axis
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        op = _BINARY[type(node.op)]
        left, right = _compile_mean(node.left), _compile_mean(node.right)
        return lambda z: op(left(z), right(z))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        operand = _compile_mean(node.operand)
        return lambda z: -operand(z)
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and len(node.args) == 1
        and not node.keywords
    ):
        fn, arg = _FUNCTIONS[node.func.id], _compile_mean(node.args[0])
        return lambda z: fn(arg(z))
    raise ValueError(f"mean expression may not contain {ast.unparse(node)!r}")


def make_mean_function(spec):
    """Resolve a mean spec: builtin name or an arithmetic expression in x1..xd.

    Expressions are parsed, never executed; see _compile_mean for what they
    may contain.
    """
    if spec == "paper_mean":
        return paper_mean
    try:
        tree = ast.parse(spec, mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"mean expression {spec!r} is not valid: {exc.msg}")
    evaluate = _compile_mean(tree.body)

    def expr_mean(z):
        z = np.atleast_2d(z)
        return np.broadcast_to(evaluate(z), (z.shape[0],))

    return expr_mean


# measurement-noise variance of each error kind when none is given
SIGMA2 = {"iid": 1.0, "car1": 0.01}

# bandwidths and taper widths of the Table-1 cases: defaults in d = 2 only
TABLE1 = {
    "fit_h": (0.2, 0.2), "pilot_h": (0.25, 0.25), "variance_h": (0.25, 0.25),
    "taper_b": (8.0, 8.0),
}


@dataclass(frozen=True)
class ErrorCase:
    """Error process: pure measurement noise or CAR(1)-plus-noise."""

    kind: str = "iid"  # a key of SIGMA2
    sigma2: float | None = None  # None: SIGMA2[kind]
    lam: float = 1.0
    tau2: float = 0.01
    n_knots: int | None = 800
    buffer: float = 2.0

    def __post_init__(self):
        if self.kind not in SIGMA2:
            raise ValueError(f"unknown error kind {self.kind!r}")
        if self.sigma2 is None:
            object.__setattr__(self, "sigma2", SIGMA2[self.kind])
        if self.sigma2 < 0:
            raise ValueError("measurement-noise variance sigma2 must be >= 0")
        self.field_model()  # a bad lambda, tau2, n_knots or buffer fails here

    def field_model(self) -> FieldModel | None:
        if self.kind == "iid":
            return None
        return FieldModel(
            self.lam, tau2=self.tau2, n_knots=self.n_knots, buffer=self.buffer
        )


@dataclass(frozen=True)
class ExperimentSpec:
    reps: int
    n: int
    A: tuple[float, ...]
    density: SamplingDensity = field(default_factory=SamplingDensity)
    mean: str = "paper_mean"
    mean_offset: float = 0.0
    error: ErrorCase = field(default_factory=ErrorCase)
    p: int = 1
    kernel_family: str = "product-triangular"
    C_K: float = 1.0
    # None: the TABLE1 value in d = 2, unset in any other dimension
    fit_h: tuple[float, ...] | None = None
    pilot_h: tuple[float, ...] | None = None
    variance_h: tuple[float, ...] | None = None
    taper_b: tuple[float, ...] | None = None
    z: tuple[float, ...] | None = None  # None: the origin
    tau: float = 0.05
    master_seed: int = 0
    outlier_threshold: float = -10.0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("replication count must be >= 1")
        if self.n < 1:
            raise ValueError("site count n must be >= 1")
        if not (isinstance(self.tau, (int, float)) and 0.0 < self.tau < 1.0):
            raise ValueError(f"tau must be a number in (0, 1), got {self.tau!r}")
        d = len(self.A)
        if self.z is None:
            object.__setattr__(self, "z", (0.0,) * d)
        if d == 2:
            for name, value in TABLE1.items():
                if getattr(self, name) is None:
                    object.__setattr__(self, name, value)
        for name in (*TABLE1, "z"):
            given = getattr(self, name)
            if given is not None and len(given) != d:
                raise ValueError(f"{name} has {len(given)} entries; A has {d} axes")
        for hs in (self.fit_h, self.pilot_h, self.variance_h, self.taper_b):
            if hs is not None and any(v <= 0 for v in hs):
                raise ValueError("bandwidths and taper widths must be positive")
        self.density.check_axes(d)
        # a bad expression, or one naming an axis beyond d, fails before any replication
        with np.errstate(all="ignore"):
            try:
                make_mean_function(self.mean)(np.zeros((1, d)))
            except ArithmeticError as exc:
                raise ValueError(f"mean expression {self.mean!r} fails: {exc}")

    @classmethod
    def from_config(cls, cfg, master_seed=None) -> "ExperimentSpec":
        """The spec of an mc config, or of a simulate config plus "reps".

        Reads only the keys present, so every default is a field default. A
        master_seed given here overrides the config's.
        """
        kw = {"reps": cfg["reps"], "n": cfg["n"], "A": tuple(cfg["A"])}
        plain = ("mean", "mean_offset", "p", "tau", "master_seed", "outlier_threshold")
        kw.update({k: cfg[k] for k in plain if k in cfg})
        kw.update({k: tuple(cfg[k]) for k in (*TABLE1, "z") if k in cfg})
        density, err, kern = (cfg.get(k) or {} for k in ("density", "error", "kernel"))
        if not all(isinstance(s, dict) for s in (density, err, kern)):
            raise ValueError("density, error and kernel must be JSON objects")
        if density:
            kw["density"] = SamplingDensity(**density)
        if err:
            err = {("lam" if k == "lambda" else k): v for k, v in err.items()}
            kw["error"] = ErrorCase(**err)
        kernel_fields = {"family": "kernel_family", "C_K": "C_K"}
        kw.update({kernel_fields[k]: v for k, v in kern.items()})
        if master_seed is not None:
            kw["master_seed"] = master_seed
        return cls(**kw)

    def region(self) -> Region:
        return Region(A=self.A)

    def kernel(self) -> kernels.KernelSpec:
        return kernels.KernelSpec(
            family=self.kernel_family, support_halfwidth=self.C_K, d=len(self.A)
        )


@dataclass
class ExperimentSummary:
    rep_ids: list
    t_values: list
    covered: list
    failures: list
    mean: float | None
    variance: float | None
    coverage: float
    retained: int
    hist_edges: list
    hist_counts: list
    metadata: dict


def simulate_responses(spec: ExperimentSpec, sites: np.ndarray, rng) -> np.ndarray:
    """Mean surface plus the error e(x) + sigma eps at the given sites.

    e is zero for iid errors and the CAR(1) field for car1; eps is iid
    standard normal, drawn from rng after the field.
    """
    region = spec.region()
    y = make_mean_function(spec.mean)(sites / region.sides()) + spec.mean_offset
    model = spec.error.field_model()
    if model is None:
        e = np.zeros(sites.shape[0])
    else:
        e = randfield.simulate_field(model, region, sites, rng)
    eps = rng.standard_normal(sites.shape[0])
    return y + (e + math.sqrt(spec.error.sigma2) * eps)


def draw_dataset(spec: ExperimentSpec, rep: int) -> SpatialDataset:
    """Replication rep's data: sites, then responses, from one stream."""
    rng = rep_rng(spec.master_seed, rep)
    region = spec.region()
    sites = generate_sites(region, spec.density, spec.n, rng)
    y = simulate_responses(spec, sites, rng)
    return SpatialDataset(region=region, sites=sites, responses=y)


def run_replication(spec: ExperimentSpec, rep: int) -> tuple[float, bool]:
    """One replication: returns (T_hat, ci_covered)."""
    dataset = draw_dataset(spec, rep)

    kern = spec.kernel()
    config = FitConfig(p=spec.p, kernel=kern, h=spec.fit_h, pilot_h=spec.pilot_h)
    zpt = np.asarray(spec.z)

    fit = fit_at(dataset, config, zpt)
    bias_vec = estimate_bias(dataset, config, zpt)

    res_config = FitConfig(p=spec.p, kernel=kern, h=spec.variance_h)
    taper = kernels.TaperSpec(widths=spec.taper_b)
    varest = variance_hat(dataset, res_config, taper, zpt)

    var0 = derivative_variance(config, (), varest.W_hat, fit.An)

    mean_fn = make_mean_function(spec.mean)
    beta0_true = float(mean_fn(zpt[None, :])[0]) + spec.mean_offset
    t_hat = (fit.beta_hat[0] - bias_vec[0] - beta0_true) / math.sqrt(var0)
    q = normal_quantile(1.0 - spec.tau / 2.0)
    return float(t_hat), bool(abs(t_hat) <= q)


def _rep_worker(args):
    spec, rep = args
    try:
        t, cov = run_replication(spec, rep)
        return rep, t, cov, None
    except (FitError, ValueError) as exc:
        return rep, None, None, f"{type(exc).__name__}: {exc}"


def summarize(values, covered, outlier_threshold):
    """Sample mean/variance of retained T values plus the share of covered flags.

    Values below the outlier threshold are dropped from mean/variance only,
    mirroring the exclusion rule of the benchmark study.
    """
    values = np.asarray(values, dtype=float)
    retained = values[values >= outlier_threshold]
    if retained.size == 0:
        raise ValueError("no replications retained after outlier exclusion")
    mean = float(retained.mean())
    var = float(retained.var(ddof=1)) if retained.size > 1 else None
    coverage = float(np.mean(covered))
    return mean, var, coverage, retained.size


class ReplicationsFailed(Exception):
    """Every replication of an experiment failed, so there is nothing to summarize."""


def run_experiment(spec: ExperimentSpec, threads: int = 1) -> ExperimentSummary:
    """All replications of spec, in a pool of at most min(threads, reps) processes."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    unset = [name for name in TABLE1 if getattr(spec, name) is None]
    if unset:
        raise ValueError(f"{unset[0]} has no default in d = {len(spec.A)}")
    jobs = [(spec, r) for r in range(spec.reps)]
    workers = min(threads, spec.reps)
    if workers > 1:
        # the pool forks every worker at its first submit
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_rep_worker, jobs, chunksize=8))
    else:
        results = [_rep_worker(j) for j in jobs]
    results.sort(key=lambda r: r[0])

    rep_ids, t_values, covered, failures = [], [], [], []
    for rep, t, cov, err in results:
        if err is None:
            rep_ids.append(rep)
            t_values.append(t)
            covered.append(cov)
        else:
            failures.append({"rep": rep, "error": err})
    if not t_values:
        raise ReplicationsFailed(
            f"all {spec.reps} replications failed; the first: {failures[0]['error']}"
        )

    mean, var, coverage, retained = summarize(
        t_values, np.asarray(covered), spec.outlier_threshold
    )

    finite = np.asarray(t_values)
    inner_edges = np.linspace(*HIST_RANGE, HIST_BINS + 1)
    counts, _ = np.histogram(finite, bins=inner_edges)
    underflow = int((finite < HIST_RANGE[0]).sum())
    overflow = int((finite > HIST_RANGE[1]).sum())
    edges = [-math.inf, *inner_edges.tolist(), math.inf]
    all_counts = [underflow, *counts.tolist(), overflow]

    return ExperimentSummary(
        rep_ids=[int(r) for r in rep_ids],
        t_values=[float(v) for v in t_values],
        covered=[bool(c) for c in covered],
        failures=failures,
        mean=mean,
        variance=var,
        coverage=coverage,
        retained=retained,
        hist_edges=edges,
        hist_counts=all_counts,
        metadata={
            "master_seed": spec.master_seed,
            "reps": spec.reps,
            "n_failures": len(failures),
            "spec": asdict(spec),
        },
    )


def write_outputs(summary: ExperimentSummary, outdir) -> None:
    """summary.json, that.csv (per-replication), hist.csv (plot-ready bins)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    payload = asdict(summary)
    # the open-ended overflow bins are not representable in strict JSON
    payload["hist_edges"] = [
        ("inf" if e > 0 else "-inf") if math.isinf(e) else e
        for e in payload["hist_edges"]
    ]
    (outdir / "summary.json").write_text(
        json.dumps(payload, indent=2, allow_nan=False) + "\n"
    )
    with (outdir / "that.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["rep", "t_hat", "covered"])
        for r, t, c in zip(summary.rep_ids, summary.t_values, summary.covered):
            w.writerow([r, f"{t:.17g}", int(c)])
    with (outdir / "hist.csv").open("w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["bin_left", "bin_right", "count"])
        for left, right, count in zip(
            summary.hist_edges[:-1], summary.hist_edges[1:], summary.hist_counts
        ):
            w.writerow([left, right, count])
