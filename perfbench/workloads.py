"""The benchmark's three workloads.

Each workload builds its inputs from the seed in `setup`, runs one
operation per input in `run`, and checks an operation's output against the
reference computations of `oracle` in `check`. One round is one operation
per input, always in the same order, so counts per operation repeat
exactly at a fixed seed however many rounds a run makes.
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import numpy as np

import oracle
from spatial_lp import cli, dataset, kernels, lpfit, mc

class OutputMismatch(Exception):
    """An operation returned a result that disagrees with the reference."""


def _rel(a, b) -> float:
    """max |a - b| / max |b| over two equal-length vectors."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = float(np.max(np.abs(b)))
    return float(np.max(np.abs(a - b))) / scale if scale else float(np.max(np.abs(a)))


class McCar1:
    """Replications of the bundled Table-1 case (ii): CAR(1) field plus noise."""

    name = "mc-car1"
    CONFIG = "table1_case_ii.json"
    REPS = 16
    TOL = 1e-10

    def setup(self, seed: int, workdir: Path) -> None:
        path = Path(mc.__file__).parent / "configs" / self.CONFIG
        cfg = json.loads(path.read_text())
        oracle.check_mc_config(cfg)
        err, kern = cfg["error"], cfg["kernel"]
        self.cfg, self.seed = cfg, seed
        self.spec = mc.ExperimentSpec(
            reps=self.REPS,
            n=cfg["n"],
            A=tuple(cfg["A"]),
            mean=cfg["mean"],
            error=mc.ErrorCase(
                err["kind"], sigma2=err["sigma2"], lam=err["lambda"],
                tau2=err["tau2"], n_knots=err["n_knots"], buffer=err["buffer"],
            ),
            p=cfg["p"],
            kernel_family=kern["family"],
            C_K=kern["C_K"],
            fit_h=tuple(cfg["fit_h"]),
            pilot_h=tuple(cfg["pilot_h"]),
            variance_h=tuple(cfg["variance_h"]),
            taper_b=tuple(cfg["taper_b"]),
            z=tuple(cfg["z"]),
            tau=cfg["tau"],
            master_seed=seed,
        )
        self.inputs = list(range(self.REPS))
        self._ref: dict[int, float] = {}

    def run(self, rep):
        return mc.run_replication(self.spec, rep)

    def check(self, rep, out) -> None:
        if rep not in self._ref:
            self._ref[rep] = oracle.mc_t_hat(self.cfg, self.seed, rep)
        t_ref = self._ref[rep]
        t_hat, covered = out
        if not abs(t_hat - t_ref) <= self.TOL:
            raise OutputMismatch(f"rep {rep}: t_hat {t_hat!r} != {t_ref!r}")
        q = oracle.normal_quantile(1.0 - self.cfg["tau"] / 2.0)
        if covered != (abs(t_ref) <= q):
            raise OutputMismatch(f"rep {rep}: coverage flag {covered} for t {t_ref}")


class SurfaceGrid:
    """Order-2 fit and pilot bias at each point of a 21 x 21 grid, n = 16 000."""

    name = "surface-grid"
    N = 16_000
    A = (40.0, 40.0)
    P = 2
    H = (0.2, 0.2)
    PILOT_H = (0.25, 0.25)
    GRID = np.linspace(-0.3, 0.3, 21)
    TOL = 1e-8

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 1])
        A = np.asarray(self.A)
        self.sites = (rng.random((self.N, 2)) - 0.5) * A
        self.y = oracle.paper_mean(self.sites / A) + rng.standard_normal(self.N)
        made = dataset.SpatialDataset(
            region=dataset.Region(A=self.A), sites=self.sites, responses=self.y
        )
        path = workdir / "surface.csv"
        dataset.save_csv(made, path)
        self.data = dataset.load_csv(path)
        self.config = lpfit.FitConfig(
            p=self.P, kernel=kernels.KernelSpec("product-triangular", 1.0, 2),
            h=self.H, pilot_h=self.PILOT_H,
        )
        self.inputs = [np.array([z1, z2]) for z1 in self.GRID for z2 in self.GRID]
        self._ref: dict[bytes, tuple] = {}

    def run(self, z):
        fit = lpfit.fit_at(self.data, self.config, z)
        bias = lpfit.estimate_bias(self.data, self.config, z)
        return tuple(fit.layout.indices), fit.beta_hat.tolist(), bias.tolist(), fit.n_eff

    def check(self, z, out) -> None:
        key = z.tobytes()
        if key not in self._ref:
            self._ref[key] = oracle.surface_point(
                self.sites, self.y, np.asarray(self.A), z,
                np.asarray(self.H), np.asarray(self.PILOT_H), 1.0, self.P,
            )
        ref_fit, ref_bias, ref_n_eff = self._ref[key]
        indices, beta_hat, bias, n_eff = out
        h = np.asarray(self.H)
        exps = [oracle.index_exponent(idx, 2) for idx in indices]
        scaled = [b * np.prod(h ** np.asarray(e)) for b, e in zip(beta_hat, exps)]
        errs = {
            "beta_hat": _rel(scaled, [ref_fit[e] for e in exps]),
            "bias": _rel(bias, [ref_bias[e] for e in exps]),
        }
        bad = {name: v for name, v in errs.items() if not v <= self.TOL}
        if bad or n_eff != ref_n_eff:
            raise OutputMismatch(
                f"z={z}: relative errors {bad}, n_eff {n_eff} vs {ref_n_eff}"
            )


class TwoSample:
    """`spatial-lp two-sample` in process, on a pool of null pairs, n = 1000."""

    name = "two-sample"
    PAIRS = 10
    N = 1000
    A = (10.0, 10.0)
    CONFIG = {"p": 1, "h": [0.25, 0.25], "taper_b": [0.5, 0.5],
              "z": [0.0, 0.0], "idx": "", "tau": 0.05}
    TOL = 1e-9

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng([seed, 2])
        A = np.asarray(self.A)
        self.samples = []
        for k in range(self.PAIRS):
            pair = []
            for s in (1, 2):
                sites = (rng.random((self.N, 2)) - 0.5) * A
                y = 1.0 + sites[:, 0] / A[0] + rng.standard_normal(self.N)
                path = workdir / f"pair{k}_{s}.csv"
                dataset.save_csv(
                    dataset.SpatialDataset(
                        region=dataset.Region(A=self.A), sites=sites, responses=y
                    ),
                    path,
                )
                pair.append((sites, y, str(path)))
            self.samples.append(pair)
        config = workdir / "two_sample.json"
        config.write_text(json.dumps(self.CONFIG))
        self.argv = ["two-sample", "--config", str(config), "--out", str(workdir / "ts")]
        self.inputs = list(range(self.PAIRS))
        self._ref: dict[int, tuple] = {}

    def run(self, k):
        (_, _, p1), (_, _, p2) = self.samples[k]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main([*self.argv, "--data1", p1, "--data2", p2])
        if rc != 0:
            raise RuntimeError(f"two-sample exited with code {rc}")
        report = json.loads(buf.getvalue().splitlines()[-1])
        return report["T"], report["V_check"], report["p_value"]

    def check(self, k, out) -> None:
        if k not in self._ref:
            (s1, y1, _), (s2, y2, _) = self.samples[k]
            c = self.CONFIG
            self._ref[k] = oracle.two_sample(
                s1, y1, s2, y2, np.asarray(self.A), np.asarray(c["z"]),
                np.asarray(c["h"]), np.asarray(c["taper_b"]), 1.0, c["p"],
            )
        T, V, p = self._ref[k]
        got_T, got_V, got_p = out
        # T is centred on 0 under the null, so its error is taken against max(|T|, 1)
        errs = {
            "T": abs(got_T - T) / max(abs(T), 1.0),
            "V_check": abs(got_V - V) / abs(V),
            "p_value": abs(got_p - p) / abs(p),
        }
        bad = {name: v for name, v in errs.items() if not v <= self.TOL}
        if bad:
            raise OutputMismatch(f"pair {k}: relative errors {bad}")


WORKLOADS = {w.name: w for w in (McCar1, SurfaceGrid, TwoSample)}
