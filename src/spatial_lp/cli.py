"""Command-line front end: simulate, fit, mc, two-sample, moments.

Configs are strict JSON: any unknown key aborts before computation.
Exit codes: 0 success, 1 config/input error, 2 too many replication
failures in an mc run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, kernels, mc
from .basis import build_layout, parse_index, validate_index
from .dataset import load_csv, save_csv, save_metadata
from .inference import (
    confidence_interval,
    residual_means_once,
    two_sample_test,
    two_sample_variance,
    variance_hat,
)
from .lpfit import FitConfig, FitError, derivative_bias, estimate_bias, fit_at


class ConfigError(Exception):
    pass


class _Config(dict):
    """A parsed config; reading a required key that is absent names it."""

    def __missing__(self, key):
        raise ConfigError(f"config is missing required key {key!r}")


# Keys of the nested config objects, checked as strictly as the top level.
SECTION_KEYS = {
    "density": {"kind", "params"},
    "error": {"kind", "sigma2", "lambda", "tau2", "n_knots", "buffer"},
    "kernel": {"family", "C_K"},
}
# Keys holding one number per axis, positive but for z's; z_grid holds one
# array of them per axis.
AXIS_KEYS = {"A", "h", "fit_h", "pilot_h", "variance_h", "taper_b", "z"}
# Keys holding one scalar, a section key written "section.key", and what each
# must be. null asks for the default seed, a Poisson knot count, the automatic
# knot margin or the error kind's sigma2.
SCALAR_KEYS = {
    "n": "an integer", "reps": "an integer", "p": "an integer >= 1", "d": "an integer",
    "master_seed": "an integer", "seed": "an integer or null",
    "error.n_knots": "an integer or null",
    "error.sigma2": "a number or null", "error.buffer": "a number or null",
    "error.lambda": "a number", "error.tau2": "a number", "kernel.C_K": "a number",
    "mean_offset": "a number", "outlier_threshold": "a number",
    "max_failure_fraction": "a number",
    "mean": "a string", "error.kind": "a string",
}


def _is_numbers(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v)
        for v in value
    )


def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


_IS_KIND = {
    "an integer": _is_integer,
    "an integer >= 1": lambda v: _is_integer(v) and v >= 1,
    "a number": lambda v: _is_numbers([v]),
    "a string": lambda v: isinstance(v, str),
}


def _load_config(path, allowed: set) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: malformed JSON at byte {exc.pos}: {exc.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = set(cfg) - allowed
    for key in allowed & SECTION_KEYS.keys():
        section = cfg.get(key)
        if section is None:
            continue
        if not isinstance(section, dict):
            raise ConfigError(f"{path}: {key} must be a JSON object")
        unknown |= {f"{key}.{k}" for k in set(section) - SECTION_KEYS[key]}
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    for key in sorted(AXIS_KEYS & cfg.keys()):
        if not _is_numbers(cfg[key]):
            raise ConfigError(f"{path}: {key} must be a JSON array of numbers")
        if key != "z" and min(cfg[key], default=1.0) <= 0.0:
            raise ConfigError(f"{path}: {key} must be positive, got {cfg[key]}")
    for key, kind in sorted(SCALAR_KEYS.items()):
        section, _, name = key.rpartition(".")
        holder = (cfg.get(section) or {}) if section else cfg
        if name not in holder:
            continue
        value = holder[name]
        base, nullable, _ = kind.partition(" or null")
        if not (value is None and nullable or _IS_KIND[base](value)):
            raise ConfigError(f"{path}: {key} must be {kind}, got {value!r}")
    grid = cfg.get("z_grid", [])
    if not (isinstance(grid, list) and all(map(_is_numbers, grid))):
        raise ConfigError(f"{path}: z_grid must be a JSON array of arrays of numbers")
    return _Config(cfg)


def _check_axes(cfg, d: int, per: str) -> None:
    """The bandwidths, z and taper_b hold one number, and z_grid one array,
    for each of d axes."""
    for key in ("h", "pilot_h", "variance_h", "z", "z_grid", "taper_b"):
        if key in cfg and len(cfg[key]) != d:
            raise ConfigError(f"{key} has {len(cfg[key])} axes, expected {d} ({per})")


def _level(cfg, upper: float) -> float:
    """The config's tau (or its default), checked to lie in (0, upper)."""
    tau = cfg.get("tau", mc.ExperimentSpec.tau)
    if not (_is_numbers([tau]) and 0.0 < tau < upper):
        raise ConfigError(f"tau must be a number in (0, {upper:g}), got {tau!r}")
    return tau


def _kernel(cfg, d) -> kernels.KernelSpec:
    # defaults here and below are the mc.ExperimentSpec field defaults, which
    # a dataclass keeps as class attributes
    cfg = cfg or {}
    return kernels.KernelSpec(
        family=cfg.get("family", mc.ExperimentSpec.kernel_family),
        support_halfwidth=cfg.get("C_K", mc.ExperimentSpec.C_K),
        d=d,
    )


def _provenance(cfg) -> dict:
    return {"version": __version__, "config": cfg}


SIMULATE_KEYS = {"n", "A", "density", "mean", "error", "seed"}


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config, SIMULATE_KEYS)
    seed = args.seed if args.seed is not None else cfg.get("seed")
    # one draw of the mc response model: replication 0 of a one-rep spec
    spec = mc.ExperimentSpec.from_config(_Config(cfg, reps=1), master_seed=seed)
    dataset = mc.draw_dataset(spec, 0)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, out / "data.csv")
    save_metadata(
        out / "data.meta.json",
        region=dataset.region, n=spec.n, seed=spec.master_seed, density=spec.density,
    )
    (out / "provenance.json").write_text(json.dumps(_provenance(cfg), indent=2))
    return 0


FIT_KEYS = {"p", "kernel", "h", "z", "z_grid", "pilot_h", "variance_h", "taper_b", "tau"}


def cmd_fit(args) -> int:
    cfg = _load_config(args.config, FIT_KEYS)
    dataset = load_csv(args.data)
    d = dataset.d
    _check_axes(cfg, d, "one per axis of the data")
    tau = _level(cfg, 1.0)
    kern = _kernel(cfg.get("kernel"), d)
    config = FitConfig(
        p=cfg.get("p", mc.ExperimentSpec.p),
        kernel=kern,
        h=tuple(cfg["h"]),
        pilot_h=tuple(cfg["pilot_h"]) if "pilot_h" in cfg else None,
    )
    if "z" in cfg:
        zs = [tuple(cfg["z"])]
    elif "z_grid" in cfg:
        axes = [np.asarray(a, dtype=float) for a in cfg["z_grid"]]
        mesh = np.meshgrid(*axes, indexing="ij")
        zs = list(zip(*(m.ravel() for m in mesh)))
    else:
        raise ConfigError("fit config needs 'z' or 'z_grid'")

    with_ci = "taper_b" in cfg
    if with_ci:
        taper = kernels.TaperSpec(widths=tuple(cfg["taper_b"]))
        variance_h = tuple(cfg.get("variance_h", cfg["h"]))
        res_cfg = FitConfig(p=config.p, kernel=kern, h=variance_h)
        mhat = residual_means_once(dataset, res_cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for z in zs:
        zarr = np.asarray(z, dtype=float)
        zkey = ";".join(f"{v:g}" for v in z)
        try:
            fit = fit_at(dataset, config, zarr)
            bias = estimate_bias(dataset, config, zarr) if config.pilot_h else None
            if with_ci:
                varest = variance_hat(dataset, res_cfg, taper, zarr, mhat)
            for idx in fit.layout.indices:
                row = {
                    "z": zkey,
                    "index": "".join(map(str, idx)),
                    "estimate": fit.derivative(idx),
                    "bias": "" if bias is None else derivative_bias(config, idx, bias),
                    "boundary": int(fit.boundary_flag),
                }
                if with_ci:
                    lo, hi = confidence_interval(fit, bias, varest.W_hat, idx, tau)
                    row["W_hat"] = varest.W_hat
                    row["ci_lo"], row["ci_hi"] = lo, hi
                rows.append(row)
        except (FitError, ValueError) as exc:
            rows.append({"z": zkey, "error": f"{type(exc).__name__}: {exc}"})
    fields = ["z", "index", "estimate", "bias", "boundary", "error"]
    if with_ci:
        fields += ["W_hat", "ci_lo", "ci_hi"]
    with (out / "fits.csv").open("w", newline="") as f:
        w = csv.DictWriter(f, fieldnames=fields, restval="")
        w.writeheader()
        w.writerows(rows)
    (out / "provenance.json").write_text(json.dumps(_provenance(cfg), indent=2))
    return 0


MC_KEYS = {
    "reps", "n", "A", "density", "mean", "mean_offset", "error", "p", "kernel",
    "fit_h", "pilot_h", "variance_h", "taper_b", "z", "tau", "master_seed",
    "outlier_threshold", "max_failure_fraction",
}


def cmd_mc(args) -> int:
    cfg = _load_config(args.config, MC_KEYS)
    spec = mc.ExperimentSpec.from_config(cfg, master_seed=args.seed)
    try:
        summary = mc.run_experiment(spec, threads=args.threads)
    except mc.ReplicationsFailed as exc:
        print(f"error: mc: {exc}", file=sys.stderr)
        return 2
    summary.metadata["provenance"] = _provenance(cfg)
    mc.write_outputs(summary, args.out)
    max_frac = cfg.get("max_failure_fraction", 0.05)
    if len(summary.failures) > max_frac * spec.reps:
        print(
            f"warning: {len(summary.failures)} of {spec.reps} replications failed",
            file=sys.stderr,
        )
        return 2
    return 0


def _derivative_index(text, d: int, p: int):
    """The multi-index of an idx string, checked against the dimension and order."""
    try:
        idx = parse_index(text)
        validate_index(idx, d)
    except ValueError as exc:
        raise ConfigError(f"idx: {exc}")
    if len(idx) > p:
        raise ConfigError(f"idx: multi-index {idx} has order {len(idx)} > p = {p}")
    return idx


TWO_SAMPLE_KEYS = {"p", "kernel", "h", "variance_h", "taper_b", "z", "idx", "tau"}


def cmd_two_sample(args) -> int:
    cfg = _load_config(args.config, TWO_SAMPLE_KEYS)
    h = tuple(cfg["h"])
    tau = _level(cfg, 0.5)
    ds1 = load_csv(args.data1)
    ds2 = load_csv(args.data2)
    if ds1.region != ds2.region:
        raise ConfigError("datasets declare different sampling regions")
    d = ds1.d
    _check_axes(cfg, d, "one per axis of the data")
    kern = _kernel(cfg.get("kernel"), d)
    config = FitConfig(p=cfg.get("p", mc.ExperimentSpec.p), kernel=kern, h=h)
    z = np.asarray(cfg.get("z", (0.0,) * d), dtype=float)
    idx = _derivative_index(cfg.get("idx", ""), d, config.p)
    taper = kernels.TaperSpec(widths=tuple(cfg["taper_b"]))
    res_cfg = FitConfig(p=config.p, kernel=kern, h=tuple(cfg.get("variance_h", h)))

    fit1 = fit_at(ds1, config, z)
    fit2 = fit_at(ds2, config, z)
    V = two_sample_variance(ds1, ds2, res_cfg, taper, z)
    report = two_sample_test(fit1, fit2, V, idx, tau)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = asdict(report)
    payload["idx"] = "".join(map(str, report.idx))
    payload["provenance"] = _provenance(cfg)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps({k: payload[k] for k in ("T", "V_check", "p_value", "decision")}))
    return 0


MOMENTS_KEYS = {"d", "p", "kernel"}


def cmd_moments(args) -> int:
    cfg = _load_config(args.config, MOMENTS_KEYS)
    d, p = cfg.get("d", 2), cfg.get("p", mc.ExperimentSpec.p)
    layout = build_layout(d, p)
    mom = kernels.moment_matrices(_kernel(cfg.get("kernel"), d), layout)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {
        "S": mom.S.tolist(),
        "Kcal": mom.Kcal.tolist(),
        "B": mom.B.tolist(),
        "kappa0_r2": mom.kappa0_r2,
        "indices": ["".join(map(str, i)) for i in layout.indices],
        "top_indices": ["".join(map(str, i)) for i in layout.top_indices],
        "provenance": _provenance(cfg),
    }
    (out / "moments.json").write_text(json.dumps(payload, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="spatial-lp",
        description="Local polynomial trend regression for spatial data",
    )
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="overrides seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit the trend surface at points")
    common(p)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("mc", help="run a Monte Carlo coverage experiment")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="overrides master_seed")
    p.add_argument("--threads", type=int, default=1, help="worker processes")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("two-sample", help="test equality of derivatives")
    common(p)
    p.add_argument("--data1", required=True)
    p.add_argument("--data2", required=True)
    p.set_defaults(func=cmd_two_sample)

    p = sub.add_parser("moments", help="emit kernel moment matrices")
    common(p)
    p.set_defaults(func=cmd_moments)
    return ap


# parsing keeps no state on the parser, so every call of main shares one
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError, ValueError, KeyError, FitError) as exc:
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
