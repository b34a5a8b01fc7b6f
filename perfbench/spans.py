"""Outside-in layer trace: spans around the package's public functions.

Each layer is a public function, wrapped where it is bound as a module
attribute, in every spatial_lp module that imported it by name. A span
records name, wall start and end, process CPU start and end (all threads),
the index of its parent span, the operation it belongs to (-1 during
set-up) and, for local fits, what the fit scanned. Spans stay in memory
until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# Layers, as "<module>.<function>" under spatial_lp.
LAYERS = (
    "dataset.generate_sites",
    "dataset.load_csv",
    "randfield.simulate_field",
    "mc.run_replication",
    "mc.simulate_responses",
    "lpfit.fit_at",
    "lpfit.estimate_bias",
    "inference.variance_hat",
    "inference.density_hat",
    "inference.two_sample_variance",
    "inference.two_sample_test",
    "kernels.moment_matrices",
    "cli.main",
)

# A local fit made under one of these is a residual fit (m_hat at a site).
RESIDUAL_PARENTS = ("inference.variance_hat", "inference.two_sample_variance")

# Span fields, in the order a span list holds them.
NAME, START, END, CPU_START, CPU_END, PARENT, OP, FIT = range(8)


def _fit_probe(args, kwargs, result):
    """(sites scanned, sites with positive weight or None, fit key)."""
    dataset = args[0] if args else kwargs.get("dataset")
    z = args[2] if len(args) > 2 else kwargs.get("z")
    n = getattr(dataset, "n", 0)
    n_eff = getattr(result, "n_eff", None)
    key = (id(dataset), tuple(float(v) for v in z)) if z is not None else None
    return n, n_eff, key


PROBES = {"lpfit.fit_at": _fit_probe}


class Tracer:
    """Records spans while installed; restores the package when removed."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, name, fn):
        spans, stack, probe = self.spans, self._stack, PROBES.get(name)
        perf, cpu = time.perf_counter, time.process_time

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[CPU_START] = cpu()
            rec[START] = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec[END] = perf()
                rec[CPU_END] = cpu()
                stack.pop()
                if probe is not None:
                    rec[FIT] = probe(args, kwargs, result)

        return traced

    def install(self, package: str = "spatial_lp") -> None:
        """Wrap every layer at each module attribute that is bound to it."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == package or k.startswith(package + "."))
        ]
        self.absent = []
        for layer in LAYERS:
            mod_name, attr = layer.rsplit(".", 1)
            home = sys.modules.get(f"{package}.{mod_name}")
            original = getattr(home, attr, None) if home is not None else None
            if not callable(original):
                self.absent.append(layer)
                continue
            traced = self._wrap(layer, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                        self._patched.append((mod, key, original))

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched = []


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s[START]
        for lo, hi in sorted((spans[c][START], spans[c][END]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s[END] - s[START] - covered)
    return out


def _under(spans, i, names, memo) -> bool:
    """Whether span i has an ancestor whose name is in names."""
    p = spans[i][PARENT]
    if p < 0:
        return False
    if p not in memo:
        memo[p] = spans[p][NAME] in names or _under(spans, p, names, memo)
    return memo[p]


def layer_metrics(spans, ops: int) -> dict[str, float]:
    """Per-layer figures of a traced phase, averaged per operation.

    Spans of operation -1 belong to set-up; only `dataset.load_csv.setup_s`
    reads them. A layer that never ran reads 0, and so does a ratio whose
    base is 0.
    """
    selfs = self_times(spans)
    total, self_s, cpu, calls = (defaultdict(float) for _ in range(4))
    setup_load = 0.0
    scanned = useful = scanned_known = 0
    resid_calls, resid_s = 0, 0.0
    resid_points = defaultdict(set)
    memo: dict[int, bool] = {}
    for i, s in enumerate(spans):
        name, dur = s[NAME], s[END] - s[START]
        if s[OP] < 0:
            if name == "dataset.load_csv":
                setup_load += dur
            continue
        total[name] += dur
        self_s[name] += selfs[i]
        cpu[name] += s[CPU_END] - s[CPU_START]
        calls[name] += 1
        if s[FIT] is None:
            continue
        n, n_eff, key = s[FIT]
        scanned += n
        if n_eff is not None:
            useful += n_eff
            scanned_known += n
        if _under(spans, i, RESIDUAL_PARENTS, memo):
            resid_calls += 1
            resid_s += dur
            resid_points[s[OP]].add(key)
    distinct = sum(len(v) for v in resid_points.values())
    return {
        "randfield.simulate_field.s": total["randfield.simulate_field"] / ops,
        "randfield.simulate_field.cpu_s": cpu["randfield.simulate_field"] / ops,
        "dataset.generate_sites.s": total["dataset.generate_sites"] / ops,
        "mc.simulate_responses.self_s": self_s["mc.simulate_responses"] / ops,
        "mc.run_replication.self_s": self_s["mc.run_replication"] / ops,
        "lpfit.fit_at.calls": calls["lpfit.fit_at"] / ops,
        "lpfit.fit_at.self_s": self_s["lpfit.fit_at"] / ops,
        "lpfit.fit_at.cpu_s": cpu["lpfit.fit_at"] / ops,
        "lpfit.fit_at.sites_scanned": scanned / ops,
        "lpfit.fit_at.active_share": ratio(useful, scanned_known),
        "lpfit.estimate_bias.self_s": self_s["lpfit.estimate_bias"] / ops,
        "inference.residual_fit.calls": resid_calls / ops,
        "inference.residual_fit.s": resid_s / ops,
        "inference.residual_fits_per_window_site": ratio(resid_calls, distinct),
        "inference.variance_hat.self_s": self_s["inference.variance_hat"] / ops,
        "inference.density_hat.s": total["inference.density_hat"] / ops,
        "inference.two_sample_variance.self_s":
            self_s["inference.two_sample_variance"] / ops,
        "inference.two_sample_test.s": total["inference.two_sample_test"] / ops,
        "kernels.moment_matrices.calls": calls["kernels.moment_matrices"] / ops,
        "dataset.load_csv.s": total["dataset.load_csv"] / ops,
        "dataset.load_csv.setup_s": setup_load,
        "cli.main.self_s": self_s["cli.main"] / ops,
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
