"""Benchmark of spatial_lp: one workload per run, one process, one caller.

    python3 perfbench/run.py --workload mc-car1 --seed 20221124 --seconds 30 --trace 0

The program is imported from src/ of the checkout this file sits in. A run
sets up its workload from the seed, runs one untimed warm-up operation,
then runs whole rounds of operations in a closed loop until --seconds have
passed and at least MIN_OPS operations are done. Every output is checked
against the benchmark's own reference computations afterwards.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half with spans around the program's layers, and prints the
per-layer metrics. The last line of standard output is the JSON result;
the same record, with the run's environment, goes to perfbench/out/.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up is timed from here, before the program is imported

import argparse  # noqa: E402
import ctypes  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import spans  # noqa: E402
import timing  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

PROGRAM = ("spatial_lp", "spatial_lp.cli")
MIN_OPS = timing.min_samples(90)  # op_s_p90 has at least ten samples beyond it
HARD_STOP = 4  # stop after the round that passes HARD_STOP * --seconds regardless
SETUP_CHILDREN = 2  # set-ups in fresh processes, on top of this run's own

# glibc raises its mmap threshold each time it frees a mapped block larger
# than the threshold, up to 32 MiB, and trims the heap above twice that.
# Until it gets there, every fit can unmap and re-fault its numpy
# temporaries (~600 page faults per surface-grid operation, a fifth of the
# CPU in the kernel, 30-50% slower), and whether a process gets there within
# a run varies from process to process. The benchmark starts every process
# at the end state, which a long-lived process reaches anyway.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20

UNITS = {
    "setup_s": "s", "op_s_p50": "s", "op_s_p90": "s", "ops_per_s": "1/s",
    "cpu_s_per_op": "s", "peak_rss_mb": "MB",
}


def settle_malloc() -> bool:
    """Fix glibc's mmap and trim thresholds at their adjusted maximum."""
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    return bool(
        libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        and libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD)
    )


def import_program() -> None:
    src = ROOT / "src"
    if not (src / "spatial_lp" / "__init__.py").is_file():
        sys.exit(f"perfbench: no spatial_lp package under {src}")
    sys.path.insert(0, str(src))
    for name in PROGRAM:
        module = importlib.import_module(name)
        if not Path(module.__file__).resolve().is_relative_to(src):
            sys.exit(f"perfbench: {name} was imported from {module.__file__}, not {src}")


def blas_info() -> dict:
    """Thread count and build of every OpenBLAS loaded into this process."""
    out = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        info = {}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                conf = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get is not None and "threads" not in info:
                    get.restype = ctypes.c_int
                    info["threads"] = get()
                if conf is not None and "config" not in info:
                    conf.restype = ctypes.c_char_p
                    info["config"] = conf().decode()
        out[Path(path).name] = info
    return out


def environment(malloc_settled: bool) -> dict:
    import numpy
    import scipy

    return {
        "malloc_settled": malloc_settled,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpus": len(os.sched_getaffinity(0)),
        "blas": blas_info(),
    }


@dataclass
class Phase:
    """One closed-loop measurement: op times, wall and CPU seconds, outputs."""

    durations: list = field(default_factory=list)
    elapsed: float = 0.0
    cpu: float = 0.0
    # (input index, output repr) -> (output, count); equal outputs are checked once
    outputs: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    @property
    def ops(self) -> int:
        return len(self.durations)


def measure(workload, seconds: float, min_ops: int, tracer=None) -> Phase:
    phase = Phase()
    perf = time.perf_counter
    start, cpu0 = perf(), time.process_time()
    while True:
        for i, inp in enumerate(workload.inputs):
            if tracer is not None:
                tracer.op = phase.ops
            t = perf()
            try:
                out = workload.run(inp)
            except Exception as exc:  # a failed operation is counted, not fatal
                phase.durations.append(perf() - t)
                msg = f"{type(exc).__name__}: {exc}"
                phase.errors[msg] = phase.errors.get(msg, 0) + 1
                continue
            phase.durations.append(perf() - t)
            key = (i, repr(out))
            seen = phase.outputs.get(key)
            phase.outputs[key] = (out, 1 if seen is None else seen[1] + 1)
        phase.elapsed = perf() - start
        done = phase.elapsed >= seconds and phase.ops >= min_ops
        if done or phase.elapsed >= HARD_STOP * seconds:
            break
    phase.cpu = time.process_time() - cpu0
    return phase


def check(workload, phases) -> tuple[int, list]:
    """Operations whose output disagrees with the reference, and why."""
    from workloads import OutputMismatch

    wrong, notes = 0, []
    for phase in phases:
        for (i, _), (out, count) in phase.outputs.items():
            try:
                workload.check(workload.inputs[i], out)
            except OutputMismatch as exc:
                wrong += count
                notes.append(str(exc))
    return wrong, notes


def setup_in_child(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def main(import_s: float, malloc_settled: bool, argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=20221124)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            tracer.install()
        t = time.perf_counter()
        workload.setup(args.seed, workdir)
        workload.run(workload.inputs[0])
        setup_s = import_s + time.perf_counter() - t
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0

        if tracer is None:
            setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_CHILDREN)]
            phases = [measure(workload, args.seconds, MIN_OPS)]
            run = phases[0]
            metrics = {
                "setup_s": statistics.median(setups),
                "op_s_p50": timing.percentile(run.durations, 50),
                "op_s_p90": timing.percentile(run.durations, 90),
                "ops_per_s": run.ops / run.elapsed,
                "cpu_s_per_op": run.cpu / run.ops,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = UNITS
            if run.ops < MIN_OPS:
                print(f"perfbench: only {run.ops} operations; op_s_p90 has fewer "
                      "than ten samples beyond it", file=sys.stderr)
        else:
            tracer.uninstall()
            plain = measure(workload, args.seconds / 2, 1)
            tracer.install()
            traced = measure(workload, args.seconds / 2, 1, tracer)
            tracer.uninstall()
            phases = [plain, traced]
            metrics = spans.layer_metrics(tracer.spans, traced.ops)
            p50 = timing.percentile(traced.durations, 50)
            metrics["trace.op_s_p50"] = p50
            metrics["trace.overhead_s"] = p50 - timing.percentile(plain.durations, 50)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(malloc_settled)
    threads = {k: v.get("threads", 0) for k, v in env["blas"].items()}
    if tracer is not None:
        metrics["blas.threads"] = max(threads.values(), default=0)
        units = {k: unit_of(k) for k in metrics}

    wrong, notes = check(workload, phases)
    raised = sum(sum(p.errors.values()) for p in phases)
    result = {
        "correct": wrong == 0,
        "attempted": sum(p.ops for p in phases),
        "failed": raised + wrong,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": [p.ops for p in phases],
        "errors": [p.errors for p in phases], "mismatches": notes[:20],
        "environment": env, "result": result,
    }
    if tracer is not None:
        record["absent_layers"] = tracer.absent
        ran = {s[spans.NAME] for s in tracer.spans}
        record["idle_layers"] = [k for k in spans.LAYERS if k not in ran]
        with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(s) + "\n")
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(f"perfbench: {args.workload} seed {args.seed}: {result['attempted']} ops, "
          f"{result['failed']} failed, BLAS threads {threads}", file=sys.stderr)
    for msg in list(notes[:5]) + [m for p in phases for m in p.errors]:
        print(f"perfbench: {msg}", file=sys.stderr)
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read from its name."""
    if name.endswith((".calls", ".sites_scanned", ".threads")):
        return "count"
    if name.endswith(("_share", "_per_window_site")):
        return "ratio"
    return "s"


if __name__ == "__main__":
    settled = settle_malloc()
    import_program()
    sys.exit(main(time.perf_counter() - T0, settled))
