#!/usr/bin/env python3
"""solarcast benchmark: one command, one closed-loop caller, checked outputs.

    python3 perfbench/run.py --workload {reference,seed_sweep,cli_chain} \
        [--seed 7] [--seconds 20] [--trace 0|1]

Run from the repository root; the program is imported from ``src/``.
Set-up is timed in fresh processes (``setup_probe.py``), then passes of
the workload repeat until ``--seconds`` have elapsed. With ``--trace 0``
the last stdout line carries the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` half the time runs untraced, then one set-up and one
pass run traced and the line carries the per-layer metrics. Spans are
written to ``perfbench/_work/trace-<workload>.json``.

Outputs are checked against ``expected.json`` at the recorded seed; at
any other seed they are printed, and later passes must repeat the
first. An operation that raises, exits non-zero or mismatches counts
as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
SETUP_PROBES = 5


def pin_environment() -> int:
    """Pin BLAS threads to the CPUs this process may use; returns that count.

    Runs before numpy or solarcast is imported, which is why the modules
    that import them are imported inside functions here.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    return nproc


def cpu_model() -> str:
    try:
        text = Path("/proc/cpuinfo").read_text(encoding="utf-8")
    except OSError:
        return platform.processor()
    match = re.search(r"^model name\s*:\s*(.+)$", text, re.M)
    return match.group(1).strip() if match else platform.processor()


def environment(nproc: int) -> dict:
    import numpy
    import scipy

    import solarcast

    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "backend": solarcast.backend_name(), "nproc": nproc, "cpu": cpu_model(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
    }


def summarize(samples: list[float]) -> dict:
    qs = statistics.quantiles(samples, n=4) if len(samples) > 1 else [samples[0]] * 3
    return {"median": statistics.median(samples), "q1": qs[0], "q3": qs[2],
            "min": min(samples), "max": max(samples), "n": len(samples)}


def time_setup(seed: int) -> list[float]:
    from workloads import run_process

    times = []
    for i in range(SETUP_PROBES):
        argv = [sys.executable, str(HERE / "setup_probe.py"), str(seed), str(WORK / f"probe-{os.getpid()}-{i}")]
        code, seconds, _, stderr = run_process(argv, ROOT, dict(os.environ))
        if code != 0:
            raise RuntimeError(f"set-up probe failed with exit {code}: {stderr.strip()[-300:]}")
        times.append(seconds)
    return times


def import_times() -> dict[str, float]:
    """``-X importtime`` of ``import solarcast``: its cumulative time, and
    the self time of every scipy module summed."""
    from workloads import run_process

    argv = [sys.executable, "-X", "importtime", "-c", "import solarcast"]
    code, _, _, stderr = run_process(argv, ROOT, dict(os.environ))
    if code != 0:
        raise RuntimeError(f"import probe failed: {stderr.strip()[-300:]}")
    solarcast_us = scipy_us = 0
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us, cumulative_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        module = parts[2].strip()
        if module == "solarcast":
            solarcast_us = cumulative_us
        if module == "scipy" or module.startswith("scipy."):
            scipy_us += self_us
    return {"import.solarcast_s": solarcast_us / 1e6, "import.scipy_s": scipy_us / 1e6}


class Checker:
    """Compares each operation's digest with the recorded one, or at an
    unrecorded seed with the first pass's."""

    def __init__(self, workload: str, seed: int):
        expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
        self.recorded = expected["seed"] == seed
        self.reference = expected[workload] if self.recorded else {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ops) -> None:
        for op in ops:
            self.attempted += 1
            if op.digest is None:
                self.failed += 1
                self.errors.append(f"{op.name}: {op.error}")
                continue
            if self.recorded:
                want = self.reference.get(op.name)
            else:
                want = self.reference.setdefault(op.name, op.digest)
            if want != op.digest:
                self.failed += 1
                self.errors.append(f"{op.name}: output digest mismatch")


def run_passes(pass_fn, ctx, checker: Checker, until: float) -> tuple[list[float], list[list]]:
    """Repeat the pass until the deadline, at least once; returns each
    pass's wall time and operations."""
    walls, passes = [], []
    while True:
        t0 = time.perf_counter()
        ops = pass_fn(ctx)
        walls.append(time.perf_counter() - t0)
        passes.append(ops)
        checker.check(ops)
        if time.perf_counter() >= until:
            return walls, passes


def traced_run(workload: str, ctx, checker: Checker, untraced_walls: list[float], env: dict) -> dict[str, float]:
    """One traced set-up and pass; per-layer metrics from its spans."""
    import tracing
    import workloads

    tracer = tracing.Tracer("setup")
    tracing.install(tracer)
    try:
        ctx = workloads.setup(ctx.seed, ctx.work)
        tracer.run_id = "pass-1"
        ctx.tracer = tracer
        t0 = time.perf_counter()
        ops = workloads.WORKLOADS[workload](ctx)
        wall = time.perf_counter() - t0
    finally:
        tracer.unwrap()
    checker.check(ops)
    for path in ctx.trace_files:
        tracer.spans.extend(json.loads(path.read_text(encoding="utf-8"))["spans"])
    index = tracing.SpanIndex(tracer.spans)
    metrics = tracing.layer_metrics(index, wall)
    metrics.update(import_times())
    metrics["trace.overhead_s"] = wall - statistics.median(untraced_walls)
    metrics["failed_frac"] = checker.failed / checker.attempted
    (WORK / f"trace-{workload}.json").write_text(json.dumps({
        "env": env, "spans": tracer.spans, "self_s": index.self_seconds(), "metrics": metrics,
    }), encoding="utf-8")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("reference", "seed_sweep", "cli_chain"))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "solarcast" / "__init__.py").is_file():
        print(f"error: no solarcast sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    nproc = pin_environment()
    import workloads

    env = environment(nproc)
    print(json.dumps({"env": env}))
    run_dir = WORK / f"{args.workload}-{os.getpid()}"
    try:
        setup_times = time_setup(args.seed)
        ctx = workloads.setup(args.seed, run_dir)
        checker = Checker(args.workload, args.seed)
        pass_fn = workloads.WORKLOADS[args.workload]
        start = time.perf_counter()
        budget = args.seconds / 2 if args.trace else args.seconds
        walls, passes = run_passes(pass_fn, ctx, checker, start + budget)
        if args.trace:
            values = traced_run(args.workload, ctx, checker, walls, env)
            wanted = spec["per_layer"]
        else:
            rss = [workloads.peak_rss_mb(ops) for ops in passes]
            samples = {"setup_s": setup_times, "wall_s": walls, "peak_rss_mb": rss}
            print(json.dumps({"summary": {name: summarize(s) for name, s in samples.items()}}))
            values = {name: statistics.median(s) for name, s in samples.items()}
            wanted = spec["end_to_end"]
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        for probe in WORK.glob(f"probe-{os.getpid()}-*"):
            shutil.rmtree(probe, ignore_errors=True)

    if not checker.recorded:
        print(json.dumps({"digests": {"seed": args.seed, args.workload: checker.reference}}))
    for line in checker.errors[:20]:
        print(f"failed: {line}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
