"""The benchmark's three workloads, each a repeatable pass over fixed inputs.

All inputs derive from the workload seed: a 19-year synthetic series at
latitude 41.917, trained on 1971-1987 and tested on 1988-1989. A pass
returns one :class:`Op` per operation (a model run, a sweep seed or a
CLI command) with its time and a digest of what it produced, so the
caller can check the outputs against recorded ones or against the
first pass.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from solarcast import evaluation, pipeline, preprocess, series
from solarcast.solar import SiteSpec

LATITUDE = 41.917
N_YEARS = 19
TRAIN_YEARS = (1971, 1987)
TEST_YEARS = (1988, 1989)
SWEEP_SEEDS = tuple(range(40))
REFERENCE_FILES = ("predictions.csv", "model.txt", "metrics.csv")
COMMAND_TIMEOUT_S = 150.0

HERE = Path(__file__).resolve().parent


@dataclass
class Op:
    name: str
    seconds: float
    digest: dict | None = None  # None when the operation raised or exited non-zero
    error: str = ""
    peak_rss_mb: float = 0.0


@dataclass
class Context:
    seed: int
    work: Path
    site: SiteSpec
    cleaned: series.DailySeries
    input_csv: Path
    tracer: object = None
    trace_files: list = field(default_factory=list)

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def setup(seed: int, work: Path) -> Context:
    """Synthesize and clean the workload input; the part ``setup_s`` times."""
    work.mkdir(parents=True, exist_ok=True)
    site = SiteSpec.from_degrees(LATITUDE)
    raw = series.generate_synthetic(series.SynthConfig(n_years=N_YEARS, latitude_deg=LATITUDE, seed=seed))
    cleaned, _ = series.clean(raw, site)
    input_csv = work / "synthetic.csv"
    series.write_csv(raw, input_csv)
    return Context(seed=seed, work=work, site=site, cleaned=cleaned, input_csv=input_csv)


# ---------------------------------------------------------------------------
# reference: run_pipeline once per model (the paper's Table 1 run)
# ---------------------------------------------------------------------------


def reference_pass(ctx: Context) -> list[Op]:
    ops = []
    for model in pipeline.MODEL_NAMES:
        outdir = ctx.work / "reference" / model
        cfg = pipeline.PipelineConfig(
            latitude_deg=LATITUDE, train_years=TRAIN_YEARS, test_years=TEST_YEARS,
            model=model, seed=0, outdir=outdir, input_csv=str(ctx.input_csv),
        )
        t0 = time.perf_counter()
        try:
            with ctx.span(f"run.{model}"):
                pipeline.run_pipeline(cfg)
        except Exception as e:  # noqa: BLE001 - any raise is a failed operation
            ops.append(Op(model, time.perf_counter() - t0, error=repr(e)))
            continue
        seconds = time.perf_counter() - t0
        ops.append(Op(model, seconds, {f: sha256(outdir / f) for f in REFERENCE_FILES}))
    return ops


# ---------------------------------------------------------------------------
# seed_sweep: MLP only, through the library, ending in one Student-t CI
# ---------------------------------------------------------------------------


def seed_sweep_pass(ctx: Context) -> list[Op]:
    ops = []
    cleaned = ctx.cleaned
    prep = preprocess.fit(cleaned.slice_years(*TRAIN_YEARS), ctx.site)
    corrected = prep.apply(cleaned)
    train = corrected.slice_years(*TRAIN_YEARS)
    test_days = corrected.slice_years(*TEST_YEARS).dates()
    measured = cleaned.slice_years(*TEST_YEARS).values
    reports = []
    for seed in SWEEP_SEEDS:
        t0 = time.perf_counter()
        try:
            bundle, _ = pipeline.train_mlp_bundle(train, {}, seed)
            preds = pipeline.forecast_one_step(bundle, corrected, test_days)
            ghi = np.maximum(prep.invert(preds, test_days), 0.0)
            report = evaluation.metrics(evaluation.ForecastRun(
                days=tuple(test_days), measured=measured, predicted=ghi, model_id="mlp", seed=seed,
            ))
        except Exception as e:  # noqa: BLE001
            ops.append(Op(f"seed-{seed}", time.perf_counter() - t0, error=repr(e)))
            continue
        seconds = time.perf_counter() - t0
        reports.append(report)
        ops.append(Op(f"seed-{seed}", seconds, {"nrmse": repr(float(report.nrmse))}))
    t0 = time.perf_counter()
    try:
        ci = evaluation.confidence_interval(reports)
    except Exception as e:  # noqa: BLE001
        ops.append(Op("ci", time.perf_counter() - t0, error=repr(e)))
        return ops
    ops.append(Op("ci", time.perf_counter() - t0, {
        "nrmse_mean": repr(float(ci.means["nrmse"])), "nrmse_half_width": repr(float(ci.half_widths["nrmse"])),
    }))
    return ops


# ---------------------------------------------------------------------------
# cli_chain: the README's stage-by-stage CLI, one cold process per stage
# ---------------------------------------------------------------------------


def cli_commands(seed: int) -> list[tuple[str, list[str], tuple[str, ...]]]:
    """(command, argv, files it writes) in chain order."""
    lat = str(LATITUDE)
    train = f"{TRAIN_YEARS[0]}:{TRAIN_YEARS[1]}"
    test = f"{TEST_YEARS[0]}:{TEST_YEARS[1]}"
    return [
        ("synth", ["synth", "--years", str(N_YEARS), "--seed", str(seed), "--lat", lat, "--out", "data.csv"],
         ("data.csv",)),
        ("clean", ["clean", "--input", "data.csv", "--lat", lat, "--out", "cleaned.csv",
                   "--report", "repairs.csv"], ("cleaned.csv", "repairs.csv")),
        ("preprocess", ["preprocess", "--input", "cleaned.csv", "--lat", lat, "--train-years", train,
                        "--corrected-out", "corrected.csv", "--factors-out", "factors.csv"],
         ("corrected.csv", "factors.csv")),
        ("spectrum", ["spectrum", "--input", "corrected.csv", "--out", "spectrum.csv"], ("spectrum.csv",)),
        ("train", ["train", "--model", "mlp", "--input", "corrected.csv", "--train-years", train,
                   "--seed", "0", "--out", "model.txt"], ("model.txt",)),
        ("predict", ["predict", "--model-file", "model.txt", "--history", "corrected.csv", "--days", test,
                     "--column", "s_corr_pred", "--out", "pred_corr.csv"], ("pred_corr.csv",)),
        ("invert", ["invert", "--input", "pred_corr.csv", "--factors", "factors.csv", "--lat", lat,
                    "--out", "mlp.csv"], ("mlp.csv",)),
        ("evaluate", ["evaluate", "mlp.csv", "--measured", "cleaned.csv", "--outdir", "eval"],
         ("eval/metrics.csv", "eval/seasonal.csv", "eval/monthly.csv", "eval/table1.csv")),
    ]


def _kill(pid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)


def run_process(argv: list[str], cwd: Path, env: dict, timeout: float = COMMAND_TIMEOUT_S):
    """Run to completion; returns (exit code, seconds, peak RSS in MB, stderr).

    ``os.wait4`` gives this child's own resource usage; a timer kills it
    if it outlives ``timeout``.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    timer = threading.Timer(timeout, _kill, (proc.pid,))
    timer.start()
    try:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stderr.close()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen must not wait again
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0, stderr.decode(errors="replace")


def cli_chain_pass(ctx: Context) -> list[Op]:
    workdir = ctx.work / "cli"
    workdir.mkdir(parents=True, exist_ok=True)
    ops = []
    for command, args, outputs in cli_commands(ctx.seed):
        env = dict(os.environ)
        if ctx.tracer is None:
            argv = [sys.executable, "-m", "solarcast.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "cli_shim.py"), *args]
            trace_file = workdir / f"trace-{command}.json"
            ctx.trace_files.append(trace_file)
            env["PERFBENCH_TRACE_OUT"] = str(trace_file)
            env["PERFBENCH_RUN"] = ctx.tracer.run_id
        with ctx.span(f"cli.{command}") as rec:
            if rec is not None:
                env["PERFBENCH_PARENT"] = rec["id"]
            code, seconds, rss, stderr = run_process(argv, workdir, env)
        if code != 0:
            ops.append(Op(command, seconds, error=f"exit {code}: {stderr.strip()[-300:]}", peak_rss_mb=rss))
            continue
        digest = {name: sha256(workdir / name) for name in outputs}
        ops.append(Op(command, seconds, digest, peak_rss_mb=rss))
    return ops


WORKLOADS = {
    "reference": reference_pass,
    "seed_sweep": seed_sweep_pass,
    "cli_chain": cli_chain_pass,
}


def peak_rss_mb(ops: list[Op]) -> float:
    """Child peak for subprocess workloads, else this process's peak."""
    child = max((op.peak_rss_mb for op in ops), default=0.0)
    return child or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
