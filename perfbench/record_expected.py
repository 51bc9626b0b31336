#!/usr/bin/env python3
"""Record the outputs the benchmark checks, at the default workload seed.

    python3 perfbench/record_expected.py

``reference`` digests come from an unmodified ``solarcast run`` per
model (the CLI, in a fresh process), so the benchmark's in-process
``run_pipeline`` calls are checked against the shipped entry point.
``seed_sweep`` and ``cli_chain`` digests come from one pass of each.
Rerun only when a change is meant to alter outputs, and say so.
"""

import json
import os
import shutil
import sys

from run import HERE, WORK, pin_environment

DEFAULT_SEED = 7


def main() -> int:
    pin_environment()
    import workloads

    work = WORK / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    expected = {"seed": DEFAULT_SEED, "reference": {}}
    config = {
        "latitude_deg": workloads.LATITUDE,
        "synth": {"n_years": workloads.N_YEARS, "seed": DEFAULT_SEED},
        "train_years": list(workloads.TRAIN_YEARS),
        "test_years": list(workloads.TEST_YEARS),
        "preprocess": True,
        "seed": 0,
    }
    (work / "config.json").write_text(json.dumps(config), encoding="utf-8")
    for model in ("naive", "ar", "arma", "markov", "bayes", "knn", "mlp"):
        outdir = work / "run" / model
        argv = [sys.executable, "-m", "solarcast.cli", "run", "--config", "config.json",
                "--model", model, "--outdir", str(outdir)]
        code, _, _, stderr = workloads.run_process(argv, work, dict(os.environ), timeout=600)
        if code != 0:
            print(f"solarcast run --model {model} failed: {stderr}", file=sys.stderr)
            return 1
        expected["reference"][model] = {f: workloads.sha256(outdir / f) for f in workloads.REFERENCE_FILES}

    ctx = workloads.setup(DEFAULT_SEED, work / "passes")
    for name in ("seed_sweep", "cli_chain"):
        ops = workloads.WORKLOADS[name](ctx)
        failed = [op for op in ops if op.digest is None]
        if failed:
            print(f"{name}: {failed[0].name} failed: {failed[0].error}", file=sys.stderr)
            return 1
        expected[name] = {op.name: op.digest for op in ops}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
