import argparse
import datetime as dt
import importlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import solarcast
from solarcast import pipeline, preprocess
from solarcast.cli import build_parser, main
from solarcast.mlp import init_mlp
from solarcast.model_io import FORECASTERS, load_forecaster, load_model_file
from solarcast.series import SynthConfig, generate_synthetic, load_csv, write_csv


def run_cli(*args):
    return main(list(args))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A synthetic dataset and a full stage-by-stage pipeline run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    assert run_cli("synth", "--years", "8", "--seed", "3", "--out", str(data)) == 0
    return root, data


def test_synth_then_clean_then_h0(workdir):
    root, data = workdir
    cleaned = root / "cleaned.csv"
    report = root / "report.csv"
    assert run_cli("clean", "--input", str(data), "--lat", "41.917",
                   "--out", str(cleaned), "--report", str(report)) == 0
    assert cleaned.exists() and report.exists()
    h0 = root / "h0.csv"
    assert run_cli("h0-table", "--lat", "41.917", "--out", str(h0)) == 0
    lines = h0.read_text().splitlines()
    assert lines[0] == "day,h0_wh_m2"
    assert len(lines) == 366


def test_preprocess_spectrum_train_predict_invert_evaluate(workdir):
    root, data = workdir
    cleaned = root / "cleaned.csv"
    run_cli("clean", "--input", str(data), "--lat", "41.917", "--out", str(cleaned))

    corrected = root / "corrected.csv"
    factors = root / "factors.csv"
    assert run_cli("preprocess", "--input", str(cleaned), "--lat", "41.917",
                   "--train-years", "1971:1976",
                   "--corrected-out", str(corrected), "--factors-out", str(factors)) == 0
    assert factors.read_text().splitlines()[0] == "day,y_star,n_years"

    spectrum = root / "spectrum.csv"
    assert run_cli("spectrum", "--input", str(corrected), "--out", str(spectrum)) == 0
    assert spectrum.read_text().splitlines()[0] == "period_days,power"

    model = root / "model.txt"
    assert run_cli("train", "--model", "mlp", "--input", str(corrected),
                   "--train-years", "1971:1976", "--seed", "5",
                   "--out", str(model)) == 0

    preds_corr = root / "pred_corr.csv"
    assert run_cli("predict", "--model-file", str(model), "--history", str(corrected),
                   "--days", "1977:1978", "--column", "s_corr_pred",
                   "--out", str(preds_corr)) == 0

    preds = root / "predictions.csv"
    assert run_cli("invert", "--input", str(preds_corr), "--factors", str(factors),
                   "--lat", "41.917", "--out", str(preds)) == 0
    series = load_csv(preds)
    assert series.values.min() >= 0.0
    assert load_csv(preds).start.year == 1977

    outdir = root / "eval"
    assert run_cli("evaluate", str(preds), "--measured", str(cleaned),
                   "--outdir", str(outdir)) == 0
    for name in ("metrics.csv", "seasonal.csv", "monthly.csv", "table1.csv"):
        assert (outdir / name).exists()

    table = root / "table1.csv"
    assert run_cli("compare", str(preds), "--measured", str(cleaned),
                   "--out", str(table)) == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "model,nrmse" and len(lines) == 2


def test_train_each_baseline_and_naive_predict(workdir):
    root, data = workdir
    cleaned = root / "cleaned2.csv"
    run_cli("clean", "--input", str(data), "--lat", "41.917", "--out", str(cleaned))
    for name in ("naive", "ar", "arma", "markov", "bayes", "knn"):
        model = root / f"{name}.txt"
        assert run_cli("train", "--model", name, "--input", str(cleaned),
                       "--train-years", "1971:1976", "--out", str(model)) == 0
        preds = root / f"{name}_pred.csv"
        assert run_cli("predict", "--model-file", str(model), "--history", str(cleaned),
                       "--days", "1977:1977", "--out", str(preds)) == 0
        assert load_csv(preds).values.min() >= 0.0


def test_series_ending_in_year_9999_runs(tmp_path):
    """The last representable year is a year like any other: no stage steps
    past it to 10000-01-01."""
    data, cleaned = tmp_path / "data.csv", tmp_path / "cleaned.csv"
    assert run_cli("synth", "--years", "2", "--start-year", "9998", "--out", str(data)) == 0
    lines = data.read_text().splitlines()
    assert len(lines) == 1 + 730 and lines[-1].startswith("9999-12-31,")
    assert run_cli("clean", "--input", str(data), "--lat", "41.917", "--out", str(cleaned),
                   "--report", str(tmp_path / "report.csv")) == 0
    assert run_cli("preprocess", "--input", str(cleaned), "--lat", "41.917",
                   "--corrected-out", str(tmp_path / "corrected.csv"),
                   "--factors-out", str(tmp_path / "factors.csv")) == 0
    assert run_cli("train", "--model", "naive", "--input", str(cleaned),
                   "--out", str(tmp_path / "model.txt")) == 0


def test_exit_codes(workdir, tmp_path):
    root, data = workdir
    assert run_cli("synth", "--years", "1", "--out", str(tmp_path / "x.csv")) == 1  # config
    assert run_cli("clean", "--input", str(tmp_path / "nope.csv"), "--lat", "41.917",
                   "--out", str(tmp_path / "y.csv")) == 2  # data
    assert run_cli("no-such-command") == 1
    for years in ("junk", "0:1976", "1971:10000"):
        assert run_cli("train", "--model", "ar", "--input", str(data),
                       "--train-years", years, "--out", str(tmp_path / "m.txt")) == 1


def test_run_cleans_a_negative_reading(tmp_path):
    """A day written as -3.000 loads, and ``run``'s step 1 replaces it."""
    data, out = tmp_path / "data.csv", tmp_path / "run"
    series = generate_synthetic(SynthConfig(n_years=3, latitude_deg=41.917, seed=4))
    values = series.values.copy()
    values[100] = -3.0
    write_csv(series.with_values(values), data)
    assert "\n1971-04-11,-3.000\n" in data.read_text()
    cfg = {"latitude_deg": 41.917, "input_csv": str(data), "train_years": [1971, 1972],
           "test_years": [1973, 1973], "model": "naive", "outdir": str(out)}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 0
    report = (out / "cleaning_report.csv").read_text().splitlines()
    assert [line for line in report if line.startswith("1971-04-11,")][0].startswith("1971-04-11,-3.000,")


def test_clean_at_a_polar_latitude_names_polar_night(workdir, tmp_path, capsys):
    """The CLI's synthetic series is at 41.917 degrees; cleaned as if taken at
    70, its winter days are all above the zero H0 of polar night."""
    root, data = workdir
    out = tmp_path / "cleaned.csv"
    assert run_cli("clean", "--input", str(data), "--lat", "70", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: unrecoverable gap: H0 is zero on day-of-year 1 at latitude 70 deg"
                          " (polar night)"), err
    assert not out.exists()


def test_field_over_the_csv_limit_is_a_data_error(tmp_path, capsys):
    bad = tmp_path / "long.csv"
    bad.write_text("date,ghi_wh_m2\n1971-01-01,100\n1971-01-03," + "1" * 200_000 + "\n", encoding="utf-8")
    out = tmp_path / "cleaned.csv"
    assert run_cli("clean", "--input", str(bad), "--lat", "41.917", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "data error: line 3: field larger than field limit (131072)\n", err
    assert not out.exists()


def test_non_utf8_input_is_a_data_error(workdir, tmp_path, capsys):
    root, data = workdir
    lines = data.read_bytes().splitlines(keepends=True)
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"".join(lines[:3] + [lines[3].split(b",")[0] + b",\xff\xfe\n"] + lines[4:]))
    out = tmp_path / "cleaned.csv"
    assert run_cli("clean", "--input", str(bad), "--lat", "41.917", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: cannot read {bad}: 'utf-8' codec") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("kind, flag", [("mlp", "--n-hidden"), ("markov", "--n-classes"),
                                        ("bayes", "--n-classes")])
def test_oversized_model_is_a_config_error(kind, flag, workdir, tmp_path, capsys):
    """A size no training set can support is refused, naming the parameter,
    before anything of that size is allocated."""
    root, data = workdir
    out = tmp_path / "model.txt"
    param = flag[2:].replace("-", "_")
    for size in (10**30, 2193):  # 1971..1976 hold 2192 values, 2192 - 8 MLP windows
        assert run_cli("train", "--model", kind, "--input", str(data), "--train-years", "1971:1976",
                       flag, str(size), "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: model parameter '{param}': {size} exceeds the ")
        assert err.count("\n") == 1 and not out.exists(), err
    limit = "2184 training windows" if kind == "mlp" else "2192 training values"
    assert err.endswith(f" {limit}\n"), err


@pytest.mark.parametrize("kind, flags, bound", [
    ("ar", ["--p"], 219),
    ("arma", ["--q", "0", "--p"], 219),
    ("arma", ["--q"], 217),
])
def test_ar_and_arma_orders_beyond_the_span_are_config_errors(kind, flags, bound, workdir, tmp_path, capsys):
    """1971..1976 hold 2192 values: AR and ARMA take p up to 219 (more than
    10 values per coefficient), and ARMA at its default p=2 takes q up to
    217. One more is a config error naming the parameter, with no model.txt."""
    root, data = workdir
    out = tmp_path / "model.txt"
    args = ["train", "--model", kind, "--input", str(data), "--train-years", "1971:1976", "--out", str(out)]
    assert run_cli(*args, *flags, str(bound + 1)) == 1
    err = capsys.readouterr().err
    param = flags[-1][2:]
    assert err.startswith(f"config error: model parameter '{param}': {bound + 1} exceeds the {bound} "), err
    assert err.count("\n") == 1 and not out.exists(), err
    assert run_cli(*args, *flags, str(bound)) == 0 and out.exists()


def test_bayes_tables_beyond_the_cell_budget_are_a_config_error(workdir, tmp_path, capsys):
    """Bayes' max(order, 1) count tables of n_classes x n_classes hold at most
    2**24 cells: at order 16 that is 1024 classes, fewer than the 2192
    training values, so 1025 is refused before any table is allocated."""
    root, data = workdir
    out = tmp_path / "model.txt"
    assert run_cli("train", "--model", "bayes", "--input", str(data), "--train-years", "1971:1976",
                   "--order", "16", "--n-classes", "1025", "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == ("config error: model parameter 'n_classes': 1025 exceeds the 1024 classes"
                   " whose 16 count tables fit in 16777216 cells\n")
    assert not out.exists()


def test_run_pipeline_config(tmp_path):
    cfg = {
        "latitude_deg": 41.917,
        "synth": {"n_years": 8, "seed": 11},
        "train_years": [1971, 1976],
        "test_years": [1977, 1978],
        "model": "naive",
        "preprocess": False,
        "seed": 0,
        "outdir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 0
    outdir = tmp_path / "out"
    for name in ("cleaned.csv", "predictions.csv", "metrics.csv", "model.txt"):
        assert (outdir / name).exists()
    metrics = (outdir / "metrics.csv").read_text().splitlines()
    assert metrics[0].startswith("model,") and len(metrics) == 2


def test_run_rejects_overlapping_spans(tmp_path):
    cfg = {
        "latitude_deg": 41.917,
        "synth": {"n_years": 8, "seed": 11},
        "train_years": [1971, 1977],
        "test_years": [1977, 1978],
        "model": "naive",
        "outdir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 1
    assert not (tmp_path / "out" / "predictions.csv").exists()


@pytest.mark.parametrize("preprocess", [True, False])
def test_run_pipeline_reads_only_its_input_csv(preprocess, tmp_path, monkeypatch):
    """Each stage returns what its file holds without parsing it back, so
    ``run_pipeline`` parses an input CSV once, from the one read of its text,
    and synthetic input never; a repeat run of the input parses nothing."""
    calls = []

    def counting_load_csv(source):
        calls.append(source.read())
        return load_csv(io.StringIO(calls[-1]))

    monkeypatch.setattr(pipeline, "load_csv", counting_load_csv)
    monkeypatch.setattr(pipeline, "_last_input", None)
    common = dict(latitude_deg=41.917, train_years=(1971, 1973), test_years=(1974, 1974),
                  model="naive", use_preprocessing=preprocess)
    synth = pipeline.run_pipeline(pipeline.PipelineConfig(
        **common, synth=SynthConfig(n_years=4, latitude_deg=41.917, seed=5), outdir=tmp_path / "a"))
    assert calls == []
    for outdir in ("b", "c"):
        pipeline.run_pipeline(pipeline.PipelineConfig(
            **common, input_csv=str(synth["synthetic"]), outdir=tmp_path / outdir))
        assert calls == [synth["synthetic"].read_text(encoding="utf-8")]
        for name in ("cleaned.csv", "predictions.csv", "metrics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / outdir / name).read_bytes()


def test_a_repeat_run_formats_and_parses_its_stage_series_once(tmp_path, monkeypatch):
    """Table 1, every model on one input in one process: its input is parsed,
    cleaned, fitted and its cleaned and corrected series formatted once, and
    each later run formats only its two forecasts. Every file the input
    stages wrote is the same in each run's outdir."""
    input_csv = tmp_path / "input.csv"
    write_csv(generate_synthetic(SynthConfig(n_years=4, latitude_deg=41.917, seed=5)), input_csv)
    monkeypatch.setattr(pipeline, "_last_input", None)
    calls = {name: [] for name in ("load_csv", "clean", "write_csv", "fit")}
    for owner, name in ((pipeline, "load_csv"), (pipeline, "clean"), (pipeline, "write_csv"), (preprocess, "fit")):
        real = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _real=real, _calls=calls[name], **k: _calls.append(a) or _real(*a, **k))
    for model in pipeline.MODEL_NAMES:
        pipeline.run_pipeline(pipeline.PipelineConfig(
            latitude_deg=41.917, train_years=(1971, 1973), test_years=(1974, 1974), model=model,
            input_csv=str(input_csv), outdir=tmp_path / model))
    assert {name: len(made) for name, made in calls.items()} == {
        "load_csv": 1, "clean": 1, "write_csv": 2 + 2 * len(pipeline.MODEL_NAMES), "fit": 1}
    for name in ("cleaned.csv", "cleaning_report.csv", "factors.csv", "corrected.csv"):
        files = {(tmp_path / model / name).read_bytes() for model in pipeline.MODEL_NAMES}
        assert len(files) == 1, name


@pytest.mark.parametrize(
    "patch, named",
    [
        ({"train_years": "ab"}, "'train_years'"),
        ({"train_years": [1971]}, "'train_years'"),
        ({"model_params": [1]}, "'model_params'"),
        ({"model": "knn", "model_params": {"k": "x"}}, "'k'"),
        ({"seed": "q"}, "'seed'"),
        (None, "JSON object"),
        ({"preprocess": "false"}, "'preprocess'"),
        ({"input_csv": 5, "synth": None}, "'input_csv'"),
        ({"synth": {"n_years": 3, "seed": "x"}}, "seed"),
        ({"latitude_deg": "x"}, "'latitude_deg'"),
        ({"synth": {"n_years": 3, "seed": 11, "cloud_std": "x"}}, "cloud_std"),
        ({"train_years": [-1971, 1972]}, "'train_years'"),
        ({"test_years": [1973, 10**30]}, "'test_years'"),
        ({"synth": {"n_years": 10**30, "seed": 11}}, "years must lie within"),
        ({"synth": {"n_years": 3, "seed": -11}}, "seed must be >= 0"),
        ({"model": "mlp", "model_params": {"n_hidden": 10**30}}, "'n_hidden'"),
        ({"model": "markov", "model_params": {"n_classes": 10**30}}, "'n_classes'"),
        ({"model": "bayes", "model_params": {"n_classes": 10**30}}, "'n_classes'"),
        ({"model": "mlp", "seed": -1}, "'seed'"),
        ({"model": "ar", "seed": -1}, "'seed'"),
        ({"model": "mlp", "model_params": {"seed": "x"}}, "'seed'"),
        ({"model": "knn", "model_params": {"k": 2.7}}, "'k'"),
        ({"model": "knn", "model_params": {"window": True}}, "'window'"),
        ({"model": "knn", "model_params": {"k": 10**30}}, "'k'"),
        ({"model": "mlp", "seed": 2.7}, "'seed'"),
        ({"model": "mlp", "seed": True}, "'seed'"),
        ({"model": "ar", "model_params": {"order": 3, "P": 2}}, "'order': ar takes only ['p']"),
        ({"model": "markov", "model_params": {"n_clases": 7}}, "'n_clases': markov takes only"),
        ({"model_params": {"seed": 4}}, "'seed': naive takes only []"),
        ({"preprocessing": False}, "unknown config key 'preprocessing'; the known keys are ['latitude_deg', 'synth', "
                                   "'train_years', 'test_years', 'model', 'model_params', 'preprocess', 'seed', "
                                   "'outdir', 'input_csv']"),
        ({"latitude_deg": True}, "config key 'latitude_deg': expected a number, got True"),
        ({"latitude_deg": "41.9"}, "config key 'latitude_deg': expected a number, got '41.9'"),
        ({"latitude_deg": 10**400}, "config key 'latitude_deg': int too large"),
        ({"synth": {"n_years": 3, "seed": True}}, "seed must be an integer, got True"),
        ({"synth": {"n_years": True, "seed": 11}}, "n_years must be an integer, got True"),
        ({"synth": {"n_years": 3, "seed": 11, "cloud_std": False}}, "cloud_std must be a real number, got False"),
        ({"synth": {"n_years": 3, "seed": 11, "cloud_ar1": True}}, "cloud_ar1 must be a real number, got True"),
        ({"synth": {"n_years": 3, "seed": 11, "cloud_std": 10**400}}, "cloud_std does not fit in a float"),
        ({"synth": {"n_years": 3, "seed": 11, "seasonal_amplitude": -10**400}},
         "seasonal_amplitude does not fit in a float"),
        ({"synth": {"n_years": 3, "seed": 11, "latitude_deg": 10}},
         "config key 'synth': set 'latitude_deg' once, at the top level"),
    ],
    ids=[
        "years-string", "years-one", "params-list", "param-not-int", "seed-string", "top-list",
        "preprocess-string", "input-not-text", "synth-seed-string", "latitude-string",
        "synth-float-string", "years-negative", "years-huge", "synth-years-huge", "synth-seed-negative",
        "mlp-hidden-huge", "markov-classes-huge", "bayes-classes-huge", "mlp-run-seed-negative",
        "ar-run-seed-negative", "mlp-seed-string", "knn-k-fractional", "knn-window-bool", "knn-k-huge",
        "run-seed-fractional",
        "run-seed-bool", "ar-foreign-params", "markov-misspelt-param", "naive-seed-param",
        "preprocess-misspelt-key", "latitude-bool", "latitude-numeric-string", "latitude-huge-int",
        "synth-seed-bool", "synth-years-bool", "synth-noise-bool", "synth-ar1-bool", "synth-noise-huge-int",
        "synth-amplitude-huge-int", "synth-latitude",
    ],
)
def test_malformed_config_is_a_config_error(patch, named, tmp_path, capsys):
    cfg = {
        "latitude_deg": 41.917,
        "synth": {"n_years": 3, "seed": 11},
        "train_years": [1971, 1972],
        "test_years": [1973, 1973],
        "model": "naive",
        "preprocess": False,
        "outdir": str(tmp_path / "out"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps([cfg] if patch is None else {**cfg, **patch}))
    assert run_cli("run", "--config", str(cfg_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert named in err
    assert not (tmp_path / "out" / "predictions.csv").exists()


@pytest.mark.parametrize("value, code, kind", [
    ("nan", 1, "config error:"), ("inf", 1, "config error:"), ("1e308", 3, "numerical error:"),
], ids=["nan", "inf", "overflow"])
def test_non_finite_cloud_noise_is_an_error(value, code, kind, tmp_path, capsys):
    """A NaN or infinite cloud_std is a config error and cloud noise that
    overflows is a numerical error, from ``synth`` and from a run config's
    synth settings alike; neither writes a series of missing days."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "latitude_deg": 41.917, "synth": {"n_years": 3, "seed": 11, "cloud_std": float(value)},
        "train_years": [1971, 1972], "test_years": [1973, 1973], "model": "naive",
        "outdir": str(tmp_path / "run"),
    }))
    out = tmp_path / "synthetic.csv"
    for argv, written in (
        (["synth", "--years", "3", "--noise-std", value, "--out", str(out)], out),
        (["run", "--config", str(cfg_path)], tmp_path / "run" / "synthetic.csv"),
    ):
        assert run_cli(*argv) == code, argv
        err = capsys.readouterr().err
        assert err.startswith(kind) and err.count("\n") == 1 and "cloud_std" in err, err
        assert not written.exists()


def test_run_preprocessing_pipeline_and_determinism(tmp_path):
    cfg = {
        "latitude_deg": 41.917,
        "synth": {"n_years": 8, "seed": 4},
        "train_years": [1971, 1976],
        "test_years": [1977, 1978],
        "model": "mlp",
        "model_params": {"max_epochs": 60},
        "preprocess": True,
        "seed": 9,
        "outdir": str(tmp_path / "a"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 0
    first = (tmp_path / "a" / "predictions.csv").read_bytes()
    assert run_cli("run", "--config", str(cfg_path), "--outdir", str(tmp_path / "b")) == 0
    second = (tmp_path / "b" / "predictions.csv").read_bytes()
    assert first == second
    for name in ("factors.csv", "corrected.csv", "predictions_corrected.csv"):
        assert (tmp_path / "a" / name).exists()


def test_knn_run_is_identical_across_blas_thread_counts(tmp_path):
    """The k-NN span estimates its distances with a BLAS gemm, which only
    prunes candidates: predictions.csv keeps its bytes under 1 and 2 threads."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "latitude_deg": 41.917, "synth": {"n_years": 8, "seed": 4}, "train_years": [1971, 1976],
        "test_years": [1977, 1978], "model": "knn", "preprocess": True,
    }))
    written = []
    for threads in ("1", "2"):
        outdir = tmp_path / f"threads{threads}"
        env = {**os.environ, "OMP_NUM_THREADS": threads, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(solarcast.__file__).parents[1])}
        result = subprocess.run(
            [sys.executable, "-m", "solarcast.cli", "run", "--config", str(cfg_path), "--outdir", str(outdir)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        written.append((outdir / "predictions.csv").read_bytes())
    assert written[0] == written[1]


def test_suffix_rerun_reproduces_pipeline_outputs(tmp_path):
    """Rerunning train+predict standalone from saved artifacts matches the
    pipeline's own outputs byte for byte."""
    cfg = {
        "latitude_deg": 41.917,
        "synth": {"n_years": 8, "seed": 21},
        "train_years": [1971, 1976],
        "test_years": [1977, 1978],
        "model": "mlp",
        "model_params": {"max_epochs": 40},
        "preprocess": True,
        "seed": 2,
        "outdir": str(tmp_path / "full"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 0
    full = tmp_path / "full"

    model2 = tmp_path / "model2.txt"
    assert run_cli("train", "--model", "mlp", "--input", str(full / "corrected.csv"),
                   "--train-years", "1971:1976", "--seed", "2", "--epochs", "40",
                   "--out", str(model2)) == 0
    assert model2.read_bytes() == (full / "model.txt").read_bytes()

    preds2 = tmp_path / "pred2.csv"
    assert run_cli("predict", "--model-file", str(model2),
                   "--history", str(full / "corrected.csv"),
                   "--days", "1977:1978", "--column", "s_corr_pred",
                   "--out", str(preds2)) == 0
    assert preds2.read_bytes() == (full / "predictions_corrected.csv").read_bytes()

    final2 = tmp_path / "final2.csv"
    assert run_cli("invert", "--input", str(preds2), "--factors", str(full / "factors.csv"),
                   "--lat", "41.917", "--out", str(final2)) == 0
    assert final2.read_bytes() == (full / "predictions.csv").read_bytes()


@pytest.mark.parametrize("kind, preprocess, flags", [
    ("mlp", True, ["--epochs", "20"]),
    ("arma", True, []),
    ("markov", True, []),
    ("knn", False, []),
])
def test_run_equals_cli_chain(kind, preprocess, flags, tmp_path):
    """Every file ``run`` writes equals, byte for byte, the file the
    stage-by-stage CLI writes from the same settings. The final predictions
    are named ``<model>.csv`` so that ``evaluate`` reports the same model id."""
    params = {"max_epochs": 20} if kind == "mlp" else {}
    cfg = {
        "latitude_deg": 41.917,
        "synth": {"n_years": 8, "seed": 13},
        "train_years": [1971, 1976],
        "test_years": [1977, 1978],
        "model": kind,
        "model_params": params,
        "preprocess": preprocess,
        "seed": 3,
        "outdir": str(tmp_path / "run"),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 0

    chain = tmp_path / "chain"
    chain.mkdir()
    c = {name: str(chain / name) for name in (
        "synthetic.csv", "cleaned.csv", "cleaning_report.csv", "factors.csv", "corrected.csv",
        "model.txt", "predictions_corrected.csv", f"{kind}.csv")}
    lat = ["--lat", "41.917"]
    assert run_cli("synth", "--years", "8", "--seed", "13", *lat, "--ar1", "0.5",
                   "--noise-std", "0.15", "--amplitude", "0.3", "--out", c["synthetic.csv"]) == 0
    assert run_cli("clean", "--input", c["synthetic.csv"], *lat, "--out", c["cleaned.csv"],
                   "--report", c["cleaning_report.csv"]) == 0
    history = c["cleaned.csv"]
    if preprocess:
        assert run_cli("preprocess", "--input", history, *lat, "--train-years", "1971:1976",
                       "--corrected-out", c["corrected.csv"], "--factors-out", c["factors.csv"]) == 0
        history = c["corrected.csv"]
    assert run_cli("train", "--model", kind, "--input", history, "--train-years", "1971:1976",
                   "--seed", "3", *flags, "--out", c["model.txt"]) == 0
    predict = ["predict", "--model-file", c["model.txt"], "--history", history, "--days", "1977:1978"]
    if preprocess:
        assert run_cli(*predict, "--column", "s_corr_pred", "--out", c["predictions_corrected.csv"]) == 0
        assert run_cli("invert", "--input", c["predictions_corrected.csv"], "--factors", c["factors.csv"],
                       *lat, "--out", c[f"{kind}.csv"]) == 0
    else:
        assert run_cli(*predict, "--out", c[f"{kind}.csv"]) == 0
    assert run_cli("evaluate", c[f"{kind}.csv"], "--measured", c["cleaned.csv"],
                   "--outdir", str(chain)) == 0

    written = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert len(written) == (11 if preprocess else 8), written
    for name in written:
        twin = chain / (f"{kind}.csv" if name == "predictions.csv" else name)
        assert (tmp_path / "run" / name).read_bytes() == twin.read_bytes(), name


def test_negative_corrected_forecast_is_floored_at_zero(tmp_path):
    """An MLP trained for one epoch forecasts some corrected values below 0.
    ``run`` floors them in ``predictions_corrected.csv``, the CLI chain's
    ``predict --column s_corr_pred`` and ``invert`` rewrite the same bytes,
    and ``predictions.csv`` equals the unfloored forecasts inverted and then
    floored."""
    out = tmp_path / "run"
    cfg = {
        "latitude_deg": 41.917,
        "synth": {"n_years": 3, "seed": 11},
        "train_years": [1971, 1972],
        "test_years": [1973, 1973],
        "model": "mlp",
        "model_params": {"max_epochs": 1},
        "seed": 2,
        "outdir": str(out),
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 0

    assert (out / "corrected.csv").read_text().startswith("date,s_corr\n")
    corrected = load_csv(out / "corrected.csv")
    test_days = corrected.slice_years(1973, 1973).dates()
    raw = pipeline.forecast_one_step(load_forecaster(out / "model.txt"), corrected, test_days)
    assert (raw < 0).any()
    assert (out / "predictions_corrected.csv").read_text().startswith("date,s_corr_pred\n")
    floored = load_csv(out / "predictions_corrected.csv").values
    assert np.array_equal(floored, np.maximum(raw, 0.0))

    chain_corr, chain_pred = tmp_path / "pred_corr.csv", tmp_path / "pred.csv"
    assert run_cli("predict", "--model-file", str(out / "model.txt"), "--history", str(out / "corrected.csv"),
                   "--days", "1973:1973", "--column", "s_corr_pred", "--out", str(chain_corr)) == 0
    assert run_cli("invert", "--input", str(chain_corr), "--factors", str(out / "factors.csv"),
                   "--lat", "41.917", "--out", str(chain_pred)) == 0
    assert chain_corr.read_bytes() == (out / "predictions_corrected.csv").read_bytes()
    assert chain_pred.read_bytes() == (out / "predictions.csv").read_bytes()

    site = solarcast.SiteSpec.from_degrees(41.917)
    inverter = solarcast.Preprocessor(solarcast.h0_table(site), *pipeline.read_factors_csv(out / "factors.csv"))
    expected = tmp_path / "inverted_then_floored.csv"
    pipeline.write_forecast(test_days[0], inverter.invert(raw, test_days), expected)
    assert expected.read_bytes() == (out / "predictions.csv").read_bytes()


def test_preprocess_flag_changes_only_steps_2_3_5(tmp_path):
    """Both arms share cleaning: cleaned.csv is identical with and without
    preprocessing."""
    base = {
        "latitude_deg": 41.917,
        "synth": {"n_years": 8, "seed": 5},
        "train_years": [1971, 1976],
        "test_years": [1977, 1978],
        "model": "naive",
        "seed": 0,
    }
    for name, pre in (("with", True), ("without", False)):
        cfg = dict(base, preprocess=pre, outdir=str(tmp_path / name))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        assert run_cli("run", "--config", str(path)) == 0
    a = (tmp_path / "with" / "cleaned.csv").read_bytes()
    b = (tmp_path / "without" / "cleaned.csv").read_bytes()
    assert a == b
    assert (tmp_path / "with" / "factors.csv").exists()
    assert not (tmp_path / "without" / "factors.csv").exists()


def test_spectrum_of_zero_power_series_is_numerical_failure(tmp_path):
    path = tmp_path / "flat.csv"
    rows = ["date,x"] + [f"1971-01-{d:02d},5.0" for d in range(1, 29)]
    path.write_text("\n".join(rows) + "\n")
    assert run_cli("spectrum", "--input", str(path), "--out", str(tmp_path / "s.csv")) == 3


def test_spectrum_overflow_is_a_numerical_error(tmp_path, capsys):
    huge = tmp_path / "huge.csv"
    start = dt.date(1971, 1, 1)
    rows = [f"{start + dt.timedelta(days=i)},{1e200 if i == 17 else 0.5}" for i in range(400)]
    huge.write_text("date,x\n" + "\n".join(rows) + "\n")
    flat = tmp_path / "flat.csv"
    flat.write_text("date,x\n" + "".join(f"1971-01-{d:02d},5.0\n" for d in range(1, 29)))
    for path in (huge, flat):
        out = tmp_path / "spectrum.csv"
        assert run_cli("spectrum", "--input", str(path), "--out", str(out)) == 3, path
        err = capsys.readouterr().err
        assert err.startswith("numerical error:") and err.count("\n") == 1, err
        assert not out.exists()


def test_spectrum_prints_an_underflowed_p_value_as_a_bound(tmp_path, capsys):
    """Fisher's p-value is never 0, so the 0.0 a 4-year raw series' test
    underflows to is printed as below the least double; the exit code and
    spectrum.csv stay as they were, and a p-value that fits prints as a number."""
    raw = tmp_path / "raw4.csv"
    assert run_cli("synth", "--years", "4", "--seed", "7", "--lat", "41.917", "--out", str(raw)) == 0
    capsys.readouterr()
    assert run_cli("spectrum", "--input", str(raw), "--out", str(tmp_path / "s.csv")) == 0
    assert capsys.readouterr().out == "peak period 365.25 days; Fisher g 0.663773 (p-value < 5e-324)\n"
    assert (tmp_path / "s.csv").read_text().splitlines()[0] == "period_days,power"
    noise = tmp_path / "noise.csv"
    values = np.random.default_rng(0).uniform(1.0, 2.0, 400)
    noise.write_text("date,x\n" + "".join(f"{dt.date(1971, 1, 1) + dt.timedelta(days=i)},{v!r}\n"
                                           for i, v in enumerate(values.tolist())))
    assert run_cli("spectrum", "--input", str(noise), "--out", str(tmp_path / "n.csv")) == 0
    p_value = capsys.readouterr().out.rsplit("(p-value ", 1)[1]
    assert 0.0 < float(p_value.rstrip(")\n")) <= 1.0


def test_evaluate_multiple_predictions_emits_ci(workdir, tmp_path):
    root, data = workdir
    cleaned = root / "cleaned3.csv"
    run_cli("clean", "--input", str(data), "--lat", "41.917", "--out", str(cleaned))
    preds = []
    for name, seed in (("run_a", 1), ("run_b", 2)):
        model = tmp_path / f"{name}.txt"
        run_cli("train", "--model", "mlp", "--input", str(cleaned),
                "--train-years", "1971:1976", "--seed", str(seed), "--out", str(model))
        pred = tmp_path / f"{name}.csv"
        run_cli("predict", "--model-file", str(model), "--history", str(cleaned),
                "--days", "1977:1978", "--out", str(pred))
        preds.append(str(pred))
    outdir = tmp_path / "eval"
    assert run_cli("evaluate", *preds, "--measured", str(cleaned), "--outdir", str(outdir)) == 0
    ci = (outdir / "ci.csv").read_text().splitlines()
    assert ci[0] == "metric,mean,half_width_95,n_runs"
    assert len(ci) == 5
    table = (outdir / "table1.csv").read_text().splitlines()
    assert len(table) == 3


@pytest.fixture(scope="module")
def cleaned_csv(workdir):
    root, data = workdir
    cleaned = root / "cleaned_shared.csv"
    assert run_cli("clean", "--input", str(data), "--lat", "41.917", "--out", str(cleaned)) == 0
    return cleaned


FAST = {"mlp": ["--epochs", "5"]}  # train takes a flag only for the model it trains


def train_kind(cleaned, kind, out, *flags):
    return run_cli("train", "--model", kind, "--input", str(cleaned),
                   "--train-years", "1971:1976", "--out", str(out), *flags)


@pytest.mark.parametrize("kind,flags,expected", [
    ("ar", ["--p", "3"], {"p": "3"}),
    ("arma", ["--p", "1", "--q", "1"], {"p": "1", "q": "1"}),
    ("markov", ["--order", "2", "--n-classes", "20"], {"order": "2", "n_classes": "20"}),
    ("bayes", ["--order", "2", "--n-classes", "20"], {"order": "2", "n_classes": "20"}),
    ("knn", ["--k", "5", "--window", "4"], {"k": "5", "window": "4"}),
    ("mlp", ["--p", "4", "--n-hidden", "2", "--seed", "9", "--epochs", "0", "--max-fail", "2"],
     {"n_inputs": "4", "n_hidden": "2", "seed": "9"}),
])
def test_train_flags_reach_model_file(kind, flags, expected, cleaned_csv, tmp_path):
    out = tmp_path / "model.txt"
    assert train_kind(cleaned_csv, kind, out, *flags) == 0
    saved_kind, meta, blocks = load_model_file(out)
    assert saved_kind == kind
    assert {key: meta[key] for key in expected} == expected
    if kind in ("markov", "bayes"):
        assert blocks["edges"].size == 21
    if kind == "mlp":
        # --epochs 0 keeps the seeded initial weights; --max-fail reaches MlpBundle.
        init = init_mlp(4, 2, seed=9)  # w1 row-major leads the packed weights
        np.testing.assert_array_equal(blocks["w1"], init[:8].reshape(2, 4))
        assert train_kind(cleaned_csv, kind, out, *flags[:-1], "0") == 1


@pytest.mark.parametrize("kind, flags, named", [
    ("ar", ["--k", "3", "--n-hidden", "50", "--epochs", "2"], "'k': ar takes only ['p']"),
    ("knn", ["--epochs", "2"], "'max_epochs': knn takes only ['k', 'window']"),
], ids=["ar", "knn"])
def test_train_refuses_another_models_flag(kind, flags, named, cleaned_csv, tmp_path, capsys):
    out = tmp_path / "model.txt"
    assert train_kind(cleaned_csv, kind, out, *flags) == 1
    assert capsys.readouterr().err == f"config error: model parameter {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["naive", "ar", "arma", "markov", "bayes", "knn", "mlp"])
def test_negative_run_seed_is_a_config_error_for_every_model(kind, cleaned_csv, tmp_path, capsys):
    """``train --seed`` is the run seed: it is checked for every model, not
    only for the MLP that reads it."""
    out = tmp_path / "model.txt"
    assert train_kind(cleaned_csv, kind, out, "--seed=-1") == 1
    assert capsys.readouterr().err == "config error: model parameter 'seed': seed must be >= 0, got -1\n"
    assert not out.exists()


def test_every_model_parameter_has_one_check(cleaned_csv, tmp_path, capsys):
    """Each parameter of each registered forecaster trains at its least value;
    one below it, from a train flag or a config's model_params, is a one-line
    config error naming the parameter, and so are k-NN k and window one past
    what the training span supports, set or defaulted. A span too short for
    any value says so, with its count of training values, not a negative bound."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest: a.option_strings[0] for a in sub.choices["train"]._actions if a.option_strings}
    out = tmp_path / "model.txt"

    def refused(code, name):
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("config error:") and err.count("\n") == 1, err
        assert f"model parameter '{name}'" in err, err
        assert not out.exists() and not (tmp_path / "run" / "model.txt").exists()

    cfg = {"latitude_deg": 41.917, "synth": {"n_years": 3, "seed": 11}, "train_years": [1971, 1972],
           "test_years": [1973, 1973], "preprocess": False, "outdir": str(tmp_path / "run")}
    cfg_path = tmp_path / "cfg.json"
    for kind, cls in FORECASTERS.items():
        assert set(cls.params) <= set(flags), kind
        least = [arg for name, low in cls.params.items() for arg in (flags[name], str(low))]
        assert train_kind(cleaned_csv, kind, out, *least) == 0, kind
        out.unlink()
        for name, low in cls.params.items():
            refused(train_kind(cleaned_csv, kind, out, flags[name], str(low - 1)), name)
            cfg_path.write_text(json.dumps({**cfg, "model": kind, "model_params": {name: low - 1}}))
            refused(run_cli("run", "--config", str(cfg_path)), name)

    n = len(load_csv(cleaned_csv).slice_years(1971, 1976))
    # window with k = 2, the most its 2 candidate windows allow; k with the default window of 10
    for name, bound, rest in (("window", n - 2, ["--k", "2"]), ("k", n - 10, [])):
        assert train_kind(cleaned_csv, "knn", out, flags[name], str(bound), *rest) == 0
        out.unlink()
        refused(train_kind(cleaned_csv, "knn", out, flags[name], str(bound + 1), *rest), name)
    refused(train_kind(cleaned_csv, "knn", out, flags["window"], str(n - 2)), "k")  # the default k=10

    one_row, missing = tmp_path / "one_row.csv", tmp_path / "missing.csv"
    one_row.write_text("date,ghi_wh_m2\n1971-01-01,100.000\n", encoding="utf-8")
    missing.write_text("date,ghi_wh_m2\n" + "".join(f"1971-01-{d:02d},\n" for d in range(1, 31)), encoding="utf-8")
    for kind, data, name, span in (("knn", one_row, "window", 1), ("mlp", missing, "n_hidden", 30)):
        assert train_kind(data, kind, out) == 1
        assert capsys.readouterr().err == (f"config error: model parameter '{name}': the training span of {span}"
                                           " values is too short for any value of it\n")
        assert not out.exists()


def _block_cuts(lines):
    """Line counts that cut a model file before, just after and inside each block."""
    for h, line in enumerate(lines):
        if line.startswith("@block"):
            rows = int(line.split()[2])
            yield from (h, h + 1, h + 1 + (rows + 1) // 2)


def _model_file_mutations(text):
    """(label, lines, expected message part) for broken copies of a model file."""
    lines = text.splitlines()
    for cut in _block_cuts(lines):
        yield f"cut at line {cut}", lines[:cut], ""
    for i, line in enumerate(lines[1:], start=1):
        if "=" in line:
            key = line.split("=")[0]
            yield f"drop {key}", lines[:i] + lines[i + 1:], ""
            yield f"garble {key}", lines[:i] + [f"{key}=x1"] + lines[i + 1:], ""
    headers = [i for i, line in enumerate(lines) if line.startswith("@block")]
    if headers:
        h = headers[0]
        _, name, _, cols = lines[h].split()
        yield "garble block header", lines[:h] + [f"@block {name} one {cols}"] + lines[h + 1:], ""
        first, *rest = lines[h + 1].split(",")
        yield "garble a float", lines[:h + 1] + [",".join([first + "x", *rest])] + lines[h + 2:], ""
    if "@block edges " in text:
        yield from _edges_mutations(lines)
    if "@block transitions_2" in text:
        yield from _markov_row_mutations(lines)
    if "@block priors " in text:
        yield from _bayes_block_mutations(lines)
    for i, line in enumerate(lines):
        if line.startswith("smoothing="):
            for value in ("0.0", "-1.0", "inf"):
                yield f"smoothing={value}", lines[:i] + [f"smoothing={value}"] + lines[i + 1:], \
                    "smoothing: values must be finite and > 0"
    if "@block day_means " in text:
        yield "300 day_means", _with_block(lines, "day_means", [",".join(["1.0"] * 300)]), \
            "day_means: expected shape (365,), got (300,)"
    for key, name, value in (("p", "ar", "3"), ("q", "ma", "1")):
        if f"@block {name} " in text:
            i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}="))
            yield f"meta {key}={value}", lines[:i] + [f"{key}={value}"] + lines[i + 1:], \
                f"{name}: expected shape ({value},), got "


def _with_block(lines, name, rows):
    """``lines`` with the body of block ``name`` replaced by ``rows``."""
    h = next(i for i, line in enumerate(lines) if line.startswith(f"@block {name} "))
    header = f"@block {name} {len(rows)} {len(rows[0].split(','))}"
    return lines[:h] + [header, *rows] + lines[h + 1 + int(lines[h].split()[2]):]


def _edges_mutations(lines):
    """Markov/Bayes edges no fit writes: a meta n_classes that the block does
    not hold, a NaN edge and two edges swapped."""
    i = next(i for i, line in enumerate(lines) if line.startswith("n_classes="))
    n = int(lines[i].split("=")[1])
    other = 20 if n != 20 else 10
    yield f"meta n_classes={other}", lines[:i] + [f"n_classes={other}"] + lines[i + 1:], \
        f"edges: expected shape ({other + 1},), got ({n + 1},)"
    edges = lines[lines.index(f"@block edges 1 {n + 1}") + 1].split(",")
    yield "nan first edge", _with_block(lines, "edges", [",".join(["nan", *edges[1:]])]), \
        "edges: values must be finite"
    swapped = [edges[0], edges[2], edges[1], *edges[3:]]
    yield "two edges swapped", _with_block(lines, "edges", [",".join(swapped)]), \
        "edges: values must be strictly increasing"


def _bayes_block_mutations(lines):
    """Bayes blocks no fit writes: priors one class short or negative, and
    conditional tables a row short or holding NaN."""
    meta = dict(line.split("=", 1) for line in lines if "=" in line)
    n, order = int(meta["n_classes"]), int(meta["order"])
    priors = lines[lines.index(f"@block priors 1 {n}") + 1].split(",")
    yield "short priors", _with_block(lines, "priors", [",".join(priors[:-1])]), \
        f"priors: expected shape ({n},), got ({n - 1},)"
    yield "negative priors", _with_block(lines, "priors", [",".join(["-1.0"] * n)]), \
        "priors: values must be finite and >= 0"
    tables = {}
    for j in range(1, order + 1):
        h = lines.index(f"@block cond_lag_{j} {n} {n}")
        tables[j] = lines[h + 1 : h + 1 + n]
    short_table = f"cond_lag_1: expected shape ({n}, {n}), got ({n - 1}, {n})"
    yield "one short table", _with_block(lines, "cond_lag_1", tables[1][:-1]), short_table
    short = lines
    for j, table in tables.items():
        short = _with_block(short, f"cond_lag_{j}", table[:-1])
    yield "short tables", short, short_table
    rest = tables[2][0].split(",", 1)[1]
    yield "nan count", _with_block(lines, "cond_lag_2", [f"nan,{rest}", *tables[2][1:]]), \
        "cond_lag_2: values must be finite and >= 0"


def _markov_row_mutations(lines):
    """Markov blocks no fit writes: transitions_2 rows [c_1, c_2, next, count]
    with a bad class or count, a wrong width, unsorted or repeated rows, and
    a marginal one class short."""
    h = next(i for i, line in enumerate(lines) if line.startswith("@block transitions_2 "))
    _, name, rows, cols = lines[h].split()
    body, tail = lines[h + 1 : h + 1 + int(rows)], lines[h + 1 + int(rows):]
    n = int(next(line for line in lines if line.startswith("n_classes=")).split("=")[1])

    def first_row_with(col, value):
        row = body[0].split(",")
        row[col] = value
        return lines[:h + 1] + [",".join(row)] + body[1:] + tail

    classes, values = f"{name}: classes must be integers", f"{name}: values must be finite and >= 0"
    for col, value, expected in (
        (0, "-1.0", values), (2, "-1.0", values), (0, "75.0", classes), (2, f"{n}.0", classes),
        (1, "1.5", classes), (2, "nan", values), (3, "0.0", f"{name} counts: values must be finite and > 0"),
    ):
        yield f"{name} column {col} = {value}", first_row_with(col, value), expected
    narrow = [row.rsplit(",", 1)[0] for row in body]
    header = f"@block {name} {rows} {int(cols) - 1}"
    yield "wrong width", lines[:h] + [header] + narrow + tail, \
        f"{name}: expected shape (any, 4), got ({rows}, 3)"
    increasing = f"{name}: rows must be strictly increasing"
    yield "unsorted rows", lines[:h + 1] + [body[1], body[0]] + body[2:] + tail, increasing
    header = f"@block {name} {int(rows) + 1} {cols}"
    yield "repeated row", lines[:h] + [header, body[0]] + body + tail, increasing
    m = lines.index(f"@block marginal 1 {n}")
    short = lines[m + 1].rsplit(",", 1)[0]
    yield "short marginal", lines[:m] + [f"@block marginal 1 {n - 1}", short] + lines[m + 2:], \
        f"marginal: expected shape ({n},), got ({n - 1},)"


@pytest.mark.parametrize("kind", ["naive", "ar", "arma", "markov", "bayes", "knn", "mlp"])
def test_malformed_model_file_is_a_data_error(kind, cleaned_csv, tmp_path, capsys):
    good = tmp_path / "good.txt"
    assert train_kind(cleaned_csv, kind, good, *FAST.get(kind, [])) == 0
    predict = ["predict", "--history", str(cleaned_csv), "--days", "1977:1977",
               "--out", str(tmp_path / "pred.csv")]
    assert run_cli(*predict, "--model-file", str(good)) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    n_cases = 0
    for label, lines, expected in _model_file_mutations(good.read_text()):
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli(*predict, "--model-file", str(bad)) == 2, label
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, (label, err)
        assert str(bad) in err and expected in err, (label, err)
        n_cases += 1
    assert n_cases >= 3


def _set_first_value(lines, name, value):
    """``lines`` with the first value of block ``name`` replaced by ``value``."""
    h = next(i for i, line in enumerate(lines) if line.startswith(f"@block {name} "))
    rows = lines[h + 1 : h + 1 + int(lines[h].split()[2])]
    return _with_block(lines, name, [",".join([value, *rows[0].split(",")[1:]]), *rows[1:]])


def _predict_exits_2_naming(bad, lines, cleaned_csv, tmp_path, capsys, *named):
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "pred.csv"
    code = run_cli("predict", "--model-file", str(bad), "--history", str(cleaned_csv),
                   "--days", "1977:1977", "--out", str(out))
    err = capsys.readouterr().err
    assert code == 2 and err.startswith("data error:") and err.count("\n") == 1, err
    assert all(part in err for part in (str(bad), *named)), err
    assert not out.exists()


@pytest.mark.parametrize("kind", ["naive", "ar", "arma", "markov", "bayes", "knn", "mlp"])
def test_every_written_block_is_checked(kind, cleaned_csv, tmp_path, capsys):
    """An inf or -inf (and, but for naive day_means, a NaN) as the first
    value of any block that ``to_model_file`` writes is a one-line data error
    naming the file and the block."""
    good = tmp_path / "good.txt"
    assert train_kind(cleaned_csv, kind, good, *FAST.get(kind, [])) == 0
    lines = good.read_text().splitlines()
    _, blocks = load_forecaster(good).to_model_file()
    for name in blocks:
        for value in ("inf", "-inf") + (() if (kind, name) == ("naive", "day_means") else ("nan",)):
            bad = tmp_path / f"{name}-{value}.txt"
            _predict_exits_2_naming(bad, _set_first_value(lines, name, value), cleaned_csv, tmp_path,
                                    capsys, f"DataError: {name}")


@pytest.mark.parametrize("kind, target, value, expected", [
    ("ar", "ar", "nan", "ar: values must be finite"),
    ("arma", "ma", "nan", "ma: values must be finite"),
    ("mlp", "scaler_mins", "nan", "scaler_mins: values must be finite"),
    ("mlp", "b2", "0.5,0.5", "b2: expected shape (1,), got (2,)"),
    ("markov", "order", "0", "order must be >= 1, got 0"),
    ("naive", "day_means", "-5.0", "day_means: values must be finite and >= 0"),
    ("mlp", "w1", "nan", "w1: values must be finite"),
    ("ar", "intercept", "inf", "intercept: values must be finite"),
    ("naive", "day_means", "inf", "day_means: values must be finite and >= 0"),
    ("knn", "k", "0", "k must be >= 1, got 0"),
    ("markov", "n_classes", "1", "n_classes must be >= 2, got 1"),
    ("mlp", "seed", "-1", "seed must be >= 0, got -1"),
], ids=["ar-nan-ar", "arma-nan-ma", "mlp-nan-scaler_mins", "mlp-two-b2", "markov-order-0",
        "naive-negative-day_means", "mlp-nan-w1", "ar-inf-intercept", "naive-inf-day_means",
        "knn-k-0", "markov-classes-1", "mlp-seed-negative"])
def test_model_file_holes_are_data_errors(kind, target, value, expected, cleaned_csv, tmp_path, capsys):
    """Hand edits of a trained model.txt that once made predict exit 0 (and
    write empty forecasts), drop a value, or exit 3 without naming the file."""
    good = tmp_path / "good.txt"
    assert train_kind(cleaned_csv, kind, good, *FAST.get(kind, [])) == 0
    lines = good.read_text().splitlines()
    if f"{target}=" in good.read_text():
        lines = [f"{target}={value}" if line.startswith(f"{target}=") else line for line in lines]
    else:
        lines = _set_first_value(lines, target, value)
    _predict_exits_2_naming(tmp_path / "bad.txt", lines, cleaned_csv, tmp_path, capsys, expected)


def test_markov_file_context_keys_must_fit_int64(cleaned_csv, tmp_path, capsys):
    """A markov model.txt whose n_classes ** order exceeds 2**63 (50 ** 12)
    is a data error on read, as the same order is when fitting."""
    good = tmp_path / "good.txt"
    assert train_kind(cleaned_csv, "markov", good) == 0
    lines = ["order=12" if line == "order=3" else line for line in good.read_text().splitlines()]
    for k in range(4, 13):
        lines += [f"@block transitions_{k} 0 {k + 2}", "@end"]
    _predict_exits_2_naming(tmp_path / "bad.txt", lines, cleaned_csv, tmp_path, capsys,
                            "50 classes to the power of order 12 exceed int64 keys")


@pytest.mark.parametrize("kind", ["ar", "arma"])
def test_training_overflow_is_a_numerical_error(kind, cleaned_csv, tmp_path, capsys):
    lines = cleaned_csv.read_text().splitlines()
    lines[40] = lines[40].split(",")[0] + ",1e200"
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(lines) + "\n")
    out = tmp_path / "model.txt"
    assert train_kind(huge, kind, out) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error:") and err.count("\n") == 1, err
    assert err.startswith("numerical error: fitting: overflow"), err
    assert not out.exists()


def test_train_writes_no_model_predict_would_refuse(cleaned_csv, tmp_path, capsys):
    """1e308 on the same day of two years sums past the float range without a
    floating-point signal; the inf day mean fails train, not the predict
    that would read its model.txt."""
    lines = [f"{line.split(',')[0]},1e308" if line.startswith(("1971-03-01", "1972-03-01")) else line
             for line in cleaned_csv.read_text().splitlines()]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    out = tmp_path / "model.txt"
    assert train_kind(bad, "naive", out) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert "day_means: values must be finite and >= 0" in err and str(out) in err, err
    assert not out.exists()


def test_float_overflow_in_a_stage_is_a_numerical_error(cleaned_csv, tmp_path, capsys):
    """Overflow while fitting (Markov class centers), forecasting (an MLP
    weight) or inverting (a seasonal factor) exits 3 with one line."""
    lines = cleaned_csv.read_text().splitlines()
    huge = tmp_path / "huge.csv"
    huge.write_text("\n".join(lines[:40] + [lines[40].split(",")[0] + ",1e308"] + lines[41:]) + "\n")
    mlp, bad_mlp = tmp_path / "mlp.txt", tmp_path / "bad_mlp.txt"
    assert train_kind(cleaned_csv, "mlp", mlp, "--epochs", "5") == 0
    bad_mlp.write_text("\n".join(_set_first_value(mlp.read_text().splitlines(), "w1", "1e308")) + "\n")
    corrected, factors = tmp_path / "corrected.csv", tmp_path / "factors.csv"
    assert run_cli("preprocess", "--input", str(cleaned_csv), "--lat", "41.917",
                   "--corrected-out", str(corrected), "--factors-out", str(factors)) == 0
    factor_lines = factors.read_text().splitlines()
    factors.write_text("\n".join([factor_lines[0], "1,1e308,6", *factor_lines[2:]]) + "\n")
    out = tmp_path / "out.csv"
    capsys.readouterr()
    for what, argv in (
        ("fitting", ["train", "--model", "markov", "--input", huge, "--out", out]),
        ("forecasting", ["predict", "--model-file", bad_mlp, "--history", cleaned_csv,
                         "--days", "1977:1977", "--out", out]),
        ("inverting", ["invert", "--input", corrected, "--factors", factors, "--lat", "41.917",
                       "--out", out]),
    ):
        assert run_cli(*map(str, argv)) == 3, what
        err = capsys.readouterr().err
        assert err.startswith(f"numerical error: {what}: overflow") and err.count("\n") == 1, err
        assert not out.exists()


def test_malformed_factors_row_is_a_data_error(cleaned_csv, tmp_path, capsys):
    corrected, factors = tmp_path / "corrected.csv", tmp_path / "factors.csv"
    assert run_cli("preprocess", "--input", str(cleaned_csv), "--lat", "41.917",
                   "--corrected-out", str(corrected), "--factors-out", str(factors)) == 0
    lines = factors.read_text().splitlines()
    broken = tmp_path / "broken.csv"
    for bad_row in ("5,abc,6", "5,1.0", "5,1.0,6,7", "five,1.0,6",
                    "5,nan,6", "5,inf,6", "5,-inf,6", "5,0.0,6", "5,-1.5,6"):
        broken.write_text("\n".join(lines[:5] + [bad_row] + lines[6:]) + "\n")
        assert run_cli("invert", "--input", str(corrected), "--factors", str(broken),
                       "--lat", "41.917", "--out", str(tmp_path / "out.csv")) == 2, bad_row
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert str(broken) in err, err
    assert not (tmp_path / "out.csv").exists()
    assert run_cli("invert", "--input", str(corrected), "--factors", str(tmp_path / "missing.csv"),
                   "--lat", "41.917", "--out", str(tmp_path / "out.csv")) == 2
    assert capsys.readouterr().err.startswith(f"data error: cannot read {tmp_path / 'missing.csv'}")


def test_predict_rejects_a_partly_covered_span(cleaned_csv, tmp_path, capsys):
    model = tmp_path / "naive.txt"
    assert train_kind(cleaned_csv, "naive", model) == 0
    for days in ("1977:1990", "1970:1972", "1979:1980"):
        out = tmp_path / "pred.csv"
        assert run_cli("predict", "--model-file", str(model), "--history", str(cleaned_csv),
                       "--days", days, "--out", str(out)) == 2, days
        assert "not fully inside the history" in capsys.readouterr().err
        assert not out.exists()
    assert run_cli("predict", "--model-file", str(model), "--history", str(cleaned_csv),
                   "--days", "1972:1978", "--out", str(tmp_path / "ok.csv")) == 0
    assert len(load_csv(tmp_path / "ok.csv")) == len(load_csv(cleaned_csv).slice_years(1972, 1978))


@pytest.fixture(scope="module")
def four_years(tmp_path_factory):
    data = tmp_path_factory.mktemp("gaps") / "data.csv"
    assert run_cli("synth", "--years", "4", "--seed", "3", "--out", str(data)) == 0
    return data


@pytest.mark.parametrize("preprocess", [True, False])
def test_run_rejects_test_years_past_the_input(preprocess, four_years, tmp_path, capsys):
    """A run's test years must lie inside the input, as ``predict --days``
    must: test years 1973:1990 on a 1971-1974 input are one data error line
    and no forecast is written, while training years reaching before the
    input still clamp to it."""
    cfg = {"latitude_deg": 41.917, "input_csv": str(four_years), "train_years": [1969, 1972],
           "test_years": [1973, 1990], "model": "naive", "preprocess": preprocess,
           "outdir": str(tmp_path / "out")}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert run_cli("run", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and err.count("\n") == 1, err
    assert "test years 1973:1990 are not fully inside the history 1971-01-01..1974-12-31" in err, err
    assert not list((tmp_path / "out").glob("predictions*.csv"))
    cfg_path.write_text(json.dumps({**cfg, "test_years": [1973, 1974]}))
    assert run_cli("run", "--config", str(cfg_path)) == 0
    assert len(load_csv(tmp_path / "out" / "predictions.csv")) == 730


@pytest.mark.parametrize("gap, kind, day", [
    ("1972-02-05", "arma", "1974-01-01"),  # the residual recursion carries the gap to every later day
    ("1972-02-05", "knn", "1974-11-20"),  # a window chosen for that day has the gap as its successor
    ("1974-03-10", "ar", "1974-03-11"),
    ("1974-03-10", "knn", "1974-03-11"),  # the query holds the gap
    ("1974-03-10", "markov", "1974-03-11"),
    ("1974-03-10", "bayes", "1974-03-11"),
    ("1974-03-10", "mlp", "1974-03-11"),
])
def test_missing_history_value_is_a_data_error(gap, kind, day, four_years, tmp_path, capsys):
    """A model trained on a full series, forecasting from a history with one day missing."""
    model, gappy, out = tmp_path / "model.txt", tmp_path / "gappy.csv", tmp_path / "pred.csv"
    assert run_cli("train", "--model", kind, "--input", str(four_years), "--train-years", "1971:1973",
                   "--out", str(model)) == 0
    text = four_years.read_text()
    assert f"\n{gap}," in text
    gappy.write_text("\n".join(f"{gap}," if line.startswith(gap) else line for line in text.split("\n")))
    assert run_cli("predict", "--model-file", str(model), "--history", str(gappy), "--days", "1974:1974",
                   "--out", str(out)) == 2
    assert capsys.readouterr().err == f"data error: missing value in the history before {day}\n"
    assert not out.exists()


def test_predict_before_the_model_order_is_a_data_error(cleaned_csv, tmp_path, capsys):
    model = tmp_path / "arma.txt"
    assert train_kind(cleaned_csv, "arma", model) == 0
    capsys.readouterr()
    out = tmp_path / "pred.csv"
    assert run_cli("predict", "--model-file", str(model), "--history", str(cleaned_csv),
                   "--days", "1971:1971", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == "data error: need 2 values of history before 1971-01-01\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, need", [  # AR max(p, q), Markov/Bayes order, k-NN window + max(k, 2), MLP p
    ("ar", 8), ("markov", 3), ("bayes", 3), ("knn", 20), ("mlp", 8),
])
def test_too_little_history_names_the_day(kind, need, cleaned_csv, tmp_path, capsys):
    """Each model that reads past values refuses a day with too little
    history before it in one message that names the day, as ARMA does in
    ``test_predict_before_the_model_order_is_a_data_error``."""
    model, out = tmp_path / "model.txt", tmp_path / "pred.csv"
    assert train_kind(cleaned_csv, kind, model, *FAST.get(kind, [])) == 0
    capsys.readouterr()
    assert run_cli("predict", "--model-file", str(model), "--history", str(cleaned_csv),
                   "--days", "1971:1971", "--out", str(out)) == 2
    assert capsys.readouterr().err == f"data error: need {need} values of history before 1971-01-01\n"
    assert not out.exists()


@pytest.mark.parametrize("kind, code", [
    ("ar", 2), ("arma", 2), ("markov", 2), ("bayes", 2), ("naive", 0), ("knn", 0), ("mlp", 0),
])
def test_missing_training_value(kind, code, four_years, tmp_path, capsys):
    """AR, ARMA, Markov and Bayes refuse a training span with a missing
    value before fitting, naming its date; naive, k-NN and the MLP train
    around it."""
    gap, gappy, model = "1972-02-05", tmp_path / "gappy.csv", tmp_path / "model.txt"
    text = four_years.read_text()
    assert f"\n{gap}," in text
    gappy.write_text("\n".join(f"{gap}," if line.startswith(gap) else line for line in text.split("\n")))
    assert run_cli("train", "--model", kind, "--input", str(gappy), "--train-years", "1971:1973",
                   "--out", str(model), *FAST.get(kind, [])) == code
    if code:
        assert capsys.readouterr().err == f"data error: missing value in the training span on {gap}\n"
    assert model.exists() == (code == 0)


@pytest.mark.parametrize("command", ["train", "preprocess", "predict", "run"])
def test_reversed_year_span_is_a_config_error(command, cleaned_csv, tmp_path, capsys):
    """A span whose first year is after its last is refused with one
    config-error line, from a flag or from a run config alike."""
    model, out = tmp_path / "naive.txt", tmp_path / "out.csv"
    assert train_kind(cleaned_csv, "naive", model) == 0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "latitude_deg": 41.917, "input_csv": str(cleaned_csv), "train_years": [1973, 1971],
        "test_years": [1974, 1974], "model": "naive", "outdir": str(tmp_path / "run"),
    }))
    argv = {
        "train": ["train", "--model", "naive", "--input", str(cleaned_csv),
                  "--train-years", "1973:1971", "--out", str(out)],
        "preprocess": ["preprocess", "--input", str(cleaned_csv), "--lat", "41.917",
                       "--train-years", "1973:1971", "--corrected-out", str(out),
                       "--factors-out", str(tmp_path / "factors.csv")],
        "predict": ["predict", "--model-file", str(model), "--history", str(cleaned_csv),
                    "--days", "1974:1973", "--out", str(out)],
        "run": ["run", "--config", str(config)],
    }[command]
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1, err
    assert not out.exists() and not (tmp_path / "run").exists()


def test_two_prediction_files_of_one_stem_are_a_config_error(cleaned_csv, tmp_path, capsys):
    """``evaluate`` and ``compare`` name each run after its file's stem, so
    two files of one stem are refused, naming both, instead of one being dropped."""
    model = tmp_path / "naive.txt"
    assert train_kind(cleaned_csv, "naive", model) == 0
    paths = []
    for sub in ("a", "b"):
        (tmp_path / sub).mkdir()
        paths.append(str(tmp_path / sub / "mlp.csv"))
        assert run_cli("predict", "--model-file", str(model), "--history", str(cleaned_csv),
                       "--days", "1977:1977", "--out", paths[-1]) == 0
    capsys.readouterr()
    table, outdir = tmp_path / "table1.csv", tmp_path / "eval"
    for argv in (["compare", *paths, "--measured", str(cleaned_csv), "--out", str(table)],
                 ["evaluate", *paths, "--measured", str(cleaned_csv), "--outdir", str(outdir)]):
        assert run_cli(*argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1, err
        assert paths[0] in err and paths[1] in err, err
    assert not table.exists() and not (outdir / "metrics.csv").exists()


def test_n_hidden_at_its_bound_trains(cleaned_csv, tmp_path, capsys):
    """1971..1976 hold 2184 training windows, of which LM trains on the first
    1748: ``n_hidden`` may be 174 (1741 weights), and 175 (1751 weights) is a
    config error naming it, with no model.txt. ``--epochs 0`` keeps the seeded
    weights, so nothing that size is trained."""
    out = tmp_path / "model.txt"
    assert train_kind(cleaned_csv, "mlp", out, "--n-hidden", "174", "--epochs", "0") == 0
    assert load_model_file(out)[1]["n_hidden"] == "174"
    out.unlink()
    capsys.readouterr()
    assert train_kind(cleaned_csv, "mlp", out, "--n-hidden", "175", "--epochs", "0") == 1
    assert capsys.readouterr().err == (
        "config error: model parameter 'n_hidden': 175 exceeds the 174 hidden units whose 10*n_hidden + 1"
        " weights fit the 1748 LM training rows of the 2184 training windows\n")
    assert not out.exists()


def test_unwritable_output_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "missing" / "h0.csv"
    assert run_cli("h0-table", "--lat", "41.917", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err == f"data error: cannot write {out}: No such file or directory\n"
    assert not out.parent.exists()


@pytest.fixture(scope="module")
def writer_inputs(tmp_path_factory):
    """What each writing subcommand reads: a 4-year series, its factors, a
    naive model.txt, that model's 1974 forecasts and a run config."""
    root = tmp_path_factory.mktemp("writers")
    files = {name: str(root / name) for name in ("data", "factors", "corrected", "model", "preds", "config")}
    assert run_cli("synth", "--years", "4", "--seed", "3", "--out", files["data"]) == 0
    assert run_cli("preprocess", "--input", files["data"], "--lat", "41.917", "--train-years", "1971:1973",
                   "--corrected-out", files["corrected"], "--factors-out", files["factors"]) == 0
    assert run_cli("train", "--model", "naive", "--input", files["data"], "--train-years", "1971:1973",
                   "--out", files["model"]) == 0
    assert run_cli("predict", "--model-file", files["model"], "--history", files["data"], "--days", "1974:1974",
                   "--out", files["preds"]) == 0
    Path(files["config"]).write_text(json.dumps({
        "latitude_deg": 41.917, "input_csv": files["data"], "train_years": [1971, 1973],
        "test_years": [1974, 1974], "model": "naive", "preprocess": False,
    }))
    return files


LATITUDE_READERS = {
    "h0-table": [],
    "clean": ["--input", "{data}"],
    "preprocess": ["--input", "{data}", "--factors-out", "{other}"],
    "invert": ["--input", "{preds}", "--factors", "{factors}"],
}


@pytest.mark.parametrize("lat", ["90", "-95", "nan", "90.5"])
@pytest.mark.parametrize("command", LATITUDE_READERS)
def test_latitude_error_is_in_the_degrees_typed(command, lat, writer_inputs, tmp_path, capsys):
    """A latitude outside (-90, 90) is a config error that names it in the
    degrees given to ``--lat``, and nothing is written."""
    paths = {**writer_inputs, "other": str(tmp_path / "other.csv")}
    args = [arg.format(**paths) for arg in LATITUDE_READERS[command]]
    out = tmp_path / "out.csv"
    flag = "--corrected-out" if command == "preprocess" else "--out"
    assert run_cli(command, *args, f"--lat={lat}", flag, str(out)) == 1
    assert capsys.readouterr().err == f"config error: latitude {lat} deg not in (-90, 90)\n"
    assert list(tmp_path.iterdir()) == []


# every subcommand that writes, by the flag naming its destination, with the
# arguments before that flag ({name} is a file of writer_inputs, {other} a
# writable path for a command's other output)
FILE_WRITERS = {
    "synth --out": ["synth", "--years", "2"],
    "clean --out": ["clean", "--input", "{data}", "--lat", "41.917"],
    "clean --report": ["clean", "--input", "{data}", "--lat", "41.917", "--out", "{other}"],
    "h0-table --out": ["h0-table", "--lat", "41.917"],
    "preprocess --factors-out": ["preprocess", "--input", "{data}", "--lat", "41.917",
                                 "--corrected-out", "{other}"],
    "preprocess --corrected-out": ["preprocess", "--input", "{data}", "--lat", "41.917",
                                   "--factors-out", "{other}"],
    "spectrum --out": ["spectrum", "--input", "{data}"],
    "train --out": ["train", "--model", "naive", "--input", "{data}", "--train-years", "1971:1973"],
    "predict --out": ["predict", "--model-file", "{model}", "--history", "{data}", "--days", "1974:1974"],
    "invert --out": ["invert", "--input", "{preds}", "--factors", "{factors}", "--lat", "41.917"],
    "compare --out": ["compare", "{preds}", "--measured", "{data}"],
}
DIR_WRITERS = {
    "evaluate --outdir": ["evaluate", "{preds}", "--measured", "{data}"],
    "run --outdir": ["run", "--config", "{config}"],
}


def _file_in_file(tmp_path):
    (tmp_path / "file").write_text("x\n")
    return tmp_path / "file" / "out", tmp_path / "file" / "out"


def _missing_parent(tmp_path):
    return tmp_path / "missing" / "out", tmp_path / "missing" / "out"


def _directory(tmp_path):
    (tmp_path / "dir").mkdir()
    return tmp_path / "dir", tmp_path / "dir"


def _outdir_is_a_file(tmp_path):
    (tmp_path / "file").write_text("x\n")
    return tmp_path / "file", tmp_path / "file"


def _metrics_is_a_directory(tmp_path):
    (tmp_path / "out" / "metrics.csv").mkdir(parents=True)
    return tmp_path / "out", tmp_path / "out" / "metrics.csv"


# each bad destination: (destination, the path its error names) in tmp_path.
# An output directory is made with its parents, so a missing parent is no
# error there; its cases are a directory that is a file and a written file
# that is a directory. A destination without write permission is not
# tested: the tests may run as root, who may write anywhere.
FILE_CASES = {"parent-is-a-file": _file_in_file, "missing-parent": _missing_parent, "is-a-directory": _directory}
DIR_CASES = {"parent-is-a-file": _file_in_file, "is-a-file": _outdir_is_a_file,
             "holds-a-directory": _metrics_is_a_directory}


@pytest.mark.parametrize("writer, case", [
    *((writer, case) for writer in FILE_WRITERS for case in FILE_CASES),
    *((writer, case) for writer in DIR_WRITERS for case in DIR_CASES),
])
def test_every_unwritable_destination_is_one_data_error_line(writer, case, writer_inputs, tmp_path, capsys):
    (tmp_path / "run").mkdir()
    dest, named = (FILE_CASES if writer in FILE_WRITERS else DIR_CASES)[case](tmp_path / "run")
    head = {**FILE_WRITERS, **DIR_WRITERS}[writer]
    argv = [arg.format(**writer_inputs, other=tmp_path / "other.csv") for arg in head]
    assert run_cli(*argv, writer.split()[1], str(dest)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert f" {named}: " in err and "Traceback" not in err, err
    assert not list(tmp_path.rglob("*.tmp")), list(tmp_path.rglob("*"))


IMPORT_PROBE = """
import sys
import mpmath, numpy, scipy.special
before = set(sys.modules)
import solarcast
added = {m for m in set(sys.modules) - before if m.split(".")[0] not in sys.stdlib_module_names}
print(solarcast.backend_name())
print(" ".join(sorted(added)))
print(" ".join(sorted(sys.modules)))
"""


def test_import_loads_only_numpy_scipy_special_and_mpmath():
    env = dict(os.environ, PYTHONPATH=str(Path(solarcast.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env, check=True
    )
    backend, added, loaded = result.stdout.splitlines()
    assert backend == "numpy"
    assert added and all(m.split(".")[0] == "solarcast" for m in added.split()), added
    assert not set(loaded.split()) & {"scipy.signal", "scipy.stats"}


def test_import_solarcast_loads_no_submodule():
    env = dict(os.environ, PYTHONPATH=str(Path(solarcast.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.splitlines()[1].split() == ["solarcast"]


# the package's public names, by the submodule that defines each
PUBLIC_NAMES = {
    "baselines": ("ArmaModel", "ArModel", "BayesClassifierModel", "KnnModel", "MarkovChainModel", "NaiveModel"),
    "errors": ("ConfigError", "DataError", "NumericalError", "SolarcastError"),
    "evaluation": ("CiSummary", "ForecastRun", "MetricsReport", "compare_models", "confidence_interval",
                   "metrics", "monthly_aggregate_error", "seasonal_breakdown"),
    "kernels": ("backend_name",),
    "mlp": ("Scaler", "TrainHistory", "fit_scaler", "init_mlp", "jacobian", "make_windows", "train_lm"),
    "preprocess": ("Preprocessor", "clearness_index", "fit", "moving_average_ratio", "seasonal_factors"),
    "series": ("DailySeries", "SynthConfig", "clean", "generate_synthetic", "load_csv", "write_csv"),
    "solar": ("SiteSpec", "daily_extraterrestrial", "declination", "h0_table"),
    "spectral": ("FisherTestResult", "Periodogram", "dominant_period", "fisher_g_test", "periodogram"),
}


def test_public_names_are_their_submodules_objects():
    names = [name for group in PUBLIC_NAMES.values() for name in group]
    assert len(names) == 46 and sorted(solarcast.__all__) == sorted(names)
    assert set(names) <= set(dir(solarcast)) and "__version__" in dir(solarcast)
    for module, group in PUBLIC_NAMES.items():
        for name in group:
            assert getattr(solarcast, name) is getattr(importlib.import_module(f"solarcast.{module}"), name), name
    star: dict = {}
    exec("from solarcast import *", star)
    assert all(star[name] is getattr(solarcast, name) for name in names)
    with pytest.raises(AttributeError, match="no_such_name"):
        solarcast.no_such_name  # noqa: B018


BUDGET_PROBE = """
import json, sys
import solarcast.cli

def report():
    watched = sorted(m for m in sys.modules
                     if m.startswith("solarcast") or m in ("numpy.ma", "scipy", "scipy.special", "mpmath"))
    print("MODULES", json.dumps(watched))

report()
for argv in json.loads(sys.argv[1]):
    assert solarcast.cli.main(argv) == 0, argv
    report()
"""


def test_cli_loads_scipy_and_mpmath_only_where_used(tmp_path):
    """Each command loads the solarcast modules its stage runs, and scipy and
    mpmath only where used; each step adds only what its command needs over
    the steps before it. numpy.ma comes only with scipy."""
    env = dict(os.environ, PYTHONPATH=str(Path(solarcast.__file__).parents[1]))
    steps = [  # (command, the watched modules it adds)
        (["synth", "--years", "2", "--seed", "1", "--out", "data.csv"], set()),
        (["clean", "--input", "data.csv", "--lat", "41.917", "--out", "cleaned.csv"], set()),
        (["evaluate", "data.csv", "--measured", "data.csv", "--outdir", "one"], {"solarcast.evaluation"}),
        (["compare", "data.csv", "--measured", "data.csv", "--out", "table1.csv"], set()),
        (["spectrum", "--input", "data.csv", "--out", "spectrum.csv"], {"solarcast.spectral", "mpmath"}),
        (["synth", "--years", "2", "--seed", "2", "--out", "other.csv"], set()),
        (["evaluate", "data.csv", "other.csv", "--measured", "data.csv", "--outdir", "two"],
         {"scipy", "scipy.special", "numpy.ma"}),  # scipy imports numpy.ma itself
        (["preprocess", "--input", "data.csv", "--lat", "41.917", "--corrected-out", "corrected.csv",
          "--factors-out", "factors.csv"], {"solarcast.preprocess"}),
        (["train", "--model", "naive", "--input", "data.csv", "--out", "model.txt"],
         {"solarcast.model_io", "solarcast.mlp", "solarcast.baselines", "solarcast.kernels"}),
    ]
    result = subprocess.run(
        [sys.executable, "-c", BUDGET_PROBE, json.dumps([argv for argv, _ in steps])],
        capture_output=True, text=True, env=env, cwd=tmp_path, check=True,
    )
    loaded = [set(json.loads(line.split(" ", 1)[1]))
              for line in result.stdout.splitlines() if line.startswith("MODULES ")]
    assert loaded[0] == {"solarcast", "solarcast.cli", "solarcast.errors", "solarcast.pipeline",
                         "solarcast.series", "solarcast.solar"}
    for (argv, added), before, after in zip(steps, loaded, loaded[1:]):
        assert before <= after and after - before == added, (argv, after - before)
