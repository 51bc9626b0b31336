import json

import numpy as np
import pytest

from solarcast.cli import main
from solarcast.mlp import MlpLayout, init_mlp
from solarcast.model_io import load_model_file
from solarcast.series import load_csv


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


def test_exit_codes(workdir, tmp_path):
    root, data = workdir
    assert run_cli("synth", "--years", "1", "--out", str(tmp_path / "x.csv")) == 1  # config
    assert run_cli("clean", "--input", str(tmp_path / "nope.csv"), "--lat", "41.917",
                   "--out", str(tmp_path / "y.csv")) == 2  # data
    assert run_cli("no-such-command") == 1
    assert run_cli("train", "--model", "ar", "--input", str(data),
                   "--train-years", "junk", "--out", str(tmp_path / "m.txt")) == 1


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
    mf = load_model_file(out)
    assert mf.kind == kind
    assert {key: mf.meta[key] for key in expected} == expected
    if kind in ("markov", "bayes"):
        assert mf.blocks["edges"].size == 21
    if kind == "mlp":
        # --epochs 0 keeps the seeded initial weights; --max-fail reaches LmConfig.
        init = init_mlp(MlpLayout(n_inputs=4, n_hidden=2), seed=9)
        np.testing.assert_array_equal(mf.blocks["w1"], init.w1)
        assert train_kind(cleaned_csv, kind, out, *flags[:-1], "0") == 1


def _block_cuts(lines):
    """Line counts that cut a model file before, just after and inside each block."""
    for h, line in enumerate(lines):
        if line.startswith("@block"):
            rows = int(line.split()[2])
            yield from (h, h + 1, h + 1 + (rows + 1) // 2)


def _model_file_mutations(text):
    lines = text.splitlines()
    for cut in _block_cuts(lines):
        yield f"cut at line {cut}", lines[:cut]
    for i, line in enumerate(lines[1:], start=1):
        if "=" in line:
            key = line.split("=")[0]
            yield f"drop {key}", lines[:i] + lines[i + 1:]
            yield f"garble {key}", lines[:i] + [f"{key}=x1"] + lines[i + 1:]
    headers = [i for i, line in enumerate(lines) if line.startswith("@block")]
    if headers:
        h = headers[0]
        _, name, _, cols = lines[h].split()
        yield "garble block header", lines[:h] + [f"@block {name} one {cols}"] + lines[h + 1:]
        first, *rest = lines[h + 1].split(",")
        yield "garble a float", lines[:h + 1] + [",".join([first + "x", *rest])] + lines[h + 2:]


@pytest.mark.parametrize("kind", ["naive", "ar", "arma", "markov", "bayes", "knn", "mlp"])
def test_malformed_model_file_is_a_data_error(kind, cleaned_csv, tmp_path, capsys):
    good = tmp_path / "good.txt"
    assert train_kind(cleaned_csv, kind, good, "--epochs", "5") == 0
    predict = ["predict", "--history", str(cleaned_csv), "--days", "1977:1977",
               "--out", str(tmp_path / "pred.csv")]
    assert run_cli(*predict, "--model-file", str(good)) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.txt"
    n_cases = 0
    for label, lines in _model_file_mutations(good.read_text()):
        bad.write_text("\n".join(lines) + "\n")
        assert run_cli(*predict, "--model-file", str(bad)) == 2, label
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1, (label, err)
        n_cases += 1
    assert n_cases >= 3


def test_malformed_factors_row_is_a_data_error(cleaned_csv, tmp_path, capsys):
    corrected, factors = tmp_path / "corrected.csv", tmp_path / "factors.csv"
    assert run_cli("preprocess", "--input", str(cleaned_csv), "--lat", "41.917",
                   "--corrected-out", str(corrected), "--factors-out", str(factors)) == 0
    lines = factors.read_text().splitlines()
    for bad_row in ("5,abc,6", "5,1.0", "5,1.0,6,7", "five,1.0,6"):
        broken = tmp_path / "broken.csv"
        broken.write_text("\n".join(lines[:5] + [bad_row] + lines[6:]) + "\n")
        assert run_cli("invert", "--input", str(corrected), "--factors", str(broken),
                       "--lat", "41.917", "--out", str(tmp_path / "out.csv")) == 2, bad_row
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1


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
