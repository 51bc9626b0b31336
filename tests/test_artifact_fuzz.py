"""Mutated artifacts and flag values never crash the CLI.

One small run leaves the files the protocol passes between its steps: a
model.txt of every kind, factors.csv, a corrected series CSV and a run
config. Hypothesis breaks one of them (a truncation, a garbled float, a
dropped or duplicated row, swapped header names or a bad metadata value)
and drives ``cli.main`` in-process on the broken copy, or sets numeric
flags of a subcommand to extreme values. The command must either succeed
or exit 1/2/3 with exactly one stderr line and leave no output behind; any
warning counts as a failure, since it would be a second stderr line.
"""

import contextlib
import io
import json
import re
import shutil
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from solarcast.cli import main
from solarcast.model_io import FORECASTERS
from solarcast.pipeline import MODEL_NAMES
from solarcast.series import load_csv

LAT = ["--lat", "41.917"]
FAST = {"mlp": ["--epochs", "5"]}  # train takes a flag only for the model it trains
FUZZ = settings(
    max_examples=100, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
NUMBER = re.compile(r"-?(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|nan|-?inf", re.IGNORECASE)
GARBLES = ("{}x", "x{}", "", "nan", "inf", "-inf", "-{}", "0", "1e308", "-1e308", "1e-320", "1.5")
META_VALUES = ("x", "0", "-1", "1.5", str(10**30))
FLAG_VALUES = ("nan", "inf", "-inf", "1e308", str(10**30), "-1", "0")
FLAG_CAPS = {"--years": 3, "--epochs": 5}  # a larger draw is capped, so none asks for a long run


def cli(*argv):
    """Exit code and stderr of one in-process CLI call; warnings raise."""
    err = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    a = {name: root / name for name in ("data.csv", "cleaned.csv", "factors.csv", "corrected.csv",
                                         "pred_corr.csv", "config.json")}
    assert cli("synth", "--years", "4", "--seed", "5", "--out", a["data.csv"])[0] == 0
    assert cli("clean", "--input", a["data.csv"], *LAT, "--out", a["cleaned.csv"])[0] == 0
    assert cli("preprocess", "--input", a["cleaned.csv"], *LAT, "--train-years", "1971:1973",
               "--corrected-out", a["corrected.csv"], "--factors-out", a["factors.csv"])[0] == 0
    for kind in MODEL_NAMES:
        a[kind] = root / f"{kind}.txt"
        assert cli("train", "--model", kind, "--input", a["corrected.csv"], "--train-years", "1971:1973",
                   *FAST.get(kind, []), "--out", a[kind])[0] == 0
    assert cli("predict", "--model-file", a["naive"], "--history", a["corrected.csv"], "--days",
               "1974:1974", "--column", "s_corr_pred", "--out", a["pred_corr.csv"])[0] == 0
    config = {
        "latitude_deg": 41.917, "synth": {"n_years": 3, "seed": 11}, "train_years": [1971, 1972],
        "test_years": [1973, 1973], "model": "ar", "preprocess": True, "seed": 0, "outdir": "run",
    }
    a["config.json"].write_text(json.dumps(config, indent=1) + "\n")
    return root


def _swap_headers(draw, lines, kind):
    """Two header names exchanged: CSV columns, model.txt block names or
    config keys."""
    if kind == "csv":
        fields = lines[0].split(",")
        i, j = draw(st.permutations(range(len(fields))))[:2]
        fields[i], fields[j] = fields[j], fields[i]
        return [",".join(fields)] + lines[1:]
    pattern = r"^@block (\S+)" if kind == "model" else r'^\s*"(\w+)":'
    spots = [(n, m.span(1)) for n, line in enumerate(lines) if (m := re.match(pattern, line))]
    if len(spots) < 2:
        return lines
    (n1, s1), (n2, s2) = draw(st.permutations(spots))[:2]
    out = list(lines)
    name1, name2 = lines[n1][s1[0]:s1[1]], lines[n2][s2[0]:s2[1]]
    out[n1] = lines[n1][: s1[0]] + name2 + lines[n1][s1[1]:]
    out[n2] = lines[n2][: s2[0]] + name1 + lines[n2][s2[1]:]
    return out


def _set_meta(draw, lines, kind):
    """One metadata value (model.txt ``key=value``, any config scalar) set
    to text, 0, a negative number, a non-integer or 10**30."""
    value = draw(st.sampled_from(META_VALUES))
    if kind == "model":
        spots = [n for n, line in enumerate(lines) if "=" in line]
        n = draw(st.sampled_from(spots))
        return lines[:n] + [f"{lines[n].split('=')[0]}={value}"] + lines[n + 1:]
    spots = [(n, m.span(1)) for n, line in enumerate(lines)
             if (m := re.search(r'(-?\d[\d.e+-]*|"[^"]*"|true|false)(,?)$', line.strip()))]
    n, (lo, hi) = draw(st.sampled_from(spots))
    text = lines[n].strip()
    new = json.dumps(value) if value == "x" else value
    return lines[:n] + [text[:lo] + new + text[hi:]] + lines[n + 1:]


class Broken(str):
    """Mutated artifact text whose repr, shown for a failing example, says
    only how it was broken."""

    def __new__(cls, lines, how):
        self = super().__new__(cls, "\n".join(lines) + "\n")
        self.how = how
        return self

    def __repr__(self):
        return self.how


@st.composite
def mutations(draw, text, kind):
    """``text``, an artifact of ``kind`` csv/model/config, broken one way."""
    original = lines = text.splitlines()
    ways = ["truncate", "garble", "drop", "duplicate", "swap headers"]
    ways += ["meta"] if kind in ("model", "config") else []
    way = draw(st.sampled_from(ways))
    if way == "truncate":
        lines = lines[: draw(st.integers(0, len(lines) - 1))]
    elif way in ("drop", "duplicate"):
        n = draw(st.integers(0, len(lines) - 1))
        lines = lines[:n] + lines[n + 1:] if way == "drop" else lines[: n + 1] + lines[n:]
    elif way == "garble":
        spots = [(n, m.span()) for n, line in enumerate(lines) for m in NUMBER.finditer(line)]
        n, (lo, hi) = draw(st.sampled_from(spots))
        new = draw(st.sampled_from(GARBLES)).format(lines[n][lo:hi])
        lines = lines[:n] + [lines[n][:lo] + new + lines[n][hi:]] + lines[n + 1:]
    elif way == "swap headers":
        lines = _swap_headers(draw, lines, kind)
    else:
        lines = _set_meta(draw, lines, kind)
    n = next((n for n, (a, b) in enumerate(zip(original, lines)) if a != b), len(lines))
    return Broken(lines, f"{way}, first change at line {n + 1}: {(lines[n:] or ['<end>'])[0][:60]!r}")


def assert_clean_exit(code, err, outputs):
    """Success, or exit 1/2/3 with one stderr line and no output written."""
    assert code in (0, 1, 2, 3), code
    if code:
        assert err.count("\n") == 1 and err.split(":")[0] in ("config error", "data error",
                                                               "numerical error"), err
        assert not any(path.exists() for path in outputs), err
    else:
        assert err == "", err


def _fresh(root, *names):
    for name in names:
        path = root / name
        shutil.rmtree(path) if path.is_dir() else path.unlink(missing_ok=True)
    return [root / name for name in names]


def _no_empty_forecast(out, history):
    """predict writes a missing forecast only after a missing history day."""
    if out.exists() and not np.isnan(load_csv(history).values).any():
        assert not re.search(r",$", out.read_text(), re.MULTILINE), out.read_text()[:200]


@FUZZ
@given(data=st.data())
def test_mutated_model_file(artifacts, data):
    root = artifacts
    kind = data.draw(st.sampled_from(MODEL_NAMES))
    text = data.draw(mutations((root / f"{kind}.txt").read_text(), "model"))
    (root / "m.txt").write_text(text)
    (out,) = _fresh(root, "pred.csv")
    code, err = cli("predict", "--model-file", root / "m.txt", "--history", root / "corrected.csv",
                    "--days", "1974:1974", "--column", "s_corr_pred", "--out", out)
    assert_clean_exit(code, err, [out])
    _no_empty_forecast(out, root / "corrected.csv")


@FUZZ
@given(data=st.data())
def test_mutated_factors(artifacts, data):
    root = artifacts
    text = data.draw(mutations((root / "factors.csv").read_text(), "csv"))
    (root / "f.csv").write_text(text)
    (out,) = _fresh(root, "inverted.csv")
    code, err = cli("invert", "--input", root / "pred_corr.csv", "--factors", root / "f.csv", *LAT,
                    "--out", out)
    assert_clean_exit(code, err, [out])


@FUZZ
@given(data=st.data())
def test_mutated_series(artifacts, data):
    root = artifacts
    kind = data.draw(st.sampled_from(MODEL_NAMES))
    text = data.draw(mutations((root / "corrected.csv").read_text(), "csv"))
    series = root / "s.csv"
    series.write_text(text)
    model, out = _fresh(root, "trained.txt", "pred.csv")
    code, err = cli("train", "--model", kind, "--input", series, "--train-years", "1971:1973",
                    *FAST.get(kind, []), "--out", model)
    assert_clean_exit(code, err, [model])
    code, err = cli("predict", "--model-file", root / f"{kind}.txt", "--history", series,
                    "--days", "1974:1974", "--column", "s_corr_pred", "--out", out)
    assert_clean_exit(code, err, [out])
    _no_empty_forecast(out, series)


@settings(FUZZ, max_examples=40)
@given(data=st.data())
def test_mutated_config(artifacts, data, monkeypatch):
    root = artifacts
    monkeypatch.chdir(root)
    monkeypatch.delenv("SOLARCAST_OUTDIR", raising=False)
    text = data.draw(mutations((root / "config.json").read_text(), "config"))
    (root / "c.json").write_text(text)
    before = {p.name for p in root.iterdir()}
    code, err = cli("run", "--config", root / "c.json")
    new = [root / name for name in {p.name for p in root.iterdir()} - before]
    assert_clean_exit(code, err, new)
    _fresh(root, *(p.name for p in new))


# each subcommand's numeric flags, after arguments that run it as they are;
# {name} is the file name.csv (or name.json) of the artifacts fixture and {out}
# the output
TRAIN_FLAGS = {"p": "--p", "q": "--q", "order": "--order", "n_classes": "--n-classes", "k": "--k",
               "window": "--window", "n_hidden": "--n-hidden", "max_epochs": "--epochs",
               "max_fail": "--max-fail"}
FLAG_COMMANDS = {
    "synth": (["synth", "--years", "2", "--out", "{out}"],
              ["--years", "--lat", "--seed", "--start-year", "--k-mean", "--ar1", "--noise-std", "--amplitude"]),
    "clean": (["clean", "--input", "{data}", *LAT, "--out", "{out}"], ["--lat"]),
    "h0-table": (["h0-table", *LAT, "--out", "{out}"], ["--lat", "--solar-constant"]),
    "preprocess": (["preprocess", "--input", "{cleaned}", *LAT, "--corrected-out", "{out}",
                    "--factors-out", "{out}.factors"], ["--lat"]),
    "invert": (["invert", "--input", "{pred_corr}", "--factors", "{factors}", *LAT, "--out", "{out}"],
               ["--lat"]),
    "run": (["run", "--config", "{config}", "--outdir", "{out}"], ["--seed"]),
    **{f"train {kind}": (["train", "--model", kind, "--input", "{corrected}", "--train-years", "1971:1973",
                          *FAST.get(kind, []), "--out", "{out}"],
                         ["--seed", *(TRAIN_FLAGS[key] for key in cls.params if key != "seed")])
       for kind, cls in FORECASTERS.items()},
}


def _flag_value(draw, flag):
    value = draw(st.sampled_from(FLAG_VALUES))
    if flag in FLAG_CAPS and value not in ("nan", "inf", "-inf", "1e308"):
        value = str(min(int(value), FLAG_CAPS[flag]))
    return value


@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_extreme_flag_values(artifacts, data):
    root = artifacts
    command = data.draw(st.sampled_from(sorted(FLAG_COMMANDS)))
    head, flags = FLAG_COMMANDS[command]
    chosen = data.draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3, unique=True))
    tail = [f"{flag}={_flag_value(data.draw, flag)}" for flag in chosen]  # "=" takes "-inf" as a value
    out, factors_out = _fresh(root, "flag_out", "flag_out.factors")
    files = {path.stem: path for path in root.iterdir() if path.suffix in (".csv", ".json")}
    code, err = cli(*(arg.format(**files, out=out) for arg in head), *tail)
    assert_clean_exit(code, err, [out, factors_out])
