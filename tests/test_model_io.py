import datetime as dt

import numpy as np
import pytest

from solarcast import preprocess
from solarcast.baselines import (
    ArmaModel,
    ArModel,
    BayesClassifierModel,
    KnnModel,
    MarkovChainModel,
    NaiveModel,
)
from solarcast.errors import DataError
from solarcast.model_io import (
    FORECASTERS,
    MlpBundle,
    load_forecaster,
    load_model_file,
    save_forecaster,
    save_model_file,
)
from solarcast.mlp import fit_scaler, init_mlp, make_windows
from solarcast.pipeline import MODEL_NAMES, fit_forecaster, forecast_one_step
from solarcast.series import SynthConfig, clean, generate_synthetic

import oracles
from conftest import SITE_LAT
from oracles import bundle_of, switch_load_forecaster, switch_save_forecaster


def test_block_roundtrip_is_exact(tmp_path):
    path = tmp_path / "m.txt"
    rng = np.random.default_rng(0)
    block = rng.standard_normal((3, 4)) * 1e-7
    save_model_file(path, "test", {"alpha": 0.1, "n": 5}, {"w": block})
    kind, meta, blocks = load_model_file(path)
    assert kind == "test"
    assert meta == {"alpha": "0.1", "n": "5"}
    assert list(blocks) == ["w"]
    np.testing.assert_array_equal(blocks["w"], block)  # bitwise


def test_malformed_files_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("something else\n")
    with pytest.raises(DataError, match="not a solarcast model"):
        load_model_file(path)
    with pytest.raises(DataError):
        load_model_file(tmp_path / "missing.txt")


def test_every_forecaster_roundtrips_to_identical_predictions(tmp_path, synth_19y):
    train = synth_19y.slice_years(1971, 1987)
    history = synth_19y.values[: synth_19y.index_of(dt.date(1988, 1, 1))]
    target = dt.date(1988, 1, 1)
    models = [
        NaiveModel(),
        ArModel(p=8),
        ArmaModel(p=2, q=2),
        MarkovChainModel(),
        BayesClassifierModel(),
        KnnModel(),
    ]
    for model in models:
        model.fit(train)
        path = tmp_path / f"{model.name}.txt"
        save_forecaster(path, model)
        again = load_forecaster(path)
        assert again.predict_next(history, target) == model.predict_next(history, target)


def test_mlp_bundle_roundtrip(tmp_path, synth_19y):
    train = synth_19y.slice_years(1971, 1987)
    scaler = fit_scaler(*make_windows(train.values, p=8))
    bundle = bundle_of(init_mlp(8, 3, seed=3), 3, scaler, seed=3)
    path = tmp_path / "mlp.txt"
    save_forecaster(path, bundle)
    again = load_forecaster(path)
    history = synth_19y.values[:7000]
    target = dt.date(1989, 1, 1)
    assert again.predict_next(history, target) == bundle.predict_next(history, target)
    assert again.seed == 3


# one non-default value for every registry parameter (a model takes those in its params)
CONTRACT_PARAMS = {"p": 3, "q": 1, "order": 2, "n_classes": 20, "k": 5, "window": 7,
                   "n_hidden": 2, "max_epochs": 15, "max_fail": 3, "seed": 4}


def assert_same_model_file(model, want):
    (meta, blocks), (want_meta, want_blocks) = model.to_model_file(), want.to_model_file()
    assert meta == want_meta and blocks.keys() == want_blocks.keys()
    for name in blocks:
        np.testing.assert_array_equal(blocks[name], want_blocks[name], err_msg=name)


@pytest.mark.parametrize("name", list(FORECASTERS))
def test_fit_forecaster_is_the_registry_class_fitted(name, synth_19y):
    """``fit_forecaster`` is one path for every model: the class built from
    its params and fitted, the same ``model.txt`` content either way."""
    train = synth_19y.slice_years(1971, 1976)
    cls = FORECASTERS[name]
    params = {key: value for key, value in CONTRACT_PARAMS.items() if key in cls.params}
    assert_same_model_file(fit_forecaster(name, params, 9, train), cls(**params).fit(train))


@pytest.mark.parametrize("params", [{"max_epochs": 5}, {"max_epochs": 5, "seed": None}])
def test_run_seed_is_the_default_mlp_seed(params, synth_19y):
    train = synth_19y.slice_years(1971, 1976)
    model = fit_forecaster("mlp", params, 6, train)
    assert model.seed == 6
    assert_same_model_file(model, MlpBundle(max_epochs=5, seed=6).fit(train))


@pytest.fixture(scope="module")
def fitted_models(synth_19y):
    train = synth_19y.slice_years(1971, 1987)
    return {
        name: fit_forecaster(name, {"max_epochs": 20} if name == "mlp" else {}, 4, train)
        for name in MODEL_NAMES
    }


@pytest.mark.parametrize("kind", MODEL_NAMES)
def test_registry_matches_switch_oracle(kind, fitted_models, synth_19y, tmp_path):
    """model.txt bytes equal the old per-kind switch's, and a file written by
    either side loads on the other into bitwise-equal predictions."""
    model = fitted_models[kind]
    by_oracle, by_registry = tmp_path / "oracle.txt", tmp_path / "registry.txt"
    switch_save_forecaster(by_oracle, model)
    save_forecaster(by_registry, model)
    assert by_registry.read_bytes() == by_oracle.read_bytes()

    registry_of_oracle = load_forecaster(by_oracle)
    oracle_of_registry = switch_load_forecaster(by_registry)
    assert type(registry_of_oracle) is type(oracle_of_registry) is type(model)
    start = synth_19y.index_of(dt.date(1988, 1, 1))
    for i in range(start, start + 40, 7):
        history, target = synth_19y.values[:i], synth_19y.date_at(i)
        expected = model.predict_next(history, target)
        assert registry_of_oracle.predict_next(history, target) == expected
        assert oracle_of_registry.predict_next(history, target) == expected


def test_registry_order_is_the_cli_choice_order():
    assert tuple(FORECASTERS) == ("naive", "ar", "arma", "markov", "bayes", "knn", "mlp")
    assert all(cls.name == name for name, cls in FORECASTERS.items())


@pytest.mark.parametrize("make", [lambda: ArModel(p=0), lambda: ArmaModel(p=2, q=0)],
                         ids=["ar0", "arma20"])
def test_zero_order_linear_models_roundtrip(make, synth_19y, tmp_path):
    """An empty coefficient block is written as one empty row and must load."""
    model = make().fit(synth_19y.slice_years(1971, 1987))
    path = tmp_path / "m.txt"
    save_forecaster(path, model)
    history, target = synth_19y.values[:7000], synth_19y.date_at(7000)
    again = load_forecaster(path)
    assert again.predict_next(history, target) == model.predict_next(history, target)


def test_unregistered_model_cannot_be_saved(tmp_path):
    with pytest.raises(DataError, match="cannot serialize"):
        save_forecaster(tmp_path / "m.txt", object())


DISCRETE_CONFIGS = {  # kind, order, n_classes
    "markov3x50": ("markov", 3, 50), "markov1x2": ("markov", 1, 2), "markov3x700": ("markov", 3, 700),
    "bayes3x50": ("bayes", 3, 50), "bayes0x50": ("bayes", 0, 50), "bayes5x700": ("bayes", 5, 700),
}


@pytest.fixture(scope="module")
def discrete_series(site):
    """Per seed 3, 7 and 11: the cleaned 4-year series and its preprocessed counterpart."""
    out = {}
    for seed in (3, 7, 11):
        cleaned, _ = clean(generate_synthetic(SynthConfig(n_years=4, latitude_deg=SITE_LAT, seed=seed)), site)
        corrected = preprocess.fit(cleaned.slice_years(1971, 1973), site).apply(cleaned)
        out.update({f"raw{seed}": cleaned, f"corrected{seed}": corrected})
    return out


@pytest.mark.parametrize("kind, order, n_classes", DISCRETE_CONFIGS.values(), ids=DISCRETE_CONFIGS)
def test_discrete_models_equal_the_discretizer_path(kind, order, n_classes, discrete_series, tmp_path):
    """Markov and Bayes, which hold their class edges themselves, against the
    fit through ``oracles.Discretizer``: the same edges, centers and classes,
    the same model.txt bytes and the same 1974 forecasts, fresh and reloaded."""
    for name, working in discrete_series.items():
        train = working.slice_years(1971, 1973)
        test_days = working.slice_years(1974, 1974).dates()
        disc, meta, blocks, predict = oracles.discretizer_path(kind, order, n_classes, train.values)
        model = fit_forecaster(kind, {"order": order, "n_classes": n_classes}, 0, train)
        assert model.edges.tobytes() == disc.edges.tobytes(), name
        assert model.centers.tobytes() == disc.centers.tobytes(), name
        assert np.array_equal(model.classes_of(working.values), disc.classes_of(working.values)), name
        got, want = tmp_path / "model.txt", tmp_path / "path.txt"  # rewritten per series
        save_forecaster(got, model)
        save_model_file(want, kind, meta, blocks)
        assert got.read_bytes() == want.read_bytes(), name
        expected = np.array([predict(working.values[i - order : i]) for i in working.indices_of(test_days)])
        for fitted in (model, load_forecaster(got)):
            assert forecast_one_step(fitted, working, test_days).tobytes() == expected.tobytes(), name
