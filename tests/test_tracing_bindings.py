"""The benchmark's tracer (perfbench/tracing.py) wraps solarcast functions
by the names it looks up; this keeps each of those names bound."""

import importlib.util
from pathlib import Path

from solarcast import (
    baselines, cli, evaluation, kernels, mlp, model_io, pipeline, preprocess, series, spectral,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = (baselines, cli, evaluation, kernels, mlp, model_io, pipeline, preprocess, series, spectral)
MISSING = object()


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_wraps_every_binding_and_unwrap_restores_it():
    tracing = load_tracing()
    owners = [*MODULES, *(
        value for module in MODULES for value in vars(module).values()
        if isinstance(value, type) and value.__module__ == module.__name__
    )]
    before = {(owner, attr): value for owner in owners for attr, value in vars(owner).items()}
    tracer = tracing.Tracer("bindings")
    tracing.install(tracer)  # raises AttributeError if a traced name is gone
    try:
        patched = [(owner, attr) for owner, attr, _ in tracer._patches]
        for owner, attr in patched:
            assert vars(owner)[attr] is not before.get((owner, attr), MISSING), attr
    finally:
        tracer.unwrap()

    for owner, attr in patched:
        assert vars(owner).get(attr, MISSING) is before.get((owner, attr), MISSING), attr
    for owner in (pipeline, cli):
        for attr in ("generate_synthetic", "clean", "write_csv", "load_csv"):
            assert (owner, attr) in patched, (owner.__name__, attr)
    for cls_name in tracing.MODEL_CLASSES.values():
        assert (getattr(baselines, cls_name), "predict_next") in patched, cls_name
    assert (model_io.MlpBundle, "predict_next") in patched
