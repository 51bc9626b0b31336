"""The benchmark's tracer (perfbench/tracing.py) wraps solarcast functions
by the names it looks up, and its workloads call solarcast by name; this
keeps each of those names bound."""

import ast
import importlib
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


def solarcast_bindings(tree) -> dict:
    """Each name the file's imports bind to ``solarcast`` or to something
    imported from it, with the object it names."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({alias.asname or alias.name: importlib.import_module(alias.name)
                          for alias in node.names if alias.name.split(".")[0] == "solarcast"})
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "solarcast":
            module = importlib.import_module(node.module)
            bound.update({alias.asname or alias.name: getattr(module, alias.name, MISSING)
                          for alias in node.names})
    return bound


def test_benchmark_library_calls_resolve():
    """Every ``<name>.<attr>`` that perfbench/'s scripts write, where
    ``<name>`` is ``solarcast`` or imported from it, names an attribute of
    the program: a deletion from ``src/`` that the benchmark still calls
    fails here rather than in a benchmark run."""
    checked = set()
    for path in sorted(TRACING.parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = solarcast_bindings(tree)
        assert all(obj is not MISSING for obj in bound.values()), (path.name, bound)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound:
                name = f"{node.value.id}.{node.attr}"
                assert getattr(bound[node.value.id], node.attr, MISSING) is not MISSING, f"{path.name}: {name}"
                checked.add(name)
    assert {"pipeline.train_mlp_bundle", "preprocess.fit", "solarcast.backend_name"} <= checked
