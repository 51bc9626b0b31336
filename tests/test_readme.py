"""The README's Python examples and its stage-by-stage CLI chain run as written."""

import importlib
import pkgutil
import re
import shlex
from pathlib import Path

import pytest

import solarcast
from solarcast.cli import main

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
CHAIN = [
    shlex.split(line)
    for block in re.findall(r"^```bash\n(.*?)^```", TEXT, re.M | re.S)
    if block.startswith("solarcast synth ")
    for line in block.replace("\\\n", " ").splitlines()
]


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(block):
    exec(compile(block, str(README), "exec"), {"__name__": "readme_example"})


def test_readme_cli_chain_runs(tmp_path, monkeypatch):
    """Each line of the stage-by-stage block exits 0, in order, in one directory."""
    assert CHAIN and all(argv[0] == "solarcast" for argv in CHAIN)
    monkeypatch.chdir(tmp_path)
    for argv in CHAIN:
        assert main(argv[1:]) == 0, shlex.join(argv)
    assert Path("table1.csv").read_text().splitlines()[0] == "model,nrmse"
    assert len(Path("table1.csv").read_text().splitlines()) == 4


def test_readme_names_resolve():
    """Each `<module>.<name>` and `sc.<name>` the README names is a solarcast
    attribute, and each `tests/<file>.py::<test>` an existing test; file
    names (`mlp.csv`) and wildcards (`pipeline.stage_*`) are not names."""
    modules = {m.name for m in pkgutil.iter_modules(solarcast.__path__)}
    spans = re.findall(r"`([^`\n]+)`", TEXT)
    dotted = {m.group(0) for span in spans if (m := re.match(r"\w+(\.\w+)+(?![\w*])", span))}
    names = [name for name in dotted
             if name.split(".")[0] in modules | {"sc"} and not re.search(r"\.(csv|txt|json)$", name)]
    unresolved = []
    for name in names:
        first, *rest = name.split(".")
        obj = solarcast if first == "sc" else importlib.import_module(f"solarcast.{first}")
        for attr in rest:
            obj = getattr(obj, attr, None)
        unresolved += [name] if obj is None else []
    tests = re.findall(r"`tests/(\w+\.py)::(\w+)`", TEXT)
    unresolved += [f"{file}::{test}" for file, test in tests
                   if not re.search(rf"^def {test}\(", (TESTS / file).read_text(), re.M)]
    assert names and tests and not unresolved, unresolved
