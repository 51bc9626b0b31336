"""The README's Python examples and its stage-by-stage CLI chain run as written."""

import re
import shlex
from pathlib import Path

import pytest

from solarcast.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
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
