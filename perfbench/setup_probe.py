"""One cold set-up: interpreter start, ``import solarcast``, synthesis and
cleaning of the workload input. ``run.py`` times this whole process.

Usage: python3 perfbench/setup_probe.py <seed> <work dir>
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    workloads.setup(int(sys.argv[1]), Path(sys.argv[2]))
