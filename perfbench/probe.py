"""Set-up probe: import stratakit, build one workload's inputs, say "ready".

    python3 perfbench/probe.py <workload> <seed> <workdir>

``run.py`` times fresh interpreters running this script from process
start to the "ready" line; that is the benchmark's ``setup_s``.
"""

import sys
from pathlib import Path

from workloads import WORKLOADS

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    WORKLOADS[workload].setup(seed, workdir)
    print("ready", flush=True)
