"""Freeze the sizes, traced layer counts and CLI digests in expected.json.

    python3 perfbench/record.py

Run it only at a commit whose outputs are trusted: every check in
workloads.py must pass, or nothing is written. Benchmark runs then fail
any operation whose sizes, counts or report digests differ from these.
"""

import json
import os
import shutil
import sys

from run import HERE, Run
from tracer import Tracer
from workloads import WORKLOADS


def main() -> int:
    os.environ.pop("STRATAKIT_THREADS", None)
    expected: dict = {"sizes": {}, "trace_counts": {}}
    workdir = HERE / "out" / f"record-{os.getpid()}"
    try:
        for name, workload in WORKLOADS.items():
            run = Run(workload, workload.setup(0, workdir / name), None)
            run.one_pass()
            tracer = Tracer()
            tracer.install()
            try:
                run.one_pass()
            finally:
                tracer.remove()
            run.check_counts(tracer.counts)
            if run.failed:
                print(f"{name}: {run.failed} failed; nothing written", file=sys.stderr)
                return 1
            expected["sizes"][name] = run.sizes
            expected["trace_counts"][name] = tracer.counts
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    text = json.dumps(expected, indent=1, sort_keys=True) + "\n"
    (HERE / "expected.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
