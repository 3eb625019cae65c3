"""stratakit benchmark: one workload per process, results as one JSON line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload arrangement --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of that checkout and nowhere else.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced passes and reports the
per-layer metrics (see ``tracer.py``). The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the interpreter, core count and relevant environment. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracer import LAYERS, Tracer
from workloads import WORKLOADS, CheckFailed

HERE = Path(__file__).resolve().parent
ENV_KEYS = ("PYTHONHASHSEED", "PYTHONPATH", "PYTHONOPTIMIZE")
# seconds per ref for setup_s, which must be in seconds: the reference
# loop's typical time on the 2-vCPU machine the benchmark was tuned on
REF_S = 1.5e-3


def setup_time(workload: str, seed: int, workdir: Path) -> tuple[float, float]:
    """Time from process start to "ready" in a fresh interpreter that
    imports stratakit and builds the workload's inputs: in seconds, and in
    seconds at the reference speed (refs times REF_S), from the reference
    loop run just before and just after."""
    cmd = [sys.executable, str(HERE / "probe.py"), workload, str(seed), str(workdir)]
    before = reference_loop()
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    after = reference_loop()
    shutil.rmtree(workdir, ignore_errors=True)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {code}")
    return ready, ready * REF_S * 2 / (before + after)


def reference_loop() -> float:
    """Seconds that a fixed piece of pure Python takes right now: Fraction
    arithmetic, tuple-keyed dicts and a set, the kind of work stratakit
    does, about 1.5 ms. It runs between operations and is the benchmark's
    unit of machine speed, "ref". The garbage collector is off while it
    runs, so that the program's live heap does not enter the unit."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        counts: dict = {}
        total = Fraction(0)
        for i in range(400):
            pair = (i % 17, i % 13)
            counts[pair] = counts.get(pair, 0) + 1
            total += Fraction(i % 7 + 1, i % 11 + 1)
        _ = {(a, b, n) for (a, b), n in counts.items()}
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:  # every operation failed, or there is only one
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Passes over one workload's operations, with the determinism check:
    every operation's sizes and the traced layer counts must repeat
    exactly in every pass and equal the frozen values. ``expected`` is
    None only while ``record.py`` freezes them."""

    def __init__(self, workload, inputs, expected: dict | None):
        self.workload = workload
        self.ops = workload.ops(inputs)
        self.expected = expected
        if expected is not None:
            self.frozen = expected["sizes"][workload.name]
            self.frozen_counts = expected["trace_counts"][workload.name]
        else:
            self.frozen_counts = None
        self.sizes: dict[str, object] = {}
        self.counts = None
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, message: str) -> None:
        self.failed += 1
        print(f"FAIL {self.workload.name} {what}: {message}", file=sys.stderr)

    def one_pass(self) -> dict[str, tuple[float, float]]:
        """Run every operation once. Returns, for each operation that
        succeeded, its wall time and that time in refs: divided by the mean
        time of the reference loop run just before and just after it."""
        state: dict = {}
        times = {}
        before = reference_loop()
        for op in self.ops:
            self.attempted += 1
            start = time.perf_counter()
            try:
                sizes = op.run(state)
            except CheckFailed as exc:
                self.fail(op.name, str(exc))
                sizes = None
            except Exception:  # any error of the program is a failed operation
                self.fail(op.name, traceback.format_exc())
                sizes = None
            latency = time.perf_counter() - start
            after = reference_loop()
            if sizes is not None:
                times[op.name] = (latency, 2 * latency / (before + after))
                self.check_sizes(op, sizes)
            before = after
        return times

    def check_sizes(self, op, sizes: dict) -> None:
        sizes = json.loads(json.dumps(sizes))
        seen = self.sizes.setdefault(op.name, sizes)
        if seen != sizes:
            self.fail(op.name, f"sizes {sizes} differ from an earlier pass {seen}")
        elif self.expected is not None and self.frozen.get(op.name) != sizes:
            self.fail(op.name, f"sizes {sizes} differ from frozen {self.frozen.get(op.name)}")

    def check_counts(self, counts: dict) -> None:
        self.attempted += 1
        reference = self.counts if self.counts is not None else self.frozen_counts
        if reference is not None and reference != counts:
            diff = {k: (reference.get(k), v) for k, v in counts.items() if reference.get(k) != v}
            self.fail("trace counts", f"(expected, seen): {diff}")
        self.counts = self.counts or counts


def _totals(passes: list[dict], unit: int) -> list[float]:
    return [sum(t[unit] for t in times.values()) for times in passes]


def _op_medians(passes: list[dict], unit: int) -> dict[str, float]:
    by_op: dict[str, list[float]] = {}
    for times in passes:
        for name, t in times.items():
            by_op.setdefault(name, []).append(t[unit])
    return {name: statistics.median(v) for name, v in by_op.items()}


WALL, REF = 0, 1


def measure(run: Run, seconds: float, trace: bool, spans_path: Path, between=None) -> dict:
    """Passes until the next one would end after ``seconds``; at least one
    pass, and with tracing at least one untraced and one traced pass,
    alternating and starting untraced. ``between`` runs after each
    untraced pass. Times are medians over passes.

    The end-to-end times are in refs, not seconds: on a shared machine the
    speed of the same code moves by 1.5 to 2x for spells of up to a
    minute, and the reference loop beside each operation moves with it."""
    plain: list[dict] = []
    traced: list[dict] = []
    self_s: list[dict] = []
    total_s: list[dict] = []
    durations: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) < len(plain)
        began = time.perf_counter()
        if tracing:
            tracer = Tracer()
            tracer.install()
            try:
                traced.append(run.one_pass())
            finally:
                tracer.remove()
            self_s.append(tracer.self_s)
            total_s.append(tracer.total_s)
            run.check_counts(tracer.counts)
        else:
            plain.append(run.one_pass())
            if between is not None:
                between()
        durations[tracing].append(time.perf_counter() - began)
        upcoming = trace and len(traced) < len(plain)
        spent = time.perf_counter() - start
        if (not trace or traced) and spent + statistics.median(durations[upcoming]) > seconds:
            break
    wall = _totals(plain, WALL)
    print(json.dumps({"untraced_pass_s": wall, "untraced_pass_ref": _totals(plain, REF)}), file=sys.stderr)
    if not trace:
        # percentiles across operations of each one's median latency
        refs = _op_medians(plain, REF)
        print(json.dumps({"op_median_ref": refs}), file=sys.stderr)
        refs = list(refs.values())
        return {
            "solve_ref": (statistics.median(_totals(plain, REF)), "ref"),
            "op_p50_ref": (percentile(refs, 50), "ref"),
            "op_p90_ref": (percentile(refs, 90), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(spans_path)
    metrics = {}
    for name, per_pass in (("self_s", self_s), ("total_s", total_s)):
        for layer in LAYERS:
            metrics[f"{layer}.{name}"] = (statistics.median(p[layer] for p in per_pass), "s")
    counts = run.counts
    for key, value in counts.items():
        metrics[key] = (value, "bytes" if key == "io.bytes" else "count")
    metrics["lp.feasible_ratio"] = (
        counts["lp.feasible"] / counts["lp.calls"] if counts["lp.calls"] else 0.0,
        "ratio",
    )
    traced_wall = _totals(traced, WALL)
    unattributed = [t - sum(p.values()) for t, p in zip(traced_wall, self_s)]
    metrics["harness.self_s"] = (statistics.median(unattributed), "s")
    metrics["trace.solve_s"] = (statistics.median(traced_wall), "s")
    metrics["trace.overhead_frac"] = (
        statistics.median(_totals(traced, REF)) / statistics.median(_totals(plain, REF)) - 1,
        "ratio",
    )
    latencies = list(_op_medians(plain, WALL).values())
    metrics["wall.solve_s"] = (statistics.median(wall), "s")
    metrics["wall.op_p50_ms"] = (percentile(latencies, 50) * 1e3, "ms")
    metrics["wall.op_p90_ms"] = (percentile(latencies, 90) * 1e3, "ms")
    return metrics


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "env": {k: os.environ.get(k) for k in ENV_KEYS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the LP thread pool buys nothing under the GIL; measure without it
    threads_requested = os.environ.pop("STRATAKIT_THREADS", None)
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    workdir = HERE / "out" / f"{args.workload}-{os.getpid()}"
    trace = bool(args.trace)
    setups: list[tuple[float, float]] = []

    def probe() -> None:
        setups.append(setup_time(args.workload, args.seed, workdir / "probe"))

    try:
        if not trace:
            # the first set-up writes the bytecode caches, which users do
            # not pay on every run; later ones sit between the passes, so
            # they see the same slow and fast spells of the machine
            setup_time(args.workload, args.seed, workdir / "probe")
            probe()
        run = Run(workload, workload.setup(args.seed, workdir / "inputs"), expected)
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = measure(run, args.seconds, trace, spans, None if trace else probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not trace:
        print(json.dumps({"setup_wall_s": [s[0] for s in setups]}), file=sys.stderr)
        metrics["setup_s"] = (statistics.median(s[1] for s in setups), "s")
        metrics["ok_frac"] = (1 - run.failed / run.attempted, "ratio")
    env = environment(args)
    env["STRATAKIT_THREADS removed"] = threads_requested
    print(json.dumps({"env": env}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
