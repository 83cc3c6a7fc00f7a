"""Runs one workload: repeated set-up, timed rounds, optional traced rounds, checks.

A round is a fixed list of operations; each operation belongs to one of the
workload's three stages and processes a known number of items. Every run
attempts whole rounds: a round is started only while it is expected to end
within the run's seconds, and at least one round always runs. A stage's rate
is the median over all its operations of items / seconds.

The traced run alternates untraced and traced rounds in pairs for the run's
seconds, at least one pair, and its overhead is the median over pairs of the
traced round time over the untraced one. The first pair runs its traced
round first, so first-time costs (allocations, creating output files) can
only overstate the overhead; later pairs swap the order each time.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

import egohand
import numpy as np
import scipy

from . import tracer as tracing
from .segment import Segment
from .sweep import Sweep
from .train import Train

WORKLOADS = {"sweep": Sweep, "train": Train, "segment": Segment}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("stage1_per_s", "items/s", "higher"),
    ("stage2_per_s", "items/s", "higher"),
    ("stage3_per_s", "items/s", "higher"),
)


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps") as f:
            path = next(line.split()[-1] for line in f if "numpy.libs" in line and "openblas" in line)
        lib = ctypes.CDLL(path)
    except (OSError, StopIteration):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def environment(root: str) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = 0
    for dirpath, _, names in os.walk(os.path.join(root, "src")):
        for name in names:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as f:
                    src_lines += f.read().count(b"\n")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "kernel_backend": egohand.kernel_backend,
        "src_lines": src_lines,
    }


class _Runner:
    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0

    def round(self, tr=None) -> tuple[float, dict]:
        """Run one round; returns (seconds, {stage: [items per second, ...]})."""
        rates = {1: [], 2: [], 3: []}
        start = time.perf_counter()
        with tr.span("bench.round") if tr is not None else contextlib.nullcontext():
            for stage, items, op in self.wl.round():
                self.attempted += 1
                t0 = time.perf_counter()
                try:
                    op()
                except Exception:
                    self.failed += 1
                    traceback.print_exc(file=sys.stderr)
                    continue
                rates[stage].append(items / (time.perf_counter() - t0))
        return time.perf_counter() - start, rates


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: str,
                 **size) -> tuple[dict, list[str], dict]:
    """Returns (result object for the last output line, problems found by the
    checks, the workload's summary of its outputs)."""
    wl = WORKLOADS[name](seed, workdir, **size)
    runner = _Runner(wl)
    if trace:
        setup_tr = tracing.Tracer()
        with tracing.installed(setup_tr), setup_tr.span("bench.setup"):
            wl.setup()
        round_tr = tracing.Tracer()
        ratios = []
        start = time.perf_counter()
        while True:
            times = {}
            for traced in (True, False) if len(ratios) % 2 == 0 else (False, True):
                with tracing.installed(round_tr) if traced else contextlib.nullcontext():
                    times[traced], _ = runner.round(round_tr if traced else None)
            traced_s, plain_s = times[True], times[False]
            ratios.append(traced_s / plain_s)
            if time.perf_counter() - start + plain_s + traced_s > seconds:
                break
        overhead = 100.0 * (statistics.median(ratios) - 1.0)
        values = tracing.per_layer_metrics(setup_tr, round_tr, len(ratios), overhead)
        units = {n: u for n, u, _ in tracing.per_layer_spec()}
    else:
        setup_times = []

        def timed_setups(n):
            for _ in range(n):
                t0 = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t0)

        # set-ups before and after the rounds, so their median spans the run's
        # changes in machine speed as the rounds do
        timed_setups((wl.setup_repeats + 1) // 2)
        plain = []
        start = time.perf_counter()
        while True:
            plain.append(runner.round())
            if time.perf_counter() - start + plain[-1][0] > seconds:
                break
        timed_setups(wl.setup_repeats // 2)

        def stage_rate(stage):
            rates = [r for _, by_stage in plain for r in by_stage[stage]]
            return statistics.median(rates) if rates else 0.0

        values = {"setup_s": statistics.median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        values.update({f"stage{s}_per_s": stage_rate(s) for s in (1, 2, 3)})
        units = {n: u for n, u, _ in END_TO_END}

    problems = wl.check()
    result = {
        "correct": not problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    return result, problems, wl.summary()


def main(args, root: str) -> int:
    workdir = os.path.join(root, "egobench", ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    load_before = os.getloadavg()
    try:
        result, problems, summary = run_workload(args.workload, args.seed, args.seconds,
                                                 bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(root)
    env["loadavg_before"] = list(load_before)
    env["loadavg_after"] = list(os.getloadavg())
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print("summary " + json.dumps(summary))
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0
