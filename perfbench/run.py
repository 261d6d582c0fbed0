"""Benchmark for fitchmap, from a file or an in-memory map to a verdict.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

The library is imported from the ``src`` directory next to this one, and
scratch files go to ``.perfbench_work`` there.  One workload runs in this
process, single threaded, as a closed loop: the next map starts when the
previous one has returned.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` makes fixed passes over the workload's maps, whatever
``--seconds`` says, and prints the per-layer metrics.  ``all`` runs every
workload in a fresh process of its own, one after another.  The last line
of standard output is a JSON result; the exit code is 1 when any output
check failed and 2 when the library is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3


def _fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library():
    """Import fitchmap from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import fitchmap
    except ImportError as e:
        _fail(f"cannot import fitchmap from {src}: {e}")
    if not Path(fitchmap.__file__).resolve().is_relative_to(src):
        _fail(f"fitchmap was imported from {fitchmap.__file__}, not {src}")


def _git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


class Tally:
    """Maps attempted and failed; failures print their traceback to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run_and_check(self, item, samples: list) -> float:
        """Time one call (the check runs after the clock stops); returns
        the seconds the call took."""
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        dt = None
        try:
            result = item.run()
            dt = time.perf_counter() - t0
            samples.append((item.n, dt))
            item.check(result)
        except Exception:  # a failed map is counted, the loop goes on
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
        return dt if dt is not None else time.perf_counter() - t0


def _entries_per_s(samples) -> float:
    """Ordered leaf pairs per second of timed calls."""
    return sum(n * (n - 1) for n, _ in samples) / sum(dt for _, dt in samples)


def set_up(name: str, seed: int, workdir: Path):
    """Generate, write and warm up; returns the schedule and its seconds."""
    import workloads
    from fitchmap import derive_forbidden_table
    from inputs import TriadOracle

    t0 = time.perf_counter()
    derive_forbidden_table.cache_clear()
    derive_forbidden_table()
    items = workloads.schedule(name, seed, workloads.Context(workdir, TriadOracle()))
    items[1].run()  # warm-up on a small map; its output is checked in the loop
    return items, time.perf_counter() - t0


def end_to_end(name: str, seed: int, seconds: float, workdir: Path, import_s: float):
    import workloads

    w = workloads.WORKLOADS[name]
    setups = []
    for _ in range(SETUP_REPEATS):
        items, secs = set_up(name, seed, workdir)
        setups.append(secs)
    tally, samples = Tally(), []
    spent, i = 0.0, 0
    while spent < seconds or i < len(items):  # at least one pass, for both sizes
        spent += tally.run_and_check(items[i % len(items)], samples)
        i += 1
    big = [dt for n, dt in samples if n == w.big]
    small = [dt for n, dt in samples if n == w.small]
    p50_big = statistics.median(big)
    p50_small = statistics.median(small)
    metrics = {
        "entries_per_s": (_entries_per_s(samples), "entries/s"),
        "latency_p50_s": (p50_big, "s"),
        "scaling_exponent": (math.log(p50_big / p50_small) / math.log(w.big / w.small), "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (import_s + statistics.median(setups), "s"),
    }
    notes = {
        "latency_p50_s": f"median of {len(big)} maps at n={w.big}",
        "scaling_exponent": f"n={w.small} ({len(small)} maps) to n={w.big}",
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups",
    }
    return tally, metrics, notes


def traced(name: str, seed: int, workdir: Path):
    """One traced and one untraced pass over the schedule, then a
    tracemalloc pass over its first map.  Fixed passes rather than a timed
    loop, so every count repeats exactly for a seed."""
    import workloads
    from spans import ALLOC_SPANS, Tracer

    w = workloads.WORKLOADS[name]
    items, _ = set_up(name, seed, workdir)
    tally = Tally()

    def one_pass() -> float:
        samples = []
        for item in items:
            tally.run_and_check(item, samples)
        return _entries_per_s(samples)

    tracer = Tracer(w.top)
    with tracer:
        traced_rate = one_pass()
    untraced_rate = one_pass()
    alloc = Tracer(w.top, alloc=True)
    with alloc:
        tally.run_and_check(items[0], [])
    values = tracer.summary()
    for span in ALLOC_SPANS:
        values[f"{span}.alloc_peak_mb"] = alloc.alloc_peak[span] / 2**20
    values["trace.overhead_ratio"] = traced_rate / untraced_rate
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    return tally, metrics, {}


def _unit(metric: str) -> str:
    if metric.endswith("mb_per_s"):
        return "MB/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.startswith("io.bytes"):
        return "bytes"
    if metric.startswith("trace."):
        return "ratio"
    return "count"


def run_one(args) -> int:
    t0 = time.perf_counter()
    _import_library()
    import workloads  # counted as import time

    import_s = time.perf_counter() - t0
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}")
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            tally, metrics, notes = traced(args.workload, args.seed, workdir)
        else:
            tally, metrics, notes = end_to_end(args.workload, args.seed, args.seconds, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for key, (value, unit) in metrics.items():
        note = f"  ({notes[key]})" if key in notes else ""
        print(f"{args.workload:15s} {key:45s} {value:14.6g} {unit}{note}")
    print(f"{args.workload:15s} {'error_rate':45s} {tally.failed / tally.attempted:14.6g} "
          f"share  ({tally.failed} of {tally.attempted} maps)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if tally.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in a fresh process of its own, one after another."""
    _import_library()
    import workloads

    results, code = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = max(code, proc.returncode)
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
