"""Plumbing shared by the workloads: scratch space, statistics, set-up
probes, host-speed calibration."""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: every file a run writes lives here (listed in the root .gitignore)
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
#: fresh processes timed by a run's setup_s; the median is reported
SETUP_REPEATS = 7
#: seconds :func:`calibration_loop` takes on the reference host (a 2-vCPU
#: x86-64 VM, Python 3.11).  Fixed for good: it is the unit every timed
#: metric is reported in, so changing it rescales every past figure
CALIBRATION_REF_S = 0.065


def bench_env() -> dict:
    """The environment for child processes: ``src`` importable, and no
    ``REPRO_*`` variable that could rescale, relocate or instrument a run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = SRC
    return env


class Workdir:
    """A per-run scratch directory under the checkout, removed on exit."""

    def __init__(self) -> None:
        self.path = os.path.join(WORK_ROOT, f"run-{os.getpid()}")
        self._n = 0

    def __enter__(self) -> "Workdir":
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)  # only when no other run is using it
        except OSError:
            pass

    def fresh(self, name: str) -> str:
        self._n += 1
        path = os.path.join(self.path, f"{name}-{self._n}")
        os.makedirs(path)
        return path


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``pct`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def median(values) -> float:
    return statistics.median(values)


def canonical(result) -> str:
    """A result as canonical JSON (the form results are compared in)."""
    return json.dumps(result.to_dict(), sort_keys=True)


def digest(results) -> str:
    """sha256 over the canonical JSON of ``results``, in order."""
    h = hashlib.sha256()
    for r in results:
        h.update(canonical(r).encode())
        h.update(b"\n")
    return h.hexdigest()


def own_peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def time_setup_probe(workload: str, work: Workdir) -> float:
    """Seconds from spawning a fresh interpreter until it has done the
    workload's imports and session creation (it prints ``ready``)."""
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
           work.fresh("probe")]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=bench_env(), cwd=ROOT, text=True,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
    finally:
        proc.stdout.close()
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe for {workload} failed (exit {proc.returncode})")
    return elapsed


class _Cell:
    __slots__ = ("tag", "age", "next")


def calibration_loop(n: int = 120_000) -> float:
    """Seconds a fixed pure-Python loop takes: attribute, dict and list
    work on small objects, like the simulator's, but no ``repro`` code,
    so no change to the program can change it.  The collector is off
    while it runs, so the program's heap does not either."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        cells = [_Cell() for _ in range(256)]
        for i, c in enumerate(cells):
            c.tag, c.age, c.next = i, 0, None
        for i, c in enumerate(cells):
            c.next = cells[(i * 7 + 1) % 256]
        table: dict = {}
        queue: list = []
        x, c = 12345, cells[0]
        for i in range(n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            c = c.next
            c.age += 1
            key = x & 1023
            v = table.get(key)
            if v is None or v[0] < c.age:
                table[key] = (c.age, c.tag)
            queue.append((key, i))
            if len(queue) > 64:
                queue.pop(0)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class HostSpeed:
    """How fast the host runs right now, relative to the reference host.

    On a shared host the same simulation takes 10-30% more or less time
    from one minute to the next, and all interpreted code slows together:
    the calibration loop, timed between pieces of timed work, tracks a
    run's speed with a correlation of about 0.96.  Timed metrics are
    divided by :meth:`factor`, so they read as seconds on the reference
    host and stay comparable between runs made minutes apart.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: wall seconds spent sampling, to take out of a timed span
        self.spent = 0.0

    def sample(self) -> None:
        t0 = perf_counter()
        self.samples.append(calibration_loop())
        self.spent += perf_counter() - t0

    def factor(self) -> float:
        """Mean calibration time over the reference time: above 1 when
        the host ran slower than the reference."""
        return statistics.fmean(self.samples) / CALIBRATION_REF_S


def log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)
