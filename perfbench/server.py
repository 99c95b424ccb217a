"""Lifecycle of a ``repro serve`` subprocess for the serve-study workload.

The server is stopped with SIGINT: it is the signal on which the
``serve`` command tears its service down and joins its pool workers.
Every process of the server's tree that outlives the stop is reported,
so the workload can count it as a failed operation.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from time import perf_counter

from common import ROOT, bench_env


def _stat(pid: int) -> tuple[int, str, int] | None:
    """``(ppid, state, start time)`` of a live process, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return int(fields[1]), fields[0], int(fields[19])


def descendants(root: int) -> dict[int, int]:
    """``pid -> start time`` of every live descendant of ``root``."""
    children: dict[int, list[int]] = {}
    starts: dict[int, int] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            st = _stat(int(name))
            if st is not None:
                children.setdefault(st[0], []).append(int(name))
                starts[int(name)] = st[2]
    out: dict[int, int] = {}
    todo = [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            out[child] = starts[child]
            todo.append(child)
    return out


def _alive(pid: int, start: int) -> bool:
    st = _stat(pid)
    return st is not None and st[2] == start and st[1] != "Z"


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class ServeProcess:
    """``repro serve --jobs 2 --port 0 --port-file ...`` over a fresh store."""

    def __init__(self, workdir: str, jobs: int = 2) -> None:
        self.port_file = os.path.join(workdir, "port")
        self._log = open(os.path.join(workdir, "serve.log"), "wb")
        self.t_spawn = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--jobs", str(jobs),
             "--port", "0", "--port-file", self.port_file,
             "--cache-dir", os.path.join(workdir, "store")],
            env=bench_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=self._log,
        )
        self.client = None

    def wait_ready(self, timeout: float = 60.0) -> float:
        """Wait for the port file, then for ``/v1/health``; returns the
        seconds since spawn."""
        from repro.service.client import ServiceClient, ServiceClientError

        deadline = perf_counter() + timeout
        while not os.path.exists(self.port_file):
            if self.proc.poll() is not None or perf_counter() > deadline:
                raise RuntimeError("repro serve exited or never wrote its port file")
            time.sleep(0.002)
        with open(self.port_file) as fh:
            port = int(fh.read())
        client = ServiceClient(f"http://127.0.0.1:{port}", timeout=120.0)
        while True:
            try:
                client.health()
                break
            except (OSError, ServiceClientError):
                if self.proc.poll() is not None or perf_counter() > deadline:
                    raise RuntimeError("repro serve never answered /v1/health") from None
                time.sleep(0.002)
        self.client = client
        return perf_counter() - self.t_spawn

    def peak_rss_mb(self) -> float:
        """Sum of the peak resident sizes of the server and its workers."""
        pids = [self.proc.pid, *descendants(self.proc.pid)]
        return sum(_vm_hwm_kb(p) for p in pids) / 1024.0

    def stop(self, timeout: float = 30.0) -> int:
        """SIGINT the server, wait, and return how many processes of its
        tree outlived it (each is then killed)."""
        tree = descendants(self.proc.pid)
        survivors = 0
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            survivors += 1
            self.proc.kill()
            self.proc.wait()
        finally:
            self._log.close()
        deadline = perf_counter() + 5.0
        left = {p: s for p, s in tree.items() if _alive(p, s)}
        while left and perf_counter() < deadline:
            time.sleep(0.05)
            left = {p: s for p, s in left.items() if _alive(p, s)}
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        return survivors + len(left)
