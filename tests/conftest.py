"""Shared test fixtures and helpers."""

from __future__ import annotations

import itertools
import os

import pytest

from repro.core.inflight import InFlight
from repro.isa.opclasses import OpClass
from repro.isa.uop import UOp


@pytest.fixture(autouse=True, scope="session")
def _hermetic_home(tmp_path_factory):
    """Point ``HOME`` at a per-session tmp dir and clear the retired variables.

    The default result store lives under ``~/.cache/samie-repro``, so a
    private home keeps test runs hermetic (no reads from, or writes to,
    the user's store) while still exercising the default store at the
    tests' tiny scales.  The CLI refuses to run while a retired scale or
    cache variable is set, so a shell that still exports one must not
    fail the suite.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HOME", str(tmp_path_factory.mktemp("home")))
        for name in ("REPRO_CACHE", "REPRO_CACHE_DIR", "REPRO_INSTR", "REPRO_WARMUP"):
            mp.delenv(name, raising=False)
        yield


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "slow_fuzz: long differential-fuzzing campaigns; skipped unless REPRO_FUZZ=1",
    )


def pytest_collection_modifyitems(config, items):
    if os.environ.get("REPRO_FUZZ") == "1":
        return
    skip = pytest.mark.skip(reason="slow fuzz campaign (set REPRO_FUZZ=1 to run)")
    for item in items:
        if "slow_fuzz" in item.keywords:
            item.add_marker(skip)

_seq_counter = itertools.count()


def mk_uop(
    op: OpClass = OpClass.INT_ALU,
    seq: int | None = None,
    pc: int = 0x400000,
    addr: int = 0,
    size: int = 8,
    src1: int = 0,
    src2: int = 0,
    taken: bool = False,
    target: int = 0,
) -> UOp:
    """Construct a uop with an auto-assigned sequence number."""
    if seq is None:
        seq = next(_seq_counter)
    if op in (OpClass.LOAD, OpClass.STORE) and size == 0:
        size = 8
    return UOp(seq, pc, op, src1=src1, src2=src2, addr=addr, size=size, taken=taken, target=target)


def mk_mem(
    op: OpClass,
    seq: int,
    addr: int,
    size: int = 8,
    addr_ready: bool = True,
    data_ready: bool = True,
) -> InFlight:
    """In-flight memory instruction in the post-AGU state (LSQ unit tests)."""
    ins = InFlight.from_uop(mk_uop(op, seq=seq, addr=addr, size=size))
    ins.addr_ready = addr_ready
    if op is OpClass.STORE:
        ins.store_data_ready = data_ready
    return ins


@pytest.fixture
def fresh_seq():
    """Reset-free monotonic sequence source for a test."""
    return itertools.count()
