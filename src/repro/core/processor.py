"""Top-level simulator facade.

``build_processor`` wires a pipeline to an LSQ model and the memory
hierarchy; ``run_simulation`` is the one-call entry point used by the
examples.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.config import ProcessorConfig
from repro.core.pipeline import Pipeline, SimResult
from repro.isa.uop import UOp
from repro.lsq.arb import ARBConfig, ARBLSQ
from repro.lsq.base import BaseLSQ
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.samie import SamieConfig, SamieLSQ
from repro.mem.hierarchy import MemoryHierarchy


def make_lsq(kind: str, **kwargs) -> BaseLSQ:
    """Construct an LSQ model by name.

    ``kind`` is one of ``"conventional"`` (kwargs: ``capacity``),
    ``"unbounded"`` (conventional with no capacity limit), ``"arb"``
    (kwargs: ``cfg`` an :class:`~repro.lsq.arb.ARBConfig`) or ``"samie"``
    (kwargs: ``cfg`` a :class:`~repro.lsq.samie.SamieConfig`).
    """
    if kind == "conventional":
        return ConventionalLSQ(capacity=kwargs.get("capacity", 128))
    if kind == "unbounded":
        return ConventionalLSQ(capacity=None)
    if kind == "arb":
        return ARBLSQ(kwargs.get("cfg") or ARBConfig())
    if kind == "samie":
        return SamieLSQ(kwargs.get("cfg") or SamieConfig())
    raise ValueError(f"unknown LSQ kind {kind!r}")


def build_processor(
    lsq: BaseLSQ | str = "conventional",
    cfg: ProcessorConfig | None = None,
    **lsq_kwargs,
) -> Pipeline:
    """Build a pipeline with the given LSQ model (instance or name)."""
    cfg = cfg or ProcessorConfig()
    if isinstance(lsq, str):
        lsq = make_lsq(lsq, **lsq_kwargs)
    mem = MemoryHierarchy(cfg.mem)
    return Pipeline(cfg, lsq, mem)


def run_simulation(
    trace: Iterator[UOp],
    lsq: BaseLSQ | str = "conventional",
    cfg: ProcessorConfig | None = None,
    max_instructions: int = 10_000,
    warmup: int = 0,
    **lsq_kwargs,
) -> SimResult:
    """Simulate ``max_instructions`` of ``trace`` on the given machine.

    ``warmup`` instructions run first with statistics discarded (the
    paper's cache warm-up methodology).
    """
    pipe = build_processor(lsq, cfg, **lsq_kwargs)
    pipe.attach_trace(trace)
    return pipe.run(max_instructions, warmup=warmup)
