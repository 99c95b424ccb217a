"""Record/replay uop traces, Spike commit-log ingestion, sampled replay.

Three pillars (see ROADMAP.md "Trace subsystem"):

* :mod:`repro.trace.format` -- the ``.uoptrace`` container: a compact,
  versioned, deflate-framed binary stream of
  :class:`~repro.isa.uop.UOp` records with a streaming
  :class:`~repro.trace.format.TraceWriter` and one reader,
  :class:`~repro.trace.format.TraceStream` (``UOp`` objects or columnar
  record batches from one cursor), per-frame CRCs and a seekable footer
  carrying the record count and content digest.
* :mod:`repro.trace.spike` -- parser for Spike RISC-V commit logs (the
  riscv-pythia format, plus the ``mem``-annotated variant), decoding
  loads/stores/branches/ALU ops into the uop stream.  A small fixture
  log is bundled under ``repro/trace/fixtures/``.
* :mod:`repro.trace.sampling` -- SMARTS-style systematic interval
  sampling (per-window warm-up + measurement) over any trace source,
  with functional warming of skip gaps under interchangeable engines:
  the scalar per-uop reference or the vectorized batch backend
  (:mod:`repro.trace.fastwarm`), bit-identical by contract.

:mod:`repro.trace.workload` adapts a trace file into the workload
registry: ``trace:<path>`` is the one name of a trace, so the pipeline,
the sweep engine (`SimSpec`/`run_many`, disk cache, process pool), the
CLI (``repro run trace:<path>``) and the paper's artefacts replay
recorded traces unchanged.
"""

from repro.trace.format import (
    FORMAT_VERSION,
    TraceCorruptError,
    TraceError,
    TraceInfo,
    TraceStream,
    TraceWriter,
    read_info,
    trace_token,
    write_trace,
)
from repro.trace.sampling import (
    SampledStream,
    SamplePlan,
    ScalarWarmEngine,
    attach_error,
    make_warm_engine,
    run_sampled,
)
from repro.trace.spike import SpikeStats, ingest_spike_log, parse_spike_log
from repro.trace.workload import fixture_path, record_trace, recommended_uops

__all__ = [
    "FORMAT_VERSION",
    "TraceError",
    "TraceCorruptError",
    "TraceInfo",
    "TraceStream",
    "TraceWriter",
    "read_info",
    "trace_token",
    "write_trace",
    "SamplePlan",
    "SampledStream",
    "ScalarWarmEngine",
    "attach_error",
    "make_warm_engine",
    "run_sampled",
    "SpikeStats",
    "parse_spike_log",
    "ingest_spike_log",
    "fixture_path",
    "record_trace",
    "recommended_uops",
]
