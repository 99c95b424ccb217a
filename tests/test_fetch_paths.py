"""Fetch-path equivalence: record batches vs ``next()``.

Fetch builds one :class:`~repro.core.inflight.InFlight` per instruction.
A source with ``take_batch`` (synthetic streams, trace files) is read in
record batches turned into ``InFlight``\\ s in one pass; any other
iterator is pulled one ``UOp`` at a time.  Both paths must build the same
objects and give the same simulation, on every SPEC analogue, including
a flush-heavy tiny SAMIE geometry with data checking on.
"""

from __future__ import annotations

import itertools
from types import SimpleNamespace

import pytest

from repro.core.config import ProcessorConfig
from repro.core.inflight import InFlight
from repro.core.processor import build_processor
from repro.isa.opclasses import OpClass
from repro.lsq.arb import ARBConfig, ARBLSQ
from repro.lsq.conventional import ConventionalLSQ
from repro.lsq.samie import SamieConfig, SamieLSQ
from tests.conftest import mk_mem
from repro.trace.format import TraceStream, write_trace
from repro.workloads.registry import list_workloads, make_trace

SPEC = list_workloads()
INSTRUCTIONS, WARMUP = 2000, 500
#: records a replayed trace holds: the run plus what fetch reads ahead
RECORDED = INSTRUCTIONS + WARMUP + 2000


def _fields(ins: InFlight) -> list:
    return [(name, type(getattr(ins, name)), getattr(ins, name))
            for name in InFlight.__slots__]


def _plain(it):
    """The same source, seen as an iterator without ``take_batch``."""
    return (u for u in it)


def _run(trace, lsq: str, track: bool = False):
    if lsq == "samie-tiny":
        model = SamieLSQ(SamieConfig(shared_entries=1, addr_buffer_slots=6,
                                     slots_per_entry=2, entries_per_bank=1))
    else:
        model = lsq
    pipe = build_processor(model, ProcessorConfig(track_data=track))
    pipe.attach_trace(trace)
    r = pipe.run(INSTRUCTIONS, warmup=WARMUP)
    return r.to_dict(), pipe.committed_load_values, pipe.committed_memory()


@pytest.mark.parametrize("name", SPEC)
def test_batch_objects_equal_next_objects(name):
    batch = make_trace(name, 3)
    ref = make_trace(name, 3)
    seq = 0
    for size in (1, 255, 256, 700):
        got = InFlight.from_records(batch.take_batch(size), seq)
        want = [InFlight.from_uop(next(ref)) for _ in range(size)]
        assert len(got) == size
        for g, w in zip(got, want):
            assert _fields(g) == _fields(w), (name, g.seq)
        seq += size


@pytest.mark.parametrize("name", SPEC)
def test_fetch_paths_give_one_result(name, tmp_path):
    lsq = "samie" if SPEC.index(name) % 2 else "conventional"
    live = _run(make_trace(name, 1), lsq)
    plain = _run(_plain(make_trace(name, 1)), lsq)
    path = str(tmp_path / f"{name}.uoptrace")
    write_trace(path, itertools.islice(make_trace(name, 1), RECORDED))
    with TraceStream(path) as stream:
        replay = _run(stream, lsq)
    assert live == plain == replay


@pytest.mark.parametrize("name", ["ammp", "swim", "mcf", "gzip"])
def test_fetch_paths_agree_under_flushes(name, tmp_path):
    live = _run(make_trace(name, 1), "samie-tiny", track=True)
    plain = _run(_plain(make_trace(name, 1)), "samie-tiny", track=True)
    path = str(tmp_path / f"{name}.uoptrace")
    write_trace(path, itertools.islice(make_trace(name, 1), RECORDED))
    with TraceStream(path) as stream:
        replay = _run(stream, "samie-tiny", track=True)
    assert live == plain == replay
    result = live[0]
    assert result["deadlock_flushes"] > 0  # the refetch path ran
    assert result["data_violations"] == 0


@pytest.mark.parametrize("lsq", ["conventional", "samie-tiny"])
def test_fetch_paths_agree_at_trace_end(lsq, tmp_path):
    """A trace shorter than the run ends the run at the same cycle on
    both paths."""
    path = str(tmp_path / "short.uoptrace")
    write_trace(path, itertools.islice(make_trace("mcf", 1), 1800))
    results = []
    for wrap in (lambda s: s, _plain):
        with TraceStream(path) as stream:
            results.append(_run(wrap(stream), lsq, track=True))
    assert results[0] == results[1]
    assert 0 < results[0][0]["instructions"] < INSTRUCTIONS  # the trace ended


def test_bad_op_code_fails_like_next(tmp_path):
    """An op code outside OpClass fails the batch path with the KeyError
    the ``next()`` path raises for it."""
    path = str(tmp_path / "bad.uoptrace")
    records = [SimpleNamespace(seq=i, pc=0x400000 + 4 * i, addr=0, target=0, size=0,
                               src1=0, src2=0, op=op, taken=False)
               for i, op in enumerate([int(OpClass.INT_ALU), 200, int(OpClass.INT_ALU)])]
    write_trace(path, records)
    errors = []
    for wrap in (lambda s: s, _plain):
        with TraceStream(path) as stream:
            pipe = build_processor("conventional")
            pipe.attach_trace(wrap(stream))
            with pytest.raises(KeyError) as err:
                pipe.run(3)
        errors.append(err.value.args)
    assert errors == [(200,), (200,)]


def test_read_ahead():
    """Fetch reads a batch source at most one batch ahead, and a plain
    iterator (here a generator) not at all.  A sampled stream over a
    batch source serves batches too, never past its current window."""
    stream = make_trace("gzip", 1)
    pipe = build_processor("conventional")
    pipe.attach_trace(stream)
    pipe.run(1000)
    taken = next(stream).seq  # records the pipeline has taken
    assert taken % 256 == 0
    assert 0 <= taken - pipe._records < 256

    pulled = itertools.count()
    source = make_trace("gzip", 1)
    pipe = build_processor("conventional")
    pipe.attach_trace(next(source) for _ in pulled)
    pipe.run(1000)
    assert next(pulled) == pipe._records


@pytest.mark.parametrize("make", [
    lambda: ConventionalLSQ(capacity=1),
    lambda: ARBLSQ(ARBConfig(max_inflight=1)),
], ids=["conventional", "arb"])
def test_refused_dispatch_leaves_instruction_untouched(make):
    """Dispatch retries the same fetched object, so a refusal must not
    write it or charge anything (the ``BaseLSQ.dispatch`` contract)."""
    q = make()
    assert q.dispatch(mk_mem(OpClass.LOAD, 0, 0x100))
    ins = mk_mem(OpClass.STORE, 1, 0x108)
    before = _fields(ins)
    stats, energy = dict(vars(q.stats)), q.energy.as_dict()
    assert not q.dispatch(ins)
    assert _fields(ins) == before
    assert vars(q.stats) == stats and q.energy.as_dict() == energy


# -- sampled streams: batch-fed within a window vs next()-fed ----------------

#: period / warm-up / measure of the sampled equivalence runs: short gaps
#: keep them fast, and three windows cross two skip gaps
PLAN = (4000, 600, 400)


def _sampled(source, engine: str):
    from repro.trace.sampling import SamplePlan, run_sampled

    lsq = SamieLSQ(SamieConfig(shared_entries=1, addr_buffer_slots=6,
                               slots_per_entry=2, entries_per_bank=1))
    pipe = build_processor(lsq, ProcessorConfig(track_data=True))
    r = run_sampled(pipe, source, SamplePlan(*PLAN), max_measured=3 * PLAN[2],
                    warm_engine=engine)
    stream = pipe._trace
    return (r.to_dict(), pipe.committed_load_values, pipe.committed_memory(),
            stream.consumed, stream.yielded), hasattr(stream, "take_batch")


@pytest.mark.parametrize("engine", ["vector", "scalar"])
@pytest.mark.parametrize("kind", ["synthetic", "trace", "trace-ends-mid-window"])
def test_sampled_batch_feed_equals_next_feed(engine, kind, tmp_path):
    """A sampled stream over a batch source hands fetch record batches
    within a window; the run equals the ``next()``-fed one (the same
    source as a plain iterator) on every field, the coverage counts
    included: records fetch took but never fetched are left out."""
    if kind == "synthetic":
        def source():
            return make_trace("ammp", 1)
    else:
        # the short trace ends 250 records into the third window
        n = 2 * PLAN[0] + 250 if kind == "trace-ends-mid-window" else 3 * PLAN[0]
        path = str(tmp_path / "ammp.uoptrace")
        write_trace(path, itertools.islice(make_trace("ammp", 1), n))

        def source():
            return TraceStream(path)
    batch, batch_fed = _sampled(source(), engine)
    plain, plain_fed = _sampled(_plain(source()), engine)
    assert batch_fed and not plain_fed
    assert batch == plain
    sampling = batch[0]["extra"]["sampling"]
    assert sampling["source_uops_consumed"] == batch[3]
    if kind == "trace-ends-mid-window":
        assert sampling["windows"] == 2
        assert sampling["source_uops_consumed"] == 2 * PLAN[0] + 250
    else:
        assert sampling["windows"] == 3
    assert batch[0]["deadlock_flushes"] > 0  # the refetch path ran


def test_sampled_batch_is_clamped_and_window_bounded():
    """``take_batch`` of a sampled stream never crosses a window end and
    clamps each producer distance to the record's window position."""
    from repro.trace.sampling import SampledStream, SamplePlan, make_warm_engine

    plan = SamplePlan(*PLAN)
    pipe = build_processor("conventional")
    stream = SampledStream(make_trace("mcf", 1), plan, make_warm_engine(pipe))
    ref = SampledStream(_plain(make_trace("mcf", 1)), plan, make_warm_engine(pipe))
    keep = plan.simulated_per_period
    sizes = []
    for _ in range(12):
        rec = stream.take_batch(256)
        sizes.append(len(rec))
        want = [next(ref) for _ in range(len(rec))]
        assert rec["src1"].tolist() == [u.src1 for u in want]
        assert rec["src2"].tolist() == [u.src2 for u in want]
        assert rec["pc"].tolist() == [u.pc for u in want]
    assert sizes[:5] == [256, 256, 256, 232, 256]  # window 1 ends at 1000
    assert sum(sizes[:4]) == keep
