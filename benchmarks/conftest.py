"""Benchmark harness configuration.

``bench_artefacts.py`` regenerates each paper artefact (table/figure) of
``repro.experiments.artefacts`` and prints the same rows/series the paper
reports.  pytest-benchmark measures the end-to-end regeneration cost.
Every artefact runs on one shared, store-less ``SimService``
(``CacheConfig(backend="off")``): its memo lets
artefacts that share a sweep (Figures 5-12) pay for it once, and having
no result store means the benches measure simulation cost, not store
reads from an earlier session.

Parallelism: set ``REPRO_JOBS=N`` to fan every artefact's simulation
batch out over N worker processes (0 = one per core); results are
bit-identical to the serial run.

Scale: the paper simulates 100M instructions per benchmark; these benches
run the artefacts' default 6000/3000 instructions so the whole suite
regenerates in minutes on a laptop.
"""

from __future__ import annotations

import pytest

from repro.experiments import runner
from repro.service.session import SimService
from repro.service.store import CacheConfig


def bench_jobs() -> int:
    """Worker processes for benchmark sweeps (``REPRO_JOBS``, default 1)."""
    return runner.jobs_from_env()


@pytest.fixture(scope="session")
def bench_session():
    """The store-less session every artefact bench shares."""
    with SimService(cache=CacheConfig(backend="off")) as session:
        yield session


@pytest.fixture
def regen(benchmark, bench_session):
    """Run an artefact generator once under pytest-benchmark and print it.

    ``REPRO_JOBS`` is threaded into the artefact's ``jobs`` argument
    unless the bench passes one explicitly; the artefact runs on
    :func:`bench_session`.
    """

    def _run(compute, *args, **kwargs):
        kwargs.setdefault("jobs", bench_jobs())
        kwargs.setdefault("session", bench_session)
        result = benchmark.pedantic(
            lambda: compute(*args, **kwargs), rounds=1, iterations=1, warmup_rounds=0
        )
        print()
        print(result.to_text())
        benchmark.extra_info.update(
            {k: round(v, 4) for k, v in result.summary.items()}
        )
        return result

    return _run
