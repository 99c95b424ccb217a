"""Set-up probe: one fresh process doing a workload's imports and
session creation, then printing ``ready``.

Usage: ``python3 setup_probe.py fig5-sweep|sampled-synth STORE_DIR``
with ``src`` on ``PYTHONPATH``.  ``run.py`` times several of these from
spawn to ``ready`` and reports the median as ``setup_s``.
"""

import sys


def main() -> int:
    workload, store_dir = sys.argv[1], sys.argv[2]
    from repro.service.session import SimService
    from repro.service.store import CacheConfig

    if workload == "fig5-sweep":
        import repro.experiments.figure5  # noqa: F401

        service = SimService(cache=CacheConfig(backend="local", directory=store_dir))
    elif workload == "sampled-synth":
        import repro.trace.fastwarm  # noqa: F401
        import repro.trace.sampling  # noqa: F401

        service = SimService(cache=CacheConfig(backend="off"))
    else:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    service.standup()
    print("ready", flush=True)
    service.teardown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
