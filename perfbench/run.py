"""Benchmark of record for the SAMIE-LSQ reproduction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-sweep|sampled-synth|serve-study \\
        --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with no instrumentation;
``--trace 1`` is the separate traced run that reports the per-layer
metrics.  Either way the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A line
before it gives the sha256 of the workload's simulated outputs, so two
runs (or two commits) can be compared.  Workloads, metrics and the
reasoning behind them are in ``BENCHMARK.json`` and ``README.md`` here.

The package is imported from the checkout's ``src``; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("fig5-sweep", "sampled-synth", "serve-study")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        return 2
    # pin the inputs: no REPRO_* variable may rescale, relocate or
    # instrument anything the workloads run
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, src)

    from common import Workdir
    from drivers import WORKLOADS

    with Workdir() as work:
        attempted, failed, metrics = WORKLOADS[args.workload](
            args.seed, args.seconds, bool(args.trace), work)
    out = {
        "correct": failed == 0,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
