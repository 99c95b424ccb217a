"""samie-lsq-repro: reproduction of Abella & Gonzalez, IPPS 2006.

Public API tour:

* :func:`repro.core.processor.run_simulation` -- simulate a workload on a
  machine with a chosen LSQ design; returns a
  :class:`~repro.core.pipeline.SimResult`.
* :mod:`repro.lsq` -- the three LSQ models (conventional, ARB, SAMIE).
* :mod:`repro.workloads` -- the 26 SPEC2000 workload analogues.
* :mod:`repro.energy` -- CACTI-like delay model and the paper's
  energy/area constants.
* :mod:`repro.experiments` -- the paper's figures and tables, declared
  once in :mod:`repro.experiments.artefacts`.
"""

from repro.core.config import ProcessorConfig
from repro.core.pipeline import SimResult
from repro.core.processor import build_processor, make_lsq, run_simulation
from repro.lsq import ARBConfig, ARBLSQ, ConventionalLSQ, SamieConfig, SamieLSQ
from repro.workloads import get_workload, list_workloads, make_trace

__version__ = "1.0.0"

__all__ = [
    "ProcessorConfig",
    "SimResult",
    "build_processor",
    "make_lsq",
    "run_simulation",
    "ARBConfig",
    "ARBLSQ",
    "ConventionalLSQ",
    "SamieConfig",
    "SamieLSQ",
    "get_workload",
    "list_workloads",
    "make_trace",
    "__version__",
]
