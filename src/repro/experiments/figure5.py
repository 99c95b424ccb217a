"""Figure 5 as a module-level ``compute``: the entry point that
``perfbench``'s fig5-sweep workload imports, wraps and times."""

from repro.experiments.artefacts import ARTEFACTS

compute = ARTEFACTS["figure5"].compute
