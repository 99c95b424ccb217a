"""Experiments: the paper's artefacts and the sweeps that regenerate them.

* :mod:`repro.experiments.artefacts` -- every paper figure and table,
  declared once in ``ARTEFACTS`` (``repro figure ID``, ``repro all``);
* :mod:`repro.experiments.runner` -- ``SimSpec``, the canonical machines
  and ``run_many``, the one batch entry point into a session;
* :mod:`repro.experiments.scenario_sweep` -- the scenario x geometry
  stress matrix (``repro scenarios sweep``);
* :mod:`repro.experiments.report` -- ``FigureResult`` and its text
  rendering.
"""
