"""Packaging for the SAMIE-LSQ reproduction.

Installs one console script, ``repro``, which dispatches to
:func:`repro.cli.main`; ``repro verify --programs 500 --jobs 8`` is the
documented pre-merge conformance gate (see ROADMAP.md, "Verification").

Without installing, the same entry point is ``PYTHONPATH=src python -m
repro.cli``.
"""

from setuptools import find_packages, setup

setup(
    name="samie-lsq-repro",
    version="0.1.0",
    description="Reproduction of SAMIE-LSQ: set-associative multiple-instruction entry load/store queue",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.trace.fixtures": ["*.log"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "repro = repro.cli:main",
        ]
    },
)
