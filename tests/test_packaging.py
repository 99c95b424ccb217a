"""Packaging: every third-party package the CLI imports is declared.

``pip install .`` must give a working ``repro`` command, so each
non-stdlib top-level package that ``import repro.cli`` loads has to be
listed in ``setup.py``'s ``install_requires``.
"""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: imports in a fresh interpreter the top-level packages ``repro.cli``
#: adds to ``sys.modules`` (anything loaded at interpreter start-up, e.g.
#: by a ``.pth`` file, is excluded)
_PROBE = """
import json, sys
before = set(sys.modules)
import repro.cli
print(json.dumps(sorted({m.split(".")[0] for m in set(sys.modules) - before})))
"""


def _install_requires() -> set[str]:
    """Import names of the ``install_requires`` entries in setup.py."""
    tree = ast.parse((ROOT / "setup.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for kw in node.keywords:
                if kw.arg == "install_requires":
                    reqs = ast.literal_eval(kw.value)
                    return {
                        re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0].lower().replace("-", "_")
                        for r in reqs
                    }
    return set()


def _cli_third_party_imports() -> set[str]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    ).stdout
    loaded = set(json.loads(out.strip().splitlines()[-1]))
    stdlib = set(sys.stdlib_module_names) | set(sys.builtin_module_names)
    return {m for m in loaded if m not in stdlib and m != "repro"}


def test_cli_imports_only_declared_third_party_packages():
    undeclared = _cli_third_party_imports() - _install_requires()
    assert not undeclared, (
        f"import repro.cli loads {sorted(undeclared)}, which setup.py's "
        "install_requires does not declare"
    )


def test_probe_sees_numpy():
    # the check above is vacuous if the probe misses a package it loads
    assert "numpy" in _cli_third_party_imports()
