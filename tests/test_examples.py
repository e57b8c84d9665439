"""The examples stay importable, and the two quick ones run end to end.

Every script under ``examples/`` guards ``main`` behind ``__name__ ==
"__main__"``, so importing it runs nothing and checks only that its
imports still resolve.  ``reactive_vs_proactive.py`` and
``ml_training_pipeline.py`` take a few seconds each, so they also run
whole in a subprocess; the first drives reactive direct reclaim through
the memcg page arrays.  The others (quickstart, autotuning, the
Bigtable case study) simulate fleets for tens of seconds to over a
minute each and stay import-only.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))
RUN_END_TO_END = ("reactive_vs_proactive.py", "ml_training_pipeline.py")


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


@pytest.mark.parametrize("name", RUN_END_TO_END)
def test_example_runs(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / name)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
