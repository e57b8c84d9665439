"""Golden digests of the benchmark loop: the simulator's outputs are pinned.

``perfbench/run.py`` hashes everything one loop produces (coverage, SLI
history, compiled replay tensors, model reports and the canary verdict).
Running fleet 0 of each workload serially must reproduce the digests
below bit for bit.  A change that is meant to be a pure optimization of
the simulator (batching, vectorizing, reordering independent work) must
leave them untouched; a change that alters behaviour on purpose records
new constants here and says why.

The loop runs in a subprocess because job RNG streams are keyed by
``hash(job_id)``, which is only reproducible under a fixed
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: ``run_loop`` digests of fleet 0, serial engine, per workload.
GOLDEN_DIGESTS = {
    "loop": "8f8b161ac4cef0c5147953d49f86ff1a2c0836d3dcc241d20de07494946a75c2",
    "dense": "aa917afbed176abb13578874333694a42f8e083f7c1749f8dbdb5df5e8821d85",
}

_SCRIPT = """
import importlib.util, json, sys, tempfile
from pathlib import Path

spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = run
spec.loader.exec_module(run)
run._import_program()
from repro.obs import Tracer

digests = {}
for name in sys.argv[2:]:
    with tempfile.TemporaryDirectory() as store:
        result = run.run_loop(run.WORKLOADS[name], 0, Tracer(enabled=False),
                              Path(store), parallel=False)
    if result.errors:
        raise SystemExit(f"{name}: {result.errors}")
    digests[name] = result.digest
print(json.dumps(digests))
"""


@pytest.fixture(scope="module")
def digests():
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT / "perfbench" / "run.py"),
         *GOLDEN_DIGESTS],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(GOLDEN_DIGESTS))
def test_serial_loop_digest_is_pinned(digests, workload):
    assert digests[workload] == GOLDEN_DIGESTS[workload]


_PARALLEL_SCRIPT = """
import importlib.util, json, sys, tempfile
import multiprocessing as mp
import multiprocessing.context as mpc
from pathlib import Path

spec = importlib.util.spec_from_file_location("perfbench_run", sys.argv[1])
run = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = run
spec.loader.exec_module(run)
run._import_program()
from repro.obs import Tracer

started = []
real_start = mpc.ForkProcess.start

def spy(proc):
    started.append(proc)
    real_start(proc)

mpc.ForkProcess.start = spy
with tempfile.TemporaryDirectory() as store:
    result = run.run_loop(run.WORKLOADS[sys.argv[2]], 0, Tracer(enabled=False),
                          Path(store), parallel=True)
print(json.dumps({"errors": result.errors, "digest": result.digest,
                  "forks": len(started), "expected": run.ENGINE_WORKERS - 1,
                  "alive": len(mp.active_children())}))
"""


def test_parallel_loop_forks_once():
    """A parallel loop (simulation, then the canary's two soaks) is one
    engine session: it forks its workers once, its digest read closes
    the session, and it reproduces the serial digest."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, "-c", _PARALLEL_SCRIPT,
         str(ROOT / "perfbench" / "run.py"), "loop"],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["errors"] == []
    assert report["forks"] == report["expected"] == 1
    assert report["alive"] == 0
    assert report["digest"] == GOLDEN_DIGESTS["loop"]
