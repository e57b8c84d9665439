"""Golden digest of a default ``quickfleet``: the default kernel is pinned.

``tests/test_loop_digest.py`` pins the benchmark loop, which builds its
fleet with explicit kernel arguments.  This test pins what a caller gets
from ``quickfleet()`` with no kernel arguments at all: one simulated hour
of the default fleet, hashed over the coverage report, the complete SLI
history and every trace entry the exporters delivered.  The page-state
backends are bit-equivalent by contract, so the digest must not move
when the default backend does.

The run happens in a subprocess because job RNG streams are keyed by
``hash(job_id)`` (see :func:`repro.common.rng.seed_index`), which is
only reproducible under a fixed ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

GOLDEN_DIGEST = "696eba23ac4f9c8fc7c1043b8105695060f7ab0bee98b95a9641b8a519d74d9a"

_SCRIPT = """
import hashlib, json, sys, tempfile
from pathlib import Path

from repro.cluster.wsc import quickfleet
from repro.common.units import HOUR
from repro.obs import MetricRegistry, Tracer

fleet = quickfleet(registry=MetricRegistry(), tracer=Tracer(enabled=False))
fleet.run(HOUR)
digest = hashlib.sha256()
digest.update(json.dumps(fleet.coverage_report(), sort_keys=True).encode())
for s in fleet.sli_history:
    digest.update(repr((s.time, s.job_id, s.promotions, s.working_set_pages,
                        s.normalized_rate_pct_per_min, s.threshold)).encode())
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "traces.jsonl"
    lines = fleet.trace_db.save_jsonl(path)
    digest.update(path.read_bytes())
print(json.dumps({"digest": digest.hexdigest(), "sli": len(fleet.sli_history),
                  "entries": lines}))
"""


def _run_default_fleet() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], capture_output=True, text=True,
        env=env, cwd=ROOT, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_default_quickfleet_digest_is_pinned():
    result = _run_default_fleet()
    assert result["sli"] > 0 and result["entries"] > 0
    assert result["digest"] == GOLDEN_DIGEST
