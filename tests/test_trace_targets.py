"""The benchmark's tracer still finds every function it times.

`bench/child.py --trace` wraps the functions named in its TARGETS list and
reports any it cannot find under "missing". A renamed target would silently
drop its per-layer metrics from the benchmark, so this runs a short traced
pretrain in a subprocess and checks the trace. Nothing under `bench/` is
written.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_pretrain_finds_every_target(tmp_path):
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "child.py"), "--trace", str(trace), "--",
         "pretrain", "--algo", "ql", "--auction", "dp", "--items", "4", "--episodes", "2",
         "--out", str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(trace.read_text(encoding="utf-8"))
    assert data["missing"] == []
    assert data["spans"]["harness.run_session"][0] == 1
    assert data["spans"]["harness.run_episode"][0] == 2
