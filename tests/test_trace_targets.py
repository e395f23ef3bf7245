"""The benchmark's tracer still finds every function it times, and every
per-layer metric the benchmark declares is still produced.

`bench/child.py --trace` wraps the functions named in its TARGETS list (and
each agent class's act and observe) and reports any it cannot find under
"missing". A renamed target, or one the program no longer calls, would
silently drop its per-layer metrics from the benchmark's result. So this runs
traced commands in subprocesses: a short pretrain of every learner (long
enough for an A2C update), a short frozen tournament from their checkpoints
and `report` on its log, covering the three rules. It then merges the spans as
`bench/run.py` does and computes the metrics with that file's own
`layer_metrics`. Nothing under `bench/` is written.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"
LEARNER_RULES = {"ql": "dp", "vpg": "gsp", "dpn": "up", "a2c": "dp", "ppo": "gsp", "dqn": "up"}
PRETRAIN_EPISODES = 6  # A2C updates every 5 episodes


def _bench_run():
    """bench/run.py as a module, imported without writing byte-code beside it."""
    sys.path.insert(0, str(BENCH))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = sys.modules["bench_run"] = importlib.util.module_from_spec(spec)  # its dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(str(BENCH))
    return module


def _traced(tmp_path, name, args):
    """Run one maulab command under the tracer; its trace data and wall time."""
    trace = tmp_path / f"{name}.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--trace", str(trace), "--", *map(str, args)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    wall = time.perf_counter() - t0
    assert proc.returncode == 0, proc.stderr
    return json.loads(trace.read_text(encoding="utf-8")), wall


@pytest.fixture(scope="module")
def traces(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("trace")
    runs, session_rate = {}, {}
    for algo, rule in LEARNER_RULES.items():
        runs[algo], wall = _traced(tmp, algo, [
            "pretrain", "--algo", algo, "--auction", rule, "--items", 4,
            "--episodes", PRETRAIN_EPISODES, "--seed", 3, "--out", "pre",
        ])
        session_rate[algo] = PRETRAIN_EPISODES / wall
    ckpts = [x for algo, rule in LEARNER_RULES.items()
             for x in ("--ckpt", f"{algo}={tmp / 'pre' / f'{rule}_4_{algo}_3' / f'{algo}.ckpt'}")]
    runs["tournament"], _ = _traced(tmp, "tournament", [
        "tournament", "--freeze", "--auction", "gsp", "--items", 6, "--episodes", 50,
        "--seed", 3, "--out", "tour", *ckpts,
    ])
    runs["report"], _ = _traced(tmp, "report", ["report", "--run", tmp / "tour" / "gsp_6_tournament_3", "--window", 5])
    return runs, session_rate


def test_traced_pretrain_finds_every_target(traces):
    runs, _ = traces
    data = runs["ql"]
    assert data["missing"] == []
    assert data["spans"]["harness.run_session"][0] == 1
    assert data["spans"]["harness.run_episode"][0] == 1  # one block, cleared in runs
    assert data["spans"]["env.reset"][0] == 1
    assert data["spans"]["agents.random.act"][0] == 5  # each random seat acts on the block at once
    assert data["spans"]["agents.ql.act"][0] == data["spans"]["env.step"][0] < PRETRAIN_EPISODES  # one act a run


def test_a_learner_observes_each_run_in_one_call(traces):
    runs, _ = traces
    spans = runs["a2c"]["spans"]
    # six episodes at a batch of 5: a run of 5 that ends in an update, then a run of 1
    assert spans["env.step"][0] == spans["agents.a2c.act"][0] == 2
    assert spans["agents.a2c.observe"][0] == 2
    assert spans["nn.adam_step"][0] == 2  # one actor and one critic step


def test_a_pretrain_counts_only_its_own_learner(traces):
    # the tracer wraps each class's act and observe; a learner class that
    # inherited from another learner's would count its calls under both
    runs, _ = traces
    for algo in LEARNER_RULES:
        spans = runs[algo]["spans"]
        assert spans[f"agents.{algo}.act"][0] > 0
        for other in LEARNER_RULES.keys() - {algo}:
            assert spans[f"agents.{other}.act"][0] == spans[f"agents.{other}.observe"][0] == 0, other


def test_frozen_tournament_plays_one_block(traces):
    runs, _ = traces
    spans = runs["tournament"]["spans"]
    assert spans["harness.run_episode"][0] == 1
    assert spans["env.step"][0] == 1
    assert spans["auction.clear.gsp"][0] == 1
    assert spans["agents.random.act"][0] == 0
    for algo in LEARNER_RULES:
        assert spans[f"agents.{algo}.act"][0] == 1
        assert spans[f"agents.{algo}.observe"][0] == 0


def test_every_per_layer_metric_is_produced(traces):
    runs, session_rate = traces
    spans, missing = {}, set()
    for data in runs.values():
        missing.update(data["missing"])
        for name, values in data["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(values):
                acc[i] += v
    metrics = _bench_run().layer_metrics(spans, session_rate, 0.0)
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]]
    assert missing == set()
    assert [name for name in declared if name not in metrics] == []
    assert all(math.isfinite(value) for value, _ in metrics.values())
    json.dumps({name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}, allow_nan=False)
