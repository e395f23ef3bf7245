"""Checkpoint container round-trip and integrity tests."""

import struct

import numpy as np
import pytest

from maulab.checkpoint import (
    MAGIC,
    VERSION,
    CheckpointError,
    load_checkpoint,
    save_checkpoint,
)


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "table": rng.normal(size=(11, 231)),
        "w0": rng.normal(size=(64, 2)),
        "b0": np.zeros(64),
        "scalar_ish": rng.normal(size=(1,)),
    }


def test_roundtrip_bit_exact(tmp_path):
    path = tmp_path / "a.ckpt"
    meta = {"alpha": 0.1, "t": 42, "name": "qtable"}
    arrays = _arrays()
    save_checkpoint(path, "qtable", meta, arrays)
    kind, meta2, arrays2 = load_checkpoint(path)
    assert kind == "qtable"
    assert meta2 == meta
    assert set(arrays2) == set(arrays)
    for k in arrays:
        assert np.array_equal(arrays2[k], arrays[k])
        assert arrays2[k].dtype == np.float64


def test_save_load_save_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, "dqn", {"lr": 1e-4}, _arrays(1))
    kind, meta, arrays = load_checkpoint(p1)
    save_checkpoint(p2, kind, meta, arrays)
    assert p1.read_bytes() == p2.read_bytes()


def test_byte_flip_detected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "qtable", {}, _arrays(2))
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_version_mismatch_detected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "qtable", {}, _arrays(3))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", VERSION + 1)
    # keep the checksum consistent so only the version check fires
    import hashlib

    body = bytes(raw[:-32])
    raw[-32:] = hashlib.sha256(body).digest()
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_not_a_checkpoint(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"PK\x03\x04 definitely not " + bytes(64))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    short = tmp_path / "short.ckpt"
    short.write_bytes(MAGIC)
    with pytest.raises(CheckpointError):
        load_checkpoint(short)


def test_truncated_payload(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "qtable", {}, _arrays(4))
    raw = bytearray(path.read_bytes())
    cut = raw[: len(raw) - 200]
    # recompute the checksum over the truncated body so the size check fires
    import hashlib

    body = bytes(cut[:-32])
    cut = bytearray(body + hashlib.sha256(body).digest())
    path.write_bytes(bytes(cut))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_empty_arrays_ok(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "none", {"note": "no arrays"}, {})
    kind, meta, arrays = load_checkpoint(path)
    assert kind == "none"
    assert arrays == {}


def test_float32_input_upcast(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(path, "dqn", {}, {"w": np.ones(3, dtype=np.float32)})
    _, _, arrays = load_checkpoint(path)
    assert arrays["w"].dtype == np.float64
    assert np.array_equal(arrays["w"], np.ones(3))


@pytest.mark.parametrize("algo", ["ql", "vpg", "dqn"])
def test_earlier_layout_loads_to_same_state(tmp_path, algo):
    # Checkpoints from before the inert `gamma` (ql, vpg) and the unread DQN
    # target network with its `sync_every` were removed carry those fields;
    # they load and are ignored.
    from maulab.agents.base import make_agent
    from maulab.config import ScenarioConfig
    from maulab.harness import load_agent, save_agent

    config = ScenarioConfig(episodes=50)
    rng = np.random.default_rng(3)
    if algo == "dqn":
        agent = make_agent(algo, config, np.random.default_rng(1), hidden=(8, 8), lr=2e-3)
        agent.opt._ensure(agent.net.weights + agent.net.biases)
        for a in agent.opt.m + agent.opt.v:
            a[...] = rng.normal(size=a.shape)
        agent.opt.step, agent.schedule.t, agent.train_steps = 7, 13, 5
    else:
        agent = make_agent(algo, config, np.random.default_rng(1))
        agent.table[...] = rng.normal(size=agent.table.shape)
        if algo == "ql":
            agent.schedule.t = 13
        else:
            agent.t = 13
    meta, arrays = agent.checkpoint_payload()
    meta = dict(meta, algo=algo)
    if algo == "dqn":
        meta["sync_every"] = 1000
        net = {k: v for k, v in arrays.items() if k.startswith("net.")}
        target = {"target." + k[4:]: rng.normal(size=v.shape) for k, v in net.items()}
        arrays = {**net, **target, **{k: v for k, v in arrays.items() if k.startswith("opt.")}}
    else:
        meta["gamma"] = 0.99
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, agent.kind, meta, arrays)

    clone = load_agent(old, config, np.random.default_rng(2))
    if algo == "dqn":
        assert clone.net.layout == agent.net.layout
        assert np.array_equal(clone.net.flat(), agent.net.flat())
        for a, b in zip(clone.opt.m + clone.opt.v, agent.opt.m + agent.opt.v):
            assert np.array_equal(a, b)
        assert (clone.opt.step, clone.opt.lr, clone.train_steps) == (7, 2e-3, 5)
        assert clone.schedule == agent.schedule
        assert not hasattr(clone, "target_net")
    else:
        assert np.array_equal(clone.table, agent.table)
        assert clone.alpha == agent.alpha
        assert (clone.schedule if algo == "ql" else clone).t == 13
        assert not hasattr(clone, "gamma")
    save_agent(agent, tmp_path / "current.ckpt")
    save_agent(clone, tmp_path / "reloaded.ckpt")
    assert (tmp_path / "reloaded.ckpt").read_bytes() == (tmp_path / "current.ckpt").read_bytes()
