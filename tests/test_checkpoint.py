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


# Meta of checkpoints written before the hyperparameters were saved by
# constructor name, copied key for key. ql and vpg files from before that
# still carry the inert `gamma`; dqn files carry `sync_every` and (among the
# arrays) the unread target network. `layout*` keys stand in for `hidden`.
_NET = {"activation": "tanh", "lr": 2e-3, "opt_step": 7}
_AC = {
    "activation": "tanh", "layout_actor": [2, 8, 8, 42], "actor_lr": 2e-3, "opt_actor_step": 7,
    "layout_critic": [2, 8, 8, 1], "critic_lr": 3e-3, "opt_critic_step": 7, "entropy_coef": 0.02, "t": 13,
}
EARLIER_META = {
    "ql": {"value_bins": 11, "alpha": 0.3, "eps_max": 0.8, "decay_rate": 0.9, "t": 13, "gamma": 0.99},
    "vpg": {"value_bins": 11, "alpha": 0.3, "t": 13, "gamma": 0.99},
    "dqn": {
        **_NET, "layout": [2, 8, 8, 231], "batch_size": 32, "warmup": 10, "eps_max": 0.8,
        "decay_rate": 0.9, "t": 13, "train_steps": 5, "sync_every": 1000,
    },
    "dpn": {**_NET, "layout": [2, 8, 8, 42], "batch_size": 9, "entropy_coef": 0.02, "t": 13},
    "a2c": {**_AC, "batch_size": 7},
    "ppo": {**_AC, "rollout": 64, "epochs": 3, "minibatch": 16, "eps_clip": 0.1, "value_weight": 0.4},
}
# What each earlier file holds in today's terms: its hyperparameters (hidden
# from the saved layout; a hyperparameter the file lacks takes the default)
# and its counters.
EARLIER_HYPERPARAMETERS = {
    "ql": {"value_bins": 11, "alpha": 0.3, "eps_max": 0.8, "decay_rate": 0.9},
    "vpg": {"value_bins": 11, "alpha": 0.3},
    "dqn": {
        "hidden": (8, 8), "buffer_capacity": 50_000, "batch_size": 32, "lr": 2e-3, "warmup": 10,
        "eps_max": 0.8, "decay_rate": 0.9,
    },
    "dpn": {"hidden": (8, 8), "batch_size": 9, "lr": 2e-3, "entropy_coef": 0.02},
    "a2c": {"hidden": (8, 8), "batch_size": 7, "actor_lr": 2e-3, "critic_lr": 3e-3, "entropy_coef": 0.02},
    "ppo": {
        "hidden": (8, 8), "rollout": 64, "epochs": 3, "minibatch": 16, "eps_clip": 0.1, "value_weight": 0.4,
        "entropy_coef": 0.02, "actor_lr": 2e-3, "critic_lr": 3e-3,
    },
}
EARLIER_COUNTERS = {
    "ql": {"t": 13}, "vpg": {"t": 13},
    "dqn": {"t": 13, "train_steps": 5, "opt_step": 7}, "dpn": {"t": 13, "opt_step": 7},
    "a2c": {"t": 13, "opt_actor_step": 7, "opt_critic_step": 7},
    "ppo": {"t": 13, "opt_actor_step": 7, "opt_critic_step": 7},
}


@pytest.mark.parametrize("algo", ["ql", "vpg", "dqn", "dpn", "a2c", "ppo"])
def test_earlier_layout_loads_to_same_state(tmp_path, algo):
    from maulab.agents.base import make_agent
    from maulab.config import ScenarioConfig
    from maulab.harness import load_agent, save_agent

    config = ScenarioConfig(episodes=50)
    rng = np.random.default_rng(3)
    # the same state written the current way, for comparison
    agent = make_agent(algo, config, np.random.default_rng(1), **EARLIER_HYPERPARAMETERS[algo])
    arrays = agent.state_arrays()
    for a in arrays.values():
        a[...] = rng.normal(size=a.shape)
    agent.load_payload(EARLIER_META[algo], arrays)  # sets the counters
    if algo == "dqn":
        target = {"target." + k[4:]: rng.normal(size=v.shape) for k, v in arrays.items() if k.startswith("net.")}
        arrays = {**{k: v for k, v in arrays.items() if k.startswith("net.")}, **target,
                  **{k: v for k, v in arrays.items() if k.startswith("opt.")}}
    old = tmp_path / "old.ckpt"
    save_checkpoint(old, agent.kind, dict(EARLIER_META[algo], algo=algo), arrays)

    clone = load_agent(old, config, np.random.default_rng(2))
    assert clone.hyperparameters() == EARLIER_HYPERPARAMETERS[algo]
    meta, clone_arrays = clone.checkpoint_payload()
    assert {k: meta[k] for k in EARLIER_COUNTERS[algo]} == EARLIER_COUNTERS[algo]
    _, want = agent.checkpoint_payload()
    assert list(clone_arrays) == list(want)
    for k in want:
        assert np.array_equal(clone_arrays[k], want[k]), k
    assert not hasattr(clone, "gamma") and not hasattr(clone, "target_net")
    save_agent(agent, tmp_path / "current.ckpt")
    save_agent(clone, tmp_path / "reloaded.ckpt")
    assert (tmp_path / "reloaded.ckpt").read_bytes() == (tmp_path / "current.ckpt").read_bytes()
