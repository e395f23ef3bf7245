"""Agent contract tests: exploration rate, replay memory, grid codec, baselines."""

import hashlib

import numpy as np
import pytest

from maulab.agents.base import (
    ReplayBuffer,
    bin_value,
    decay_for,
    epsilon_at,
    joint_action_space,
    make_agent,
)
from maulab.config import ConfigError, ScenarioConfig
from maulab.grid import BidGrid


def _config(**kw):
    return ScenarioConfig(**kw)


def test_epsilon_examples():
    assert epsilon_at(1.0, 0.99, 0) == 1.0
    assert epsilon_at(1.0, 0.99, 100) == pytest.approx(0.99**100)
    assert epsilon_at(1.0, 0.99, 100) == pytest.approx(0.3660323412732295, abs=1e-12)
    with pytest.raises(ValueError):
        epsilon_at(1.0, 0.99, -1)


def test_epsilon_schedule_advance():
    agent = make_agent("ql", _config(), np.random.default_rng(0), eps_max=0.5, decay_rate=0.9)
    assert epsilon_at(agent.eps_max, agent.decay_rate, agent.t) == 0.5
    for _ in range(2):
        agent.observe(np.full(2, 0.5), (1, 0), 0.0)
    assert agent.t == 2
    assert epsilon_at(agent.eps_max, agent.decay_rate, agent.t) == pytest.approx(0.5 * 0.9**2)


def test_decay_for_reaches_floor_at_fraction():
    episodes = 10_000
    decay = decay_for(episodes, floor=0.01, at_fraction=0.8)
    assert 1.0 * decay ** (0.8 * episodes) == pytest.approx(0.01, rel=1e-9)


def test_replay_ring_overwrites_oldest():
    buf = ReplayBuffer(3)
    for i in range(4):
        buf.push(np.array([float(i)]), i, float(i))
    assert len(buf) == 3
    obs, act, rew = buf.sample(3, np.random.default_rng(0))
    assert 0 not in act
    assert set(act) <= {1, 2, 3}


def test_replay_underfilled_sample_raises():
    buf = ReplayBuffer(10)
    buf.push(np.zeros(1), 0, 0.0)
    with pytest.raises(ValueError):
        buf.sample(2, np.random.default_rng(0))


def test_replay_rejects_bad_capacity():
    with pytest.raises(ConfigError):
        ReplayBuffer(0)


def test_replay_sampling_uniform_and_deterministic():
    buf = ReplayBuffer(1024)
    for i in range(1024):
        buf.push(np.array([float(i)]), i % 8, 0.0)
    _, a1, _ = buf.sample(1000, np.random.default_rng(42))
    _, a2, _ = buf.sample(1000, np.random.default_rng(42))
    assert np.array_equal(a1, a2)
    counts = np.bincount(a1, minlength=8)
    expected = 1000 / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 24.3  # chi-square(7) at alpha ~ 0.001


def test_replay_ring_matches_list_reference():
    # the list ring the array ring replaced: same contents, same draws
    capacity, rng = 7, np.random.default_rng(3)
    buf, ref, cursor = ReplayBuffer(capacity), [], 0
    for i in range(18):
        row = (rng.random(2), int(rng.integers(231)), float(rng.normal()))
        buf.push(*row)
        if len(ref) < capacity:
            ref.append(row)
        else:
            ref[cursor] = row
        cursor = (cursor + 1) % capacity
        if len(ref) >= 3:
            obs, act, rew = buf.sample(3, np.random.default_rng(i))
            idx = np.random.default_rng(i).integers(0, len(ref), size=3)
            assert np.array_equal(obs, np.stack([ref[j][0] for j in idx]))
            assert np.array_equal(act, np.array([ref[j][1] for j in idx], dtype=int))
            assert np.array_equal(rew, np.array([ref[j][2] for j in idx]))


def test_grid_decode_examples():
    grid = BidGrid(21, 0.0, 10.0)
    assert grid.step == 0.5
    assert grid.decode(0) == 0.0
    assert grid.decode(7) == 3.5
    assert grid.decode(20) == 10.0
    with pytest.raises(ConfigError):
        grid.decode(21)
    with pytest.raises(ConfigError):
        grid.decode(-1)


def test_grid_highest_level_at_most():
    grid = BidGrid(21, 0.0, 10.0)
    assert grid.highest_level_at_most(3.49) == 6
    assert grid.highest_level_at_most(3.5) == 7
    assert grid.highest_level_at_most(-1.0) == 0
    assert grid.highest_level_at_most(99.0) == 20


def test_grid_validation():
    with pytest.raises(ConfigError):
        BidGrid(1, 0.0, 10.0)
    with pytest.raises(ConfigError):
        BidGrid(5, 3.0, 3.0)


def test_joint_action_space_size_and_order():
    actions = joint_action_space(21, 2)
    assert len(actions) == 231
    assert len(set(actions)) == 231
    assert all(a[0] >= a[1] for a in actions)
    assert len(joint_action_space(5, 2)) == 15


def test_bin_value_floor_and_clip():
    assert bin_value(0.0, 0.0, 10.0, 11) == 0
    assert bin_value(5.0, 0.0, 10.0, 11) == 5
    assert bin_value(9.99, 0.0, 10.0, 11) == 9
    assert bin_value(10.0, 0.0, 10.0, 11) == 10
    assert bin_value(-5.0, 0.0, 10.0, 11) == 0
    assert bin_value(50.0, 0.0, 10.0, 11) == 10


def test_value_of_checks_length():
    agent = make_agent("random", _config(), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        agent.value_of(np.array([0.5]))


def test_random_agent_bids_at_most_value():
    agent = make_agent("random", _config(), np.random.default_rng(1))
    grid = agent.grid
    rng = np.random.default_rng(2)
    for _ in range(500):
        v = float(rng.uniform(0, 10))
        obs = np.full(2, v / 10.0)
        for bid in grid.decode(agent.act(obs)):
            assert bid <= v + 1e-9


def test_frozen_tabular_agent_is_pure():
    config = _config(episodes=1000)
    agent = make_agent("ql", config, np.random.default_rng(3))
    agent.table[...] = np.random.default_rng(4).normal(size=agent.table.shape)
    agent.frozen = True
    checksum = hashlib.sha256(agent.table.tobytes()).hexdigest()
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        agent.act(np.full(2, rng.random()))
    assert hashlib.sha256(agent.table.tobytes()).hexdigest() == checksum
    assert agent.t == 0


def test_full_exploration_covers_action_space():
    config = _config(episodes=100)
    agent = make_agent("ql", config, np.random.default_rng(6), decay_rate=1.0)
    seen = set()
    obs = np.full(2, 0.5)
    for _ in range(20_000):
        seen.add(agent.act(obs))
    assert len(seen) == 231


def test_make_agent_unknown_algo():
    with pytest.raises(ConfigError):
        make_agent("sarsa", _config(), np.random.default_rng(0))


def test_make_agent_overrides():
    agent = make_agent("ql", _config(), np.random.default_rng(0), alpha=0.7, value_bins=4)
    assert agent.alpha == 0.7
    assert agent.table.shape == (4, 231)
