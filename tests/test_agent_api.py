"""Agent contract tests: exploration rate, replay memory, grid codec, baselines."""

import hashlib

import numpy as np
import pytest

from maulab.agents.base import (
    ReplayBuffer,
    action_table,
    agent_class,
    bin_value,
    decay_for,
    epsilon_at,
    make_agent,
)
from maulab.config import ALGOS, ConfigError, ScenarioConfig


def _config(**kw):
    return ScenarioConfig(**kw)


def _replay(capacity, width=1):
    """DQN's columns: an observation row, an action index and a reward."""
    return ReplayBuffer(capacity, obs=(float, (width,)), action=int, reward=float)


def _push(buf, obs, action, reward):
    """Push one row as a run of one."""
    buf.push(np.asarray(obs, dtype=float)[None], np.array([action]), np.array([reward]))


def test_epsilon_examples():
    assert epsilon_at(1.0, 0.99, 0) == 1.0
    assert epsilon_at(1.0, 0.99, 100) == pytest.approx(0.99**100)
    assert epsilon_at(1.0, 0.99, 100) == pytest.approx(0.3660323412732295, abs=1e-12)


def test_epsilon_schedule_advance():
    agent = make_agent("ql", _config(), np.random.default_rng(0), eps_max=0.5, decay_rate=0.9)
    assert epsilon_at(agent.eps_max, agent.decay_rate, agent.t) == 0.5
    for _ in range(2):
        agent.observe(np.full((1, 2), 0.5), np.array([[1, 0]]), np.zeros(1))
    assert agent.t == 2
    assert epsilon_at(agent.eps_max, agent.decay_rate, agent.t) == pytest.approx(0.5 * 0.9**2)


def test_decay_for_reaches_floor_at_fraction():
    episodes = 10_000
    decay = decay_for(episodes)
    assert 1.0 * decay ** (0.8 * episodes) == pytest.approx(0.01, rel=1e-9)


def test_replay_ring_overwrites_oldest():
    buf = _replay(3)
    for i in range(4):
        _push(buf, [float(i)], i, float(i))
    assert len(buf) == 3
    obs, act, rew = buf.take(np.random.default_rng(0).integers(0, len(buf), size=3))
    assert 0 not in act
    assert set(act) <= {1, 2, 3}


def test_replay_sampling_uniform_and_deterministic():
    buf = _replay(1024)
    for i in range(1024):
        _push(buf, [float(i)], i % 8, 0.0)
    _, a1, _ = buf.take(np.random.default_rng(42).integers(0, len(buf), size=1000))
    _, a2, _ = buf.take(np.random.default_rng(42).integers(0, len(buf), size=1000))
    assert np.array_equal(a1, a2)
    counts = np.bincount(a1, minlength=8)
    expected = 1000 / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 24.3  # chi-square(7) at alpha ~ 0.001


def test_replay_ring_matches_list_reference():
    # the list ring the array ring replaced: same contents, same draws, whether
    # rows arrive one at a time or in runs of 1 to `capacity` rows that wrap
    capacity, rng = 7, np.random.default_rng(3)
    buf, ref, cursor = _replay(capacity, 2), [], 0
    runs = [1] * 18 + list(range(1, capacity + 1)) + [capacity, 3, capacity, 5, 2, capacity - 1]
    for i, m in enumerate(runs):
        run = [(rng.random(2), int(rng.integers(231)), float(rng.normal())) for _ in range(m)]
        buf.push(*(np.array(column) for column in zip(*run)))
        for row in run:
            if len(ref) < capacity:
                ref.append(row)
            else:
                ref[cursor] = row
            cursor = (cursor + 1) % capacity
        assert len(buf) == len(ref)
        if len(ref) >= 3:
            obs, act, rew = buf.take(np.random.default_rng(i).integers(0, len(buf), size=3))
            idx = np.random.default_rng(i).integers(0, len(ref), size=3)
            assert np.array_equal(obs, np.stack([ref[j][0] for j in idx]))
            assert np.array_equal(act, np.array([ref[j][1] for j in idx], dtype=int))
            assert np.array_equal(rew, np.array([ref[j][2] for j in idx]))
        if len(ref) == capacity:  # every slot holds the row the list holds there
            held = buf.rows()
            assert np.array_equal(held[0], np.stack([row[0] for row in ref]))
            assert held[1].tolist() == [row[1] for row in ref] and held[2].tolist() == [row[2] for row in ref]


def test_rollout_reads_whole_in_push_order_and_clears():
    buf = ReplayBuffer(5, obs=(float, (2,)), levels=(int, (2,)), reward=float)
    obs, levels, rewards = np.arange(10.0).reshape(5, 2), np.arange(10).reshape(5, 2), np.arange(5.0)
    for rows in (slice(0, 2), slice(2, 3), slice(3, 5)):
        buf.push(obs[rows], levels[rows], rewards[rows])
    got = buf.rows()
    assert [g.dtype for g in got] == [float, int, float]
    assert all(np.array_equal(g, w) for g, w in zip(got, (obs, levels, rewards)))
    buf.clear()
    assert len(buf) == 0 and all(len(g) == 0 for g in buf.rows())
    buf.push(obs[:1], levels[:1], rewards[:1])
    assert np.array_equal(buf.rows()[0], obs[:1])


def test_grid_decode_examples():
    grid = ScenarioConfig()
    assert grid.step == 0.5
    assert grid.decode(0) == 0.0
    assert grid.decode(7) == 3.5
    assert grid.decode(20) == 10.0


def test_grid_highest_level_at_most():
    grid = ScenarioConfig()
    assert grid.highest_level_at_most(3.49) == 6
    assert grid.highest_level_at_most(3.5) == 7
    assert grid.highest_level_at_most(-1.0) == 0
    assert grid.highest_level_at_most(99.0) == 20


def test_grid_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(grid_levels=1)


def test_joint_action_space_size_and_order():
    actions, index = action_table(21, 2)
    assert actions.shape == (231, 2)
    assert index == {a: i for i, a in enumerate(map(tuple, actions.tolist()))}
    assert len(index) == 231
    assert all(a[0] >= a[1] for a in index)
    assert len(action_table(5, 2)[0]) == 15


def test_agent_registry_is_config_algos():
    """The registry is built from the classes' tags; config.ALGOS (which
    cannot import the agents) must name the same tags."""
    for algo in ALGOS:
        assert agent_class(algo).algo == algo
    with pytest.raises(ConfigError) as e:
        agent_class("bogus")
    assert str(e.value).endswith(f"expected one of {sorted(ALGOS)}")


def test_bin_value_floor_and_clip():
    assert bin_value(0.0, 0.0, 10.0, 11) == 0
    assert bin_value(5.0, 0.0, 10.0, 11) == 5
    assert bin_value(9.99, 0.0, 10.0, 11) == 9
    assert bin_value(10.0, 0.0, 10.0, 11) == 10
    assert bin_value(-5.0, 0.0, 10.0, 11) == 0
    assert bin_value(50.0, 0.0, 10.0, 11) == 10


def test_random_agent_bids_at_most_value():
    agent = make_agent("random", _config(), np.random.default_rng(1))
    grid = agent.config
    rng = np.random.default_rng(2)
    for _ in range(500):
        v = float(rng.uniform(0, 10))
        obs = np.full(2, v / 10.0)
        for bid in grid.decode(agent.act(obs[None])[0]):
            assert bid <= v + 1e-9


def test_frozen_tabular_agent_is_pure():
    config = _config(episodes=1000)
    agent = make_agent("ql", config, np.random.default_rng(3))
    agent.table[...] = np.random.default_rng(4).normal(size=agent.table.shape)
    checksum = hashlib.sha256(agent.table.tobytes()).hexdigest()
    rng = np.random.default_rng(5)
    for _ in range(10_000):
        agent.act(np.full((1, 2), rng.random()), explore=False)
    assert hashlib.sha256(agent.table.tobytes()).hexdigest() == checksum
    assert agent.t == 0


def test_full_exploration_covers_action_space():
    config = _config(episodes=100)
    agent = make_agent("ql", config, np.random.default_rng(6), decay_rate=1.0)
    # one exploring act on the next 20,000 episodes: acting again on episodes
    # not yet observed re-derives their actions from the same kept draws
    seen = {tuple(row) for row in agent.act(np.full((20_000, 2), 0.5)).tolist()}
    assert len(seen) == 231


def test_make_agent_unknown_algo():
    with pytest.raises(ConfigError):
        make_agent("sarsa", _config(), np.random.default_rng(0))


def test_make_agent_overrides():
    agent = make_agent("ql", _config(), np.random.default_rng(0), alpha=0.7, value_bins=4)
    assert agent.alpha == 0.7
    assert agent.table.shape == (4, 231)
