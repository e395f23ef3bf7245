"""Tabular Q-learning and DQN tests."""

import numpy as np
import pytest

from maulab.agents.base import ReplayBuffer, make_agent
from maulab.agents.qlearn import dqn_train_step, q_update
from maulab.config import ScenarioConfig
from maulab.nn import OptimState, backward, finite_diff_check, forward, mlp_init


def _config(**kw):
    return ScenarioConfig(**kw)


def test_q_update_examples():
    table = np.zeros((2, 3))
    q_update(table, 0, 1, 1.0, alpha=0.1)
    assert table[0, 1] == pytest.approx(0.1)
    q_update(table, 0, 1, 1.0, alpha=0.1)
    assert table[0, 1] == pytest.approx(0.19)
    assert np.count_nonzero(table) == 1


def test_q_update_single_step_target():
    # single-step episodes have a zero bootstrap: Q <- Q + alpha * (r - Q)
    table = np.full((1, 2), 0.3)
    q_update(table, 0, 0, -1.5, alpha=0.2)
    assert table[0, 0] == pytest.approx(0.3 + 0.2 * (-1.5 - 0.3), abs=1e-15)
    assert table[0, 1] == 0.3


def test_q_values_bounded_by_reward_range():
    table = np.zeros((1, 1))
    rng = np.random.default_rng(0)
    for _ in range(100_000):
        q_update(table, 0, 0, float(rng.uniform(-2, 2)), alpha=0.1)
    assert abs(table[0, 0]) <= 2.0


def test_ql_greedy_argmax_and_tie_to_lowest_index():
    config = _config(episodes=10)
    agent = make_agent("ql", config, np.random.default_rng(1), eps_max=0.0)
    obs = np.full(2, 0.5)
    s = agent._bin(obs)
    agent.table[s, 17] = 5.0
    assert agent.act(obs) == agent.actions[17]
    agent.table[s, :] = 1.0  # full tie
    assert agent.act(obs) == agent.actions[0]


def test_ql_learns_from_transitions():
    config = _config(episodes=100)
    agent = make_agent("ql", config, np.random.default_rng(2), alpha=0.5)
    obs = np.full(2, 0.55)
    agent.observe(obs, (3, 1), 2.0)
    s = agent._bin(obs)
    a = agent.action_index[(3, 1)]
    assert agent.table[s, a] == pytest.approx(1.0)
    assert agent.t == 1


def test_dqn_overfits_small_buffer():
    config = _config(episodes=100)
    rng = np.random.default_rng(3)
    agent = make_agent(
        "dqn", config, rng, hidden=(32, 32), lr=1e-2, batch_size=4, warmup=1
    )
    buf = ReplayBuffer(4)
    data = [
        (np.array([0.1, 0.1]), 0, 1.0),
        (np.array([0.4, 0.4]), 5, -0.5),
        (np.array([0.7, 0.7]), 11, 2.0),
        (np.array([0.9, 0.9]), 30, 0.25),
    ]
    for obs, a, r in data:
        buf.push(obs, a, r)
    loss = np.inf
    for _ in range(2000):
        loss = dqn_train_step(agent.net, buf, agent.opt, 4, rng)
    assert loss < 1e-3
    for obs, a, r in data:
        q, _ = forward(agent.net, obs)
        assert q[a] == pytest.approx(r, abs=0.05)


def test_dqn_trains_every_episode_after_warmup():
    config = _config(episodes=100)
    agent = make_agent(
        "dqn",
        config,
        np.random.default_rng(4),
        batch_size=2,
        warmup=3,
        eps_max=0.0,
    )
    initial = agent.net.flat().copy()

    def feed(n):
        for i in range(n):
            agent.observe(np.full(2, 0.5), (2, 1), 1.0)

    feed(2)  # below warmup: no update
    assert agent.train_steps == 0
    assert np.array_equal(agent.net.flat(), initial)
    feed(3)  # warmup reached on the third transition: one step per episode
    assert agent.train_steps == 3
    assert agent.opt.step == 3
    assert not np.array_equal(agent.net.flat(), initial)


def test_dqn_loss_gradient_finite_difference():
    rng = np.random.default_rng(5)
    net = mlp_init((2, 8, 6), rng)
    obs = rng.random((5, 2))
    act = rng.integers(0, 6, size=5)
    rew = rng.normal(size=5)

    def loss_fn(p):
        q, _ = forward(p, obs)
        return float(np.mean((q[np.arange(5), act] - rew) ** 2))

    q, cache = forward(net, obs)
    err = q[np.arange(5), act] - rew
    grad_out = np.zeros_like(q)
    grad_out[np.arange(5), act] = 2.0 * err / 5
    grads = backward(net, cache, grad_out)
    assert finite_diff_check(net, loss_fn, grads, rng, n_samples=40) < 1e-5


def test_dqn_train_step_reduces_loss():
    rng = np.random.default_rng(6)
    net = mlp_init((2, 16, 4), rng)
    opt = OptimState(lr=5e-3)
    buf = ReplayBuffer(16)
    for i in range(16):
        buf.push(rng.random(2), int(rng.integers(4)), float(rng.normal()))
    first = dqn_train_step(net, buf, opt, 16, np.random.default_rng(7))
    for _ in range(300):
        last = dqn_train_step(net, buf, opt, 16, np.random.default_rng(7))
    assert last < first


def test_ql_checkpoint_roundtrip(tmp_path):
    from maulab.harness import load_agent, save_agent

    config = _config(episodes=50)
    agent = make_agent("ql", config, np.random.default_rng(8))
    agent.table[...] = np.random.default_rng(9).normal(size=agent.table.shape)
    agent.t = 17
    path = tmp_path / "ql.ckpt"
    save_agent(agent, path)
    clone = load_agent(path, config, np.random.default_rng(10))
    assert np.array_equal(clone.table, agent.table)
    assert clone.t == 17
    assert clone.decay_rate == agent.decay_rate


def test_dqn_checkpoint_roundtrip(tmp_path):
    from maulab.harness import load_agent, save_agent

    config = _config(episodes=50)
    agent = make_agent("dqn", config, np.random.default_rng(11), hidden=(8, 8))
    path = tmp_path / "dqn.ckpt"
    save_agent(agent, path)
    clone = load_agent(path, config, np.random.default_rng(12))
    assert np.array_equal(clone.net.flat(), agent.net.flat())
    assert clone.train_steps == agent.train_steps
