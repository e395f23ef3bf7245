"""Score-function policy gradient tests (tabular and deep variants)."""

import numpy as np
import pytest

from maulab.agents.base import make_agent
from maulab.agents.policy import (
    dpg_update,
    head_logits,
    heads_stats,
    score_entropy_logits_grad,
    vpg_update,
)
from maulab.config import ScenarioConfig
from maulab.nn import (
    Categorical,
    OptimState,
    backward,
    finite_diff_check,
    forward,
    mlp_init,
    softmax,
)


def test_vpg_zero_reward_no_change():
    table = np.random.default_rng(0).normal(size=(3, 5))
    before = table.copy()
    vpg_update(table, 1, 2, 0.0, alpha=0.5)
    assert np.array_equal(table, before)


def test_vpg_positive_reward_increases_action_logprob():
    table = np.zeros((1, 4))
    p_before = softmax(table[0])[2]
    vpg_update(table, 0, 2, 1.0, alpha=0.3)
    p_after = softmax(table[0])[2]
    assert p_after > p_before


def test_vpg_opposite_rewards_cancel_to_second_order():
    rng = np.random.default_rng(1)
    table = rng.normal(size=(2, 6))
    before = table.copy()
    alpha = 1e-3
    vpg_update(table, 0, 3, 2.0, alpha)
    vpg_update(table, 0, 3, -2.0, alpha)
    assert np.max(np.abs(table - before)) < 10 * alpha**2


def test_vpg_formula_equality():
    rng = np.random.default_rng(2)
    table = rng.normal(size=(2, 5))
    old = table.copy()
    vpg_update(table, 1, 4, -0.7, alpha=0.25)
    probs = softmax(old[1])
    onehot = np.zeros(5)
    onehot[4] = 1.0
    expect = old[1] + 0.25 * -0.7 * (onehot - probs)
    assert np.allclose(table[1], expect, atol=1e-12)
    assert np.array_equal(table[0], old[0])


def test_vpg_gradient_finite_difference():
    # central differences directly on the logits row
    rng = np.random.default_rng(3)
    logits = rng.normal(size=7)
    a, r = 4, 1.3

    def loss(row):
        z = row - row.max()
        logp = z - np.log(np.exp(z).sum())
        return -r * logp[a]

    probs = softmax(logits)
    onehot = np.zeros(7)
    onehot[a] = 1.0
    analytic = -r * (onehot - probs)
    h = 1e-6
    for i in range(7):
        e = np.zeros(7)
        e[i] = h
        fd = (loss(logits + e) - loss(logits - e)) / (2 * h)
        assert fd == pytest.approx(analytic[i], abs=1e-6)


def test_vpg_solves_three_action_bandit():
    table = np.zeros((1, 3))
    rewards = np.array([0.0, 1.0, 0.2])
    rng = np.random.default_rng(4)
    for _ in range(5000):
        a = Categorical(table[0]).sample(rng)
        vpg_update(table, 0, a, float(rewards[a]), alpha=0.1)
    assert softmax(table[0])[1] > 0.95


def test_vpg_agent_observe_updates_table():
    config = ScenarioConfig(episodes=100)
    agent = make_agent("vpg", config, np.random.default_rng(5), alpha=0.4)
    obs = np.full(2, 0.31)
    before = agent.table.copy()
    agent.observe(obs, (6, 2), 1.5)
    s = agent._bin(obs)
    changed = np.nonzero(np.any(agent.table != before, axis=1))[0]
    assert list(changed) == [s]
    assert agent.t == 1


def test_head_logits_reshape():
    flat = np.arange(2 * 6, dtype=float).reshape(2, 6)
    l3 = head_logits(flat, 2, 3)
    assert l3.shape == (2, 2, 3)
    assert np.array_equal(l3[1, 1], [9.0, 10.0, 11.0])


def test_heads_stats_joint_logprob_adds():
    rng = np.random.default_rng(6)
    logits3 = rng.normal(size=(3, 2, 5))
    actions = rng.integers(0, 5, size=(3, 2))
    dist, logp, ent = heads_stats(logits3, actions)
    for b in range(3):
        manual = sum(
            float(Categorical(logits3[b, h]).log_prob(actions[b, h])) for h in range(2)
        )
        assert logp[b] == pytest.approx(manual, abs=1e-12)
        manual_ent = sum(float(Categorical(logits3[b, h]).entropy()) for h in range(2))
        assert ent[b] == pytest.approx(manual_ent, abs=1e-12)


def test_dpg_equal_rewards_without_entropy_is_noop():
    rng = np.random.default_rng(7)
    net = mlp_init((2, 8, 10), rng)
    before = net.flat().copy()
    obs = rng.random((6, 2))
    actions = rng.integers(0, 5, size=(6, 2))
    rewards = np.full(6, 1.7)
    dpg_update(net, obs, actions, rewards, OptimState(lr=0.01), entropy_coef=0.0, levels=5)
    assert np.allclose(net.flat(), before, atol=1e-12)


def test_dpg_loss_gradient_finite_difference():
    rng = np.random.default_rng(8)
    k, levels, B = 2, 4, 5
    net = mlp_init((2, 6, k * levels), rng)
    obs = rng.random((B, 2))
    actions = rng.integers(0, levels, size=(B, k))
    rewards = rng.normal(size=B)
    adv = rewards - rewards.mean()
    ent_coef = 0.05

    def loss_fn(p):
        out, _ = forward(p, obs)
        _, logp, ent = heads_stats(head_logits(out, k, levels), actions)
        return float(-(logp * adv).mean() - ent_coef * ent.mean())

    out, cache = forward(net, obs)
    dist, _, _ = heads_stats(head_logits(out, k, levels), actions)
    g3 = score_entropy_logits_grad(dist, actions, adv, ent_coef, 1.0 / B)
    grads = backward(net, cache, g3.reshape(B, k * levels))
    assert finite_diff_check(net, loss_fn, grads, rng, n_samples=40) < 1e-5


def test_dpg_agent_batch_trigger_and_pending_actions():
    config = ScenarioConfig(episodes=100)
    agent = make_agent("dpn", config, np.random.default_rng(9), batch_size=3)
    before = agent.net.flat().copy()
    obs = np.full(2, 0.5)
    for i in range(3):
        levels = agent.act(obs)
        assert len(levels) == 2
        agent.observe(obs, levels, 1.0 if i else -1.0)
        if i < 2:
            # the pending batch keeps the head levels in the order act sampled them
            assert agent._acts[-1].tolist() == list(levels)
    assert agent.t == 3
    assert len(agent._rews) == 0  # batch consumed
    assert not np.array_equal(agent.net.flat(), before)


def test_dpg_checkpoint_roundtrip(tmp_path):
    from maulab.harness import load_agent, save_agent

    config = ScenarioConfig(episodes=100)
    agent = make_agent("dpn", config, np.random.default_rng(10), hidden=(8, 8))
    path = tmp_path / "dpn.ckpt"
    save_agent(agent, path)
    clone = load_agent(path, config, np.random.default_rng(11))
    assert np.array_equal(clone.net.flat(), agent.net.flat())
    assert clone.net.layout == agent.net.layout
