"""A2C and PPO update rule tests."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maulab.agents.actor_critic import (
    a2c_update,
    normalize_advantages,
    ppo_clip_objective,
    ppo_update,
)
from maulab.agents.base import check_overrides, make_agent
from maulab.agents.policy import head_logits, heads_stats, score_entropy_logits_grad
from maulab.config import ConfigError, ScenarioConfig
from maulab.nn import OptimState, backward, finite_diff_check, forward, mlp_init


def test_normalize_advantages_moments():
    rng = np.random.default_rng(0)
    adv = rng.normal(3.0, 2.5, size=512)
    z = normalize_advantages(adv)
    assert abs(z.mean()) < 1e-9
    assert abs(z.std() - 1.0) < 1e-6


def test_ppo_clip_examples():
    out = ppo_clip_objective(np.array([1.3, 0.7, 1.0]), np.array([1.0, -1.0, 2.5]), 0.2)
    assert out.tolist() == pytest.approx([1.2, -0.8, 2.5])


@settings(max_examples=300, deadline=None)
@given(
    ratio=st.floats(min_value=0.0, max_value=10.0),
    adv=st.floats(min_value=-10.0, max_value=10.0),
    eps=st.floats(min_value=0.01, max_value=0.5),
)
def test_ppo_clip_properties(ratio, adv, eps):
    obj = ppo_clip_objective(np.array([ratio]), np.array([adv]), eps)[0]
    assert obj <= ratio * adv + 1e-12
    assert obj <= np.clip(ratio, 1 - eps, 1 + eps) * adv + 1e-12
    if 1 - eps <= ratio <= 1 + eps:
        assert obj == pytest.approx(ratio * adv, abs=1e-12)


def _batch(rng, B=8, k=2, levels=5):
    actor = mlp_init((k, 6, k * levels), rng)
    critic = mlp_init((k, 6, 1), rng)
    obs = rng.random((B, k))
    actions = rng.integers(0, levels, size=(B, k))
    rewards = rng.normal(size=B)
    return actor, critic, obs, actions, rewards


def test_a2c_actor_gradient_finite_difference():
    rng = np.random.default_rng(1)
    actor, critic, obs, actions, rewards = _batch(rng)
    k, levels = 2, 5
    vout, _ = forward(critic, obs)
    adv = rewards - vout[:, 0]  # held constant: advantages are detached
    ent_coef = 0.02

    def loss_fn(p):
        out, _ = forward(p, obs)
        _, logp, ent = heads_stats(head_logits(out, k, levels), actions)
        return float(-(logp * adv).sum() - ent_coef * ent.sum())

    out, cache = forward(actor, obs)
    heads, _, _ = heads_stats(head_logits(out, k, levels), actions)
    g3 = score_entropy_logits_grad(heads, actions, adv, ent_coef, 1.0)
    grads = backward(actor, cache, g3.reshape(len(obs), k * levels))
    assert finite_diff_check(actor, loss_fn, grads, rng, n_samples=40) < 1e-5


def test_a2c_critic_gradient_finite_difference():
    rng = np.random.default_rng(2)
    _, critic, obs, _, rewards = _batch(rng)

    def loss_fn(p):
        v, _ = forward(p, obs)
        return float(0.5 * np.sum((rewards - v[:, 0]) ** 2))

    vout, cache = forward(critic, obs)
    grads = backward(critic, cache, (vout[:, 0] - rewards)[:, None])
    assert finite_diff_check(critic, loss_fn, grads, rng, n_samples=40) < 1e-5


def test_a2c_update_trains_critic():
    rng = np.random.default_rng(3)
    actor, critic, obs, actions, rewards = _batch(rng, B=16)
    oa, oc = OptimState(actor, lr=1e-3), OptimState(critic, lr=3e-2)
    losses = []
    for _ in range(1000):
        _, vloss = a2c_update(actor, critic, obs, actions, rewards, oa, oc, 0.01, 5)
        losses.append(vloss)
    assert losses[-1] < 0.2 * losses[0]


def test_a2c_update_moves_policy_toward_high_advantage():
    rng = np.random.default_rng(4)
    k, levels = 2, 4
    actor = mlp_init((k, 8, k * levels), rng)
    critic = mlp_init((k, 8, 1), rng)
    obs = np.full((16, k), 0.5)
    actions = np.full((16, k), 2)  # always the same action
    rewards = np.full(16, 5.0)  # large positive advantage initially
    oa, oc = OptimState(actor, lr=5e-3), OptimState(critic, lr=1e-4)
    out, _ = forward(actor, obs)
    p_before = heads_stats(head_logits(out, k, levels), actions)[0][1][0, 0, 2]
    for _ in range(50):
        a2c_update(actor, critic, obs, actions, rewards, oa, oc, 0.0, levels)
    out, _ = forward(actor, obs)
    p_after = heads_stats(head_logits(out, k, levels), actions)[0][1][0, 0, 2]
    assert p_after > p_before


def test_ppo_actor_gradient_finite_difference_with_clipping():
    rng = np.random.default_rng(5)
    k, levels, B = 2, 5, 12
    actor = mlp_init((k, 6, k * levels), rng)
    obs = rng.random((B, k))
    actions = rng.integers(0, levels, size=(B, k))
    adv = rng.normal(size=B)
    eps_clip = 0.2
    ent_coef = 0.01
    # old log-probs offset so some samples sit in the clipped-flat region
    out, _ = forward(actor, obs)
    _, logp0, _ = heads_stats(head_logits(out, k, levels), actions)
    old_logp = logp0 + rng.normal(scale=0.5, size=B)

    def loss_fn(p):
        o, _ = forward(p, obs)
        _, logp, ent = heads_stats(head_logits(o, k, levels), actions)
        ratio = np.exp(logp - old_logp)
        obj = np.minimum(ratio * adv, np.clip(ratio, 1 - eps_clip, 1 + eps_clip) * adv)
        return float(-obj.mean() - ent_coef * ent.mean())

    out, cache = forward(actor, obs)
    heads, logp, _ = heads_stats(head_logits(out, k, levels), actions)
    ratio = np.exp(logp - old_logp)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1 - eps_clip, 1 + eps_clip) * adv
    assert np.any(unclipped > clipped), "test setup must exercise the flat region"
    gw = np.where(unclipped <= clipped, ratio * adv, 0.0)
    g3 = score_entropy_logits_grad(heads, actions, gw, ent_coef, 1.0 / B)
    grads = backward(actor, cache, g3.reshape(B, k * levels))
    assert finite_diff_check(actor, loss_fn, grads, rng, n_samples=40) < 1e-4


def test_ppo_fully_clipped_batch_gives_zero_actor_gradient():
    rng = np.random.default_rng(6)
    k, levels, B = 2, 4, 6
    actor = mlp_init((k, 6, k * levels), rng)
    obs = rng.random((B, k))
    actions = rng.integers(0, levels, size=(B, k))
    adv = np.ones(B)  # positive advantages
    out, _ = forward(actor, obs)
    heads, logp, _ = heads_stats(head_logits(out, k, levels), actions)
    old_logp = logp - 1.0  # ratio = e > 1.2 everywhere
    ratio = np.exp(logp - old_logp)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 0.8, 1.2) * adv
    assert np.all(unclipped > clipped)
    gw = np.where(unclipped <= clipped, ratio * adv, 0.0)
    g3 = score_entropy_logits_grad(heads, actions, gw, 0.0, 1.0 / B)
    grads = backward(actor, _cache_of(actor, obs), g3.reshape(B, k * levels))
    assert all(np.allclose(g, 0.0) for g in grads.weights)
    assert all(np.allclose(g, 0.0) for g in grads.biases)


def _cache_of(params, x):
    return forward(params, x)[1]


def test_ppo_update_first_pass_ratio_one():
    rng = np.random.default_rng(7)
    k, levels, B = 2, 5, 16
    actor = mlp_init((k, 6, k * levels), rng)
    critic = mlp_init((k, 6, 1), rng)
    obs = rng.random((B, k))
    actions = rng.integers(0, levels, size=(B, k))
    rewards = rng.normal(size=B)
    out, _ = forward(actor, obs)
    _, old_logp, _ = heads_stats(head_logits(out, k, levels), actions)
    diag = ppo_update(
        actor, critic, obs, actions, old_logp, rewards,
        OptimState(actor, lr=1e-3), OptimState(critic, lr=1e-3), rng,
        eps_clip=0.2, epochs=1, minibatch=B, value_weight=0.5,
        entropy_coef=0.0, levels=levels,
    )
    # fresh rollout: ratios start at exactly 1, nothing is clipped
    assert diag["clip_fraction"] == 0.0
    assert np.isfinite(diag["policy_loss"])
    assert np.isfinite(diag["value_loss"])


def test_ppo_agent_solves_fixed_target_bandit():
    config = ScenarioConfig(episodes=10_000)
    agent = make_agent(
        "ppo", config, np.random.default_rng(8),
        hidden=(16, 16), rollout=64, epochs=4, minibatch=32,
    )
    obs = np.full(2, 0.5)
    for _ in range(50 * 64):
        levels = agent.act(obs[None])
        agent.observe(obs[None], levels, np.array([1.0 if levels[0, 0] == 3 else 0.0]))
    out, _ = forward(agent.actor, obs)
    probs = heads_stats(head_logits(out, 2, 21), np.array([[3, 0]]))[0][1]
    assert probs[0, 0, 3] > 0.5


def test_ppo_rejects_bad_eps_clip():
    config = ScenarioConfig()
    with pytest.raises(ConfigError):
        make_agent("ppo", config, np.random.default_rng(0), eps_clip=1.5)


@pytest.mark.parametrize("eps_clip", [0, 0.0, 1, 1.5, -0.2])
def test_bad_eps_clip_message_names_ppo_and_the_key(eps_clip):
    with pytest.raises(ConfigError, match=r"^ppo hyperparameter 'eps_clip' must be in \(0, 1\)"):
        check_overrides("ppo", {"eps_clip": eps_clip})


def test_actor_critic_checkpoint_roundtrip(tmp_path):
    from maulab.harness import load_agent, save_agent

    config = ScenarioConfig(episodes=100)
    for algo in ("a2c", "ppo"):
        agent = make_agent(algo, config, np.random.default_rng(9), hidden=(8, 8))
        agent.t = 42
        path = tmp_path / f"{algo}.ckpt"
        save_agent(agent, path)
        clone = load_agent(path, config, np.random.default_rng(10))
        assert np.array_equal(clone.actor.vec, agent.actor.vec)
        assert np.array_equal(clone.critic.vec, agent.critic.vec)
        assert clone.t == 42
