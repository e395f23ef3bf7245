"""Actor-critic bidders: A2C and PPO with shared advantage machinery.

Both use a two-head factored categorical actor (log-probabilities add) and a
separate scalar-value critic. Single-step episodes make the advantage exact:
A = R - V(s), with no bootstrapping or lambda parameter.
"""

from __future__ import annotations

import numpy as np

from maulab.agents.policy import RolloutAgent, head_logits, heads_stats, score_entropy_logits_grad
from maulab.config import ScenarioConfig
from maulab.nn import OptimState, adam_step_params, backward, forward, mlp_init


def normalize_advantages(adv: np.ndarray) -> np.ndarray:
    return (adv - adv.mean()) / (adv.std() + 1e-8)


def ppo_clip_objective(ratio: np.ndarray, adv: np.ndarray, eps_clip: float) -> np.ndarray:
    """Clipped surrogate, elementwise: min(r*A, clip(r, 1-eps, 1+eps)*A).
    Maximized in training."""
    return np.minimum(ratio * adv, np.clip(ratio, 1.0 - eps_clip, 1.0 + eps_clip) * adv)


def a2c_update(
    actor,
    critic,
    obs: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    opt_actor: OptimState,
    opt_critic: OptimState,
    entropy_coef: float,
    levels: int,
) -> tuple[float, float]:
    """One A2C step on a completed batch of episodes.

    Actor: ascent on sum_b logpi(a|s) * A(s,a) plus an entropy bonus, with the
    advantages treated as constants. Critic: descent on 1/2 sum_b (R - V)^2.
    Returns (policy loss, value loss)."""
    B, k = actions.shape
    vout, vcache = forward(critic, obs)
    values = vout[:, 0]
    adv = rewards - values  # constant w.r.t. actor params

    aout, acache = forward(actor, obs)
    heads, logp, ent = heads_stats(head_logits(aout, k, levels), actions)
    policy_loss = float(-(logp * adv).sum() - entropy_coef * ent.sum())
    g3 = score_entropy_logits_grad(heads, actions, adv, entropy_coef, 1.0)
    adam_step_params(actor, backward(actor, acache, g3.reshape(B, k * levels)), opt_actor)

    value_loss = float(0.5 * np.sum((rewards - values) ** 2))
    gv = (values - rewards)[:, None]
    adam_step_params(critic, backward(critic, vcache, gv), opt_critic)
    return policy_loss, value_loss


def ppo_update(
    actor,
    critic,
    obs: np.ndarray,
    actions: np.ndarray,
    old_logp: np.ndarray,
    rewards: np.ndarray,
    opt_actor: OptimState,
    opt_critic: OptimState,
    rng: np.random.Generator,
    eps_clip: float,
    epochs: int,
    minibatch: int,
    value_weight: float,
    entropy_coef: float,
    levels: int,
) -> dict:
    """PPO epochs over shuffled minibatches of one rollout.

    Advantages are computed once against the pre-update critic and normalized
    per rollout. Returns diagnostics: the mean clip fraction, and the losses of
    the last minibatch."""
    B, k = actions.shape
    vout, _ = forward(critic, obs)
    adv = normalize_advantages(rewards - vout[:, 0])

    clip_fracs = []
    for _ in range(epochs):
        order = rng.permutation(B)
        for start in range(0, B, minibatch):
            mb = order[start : start + minibatch]
            m = len(mb)
            aout, acache = forward(actor, obs[mb])
            heads, logp, ent = heads_stats(head_logits(aout, k, levels), actions[mb])
            ratio = np.exp(logp - old_logp[mb])
            unclipped = ratio * adv[mb]
            obj = ppo_clip_objective(ratio, adv[mb], eps_clip)
            clip_fracs.append(float(np.mean(obj < unclipped)))
            # d obj / d logp is ratio*adv where the unclipped branch is active,
            # 0 on the clipped-flat region.
            gw = np.where(obj == unclipped, unclipped, 0.0)
            g3 = score_entropy_logits_grad(heads, actions[mb], gw, entropy_coef, 1.0 / m)
            adam_step_params(actor, backward(actor, acache, g3.reshape(m, k * levels)), opt_actor)

            vmb, vcache = forward(critic, obs[mb])
            verr = vmb[:, 0] - rewards[mb]
            gv = (value_weight * verr / m)[:, None]
            adam_step_params(critic, backward(critic, vcache, gv), opt_critic)
    return {
        "clip_fraction": float(np.mean(clip_fracs)),
        "policy_loss": float(-obj.mean() - entropy_coef * ent.mean()),
        "value_loss": float(value_weight * 0.5 * np.mean(verr**2)),
    }


class _ActorCriticAgent(RolloutAgent):
    """A rollout learner whose policy is the actor, with a scalar-value
    critic and a learning rate for each."""

    nets = (("actor", "opt_actor"), ("critic", "opt_critic"))
    counters = ("t", "opt_actor.step", "opt_critic.step")
    lr_name = "actor_lr"

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator, **given):
        super().__init__(config, rng, **given)
        self.critic = mlp_init((self.k, *self.hidden, 1), rng)
        self.opt_critic = OptimState(self.critic, self.critic_lr)


class A2cAgent(_ActorCriticAgent):
    """Advantage actor-critic updating every `batch_size` episodes."""

    algo = "a2c"
    kind = "a2c"
    defaults = {"hidden": (64, 64), "batch_size": 5, "actor_lr": 7e-4, "critic_lr": 7e-4, "entropy_coef": 0.01}

    def _update(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> None:
        a2c_update(self.actor, self.critic, obs, levels, rewards, self.opt_actor, self.opt_critic,
                   self.entropy_coef, self.levels)


class PpoAgent(_ActorCriticAgent):
    """PPO with the clipped surrogate objective over fixed-size rollouts."""

    algo = "ppo"
    kind = "ppo"
    defaults = {
        "hidden": (64, 64), "rollout": 512, "epochs": 10, "minibatch": 64, "eps_clip": 0.2, "value_weight": 0.5,
        "entropy_coef": 0.01, "actor_lr": 1e-3, "critic_lr": 1e-3,
    }
    rows_name = "rollout"

    def _update(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> None:
        # The actor that acted on the rollout is unchanged until now, so its
        # stacked forward gives each row the log-probability its act had.
        out, _ = forward(self.actor, obs[:, None, :])
        _, old_logp, _ = heads_stats(head_logits(out, self.k, self.levels), levels)
        ppo_update(
            self.actor, self.critic, obs, levels, old_logp, rewards, self.opt_actor, self.opt_critic, self.rng,
            self.eps_clip, self.epochs, self.minibatch, self.value_weight, self.entropy_coef, self.levels,
        )
