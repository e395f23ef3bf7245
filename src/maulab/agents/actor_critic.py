"""Actor-critic bidders: A2C and PPO with shared advantage machinery.

Both use a two-head factored categorical actor (log-probabilities add) and a
separate scalar-value critic. Single-step episodes make the advantage exact:
A = R - V(s), with no bootstrapping or lambda parameter.
"""

from __future__ import annotations

import numpy as np

from maulab.agents.base import NetAgent
from maulab.agents.policy import head_logits, heads_stats, score_entropy_logits_grad
from maulab.config import ConfigError, ScenarioConfig
from maulab.nn import Categorical, OptimState, adam_step_params, backward, forward, mlp_init


def advantage(reward: float, value: float) -> float:
    """A = R - V(s): the realized action value minus the state baseline."""
    return reward - value


def normalize_advantages(adv: np.ndarray, eps: float = 1e-8) -> np.ndarray:
    return (adv - adv.mean()) / (adv.std() + eps)


def ppo_clip_objective(ratio, adv, eps_clip: float):
    """Clipped surrogate: min(r*A, clip(r, 1-eps, 1+eps)*A). Maximized in
    training; works elementwise on arrays."""
    r = np.asarray(ratio, dtype=float)
    a = np.asarray(adv, dtype=float)
    unclipped = r * a
    clipped = np.clip(r, 1.0 - eps_clip, 1.0 + eps_clip) * a
    out = np.minimum(unclipped, clipped)
    if out.shape == ():
        return float(out)
    return out


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
    dist, logp, ent = heads_stats(head_logits(aout, k, levels), actions)
    policy_loss = float(-(logp * adv).sum() - entropy_coef * ent.sum())
    g3 = score_entropy_logits_grad(dist, actions, adv, entropy_coef, 1.0)
    wg, bg = backward(actor, acache, g3.reshape(B, k * levels))
    adam_step_params(actor, wg, bg, opt_actor)

    value_loss = float(0.5 * np.sum((rewards - values) ** 2))
    gv = (values - rewards)[:, None]
    wgc, bgc = backward(critic, vcache, gv)
    adam_step_params(critic, wgc, bgc, opt_critic)
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
    per rollout. Returns diagnostics (mean clip fraction and final losses)."""
    B, k = actions.shape
    vout, _ = forward(critic, obs)
    adv = normalize_advantages(rewards - vout[:, 0])

    clip_fracs = []
    policy_loss = value_loss = 0.0
    for _ in range(epochs):
        order = rng.permutation(B)
        for start in range(0, B, minibatch):
            mb = order[start : start + minibatch]
            m = len(mb)
            aout, acache = forward(actor, obs[mb])
            dist, logp, ent = heads_stats(head_logits(aout, k, levels), actions[mb])
            ratio = np.exp(logp - old_logp[mb])
            unclipped = ratio * adv[mb]
            obj = ppo_clip_objective(ratio, adv[mb], eps_clip)
            policy_loss = float(-obj.mean() - entropy_coef * ent.mean())
            clip_fracs.append(float(np.mean(obj < unclipped)))
            # d obj / d logp is ratio*adv where the unclipped branch is active,
            # 0 on the clipped-flat region.
            gw = np.where(obj == unclipped, unclipped, 0.0)
            g3 = score_entropy_logits_grad(dist, actions[mb], gw, entropy_coef, 1.0 / m)
            wg, bg = backward(actor, acache, g3.reshape(m, k * levels))
            adam_step_params(actor, wg, bg, opt_actor)

            vmb, vcache = forward(critic, obs[mb])
            verr = vmb[:, 0] - rewards[mb]
            value_loss = float(value_weight * 0.5 * np.mean(verr**2))
            gv = (value_weight * verr / m)[:, None]
            wgc, bgc = backward(critic, vcache, gv)
            adam_step_params(critic, wgc, bgc, opt_critic)
    return {
        "clip_fraction": float(np.mean(clip_fracs)),
        "policy_loss": policy_loss,
        "value_loss": value_loss,
    }


class _ActorCriticAgent(NetAgent):
    """Shared plumbing: factored actor, scalar critic, rollout collection."""

    nets = (("actor", "opt_actor"), ("critic", "opt_critic"))
    counters = ("t", "opt_actor.step", "opt_critic.step")

    def __init__(
        self,
        config: ScenarioConfig,
        rng: np.random.Generator,
        hidden: tuple[int, int],
        actor_lr: float,
        critic_lr: float,
        entropy_coef: float,
    ):
        super().__init__(config, rng)
        self.hidden = tuple(hidden)
        self.levels = config.grid_levels
        self.actor = mlp_init((self.k, *self.hidden, self.k * self.levels), rng)
        self.critic = mlp_init((self.k, *self.hidden, 1), rng)
        self.actor_lr, self.critic_lr = actor_lr, critic_lr
        self.opt_actor = OptimState(lr=actor_lr)
        self.opt_critic = OptimState(lr=critic_lr)
        self.entropy_coef = entropy_coef
        self._obs: list[np.ndarray] = []
        self._acts: list[np.ndarray] = []
        self._logp: list[float] = []
        self._rews: list[float] = []
        self._pending_logp = 0.0  # log-probability of the levels act last returned
        self.t = 0

    def act(self, obs: np.ndarray, explore: bool = True) -> tuple[int, ...]:
        """One level per head, in head order."""
        out, _ = forward(self.actor, np.asarray(obs, dtype=float))
        dist = Categorical(out.reshape(self.k, self.levels))
        levels = dist.sample(self.rng)
        self._pending_logp = float(dist.log_prob(levels).sum())
        return tuple(levels.tolist())

    def _record(self, obs: np.ndarray, levels: tuple[int, ...], reward: float) -> None:
        self._obs.append(np.array(obs))
        self._acts.append(np.array(levels))
        self._logp.append(self._pending_logp)
        self._rews.append(reward)
        self.t += 1

    def _clear_rollout(self) -> None:
        self._obs, self._acts, self._logp, self._rews = [], [], [], []


class A2cAgent(_ActorCriticAgent):
    """Advantage actor-critic updating every `batch_size` episodes."""

    algo = "a2c"
    kind = "a2c"

    def __init__(
        self,
        config: ScenarioConfig,
        rng: np.random.Generator,
        hidden: tuple[int, int] = (64, 64),
        batch_size: int = 5,
        actor_lr: float = 7e-4,
        critic_lr: float = 7e-4,
        entropy_coef: float = 0.01,
    ):
        super().__init__(config, rng, hidden, actor_lr, critic_lr, entropy_coef)
        self.batch_size = batch_size

    def observe(self, obs: np.ndarray, levels: tuple[int, ...], reward: float) -> None:
        if self.frozen:
            return
        self._record(obs, levels, reward)
        if len(self._rews) >= self.batch_size:
            a2c_update(
                self.actor,
                self.critic,
                np.stack(self._obs),
                np.stack(self._acts),
                np.array(self._rews),
                self.opt_actor,
                self.opt_critic,
                self.entropy_coef,
                self.levels,
            )
            self._clear_rollout()


class PpoAgent(_ActorCriticAgent):
    """PPO with the clipped surrogate objective over fixed-size rollouts."""

    algo = "ppo"
    kind = "ppo"

    def __init__(
        self,
        config: ScenarioConfig,
        rng: np.random.Generator,
        hidden: tuple[int, int] = (64, 64),
        rollout: int = 512,
        epochs: int = 10,
        minibatch: int = 64,
        eps_clip: float = 0.2,
        value_weight: float = 0.5,
        entropy_coef: float = 0.01,
        actor_lr: float = 1e-3,
        critic_lr: float = 1e-3,
    ):
        super().__init__(config, rng, hidden, actor_lr, critic_lr, entropy_coef)
        if not 0.0 < eps_clip < 1.0:
            raise ConfigError("eps_clip must be in (0, 1)")
        self.rollout = rollout
        self.epochs = epochs
        self.minibatch = minibatch
        self.eps_clip = eps_clip
        self.value_weight = value_weight
        self.last_diag: dict = {}

    def observe(self, obs: np.ndarray, levels: tuple[int, ...], reward: float) -> None:
        if self.frozen:
            return
        self._record(obs, levels, reward)
        if len(self._rews) >= self.rollout:
            self.last_diag = ppo_update(
                self.actor,
                self.critic,
                np.stack(self._obs),
                np.stack(self._acts),
                np.array(self._logp),
                np.array(self._rews),
                self.opt_actor,
                self.opt_critic,
                self.rng,
                self.eps_clip,
                self.epochs,
                self.minibatch,
                self.value_weight,
                self.entropy_coef,
                self.levels,
            )
            self._clear_rollout()
