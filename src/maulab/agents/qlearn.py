"""Value-based bidders: tabular Q-learning and DQN."""

from __future__ import annotations

import numpy as np

from maulab.agents.base import (
    Agent,
    NetAgent,
    ReplayBuffer,
    bin_value,
    decay_for,
    epsilon_at,
    joint_action_space,
)
from maulab.config import ScenarioConfig
from maulab.nn import OptimState, adam_step_params, backward, forward, mlp_init


def q_update(table: np.ndarray, s: int, a: int, r: float, alpha: float) -> float:
    """Bellman update for a terminal single-step episode: the next-state
    bootstrap term is 0, so there is no discount and Q <- Q + alpha * (r - Q)."""
    table[s, a] += alpha * (r - table[s, a])
    return float(table[s, a])


def _explore_index(agent, explore: bool) -> int | None:
    """With probability epsilon(t), a uniform random action index; else None.
    A frozen or non-exploring agent draws nothing."""
    eps = epsilon_at(agent.eps_max, agent.decay_rate, agent.t) if (explore and not agent.frozen) else 0.0
    if eps > 0.0 and agent.rng.random() < eps:
        return int(agent.rng.integers(len(agent.actions)))
    return None


class QLearningAgent(Agent):
    """Tabular Q-learning over (value bin, canonical joint bid) pairs with a
    decaying epsilon-greedy action rule."""

    algo = "ql"
    kind = "qtable"
    counters = ("t",)

    def __init__(
        self,
        config: ScenarioConfig,
        rng: np.random.Generator,
        value_bins: int = 11,
        alpha: float = 0.1,
        eps_max: float = 1.0,
        decay_rate: float | None = None,
    ):
        super().__init__(config, rng)
        self.value_bins = value_bins
        self.alpha = alpha
        self.actions = joint_action_space(config.grid_levels, self.k)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.table = np.zeros((value_bins, len(self.actions)))
        self.eps_max = eps_max
        self.decay_rate = decay_for(config.episodes) if decay_rate is None else decay_rate
        self.t = 0

    def _bin(self, obs: np.ndarray) -> int:
        return bin_value(self.value_of(obs), self.config.value_lo, self.config.value_hi, self.value_bins)

    def act(self, obs: np.ndarray, explore: bool = True) -> tuple[int, ...]:
        s = self._bin(obs)
        idx = _explore_index(self, explore)
        if idx is None:
            idx = int(np.argmax(self.table[s]))  # ties -> lowest index
        return self.actions[idx]

    def observe(self, obs: np.ndarray, levels: tuple[int, ...], reward: float) -> None:
        if self.frozen:
            return
        q_update(self.table, self._bin(obs), self.action_index[levels], reward, self.alpha)
        self.t += 1

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"table": self.table}


def dqn_train_step(
    net,
    buffer: ReplayBuffer,
    opt: OptimState,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """One DQN update: sample a batch, regress Q(s, a) onto the terminal
    single-step target r (no bootstrap), return the MSE loss."""
    obs, act, rew = buffer.sample(batch_size, rng)
    q, cache = forward(net, obs)
    pred = q[np.arange(batch_size), act]
    err = pred - rew
    loss = float(np.mean(err**2))
    grad_out = np.zeros_like(q)
    grad_out[np.arange(batch_size), act] = 2.0 * err / batch_size
    wg, bg = backward(net, cache, grad_out)
    adam_step_params(net, wg, bg, opt)
    return loss


class DqnAgent(NetAgent):
    """DQN over the canonical joint-bid action space with replay memory.
    Single-step targets have no bootstrap term, so there is no target network."""

    algo = "dqn"
    kind = "dqn"
    nets = (("net", "opt"),)
    counters = ("t", "train_steps", "opt.step")

    def __init__(
        self,
        config: ScenarioConfig,
        rng: np.random.Generator,
        hidden: tuple[int, int] = (64, 64),
        buffer_capacity: int = 50_000,
        batch_size: int = 64,
        lr: float = 1e-4,
        warmup: int = 1000,
        eps_max: float = 1.0,
        decay_rate: float | None = None,
    ):
        super().__init__(config, rng)
        self.hidden = tuple(hidden)
        self.actions = joint_action_space(config.grid_levels, self.k)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.net = mlp_init((self.k, *self.hidden, len(self.actions)), rng)
        self.buffer_capacity = buffer_capacity
        self.buffer = ReplayBuffer(buffer_capacity)
        self.batch_size = batch_size
        self.lr = lr
        self.opt = OptimState(lr=lr)
        self.warmup = warmup
        self.eps_max = eps_max
        self.decay_rate = decay_for(config.episodes) if decay_rate is None else decay_rate
        self.t = self.train_steps = 0

    def act(self, obs: np.ndarray, explore: bool = True) -> tuple[int, ...]:
        idx = _explore_index(self, explore)
        if idx is None:
            q, _ = forward(self.net, np.asarray(obs, dtype=float))
            idx = int(np.argmax(q))
        return self.actions[idx]

    def observe(self, obs: np.ndarray, levels: tuple[int, ...], reward: float) -> None:
        if self.frozen:
            return
        self.buffer.push(obs, self.action_index[levels], reward)
        self.t += 1
        if len(self.buffer) >= max(self.warmup, self.batch_size):
            dqn_train_step(self.net, self.buffer, self.opt, self.batch_size, self.rng)
            self.train_steps += 1
