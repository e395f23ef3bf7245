"""Value-based bidders: tabular Q-learning and DQN."""

from __future__ import annotations

import numpy as np

from maulab.agents.base import (
    Agent,
    EpsilonSchedule,
    NetAgent,
    ReplayBuffer,
    bin_value,
    decay_for,
    joint_action_space,
)
from maulab.config import ScenarioConfig
from maulab.grid import BidAction
from maulab.nn import OptimState, adam_step_params, backward, forward, mlp_init


def q_update(table: np.ndarray, s: int, a: int, r: float, alpha: float) -> float:
    """Bellman update for a terminal single-step episode: the next-state
    bootstrap term is 0, so there is no discount and Q <- Q + alpha * (r - Q)."""
    table[s, a] += alpha * (r - table[s, a])
    return float(table[s, a])


class QLearningAgent(Agent):
    """Tabular Q-learning over (value bin, canonical joint bid) pairs with a
    decaying epsilon-greedy action rule."""

    algo = "ql"
    kind = "qtable"

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
        if decay_rate is None:
            decay_rate = decay_for(config.episodes)
        self.schedule = EpsilonSchedule(eps_max, decay_rate)

    def _bin(self, obs: np.ndarray) -> int:
        return bin_value(self.value_of(obs), self.config.value_lo, self.config.value_hi, self.value_bins)

    def act(self, obs: np.ndarray, explore: bool = True) -> BidAction:
        s = self._bin(obs)
        eps = self.schedule.value() if (explore and not self.frozen) else 0.0
        if eps > 0.0 and self.rng.random() < eps:
            idx = int(self.rng.integers(len(self.actions)))
        else:
            idx = int(np.argmax(self.table[s]))  # ties -> lowest index
        return BidAction(self.actions[idx])

    def observe(self, transition) -> None:
        if self.frozen:
            return
        s = self._bin(transition.observation)
        a = self.action_index[transition.action.levels]
        q_update(self.table, s, a, transition.episode_reward, self.alpha)
        self.schedule.advance()

    def checkpoint_payload(self):
        meta = {
            "value_bins": self.value_bins,
            "alpha": self.alpha,
            "eps_max": self.schedule.eps_max,
            "decay_rate": self.schedule.decay_rate,
            "t": self.schedule.t,
        }
        return meta, {"table": self.table}

    def load_payload(self, meta, arrays) -> None:
        self.value_bins = int(meta["value_bins"])
        self.alpha = float(meta["alpha"])
        self.schedule = EpsilonSchedule(float(meta["eps_max"]), float(meta["decay_rate"]), int(meta["t"]))
        self.table = arrays["table"].copy()


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
    nets = (("net", "opt", "layout", "lr", "opt_step"),)

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
        self.actions = joint_action_space(config.grid_levels, self.k)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        layout = (self.k, *hidden, len(self.actions))
        self.net = mlp_init(layout, rng)
        self.buffer = ReplayBuffer(buffer_capacity)
        self.batch_size = batch_size
        self.opt = OptimState(lr=lr)
        self.warmup = warmup
        if decay_rate is None:
            decay_rate = decay_for(config.episodes)
        self.schedule = EpsilonSchedule(eps_max, decay_rate)
        self.train_steps = 0

    def act(self, obs: np.ndarray, explore: bool = True) -> BidAction:
        eps = self.schedule.value() if (explore and not self.frozen) else 0.0
        if eps > 0.0 and self.rng.random() < eps:
            idx = int(self.rng.integers(len(self.actions)))
        else:
            q, _ = forward(self.net, np.asarray(obs, dtype=float))
            idx = int(np.argmax(q))
        return BidAction(self.actions[idx])

    def observe(self, transition) -> None:
        if self.frozen:
            return
        a = self.action_index[transition.action.levels]
        self.buffer.push(transition.observation, a, transition.episode_reward)
        self.schedule.advance()
        if len(self.buffer) >= max(self.warmup, self.batch_size):
            dqn_train_step(self.net, self.buffer, self.opt, self.batch_size, self.rng)
            self.train_steps += 1

    def checkpoint_payload(self):
        meta, arrays = super().checkpoint_payload()
        meta.update(
            batch_size=self.batch_size,
            warmup=self.warmup,
            eps_max=self.schedule.eps_max,
            decay_rate=self.schedule.decay_rate,
            t=self.schedule.t,
            train_steps=self.train_steps,
        )
        return meta, arrays

    def load_payload(self, meta, arrays) -> None:
        super().load_payload(meta, arrays)
        self.schedule = EpsilonSchedule(float(meta["eps_max"]), float(meta["decay_rate"]), int(meta["t"]))
        self.train_steps = int(meta["train_steps"])
