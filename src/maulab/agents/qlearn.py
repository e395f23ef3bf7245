"""Value-based bidders: tabular Q-learning and DQN."""

from __future__ import annotations

import numpy as np

from maulab.agents.base import Agent, ReplayBuffer, TableAgent, action_indices, action_table, decay_for, epsilon_at
from maulab.config import ScenarioConfig
from maulab.nn import MlpParams, OptimState, adam_step_params, forward, mlp_init, trunk_backward, trunk_forward


def q_update(table: np.ndarray, s: int, a: int, r: float, alpha: float) -> None:
    """Bellman update for a terminal single-step episode: the next-state
    bootstrap term is 0, so there is no discount and Q <- Q + alpha * (r - Q)."""
    table[s, a] += alpha * (r - table[s, a])


def epsilon_draws(agent, rows: range) -> list[int]:
    """For each row j of `rows`, in order: with probability epsilon(t + j) a
    uniform random action index, else -1 (greedy); row j is observed j
    episodes after the next one. Nothing is drawn where epsilon is 0."""
    draws = []
    for j in rows:
        eps = epsilon_at(agent.eps_max, agent.decay_rate, agent.t + j)
        draws.append(int(agent.rng.integers(len(agent.actions))) if eps > 0.0 and agent.rng.random() < eps else -1)
    return draws


def _epsilon_greedy(draws: list[int], obs: np.ndarray, greedy) -> np.ndarray:
    """Each row's action index: its drawn one, or greedy's where it drew -1
    (greedy sees only those rows)."""
    index = np.array(draws)
    greedy_rows = index < 0
    if greedy_rows.all():
        return greedy(obs)
    if greedy_rows.any():
        index[greedy_rows] = greedy(obs[greedy_rows])
    return index


class QLearningAgent(TableAgent):
    """Tabular Q-learning over (value bin, canonical joint bid) pairs with a
    decaying epsilon-greedy action rule."""

    algo = "ql"
    kind = "qtable"
    update = staticmethod(q_update)
    defaults = {"value_bins": 11, "alpha": 0.1, "eps_max": 1.0, "decay_rate": None}

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator, **given):
        super().__init__(config, rng, **given)
        if self.decay_rate is None:
            self.decay_rate = decay_for(config.episodes)

    def _greedy(self, obs: np.ndarray) -> np.ndarray:
        return self.table.argmax(axis=1)[self._bin(obs)]  # ties -> lowest index

    def _draw(self, rows: range) -> list[int]:
        return epsilon_draws(self, rows)

    def _action(self, table: np.ndarray, s: int, kept: int) -> int:
        return kept if kept >= 0 else int(table[s].argmax())

    def act(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        """Greedy unless exploring; an exploring act keeps each row's draw."""
        if not explore:
            return self.actions[self._greedy(obs)]
        return self.actions[_epsilon_greedy(self._kept(len(obs)), obs, self._greedy)]


def dqn_loss_grads(net, obs: np.ndarray, act: np.ndarray, rew: np.ndarray) -> tuple[float, MlpParams]:
    """The MSE of Q(s, a) against the terminal single-step target r (no
    bootstrap) over a batch, and its gradient.

    Only the sampled actions' head rows are used: a row's Q(s, a) is its last
    hidden state dotted with its action's head row, plus that action's bias,
    so the head's gradient is zero outside the distinct sampled actions."""
    n = len(act)
    cache = trunk_forward(net, obs)
    h, w_act = cache[-1], net.weights[-1][act]
    err = np.einsum("ij,ij->i", h, w_act)
    err += net.biases[-1][act]
    err -= rew
    loss = float(np.mean(err**2))
    g = 2.0 * err / n  # dloss / dQ(s_i, a_i)
    cols, col_of_row = np.unique(act, return_inverse=True)
    per_col = np.zeros((len(cols), n))
    per_col[col_of_row, np.arange(n)] = g
    grads = MlpParams(net.layout, np.empty_like(net.vec))
    head_w, head_b = grads.weights[-1], grads.biases[-1]
    head_w.fill(0.0)
    head_b.fill(0.0)
    head_w[cols] = per_col @ h
    head_b[cols] = np.bincount(col_of_row, weights=g)
    return loss, trunk_backward(net, cache, g[:, None] * w_act, grads)


def dqn_train_step(
    net,
    buffer: ReplayBuffer,
    opt: OptimState,
    batch_size: int,
    rng: np.random.Generator,
) -> float:
    """One DQN update on a sampled batch; returns its MSE loss."""
    loss, grads = dqn_loss_grads(net, *buffer.sample(batch_size, rng))
    adam_step_params(net, grads, opt)
    return loss


class DqnAgent(Agent):
    """DQN over the canonical joint-bid action space with replay memory.
    Single-step targets have no bootstrap term, so there is no target network."""

    algo = "dqn"
    kind = "dqn"
    nets = (("net", "opt"),)
    counters = ("t", "train_steps", "opt.step")
    defaults = {
        "hidden": (64, 64), "buffer_capacity": 50_000, "batch_size": 64, "lr": 1e-4, "warmup": 1000,
        "eps_max": 1.0, "decay_rate": None,
    }

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator, **given):
        super().__init__(config, rng, **given)
        self.warm = max(self.warmup, self.batch_size)  # the rows the buffer holds before the first update
        self.actions, self.action_index = action_table(config.grid_levels, self.k)
        self.net = mlp_init((self.k, *self.hidden, len(self.actions)), rng)
        self.buffer = ReplayBuffer(self.buffer_capacity, obs=(float, (self.k,)), action=int, reward=float)
        self.opt = OptimState(self.net, self.lr)
        if self.decay_rate is None:
            self.decay_rate = decay_for(config.episodes)
        self.t = self.train_steps = 0

    def _greedy(self, obs: np.ndarray) -> np.ndarray:
        q, _ = forward(self.net, obs[:, None, :])
        return q[:, 0].argmax(axis=1)  # ties -> lowest index

    def act(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        if not explore:
            return self.actions[self._greedy(obs)]
        return self.actions[_epsilon_greedy(epsilon_draws(self, range(len(obs))), obs, self._greedy)]

    def horizon(self) -> int:
        """The episodes left until the buffer is warm, then 1 (an update per episode)."""
        return max(self.warm - len(self.buffer), 1)

    def observe(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> None:
        """Push the run; train once when the buffer is warm, which a run of at
        most horizon() rows reaches only at its last row."""
        self.buffer.push(obs, action_indices(self.action_index, levels), rewards)
        self.t += len(rewards)
        if len(self.buffer) >= self.warm:
            dqn_train_step(self.net, self.buffer, self.opt, self.batch_size, self.rng)
            self.train_steps += 1
