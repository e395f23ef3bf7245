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


def epsilon_draw(agent, t: int) -> int:
    """With probability epsilon(t) a uniform random action index, else -1
    (greedy). Nothing is drawn where epsilon is 0."""
    eps = epsilon_at(agent.eps_max, agent.decay_rate, t)
    return int(agent.rng.integers(len(agent.actions))) if eps > 0.0 and agent.rng.random() < eps else -1


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
        return [epsilon_draw(self, self.t + j) for j in rows]  # row j is observed j episodes after the next one

    def _update_kept(self, s: int, a: int, r: float, kept: int) -> bool:
        """The row's update, made only if its kept draw still gives action a."""
        if kept < 0 and int(self.table[s].argmax()) != a:
            return False
        q_update(self.table, s, a, r, self.alpha)
        return True

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


def dqn_train_step(net, buffer: ReplayBuffer, opt: OptimState, idx: np.ndarray) -> float:
    """One DQN update on the buffer's rows at `idx`; returns its MSE loss."""
    loss, grads = dqn_loss_grads(net, *buffer.take(idx))
    adam_step_params(net, grads, opt)
    return loss


class DqnAgent(Agent):
    """DQN over the canonical joint-bid action space with replay memory.
    Single-step targets have no bootstrap term, so there is no target network."""

    algo = "dqn"
    kind = "dqn"
    rank = 1
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
        self._saved = [np.empty_like(self.net.vec) for _ in range(3)]  # speculate's copy of the net and moments

    def _greedy(self, obs: np.ndarray) -> np.ndarray:
        q, _ = forward(self.net, obs[:, None, :])
        return q[:, 0].argmax(axis=1)  # ties -> lowest index

    def _draw(self, rows: range) -> list[tuple]:
        """For each row j (observed j episodes after the next one), in stream
        order: its epsilon draw, then the replay indices of the update after
        it, or None while the buffer, with the row, is below its warm-up. The
        buffer's size then follows from the episode count alone."""
        draws = []
        for j in rows:
            draw = epsilon_draw(self, self.t + j)
            size = min(len(self.buffer) + j + 1, self.buffer_capacity)
            draws.append((draw, self.rng.integers(0, size, size=self.batch_size) if size >= self.warm else None))
        return draws

    def act(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        return self._ahead(obs) if explore else self.actions[self._greedy(obs)]

    def _derive(self, obs: np.ndarray, start: int) -> np.ndarray:
        draws = [draw for draw, _ in self._kept(start + len(obs))[start:]]
        return self.actions[_epsilon_greedy(draws, obs, self._greedy)]

    def horizon(self, cap: int) -> int:
        """`cap`, or the episodes left until the buffer is warm if more."""
        return max(cap, self.warm - len(self.buffer))

    def speculate(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> int:
        """Train on the run's rows until the first greedy row whose action,
        re-derived with a one-row forward (the bits of the stacked act), a
        train on an earlier row of the run changed; exploring rows keep theirs."""
        saved = self._snapshot(len(rewards))
        n = self._apply(obs, levels, rewards, self._pending[: len(rewards)], check=True)
        self._speculation = n, saved
        return n

    def observe(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> None:
        self._kept(len(rewards))  # rows observed without an act draw theirs now
        super().observe(obs, levels, rewards)

    def _apply(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray, kept: list, check: bool = False) -> int:
        """Push the rows in order, training after each row that kept replay
        indices, and return how many were applied: all, or with `check` those
        before the first greedy row that a train on an earlier one changed."""
        actions = action_indices(self.action_index, levels)
        n, pushed, trained = len(kept), 0, False
        for j, (draw, replay) in enumerate(kept):
            if check and trained and draw < 0 and self._greedy(obs[j : j + 1])[0] != actions[j]:
                n = j
                break
            if replay is not None:
                self.buffer.push(obs[pushed : j + 1], actions[pushed : j + 1], rewards[pushed : j + 1])
                pushed = j + 1
                dqn_train_step(self.net, self.buffer, self.opt, replay)
                self.train_steps += 1
                trained = True
        if n > pushed:
            self.buffer.push(obs[pushed:n], actions[pushed:n], rewards[pushed:n])
        if trained:
            self._acted = self._acted[:0]
        return n

    def _snapshot(self, m: int) -> tuple:
        """Save what training on the next m rows changes, for `_restore`."""
        for copy, array in zip(self._saved, (self.net.vec, self.opt.m, self.opt.v)):
            copy[...] = array
        return self.opt.step, self.train_steps, self.buffer.mark(m)

    def _restore(self, saved: tuple) -> None:
        self.opt.step, self.train_steps, mark = saved
        for copy, array in zip(self._saved, (self.net.vec, self.opt.m, self.opt.v)):
            array[...] = copy
        self.buffer.rewind(mark)  # the levels acted on stay: a speculate that trained dropped them
