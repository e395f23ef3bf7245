"""Policy-gradient bidders: tabular-softmax REINFORCE (VPG), the rollout
learner (a factored two-head policy) that DPN, A2C and PPO share, and DPN."""

from __future__ import annotations

import numpy as np

from maulab.agents.base import Agent, ReplayBuffer, TableAgent
from maulab.config import ScenarioConfig
from maulab.nn import OptimState, adam_step_params, backward, forward, mlp_init
from maulab.nn import log_softmax, sample_categorical


def vpg_update(table: np.ndarray, s: int, a: int, r: float, alpha: float, u: float | None = None) -> bool:
    """Exact score-function update for a softmax-table policy on a single-step
    episode: logits(s,.) += alpha * r * (onehot(a) - pi(s,.)). Given a kept
    uniform u, it is made only if u still draws action a from the row as
    `sample_categorical(log_softmax(...))` does; returns whether it was. The
    draw and the update share the row's max, exp and sum, with the bits of
    `log_softmax` and `softmax`."""
    z = table[s] - table[s].max()
    e = np.exp(z)
    total = e.sum()
    if u is not None:
        cdf = np.exp(z - np.log(total))
        np.cumsum(cdf, out=cdf)
        if (u > cdf[:-1]).sum() != a:
            return False
    onehot = np.zeros_like(e)
    onehot[a] = 1.0
    table[s] += alpha * r * (onehot - e / total)
    return True


class VpgAgent(TableAgent):
    """REINFORCE with a per-value-bin softmax logits table over canonical
    joint bids. Exploration comes from the stochastic policy itself."""

    algo = "vpg"
    kind = "logits_table"
    update = staticmethod(vpg_update)
    defaults = {"value_bins": 11, "alpha": 0.2}

    def _draw(self, rows: range) -> list[float]:
        return self.rng.random(len(rows)).tolist()

    def _update_kept(self, s: int, a: int, r: float, kept: float) -> bool:
        return vpg_update(self.table, s, a, r, self.alpha, kept)

    def act(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        """A sample of the policy by inverse CDF from one uniform per row,
        which an exploring act keeps."""
        u = np.array(self._kept(len(obs))) if explore else self.rng.random(len(obs))
        return self.actions[sample_categorical(log_softmax(self.table[self._bin(obs)]), u)]


# --- factored two-head categorical machinery (shared with actor-critic) ----

def head_logits(flat_logits: np.ndarray, k: int, levels: int) -> np.ndarray:
    """Reshape a (B, k*levels) network output into (B, k, levels) head logits."""
    return np.atleast_2d(flat_logits).reshape(-1, k, levels)


def heads_stats(logits3: np.ndarray, actions: np.ndarray):
    """Each head's log-probabilities and probabilities (B, k, L) and entropy
    (B, k), then the joint log-prob (heads add) and summed entropy of the
    per-head actions (B, k)."""
    log_probs = log_softmax(logits3)
    probs = np.exp(log_probs)
    entropy = -(probs * log_probs).sum(axis=-1)
    logp = np.take_along_axis(log_probs, np.asarray(actions, dtype=int)[..., None], axis=-1)[..., 0].sum(axis=-1)
    return (log_probs, probs, entropy), logp, entropy.sum(axis=-1)


def score_entropy_logits_grad(
    heads: tuple, actions: np.ndarray, weights: np.ndarray, entropy_coef: float, scale: float
) -> np.ndarray:
    """Gradient w.r.t. head logits of
    loss = -scale * sum_b [ weights_b * logp_b + entropy_coef * entropy_b ],
    from heads_stats's per-head arrays."""
    log_probs, probs, entropy = heads
    B, k, L = probs.shape
    onehot = np.zeros((B, k, L))
    np.put_along_axis(onehot, np.asarray(actions)[..., None], 1.0, axis=-1)
    g = -weights[:, None, None] * (onehot - probs)
    if entropy_coef != 0.0:
        g += entropy_coef * probs * (log_probs + entropy[..., None])
    return scale * g


def dpg_update(
    net,
    obs: np.ndarray,
    actions: np.ndarray,
    rewards: np.ndarray,
    opt: OptimState,
    entropy_coef: float,
    levels: int,
) -> float:
    """Batch policy-gradient step with batch-mean reward centering and an
    entropy bonus. Returns the loss value."""
    B, k = actions.shape
    out, cache = forward(net, obs)
    heads, logp, ent = heads_stats(head_logits(out, k, levels), actions)
    adv = rewards - rewards.mean()
    loss = float(-(logp * adv).mean() - entropy_coef * ent.mean())
    g3 = score_entropy_logits_grad(heads, actions, adv, entropy_coef, 1.0 / B)
    adam_step_params(net, backward(net, cache, g3.reshape(B, k * levels)), opt)
    return loss


class RolloutAgent(Agent):
    """A factored categorical `policy`, one head per unit, learning from
    rollouts of episodes (observation, levels, reward): a full rollout goes to
    the subclass's `_update(obs, levels, rewards)`, then is cleared. The
    hyperparameters named by `lr_name` and `rows_name` give the policy's
    learning rate and the rollout's length. The first pair in `nets` gives the
    policy's and its optimizer's attribute and checkpoint names.

    The learner acts up to its next update at most, so the levels an exploring
    act gives stay its policy's until they are observed."""

    lr_name = "lr"
    rows_name = "batch_size"

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator, **given):
        super().__init__(config, rng, **given)
        self.levels = config.grid_levels
        self.policy = mlp_init((self.k, *self.hidden, self.k * self.levels), rng)
        net_attr, opt_attr = self.nets[0]
        setattr(self, net_attr, self.policy)
        setattr(self, opt_attr, OptimState(self.policy, getattr(self, self.lr_name)))
        rows = getattr(self, self.rows_name)
        self.buffer = ReplayBuffer(rows, obs=(float, (self.k,)), levels=(int, (self.k,)), reward=float)
        self.t = 0

    def act(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        """One level per head, in head order."""
        return self._ahead(obs) if explore else self._derive(obs, 0)

    def _derive(self, obs: np.ndarray, start: int) -> np.ndarray:
        """Sample the policy by inverse CDF from one uniform per row and head;
        the stacked forward gives each row its own bits."""
        out, _ = forward(self.policy, obs[:, None, :])
        logp = log_softmax(out.reshape(len(obs), self.k, self.levels))
        return sample_categorical(logp, self.rng.random((len(obs), self.k)))

    def horizon(self, cap: int) -> int:
        """The episodes left until the next update."""
        return self.buffer.capacity - len(self.buffer)

    def speculate(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> int:
        """A run ends at the next update at the latest, so every row keeps its action."""
        return len(rewards)

    def _apply(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray, kept: list) -> None:
        self.buffer.push(obs, levels, rewards)
        if len(self.buffer) == self.buffer.capacity:
            self._update(*self.buffer.rows())
            self.buffer.clear()


class DpgAgent(RolloutAgent):
    """Deep policy gradient: MLP with two categorical heads whose
    log-probabilities add; batch-mean baseline and entropy regularization."""

    algo = "dpn"
    kind = "dpg"
    nets = (("net", "opt"),)
    counters = ("t", "opt.step")
    defaults = {"hidden": (64, 64), "batch_size": 256, "lr": 3e-4, "entropy_coef": 0.01}

    def _update(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> None:
        dpg_update(self.net, obs, levels, rewards, self.opt, self.entropy_coef, self.levels)
