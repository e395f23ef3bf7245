"""Policy-gradient bidders: tabular-softmax REINFORCE (VPG) and the deep
policy-gradient variant (DPN) with a factored two-head categorical policy."""

from __future__ import annotations

import numpy as np

from maulab.agents.base import Agent, NetAgent, bin_value, joint_action_space
from maulab.config import ScenarioConfig
from maulab.nn import Categorical, OptimState, adam_step_params, backward, forward, mlp_init, softmax


def vpg_update(table: np.ndarray, s: int, a: int, r: float, alpha: float) -> None:
    """Exact score-function update for a softmax-table policy on a single-step
    episode: logits(s,.) += alpha * r * (onehot(a) - pi(s,.))."""
    probs = softmax(table[s])
    onehot = np.zeros_like(probs)
    onehot[a] = 1.0
    table[s] += alpha * r * (onehot - probs)


class VpgAgent(Agent):
    """REINFORCE with a per-value-bin softmax logits table over canonical
    joint bids. Exploration comes from the stochastic policy itself."""

    algo = "vpg"
    kind = "logits_table"
    counters = ("t",)

    def __init__(
        self,
        config: ScenarioConfig,
        rng: np.random.Generator,
        value_bins: int = 11,
        alpha: float = 0.2,
    ):
        super().__init__(config, rng)
        self.value_bins = value_bins
        self.alpha = alpha
        self.actions = joint_action_space(config.grid_levels, self.k)
        self.action_index = {a: i for i, a in enumerate(self.actions)}
        self.table = np.zeros((value_bins, len(self.actions)))
        self.t = 0

    def _bin(self, obs: np.ndarray) -> int:
        return bin_value(self.value_of(obs), self.config.value_lo, self.config.value_hi, self.value_bins)

    def act(self, obs: np.ndarray, explore: bool = True) -> tuple[int, ...]:
        s = self._bin(obs)
        return self.actions[Categorical(self.table[s]).sample(self.rng)]

    def observe(self, obs: np.ndarray, levels: tuple[int, ...], reward: float) -> None:
        if self.frozen:
            return
        vpg_update(self.table, self._bin(obs), self.action_index[levels], reward, self.alpha)
        self.t += 1

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"table": self.table}


# --- factored two-head categorical machinery (shared with actor-critic) ----

def head_logits(flat_logits: np.ndarray, k: int, levels: int) -> np.ndarray:
    """Reshape a (B, k*levels) network output into (B, k, levels) head logits."""
    return np.atleast_2d(flat_logits).reshape(-1, k, levels)


def heads_stats(logits3: np.ndarray, actions: np.ndarray):
    """Joint log-prob (heads add) and summed entropy for per-head actions."""
    dist = Categorical(logits3)
    logp = dist.log_prob(actions).sum(axis=-1)
    ent = dist.entropy().sum(axis=-1)
    return dist, logp, ent


def score_entropy_logits_grad(
    dist: Categorical, actions: np.ndarray, weights: np.ndarray, entropy_coef: float, scale: float
) -> np.ndarray:
    """Gradient w.r.t. head logits of
    loss = -scale * sum_b [ weights_b * logp_b + entropy_coef * entropy_b ]."""
    B, k, L = dist.probs.shape
    onehot = np.zeros((B, k, L))
    np.put_along_axis(onehot, np.asarray(actions)[..., None], 1.0, axis=-1)
    g = -weights[:, None, None] * (onehot - dist.probs)
    if entropy_coef != 0.0:
        h = dist.entropy()[..., None]  # per-head entropy (B, k, 1)
        g += entropy_coef * dist.probs * (dist.log_probs + h)
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
    dist, logp, ent = heads_stats(head_logits(out, k, levels), actions)
    adv = rewards - rewards.mean()
    loss = float(-(logp * adv).mean() - entropy_coef * ent.mean())
    g3 = score_entropy_logits_grad(dist, actions, adv, entropy_coef, 1.0 / B)
    wg, bg = backward(net, cache, g3.reshape(B, k * levels))
    adam_step_params(net, wg, bg, opt)
    return loss


class DpgAgent(NetAgent):
    """Deep policy gradient: MLP with two categorical heads whose
    log-probabilities add; batch-mean baseline and entropy regularization."""

    algo = "dpn"
    kind = "dpg"
    nets = (("net", "opt"),)
    counters = ("t", "opt.step")

    def __init__(
        self,
        config: ScenarioConfig,
        rng: np.random.Generator,
        hidden: tuple[int, int] = (64, 64),
        batch_size: int = 256,
        lr: float = 3e-4,
        entropy_coef: float = 0.01,
    ):
        super().__init__(config, rng)
        self.hidden = tuple(hidden)
        self.levels = config.grid_levels
        self.net = mlp_init((self.k, *self.hidden, self.k * self.levels), rng)
        self.lr = lr
        self.opt = OptimState(lr=lr)
        self.batch_size = batch_size
        self.entropy_coef = entropy_coef
        self._obs: list[np.ndarray] = []
        self._acts: list[np.ndarray] = []
        self._rews: list[float] = []
        self.t = 0

    def act(self, obs: np.ndarray, explore: bool = True) -> tuple[int, ...]:
        """One level per head, in head order."""
        out, _ = forward(self.net, np.asarray(obs, dtype=float))
        return tuple(Categorical(out.reshape(self.k, self.levels)).sample(self.rng).tolist())

    def observe(self, obs: np.ndarray, levels: tuple[int, ...], reward: float) -> None:
        if self.frozen:
            return
        self._obs.append(np.array(obs))
        self._acts.append(np.array(levels))
        self._rews.append(reward)
        self.t += 1
        if len(self._rews) >= self.batch_size:
            dpg_update(
                self.net,
                np.stack(self._obs),
                np.stack(self._acts),
                np.array(self._rews),
                self.opt,
                self.entropy_coef,
                self.levels,
            )
            self._obs, self._acts, self._rews = [], [], []
