"""Common bidder-agent contract: exploration schedule, replay buffer, joint
action space, the random baseline bidder, and the agent factory."""

from __future__ import annotations

import inspect
import itertools
from dataclasses import dataclass

import numpy as np

from maulab.config import ConfigError, ScenarioConfig
from maulab.grid import BidAction, BidGrid
from maulab.nn import OptimState, mlp_init


@dataclass
class EpsilonSchedule:
    """Exponentially decaying exploration rate: eps(t) = eps_max * decay^t."""

    eps_max: float = 1.0
    decay_rate: float = 0.99
    t: int = 0

    def value(self) -> float:
        return epsilon_at(self, self.t)

    def advance(self) -> None:
        self.t += 1


def epsilon_at(schedule: EpsilonSchedule, t: int) -> float:
    if t < 0:
        raise ValueError("t must be >= 0")
    return schedule.eps_max * schedule.decay_rate**t


def decay_for(episodes: int, floor: float = 0.01, at_fraction: float = 0.8) -> float:
    """Decay constant such that eps reaches `floor` at `at_fraction` of the run."""
    steps = max(1.0, at_fraction * episodes)
    return float(floor ** (1.0 / steps))


class ReplayBuffer:
    """Fixed-capacity ring of (observation, action index, reward) tuples."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("replay capacity must be >= 1")
        self.capacity = capacity
        self._obs: list[np.ndarray] = []
        self._act: list[int] = []
        self._rew: list[float] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._obs)

    def push(self, obs: np.ndarray, action: int, rew: float) -> None:
        if len(self._obs) < self.capacity:
            self._obs.append(np.array(obs, dtype=float))
            self._act.append(int(action))
            self._rew.append(float(rew))
        else:
            self._obs[self._cursor] = np.array(obs, dtype=float)
            self._act[self._cursor] = int(action)
            self._rew[self._cursor] = float(rew)
        self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, batch_size: int, rng: np.random.Generator):
        if len(self) < batch_size:
            raise ValueError(f"replay buffer holds {len(self)} < batch {batch_size}")
        idx = rng.integers(0, len(self), size=batch_size)
        obs = np.stack([self._obs[i] for i in idx])
        act = np.array([self._act[i] for i in idx], dtype=int)
        rew = np.array([self._rew[i] for i in idx])
        return obs, act, rew


def joint_action_space(grid_levels: int, k: int) -> list[tuple[int, ...]]:
    """All canonical (weakly decreasing) k-tuples of grid levels.

    For k=2 this is the b1 >= b2 half of the product grid: L(L+1)/2 entries."""
    combos = itertools.combinations_with_replacement(range(grid_levels), k)
    return [tuple(sorted(c, reverse=True)) for c in combos]


def bin_value(value: float, lo: float, hi: float, bins: int) -> int:
    """Floor the value into one of `bins` integer bins over [lo, hi]."""
    b = int(np.floor((value - lo) / (hi - lo) * (bins - 1)))
    return max(0, min(b, bins - 1))


class Agent:
    """Base bidder agent. Subclasses implement act() and learning in observe()."""

    algo = "?"

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self.config = config
        self.grid = BidGrid(config.grid_levels, config.value_lo, config.value_hi)
        self.rng = rng
        self.frozen = False

    @property
    def k(self) -> int:
        return self.config.units_per_bidder

    def value_of(self, obs: np.ndarray) -> float:
        if len(obs) != self.k:
            raise ConfigError(f"observation length {len(obs)} != k={self.k}")
        return float(obs[0]) * self.config.value_hi

    def act(self, obs: np.ndarray, explore: bool = True) -> BidAction:
        raise NotImplementedError

    def observe(self, transition) -> None:
        """Deliver this agent's own transition; no-op in freeze mode."""

    # checkpoint protocol -------------------------------------------------
    kind = "none"

    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        return {}, {}

    def load_payload(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        pass


class RandomAgent(Agent):
    """Baseline bidder: uniform over grid points at or below its value."""

    algo = "random"
    kind = "random"

    def act(self, obs: np.ndarray, explore: bool = True) -> BidAction:
        cap = self.grid.highest_level_at_most(self.value_of(obs))
        levels = self.rng.integers(0, cap + 1, size=self.k)
        return BidAction(tuple(int(l) for l in levels))


class NetAgent(Agent):
    """An agent whose state includes MLPs with their Adam states.

    `nets` lists (network attribute, optimizer attribute, layout key, lr key,
    optimizer-step key). The attribute names double as the checkpoint's array
    prefixes: every network's w/b arrays come first, then every optimizer's
    m/v arrays."""

    nets: tuple[tuple[str, str, str, str, str], ...] = ()

    def checkpoint_payload(self):
        meta = {"activation": getattr(self, self.nets[0][0]).activation}
        arrays, moments = {}, {}
        for net_attr, opt_attr, layout_key, lr_key, step_key in self.nets:
            net, opt = getattr(self, net_attr), getattr(self, opt_attr)
            meta.update({layout_key: list(net.layout), lr_key: opt.lr, step_key: opt.step})
            opt._ensure(net.weights + net.biases)
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"{net_attr}.w{i}"], arrays[f"{net_attr}.b{i}"] = w, b
            for i, (m, v) in enumerate(zip(opt.m, opt.v)):
                moments[f"{opt_attr}.m{i}"], moments[f"{opt_attr}.v{i}"] = m, v
        return meta, {**arrays, **moments}

    def load_payload(self, meta, arrays) -> None:
        """Restore every network and optimizer; rebuild them all first (taking
        the saved learning rates) if any saved layout differs from this agent's."""
        layouts = [tuple(int(w) for w in meta[spec[2]]) for spec in self.nets]
        if any(layout != getattr(self, spec[0]).layout for layout, spec in zip(layouts, self.nets)):
            for layout, (net_attr, opt_attr, _, lr_key, _) in zip(layouts, self.nets):
                setattr(self, net_attr, mlp_init(layout, 0, meta["activation"]))
                setattr(self, opt_attr, OptimState(lr=float(meta[lr_key])))
        for net_attr, opt_attr, _, _, step_key in self.nets:
            net, opt = getattr(self, net_attr), getattr(self, opt_attr)
            opt._ensure(net.weights + net.biases)
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                w[...] = arrays[f"{net_attr}.w{i}"]
                b[...] = arrays[f"{net_attr}.b{i}"]
            for i, (m, v) in enumerate(zip(opt.m, opt.v)):
                m[...] = arrays[f"{opt_attr}.m{i}"]
                v[...] = arrays[f"{opt_attr}.v{i}"]
            opt.step = int(meta[step_key])


def _agent_class(algo: str) -> type[Agent]:
    from maulab.agents.actor_critic import A2cAgent, PpoAgent
    from maulab.agents.policy import DpgAgent, VpgAgent
    from maulab.agents.qlearn import DqnAgent, QLearningAgent

    classes = {
        "random": RandomAgent,
        "ql": QLearningAgent,
        "dqn": DqnAgent,
        "vpg": VpgAgent,
        "dpn": DpgAgent,
        "a2c": A2cAgent,
        "ppo": PpoAgent,
    }
    if algo not in classes:
        raise ConfigError(f"unknown algorithm {algo!r}; expected one of {sorted(classes)}")
    return classes[algo]


def check_overrides(algo: str, overrides: dict) -> None:
    """Raise ConfigError unless every key names a hyperparameter of algo's agent."""
    params = set(inspect.signature(_agent_class(algo)).parameters) - {"config", "rng"}
    unknown = sorted(set(overrides) - params)
    if unknown:
        raise ConfigError(f"unknown hyperparameters for {algo}: {unknown}; expected some of {sorted(params)}")


def make_agent(algo: str, config: ScenarioConfig, rng: np.random.Generator, **overrides) -> Agent:
    """Construct a fresh agent by algorithm tag."""
    check_overrides(algo, overrides)
    return _agent_class(algo)(config, rng, **overrides)
