"""Common bidder-agent contract: exploration rate, replay buffer, joint action
space, the checkpoint codec, the random baseline bidder, the agent factory and
its hyperparameter checks."""

from __future__ import annotations

import inspect
import itertools
import numbers
from operator import attrgetter

import numpy as np

from maulab.checkpoint import CheckpointError
from maulab.config import ConfigError, ScenarioConfig
from maulab.grid import BidGrid


def epsilon_at(eps_max: float, decay_rate: float, t: int) -> float:
    """Exponentially decaying exploration rate: eps(t) = eps_max * decay_rate^t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return eps_max * decay_rate**t


def decay_for(episodes: int, floor: float = 0.01, at_fraction: float = 0.8) -> float:
    """Decay constant such that eps reaches `floor` at `at_fraction` of the run."""
    steps = max(1.0, at_fraction * episodes)
    return float(floor ** (1.0 / steps))


class ReplayBuffer:
    """Fixed-capacity ring of (observation, action index, reward) rows, held in
    arrays allocated on the first push from the observation's shape."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError("replay capacity must be >= 1")
        self.capacity = capacity
        self._obs: np.ndarray | None = None
        self._size = 0
        self._cursor = 0

    def __len__(self) -> int:
        return self._size

    def push(self, obs: np.ndarray, action: int, rew: float) -> None:
        if self._obs is None:
            self._obs = np.empty((self.capacity, *np.shape(obs)))
            self._act = np.empty(self.capacity, dtype=int)
            self._rew = np.empty(self.capacity)
        i = self._cursor
        self._obs[i], self._act[i], self._rew[i] = obs, action, rew
        self._cursor = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        if self._size < batch_size:
            raise ValueError(f"replay buffer holds {self._size} < batch {batch_size}")
        idx = rng.integers(0, self._size, size=batch_size)
        return self._obs[idx], self._act[idx], self._rew[idx]


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
    """Base bidder agent. Subclasses implement act() and learning in observe().

    The checkpoint codec: a checkpoint's meta holds every constructor
    hyperparameter, read back from the attribute of the same name, and the
    integer `counters` (attribute paths, saved with "." written as "_"); its
    arrays are those of `state_arrays()`. Loading builds the agent from the
    saved hyperparameters, then `load_payload` restores the rest."""

    algo = "?"
    kind = "none"
    counters: tuple[str, ...] = ()

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

    def act(self, obs: np.ndarray, explore: bool = True) -> tuple[int, ...]:
        """One grid level per unit slot, in any order; the env canonicalizes."""
        raise NotImplementedError

    def observe(self, obs: np.ndarray, levels: tuple[int, ...], reward: float) -> None:
        """Deliver this agent's observation, the levels its act returned and
        its episode reward; no-op in freeze mode."""

    def hyperparameters(self) -> dict:
        return {name: getattr(self, name) for name in hyperparameter_names(type(self))}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The learned arrays by checkpoint name; loading writes into them in place."""
        return {}

    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        counters = {path.replace(".", "_"): attrgetter(path)(self) for path in self.counters}
        return {**self.hyperparameters(), **counters}, self.state_arrays()

    def load_payload(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Copy each saved array into this agent's array of the same name and
        set the counters; raise CheckpointError on anything missing or misshapen."""
        for name, target in self.state_arrays().items():
            if name not in arrays:
                raise CheckpointError(f"missing array {name!r}")
            if arrays[name].shape != target.shape:
                raise CheckpointError(
                    f"array {name!r} has shape {arrays[name].shape}; this scenario needs {target.shape}"
                )
            target[...] = arrays[name]
        for path in self.counters:
            key = path.replace(".", "_")
            if key not in meta:
                raise CheckpointError(f"missing counter {key!r}")
            owner, _, leaf = path.rpartition(".")
            setattr(attrgetter(owner)(self) if owner else self, leaf, int(meta[key]))


class RandomAgent(Agent):
    """Baseline bidder: uniform over grid points at or below its value."""

    algo = "random"
    kind = "random"

    def act(self, obs: np.ndarray, explore: bool = True) -> tuple[int, ...]:
        cap = self.grid.highest_level_at_most(self.value_of(obs))
        return tuple(self.rng.integers(0, cap + 1, size=self.k).tolist())


class NetAgent(Agent):
    """An agent whose state includes MLPs with their Adam states.

    `nets` lists (network attribute, optimizer attribute) pairs. The attribute
    names double as the checkpoint's array prefixes: every network's w/b arrays
    come first, then every optimizer's m/v arrays."""

    nets: tuple[tuple[str, str], ...] = ()

    def state_arrays(self) -> dict[str, np.ndarray]:
        arrays, moments = {}, {}
        for net_attr, opt_attr in self.nets:
            net, opt = getattr(self, net_attr), getattr(self, opt_attr)
            opt._ensure(net.weights + net.biases)
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"{net_attr}.w{i}"], arrays[f"{net_attr}.b{i}"] = w, b
            for i, (m, v) in enumerate(zip(opt.m, opt.v)):
                moments[f"{opt_attr}.m{i}"], moments[f"{opt_attr}.v{i}"] = m, v
        return {**arrays, **moments}


def agent_class(algo: str) -> type[Agent]:
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


def hyperparameter_names(cls: type[Agent]) -> tuple[str, ...]:
    """The constructor parameters of an agent class other than config and rng."""
    return tuple(p for p in inspect.signature(cls).parameters if p not in ("config", "rng"))


# Hyperparameters that count something (as do the `hidden` widths), and learning rates.
COUNTS = ("batch_size", "rollout", "epochs", "minibatch", "buffer_capacity", "value_bins")
LEARNING_RATES = ("lr", "actor_lr", "critic_lr")
_KINDS = {int: "an integer", float: "a number", type(None): "a number or null", tuple: "a list of integers"}


def _fits(value, default) -> bool:
    """Whether `value` has the type of the constructor default: an int passes
    for a float (also for one that defaults to None), a list for a tuple of ints."""
    if isinstance(default, tuple):
        return isinstance(value, (list, tuple)) and all(_fits(w, 0) for w in value)
    if isinstance(value, bool):
        return False
    if isinstance(default, int):
        return isinstance(value, numbers.Integral)
    return isinstance(value, numbers.Real) or (default is None and value is None)


def check_overrides(algo: str, overrides: dict) -> None:
    """Raise ConfigError unless every key names a hyperparameter of algo's agent
    and every value has its default's type, every count is >= 1 and every
    learning rate is > 0."""
    cls = agent_class(algo)
    params = hyperparameter_names(cls)
    unknown = sorted(set(overrides) - set(params))
    if unknown:
        raise ConfigError(f"unknown hyperparameters for {algo}: {unknown}; expected some of {sorted(params)}")
    signature = inspect.signature(cls).parameters
    for name, value in overrides.items():
        default = signature[name].default
        if not _fits(value, default):
            raise ConfigError(f"{algo} hyperparameter {name!r} must be {_KINDS[type(default)]}, got {value!r}")
        counts = value if name == "hidden" else (value,) if name in COUNTS else ()
        if any(c < 1 for c in counts):
            raise ConfigError(f"{algo} hyperparameter {name!r} must be >= 1, got {value!r}")
        if name in LEARNING_RATES and not value > 0:
            raise ConfigError(f"{algo} hyperparameter {name!r} is a learning rate and must be > 0, got {value!r}")


def make_agent(algo: str, config: ScenarioConfig, rng: np.random.Generator, **overrides) -> Agent:
    """Construct a fresh agent by algorithm tag."""
    check_overrides(algo, overrides)
    return agent_class(algo)(config, rng, **overrides)
