"""Common bidder-agent contract: exploration rate, replay buffer, joint action
space, the checkpoint codec, the random baseline bidder, the value-bin table
learner, the agent factory and its hyperparameter checks."""

from __future__ import annotations

import inspect
import itertools
import math
import numbers
from operator import attrgetter

import numpy as np

from maulab.checkpoint import CheckpointError
from maulab.config import ConfigError, ScenarioConfig, level_edges
from maulab.nn import layer_views


def epsilon_at(eps_max: float, decay_rate: float, t: int) -> float:
    """Exponentially decaying exploration rate: eps(t) = eps_max * decay_rate^t."""
    if t < 0:
        raise ValueError("t must be >= 0")
    return eps_max * decay_rate**t


def decay_for(episodes: int) -> float:
    """Decay constant such that eps reaches 0.01 at 80% of the run."""
    steps = max(1.0, 0.8 * episodes)
    return float(0.01 ** (1.0 / steps))


class ReplayBuffer:
    """Fixed-capacity ring of rows with named columns, allocated at
    construction: each keyword names a column and gives its row dtype, e.g.
    `obs=(float, (k,))`. DQN samples it as its replay; DPN, A2C and PPO read it
    whole, in episode order, once a rollout fills it, then clear it."""

    def __init__(self, capacity: int, **columns):
        if capacity < 1:
            raise ConfigError("replay capacity must be >= 1")
        self.capacity = capacity
        self._columns = [np.empty(capacity, dtype=dtype) for dtype in columns.values()]
        self.clear()

    def __len__(self) -> int:
        return self._size

    def clear(self) -> None:
        self._size = self._cursor = 0

    def push(self, *runs: np.ndarray) -> None:
        """Write a run of m <= capacity rows, one array per column in column
        order, over the oldest rows; at most two slices per column."""
        m = len(runs[0])
        if m > self.capacity:
            raise ValueError(f"a run of {m} rows exceeds the capacity {self.capacity}")
        i = self._cursor
        head = min(m, self.capacity - i)
        for column, run in zip(self._columns, runs, strict=True):
            column[i : i + head] = run[:head]
            column[: m - head] = run[head:]
        self._cursor = (i + m) % self.capacity
        self._size = min(self._size + m, self.capacity)

    def rows(self) -> tuple[np.ndarray, ...]:
        """Every held row of each column, in push order until the ring wraps."""
        return tuple(column[: self._size] for column in self._columns)

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple[np.ndarray, ...]:
        if self._size < batch_size:
            raise ValueError(f"replay buffer holds {self._size} < batch {batch_size}")
        idx = rng.integers(0, self._size, size=batch_size)
        return tuple(column[idx] for column in self._columns)


def action_table(grid_levels: int, k: int) -> tuple[np.ndarray, dict]:
    """The canonical (weakly decreasing) k-tuples of grid levels as an (A, k)
    level array, and the index of each tuple. For k=2 this is the b1 >= b2
    half of the product grid: L(L+1)/2 entries."""
    combos = itertools.combinations_with_replacement(range(grid_levels), k)
    actions = [tuple(sorted(c, reverse=True)) for c in combos]
    return np.array(actions), {a: i for i, a in enumerate(actions)}


def action_indices(action_index: dict, levels: np.ndarray) -> list[int]:
    """The index in `action_index` of each row of an (m, k) levels array."""
    return [action_index[tuple(row)] for row in levels.tolist()]


def bin_value(value, lo: float, hi: float, bins: int):
    """Floor the value into one of `bins` integer bins over [lo, hi],
    elementwise: the count of bin edges 1..bins-1 at or below its position."""
    return level_edges(bins).searchsorted((value - lo) / (hi - lo) * (bins - 1), side="right")


class Agent:
    """Base bidder agent. Subclasses implement act() and learning in observe().

    `act` maps a block of observations, one (k,) row per episode, to a row of k
    levels per episode. A seat that trains acts (exploring) on the episodes
    from the next one it will observe, and observes a run of them in one call:
    an exploring act on m rows draws what m one-row acts would. A seat acts on
    the next `horizon()` episodes or fewer, once per episode, and no act leaves
    state behind, except for a table learner (`TableAgent`), which acts ahead
    on runs and keeps each row's draws until the row is observed.

    The checkpoint codec: a checkpoint's meta holds every constructor
    hyperparameter, read back from the attribute of the same name, and the
    integer `counters` (attribute paths, saved with "." written as "_"); its
    arrays are those of `state_arrays()`. Loading builds the agent from the
    saved hyperparameters, then `load_payload` restores the rest.

    `nets` lists the (network attribute, optimizer attribute) pairs of the
    agent's MLPs with their Adam states. The attribute names double as the
    checkpoint's array prefixes: every network's w/b arrays come first, then
    every optimizer's m/v arrays (one per weight, then one per bias). Each
    array is a view of its network's or moment's one vector."""

    algo = "?"
    kind = "none"
    counters: tuple[str, ...] = ()
    nets: tuple[tuple[str, str], ...] = ()

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator):
        self.config = config
        self.rng = rng

    @property
    def k(self) -> int:
        return self.config.units_per_bidder

    def value_of(self, obs: np.ndarray):
        """The value behind an observation row (k,), or one per row of a (B, k) block."""
        if obs.shape[-1] != self.k:
            raise ConfigError(f"observation length {obs.shape[-1]} != k={self.k}")
        return obs[..., 0] * self.config.value_hi

    def act(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        """(B, k) grid levels for a (B, k) block of observations, any order per row; the env canonicalizes."""
        raise NotImplementedError

    def observe(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> None:
        """Deliver a run of m <= horizon() episodes (any m for a table learner)
        that the agent's current policy acted on: its (m, k) observations, the
        (m, k) levels act returned and the (m,) episode rewards. Called only
        for a seat that trains."""

    def horizon(self) -> int:
        """How many upcoming episodes (at least 1) this agent's policy stays
        fixed over: the episodes before its next update."""
        return 1

    def hyperparameters(self) -> dict:
        return {name: getattr(self, name) for name in hyperparameter_names(type(self))}

    def state_arrays(self) -> dict[str, np.ndarray]:
        """The learned arrays by checkpoint name; loading writes into them in place."""
        arrays, moments = {}, {}
        for net_attr, opt_attr in self.nets:
            net, opt = getattr(self, net_attr), getattr(self, opt_attr)
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"{net_attr}.w{i}"], arrays[f"{net_attr}.b{i}"] = w, b
            for i, (m, v) in enumerate(zip(layer_views(net.layout, opt.m), layer_views(net.layout, opt.v))):
                moments[f"{opt_attr}.m{i}"], moments[f"{opt_attr}.v{i}"] = m, v
        return {**arrays, **moments}

    def checkpoint_payload(self) -> tuple[dict, dict[str, np.ndarray]]:
        counters = {path.replace(".", "_"): attrgetter(path)(self) for path in self.counters}
        return {**self.hyperparameters(), **counters}, self.state_arrays()

    def load_payload(self, meta: dict, arrays: dict[str, np.ndarray]) -> None:
        """Copy each saved array into this agent's array of the same name and
        set the counters; raise CheckpointError on anything missing or
        misshapen, on a non-finite array value and on a counter that is not an
        integer >= 0."""
        for name, target in self.state_arrays().items():
            if name not in arrays:
                raise CheckpointError(f"missing array {name!r}")
            if arrays[name].shape != target.shape:
                raise CheckpointError(
                    f"array {name!r} has shape {arrays[name].shape}; this scenario needs {target.shape}"
                )
            if not np.isfinite(arrays[name]).all():
                raise CheckpointError(f"array {name!r} holds a non-finite value")
            target[...] = arrays[name]
        for path in self.counters:
            key = path.replace(".", "_")
            if key not in meta:
                raise CheckpointError(f"missing counter {key!r}")
            if type(meta[key]) is not int or meta[key] < 0:
                raise CheckpointError(f"counter {key!r} must be an integer >= 0, got {meta[key]!r}")
            owner, _, leaf = path.rpartition(".")
            setattr(attrgetter(owner)(self) if owner else self, leaf, meta[key])


class RandomAgent(Agent):
    """Baseline bidder: uniform over grid points at or below its value."""

    algo = "random"
    kind = "random"

    def act(self, obs: np.ndarray, explore: bool = True) -> np.ndarray:
        cap = self.config.highest_level_at_most(self.value_of(obs))
        return self.rng.integers(0, cap[:, None], size=(len(obs), self.k), endpoint=True)


class TableAgent(Agent):
    """A learner with one table row per value bin and one column per
    canonical joint bid, updated row by row, in episode order, through the
    subclass's `update(table, s, a, r, alpha)`.

    A seat that trains acts ahead, on a run of episodes, with the table it has
    at the run's start; what it draws does not depend on the table. So an
    exploring act keeps each row's draws in `_pending`, a queue that starts at
    the next episode to observe: on rows that already hold kept draws it
    re-derives their actions from them with the current table, and it draws
    (`_draw`) only for the rows past them. `speculate` finds how many leading
    rows of an acted run keep their action once the rows before them are
    observed, and applies their updates; `observe` drains the rows it is given
    from the queue, first undoing the updates of kept rows it is not given.
    Acts with `explore=False` keep nothing."""

    counters = ("t",)

    def __init__(self, config: ScenarioConfig, rng: np.random.Generator, value_bins: int, alpha: float):
        super().__init__(config, rng)
        self.value_bins = value_bins
        self.alpha = alpha
        self.actions, self.action_index = action_table(config.grid_levels, self.k)
        self.table = np.zeros((value_bins, len(self.actions)))
        self.t = 0
        self._pending: list = []
        self._speculation: tuple[int, dict] = 0, {}  # rows the last speculate kept, and their bins' rows before them

    def _bin(self, obs: np.ndarray) -> int:
        return bin_value(self.value_of(obs), self.config.value_lo, self.config.value_hi, self.value_bins)

    def _kept(self, m: int) -> list:
        """The kept draws of the next m episodes, drawing for those that have none."""
        self._pending += self._draw(range(len(self._pending), m))
        return self._pending[:m]

    def speculate(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> int:
        """How many leading rows of a run that this agent acted on (exploring)
        keep their action once the rows before them are observed: at least 1,
        since the first row's table is the one it acted with. A later row can
        change only if an earlier row of the run updated its bin; it is
        re-derived (`_action`) from its kept draws with the table updated so
        far. The kept rows update the table, each bin's row saved before its
        first update, and the next `observe` keeps them only if it is given
        as many rows."""
        saved, n = {}, 0
        for s, a, r, kept in zip(self._bin(obs).tolist(), action_indices(self.action_index, levels), rewards.tolist(),
                                 self._pending):
            if s not in saved:
                saved[s] = self.table[s].copy()
            elif self._action(self.table, s, kept) != a:
                break
            self.update(self.table, s, a, r, self.alpha)
            n += 1
        self._speculation = n, saved
        return n

    def observe(self, obs: np.ndarray, levels: np.ndarray, rewards: np.ndarray) -> None:
        """Observe a run in episode order. Right after `speculate`, the run
        must be the leading rows of the one speculated on: those are the
        pending rows, which `observe` drains in order. Given fewer rows than
        `speculate` kept, it restores the saved table rows and updates from
        them."""
        n, (kept, saved) = len(rewards), self._speculation
        self._speculation = 0, {}
        if kept != n:
            for s, row in saved.items():
                self.table[s] = row
            for s, a, r in zip(self._bin(obs).tolist(), action_indices(self.action_index, levels), rewards.tolist()):
                self.update(self.table, s, a, r, self.alpha)
        self.t += n
        del self._pending[:n]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {"table": self.table}


def agent_class(algo: str) -> type[Agent]:
    from maulab.agents.actor_critic import A2cAgent, PpoAgent
    from maulab.agents.policy import DpgAgent, VpgAgent
    from maulab.agents.qlearn import DqnAgent, QLearningAgent

    classes = {cls.algo: cls for cls in (RandomAgent, QLearningAgent, DqnAgent, VpgAgent, DpgAgent, A2cAgent, PpoAgent)}
    if algo not in classes:
        raise ConfigError(f"unknown algorithm {algo!r}; expected one of {sorted(classes)}")
    return classes[algo]


def hyperparameter_names(cls: type[Agent]) -> tuple[str, ...]:
    """The constructor parameters of an agent class other than config and rng."""
    return tuple(p for p in inspect.signature(cls).parameters if p not in ("config", "rng"))


# Hyperparameters that count something (as do the `hidden` widths), learning rates, and
# those that lie in [0, 1] (epsilon_at raises decay_rate to the episode count).
COUNTS = ("batch_size", "rollout", "epochs", "minibatch", "buffer_capacity", "value_bins")
LEARNING_RATES = ("lr", "actor_lr", "critic_lr")
UNIT_INTERVAL = ("eps_max", "decay_rate")
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
    and every value has its default's type, every real is finite, every count
    is >= 1, every learning rate is > 0, `alpha` is >= 0, and `eps_max` and
    `decay_rate` lie in [0, 1] (a `decay_rate` of None stays valid)."""
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
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{algo} hyperparameter {name!r} must be finite, got {value!r}")
        counts = value if name == "hidden" else (value,) if name in COUNTS else ()
        if any(c < 1 for c in counts):
            raise ConfigError(f"{algo} hyperparameter {name!r} must be >= 1, got {value!r}")
        if name in LEARNING_RATES and not value > 0:
            raise ConfigError(f"{algo} hyperparameter {name!r} is a learning rate and must be > 0, got {value!r}")
        if name == "alpha" and value < 0:
            raise ConfigError(f"{algo} hyperparameter 'alpha' is a step size and must be >= 0, got {value!r}")
        if name in UNIT_INTERVAL and value is not None and not 0 <= value <= 1:
            raise ConfigError(f"{algo} hyperparameter {name!r} must be in [0, 1], got {value!r}")


def make_agent(algo: str, config: ScenarioConfig, rng: np.random.Generator, **overrides) -> Agent:
    """Construct a fresh agent by algorithm tag. Arrays that cannot be
    allocated, or whose sizes numpy cannot hold, raise ConfigError, naming
    the overrides."""
    check_overrides(algo, overrides)
    try:
        return agent_class(algo)(config, rng, **overrides)
    except ConfigError:
        raise
    except (MemoryError, ValueError) as e:
        raise ConfigError(f"{algo} hyperparameters {overrides}: the agent's arrays do not fit in memory ({e})") from None
