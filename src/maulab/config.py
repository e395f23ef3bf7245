"""Scenario configuration and validation, and the discrete bid grid."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from functools import cache

import numpy as np

RULES = ("dp", "gsp", "up")
SUPPLIES = (4, 6, 8)
ALGOS = ("ppo", "a2c", "dqn", "dpn", "ql", "vpg", "random")
LEARNERS = tuple(a for a in ALGOS if a != "random")  # in tournament seat order, ids from 1
# The finest bid grid (step 0.1 on [0, 10]): its 5,151 canonical joint bids
# keep a Q-table and DQN's 64-wide head at a few MB.
MAX_GRID_LEVELS = 101


class ConfigError(ValueError):
    """Raised when a scenario or experiment configuration is invalid."""


class CheckpointError(IOError):
    """Raised on corrupt, truncated, or version-mismatched checkpoint files."""


class MissingCheckpointError(FileNotFoundError):
    """Raised when a checkpoint named for a run does not exist."""


@cache
def level_edges(levels: int) -> np.ndarray:
    """The read-only array 1..levels-1, built once per count: flooring x into
    `levels` levels or bins is counting the edges at or below x."""
    edges = np.arange(1, levels)
    edges.flags.writeable = False
    return edges


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one auction scenario and its bid grid: `grid_levels` evenly
    spaced bids on [value_lo, value_hi]. The bidder count, units per bidder and
    value range are fixed (not constructor arguments) but recorded by `asdict`.
    Invariant: total demand n_bidders * units_per_bidder exceeds supply."""

    rule: str = "dp"
    n_bidders: int = field(default=6, init=False)
    units_per_bidder: int = field(default=2, init=False)
    supply: int = 4
    value_lo: float = field(default=0.0, init=False)
    value_hi: float = field(default=10.0, init=False)
    grid_levels: int = 21
    episodes: int = 100_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ConfigError(f"unknown auction rule {self.rule!r}; expected one of {RULES}")
        if self.supply <= 2:
            raise ConfigError("supply must be > 2")
        if self.n_bidders * self.units_per_bidder <= self.supply:
            raise ConfigError("total demand must exceed supply")
        if not 2 <= self.grid_levels <= MAX_GRID_LEVELS:
            raise ConfigError(f"grid_levels must be in [2, {MAX_GRID_LEVELS}], got {self.grid_levels}")
        if self.episodes < 0:
            raise ConfigError("episodes must be >= 0")
        if self.master_seed < 0:
            raise ConfigError("seed must be >= 0")

    @property
    def step(self) -> float:
        return (self.value_hi - self.value_lo) / (self.grid_levels - 1)

    def decode(self, levels) -> np.ndarray:
        """Grid indices (an array of any shape) -> bid amounts."""
        return self.value_lo + np.asarray(levels) * self.step

    def highest_level_at_most(self, amount):
        """Largest level whose bid does not exceed `amount` (tolerance 1e-9), elementwise:
        (amount - value_lo) / step + 1e-9 floored and clipped, as the count of levels 1.. at or below it."""
        return level_edges(self.grid_levels).searchsorted((amount - self.value_lo) / self.step + 1e-9, side="right")


@dataclass(frozen=True)
class Seat:
    """One bidder of a session: built fresh with its hyperparameter overrides,
    or loaded from its checkpoint. Only a seat that trains explores and
    observes its rewards."""

    id: int
    algo: str
    train: bool
    checkpoint: str | None = None
    overrides: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Session:
    """Everything a run needs: a mode ("pretrain" or "tournament"), the
    scenario and one seat per bidder. `to_dict()` is what a run directory's
    config.json records."""

    mode: str
    scenario: ScenarioConfig
    roster: tuple[Seat, ...]

    def __post_init__(self) -> None:
        if len(self.roster) != self.scenario.n_bidders:
            raise ConfigError(f"a session needs {self.scenario.n_bidders} seats, got {len(self.roster)}")

    def to_dict(self) -> dict:
        return asdict(self)
