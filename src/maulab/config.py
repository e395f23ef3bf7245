"""Scenario configuration and validation."""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

RULES = ("dp", "gsp", "up")
ALGOS = ("ppo", "a2c", "dqn", "dpn", "ql", "vpg", "random")
LEARNERS = tuple(a for a in ALGOS if a != "random")

# Bidder IDs used in tournament mode rosters.
TOURNAMENT_IDS = {"ppo": 1, "a2c": 2, "dqn": 3, "dpn": 4, "ql": 5, "vpg": 6}


class ConfigError(ValueError):
    """Raised when a scenario or experiment configuration is invalid."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one auction scenario.

    Invariant: total demand n_bidders * units_per_bidder strictly exceeds
    supply, so the auction is always competitive.
    """

    rule: str = "dp"
    n_bidders: int = 6
    units_per_bidder: int = 2
    supply: int = 4
    value_lo: float = 0.0
    value_hi: float = 10.0
    grid_levels: int = 21
    episodes: int = 100_000
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.rule not in RULES:
            raise ConfigError(f"unknown auction rule {self.rule!r}; expected one of {RULES}")
        if self.n_bidders <= 1:
            raise ConfigError("n_bidders must be > 1")
        if self.units_per_bidder < 1:
            raise ConfigError("units_per_bidder must be >= 1")
        if self.supply <= 2:
            raise ConfigError("supply must be > 2")
        if self.n_bidders * self.units_per_bidder <= self.supply:
            raise ConfigError("total demand must exceed supply")
        if not self.value_lo < self.value_hi:
            raise ConfigError("value_lo must be < value_hi")
        if self.grid_levels < 2:
            raise ConfigError("grid_levels must be >= 2")
        if self.episodes < 0:
            raise ConfigError("episodes must be >= 0")
        if self.master_seed < 0:
            raise ConfigError("seed must be >= 0")


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
