"""Discrete bid grid: bijection between integer levels and currency amounts."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from maulab.config import ConfigError


@cache
def level_edges(levels: int) -> np.ndarray:
    """The read-only array 1..levels-1, built once per count: flooring x into
    `levels` levels or bins is counting the edges at or below x."""
    edges = np.arange(1, levels)
    edges.flags.writeable = False
    return edges


@dataclass(frozen=True)
class BidGrid:
    """Evenly spaced bid levels on [lo, hi], level 0 -> lo, level (levels-1) -> hi."""

    levels: int
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.levels < 2:
            raise ConfigError("grid needs at least 2 levels")
        if not self.lo < self.hi:
            raise ConfigError("grid lo must be < hi")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.levels - 1)

    def decode(self, levels) -> np.ndarray:
        """Grid indices (an array of any shape) -> bid amounts."""
        levels = np.asarray(levels)
        if levels.size and (levels.min() < 0 or levels.max() >= self.levels):
            raise ConfigError(f"bid level outside grid [0, {self.levels - 1}]")
        return self.lo + levels * self.step

    def highest_level_at_most(self, amount):
        """Largest level whose bid does not exceed `amount` (tolerance 1e-9), elementwise:
        (amount - lo) / step + 1e-9 floored and clipped, as the count of levels 1.. at or below it."""
        return level_edges(self.levels).searchsorted((amount - self.lo) / self.step + 1e-9, side="right")
