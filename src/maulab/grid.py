"""Discrete bid grid: bijection between integer levels and currency amounts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from maulab.config import ConfigError


@dataclass(frozen=True)
class BidGrid:
    """Evenly spaced bid levels on [lo, hi], level 0 -> lo, level (levels-1) -> hi."""

    levels: int
    lo: float = 0.0
    hi: float = 10.0

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

    def highest_level_at_most(self, amount: float) -> int:
        """Largest level whose bid does not exceed `amount` (tolerance 1e-9)."""
        lvl = int(np.floor((amount - self.lo) / self.step + 1e-9))
        return max(0, min(lvl, self.levels - 1))
