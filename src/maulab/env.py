"""Single-step multi-agent auction episode environment.

One episode: draw private values -> collect one row of bid levels per agent ->
clear the auction -> pay out per-slot rewards. Episodes are independent.
"""

from __future__ import annotations

import numpy as np

from maulab.auction import AuctionOutcome, canonicalize, clear
from maulab.config import ConfigError, ScenarioConfig
from maulab.grid import BidGrid


def reward(won, payoff, value):
    """Per-bid reward, elementwise: scaled payoff on a winning bid, a scaled
    penalty when the payment exceeds the value, and a flat -0.01 on a losing bid."""
    scale = np.maximum(value, 1.0)
    return np.where(won, np.where(payoff > 0, payoff, -(value - payoff)) / scale, -0.01)


def slot_sum(a: np.ndarray) -> np.ndarray:
    """Row sums of an (n, k) array, added slot by slot from 0.0: the order a
    Python sum takes (a numpy sum of 8 or more columns pairs them differently)."""
    total = np.zeros(len(a))
    for column in a.T:
        total += column
    return total


class AuctionEnv:
    """Holds the scenario, value stream and tie-break stream for one session."""

    def __init__(
        self,
        config: ScenarioConfig,
        value_rng: np.random.Generator,
        tie_rng: np.random.Generator,
    ):
        self.config = config
        self.grid = BidGrid(config.grid_levels, config.value_lo, config.value_hi)
        self._value_rng = value_rng
        self._tie_rng = tie_rng
        self._values: np.ndarray | None = None

    def reset(self) -> np.ndarray:
        """Draw one value per agent (shared across its unit slots) and return
        the (n, k) observation matrix: row i is agent i's normalized value."""
        c = self.config
        self._values = self._value_rng.uniform(c.value_lo, c.value_hi, size=c.n_bidders)
        return np.repeat(self._values[:, None] / c.value_hi, c.units_per_bidder, axis=1)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def valuations(self) -> np.ndarray:
        """Per-bidder marginal value matrix (equal across the k slots here)."""
        c = self.config
        return np.repeat(self._values[:, None], c.units_per_bidder, axis=1)

    def step(self, levels) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, AuctionOutcome]:
        """Clear one (n, k) matrix of bid levels, row i being agent i's.

        Returns (reward, won, payment, bids, outcome): each agent's episode
        reward (n,), whether each canonical slot won and what it pays (n, k),
        and the canonical (weakly decreasing) bid amounts (n, k)."""
        c = self.config
        if self._values is None:
            raise RuntimeError("step called before reset")
        try:
            levels = np.asarray(levels)
        except ValueError:
            raise ConfigError("every agent must submit the same number of bids") from None
        if levels.shape != (c.n_bidders, c.units_per_bidder):
            raise ConfigError(
                f"expected {c.n_bidders} agents x {c.units_per_bidder} bids, got shape {levels.shape}"
            )
        bids = canonicalize(self.grid.decode(levels))  # raises ConfigError on out-of-grid levels

        outcome = clear(c.rule, bids, c.supply, self._tie_rng)

        won = np.zeros(bids.shape, dtype=bool)
        payment = np.zeros(bids.shape)
        for w in outcome.winners:
            won[w.bidder_id, w.unit_slot] = True
            payment[w.bidder_id, w.unit_slot] = w.payment
        value = self._values[:, None]
        total = slot_sum(reward(won, value - payment, value))

        self._values = None
        return total, won, payment, bids, outcome
