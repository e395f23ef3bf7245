"""Single-step multi-agent auction episode environment.

One episode: draw private values -> collect one row of bid levels per agent ->
clear the auction -> pay out per-slot rewards. A reset draws the values and tie
orders of a block of B independent episodes; a step clears any rows of it.
"""

from __future__ import annotations

import numpy as np

from maulab.auction import canonicalize, clear, slot_sum
from maulab.config import ScenarioConfig


def reward(won, payoff, value):
    """Per-bid reward, elementwise: scaled payoff on a winning bid, a scaled
    penalty when the payment exceeds the value, and a flat -0.01 on a losing bid."""
    scale = np.maximum(value, 1.0)
    return np.where(won, np.where(payoff > 0, payoff, -(value - payoff)) / scale, -0.01)


class AuctionEnv:
    """Holds the scenario, value and tie-break streams, and the last reset's block."""

    def __init__(
        self,
        config: ScenarioConfig,
        value_rng: np.random.Generator,
        tie_rng: np.random.Generator,
    ):
        self.config = config
        self._value_rng = value_rng
        self._tie_rng = tie_rng
        self._values: np.ndarray | None = None
        self._ties: np.ndarray | None = None

    def reset(self, episodes: int = 1) -> np.ndarray:
        """Draw one value per agent per episode (shared across its unit slots)
        and one tie order per episode (the slot permutations that B successive
        `permutation(n * k)` calls draw); return the (B, n, k) observations:
        [b, i] is agent i's normalized value in episode b, repeated per slot."""
        c = self.config
        self._values = self._value_rng.uniform(c.value_lo, c.value_hi, size=(episodes, c.n_bidders))
        self._ties = self._tie_rng.permuted(np.tile(np.arange(c.n_bidders * c.units_per_bidder), (episodes, 1)), axis=1)
        return np.repeat(self._values[:, :, None] / c.value_hi, c.units_per_bidder, axis=2)

    def valuations(self) -> np.ndarray:
        """Per-episode, per-bidder marginal values (B, n, k) of the block,
        equal across the k slots here."""
        return np.repeat(self._values[:, :, None], self.config.units_per_bidder, axis=2)

    def step(self, rows: slice, levels) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, tuple]:
        """Clear rows `rows` (a non-empty slice) of the last reset's block given
        their (b, n, k) in-grid bid levels, [e, i] being agent i's in the rows'
        episode e; nothing checks either. A step draws nothing and changes
        nothing on the env: any rows clear, in any order.

        Returns (reward, won, payment, bids, outcome): each agent's episode
        reward (b, n), whether each canonical slot won and what it pays
        (b, n, k), the canonical (weakly decreasing) bid amounts (b, n, k),
        and the clearing's (winners, payment, revenue) arrays."""
        c = self.config
        levels = np.asarray(levels)
        values, ties = self._values[rows, :, None], self._ties[rows]
        bids = canonicalize(c.decode(levels))

        winners, pay, _ = outcome = clear(c.rule, bids, c.supply, ties)
        won, payment = np.zeros(levels.shape, dtype=bool), np.zeros(levels.shape)
        episode = np.arange(len(bids))[:, None]
        won.reshape(len(bids), -1)[episode, winners] = True  # views: one row of n * k slots per episode
        payment.reshape(len(bids), -1)[episode, winners] = pay
        total = slot_sum(reward(won, values - payment, values))
        return total, won, payment, bids, outcome
