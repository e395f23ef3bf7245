"""Single-step multi-agent auction episode environment.

One episode: draw private values -> collect one joint bid per agent ->
clear the auction -> pay out per-slot rewards. Episodes are independent.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from maulab.auction import AuctionOutcome, clear
from maulab.config import ConfigError, ScenarioConfig
from maulab.grid import BidAction, BidGrid


def reward(s: int, p: float, v: float) -> float:
    """Per-bid reward: scaled payoff on a winning bid, a scaled penalty when
    the payment exceeds the value, and a flat -0.01 on a losing bid."""
    if s == 1:
        if p > 0:
            return p / max(v, 1.0)
        return -(v - p) / max(v, 1.0)
    return -0.01


@dataclass(frozen=True)
class SlotResult:
    success: int
    payoff: float
    value: float
    reward: float


@dataclass(frozen=True)
class Transition:
    """One agent's record of a single-step episode."""

    observation: np.ndarray
    action: BidAction
    per_slot: tuple[SlotResult, ...]
    episode_reward: float


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

    def reset(self) -> list[np.ndarray]:
        """Draw one value per agent (shared across both unit slots) and return
        the per-agent normalized observations."""
        c = self.config
        self._values = self._value_rng.uniform(c.value_lo, c.value_hi, size=c.n_bidders)
        return [self.observation(i) for i in range(c.n_bidders)]

    def observation(self, agent: int) -> np.ndarray:
        v = self._values[agent] / self.config.value_hi
        return np.full(self.config.units_per_bidder, v)

    @property
    def values(self) -> np.ndarray:
        return self._values

    def valuations(self) -> np.ndarray:
        """Per-bidder marginal value matrix (equal across the k slots here)."""
        c = self.config
        return np.repeat(self._values[:, None], c.units_per_bidder, axis=1)

    def step(self, actions: list[BidAction]) -> tuple[list[Transition], AuctionOutcome]:
        c = self.config
        if self._values is None:
            raise RuntimeError("step called before reset")
        if len(actions) != c.n_bidders:
            raise ConfigError(f"expected {c.n_bidders} actions, got {len(actions)}")
        bids = np.zeros((c.n_bidders, c.units_per_bidder))
        for i, a in enumerate(actions):
            if len(a.levels) != c.units_per_bidder:
                raise ConfigError(f"agent {i} submitted {len(a.levels)} bids, need {c.units_per_bidder}")
            bids[i] = a.decode(self.grid)  # raises ConfigError on out-of-grid levels

        outcome = clear(c.rule, bids, c.supply, self._tie_rng)

        payments = {}
        for w in outcome.winners:
            payments[(w.bidder_id, w.unit_slot)] = w.payment

        transitions = []
        for i, a in enumerate(actions):
            v = float(self._values[i])
            slots = []
            for j in range(c.units_per_bidder):
                if (i, j) in payments:
                    p = v - payments[(i, j)]
                    slots.append(SlotResult(1, p, v, reward(1, p, v)))
                else:
                    slots.append(SlotResult(0, 0.0, v, reward(0, 0.0, v)))
            ep_r = float(sum(s.reward for s in slots))
            transitions.append(Transition(self.observation(i), a, tuple(slots), ep_r))

        self._values = None
        return transitions, outcome
