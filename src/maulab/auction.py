"""Sealed-bid multi-unit auction clearing: bid ranking and the three payment rules.

All functions are pure given an explicit tie-break random stream. Bids arrive
as an (n_bidders, k) matrix; each row is canonicalized weakly decreasing
before ranking (row order within a bidder never affects the outcome).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WinnerEntry:
    bidder_id: int
    unit_slot: int
    winning_bid: float
    payment: float


@dataclass(frozen=True)
class AuctionOutcome:
    winners: tuple[WinnerEntry, ...]
    clearing_price: float | None  # uniform-price only
    revenue: float


def canonicalize(bids: np.ndarray) -> np.ndarray:
    """Sort each bidder's row weakly decreasing."""
    return -np.sort(-np.asarray(bids, dtype=float), axis=1)


def _rank(b: np.ndarray, K: int, tie_rng: np.random.Generator) -> np.ndarray:
    """Flat indices of the canonical bids `b` by bid descending; ties broken by
    a uniform random permutation drawn from tie_rng."""
    n, k = b.shape
    if K > n * k:
        raise ValueError(f"K={K} exceeds {n * k} submitted bids")
    perm = tie_rng.permutation(n * k)
    # lexsort: last key is primary. Sort by bid descending, then by the
    # random permutation position for equal bids.
    return np.lexsort((perm, -b.ravel()))


def rank_bids(bids: np.ndarray, K: int, tie_rng: np.random.Generator) -> list[tuple[int, int]]:
    """Every (bidder, slot) in rank order. The first K entries win."""
    b = canonicalize(bids)
    k = b.shape[1]
    return [(int(i // k), int(i % k)) for i in _rank(b, K, tie_rng)]


def _clear(rule: str, bids: np.ndarray, K: int, tie_rng: np.random.Generator) -> AuctionOutcome:
    """Rank once, then pay per rule: dp its own bid, up the (K+1)-th bid, gsp
    the next ranked bid of a different bidder (0 if none exists)."""
    b = canonicalize(bids)
    k = b.shape[1]
    order = _rank(b, K, tie_rng)
    ranked = b.ravel()[order].tolist()
    owner = (order // k).tolist()
    price = None
    if rule == "dp":
        pay = ranked[:K]
    elif rule == "up":
        price = ranked[K] if len(ranked) > K else 0.0
        pay = [price] * K
    else:
        # A bidder holds at most k slots, so another bidder's bid, if any,
        # ranks within the next k positions.
        pay = []
        for p in range(K):
            ahead = range(p + 1, min(p + 1 + k, len(ranked)))
            pay.append(next((ranked[q] for q in ahead if owner[q] != owner[p]), 0.0))
    winners = tuple(
        WinnerEntry(owner[p], int(order[p] % k), ranked[p], pay[p]) for p in range(K)
    )
    # A Python sum in rank order: a numpy sum of the same payments can differ in the last bit.
    return AuctionOutcome(winners, price, float(sum(pay)))


def clear_dp(bids: np.ndarray, K: int, tie_rng: np.random.Generator) -> AuctionOutcome:
    """Discriminatory (pay-as-bid): each winning slot pays its own bid."""
    return _clear("dp", bids, K, tie_rng)


def clear_gsp(bids: np.ndarray, K: int, tie_rng: np.random.Generator) -> AuctionOutcome:
    """Generalized second-price: each winning slot pays the highest bid ranked
    below it that belongs to a different bidder (0 if none exists)."""
    return _clear("gsp", bids, K, tie_rng)


def clear_up(bids: np.ndarray, K: int, tie_rng: np.random.Generator) -> AuctionOutcome:
    """Uniform-price: every winner pays the highest losing ((K+1)-th) bid."""
    return _clear("up", bids, K, tie_rng)


_CLEAR = {"dp": clear_dp, "gsp": clear_gsp, "up": clear_up}


def clear(rule: str, bids: np.ndarray, K: int, tie_rng: np.random.Generator) -> AuctionOutcome:
    return _CLEAR[rule](bids, K, tie_rng)


def revenue(outcome: AuctionOutcome) -> float:
    """Sum of payments made by all winning bidders."""
    return float(sum(w.payment for w in outcome.winners))


def _allocated_and_best(valuations: np.ndarray, outcome: AuctionOutcome, K: int) -> tuple[float, float]:
    """Value allocated to the winners, and the sum of the K highest marginal values."""
    v = canonicalize(valuations)
    allocated = sum(float(v[w.bidder_id, w.unit_slot]) for w in outcome.winners)
    best = float(np.sort(v.ravel())[::-1][:K].sum())
    return allocated, best


def efficiency_ratio(valuations: np.ndarray, outcome: AuctionOutcome, K: int) -> float:
    """Allocated value over the best attainable (sum of the K highest marginal
    values). Returns 1 when the denominator is 0."""
    allocated, best = _allocated_and_best(valuations, outcome, K)
    if best == 0.0:
        return 1.0
    return min(allocated / best, 1.0)


def efficiency_gap(valuations: np.ndarray, outcome: AuctionOutcome, K: int) -> float:
    """Difference form: top-K value sum minus allocated value sum (0 = efficient)."""
    allocated, best = _allocated_and_best(valuations, outcome, K)
    return max(best - allocated, 0.0)
