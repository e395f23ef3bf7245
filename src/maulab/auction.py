"""Sealed-bid multi-unit auction clearing: bid ranking and the three payment rules.

Clearing is pure: it draws nothing, and its outcome is a function of the bids
and a given tie order. All functions work on a block of B auctions. Bids
arrive as a (B, n_bidders, k) array; each row is canonicalized weakly
decreasing before ranking (row order within a bidder never affects the
outcome). A clearing returns the winning canonical slots (bidder * k + slot)
in rank order (B, K), their payments (B, K) and the revenues (B,).
"""

from __future__ import annotations

import numpy as np


def canonicalize(bids: np.ndarray) -> np.ndarray:
    """Sort each bidder's row (the last axis) weakly decreasing."""
    return -np.sort(-np.asarray(bids, dtype=float), axis=-1)


def slot_sum(a: np.ndarray) -> np.ndarray:
    """Sums over the last axis, added column by column from 0.0: the order a
    Python sum takes (a numpy sum of 8 or more columns pairs them differently)."""
    total = np.zeros(a.shape[:-1])
    for j in range(a.shape[-1]):
        total += a[..., j]
    return total


def _clear(rule: str, bids: np.ndarray, K: int, ties: np.ndarray):
    """Rank once, then pay per rule: dp its own bid, up the (K+1)-th bid, gsp
    the next ranked bid of a different bidder (0 if none exists). Bids that are
    already canonical (as AuctionEnv.step passes them) are not sorted again."""
    b = np.asarray(bids, dtype=float)
    if not (b[..., :-1] >= b[..., 1:]).all():
        b = canonicalize(b)
    B, n, k = b.shape
    # The flat slot indices by bid descending, equal bids in the order of
    # `ties` (lexsort's last key is primary).
    flat = b.reshape(B, n * k)
    order = np.lexsort((ties, -flat), axis=-1)
    ranked = flat[np.arange(B)[:, None], order]
    if rule == "dp":
        pay = ranked[:, :K]
    elif rule == "up":
        price = ranked[:, K] if n * k > K else np.zeros(B)
        pay = np.repeat(price[:, None], K, axis=1)
    else:
        # Another bidder's bid, if any, ranks within the next k positions (a bidder holds
        # at most k slots). Pads past the last bid pay 0 for no bidder; the nearest wins.
        bid = np.concatenate((ranked, np.zeros((B, k))), axis=1)
        owner = np.concatenate((order // k, np.full((B, k), -1)), axis=1)
        pay = np.zeros((B, K))
        for d in range(k, 0, -1):
            pay = np.where(owner[:, d : d + K] != owner[:, :K], bid[:, d : d + K], pay)
    return order[:, :K], pay, slot_sum(pay)


def clear_dp(bids: np.ndarray, K: int, ties: np.ndarray):
    """Discriminatory (pay-as-bid): each winning slot pays its own bid."""
    return _clear("dp", bids, K, ties)


def clear_gsp(bids: np.ndarray, K: int, ties: np.ndarray):
    """Generalized second-price: each winning slot pays the highest bid ranked
    below it that belongs to a different bidder (0 if none exists)."""
    return _clear("gsp", bids, K, ties)


def clear_up(bids: np.ndarray, K: int, ties: np.ndarray):
    """Uniform-price: every winner pays the highest losing ((K+1)-th) bid."""
    return _clear("up", bids, K, ties)


_CLEAR = {"dp": clear_dp, "gsp": clear_gsp, "up": clear_up}


def clear(rule: str, bids: np.ndarray, K: int, ties: np.ndarray):
    """(winners, payment, revenue) of a block of auctions under `rule`, equal
    bids ranked by `ties`."""
    return _CLEAR[rule](bids, K, ties)


def _allocated_and_best(valuations: np.ndarray, winners: np.ndarray, K: int):
    """Per auction, the value allocated to the winners (added in rank order)
    and the sum of the K highest marginal values."""
    B, n, k = valuations.shape
    v = canonicalize(valuations).reshape(B, n * k)
    allocated = slot_sum(v[np.arange(B)[:, None], winners])
    best = np.sort(v, axis=1)[:, ::-1][:, :K].sum(axis=1)
    return allocated, best


def efficiency_ratio(valuations: np.ndarray, winners: np.ndarray, K: int) -> np.ndarray:
    """Allocated value over the best attainable (sum of the K highest marginal
    values), per auction. 1 where the denominator is 0."""
    allocated, best = _allocated_and_best(valuations, winners, K)
    return np.where(best == 0.0, 1.0, np.minimum(allocated / np.where(best == 0.0, 1.0, best), 1.0))


def efficiency_gap(valuations: np.ndarray, winners: np.ndarray, K: int) -> np.ndarray:
    """Difference form, per auction: top-K value sum minus allocated value sum
    (0 = efficient)."""
    allocated, best = _allocated_and_best(valuations, winners, K)
    return np.maximum(best - allocated, 0.0)
