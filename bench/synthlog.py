"""Write a large, internally consistent run log for the `report_log` workload.

The log is simulated here with numpy, not by the program: private values are
uniform on [0, 10], each bidder bids two levels of the 0.5 grid drawn
uniformly up to its value plus a per-bidder overbid of 0 to 2 levels, the K
highest bids win (ties broken at random), and payments follow the rule. The
columns are written in the program's own order, which the caller passes in.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

# The tournament roster: (bidder id, algorithm label).
ROSTER = ((1, "ppo"), (2, "a2c"), (3, "dqn"), (4, "dpn"), (5, "ql"), (6, "vpg"))
UNITS = 2
LEVELS = 21
STEP = 0.5


def _reward(value, payoff):
    """The program's reward for a winning slot, vectorised (a losing slot
    earns -0.01)."""
    scale = np.maximum(value, 1.0)
    return np.where(payoff > 0, payoff / scale, -(value - payoff) / scale)


def simulate(seed: int, episodes: int, rule: str, K: int) -> tuple[dict, dict]:
    """Columns of the episode log (one row per bidder per episode, bidder
    order within an episode) and of the auction log (one row per episode)."""
    rng = np.random.default_rng(seed)
    n = len(ROSTER)
    values = rng.uniform(0.0, 10.0, size=(episodes, n))
    overbid = rng.integers(0, 3, size=n)
    cap = np.minimum(np.floor(values / STEP + 1e-9).astype(int) + overbid, LEVELS - 1)
    levels = np.floor(rng.random((episodes, n, UNITS)) * (cap[..., None] + 1)).astype(int)
    levels = -np.sort(-levels, axis=2)
    bids = levels * STEP

    flat = bids.reshape(episodes, n * UNITS)
    order = np.lexsort((rng.random(flat.shape), -flat), axis=1)
    ranked_bid = np.take_along_axis(flat, order, axis=1)
    ranked_bidder = order // UNITS

    slot_pay = np.zeros((episodes, K))
    if rule == "dp":
        slot_pay[:] = ranked_bid[:, :K]
    elif rule == "up":
        slot_pay[:] = ranked_bid[:, K : K + 1]
    elif rule == "gsp":
        for r in range(K):
            below = ranked_bidder[:, r + 1 :] != ranked_bidder[:, r : r + 1]
            first = below.argmax(axis=1)
            found = below.any(axis=1)
            slot_pay[:, r] = np.where(found, ranked_bid[:, r + 1 :][np.arange(episodes), first], 0.0)
    else:
        raise ValueError(f"unknown rule {rule!r}")

    rows = np.arange(episodes)
    units = np.zeros((episodes, n), dtype=int)
    payment = np.zeros((episodes, n))
    payoff = np.zeros((episodes, n))
    reward = np.zeros((episodes, n))
    for r in range(K):
        b = ranked_bidder[:, r]
        v = values[rows, b]
        p = slot_pay[:, r]
        np.add.at(units, (rows, b), 1)
        np.add.at(payment, (rows, b), p)
        np.add.at(payoff, (rows, b), v - p)
        np.add.at(reward, (rows, b), _reward(v, v - p))
    reward -= 0.01 * (UNITS - units)

    allocated = (values * units).sum(axis=1)
    best = np.sort(np.repeat(values, UNITS, axis=1), axis=1)[:, ::-1][:, :K].sum(axis=1)
    safe_best = np.where(best == 0.0, 1.0, best)
    efficiency = np.where(best == 0.0, 1.0, np.minimum(allocated / safe_best, 1.0))

    guard = np.maximum(values, 1e-6)
    episode_cols = {
        "episode": np.repeat(np.arange(episodes), n),
        "agent_id": np.tile([i for i, _ in ROSTER], episodes),
        "algo": np.tile([a for _, a in ROSTER], episodes),
        "value": values.ravel(),
        "bid1": bids[..., 0].ravel(),
        "bid2": bids[..., 1].ravel(),
        "units_won": units.ravel(),
        "payment_total": payment.ravel(),
        "payoff_total": payoff.ravel(),
        "reward_total": reward.ravel(),
        "learning_ratio1": ((values - bids[..., 0]) / guard).ravel(),
        "learning_ratio2": ((values - bids[..., 1]) / guard).ravel(),
        "bid_ratio1": (bids[..., 0] / guard).ravel(),
        "bid_ratio2": (bids[..., 1] / guard).ravel(),
    }
    auction_cols = {
        "episode": np.arange(episodes),
        "rule": np.full(episodes, rule),
        "K": np.full(episodes, K),
        "revenue": slot_pay.sum(axis=1),
        "efficiency_ratio": efficiency,
        "efficiency_gap": np.maximum(best - allocated, 0.0),
    }
    return episode_cols, auction_cols


def write_columns(path: Path, fieldnames, columns: dict) -> None:
    """CSV with LF endings, ints as integers and reals with six decimals."""
    unknown = [f for f in fieldnames if f not in columns]
    if unknown:
        raise KeyError(f"no generator for log columns {unknown}")
    fmt = ",".join("%.6f" if columns[f].dtype.kind == "f" else "%s" for f in fieldnames) + "\n"
    rows = zip(*(columns[f].tolist() for f in fieldnames))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(fieldnames) + "\n")
        fh.writelines(fmt % row for row in rows)


def write_log(run_dir: Path, seed: int, episodes: int, rule: str, K: int,
              episode_fields=None, auction_fields=None) -> None:
    """Simulate and write episodes.csv and auctions.csv; the column order
    defaults to the order simulate() returns them in."""
    run_dir.mkdir(parents=True, exist_ok=True)
    ep, au = simulate(seed, episodes, rule, K)
    episode_fields = list(episode_fields or ep)
    auction_fields = list(auction_fields or au)
    write_columns(run_dir / "episodes.csv", episode_fields, ep)
    write_columns(run_dir / "auctions.csv", auction_fields, au)


def alter_value(path: Path, row: int, column: str, delta: float) -> None:
    """Add delta to one real in a CSV log (row 0 is the first data row)."""
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)
    col = lines[0].rstrip("\n").split(",").index(column)
    cells = lines[row + 1].rstrip("\n").split(",")
    cells[col] = f"{float(cells[col]) + delta:.6f}"
    lines[row + 1] = ",".join(cells) + "\n"
    Path(path).write_text("".join(lines), encoding="utf-8")
