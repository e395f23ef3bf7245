"""Independent checks of what the maulab commands wrote.

Every check reads only the files a command left behind (CSV logs, report
tables, SVG figures, checkpoint files) and recomputes what they must hold
from the rules of the auction, never from a stored copy of earlier output.
Each function returns a list of problems; an empty list means the output
passed.

Logged reals carry six decimals, so every comparison allows for rounding of
the logged inputs (5e-7 each) and of the logged result.
"""

from __future__ import annotations

import hashlib
import json
import struct
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np

HALF_ULP = 5e-7  # half a unit in the sixth decimal
UNITS = 2  # units demanded per bidder


def read_log(path: Path) -> dict:
    """Columns of a CSV log by header name: text columns as str arrays, the
    rest as float64."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        first = fh.readline().rstrip("\n").split(",")
    text = [i for i, v in enumerate(first) if not _is_number(v)]
    numeric = [i for i in range(len(header)) if i not in text]
    cols = {}
    if numeric:
        data = np.loadtxt(path, delimiter=",", skiprows=1, usecols=numeric, ndmin=2)
        cols.update({header[i]: data[:, j] for j, i in enumerate(numeric)})
    for i in text:
        cols[header[i]] = np.loadtxt(path, delimiter=",", skiprows=1, usecols=[i], dtype=str, ndmin=1)
    return cols


def _is_number(s: str) -> bool:
    try:
        float(s)
    except ValueError:
        return False
    return True


def _bad(mask: np.ndarray, what: str, index=None) -> list[str]:
    if not np.any(mask):
        return []
    rows = np.flatnonzero(mask.ravel())
    where = rows if index is None else np.asarray(index).ravel()[rows]
    return [f"{what}: {rows.size} rows, first at episode {int(where[0])}"]


def check_session(run_dir: Path, rule: str, K: int, roster, episodes: int, random_ids=()) -> list[str]:
    """Check one session's episodes.csv and auctions.csv.

    roster is the (bidder id, algorithm) list in logged order; bidders in
    random_ids are the random baseline, which never bids above its value."""
    try:
        ep = read_log(run_dir / "episodes.csv")
        au = read_log(run_dir / "auctions.csv")
    except (OSError, ValueError) as e:
        return [f"{run_dir}: unreadable log: {e}"]
    n = len(roster)
    probs: list[str] = []
    if ep["episode"].size != episodes * n or au["episode"].size != episodes:
        return [f"{run_dir}: {ep['episode'].size} bidder rows and {au['episode'].size} auctions, "
                f"expected {episodes * n} and {episodes}"]
    if episodes == 0:
        return probs

    def grid(name):
        return ep[name].reshape(episodes, n)

    eps = np.arange(episodes)
    probs += _bad(grid("episode") != eps[:, None], "episode column out of order", np.repeat(eps, n))
    probs += _bad(au["episode"] != eps, "auction episode column out of order", eps)
    probs += _bad(grid("agent_id") != np.array([i for i, _ in roster])[None, :], "roster ids", np.repeat(eps, n))
    probs += _bad(ep["algo"].reshape(episodes, n) != np.array([a for _, a in roster])[None, :],
                  "roster algorithms", np.repeat(eps, n))
    probs += _bad(au["rule"] != rule, f"rule is not {rule}", eps)
    probs += _bad(au["K"] != K, f"K is not {K}", eps)

    v = grid("value")
    b = np.stack([grid("bid1"), grid("bid2")], axis=2)
    u = grid("units_won").astype(int)
    pay = grid("payment_total")
    row_ep = np.repeat(eps, n)

    # Bids: on the 0.5 grid, inside [0, 10], each bidder's pair weakly decreasing.
    probs += _bad(np.abs(b * 2 - np.round(b * 2)) > 1e-9, "bid off the 0.5 grid", np.repeat(row_ep, UNITS))
    probs += _bad((b < 0) | (b > 10), "bid outside [0, 10]", np.repeat(row_ep, UNITS))
    probs += _bad(b[..., 0] < b[..., 1], "bid1 below bid2", row_ep)
    for col, (aid, _) in enumerate(roster):
        if aid in random_ids:
            over = b[:, col, :] > v[:, col, None] + HALF_ULP + 1e-9
            probs += _bad(over, f"random bidder {aid} bid above its value", np.repeat(eps, UNITS))

    # Allocation: exactly K units, and no losing bid above a winning one.
    probs += _bad(u.sum(axis=1) != K, f"units allocated differ from K={K}", eps)
    probs += _bad((u < 0) | (u > UNITS), "units_won out of range", row_ep)
    won = np.arange(UNITS)[None, None, :] < u[..., None]
    lowest_win = np.where(won, b, np.inf).min(axis=(1, 2))
    highest_loss = np.where(won, -np.inf, b).max(axis=(1, 2))
    probs += _bad(lowest_win < highest_loss, "a losing bid beats a winning bid", eps)

    # Payments follow the rule.
    lo, hi = _payment_bounds(rule, b, won, highest_loss)
    tol = UNITS * 1e-9 + HALF_ULP
    probs += _bad((pay < lo - tol) | (pay > hi + tol), f"payment breaks the {rule} rule", row_ep)
    probs += _bad(np.abs(pay.sum(axis=1) - au["revenue"]) > (n + 1) * HALF_ULP,
                  "payments do not sum to revenue", eps)
    payoff = u * v - pay
    probs += _bad(np.abs(grid("payoff_total") - payoff) > (UNITS + 2) * HALF_ULP,
                  "payoff differs from units x value - payment", row_ep)

    # Efficiency: allocated value over the best K marginal values.
    allocated = (v * u).sum(axis=1)
    best = np.sort(np.repeat(v, UNITS, axis=1), axis=1)[:, ::-1][:, :K].sum(axis=1)
    ratio = np.where(best > 0, np.minimum(allocated / np.where(best > 0, best, 1.0), 1.0), 1.0)
    err = K * HALF_ULP * (1.0 + ratio) / np.maximum(best, 1e-12) + HALF_ULP + 1e-9
    probs += _bad(np.abs(au["efficiency_ratio"] - ratio) > err, "efficiency_ratio recomputed differs", eps)
    gap = np.maximum(best - allocated, 0.0)
    probs += _bad(np.abs(au["efficiency_gap"] - gap) > (2 * K + 1) * HALF_ULP, "efficiency_gap recomputed differs", eps)

    # Learning and bid ratios: (value - bid) / value and bid / value. Both are
    # monotone in value, so bound them over the value's rounding interval.
    def ratio_ok(name, slot, fn):
        lo_v, hi_v = fn(v - HALF_ULP, b[..., slot]), fn(v + HALF_ULP, b[..., slot])
        r = grid(name)
        slack = HALF_ULP + 1e-9 * np.abs(r)
        return _bad((r < np.minimum(lo_v, hi_v) - slack) | (r > np.maximum(lo_v, hi_v) + slack),
                    f"{name} recomputed differs", row_ep)

    def learning(x, bid):
        return (x - bid) / np.maximum(x, 1e-6)

    def bidr(x, bid):
        return bid / np.maximum(x, 1e-6)

    for slot in range(UNITS):
        probs += ratio_ok(f"learning_ratio{slot + 1}", slot, learning)
        probs += ratio_ok(f"bid_ratio{slot + 1}", slot, bidr)
    return [f"{run_dir.name}: {p}" for p in probs]


def _payment_bounds(rule, b, won, highest_loss):
    """Lowest and highest payment each bidder's winning slots allow.

    dp pays each winning bid; up pays units x the highest losing bid; gsp
    pays, per winning slot, the highest bid ranked below it from another
    bidder. The logs do not record how ties were broken, so under gsp a slot
    whose bid equals another bidder's winning bid is bounded by the highest
    other bid strictly below it and by its own bid; it is exact otherwise."""
    E, n, k = b.shape
    if rule == "dp":
        pay = np.where(won, b, 0.0).sum(axis=2)
        return pay, pay
    if rule == "up":
        pay = won.sum(axis=2) * highest_loss[:, None]
        return pay, pay
    if rule != "gsp":
        raise ValueError(f"unknown rule {rule!r}")
    lo = np.zeros((E, n))
    hi = np.zeros((E, n))
    for i in range(n):
        others = np.delete(b, i, axis=1).reshape(E, -1)
        others_won = np.delete(won, i, axis=1).reshape(E, -1)
        for j in range(k):
            beta = b[:, i, j][:, None]
            below = np.where(others < beta, others, 0.0).max(axis=1)
            tie = others == beta
            tie_lost = (tie & ~others_won).any(axis=1)
            tie_won = (tie & others_won).any(axis=1)
            slot_lo = np.where(tie_lost, beta[:, 0], below)
            slot_hi = np.where(tie_lost | tie_won, beta[:, 0], below)
            lo[:, i] += np.where(won[:, i, j], slot_lo, 0.0)
            hi[:, i] += np.where(won[:, i, j], slot_hi, 0.0)
    return lo, hi


# --- checkpoints ------------------------------------------------------------

def read_checkpoint(path: Path) -> tuple[dict, dict]:
    """Header and arrays of a checkpoint file, parsed from its documented
    layout: b"MAUL", u32 version, u32 header length, JSON header, float64
    arrays in header order, SHA-256 of everything before it."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"MAUL" or hashlib.sha256(raw[:-32]).digest() != raw[-32:]:
        raise ValueError(f"{path}: bad magic or checksum")
    _, hlen = struct.unpack("<II", raw[4:12])
    header = json.loads(raw[12 : 12 + hlen])
    off = 12 + hlen
    arrays = {}
    for spec in header["arrays"]:
        count = int(np.prod(spec["shape"], dtype=int))
        arrays[spec["name"]] = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(spec["shape"])
        off += 8 * count
    if off != len(raw) - 32:
        raise ValueError(f"{path}: payload length does not match its header")
    return header, arrays


def check_same_arrays(loaded: Path, saved: Path) -> list[str]:
    """A frozen agent's output checkpoint must hold the arrays it loaded."""
    try:
        _, a = read_checkpoint(loaded)
        _, b = read_checkpoint(saved)
    except (OSError, ValueError) as e:
        return [str(e)]
    if list(a) != list(b):
        return [f"{saved.name}: arrays {sorted(b)} differ from loaded {sorted(a)}"]
    return [f"{saved.name}: array {k} changed while frozen" for k in a if not np.array_equal(a[k], b[k])]


# --- report -------------------------------------------------------------------

def check_report(log_dir: Path, report_dir: Path) -> list[str]:
    """The report's tables must equal numpy aggregates of the log, and its
    figures must parse as SVG."""
    probs: list[str] = []
    try:
        ep = read_log(log_dir / "episodes.csv")
        au = read_log(log_dir / "auctions.csv")
        bidders = read_log(report_dir / "table_bidders.csv")
        auctions = read_log(report_dir / "table_auctions.csv")
    except (OSError, ValueError) as e:
        return [f"unreadable report input or output: {e}"]

    ids = np.unique(ep["agent_id"])
    expect = []
    for aid in ids:
        m = ep["agent_id"] == aid
        payoff = ep["payoff_total"][m].sum()
        items = ep["units_won"][m].sum()
        wins = np.count_nonzero(ep["units_won"][m] > 0)
        expect.append({
            "id": aid,
            "type": ep["algo"][m][0],
            "payoff_total": payoff,
            "payoff_mean": payoff / items if items else 0.0,
            "cost_mean": ep["payment_total"][m].sum() / items if items else 0.0,
            "items_won": items,
            "payoff_mean_per_episode": payoff / np.count_nonzero(m),
            "payoff_mean_per_winning_episode": payoff / wins if wins else 0.0,
        })
    expect.sort(key=lambda r: (-r["payoff_total"], r["id"]))
    if bidders.get("rank") is None or bidders["rank"].size != len(expect):
        return [f"bidder table has {bidders.get('rank', np.empty(0)).size} rows, expected {len(expect)}"]
    probs += _bad(bidders["rank"] != np.arange(1, len(expect) + 1), "bidder ranks are not 1..n")
    for col in expect[0]:
        want = np.array([r[col] for r in expect])
        got = bidders[col]
        if want.dtype.kind in "US":
            ok = got == want
        else:
            ok = np.abs(got - want) <= HALF_ULP * 2 + 1e-9 * np.abs(want)
        probs += [f"bidder table column {col} differs from the log"] if not np.all(ok) else []

    rev, eff = au["revenue"], au["efficiency_ratio"]
    want_auction = {
        "K": au["K"][0], "revenue_total": rev.sum(), "revenue_mean": rev.mean(),
        "revenue_min": rev.min(), "revenue_max": rev.max(), "efficiency_mean": eff.mean(),
        "efficiency_min": eff.min(), "efficiency_max": eff.max(),
    }
    if auctions.get("rule") is None or auctions["rule"].size != 1 or auctions["rule"][0] != au["rule"][0]:
        probs.append("auction table should have one row for the log's rule")
    else:
        for col, want in want_auction.items():
            got = auctions.get(col)
            if got is None or abs(got[0] - want) > HALF_ULP * 2 + 1e-9 * abs(want):
                probs.append(f"auction table column {col} differs from the log")

    for name in ("fig_learning_ratio.svg", "fig_revenue.svg", "fig_efficiency.svg"):
        try:
            root = ET.parse(report_dir / name).getroot()
        except (OSError, ET.ParseError) as e:
            probs.append(f"{name}: {e}")
            continue
        if not root.tag.endswith("svg"):
            probs.append(f"{name}: root element is {root.tag}, not svg")
    return probs
