"""Metrics, CSV logs, summary tables, and SVG figures.

Log rows are flat records; every writer is deterministic (fixed column order,
6-decimal fixed-point reals, LF line endings) so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np


def learning_ratio(value: float, bid: float) -> float:
    """(value - bid) / value with a zero-value guard. Positive means
    underbidding (shading), negative overbidding, 0 truthful."""
    return (value - bid) / max(value, 1e-6)


def bid_ratio(value: float, bid: float) -> float:
    """Auxiliary bid/value form of the learning metric."""
    return bid / max(value, 1e-6)


def rolling_mean(series, window: int = 1000) -> np.ndarray:
    """Trailing-window mean; partial windows average over available points."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        return x
    c = np.concatenate(([0.0], np.cumsum(x)))
    n = x.size
    hi = np.arange(1, n + 1)
    lo = np.maximum(hi - window, 0)
    return (c[hi] - c[lo]) / (hi - lo)


@dataclass
class EpisodeLogRow:
    episode: int
    agent_id: int
    algo: str
    value: float
    bid1: float
    bid2: float
    units_won: int
    payment_total: float
    payoff_total: float
    reward_total: float
    learning_ratio1: float
    learning_ratio2: float
    bid_ratio1: float
    bid_ratio2: float


@dataclass
class AuctionLogRow:
    episode: int
    rule: str
    K: int
    revenue: float
    efficiency_ratio: float
    efficiency_gap: float


# Log columns, in file order (the summary-table columns are BIDDER_FIELDS and
# AUCTION_FIELDS below).
EPISODE_LOG_FIELDS = [f.name for f in fields(EpisodeLogRow)]
AUCTION_LOG_FIELDS = [f.name for f in fields(AuctionLogRow)]


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def write_csv(rows, path, fieldnames=None) -> None:
    """RFC-4180 CSV with LF endings and 6-decimal fixed-point reals."""
    rows = list(rows)
    if fieldnames is None:
        if not rows:
            raise ValueError("fieldnames required for empty row sets")
        first = rows[0]
        if hasattr(first, "__dataclass_fields__"):
            fieldnames = [f.name for f in fields(first)]
        else:
            fieldnames = list(first.keys())
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(fieldnames)
    for r in rows:
        if hasattr(r, "__dataclass_fields__"):
            w.writerow([_fmt(getattr(r, f)) for f in fieldnames])
        else:
            w.writerow([_fmt(r[f]) for f in fieldnames])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def read_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def summary_tables(episode_rows, auction_rows):
    """Bidder table (ranked by total payoff, ties by bidder id) and auction
    revenue/efficiency table per (rule, K)."""
    by_bidder: dict[tuple[int, str], dict] = {}
    for r in episode_rows:
        key = (r.agent_id, r.algo)
        acc = by_bidder.setdefault(
            key,
            {"payoff": 0.0, "cost": 0.0, "items": 0, "episodes": 0, "winning_episodes": 0},
        )
        acc["payoff"] += r.payoff_total
        acc["cost"] += r.payment_total
        acc["items"] += r.units_won
        acc["episodes"] += 1
        if r.units_won > 0:
            acc["winning_episodes"] += 1

    ranked = sorted(by_bidder.items(), key=lambda kv: (-kv[1]["payoff"], kv[0][0]))
    bidder_table = []
    for rank, ((aid, algo), acc) in enumerate(ranked, start=1):
        items = acc["items"]
        wins = acc["winning_episodes"]
        eps = acc["episodes"]
        bidder_table.append(
            {
                "rank": rank,
                "id": aid,
                "type": algo,
                "payoff_total": acc["payoff"],
                "payoff_mean": acc["payoff"] / items if items else 0.0,
                "cost_mean": acc["cost"] / items if items else 0.0,
                "items_won": items,
                "payoff_mean_per_episode": acc["payoff"] / eps if eps else 0.0,
                "payoff_mean_per_winning_episode": acc["payoff"] / wins if wins else 0.0,
            }
        )

    by_auction: dict[tuple[str, int], dict] = {}
    for r in auction_rows:
        key = (r.rule, r.K)
        acc = by_auction.setdefault(key, {"rev": [], "eff": []})
        acc["rev"].append(r.revenue)
        acc["eff"].append(r.efficiency_ratio)
    auction_table = []
    for (rule, K), acc in sorted(by_auction.items()):
        rev = np.array(acc["rev"])
        eff = np.array(acc["eff"])
        auction_table.append(
            {
                "rule": rule,
                "K": K,
                "revenue_total": float(rev.sum()),
                "revenue_mean": float(rev.mean()),
                "revenue_min": float(rev.min()),
                "revenue_max": float(rev.max()),
                "efficiency_mean": float(eff.mean()),
                "efficiency_min": float(eff.min()),
                "efficiency_max": float(eff.max()),
            }
        )
    return bidder_table, auction_table


BIDDER_FIELDS = [
    "rank",
    "id",
    "type",
    "payoff_total",
    "payoff_mean",
    "cost_mean",
    "items_won",
    "payoff_mean_per_episode",
    "payoff_mean_per_winning_episode",
]
AUCTION_FIELDS = [
    "rule",
    "K",
    "revenue_total",
    "revenue_mean",
    "revenue_min",
    "revenue_max",
    "efficiency_mean",
    "efficiency_min",
    "efficiency_max",
]


def format_table(rows, fieldnames) -> str:
    """Aligned plain-text table."""
    cells = [[_fmt(r[f]) for f in fieldnames] for r in rows]
    widths = [max(len(f), *(len(c[i]) for c in cells)) if cells else len(f) for i, f in enumerate(fieldnames)]
    lines = ["  ".join(f.ljust(w) for f, w in zip(fieldnames, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    return "\n".join(lines) + "\n"


# --- SVG line charts --------------------------------------------------------

_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b"]


def _pane_svg(x0: float, y0: float, w: float, h: float, title: str, series: dict) -> list[str]:
    pad = 34.0
    px, py = x0 + pad, y0 + pad * 0.7
    pw, ph = w - pad - 10, h - pad * 1.7
    parts = [
        f'<rect x="{x0:.1f}" y="{y0:.1f}" width="{w:.1f}" height="{h:.1f}" fill="none"/>',
        f'<text x="{x0 + w / 2:.1f}" y="{y0 + 14:.1f}" text-anchor="middle" font-size="12">{title}</text>',
        f'<line x1="{px:.1f}" y1="{py:.1f}" x2="{px:.1f}" y2="{py + ph:.1f}" stroke="#000" stroke-width="1"/>',
        f'<line x1="{px:.1f}" y1="{py + ph:.1f}" x2="{px + pw:.1f}" y2="{py + ph:.1f}" stroke="#000" stroke-width="1"/>',
    ]
    all_vals = [v for s in series.values() for v in np.asarray(s, dtype=float)] or [0.0]
    lo, hi = float(min(all_vals)), float(max(all_vals))
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    n = max((len(np.asarray(s)) for s in series.values()), default=1)
    for ci, (label, s) in enumerate(sorted(series.items())):
        arr = np.asarray(s, dtype=float)
        if arr.size == 0:
            continue
        xs = px + pw * (np.arange(arr.size) / max(arr.size - 1, 1))
        ys = py + ph * (1.0 - (arr - lo) / (hi - lo))
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        color = _COLORS[ci % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>')
        parts.append(
            f'<text x="{px + 4:.1f}" y="{py + 12 + 12 * ci:.1f}" font-size="10" fill="{color}">{label}</text>'
        )
    parts.append(f'<text x="{px - 4:.1f}" y="{py + 4:.1f}" text-anchor="end" font-size="9">{hi:.2f}</text>')
    parts.append(f'<text x="{px - 4:.1f}" y="{py + ph:.1f}" text-anchor="end" font-size="9">{lo:.2f}</text>')
    parts.append(f'<text x="{px + pw:.1f}" y="{py + ph + 12:.1f}" text-anchor="end" font-size="9">{n}</text>')
    return parts


def emit_svg(panes, path, pane_width: int = 320, pane_height: int = 200, columns: int = 3) -> None:
    """SVG 1.1 grid of line-chart panes: panes is a list of
    (title, {label: series}). Empty series render axes only."""
    panes = list(panes)
    ncols = max(1, min(columns, len(panes) or 1))
    nrows = (len(panes) + ncols - 1) // ncols if panes else 1
    W, H = ncols * pane_width, nrows * pane_height
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}" font-family="sans-serif">',
        f'<rect x="0" y="0" width="{W}" height="{H}" fill="#ffffff"/>',
    ]
    if not panes:
        parts += _pane_svg(0, 0, pane_width, pane_height, "", {})
    for i, (title, series) in enumerate(panes):
        r, c = divmod(i, ncols)
        parts += _pane_svg(c * pane_width, r * pane_height, pane_width, pane_height, title, series)
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8")
