"""Metrics, CSV logs, summary tables, and SVG figures.

Logs and tables are columns: dicts mapping a column name to a 1-D numpy
array. Every writer is deterministic (fixed column order, 6-decimal
fixed-point reals, LF line endings) so identical runs produce byte-identical
files.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# Rows formatted at a time: bounds the memory that writing a log needs.
BLOCK_ROWS = 1024


def learning_ratio(value, bid):
    """(value - bid) / value with a zero-value guard, elementwise. Positive
    means underbidding (shading), negative overbidding, 0 truthful."""
    return (value - bid) / np.maximum(value, 1e-6)


def bid_ratio(value, bid):
    """Auxiliary bid/value form of the learning metric, elementwise."""
    return bid / np.maximum(value, 1e-6)


def rolling_mean(series, window: int) -> np.ndarray:
    """Trailing-window mean; partial windows average over available points,
    so any window at least the series' length gives the running mean."""
    if window < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(series, dtype=float)
    if x.size == 0:
        return x
    c = np.concatenate(([0.0], np.cumsum(x)))
    n = x.size
    hi = np.arange(1, n + 1)
    lo = np.maximum(hi - min(window, n), 0)
    return (c[hi] - c[lo]) / (hi - lo)


def distinct(a) -> np.ndarray:
    """The sorted distinct values of a 1-D array, as np.unique gives them;
    np.unique's first call imports numpy.ma, which a report would pay for on
    every run."""
    s = np.sort(a)
    keep = np.ones(s.size, bool)
    keep[1:] = s[1:] != s[:-1]
    return s[keep]


# Log columns, in file order (the summary-table columns are BIDDER_FIELDS and
# AUCTION_FIELDS below).
EPISODE_LOG_FIELDS = [
    "episode", "agent_id", "algo", "value", "bid1", "bid2", "units_won", "payment_total",
    "payoff_total", "reward_total", "learning_ratio1", "learning_ratio2", "bid_ratio1", "bid_ratio2",
]
AUCTION_LOG_FIELDS = ["episode", "rule", "K", "revenue", "efficiency_ratio", "efficiency_gap"]
# The numpy type of every log column that is not a real. Text cells hold at
# most eight characters: every algorithm tag and rule name fits.
_LOG_TYPES = {"episode": "i8", "agent_id": "i8", "units_won": "i8", "K": "i8", "algo": "U8", "rule": "U8"}


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Write through a temporary sibling that replaces `path` only once the
    block ends without an error: `path` is then either the whole new file or
    left as it was, and the sibling is removed."""
    path = Path(path)
    part = path.with_name(path.name + ".part")
    try:
        text = "b" not in mode
        with open(part, mode, encoding="utf-8" if text else None, newline="\n" if text else None) as fh:
            yield fh
        os.replace(part, path)
    finally:
        part.unlink(missing_ok=True)


@contextmanager
def csv_log(path, fieldnames):
    """A CSV file written through atomic_open, its header line already in
    place: write_csv appends rows to the open file this yields."""
    with atomic_open(path) as fh:
        fh.write(",".join(fieldnames) + "\n")
        yield fh


def write_csv(columns: dict, out, fieldnames) -> None:
    """CSV rows of the named columns, in fieldnames order: LF endings, reals
    with six decimals, everything else as str() writes it. `out` is either a
    text file open for writing, which gets the rows only, or a path, which
    gets a header line and the rows through csv_log."""
    if not hasattr(out, "write"):
        with csv_log(out, fieldnames) as fh:
            return write_csv(columns, fh, fieldnames)
    cols = [np.asarray(columns[f]) for f in fieldnames]
    fmt = ",".join("%.6f" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    for lo in range(0, len(cols[0]) if cols else 0, BLOCK_ROWS):
        block = (c[lo : lo + BLOCK_ROWS].tolist() for c in cols)
        out.write("".join(map(fmt.__mod__, zip(*block))))


def read_csv(path) -> dict:
    """The columns of a log that write_csv wrote, each typed by its name.

    Raises ValueError on an unknown column name, a row with the wrong number
    of cells, a cell that does not parse as its column's type or a real cell
    that is not finite."""
    with open(path, encoding="utf-8", newline="") as fh:
        names = fh.readline().rstrip("\n").split(",")
        unknown = [n for n in names if n not in EPISODE_LOG_FIELDS + AUCTION_LOG_FIELDS]
        if unknown:
            raise ValueError(f"{path}: unknown log columns {unknown}")
    dtype = np.dtype([(n, _LOG_TYPES.get(n, "f8")) for n in names])
    with warnings.catch_warnings():  # a log with a header only is a valid empty log
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # given a path, numpy reads the file in large chunks; an open file it reads line by line
        rows = np.loadtxt(path, delimiter=",", dtype=dtype, comments=None, quotechar=None, ndmin=1, skiprows=1,
                          encoding="utf-8")
    columns = {n: rows[n] for n in names}
    non_finite = [n for n in names if columns[n].dtype.kind == "f" and not np.isfinite(columns[n]).all()]
    if non_finite:
        raise ValueError(f"{path}: non-finite values in columns {non_finite}")
    return columns


def bidder_groups(ep: dict) -> tuple[list[tuple[int, str]], np.ndarray]:
    """The bidders of an episode log as (agent_id, algo) pairs, sorted, and
    each row's bidder as an index into that list."""
    keys, codes = _group(ep["agent_id"], ep["algo"])
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = np.empty(len(keys), np.intp)
    rank[order] = np.arange(len(keys))
    return [keys[i] for i in order], rank[codes]


def _group(aid, algo) -> tuple[list, np.ndarray]:
    """(agent_id, algo) pairs and each row's index into them, unsorted. The
    text column is compared once per algorithm an id logs, not per bidder:
    rows whose algo differs from that of the row picked for their id are
    grouped again."""
    ids = distinct(aid)
    codes = ids.searchsorted(aid)
    pick = np.empty(ids.size, np.intp)
    pick[codes] = np.arange(aid.size)  # some row of each id
    head = algo[pick]
    keys = list(zip(ids.tolist(), head.tolist()))
    other = algo != head[codes]
    if other.any():
        more, more_codes = _group(aid[other], algo[other])
        codes[other] = more_codes + len(keys)
        keys += more
    return keys, codes


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


def _columns(rows: list[dict], fieldnames) -> dict:
    return {f: np.array([r[f] for r in rows]) for f in fieldnames}


def summary_tables(ep: dict, au: dict, groups) -> tuple[dict, dict]:
    """Bidder table (ranked by total payoff, ties by bidder id) and auction
    revenue/efficiency table per (rule, K), both as columns; `groups` is
    bidder_groups(ep)."""
    keys, codes = groups
    n = len(keys)
    units = ep["units_won"]
    # bincount adds each bidder's rows in log order from +0.0, as a Python +=
    # loop does (signed zero included); x.sum() adds pairwise and can differ.
    payoffs = np.bincount(codes, ep["payoff_total"], n).tolist()
    costs = np.bincount(codes, ep["payment_total"], n).tolist()
    items_won = np.bincount(codes, units, n).astype(np.int64).tolist()
    winning = np.bincount(codes[units > 0], minlength=n).tolist()
    episodes = np.bincount(codes, minlength=n).tolist()
    bidders = []
    for (aid, algo), payoff, cost, items, wins, size in zip(keys, payoffs, costs, items_won, winning, episodes):
        bidders.append(
            {
                "id": aid,
                "type": algo,
                "payoff_total": payoff,
                "payoff_mean": payoff / items if items else 0.0,
                "cost_mean": cost / items if items else 0.0,
                "items_won": items,
                "payoff_mean_per_episode": payoff / size,
                "payoff_mean_per_winning_episode": payoff / wins if wins else 0.0,
            }
        )
    bidders.sort(key=lambda b: (-b["payoff_total"], b["id"]))
    for rank, b in enumerate(bidders, start=1):
        b["rank"] = rank

    auctions = []
    for rule in distinct(au["rule"]).tolist():
        of_rule = au["rule"] == rule
        for K in distinct(au["K"][of_rule]).tolist():
            m = of_rule & (au["K"] == K)
            rev, eff = au["revenue"][m], au["efficiency_ratio"][m]
            stats = (rev.sum(), rev.mean(), rev.min(), rev.max(), eff.mean(), eff.min(), eff.max())
            auctions.append(dict(zip(AUCTION_FIELDS, (rule, K, *map(float, stats)))))
    return _columns(bidders, BIDDER_FIELDS), _columns(auctions, AUCTION_FIELDS)


def _fmt(v) -> str:
    return f"{v:.6f}" if isinstance(v, float) else str(v)


def format_table(columns: dict, fieldnames) -> str:
    """Aligned plain-text table of the named columns."""
    rows = zip(*(np.asarray(columns[f]).tolist() for f in fieldnames))
    cells = [[_fmt(v) for v in row] for row in rows]
    widths = [max(len(f), *(len(c[i]) for c in cells)) if cells else len(f) for i, f in enumerate(fieldnames)]
    lines = ["  ".join(f.ljust(w) for f, w in zip(fieldnames, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for c in cells:
        lines.append("  ".join(v.ljust(w) for v, w in zip(c, widths)))
    return "\n".join(lines) + "\n"


# --- SVG line charts --------------------------------------------------------

# Points drawn per polyline; the axes and the episode count use the full series.
MAX_POLYLINE_POINTS = 2000
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
    arrays = {label: np.asarray(s, dtype=float) for label, s in series.items()}
    filled = [a for a in arrays.values() if a.size]
    lo = min((float(a.min()) for a in filled), default=0.0)
    hi = max((float(a.max()) for a in filled), default=0.0)
    if hi - lo < 1e-12:
        lo, hi = lo - 1.0, hi + 1.0
    n = max((a.size for a in arrays.values()), default=1)
    for ci, (label, arr) in enumerate(sorted(arrays.items())):
        if arr.size == 0:
            continue
        # At most MAX_POLYLINE_POINTS evenly spaced points, the first and last kept.
        idx = np.linspace(0, arr.size - 1, min(arr.size, MAX_POLYLINE_POINTS)).round().astype(np.intp)
        xs = px + pw * (idx / max(arr.size - 1, 1))
        ys = py + ph * (1.0 - (arr[idx] - lo) / (hi - lo))
        pts = " ".join(map("%.2f,%.2f".__mod__, zip(xs.tolist(), ys.tolist())))
        color = _COLORS[ci % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1"/>')
        parts.append(
            f'<text x="{px + 4:.1f}" y="{py + 12 + 12 * ci:.1f}" font-size="10" fill="{color}">{label}</text>'
        )
    parts.append(f'<text x="{px - 4:.1f}" y="{py + 4:.1f}" text-anchor="end" font-size="9">{hi:.2f}</text>')
    parts.append(f'<text x="{px - 4:.1f}" y="{py + ph:.1f}" text-anchor="end" font-size="9">{lo:.2f}</text>')
    parts.append(f'<text x="{px + pw:.1f}" y="{py + ph + 12:.1f}" text-anchor="end" font-size="9">{n}</text>')
    return parts


def emit_svg(panes, path) -> None:
    """SVG 1.1 grid of 320x200 line-chart panes, three to a row: panes is a
    list of (title, {label: series}). Empty series render axes only."""
    pane_width, pane_height = 320, 200
    panes = list(panes)
    ncols = max(1, min(3, len(panes) or 1))
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
    with atomic_open(path) as fh:
        fh.write("\n".join(parts) + "\n")
