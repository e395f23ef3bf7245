"""Metrics, CSV logs, summary tables, and SVG figures.

Logs and tables are columns: dicts mapping a column name to a 1-D numpy
array. Every writer is deterministic (fixed column order, 6-decimal
fixed-point reals, LF line endings) so identical runs produce byte-identical
files. A CSV cell is `"%.6f" % float(v)` for a real and `str(v)` for any
other value, to the byte; write_csv renders most cells from digit tables and
leaves the rest to the `%` operator (see its docstring). A figure point is
`"%.2f,%.2f" % (x, y)`, rendered the same way (_points_text).
"""

from __future__ import annotations

import io
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
    """CSV rows of the named columns, in fieldnames order, LF endings. Each
    cell is exactly what `"%.6f" % float(v)` gives for a real column and what
    `str(v)` gives for any other, v being the cell's `.tolist()` value. `out`
    is either a text file open for writing, which gets the rows only, or a
    path, which gets a header line and the rows through csv_log.

    Rows are rendered BLOCK_ROWS at a time from digit tables (_rows_text).
    A chunk is formatted by the `%` operator instead when it holds a cell the
    tables do not cover: a real that is not finite, is 2**52 / 1e6 or more
    in magnitude, or whose |x| * 1e6 in float64 ends in exactly .5; a text
    cell that is not ASCII or holds a NUL before its last character; or any
    cell of a column that is not real, integer or text (bool and object
    columns, say)."""
    if not hasattr(out, "write"):
        with csv_log(out, fieldnames) as fh:
            return write_csv(columns, fh, fieldnames)
    cols = [np.asarray(columns[f]) for f in fieldnames]
    fmt = ",".join("%.6f" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    for lo in range(0, len(cols[0]) if cols else 0, BLOCK_ROWS):
        out.write(_rows_text([c[lo : lo + BLOCK_ROWS] for c in cols], fmt))


def _digit_tables():
    """4-byte words of ASCII digits padded with NUL bytes, indexed by a 3-digit
    group g. GROUP[g], GROUP[1000 + g] and GROUP[2000 + g] are g with no
    leading zeros, the same after a '-' (both empty for 0), and g's three
    digits. LAST is GROUP with 0 written "0" and "-0". DOT[g] is "." and g's
    digits, END[g] g's digits and ",", and COMMA "," alone: a comma is the
    last byte of its word."""
    ddd = np.zeros((10, 10, 10, 4), np.uint8)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    ddd[..., 1], ddd[..., 2], ddd[..., 3] = digit[:, None, None], digit[:, None], digit
    ddd = ddd.reshape(1000, 4)  # "\0ddd"
    pos = ddd.copy()  # g with no leading zeros
    pos[:100, 1], pos[:10, 2] = 0, 0
    neg = pos.copy()  # and a '-' before it
    neg[100:, 0], neg[10:100, 1], neg[:10, 2] = ord("-"), ord("-"), ord("-")
    dot, end = ddd.copy(), np.zeros_like(ddd)
    dot[:, 0], end[:, :3], end[:, 3] = ord("."), ddd[:, 1:], ord(",")
    last = np.concatenate([pos, neg, ddd]).view(np.uint32).ravel()
    group = last.copy()
    group[[0, 1000]] = 0
    comma = np.array([0, 0, 0, ord(",")], np.uint8).view(np.uint32)[0]
    return group, last, dot.view(np.uint32).ravel(), end.view(np.uint32).ravel(), comma


_GROUP, _LAST, _DOT, _END, _COMMA = _digit_tables()


def _scaled(x, scale: float) -> tuple[np.ndarray, bool]:
    """rint(|x| * scale) as int64, and whether that is the exact product's
    nearest integer for every x, as the `%` operator rounds it. Below
    2**52 / scale, y = |x| * scale is below 2**52, where every k + 1/2 is a
    float64. Rounding to float64 is monotone, so y lies on the same side of
    each k + 1/2 as the exact product does, unless y is k + 1/2 itself. The
    flag is False when some x is not finite, is 2**52 / scale or more in
    magnitude, or has such a y."""
    a = np.abs(x)
    fast = a < 2.0**52 / scale  # False for nan and inf too
    a[~fast] = 0.0  # before the scaling: 1e303 * 1e6 overflows
    y = a * scale
    r = np.rint(y)
    return r.astype(np.int64), bool((fast & (np.abs(y - r) != 0.5)).all())


def _groups(v, n: int) -> list:
    """The n 3-digit groups of each 64-bit integer v >= 0, most significant
    first, as int64 indices; v is below 1000**n."""
    low = []
    for _ in range(n - 1):
        high = v // 1000
        low.append((v - high * 1000).view(np.int64))
        v = high
    return [v.view(np.int64), *reversed(low)]


def _ngroups(top: int) -> int:
    return -(-len(str(top)) // 3)


def _sign_and_groups(groups: list, neg) -> list:
    """Words of integer parts: groups above the first nonzero one print
    nothing, and the first nonzero one (or the last) prints after the sign."""
    base = neg * 1000  # 2000 once a group has printed
    words = []
    for g in groups[:-1]:
        words.append(_GROUP[g + base])
        base = np.where(g != 0, 2000, base)
    return words + [_LAST[groups[-1] + base]]


def _rows_text(cols: list, fmt: str) -> str:
    """The CSV text of one chunk of rows, equal to `fmt % row` for each row.
    Every cell is written as 4-byte words from the digit tables, a cell's
    words one after another, into a matrix with a column per row; its
    transpose's bytes with the NUL bytes dropped are the text. A chunk holding
    a cell that the tables do not cover (see write_csv) is formatted by `fmt`
    row by row instead."""
    n = cols[0].size
    kinds = ["i" if c.dtype.kind == "u" else c.dtype.kind for c in cols]
    by_kind = {kind: [c for c, k in zip(cols, kinds) if k == kind] for kind in set(kinds)}
    bad = not set(kinds) <= {"f", "i", "U"}  # a bool or object column, say
    cells = {}  # per kind, each column's words: a list of (n,) arrays, its top groups' empty words left out
    comma = np.full(n, _COMMA)
    if "f" in by_kind:
        x = np.stack(by_kind["f"], dtype=np.float64)
        v, exact = _scaled(x, 1e6)
        bad |= not exact
        width = [_ngroups(top // 10**6) for top in v.max(1).tolist()]  # each column's integer-part groups
        *whole, f1, f2 = _groups(v, max(width) + 2)
        words = [*_sign_and_groups(whole, np.signbit(x)), _DOT[f1], _END[f2]]
        cells["f"] = [[w[j] for w in words[len(whole) - g :]] for j, g in enumerate(width)]
    if "i" in by_kind:
        u = np.stack(by_kind["i"], dtype=np.uint64, casting="unsafe")  # two's complement
        neg = (u >= 2**63) & np.array([[c.dtype.kind == "i"] for c in by_kind["i"]])
        u = np.where(neg, -u, u)
        width = [_ngroups(top) for top in u.max(1).tolist()]
        words = _sign_and_groups(_groups(u, max(width)), neg)
        cells["i"] = [[w[j] for w in words[len(words) - g :]] + [comma] for j, g in enumerate(width)]
    if "U" in by_kind:
        code = np.stack(by_kind["U"])
        code = code.view(np.uint32).reshape(*code.shape, -1)  # code points: (columns, rows, characters)
        odd = code >= 128
        odd[..., :-1] |= (code[..., :-1] == 0) & (code[..., 1:] != 0)  # a NUL that str() keeps
        bad |= odd.any()
        chars = np.zeros((*code.shape[:2], -(-code.shape[2] // 4) * 4), np.uint8)
        chars[..., : code.shape[2]] = code
        words = chars.view(np.uint32)
        cells["U"] = [[*words[j].T, comma] for j in range(len(words))]
    if bad:
        return "".join(map(fmt.__mod__, zip(*(c.tolist() for c in cols))))
    column = {kind: iter(c) for kind, c in cells.items()}
    table = np.stack([w for kind in kinds for w in next(column[kind])])  # a row per word, a column per row
    table[-1].view(np.uint8)[3::4] = ord("\n")  # the last cell's comma
    return table.T.tobytes().translate(None, b"\0").decode("ascii")


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


def summary_tables(ep: dict, au: dict, groups) -> tuple[dict, dict]:
    """Bidder table (ranked by total payoff, ties in bidder_groups order: by
    bidder id) and auction revenue/efficiency table per (rule, K), both as
    columns; `groups` is bidder_groups(ep)."""
    keys, codes = groups
    n = len(keys)
    units = ep["units_won"]
    # bincount adds each bidder's rows in log order from +0.0, as a Python +=
    # loop does (signed zero included); x.sum() adds pairwise and can differ.
    payoff = np.bincount(codes, ep["payoff_total"], n)
    cost = np.bincount(codes, ep["payment_total"], n)
    items = np.bincount(codes, units, n).astype(np.int64)
    wins = np.bincount(codes[units > 0], minlength=n)

    def mean(total, count):  # 0.0 where count is 0
        return np.divide(total, count, out=np.zeros(n), where=count > 0)

    ids = np.array([aid for aid, _ in keys], np.int64)
    columns = (ids, np.array([algo for _, algo in keys]), payoff, mean(payoff, items), mean(cost, items), items,
               payoff / np.bincount(codes, minlength=n), mean(payoff, wins))
    order = np.lexsort((ids, -payoff))  # stable: equal keys keep bidder_groups order
    bidders = {"rank": np.arange(1, n + 1), **{f: c[order] for f, c in zip(BIDDER_FIELDS[1:], columns)}}

    auctions = []
    for rule in distinct(au["rule"]).tolist():
        of_rule = au["rule"] == rule
        for K in distinct(au["K"][of_rule]).tolist():
            m = of_rule & (au["K"] == K)
            rev, eff = au["revenue"][m], au["efficiency_ratio"][m]
            auctions.append((rule, K, rev.sum(), rev.mean(), rev.min(), rev.max(), eff.mean(), eff.min(), eff.max()))
    table = np.array(auctions, [(f, _LOG_TYPES.get(f, "f8")) for f in AUCTION_FIELDS])
    return bidders, {f: table[f] for f in AUCTION_FIELDS}


def format_table(columns: dict, fieldnames) -> str:
    """Aligned plain-text table of the named columns, each cell as write_csv
    writes it (no text cell holds a comma)."""
    text = io.StringIO()
    write_csv(columns, text, fieldnames)
    cells = [line.split(",") for line in text.getvalue().splitlines()]
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


def _points_text(xs, ys) -> str:
    """`" ".join("%.2f,%.2f" % p for p in zip(xs, ys))`, rendered from the
    digit tables as _rows_text renders a real: a coordinate's integer-part
    words and the ".ddd" word of ten times its hundredths, whose last digit
    (a 0) becomes the "," or " " after it. Every point goes to `%` instead
    when some coordinate is one that _scaled does not cover."""
    xy = np.stack([xs, ys])
    v, exact = _scaled(xy, 100.0)
    if not exact:
        return " ".join(map("%.2f,%.2f".__mod__, zip(xs.tolist(), ys.tolist())))
    *whole, cents = _groups(v * 10, _ngroups(int(v.max(initial=0)) // 100) + 1)
    words = np.stack([*_sign_and_groups(whole, np.signbit(xy)), _DOT[cents]], 1)  # (x and y, words, points)
    words[0, -1].view(np.uint8)[3::4] = ord(",")
    words[1, -1].view(np.uint8)[3::4] = ord(" ")
    return words.transpose(2, 0, 1).tobytes().translate(None, b"\0").decode("ascii")[:-1]


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
        pts = _points_text(xs, ys)
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
