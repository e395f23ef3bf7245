"""Metric formulas, log serialization, summary tables, and figures."""

import re
import time
import warnings

import numpy as np
import pytest

from maulab.cli import main
from maulab.metrics import (
    AUCTION_FIELDS,
    AUCTION_LOG_FIELDS,
    BIDDER_FIELDS,
    BLOCK_ROWS,
    EPISODE_LOG_FIELDS,
    MAX_POLYLINE_POINTS,
    bid_ratio,
    bidder_groups,
    emit_svg,
    format_table,
    learning_ratio,
    read_csv,
    rolling_mean,
    summary_tables,
    write_csv,
)


def test_learning_ratio_examples():
    assert learning_ratio(10.0, 7.0) == pytest.approx(0.3)
    assert learning_ratio(4.0, 5.0) == pytest.approx(-0.25)
    assert learning_ratio(6.0, 6.0) == 0.0
    assert np.isfinite(learning_ratio(0.0, 3.0))


def test_bid_ratio_examples():
    assert bid_ratio(10.0, 7.0) == pytest.approx(0.7)
    assert bid_ratio(4.0, 5.0) == pytest.approx(1.25)


def test_rolling_mean_ramp_oracle():
    series = list(range(10))
    got = rolling_mean(series, window=3)
    expect = [np.mean(series[max(0, i - 2) : i + 1]) for i in range(10)]
    assert np.allclose(got, expect)


def test_rolling_mean_edge_cases():
    assert np.allclose(rolling_mean([5.0, 7.0], window=1), [5.0, 7.0])
    assert rolling_mean([], window=10).size == 0
    full = rolling_mean(np.ones(100), window=1000)
    assert np.allclose(full, 1.0)
    with pytest.raises(ValueError):
        rolling_mean([1.0], window=0)


def _episode_log(rows):
    """Episode-log columns from (episode, agent_id, algo, payoff, units, payment)
    rows; the other columns hold fixed values."""
    episode, agent_id, algo, payoff, units, payment = zip(*rows)
    n = len(rows)
    return {
        "episode": np.array(episode),
        "agent_id": np.array(agent_id),
        "algo": np.array(algo),
        "value": np.full(n, 5.0),
        "bid1": np.full(n, 4.0),
        "bid2": np.full(n, 3.0),
        "units_won": np.array(units),
        "payment_total": np.array(payment, dtype=float),
        "payoff_total": np.array(payoff, dtype=float),
        "reward_total": np.array(payoff, dtype=float) / 5.0,
        "learning_ratio1": np.full(n, 0.2),
        "learning_ratio2": np.full(n, 0.4),
        "bid_ratio1": np.full(n, 0.8),
        "bid_ratio2": np.full(n, 0.6),
    }


def _auction_log(rows):
    """Auction-log columns from (episode, rule, K, revenue, efficiency_ratio,
    efficiency_gap) rows."""
    return {name: np.array(col) for name, col in zip(AUCTION_LOG_FIELDS, zip(*rows))}


def test_summary_tables_ranking_and_means():
    ep = _episode_log([
        (0, 1, "ppo", 6.0, 2, 4.0),
        (1, 1, "ppo", 0.0, 0, 0.0),
        (0, 2, "ql", 3.0, 1, 2.0),
        (1, 2, "ql", 2.0, 2, 1.0),
        (0, 3, "vpg", 6.0, 3, 3.0),
        (1, 3, "vpg", 0.0, 0, 0.0),
    ])
    au = _auction_log([(0, "dp", 4, 9.0, 0.9, 1.0), (1, "dp", 4, 3.0, 1.0, 0.0)])
    bidders, auctions = summary_tables(ep, au, bidder_groups(ep))
    # payoff ties between ids 1 and 3 resolve by lower id first
    assert bidders["id"].tolist() == [1, 3, 2]
    assert bidders["rank"].tolist() == [1, 2, 3]
    assert bidders["payoff_total"][0] == 6.0
    assert bidders["payoff_mean"][0] == pytest.approx(3.0)  # per item won
    assert bidders["cost_mean"][0] == pytest.approx(2.0)
    assert bidders["payoff_mean_per_episode"][0] == pytest.approx(3.0)
    assert bidders["payoff_mean_per_winning_episode"][0] == pytest.approx(6.0)
    assert {k: v.tolist() for k, v in auctions.items()} == {
        "rule": ["dp"],
        "K": [4],
        "revenue_total": [12.0],
        "revenue_mean": [6.0],
        "revenue_min": [3.0],
        "revenue_max": [9.0],
        "efficiency_mean": [pytest.approx(0.95)],
        "efficiency_min": [0.9],
        "efficiency_max": [1.0],
    }


def test_summary_tables_zero_items_bidder():
    ep = _episode_log([(0, 1, "ql", 0.0, 0, 0.0)])
    au = _auction_log([(0, "dp", 4, 0.0, 1.0, 0.0)])
    bidders, _ = summary_tables(ep, au, bidder_groups(ep))
    assert bidders["payoff_mean"][0] == 0.0
    assert bidders["payoff_mean_per_winning_episode"][0] == 0.0


def test_summary_tables_add_in_log_order():
    # Pairwise summation (numpy's x.sum()) and a Python += loop disagree here.
    payoffs = [1e16, 1.0, -1e16, 1.0] * 8 + [0.1] * 9
    assert sum(payoffs) != np.array(payoffs).sum()
    ep = _episode_log([(i, 1, "ppo", p, 1, p) for i, p in enumerate(payoffs)])
    au = _auction_log([(i, "dp", 4, 1.0, 1.0, 0.0) for i in range(len(payoffs))])
    bidders, _ = summary_tables(ep, au, bidder_groups(ep))
    acc = 0.0
    for p in payoffs:
        acc += p
    assert bidders["payoff_total"][0] == acc
    assert bidders["cost_mean"][0] == acc / len(payoffs)


def test_bidder_totals_keep_signed_zero():
    for x in ([-0.0], [-0.0, -0.0], [0.0, -0.0], [1e-300, -1e-300]):
        acc = 0.0
        for v in x:
            acc += v
        ep = _episode_log([(i, 1, "ql", v, 0, v) for i, v in enumerate(x)])
        au = _auction_log([(i, "dp", 4, 0.0, 1.0, 0.0) for i in range(len(x))])
        bidders, _ = summary_tables(ep, au, bidder_groups(ep))
        got = bidders["payoff_total"][0]
        assert got == acc and np.signbit(got) == np.signbit(acc)
    got = np.bincount(np.zeros(0, np.intp), np.zeros(0), 1)[0]  # the total of no rows, as summary_tables adds
    assert got == 0.0 and not np.signbit(got)


def _reference_groups(ep):
    """(agent_id, algo, row mask) per bidder, by id then algo, one mask per bidder."""
    aid, algo = ep["agent_id"], ep["algo"]
    groups = []
    for i in sorted(set(aid.tolist())):
        rest = aid == i
        while rest.any():
            a = algo[rest.argmax()]
            m = rest & (algo == a)
            groups.append((i, str(a), m))
            rest &= ~m
    return sorted(groups, key=lambda g: g[:2])


def _in_order_sum(x):
    acc = 0.0
    for v in x.tolist():
        acc += v
    return acc


def test_grouping_matches_per_mask_reference():
    # Bidders interleave irregularly, id 2 logs two algorithms, and payoffs
    # hold -0.0 and a series whose in-order sum differs from x.sum().
    rng = np.random.default_rng(7)
    bidders = [(3, "dqn"), (1, "ppo"), (2, "ql"), (2, "a2c"), (7, "random")]
    who = rng.integers(0, len(bidders), 400)
    spread = [1e16, 1.0, -1e16, 1.0, 0.1, -0.0]
    rows = [(t, *bidders[b], spread[t % 6] if b == 1 else -0.0 if b == 4 else float(rng.normal()),
             int(rng.integers(0, 3)), float(rng.uniform(0, 5))) for t, b in enumerate(who)]
    ep = _episode_log(rows)
    au = _auction_log([(t, "gsp", 6, 1.0, 1.0, 0.0) for t in range(len(rows))])
    payoff_1 = ep["payoff_total"][ep["agent_id"] == 1]
    assert _in_order_sum(payoff_1) != payoff_1.sum()

    ref = _reference_groups(ep)
    keys, codes = groups = bidder_groups(ep)
    assert keys == [(aid, algo) for aid, algo, _ in ref]
    for c, (_, _, m) in enumerate(ref):
        assert np.array_equal(codes == c, m)

    table, _ = summary_tables(ep, au, groups)
    expect = []
    for aid, algo, m in ref:
        units = ep["units_won"][m]
        payoff, cost = _in_order_sum(ep["payoff_total"][m]), _in_order_sum(ep["payment_total"][m])
        items, wins = int(units.sum()), int(np.count_nonzero(units > 0))
        expect.append({
            "id": aid, "type": algo, "payoff_total": payoff,
            "payoff_mean": payoff / items if items else 0.0, "cost_mean": cost / items if items else 0.0,
            "items_won": items, "payoff_mean_per_episode": payoff / units.size,
            "payoff_mean_per_winning_episode": payoff / wins if wins else 0.0,
        })
    expect.sort(key=lambda b: (-b["payoff_total"], b["id"]))
    for rank, b in enumerate(expect, start=1):
        b["rank"] = rank
    for field in BIDDER_FIELDS:  # repr tells -0.0 from 0.0 and shows every bit of a float
        assert list(map(repr, table[field].tolist())) == [repr(b[field]) for b in expect], field
    # id 7 logs -0.0 only, and an in-order sum from 0.0 gives +0.0
    assert repr(table["payoff_total"][table["id"].tolist().index(7)]) == "np.float64(0.0)"


def test_report_curves_match_per_mask_reference(tmp_path):
    # The report's per-bidder learning-ratio figure equals one drawn from the
    # masks of the reference grouping, on a log where bidders interleave and
    # id 2 logs two algorithms.
    rng = np.random.default_rng(8)
    bidders = [(2, "ql"), (1, "ppo"), (2, "a2c"), (5, "vpg")]
    who = rng.integers(0, len(bidders), 300)
    ep = _episode_log([(t, *bidders[b], 1.0, 1, 0.5) for t, b in enumerate(who)])
    ep["learning_ratio1"] = rng.normal(size=who.size)
    ep["learning_ratio2"] = rng.normal(size=who.size)
    au = _auction_log([(t, "dp", 4, 1.0, 1.0, 0.0) for t in range(who.size)])
    run = tmp_path / "run"
    run.mkdir()
    write_csv(ep, run / "episodes.csv", EPISODE_LOG_FIELDS)
    write_csv(au, run / "auctions.csv", AUCTION_LOG_FIELDS)
    assert main(["report", "--run", str(run), "--out", str(tmp_path / "rep"), "--window", "7"]) == 0
    logged = read_csv(run / "episodes.csv")
    curves = {
        f"{algo} (id {aid})": {
            "unit 1": rolling_mean(logged["learning_ratio1"][m], 7),
            "unit 2": rolling_mean(logged["learning_ratio2"][m], 7),
        }
        for aid, algo, m in _reference_groups(logged)
    }
    emit_svg(sorted(curves.items()), tmp_path / "want.svg")
    got = (tmp_path / "rep" / "fig_learning_ratio.svg").read_bytes()
    assert got == (tmp_path / "want.svg").read_bytes()
    assert got.count(b"<polyline") == 2 * len(bidders)


def test_write_csv_fixed_point_and_lf(tmp_path):
    path = tmp_path / "x.csv"
    columns = {"a": np.array([1]), "b": np.array([0.123456789]), "c": np.array(["txt"])}
    write_csv(columns, path, ["a", "b", "c"])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode() == "a,b,c\n1,0.123457,txt\n"


# Rounding edge cases: signed zeros, values either side of half a unit in the
# sixth decimal, exact binary halves and large magnitudes.
EDGE_REALS = [
    0.0, -0.0, 5e-7, -5e-7, 4.9999999e-7, 5.0000001e-7, 1e-7, -1e-7, 0.0000005, 0.0000015,
    0.0000025, 0.5, 2.5, 0.1234565, 0.1234575, 1.0000005, 2 ** -20, -(2 ** -21), 1e15, -1e15,
    123456789.1234565, 1e300, 2.0 ** 70, 7.0, -3.25,
]


def test_write_csv_matches_per_cell_reference(tmp_path):
    n = len(EDGE_REALS)
    columns = {
        "i": np.arange(n) - 3,
        "x": np.array(EDGE_REALS),
        "s": np.array(["ppo", "random", "dp", "up", "gsp"] * 5),
    }
    path = tmp_path / "edge.csv"
    write_csv(columns, path, ["s", "x", "i"])
    want = "s,x,i\n" + "".join(
        f"{s},{x:.6f},{i}\n" for s, x, i in zip(columns["s"].tolist(), EDGE_REALS, columns["i"].tolist())
    )
    assert path.read_text() == want
    assert "-0.000000" in want and "0.000001" in want  # the cases above really differ


def test_write_csv_spans_blocks(tmp_path):
    n = 2 * BLOCK_ROWS + 5
    x = np.random.default_rng(0).normal(size=n)
    write_csv({"k": np.arange(n), "x": x}, tmp_path / "b.csv", ["k", "x"])
    lines = (tmp_path / "b.csv").read_text().splitlines()
    assert len(lines) == n + 1
    assert lines[-1] == f"{n - 1},{x[-1]:.6f}"


def test_read_csv_matches_float(tmp_path):
    rng = np.random.default_rng(3)
    n = 5000
    values = rng.uniform(-20, 20, n) * 10.0 ** rng.integers(-8, 8, n)
    lines = ["episode,revenue,rule"] + [f"{i},{v:.6f},gsp" for i, v in enumerate(values)]
    lines += [f"{n},{t},dp" for t in ("-0.000000", "0.000000", "1e300", "123456789.123457")]
    (tmp_path / "au.csv").write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = read_csv(tmp_path / "au.csv")
    want = [float(line.split(",")[1]) for line in lines[1:]]
    assert got["revenue"].tolist() == want
    assert np.signbit(got["revenue"][-4]) and not np.signbit(got["revenue"][-3])
    assert got["episode"].dtype == np.int64 and got["rule"][-1] == "dp"


def test_read_csv_no_warning_at_block_boundary(tmp_path):
    for n in (0, BLOCK_ROWS, 2 * BLOCK_ROWS):
        path = tmp_path / f"{n}.csv"
        write_csv({"episode": np.arange(n), "K": np.full(n, 4)}, path, ["episode", "K"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = read_csv(path)
        assert got["episode"].tolist() == list(range(n))


@pytest.mark.parametrize("text", [
    "episode,K\n0,4\n1\n",  # a short row
    "episode,K\n0,4,4\n",  # a long row
    "episode,K\n0,four\n",  # a non-numeric cell
    "episode,K\n0,\n",  # an empty cell
    "episode,bogus\n0,1\n",  # an unknown column
])
def test_read_csv_rejects_malformed_logs(tmp_path, text):
    (tmp_path / "bad.csv").write_text(text)
    with pytest.raises(ValueError):
        read_csv(tmp_path / "bad.csv")


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN"])
def test_read_csv_rejects_non_finite_reals(tmp_path, cell):
    (tmp_path / "bad.csv").write_text(f"episode,revenue\n0,1.500000\n1,{cell}\n")
    with pytest.raises(ValueError, match="non-finite values in columns \\['revenue'\\]"):
        read_csv(tmp_path / "bad.csv")


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "x.csv"
    ep = _episode_log([(i, 1, "ppo", float(i), 1, 0.0) for i in range(5)])
    write_csv(ep, path, EPISODE_LOG_FIELDS)
    back = read_csv(path)
    assert list(back) == EPISODE_LOG_FIELDS
    assert back["episode"].size == 5
    assert back["payoff_total"][3] == 3.0
    assert back["algo"][3] == "ppo"
    for name in EPISODE_LOG_FIELDS:
        assert back[name].tolist() == ep[name].tolist()


def test_write_csv_empty_needs_fieldnames(tmp_path):
    path = tmp_path / "x.csv"
    with pytest.raises(TypeError):
        write_csv({}, path)
    write_csv({"a": np.empty(0), "b": np.empty(0, dtype=int)}, path, ["a", "b"])
    assert path.read_text() == "a,b\n"


def test_write_csv_100k_rows_fast(tmp_path):
    i = np.arange(100_000)
    columns = {"episode": i, "x": i * 0.5, "y": -i * 0.25}
    start = time.monotonic()
    write_csv(columns, tmp_path / "big.csv", ["episode", "x", "y"])
    assert time.monotonic() - start < 5.0


def test_format_table_alignment():
    columns = {"a": np.array([1, 22]), "b": np.array([0.5, 0.25])}
    text = format_table(columns, ["a", "b"])
    lines = text.splitlines()
    assert lines[0].startswith("a")
    assert "0.500000" in lines[2]
    assert len({len(l) for l in lines if l}) <= 2


def test_emit_svg_deterministic(tmp_path):
    panes = [("metric", {"s1": [1.0, 2.0, 1.5], "s2": [0.0, 0.5, 1.0]})]
    emit_svg(panes, tmp_path / "a.svg")
    emit_svg(panes, tmp_path / "b.svg")
    assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()
    text = (tmp_path / "a.svg").read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "</svg>" in text
    assert text.count("<polyline") == 2


def test_emit_svg_empty_and_constant_series(tmp_path):
    emit_svg([], tmp_path / "empty.svg")
    assert "<svg" in (tmp_path / "empty.svg").read_text()
    emit_svg([("flat", {"s": [2.0, 2.0, 2.0]})], tmp_path / "flat.svg")
    text = (tmp_path / "flat.svg").read_text()
    assert "<polyline" in text
    assert "NaN" not in text


def test_field_lists_match_tables():
    ep = _episode_log([(0, 1, "ppo", 1.0, 1, 0.0)])
    au = _auction_log([(0, "dp", 4, 1.0, 1.0, 0.0)])
    bidders, auctions = summary_tables(ep, au, bidder_groups(ep))
    assert list(bidders) == BIDDER_FIELDS
    assert list(auctions) == AUCTION_FIELDS


def _polyline_points(text):
    return [p.split(" ") for p in re.findall(r'points="([^"]*)"', text)]


def test_emit_svg_short_series_keep_every_point(tmp_path):
    s = np.sin(np.arange(MAX_POLYLINE_POINTS))
    emit_svg([("m", {"s": s})], tmp_path / "a.svg")
    (points,) = _polyline_points((tmp_path / "a.svg").read_text())
    assert len(points) == MAX_POLYLINE_POINTS


def test_emit_svg_long_series_thinned(tmp_path):
    n = 20 * MAX_POLYLINE_POINTS + 7
    s = np.linspace(-1.0, 3.0, n)
    s[n // 3] = 9.0  # a spike between drawn points still sets the axis
    emit_svg([("m", {"s": s})], tmp_path / "a.svg")
    text = (tmp_path / "a.svg").read_text()
    (points,) = _polyline_points(text)
    assert len(points) == MAX_POLYLINE_POINTS
    xs = [float(p.split(",")[0]) for p in points]
    assert xs[0] == 34.0 and xs[-1] == 310.0  # first and last episodes kept
    assert xs == sorted(xs)
    assert ">9.00</text>" in text and ">-1.00</text>" in text
    assert f">{n}</text>" in text


class _Unwritable:
    """A cell that fails when formatted, as a full disk fails a write."""

    def __str__(self):
        raise OSError(28, "No space left on device")


def test_write_csv_failing_partway_leaves_no_partial_file(tmp_path):
    cells = np.array([1] * (BLOCK_ROWS + 10) + [_Unwritable()], dtype=object)
    path = tmp_path / "log.csv"
    with pytest.raises(OSError):
        write_csv({"x": cells}, path, ["x"])
    assert list(tmp_path.iterdir()) == []
    write_csv({"x": np.arange(3)}, path, ["x"])
    before = path.read_bytes()
    with pytest.raises(OSError):
        write_csv({"x": cells}, path, ["x"])
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def _json_file(path):
    from maulab.harness import write_json

    write_json(path, {"mode": "pretrain"})


def _checkpoint_file(path):
    from maulab.checkpoint import save_checkpoint

    save_checkpoint(path, "qtable", {"t": 1}, {"table": np.ones((2, 3))})


@pytest.mark.parametrize("write", [
    lambda p: write_csv({"x": np.arange(5.0)}, p, ["x"]),
    lambda p: emit_svg([("pane", {"line": np.arange(5.0)})], p),
    _checkpoint_file,
    _json_file,
], ids=["write_csv", "emit_svg", "save_checkpoint", "write_json"])
def test_writers_replace_the_final_file_only_when_complete(tmp_path, monkeypatch, write):
    """A crash after the data is written but before the file is moved into
    place leaves the earlier file as it was, and no new one."""
    import maulab.metrics

    path = tmp_path / "out"
    write(path)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    earlier = path.read_bytes()

    def crash(src, dst):
        raise OSError("killed")

    monkeypatch.setattr(maulab.metrics.os, "replace", crash)
    with pytest.raises(OSError):
        write(tmp_path / "new")
    with pytest.raises(OSError):
        write(path)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert path.read_bytes() == earlier
