"""Metric formulas, log serialization, summary tables, and figures."""

import io
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from maulab import metrics
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
# sixth decimal, exact binary halves, large magnitudes, and values either side
# of the largest magnitude write_csv renders from its digit tables
# (2**52 / 1e6); write_csv writes the non-finite ones too.
LIMIT = 2.0**52 / 1e6
EDGE_REALS = [
    0.0, -0.0, 5e-7, -5e-7, 4.9999999e-7, 5.0000001e-7, 1e-7, -1e-7, 0.0000005, 0.0000015,
    0.0000025, 0.5, 2.5, 0.1234565, 0.1234575, 1.0000005, 2 ** -20, -(2 ** -21), 1e15, -1e15,
    123456789.1234565, 1e300, 2.0 ** 70, 7.0, -3.25, 0.0078125, -0.0078125, 2.5e-6, 5e-324, -4e-7,
    np.nextafter(LIMIT, 0), -np.nextafter(LIMIT, 0), LIMIT, np.nextafter(LIMIT, np.inf), 4294.9672955,
    5432.1234565, -1e300, 1.7976931348623157e308, float("nan"), float("inf"), float("-inf"),
]


def test_write_csv_matches_per_cell_reference(tmp_path):
    n = len(EDGE_REALS)
    columns = {
        "i": np.arange(n) - 3,
        "x": np.array(EDGE_REALS),
        "s": np.array((["ppo", "random", "dp", "up", "gsp"] * n)[:n]),
    }
    path = tmp_path / "edge.csv"
    write_csv(columns, path, ["s", "x", "i"])
    want = "s,x,i\n" + "".join(
        f"{s},{x:.6f},{i}\n" for s, x, i in zip(columns["s"].tolist(), EDGE_REALS, columns["i"].tolist())
    )
    assert path.read_text() == want
    assert "-0.000000" in want and "0.000001" in want  # the cases above really differ


def _percent_rows(columns, fieldnames) -> str:
    """The rows of write_csv as the `%` operator formats them, a row at a
    time: the reference that write_csv's digit tables must equal."""
    cols = [np.asarray(columns[f]) for f in fieldnames]
    fmt = ",".join("%.6f" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    return "".join(fmt % row for row in zip(*(c.tolist() for c in cols)))


def _written(columns, fieldnames) -> str:
    """write_csv's rows, written with every numpy floating-point error raised
    and every warning an error."""
    out = io.StringIO()
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        write_csv(columns, out, fieldnames)
    return out.getvalue()


_REALS = st.one_of(
    st.floats(),  # any float64: nan, inf, subnormals and huge values included
    st.floats(-LIMIT * 4, LIMIT * 4),
    st.floats(-20, 20),
    st.integers(-(10**12), 10**12).map(lambda k: (k + 0.5) / 1e6),  # ties in the sixth decimal, or next to one
    st.integers(-(2**40), 2**40).map(lambda k: k / 2**20),  # dyadic: exact binary halves
)
_COLUMNS = {
    "f": lambda n: hnp.arrays(np.float64, n, elements=_REALS),
    "i": lambda n: hnp.arrays(np.int64, n),
    "U": lambda n: st.lists(st.text(st.characters(max_codepoint=127), max_size=9), min_size=n, max_size=n).map(
        lambda cells: np.array(cells, dtype=str)
    ),
}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_write_csv_equals_percent_formatting(data):
    # Any float64, int64 and ASCII text columns, in any order.
    n = data.draw(st.integers(1, 40))
    kinds = data.draw(st.lists(st.sampled_from(sorted(_COLUMNS)), min_size=1, max_size=6))
    columns = {f"c{j}": data.draw(_COLUMNS[k](n)) for j, k in enumerate(kinds)}
    assert _written(columns, list(columns)) == _percent_rows(columns, list(columns))


def test_write_csv_ties_signs_and_bounds_equal_percent_formatting():
    ties = [(k + 0.5) / 1e6 for k in range(-3000, 3000)] + [k / 2**7 for k in range(-300, 300)]
    near = [np.nextafter(LIMIT, 0) - k for k in range(5)] + [LIMIT * (1 + k * 1e-16) for k in range(5)]
    near += [LIMIT * m + k * 1.7e-6 for m in (1.5, 2.5, 3.5) for k in range(20)]
    signs = [-0.0, 0.0, -1e-7, -4.9e-7, -5e-7, -5.1e-7, -1e-300, -5e-324]
    big = [1e15, -1e15, 1e300, -1e300, 2.0**63, np.nan, np.inf, -np.inf]
    x = np.array(ties + near + signs + big)
    x = np.concatenate([x, -x, x * 1000, x / 1000])
    columns = {"x": x, "k": np.arange(x.size), "y": x[::-1].copy()}
    text = _written(columns, ["k", "x", "y"])
    assert text == _percent_rows(columns, ["k", "x", "y"])
    assert "-0.000000" in text and ",0.007812," in text and ",0.023438," in text  # half-even: ...125 down, ...375 up


@pytest.mark.parametrize("where", [
    [0], [BLOCK_ROWS - 1], [BLOCK_ROWS], [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, 2 * BLOCK_ROWS + 2],
])
def test_write_csv_rows_that_fall_back_stay_in_place(where):
    # Rows formatted by `%` as the first and last rows of BLOCK_ROWS chunks.
    n = 2 * BLOCK_ROWS + 3
    rng = np.random.default_rng(5)
    columns = {"i": np.arange(n), "x": rng.normal(size=n), "s": np.array(["ql", "ppo", "random"] * n)[:n]}
    columns["x"][where] = [np.nan, np.inf, 1e300, 0.0000025, -np.inf][: len(where)]
    columns["s"][where[-1]] = "é"
    assert _written(columns, ["i", "x", "s"]) == _percent_rows(columns, ["i", "x", "s"])


def test_write_csv_column_types():
    big = np.array([0, 1, 2**63 - 1, 2**63, 2**64 - 1, 999, 1000, 10**18], dtype=np.uint64)
    n = big.size
    columns = {
        "f32": np.array([0.1, -2.675, 1e-7, 3.4e38, -0.0, 1.0000005, 0.3, 7], np.float32),
        "f16": np.array([0.1, -2.5, 65504, 6e-8, -0.0, 1.5, 0.3, 7], np.float16),
        "i32": np.array([0, -1, 2**31 - 1, -(2**31), 10, -999, 1000, -1000], np.int32),
        "i8": np.array([0, -128, 127, -1, 5, -10, 100, -100], np.int8),
        "u8": np.array([0, 255, 1, 9, 10, 99, 100, 254], np.uint8),
        "u64": big,
        "i64": np.array([-(2**63), 2**63 - 1, -1, 0, -1000, 1000, -999999, 10**15], np.int64),
        "text": np.array(["", "a", "ppo", "random", "x,y", "a\x00b", "tab\t", "~"]),
        "f128": np.arange(n, dtype=np.longdouble) / 3,  # written as float() rounds it, as `%` does
    }
    fields = list(columns)
    text = _written(columns, fields)
    assert text == _percent_rows(columns, fields)
    rows = [line.split(",") for line in text.splitlines()]
    assert [r[0] for r in rows] == ["%.6f" % float(v) for v in columns["f32"]]  # the float32's exact value
    assert [r[5] for r in rows] == [str(int(v)) for v in big]
    assert rows[0][7] == "" and "\x00" in text

    # Columns the tables do not cover, and non-ASCII text, are formatted by `%`.
    other = {
        "b": np.array([True, False] * 4),
        "o": np.array([1, "two", 3.5, None, (), 6, 7, 8], dtype=object),
        "u": np.array(["é", "ppo", "日本", "ql", "", "ñ", "a", "b"]),
        "x": np.linspace(-1, 1, n),
    }
    for fields in (["b", "x"], ["x", "o"], ["u", "x"], list(other)):
        assert _written(other, fields) == _percent_rows(other, fields), fields


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1])
def test_write_csv_block_sizes(n):
    rng = np.random.default_rng(n)
    columns = {"k": np.arange(n), "x": rng.normal(size=n) * 10.0 ** rng.integers(-7, 9, n), "a": np.full(n, "dqn")}
    assert _written(columns, ["x", "k", "a"]) == _percent_rows(columns, ["x", "k", "a"])


def test_report_tables_equal_percent_formatting():
    rng = np.random.default_rng(9)
    bidders = [(1, "ppo"), (2, "ql"), (2, "a2c"), (3, "random")]
    who = rng.integers(0, len(bidders), 500)
    ep = _episode_log([(t, *bidders[b], float(rng.normal() * 5), int(rng.integers(0, 3)), float(rng.uniform(0, 9)))
                       for t, b in enumerate(who)])
    au = _auction_log([(t, ("dp", "gsp", "up")[t % 3], 4 + t % 2, float(rng.uniform(0, 30)), float(rng.uniform()),
                        float(rng.uniform(0, 5))) for t in range(who.size)])
    for table, fields in zip(summary_tables(ep, au, bidder_groups(ep)), (BIDDER_FIELDS, AUCTION_FIELDS)):
        assert _written(table, fields) == _percent_rows(table, fields)


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


def _percent_points(xs, ys) -> str:
    """A polyline's points as the `%` operator formats them, one at a time:
    the reference that the digit tables must equal."""
    return " ".join("%.2f,%.2f" % p for p in zip(np.asarray(xs).tolist(), np.asarray(ys).tolist()))


# Coordinates where rounding to hundredths is hardest: float ties, whose
# |x| * 100 is exactly k + 1/2 (0.005; 0.125, an exact binary half; 2.675,
# stored below its decimal tie), a ulp either side of each tie, values stored
# below their decimal tie whose product is not one (1.005), signed zeros and
# tiny negatives, roundings that carry into the next integer group (999.996
# is 1000.00), several integer groups, and values either side of the largest
# magnitude the tables render (2**52 / 100), with the non-finite ones.
POINT_LIMIT = 2.0**52 / 100
POINT_TIES = [0.005, 0.015, 0.125, 0.375, 1.125, 2.675, 1.115, 999.995, 1000.005, np.nextafter(POINT_LIMIT, 0)]
POINT_NEXT = [np.nextafter(t, d) for t in POINT_TIES[:-1] for d in (-np.inf, np.inf)]
POINT_TIES += [v for v in POINT_NEXT if abs(v) * 100 % 1 == 0.5]  # 2.675's next float up is a tie too
POINT_EDGES = sorted({
    *(v for v in POINT_NEXT if v not in POINT_TIES),
    1.005, 0.285, 0.0, -0.0, -0.001, -0.004999, -0.0051, 5e-324, 34.0, 310.0, 0.996, 9.995001, 99.996,
    999.996, 999.994, 9999.999, 99999.995001, 999999.996, 1234.5678, 1e6 + 0.25, 123456789.019625,
    45035996273704.94, -45035996273704.94,  # below POINT_LIMIT, not ties
}, key=repr)
POINT_OUTSIDE = [*POINT_TIES, POINT_LIMIT, 1e300, np.nan, np.inf, -np.inf]


def test_point_edges_are_rendered_from_the_tables():
    # Otherwise the test below would compare `%` with itself.
    assert metrics._scaled(np.array(POINT_EDGES), 100.0)[1]
    assert not any(metrics._scaled(np.array([v]), 100.0)[1] for v in POINT_OUTSIDE)


@pytest.mark.parametrize("v", POINT_EDGES + POINT_OUTSIDE)
def test_points_text_equals_percent_formatting(v):
    for xs, ys in (([v], [34.0]), ([34.0], [v]), ([v, -v, 1.0], [2.0, v, -v])):
        assert metrics._points_text(np.array(xs), np.array(ys)) == _percent_points(xs, ys)


def test_points_text_many_points_one_and_none():
    xs = np.array(POINT_EDGES)
    assert metrics._points_text(xs, xs[::-1].copy()) == _percent_points(xs, xs[::-1])
    assert metrics._points_text(np.array([999.996]), np.array([0.0])) == "1000.00,0.00"
    assert metrics._points_text(np.array([0.005]), np.array([-0.0])) == "0.01,-0.00"
    assert metrics._points_text(np.empty(0), np.empty(0)) == ""


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 30), elements=st.one_of(
    st.floats(),
    st.floats(-2e3, 2e5),
    st.integers(-(10**8), 10**8).map(lambda k: (k + 0.5) / 100),  # ties in the second decimal, or next to one
    st.integers(-(2**30), 2**30).map(lambda k: k / 2**10),  # dyadic: exact binary halves
)))
def test_points_text_equals_percent_formatting_anywhere(x):
    with np.errstate(all="raise"), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert metrics._points_text(x, x[::-1].copy()) == _percent_points(x, x[::-1])


def test_emit_svg_points_equal_percent_formatting(tmp_path, monkeypatch):
    # 17 panes, so that y passes 1000; a one-point and an empty series too.
    rng = np.random.default_rng(7)
    panes = [(f"p{i}", {"a": rng.normal(size=3000), "b": np.cumsum(rng.normal(size=50))}) for i in range(16)]
    panes.append(("last", {"one": [3.0], "none": [], "three": [0.005, 0.125, 2.675]}))
    emit_svg(panes, tmp_path / "tables.svg")
    monkeypatch.setattr(metrics, "_points_text", _percent_points)
    emit_svg(panes, tmp_path / "percent.svg")
    text = (tmp_path / "tables.svg").read_text()
    assert text == (tmp_path / "percent.svg").read_text()
    ys = [float(p.split(",")[1]) for points in _polyline_points(text) for p in points]
    assert max(ys) > 1000 and text.count("<polyline") == 16 * 2 + 2


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
