"""Acceptance gate: one test per criterion, each emitting a pass/fail line.

Criterion 8 is report-only and runs at full scale only when MAULAB_FULL=1.
"""

import os
import time

import numpy as np
import pytest

from maulab.auction import canonicalize, clear, clear_dp, efficiency_ratio
from maulab.config import ScenarioConfig, Seat, Session
from maulab.env import reward
from maulab.harness import pretrain, run, start, tournament
from maulab.metrics import read_csv, rolling_mean
from maulab.nn import backward, finite_diff_check, forward, mlp_init, softmax
from maulab.agents.policy import head_logits, heads_stats, score_entropy_logits_grad

from columns import session_columns


def _verdict(num: int, desc: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# --- criterion 1: mechanism oracle equivalence -------------------------------

def _oracle_clear(rule, bids, K, perm):
    rows = [sorted(r, reverse=True) for r in np.asarray(bids, dtype=float).tolist()]
    n, k = len(rows), len(rows[0])
    entries = sorted(
        (-rows[i][j], perm[i * k + j], i, j) for i in range(n) for j in range(k)
    )
    ranked = [(i, j, rows[i][j]) for neg, _, i, j in entries]
    winners = ranked[:K]
    if rule == "dp":
        pays = [b for _, _, b in winners]
    elif rule == "gsp":
        pays = []
        for pos, (i, _, _) in enumerate(winners):
            p = 0.0
            for i2, _, b2 in ranked[pos + 1:]:
                if i2 != i:
                    p = b2
                    break
            pays.append(p)
    else:
        price = ranked[K][2] if len(ranked) > K else 0.0
        pays = [price] * len(winners)
    return sorted((i, b, p) for (i, _, b), p in zip(winners, pays)), float(sum(pays))


def test_criterion_1_mechanism_oracle_equivalence():
    rng = np.random.default_rng(10_001)
    start = time.monotonic()
    mismatches = 0
    for trial in range(10_000):
        n = int(rng.integers(2, 5))
        K = int(rng.integers(1, min(5, n * 2) + 1))
        bids = rng.integers(0, 11, size=(n, 2)).astype(float)
        rule = ("dp", "gsp", "up")[trial % 3]
        perm = np.random.default_rng(int(rng.integers(1 << 30))).permutation(n * 2)
        winners, pay, revenue = clear(rule, bids[None], K, perm[None])
        canonical = canonicalize(bids).ravel()
        got = sorted((int(w // 2), float(canonical[w]), float(p)) for w, p in zip(winners[0], pay[0]))
        want, want_rev = _oracle_clear(rule, bids, K, perm)
        if got != want or revenue[0] != want_rev:
            mismatches += 1
    elapsed = time.monotonic() - start
    _verdict(
        1,
        "10,000 random instances match the brute-force clearing oracle exactly",
        mismatches == 0 and elapsed < 10.0,
        f"mismatches={mismatches}, {elapsed:.1f}s",
    )


# --- criterion 2: reward exactness --------------------------------------------

def test_criterion_2_reward_exactness():
    cases = [
        (1, 2.0, 3.0, 2.0 / 3.0),
        (1, 2.0, 9.0, 2.0 / 9.0),
        (0, 0.0, 5.0, -0.01),
        (0, 7.0, 0.1, -0.01),
        (1, -1.0, 4.0, -1.25),
        (1, 0.2, 0.5, 0.2),
    ]
    worst = max(abs(reward(s, p, v) - e) for s, p, v, e in cases)
    rng = np.random.default_rng(10_002)
    for _ in range(1000):
        s = int(rng.integers(0, 2))
        p = float(rng.uniform(-10, 10))
        v = float(rng.uniform(0, 10))
        if s == 0:
            e = -0.01
        elif p > 0:
            e = p / max(v, 1.0)
        else:
            e = -(v - p) / max(v, 1.0)
        worst = max(worst, abs(reward(s, p, v) - e))
    _verdict(
        2,
        "reward formula exact on the unit table and 1,000 random inputs",
        worst <= 1e-12,
        f"max abs err={worst:.2e}",
    )


# --- criterion 3: gradient correctness ----------------------------------------

def _fd_dqn(rng):
    B, A = int(rng.integers(3, 9)), int(rng.integers(3, 12))
    net = mlp_init((2, int(rng.integers(4, 12)), A), rng)
    obs = rng.random((B, 2))
    act = rng.integers(0, A, size=B)
    rew = rng.normal(size=B)

    def loss_fn(p):
        q, _ = forward(p, obs)
        return float(np.mean((q[np.arange(B), act] - rew) ** 2))

    q, cache = forward(net, obs)
    g = np.zeros_like(q)
    g[np.arange(B), act] = 2.0 * (q[np.arange(B), act] - rew) / B
    return finite_diff_check(net, loss_fn, backward(net, cache, g), rng, n_samples=20)


def _fd_vpg(rng):
    L = int(rng.integers(3, 12))
    logits = rng.normal(size=L)
    a = int(rng.integers(L))
    r = float(rng.normal())

    def loss(row):
        z = row - row.max()
        return -r * (z[a] - np.log(np.exp(z).sum()))

    onehot = np.zeros(L)
    onehot[a] = 1.0
    analytic = -r * (onehot - softmax(logits))
    h = 1e-5
    scale = max(np.abs(analytic).max(), 1e-8)
    worst = 0.0
    for i in range(L):
        e = np.zeros(L)
        e[i] = h
        fd = (loss(logits + e) - loss(logits - e)) / (2 * h)
        worst = max(worst, abs(fd - analytic[i]) / max(abs(fd), abs(analytic[i]), scale * 1e-3))
    return worst


def _fd_dpg(rng):
    k, L, B = 2, int(rng.integers(3, 7)), int(rng.integers(3, 9))
    net = mlp_init((k, int(rng.integers(4, 10)), k * L), rng)
    obs = rng.random((B, k))
    actions = rng.integers(0, L, size=(B, k))
    adv = rng.normal(size=B)
    ent = float(rng.uniform(0, 0.1))

    def loss_fn(p):
        out, _ = forward(p, obs)
        _, logp, H = heads_stats(head_logits(out, k, L), actions)
        return float(-(logp * adv).mean() - ent * H.mean())

    out, cache = forward(net, obs)
    heads, _, _ = heads_stats(head_logits(out, k, L), actions)
    g3 = score_entropy_logits_grad(heads, actions, adv, ent, 1.0 / B)
    return finite_diff_check(net, loss_fn, backward(net, cache, g3.reshape(B, k * L)), rng, n_samples=20)


def _fd_a2c(rng):
    k, L, B = 2, int(rng.integers(3, 7)), int(rng.integers(3, 9))
    actor = mlp_init((k, 6, k * L), rng)
    critic = mlp_init((k, 6, 1), rng)
    obs = rng.random((B, k))
    actions = rng.integers(0, L, size=(B, k))
    rewards = rng.normal(size=B)
    ent = float(rng.uniform(0, 0.1))
    vout, vcache = forward(critic, obs)
    adv = rewards - vout[:, 0]

    def actor_loss(p):
        out, _ = forward(p, obs)
        _, logp, H = heads_stats(head_logits(out, k, L), actions)
        return float(-(logp * adv).sum() - ent * H.sum())

    out, cache = forward(actor, obs)
    heads, _, _ = heads_stats(head_logits(out, k, L), actions)
    g3 = score_entropy_logits_grad(heads, actions, adv, ent, 1.0)
    err_a = finite_diff_check(actor, actor_loss, backward(actor, cache, g3.reshape(B, k * L)), rng, n_samples=20)

    def critic_loss(p):
        v, _ = forward(p, obs)
        return float(0.5 * np.sum((rewards - v[:, 0]) ** 2))

    err_c = finite_diff_check(
        critic, critic_loss, backward(critic, vcache, (vout[:, 0] - rewards)[:, None]), rng, n_samples=20
    )
    return max(err_a, err_c)


def _fd_ppo(rng):
    k, L, B = 2, int(rng.integers(3, 7)), int(rng.integers(4, 10))
    actor = mlp_init((k, 6, k * L), rng)
    obs = rng.random((B, k))
    actions = rng.integers(0, L, size=(B, k))
    adv = rng.normal(size=B)
    eps = 0.2
    ent = float(rng.uniform(0, 0.05))
    out0, _ = forward(actor, obs)
    _, logp0, _ = heads_stats(head_logits(out0, k, L), actions)
    old_logp = logp0 + rng.normal(scale=0.5, size=B)  # exercises clipped regions

    def loss_fn(p):
        o, _ = forward(p, obs)
        _, logp, H = heads_stats(head_logits(o, k, L), actions)
        ratio = np.exp(logp - old_logp)
        obj = np.minimum(ratio * adv, np.clip(ratio, 1 - eps, 1 + eps) * adv)
        return float(-obj.mean() - ent * H.mean())

    out, cache = forward(actor, obs)
    heads, logp, _ = heads_stats(head_logits(out, k, L), actions)
    ratio = np.exp(logp - old_logp)
    unclipped = ratio * adv
    clipped = np.clip(ratio, 1 - eps, 1 + eps) * adv
    gw = np.where(unclipped <= clipped, ratio * adv, 0.0)
    g3 = score_entropy_logits_grad(heads, actions, gw, ent, 1.0 / B)
    return finite_diff_check(actor, loss_fn, backward(actor, cache, g3.reshape(B, k * L)), rng, n_samples=20)


def test_criterion_3_gradient_correctness():
    rng = np.random.default_rng(10_003)
    start = time.monotonic()
    worst = 0.0
    for fd in (_fd_dqn, _fd_vpg, _fd_dpg, _fd_a2c, _fd_ppo):
        for _ in range(20):
            worst = max(worst, fd(rng))
    elapsed = time.monotonic() - start
    _verdict(
        3,
        "all five training losses pass finite-difference checks over 100 configs",
        worst < 1e-4 and elapsed < 60.0,
        f"max rel err={worst:.2e}, {elapsed:.1f}s",
    )


# --- criterion 4: UP first-unit truthfulness ----------------------------------

def _up_expected_payoff(own, opp, v, K=4):
    """Exact expected payoff under uniform random tie-breaking: the clearing
    price is the deterministic (K+1)-th highest bid value; tied bids at the
    price split the remaining units uniformly."""
    allb = np.concatenate([own, opp])
    price = np.partition(allb, -(K + 1))[-(K + 1)]
    m = int((allb > price).sum())
    tied = int((allb == price).sum())
    own_gt = int((own > price).sum())
    own_tied = int((own == price).sum())
    units = own_gt + ((K - m) * own_tied / tied if tied else 0.0)
    return units * (v - price)


def test_criterion_4_up_first_unit_truthfulness():
    # restated on the canonical domain: own second bid at most the value,
    # deviations keep the first bid at or above the second
    rng = np.random.default_rng(10_004)
    grid = np.arange(21) * 0.5
    start = time.monotonic()
    violations = 0
    for _ in range(1000):
        opp = grid[rng.integers(0, 21, size=10)]
        v_level = int(rng.integers(0, 21))
        v = grid[v_level]
        for b2_level in range(v_level + 1):
            b2 = grid[b2_level]
            truthful = _up_expected_payoff(np.array([v, b2]), opp, v)
            for b1_level in range(b2_level, 21):
                if b1_level == v_level:
                    continue
                dev = _up_expected_payoff(np.array([grid[b1_level], b2]), opp, v)
                if dev > truthful + 1e-9:
                    violations += 1
    elapsed = time.monotonic() - start
    _verdict(
        4,
        "no first-unit deviation from truthful bidding improves expected payoff "
        "in the uniform-price auction (1,000 profiles, canonical domain)",
        violations == 0 and elapsed < 30.0,
        f"violations={violations}, {elapsed:.1f}s",
    )


# --- criterion 5: learning improvement ----------------------------------------

def _learner_payoffs(run_dir):
    ep = read_csv(run_dir / "episodes.csv")
    mine = ep["agent_id"] == 1
    return {name: col[mine] for name, col in ep.items()}, ep["payoff_total"][mine]


def _random_baseline(seed, episodes):
    config = ScenarioConfig(rule="dp", supply=4, episodes=episodes, master_seed=seed)
    session = Session("tournament", config, tuple(Seat(i, "random", False) for i in range(1, 7)))
    env, agents = start(session)
    ep, _ = session_columns(session, env, agents, episodes)
    pay = ep["payoff_total"][ep["agent_id"] == 1]
    return float(pay[-1000:].mean())


SMOKE_OVERRIDES = {
    "ql": {"alpha": 0.2, "value_bins": 4},
    "vpg": {"alpha": 1.0, "value_bins": 4},
    "a2c": {"actor_lr": 0.02, "critic_lr": 0.02, "batch_size": 16, "hidden": (16,)},
}


def test_criterion_5_learning_improvement(tmp_path):
    start = time.monotonic()
    rows, pay = _learner_payoffs(run(pretrain("ppo", "dp", 4, 20_000, 42), tmp_path / "ppo"))
    first, last = float(pay[:1000].mean()), float(pay[-1000:].mean())
    lr1 = rolling_mean(rows["learning_ratio1"], 1000)[-1]
    lr2 = rolling_mean(rows["learning_ratio2"], 1000)[-1]
    ppo_ok = last >= 1.5 * first and 0.0 < lr1 < 1.0 and 0.0 < lr2 < 1.0

    baseline = _random_baseline(seed=11, episodes=2000)
    smoke = {}
    for algo, overrides in SMOKE_OVERRIDES.items():
        _, p = _learner_payoffs(run(pretrain(algo, "dp", 4, 2000, 11, overrides=overrides), tmp_path / algo))
        smoke[algo] = float(p[-1000:].mean())
    smoke_ok = all(v > baseline for v in smoke.values())
    elapsed = time.monotonic() - start
    detail = (
        f"ppo first={first:.2f} last={last:.2f} lr1={lr1:.3f} lr2={lr2:.3f}; "
        f"baseline={baseline:.2f} "
        + " ".join(f"{a}={v:.2f}" for a, v in smoke.items())
        + f"; {elapsed:.0f}s"
    )
    _verdict(
        5,
        "PPO improves payoff and shades both bids; QL/VPG/A2C beat the random "
        "baseline at smoke scale",
        ppo_ok and smoke_ok and elapsed < 600.0,
        detail,
    )


# --- criterion 6: accounting invariants ----------------------------------------

def test_criterion_6_accounting_invariants():
    ok = True
    worst = 0.0
    for rule in ("dp", "gsp", "up"):
        config = ScenarioConfig(rule=rule, supply=4, episodes=300, master_seed=6)
        algos = ["ql", "vpg"] + ["random"] * 4
        session = Session("tournament", config, tuple(Seat(i, a, a != "random") for i, a in enumerate(algos, 1)))
        env, agents = start(session)
        ep, au = session_columns(session, env, agents, 300)
        for e, revenue, eff in zip(au["episode"], au["revenue"], au["efficiency_ratio"]):
            rows = ep["episode"] == e
            paid = sum(ep["payment_total"][rows].tolist())
            worst = max(worst, abs(paid - revenue))
            ok &= abs(paid - revenue) < 1e-9
            ok &= int(ep["units_won"][rows].sum()) == 4
            ok &= 0.0 <= eff <= 1.0
    # efficiency hits exactly 1 when the allocation matches a top-K multiset
    rng = np.random.default_rng(66)
    for _ in range(100):
        values = rng.uniform(0, 10, size=(6, 2))
        winners, _, _ = clear_dp(values[None], 4, np.random.default_rng(1).permutation(12)[None])  # truthful bids
        ok &= efficiency_ratio(values[None], winners, 4)[0] == 1.0
    _verdict(
        6,
        "payments sum to revenue, supply fully allocated, efficiency in [0,1] "
        "with exact detection of efficient allocations",
        ok,
        f"max payment-revenue gap={worst:.1e}",
    )


# --- criterion 7: determinism ---------------------------------------------------

def test_criterion_7_determinism(tmp_path):
    from maulab.cli import main

    start = time.monotonic()
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = main([
            "pretrain", "--algo", "ql", "--auction", "gsp", "--items", "6",
            "--episodes", "5000", "--seed", "17", "--out", str(out),
        ])
        assert code == 0
        run = out / "gsp_6_ql_17"
        rep = out / "report"
        assert main(["report", "--run", str(run), "--out", str(rep)]) == 0
        names = [
            run / "episodes.csv", run / "auctions.csv", run / "ql.ckpt",
            rep / "table_bidders.csv", rep / "table_auctions.csv",
            rep / "fig_learning_ratio.svg", rep / "fig_revenue.svg",
            rep / "fig_efficiency.svg",
        ]
        outputs.append([p.read_bytes() for p in names])
    elapsed = time.monotonic() - start
    identical = all(x == y for x, y in zip(*outputs))
    _verdict(
        7,
        "full pipeline replays byte-identically for the same config and seed",
        identical and elapsed < 300.0,
        f"{elapsed:.0f}s",
    )


# --- criterion 8: report-only directional comparison ----------------------------

@pytest.mark.skipif(
    os.environ.get("MAULAB_FULL") != "1",
    reason="100k-episode directional report only runs with MAULAB_FULL=1",
)
def test_criterion_8_directional_report(tmp_path):
    episodes = 100_000
    results = {}
    for rule, K in (("dp", 4), ("up", 4), ("dp", 8), ("gsp", 8), ("up", 8)):
        run_dir = run(tournament(rule, K, {}, episodes, 8), tmp_path)
        au = read_csv(run_dir / "auctions.csv")
        eff, rev = au["efficiency_ratio"], au["revenue"]
        results[(rule, K)] = {
            "eff_mean": float(eff.mean()),
            "eff_ci": 1.96 * float(eff.std(ddof=1)) / np.sqrt(eff.size),
            "rev_total": float(rev.sum()),
            "rev_mean": float(rev.mean()),
            "rev_ci": 1.96 * float(rev.std(ddof=1)) / np.sqrt(rev.size),
        }
    up_eff = results[("up", 4)]
    dp_eff = results[("dp", 4)]
    eff_dir = up_eff["eff_mean"] >= dp_eff["eff_mean"]
    rev8 = {r: results[(r, 8)]["rev_total"] for r in ("dp", "gsp", "up")}
    rev_dir = rev8["dp"] == max(rev8.values())
    lines = [
        f"UP efficiency {up_eff['eff_mean']:.4f} +/- {up_eff['eff_ci']:.4f} vs "
        f"DP {dp_eff['eff_mean']:.4f} +/- {dp_eff['eff_ci']:.4f}: "
        f"{'consistent' if eff_dir else 'DEVIATES'}",
        f"K=8 revenue totals dp={rev8['dp']:.0f} gsp={rev8['gsp']:.0f} "
        f"up={rev8['up']:.0f}: {'DP highest' if rev_dir else 'DEVIATES'}",
    ]
    report = "\n".join(lines) + "\n"
    (tmp_path / "directional_report.txt").write_text(report)
    tag = "PASS" if (eff_dir and rev_dir) else "INFO"
    print(f"[{tag}] criterion 8 (report-only): " + "; ".join(lines))
    # non-gating by design: deviations are documented, not failed
