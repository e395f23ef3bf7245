"""Session orchestration tests: streams, logging, checkpoint lifecycle."""

import numpy as np
import pytest

from maulab.agents.base import make_agent
from maulab.checkpoint import CheckpointError, MissingCheckpointError, save_checkpoint
from maulab.config import ScenarioConfig
from maulab.env import AuctionEnv
from maulab.harness import (
    load_agent,
    make_streams,
    pretrain,
    pretrain_manifest,
    run_episode,
    run_session,
    save_agent,
    session_dir,
    tournament,
    tournament_roster,
)
from maulab.metrics import read_csv


def _random_session(seed, episodes, rule="dp", supply=4):
    config = ScenarioConfig(rule=rule, supply=supply, episodes=episodes, master_seed=seed)
    value_rng, tie_rng, agent_rngs = make_streams(seed, config.n_bidders)
    env = AuctionEnv(config, value_rng, tie_rng)
    agents = [make_agent("random", config, r) for r in agent_rngs]
    return config, env, agents


def test_make_streams_deterministic_and_distinct():
    v1, t1, a1 = make_streams(7, 6)
    v2, t2, a2 = make_streams(7, 6)
    assert v1.random(5).tolist() == v2.random(5).tolist()
    assert t1.random(5).tolist() == t2.random(5).tolist()
    assert len(a1) == 6
    draws = [v1.random(), t1.random()] + [r.random() for r in a1]
    assert len(set(draws)) == len(draws)


def test_value_stream_no_serial_correlation():
    v, _, _ = make_streams(0, 6)
    x = v.random(100_000)
    x = x - x.mean()
    r1 = float(np.dot(x[:-1], x[1:]) / np.dot(x, x))
    assert abs(r1) < 0.01


def test_run_episode_allocates_full_supply():
    config, env, agents = _random_session(3, 1)
    (rewards, won, payment, bids, outcome), valuations = run_episode(env, agents)
    assert len(outcome.winners) == 4
    assert valuations.shape == (6, 2)
    assert int(won.sum()) == 4


def test_run_session_payments_match_revenue():
    config, env, agents = _random_session(5, 50, rule="gsp")
    ep, au = run_session(config, agents, list(range(1, 7)), env, 50)
    assert au["episode"].size == 50
    assert ep["episode"].size == 300
    for e, revenue, eff in zip(au["episode"], au["revenue"], au["efficiency_ratio"]):
        rows = ep["episode"] == e
        assert sum(ep["payment_total"][rows].tolist()) == pytest.approx(revenue, abs=1e-9)
        assert int(ep["units_won"][rows].sum()) == 4
        assert 0.0 <= eff <= 1.0


def test_identical_seeds_replay_identically(tmp_path):
    p1 = pretrain("ql", "dp", 4, 200, 9, tmp_path / "r1")
    p2 = pretrain("ql", "dp", 4, 200, 9, tmp_path / "r2")
    assert (p1.parent / "episodes.csv").read_bytes() == (p2.parent / "episodes.csv").read_bytes()
    assert (p1.parent / "auctions.csv").read_bytes() == (p2.parent / "auctions.csv").read_bytes()
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_episode_pretrain_checkpoint_is_fresh_init(tmp_path):
    ckpt = pretrain("dqn", "up", 6, 0, 13, tmp_path)
    config = ScenarioConfig(rule="up", supply=6, episodes=0, master_seed=13)
    _, _, agent_rngs = make_streams(13, 6)
    fresh = make_agent("dqn", config, agent_rngs[0])
    loaded = load_agent(ckpt, config, np.random.default_rng(0))
    assert np.array_equal(loaded.net.flat(), fresh.net.flat())
    assert loaded.t == 0


def test_pretrain_writes_run_directory(tmp_path):
    ckpt = pretrain("vpg", "gsp", 8, 30, 21, tmp_path)
    run_dir = ckpt.parent
    assert run_dir == session_dir(tmp_path, "gsp", 8, "vpg", 21)
    assert (run_dir / "episodes.csv").is_file()
    assert (run_dir / "auctions.csv").is_file()
    assert (run_dir / "config.json").is_file()
    ep = read_csv(run_dir / "episodes.csv")
    assert ep["episode"].size == 30 * 6
    assert set(ep["algo"].tolist()) == {"vpg", "random"}


def test_pretrain_manifest_grid():
    sessions = pretrain_manifest(100, 0, "out")
    assert len(sessions) == 54
    combos = {(s["algo"], s["rule"], s["K"]) for s in sessions}
    assert len(combos) == 54
    assert all(s["episodes"] == 100 for s in sessions)


def test_tournament_roster_ids():
    roster = tournament_roster()
    assert roster == [(1, "ppo"), (2, "a2c"), (3, "dqn"), (4, "dpn"), (5, "ql"), (6, "vpg")]
    assert tournament_roster(all_ppo=True) == [(i, "ppo") for i in range(1, 7)]


def test_tournament_fresh_agents_zero_episodes(tmp_path):
    run_dir = tournament("dp", 4, {}, 0, 1, tmp_path)
    assert (run_dir / "episodes.csv").is_file()
    for aid, algo in tournament_roster():
        assert (run_dir / f"{algo}_{aid}.ckpt").is_file()


def test_tournament_resumes_checkpoints_and_freeze(tmp_path):
    ckpts = {}
    for algo in ("ppo", "a2c", "dqn", "dpn", "ql", "vpg"):
        ckpts[algo] = str(pretrain(algo, "dp", 4, 5, 2, tmp_path / "pre"))
    run_dir = tournament("dp", 4, ckpts, 10, 3, tmp_path / "tour", freeze=True)
    # frozen agents do not learn: saved checkpoint arrays equal the inputs
    config = ScenarioConfig(rule="dp", supply=4, episodes=10, master_seed=3)
    for aid, algo in tournament_roster():
        src = load_agent(ckpts[algo], config, np.random.default_rng(0))
        out = load_agent(run_dir / f"{algo}_{aid}.ckpt", config, np.random.default_rng(0))
        _, src_arrays = src.checkpoint_payload()
        _, out_arrays = out.checkpoint_payload()
        for k in src_arrays:
            assert np.array_equal(src_arrays[k], out_arrays[k]), (algo, k)


def test_tournament_missing_checkpoint_raises(tmp_path):
    ckpts = {"ppo": str(tmp_path / "nope.ckpt")}
    with pytest.raises(MissingCheckpointError):
        tournament("dp", 4, ckpts, 1, 0, tmp_path, all_ppo=True)
    assert not any(tmp_path.iterdir())


def test_load_agent_rejects_unknown_algo(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, "qtable", {"algo": "mystery"}, {"table": np.zeros((2, 2))})
    with pytest.raises(CheckpointError):
        load_agent(path, ScenarioConfig(), np.random.default_rng(0))


def test_load_agent_rejects_kind_mismatch(tmp_path):
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, "dqn", {"algo": "ql"}, {"table": np.zeros((2, 2))})
    with pytest.raises(CheckpointError):
        load_agent(path, ScenarioConfig(), np.random.default_rng(0))


def test_save_agent_roundtrip_schedule_counters(tmp_path):
    config = ScenarioConfig(episodes=100)
    agent = make_agent("ql", config, np.random.default_rng(1))
    agent.t = 77
    path = tmp_path / "ql.ckpt"
    save_agent(agent, path)
    clone = load_agent(path, config, np.random.default_rng(2))
    assert clone.t == 77
