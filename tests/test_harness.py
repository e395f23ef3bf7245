"""Session orchestration tests: streams, logging, checkpoint lifecycle."""

import dataclasses
import json

import numpy as np
import pytest

from maulab.agents.base import make_agent
from maulab.checkpoint import CheckpointError, MissingCheckpointError, save_checkpoint
from maulab.config import LEARNERS, ConfigError, ScenarioConfig, Seat, Session
from maulab.harness import (
    BLOCK,
    load_agent,
    make_streams,
    pretrain,
    pretrain_grid,
    run,
    run_episode,
    save_agent,
    start,
    tournament,
)
from maulab.metrics import read_csv

from columns import session_columns

TOURNAMENT_ROSTER = [(1, "ppo"), (2, "a2c"), (3, "dqn"), (4, "dpn"), (5, "ql"), (6, "vpg")]


def _random_session(seed, episodes, rule="dp", supply=4):
    config = ScenarioConfig(rule=rule, supply=supply, episodes=episodes, master_seed=seed)
    session = Session("tournament", config, tuple(Seat(i, "random", False) for i in range(1, 7)))
    return (session, *start(session))


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
    session, env, agents = _random_session(3, 1)
    won, winners, valuations = np.zeros((1, 6, 2), dtype=bool), np.zeros((1, 4), dtype=int), np.zeros((1, 6, 2))
    run_episode(env, agents, [False] * 6, [np.zeros((1, 6)), won, np.zeros((1, 6, 2)), np.zeros((1, 6, 2)), winners,
                                           np.zeros(1), valuations])
    assert sorted(winners[0].tolist()) == np.flatnonzero(won[0]).tolist()
    assert np.all(valuations > 0.0)
    assert int(won.sum()) == 4


def test_run_session_payments_match_revenue():
    session, env, agents = _random_session(5, 50, rule="gsp")
    ep, au = session_columns(session, env, agents, 50)
    assert au["episode"].size == 50
    assert ep["episode"].size == 300
    for e, revenue, eff in zip(au["episode"], au["revenue"], au["efficiency_ratio"]):
        rows = ep["episode"] == e
        assert sum(ep["payment_total"][rows].tolist()) == pytest.approx(revenue, abs=1e-9)
        assert int(ep["units_won"][rows].sum()) == 4
        assert 0.0 <= eff <= 1.0


def test_a_session_peak_does_not_grow_with_its_episodes(tmp_path):
    """Each block's rows go to the logs as the block ends, so a 16-block
    session holds no more than a 2-block one. tracemalloc sees numpy's
    buffers as well as Python objects."""
    import tracemalloc

    def traced_peak(blocks):
        tracemalloc.start()
        try:
            run(pretrain("ql", "dp", 4, blocks * BLOCK, 5), tmp_path / str(blocks))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(1)  # warm-up: what the first session allocates once (imports, caches) is not per episode
    two, sixteen = traced_peak(2), traced_peak(16)
    assert sixteen - two < 0.25 * 2 ** 20, (two, sixteen)


def test_identical_seeds_replay_identically(tmp_path):
    p1 = run(pretrain("ql", "dp", 4, 200, 9), tmp_path / "r1") / "ql.ckpt"
    p2 = run(pretrain("ql", "dp", 4, 200, 9), tmp_path / "r2") / "ql.ckpt"
    assert (p1.parent / "episodes.csv").read_bytes() == (p2.parent / "episodes.csv").read_bytes()
    assert (p1.parent / "auctions.csv").read_bytes() == (p2.parent / "auctions.csv").read_bytes()
    assert p1.read_bytes() == p2.read_bytes()


def test_zero_episode_pretrain_checkpoint_is_fresh_init(tmp_path):
    ckpt = run(pretrain("dqn", "up", 6, 0, 13), tmp_path) / "dqn.ckpt"
    config = ScenarioConfig(rule="up", supply=6, episodes=0, master_seed=13)
    _, _, agent_rngs = make_streams(13, 6)
    fresh = make_agent("dqn", config, agent_rngs[0])
    loaded = load_agent(ckpt, config, np.random.default_rng(0))
    assert np.array_equal(loaded.net.vec, fresh.net.vec)
    assert loaded.t == 0


def test_pretrain_writes_run_directory(tmp_path):
    run_dir = run(pretrain("vpg", "gsp", 8, 30, 21), tmp_path)
    assert run_dir == tmp_path / "gsp_8_vpg_21"
    assert (run_dir / "vpg.ckpt").is_file()
    assert (run_dir / "episodes.csv").is_file()
    assert (run_dir / "auctions.csv").is_file()
    assert (run_dir / "config.json").is_file()
    ep = read_csv(run_dir / "episodes.csv")
    assert ep["episode"].size == 30 * 6
    assert set(ep["algo"].tolist()) == {"vpg", "random"}


def test_pretrain_manifest_grid():
    sessions = pretrain_grid(100, 0, hyperparameters={"ql": {"alpha": 0.5}})
    assert len(sessions) == 54
    combos = {(s.roster[0].algo, s.scenario.rule, s.scenario.supply) for s in sessions}
    assert len(combos) == 54
    assert all(s.mode == "pretrain" and s.scenario.episodes == 100 for s in sessions)
    for s in sessions:
        assert s.roster[0].overrides == ({"alpha": 0.5} if s.roster[0].algo == "ql" else {})
        assert [seat.train for seat in s.roster] == [True] + [False] * 5


def test_tournament_roster_ids():
    session = tournament("dp", 4, {"ql": "ql.ckpt"}, 0, 0)
    assert [(seat.id, seat.algo) for seat in session.roster] == TOURNAMENT_ROSTER
    assert [seat.checkpoint for seat in session.roster] == [None] * 4 + ["ql.ckpt", None]
    assert all(seat.train for seat in session.roster)
    ppo6 = tournament("dp", 4, {"ppo": "p.ckpt"}, 0, 0, all_ppo=True, freeze=True)
    seats = [(seat.id, seat.algo, seat.checkpoint) for seat in ppo6.roster]
    assert seats == [(i, "ppo", "p.ckpt") for i in range(1, 7)]
    assert not any(seat.train for seat in ppo6.roster)


def test_session_needs_one_seat_per_bidder():
    with pytest.raises(ConfigError):
        Session("tournament", ScenarioConfig(), (Seat(1, "random", False),))


FIXED = {"n_bidders": 6, "units_per_bidder": 2, "value_lo": 0.0, "value_hi": 10.0}


@pytest.mark.parametrize("name", FIXED)
def test_fixed_scenario_constants_are_not_arguments_but_are_recorded(name):
    with pytest.raises(TypeError):
        ScenarioConfig(**{name: FIXED[name]})
    with pytest.raises(ValueError):
        dataclasses.replace(ScenarioConfig(), **{name: FIXED[name]})
    scenario = pretrain("ql", "gsp", 6, 10, 0).to_dict()["scenario"]
    assert scenario[name] == FIXED[name] and type(scenario[name]) is type(FIXED[name])


def test_tournament_fresh_agents_zero_episodes(tmp_path):
    run_dir = run(tournament("dp", 4, {}, 0, 1), tmp_path)
    assert run_dir == tmp_path / "dp_4_tournament_1"
    assert (run_dir / "episodes.csv").is_file()
    for aid, algo in TOURNAMENT_ROSTER:
        assert (run_dir / f"{algo}_{aid}.ckpt").is_file()


def test_tournament_resumes_checkpoints_and_freeze(tmp_path):
    ckpts = {}
    for algo in ("ppo", "a2c", "dqn", "dpn", "ql", "vpg"):
        ckpts[algo] = str(run(pretrain(algo, "dp", 4, 5, 2), tmp_path / "pre") / f"{algo}.ckpt")
    run_dir = run(tournament("dp", 4, ckpts, 10, 3, freeze=True), tmp_path / "tour")
    # frozen agents do not learn: saved checkpoint arrays equal the inputs
    config = ScenarioConfig(rule="dp", supply=4, episodes=10, master_seed=3)
    for aid, algo in TOURNAMENT_ROSTER:
        src = load_agent(ckpts[algo], config, np.random.default_rng(0))
        out = load_agent(run_dir / f"{algo}_{aid}.ckpt", config, np.random.default_rng(0))
        _, src_arrays = src.checkpoint_payload()
        _, out_arrays = out.checkpoint_payload()
        for k in src_arrays:
            assert np.array_equal(src_arrays[k], out_arrays[k]), (algo, k)


def test_tournament_missing_checkpoint_raises(tmp_path):
    ckpts = {"ppo": str(tmp_path / "nope.ckpt")}
    with pytest.raises(MissingCheckpointError):
        run(tournament("dp", 4, ckpts, 1, 0, all_ppo=True), tmp_path)
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


SEAT_KEYS = {"id", "algo", "train", "checkpoint", "overrides"}


@pytest.fixture(scope="module")
def pretrained(tmp_path_factory):
    """Checkpoint paths of three-episode pretrains of every learner."""
    root = tmp_path_factory.mktemp("pre")
    return {a: str(run(pretrain(a, "dp", 4, 3, 2), root) / f"{a}.ckpt") for a in LEARNERS}


@pytest.mark.parametrize("build", [
    lambda ckpts: pretrain("dqn", "gsp", 6, 4, 1, overrides={"hidden": (8,), "warmup": 2}),
    lambda ckpts: tournament("up", 8, ckpts, 4, 2, freeze=True),
    lambda ckpts: tournament("gsp", 6, ckpts, 4, 3),
    lambda ckpts: tournament("dp", 4, ckpts, 4, 4, all_ppo=True),
], ids=["pretrain", "frozen", "learning", "all_ppo"])
def test_config_json_is_the_session_spec(tmp_path, pretrained, build):
    session = build(pretrained)
    run_dir = run(session, tmp_path)
    snapshot = json.loads((run_dir / "config.json").read_text())
    assert snapshot == json.loads(json.dumps({**session.to_dict(), "out_dir": str(run_dir)}))
    assert all(set(seat) == SEAT_KEYS for seat in snapshot["roster"])
    names = sorted(p.name for p in run_dir.iterdir())
    if session.mode == "pretrain":
        assert names == ["auctions.csv", "config.json", "dqn.ckpt", "episodes.csv"]
    else:
        assert names == sorted(["auctions.csv", "config.json", "episodes.csv"]
                               + [f"{seat.algo}_{seat.id}.ckpt" for seat in session.roster])


def test_config_json_is_written_last(tmp_path, monkeypatch):
    """A run that fails after its logs leaves no config.json, not even the one
    an earlier complete run in the same directory wrote; a run that made its
    directory removes it, logs and all."""
    import maulab.harness

    session = pretrain("ql", "dp", 4, 5, 1)
    run_dir = run(session, tmp_path)
    assert (run_dir / "config.json").is_file()

    def crash(agent, path):
        raise OSError("killed")

    monkeypatch.setattr(maulab.harness, "save_agent", crash)
    with pytest.raises(OSError):
        run(session, tmp_path)
    assert (run_dir / "episodes.csv").is_file()
    assert not (run_dir / "config.json").exists()
    with pytest.raises(OSError):
        run(session, tmp_path / "fresh" / "runs")
    assert not (tmp_path / "fresh").exists()
