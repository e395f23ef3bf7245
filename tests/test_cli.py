"""Command-line interface tests: flags, exit codes, artifacts."""

import json

import pytest

from maulab.cli import main


def _pretrain(tmp_path, **kw):
    args = [
        "pretrain", "--algo", kw.get("algo", "ql"), "--auction", kw.get("auction", "dp"),
        "--items", str(kw.get("items", 4)), "--episodes", str(kw.get("episodes", 20)),
        "--seed", str(kw.get("seed", 1)), "--out", str(tmp_path),
    ]
    return main(args)


def test_invalid_flag_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["pretrain", "--algo", "nonsense", "--auction", "dp", "--items", "4"])
    assert e.value.code == 2


def test_pretrain_missing_required_flags():
    assert main(["pretrain"]) == 2


def test_pretrain_smoke(tmp_path, capsys):
    assert _pretrain(tmp_path) == 0
    out = capsys.readouterr().out.strip()
    run_dir = tmp_path / "dp_4_ql_1"
    assert out.endswith("ql.ckpt")
    assert (run_dir / "ql.ckpt").is_file()
    assert (run_dir / "episodes.csv").is_file()
    snapshot = json.loads((run_dir / "config.json").read_text())
    assert snapshot["scenario"]["episodes"] == 20
    assert snapshot["mode"] == "pretrain"


def test_pretrain_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "algo": "vpg", "auction": "gsp", "items": 6, "episodes": 10, "seed": 3,
        "hyperparameters": {"vpg": {"alpha": 0.5}},
    }))
    code = main(["pretrain", "--config", str(cfg), "--episodes", "15", "--out", str(tmp_path)])
    assert code == 0
    snapshot = json.loads((tmp_path / "gsp_6_vpg_3" / "config.json").read_text())
    assert snapshot["scenario"]["episodes"] == 15  # flag wins
    assert snapshot["hyperparameters"]["vpg"]["alpha"] == 0.5


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"algo": "ql", "bogus": 1}))
    assert main(["pretrain", "--config", str(cfg)]) == 2


def test_tournament_missing_checkpoint_exits_4(tmp_path, capsys):
    code = main([
        "tournament", "--auction", "dp", "--items", "4", "--episodes", "5",
        "--ckpt", f"ppo={tmp_path}/missing.ckpt", "--all-ppo", "--out", str(tmp_path),
    ])
    assert code == 4


def test_tournament_bad_ckpt_spec_exits_2(tmp_path):
    assert main([
        "tournament", "--auction", "dp", "--items", "4",
        "--ckpt", "no-equals-sign", "--out", str(tmp_path),
    ]) == 2
    assert main([
        "tournament", "--auction", "dp", "--items", "4",
        "--ckpt", "sarsa=x.ckpt", "--out", str(tmp_path),
    ]) == 2


def test_tournament_all_ppo_and_freeze(tmp_path, capsys):
    assert _pretrain(tmp_path / "pre", algo="ppo", episodes=10) == 0
    ckpt = tmp_path / "pre" / "dp_4_ppo_1" / "ppo.ckpt"
    for out in ("t1", "t2"):
        code = main([
            "tournament", "--auction", "dp", "--items", "4", "--episodes", "5",
            "--seed", "2", "--ckpt", f"ppo={ckpt}", "--all-ppo", "--freeze",
            "--out", str(tmp_path / out),
        ])
        assert code == 0
    d1 = tmp_path / "t1" / "dp_4_ppo6_2"
    d2 = tmp_path / "t2" / "dp_4_ppo6_2"
    assert (d1 / "episodes.csv").read_bytes() == (d2 / "episodes.csv").read_bytes()
    for aid in range(1, 7):
        assert (d1 / f"ppo_{aid}.ckpt").read_bytes() == (d2 / f"ppo_{aid}.ckpt").read_bytes()


def test_tournament_ckpt_dir_discovery(tmp_path, capsys):
    pre = tmp_path / "pre"
    for algo in ("ppo", "a2c", "dqn", "dpn", "ql", "vpg"):
        assert _pretrain(pre / "runs", algo=algo, episodes=5) == 0
        src = pre / "runs" / f"dp_4_{algo}_1" / f"{algo}.ckpt"
        (pre / f"{algo}.ckpt").write_bytes(src.read_bytes())
    code = main([
        "tournament", "--auction", "up", "--items", "4", "--episodes", "5",
        "--ckpt-dir", str(pre), "--out", str(tmp_path / "tour"),
    ])
    assert code == 0
    assert (tmp_path / "tour" / "up_4_tournament_0" / "episodes.csv").is_file()


def test_report_missing_run_exits_5(tmp_path, capsys):
    assert main(["report", "--run", str(tmp_path / "nowhere")]) == 5


def test_report_corrupt_logs_exits_5(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    (run / "episodes.csv").write_text("not,a,log\n1,2,3\n")
    (run / "auctions.csv").write_text("episode,rule\n0,dp\n")
    assert main(["report", "--run", str(run)]) == 5


def test_report_empty_logs_exits_5(tmp_path, capsys):
    run = tmp_path / "run"
    run.mkdir()
    header_ep = (
        "episode,agent_id,algo,value,bid1,bid2,units_won,payment_total,"
        "payoff_total,reward_total,learning_ratio1,learning_ratio2,bid_ratio1,bid_ratio2\n"
    )
    (run / "episodes.csv").write_text(header_ep)
    (run / "auctions.csv").write_text("episode,rule,K,revenue,efficiency_ratio,efficiency_gap\n")
    assert main(["report", "--run", str(run)]) == 5


def test_report_artifacts_and_determinism(tmp_path, capsys):
    assert _pretrain(tmp_path, episodes=60) == 0
    run = tmp_path / "dp_4_ql_1"
    out1 = tmp_path / "rep1"
    out2 = tmp_path / "rep2"
    assert main(["report", "--run", str(run), "--out", str(out1), "--window", "10"]) == 0
    printed = capsys.readouterr().out
    assert "rank" in printed and "revenue_total" in printed
    names = [
        "table_bidders.csv", "table_auctions.csv",
        "fig_learning_ratio.svg", "fig_revenue.svg", "fig_efficiency.svg",
    ]
    for name in names:
        assert (out1 / name).is_file()
        assert str(out1 / name) in printed
    assert main(["report", "--run", str(run), "--out", str(out2), "--window", "10"]) == 0
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_report_warns_on_partial_logs(tmp_path, capsys):
    assert _pretrain(tmp_path, episodes=30) == 0
    run = tmp_path / "dp_4_ql_1"
    snapshot = json.loads((run / "config.json").read_text())
    snapshot["scenario"]["episodes"] = 1000
    (run / "config.json").write_text(json.dumps(snapshot))
    assert main(["report", "--run", str(run), "--out", str(tmp_path / "rep")]) == 0
    assert "warning" in capsys.readouterr().err


def test_default_out_from_env(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("MAULAB_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    assert main([
        "pretrain", "--algo", "ql", "--auction", "dp", "--items", "4",
        "--episodes", "5", "--seed", "0",
    ]) == 0
    assert (tmp_path / "envout" / "dp_4_ql_0" / "ql.ckpt").is_file()


@pytest.mark.parametrize("window", ["0", "-3"])
def test_report_window_below_one_exits_2(tmp_path, capsys, window):
    assert _pretrain(tmp_path, episodes=5) == 0
    run = tmp_path / "dp_4_ql_1"
    assert main(["report", "--run", str(run), "--out", str(tmp_path / "rep"), "--window", window]) == 2
    assert "--window" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("algo, key", [("ql", "gamma"), ("vpg", "gamma"), ("dqn", "sync_every"), ("ppo", "bogus")])
def test_unknown_hyperparameter_exits_2(tmp_path, capsys, algo, key):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "algo": algo, "auction": "dp", "items": 4, "episodes": 5,
        "hyperparameters": {algo: {key: 1}},
    }))
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert algo in err and key in err
    assert not any(tmp_path.glob("dp_4_*"))


@pytest.mark.parametrize("algo, overrides, key", [
    ("ppo", {"rollout": "64"}, "rollout"),
    ("dqn", {"batch_size": 0, "warmup": 0}, "batch_size"),
])
def test_hyperparameter_type_and_range_exit_2(tmp_path, capsys, algo, overrides, key):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "algo": algo, "auction": "dp", "items": 4, "episodes": 5,
        "hyperparameters": {algo: overrides},
    }))
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert algo in err and key in err
    assert "Traceback" not in err
    assert not any(tmp_path.glob("dp_4_*"))


@pytest.mark.parametrize("key, value", [
    ("items", "x"), ("items", 5), ("algo", "random"), ("auction", "fp"),
    ("episodes", 10.5), ("episodes", "ten"), ("seed", 1.5), ("grid_levels", "x"),
])
def test_config_file_values_checked_like_flags(tmp_path, capsys, key, value):
    cfg = {"algo": "ql", "auction": "dp", "items": 4, "episodes": 5, "seed": 0, key: value}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


def test_report_corrupt_config_snapshot_exits_5(tmp_path, capsys):
    assert _pretrain(tmp_path, episodes=5) == 0
    run = tmp_path / "dp_4_ql_1"
    for text in ("{not json", '{"scenario": {}}', '["a list"]'):
        (run / "config.json").write_text(text)
        assert main(["report", "--run", str(run), "--out", str(tmp_path / "rep")]) == 5
        assert "corrupt run directory" in capsys.readouterr().err


@pytest.fixture(scope="module")
def grid_checkpoints(tmp_path_factory):
    """Five-episode pretrains of every learner at the default grid and at 11 levels."""
    root = tmp_path_factory.mktemp("grids")
    for levels in (21, 11):
        for algo in ("ppo", "a2c", "dqn", "dpn", "ql", "vpg"):
            assert main([
                "pretrain", "--algo", algo, "--auction", "dp", "--items", "4", "--episodes", "5",
                "--grid-levels", str(levels), "--out", str(root / str(levels)),
            ]) == 0
    return lambda algo, levels=21: root / str(levels) / f"dp_4_{algo}_0" / f"{algo}.ckpt"


def _frozen_tournament(tmp_path, ckpts):
    return main([
        "tournament", "--auction", "dp", "--items", "4", "--episodes", "5", "--freeze",
        *[x for algo, path in ckpts.items() for x in ("--ckpt", f"{algo}={path}")],
        "--out", str(tmp_path),
    ])


@pytest.mark.parametrize("algo", ["ppo", "a2c", "dqn", "dpn", "ql", "vpg"])
def test_checkpoint_from_other_grid_exits_5(tmp_path, capsys, grid_checkpoints, algo):
    ckpts = {a: grid_checkpoints(a) for a in ("ppo", "a2c", "dqn", "dpn", "ql", "vpg")}
    assert _frozen_tournament(tmp_path / "ok", ckpts) == 0
    capsys.readouterr()
    ckpts[algo] = grid_checkpoints(algo, 11)
    assert _frozen_tournament(tmp_path / "bad", ckpts) == 5
    err = capsys.readouterr().err
    assert str(ckpts[algo]) in err and "shape" in err and "Traceback" not in err
    assert not any((tmp_path / "bad").glob("*/episodes.csv"))


@pytest.mark.parametrize("drop", ["array", "counter"])
def test_checkpoint_missing_state_exits_5(tmp_path, capsys, grid_checkpoints, drop):
    from maulab.checkpoint import load_checkpoint, save_checkpoint

    kind, meta, arrays = load_checkpoint(grid_checkpoints("ppo"))
    if drop == "array":
        del arrays["opt_critic.v2"]
    else:
        del meta["t"]
    bad = tmp_path / "ppo.ckpt"
    save_checkpoint(bad, kind, meta, arrays)
    code = main([
        "tournament", "--auction", "dp", "--items", "4", "--episodes", "5", "--all-ppo",
        "--ckpt", f"ppo={bad}", "--out", str(tmp_path),
    ])
    assert code == 5
    err = capsys.readouterr().err
    assert str(bad) in err and ("'opt_critic.v2'" if drop == "array" else "'t'") in err


def test_report_logs_covering_different_episodes_exit_5(tmp_path, capsys):
    assert _pretrain(tmp_path, episodes=20) == 0
    run = tmp_path / "dp_4_ql_1"
    lines = (run / "auctions.csv").read_text().splitlines(keepends=True)
    (run / "auctions.csv").write_text("".join(lines[:11]))  # header and episodes 0-9
    assert main(["report", "--run", str(run), "--out", str(tmp_path / "rep")]) == 5
    assert "corrupt run directory" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()
