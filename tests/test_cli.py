"""Command-line interface tests: flags, exit codes, artifacts."""

import gc
import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from maulab.cli import main
from maulab.config import LEARNERS, MAX_GRID_LEVELS


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
    assert snapshot["roster"][0]["overrides"] == {"alpha": 0.5}


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


def test_report_window_beyond_the_log_averages_the_whole_log(tmp_path, capsys):
    """A window at least the log's length gives the running mean, even one too
    large for a 64-bit integer."""
    assert _pretrain(tmp_path, episodes=20) == 0
    run = tmp_path / "dp_4_ql_1"
    for window in ("20", str(10**20)):
        assert main(["report", "--run", str(run), "--out", str(tmp_path / window), "--window", window]) == 0
    assert "Traceback" not in capsys.readouterr().err
    for name in ("fig_learning_ratio.svg", "fig_revenue.svg", "fig_efficiency.svg"):
        assert (tmp_path / "20" / name).read_bytes() == (tmp_path / str(10**20) / name).read_bytes()


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
    ("dpn", {"lr": float("inf"), "batch_size": 4}, "lr"),
    ("ql", {"alpha": float("nan")}, "alpha"),
    ("ql", {"alpha": -1.0}, "alpha"),
    ("ql", {"decay_rate": 2.0}, "decay_rate"),
    ("dqn", {"decay_rate": -0.5}, "decay_rate"),
    ("ql", {"eps_max": 1.5}, "eps_max"),
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


def test_dqn_buffer_below_its_warm_up_exits_2_or_5(tmp_path, capsys, grid_checkpoints):
    """A DQN whose replay buffer cannot hold its warm-up would never train."""
    from maulab.checkpoint import load_checkpoint, save_checkpoint

    small = {"buffer_capacity": 32, "warmup": 64}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "algo": "dqn", "auction": "dp", "items": 4, "episodes": 5, "hyperparameters": {"dqn": small},
    }))
    assert main(["pretrain", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "dqn" in err and "buffer_capacity" in err and "Traceback" not in err
    assert not any(tmp_path.glob("dp_4_*"))

    kind, meta, arrays = load_checkpoint(grid_checkpoints("dqn"))
    bad = tmp_path / "dqn.ckpt"
    save_checkpoint(bad, kind, dict(meta, **small), arrays)
    ckpts = {**{a: grid_checkpoints(a) for a in ("ppo", "a2c", "dpn", "ql", "vpg")}, "dqn": bad}
    assert _frozen_tournament(tmp_path / "tour", ckpts) == 5
    err = capsys.readouterr().err
    assert str(bad) in err and "buffer_capacity" in err and "Traceback" not in err
    assert not (tmp_path / "tour").exists()


def test_all_rejects_a_dqn_buffer_below_its_warm_up_before_any_session(tmp_path, capsys):
    """The config file is checked whole before the first of the 54 sessions runs."""
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"episodes": 3, "hyperparameters": {"dqn": {"buffer_capacity": 10}}}))
    out = tmp_path / "runs"
    assert main(["pretrain", "--all", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "dqn" in err and "buffer_capacity" in err and "never train" in err and "Traceback" not in err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize("key, value", [
    ("items", "x"), ("items", 5), ("algo", "random"), ("auction", "fp"),
    ("episodes", 10.5), ("episodes", "ten"), ("seed", 1.5), ("grid_levels", "x"),
    ("out", None), ("out", True), ("out", ["runs"]),
])
def test_config_file_values_checked_like_flags(tmp_path, capsys, key, value):
    cfg = {"algo": "ql", "auction": "dp", "items": 4, "episodes": 5, "seed": 0, key: value}
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(cfg))
    assert main(["pretrain", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("levels", [MAX_GRID_LEVELS + 1, 10**11, 2**70])
@pytest.mark.parametrize("by_file", [False, True])
def test_grid_levels_above_the_maximum_exit_2_before_any_run(tmp_path, capsys, levels, by_file):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"grid_levels": levels}))
    given = ["--config", str(cfg)] if by_file else ["--grid-levels", str(levels)]
    out = tmp_path / "out"
    argv = ["pretrain", "--algo", "ql", "--auction", "dp", "--items", "4", "--episodes", "5", *given]
    assert main([*argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: grid_levels must be in [2, {MAX_GRID_LEVELS}], got {levels}\n"
    assert not out.exists()


def test_report_corrupt_config_snapshot_exits_5(tmp_path, capsys):
    assert _pretrain(tmp_path, episodes=5) == 0
    run = tmp_path / "dp_4_ql_1"
    for text in ("{not json", '{"scenario": {}}', '["a list"]', '{"scenario": {"episodes": Infinity}}',
                 '{"scenario": {"episodes": 1.5}}'):
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


# How each case spoils a five-episode checkpoint: its learner, the edit of
# its meta and arrays, and what the error names.
SPOILED = {
    "array": ("ppo", lambda meta, arrays: arrays.pop("opt_critic.v2"), "'opt_critic.v2'"),
    "counter": ("ppo", lambda meta, arrays: meta.pop("t"), "'t'"),
    "nan": ("ppo", lambda meta, arrays: np.put(arrays["actor.w0"], 0, np.nan), "'actor.w0'"),
    "t_infinite": ("ppo", lambda meta, arrays: meta.update(t=float("inf")), "'t'"),
    "t_negative": ("ppo", lambda meta, arrays: meta.update(t=-5), "'t'"),
    "step_real": ("ppo", lambda meta, arrays: meta.update(opt_actor_step=2.7), "'opt_actor_step'"),
    "step_text": ("ppo", lambda meta, arrays: meta.update(opt_actor_step="7"), "'opt_actor_step'"),
    "ql_t_negative": ("ql", lambda meta, arrays: meta.update(t=-5), "'t'"),
    "ql_decay_above_1": ("ql", lambda meta, arrays: meta.update(decay_rate=2.0), "'decay_rate'"),
}


@pytest.mark.parametrize("case", list(SPOILED))
def test_checkpoint_missing_state_exits_5(tmp_path, capsys, grid_checkpoints, case):
    from maulab.checkpoint import load_checkpoint, save_checkpoint

    algo, spoil, named = SPOILED[case]
    kind, meta, arrays = load_checkpoint(grid_checkpoints(algo))
    spoil(meta, arrays)
    bad = tmp_path / f"{algo}.ckpt"
    save_checkpoint(bad, kind, meta, arrays)
    if algo == "ppo":
        seats = ["--all-ppo", "--ckpt", f"ppo={bad}"]
    else:  # a learning ql seat explores from its first episode
        ckpts = {**{a: grid_checkpoints(a) for a in ("ppo", "a2c", "dqn", "dpn", "vpg")}, algo: bad}
        seats = [x for a, path in ckpts.items() for x in ("--ckpt", f"{a}={path}")]
    out = tmp_path / "runs"
    code = main(["tournament", "--auction", "dp", "--items", "4", "--episodes", "5", *seats, "--out", str(out)])
    assert code == 5
    err = capsys.readouterr().err
    assert str(bad) in err and named in err and "Traceback" not in err
    assert not out.exists()


def test_report_logs_covering_different_episodes_exit_5(tmp_path, capsys):
    assert _pretrain(tmp_path, episodes=20) == 0
    run = tmp_path / "dp_4_ql_1"
    lines = (run / "auctions.csv").read_text().splitlines(keepends=True)
    (run / "auctions.csv").write_text("".join(lines[:11]))  # header and episodes 0-9
    assert main(["report", "--run", str(run), "--out", str(tmp_path / "rep")]) == 5
    assert "corrupt run directory" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def _exit_case(code, tmp_path):
    """argv for a command that must exit with `code`."""
    if code == 0:
        return ["pretrain", "--algo", "ql", "--auction", "dp", "--items", "4", "--episodes", "3",
                "--out", str(tmp_path)]
    if code == 2:
        return ["pretrain", "--config", str(tmp_path / "missing.json")]
    if code == 3:
        (tmp_path / "file").write_text("not a directory\n")
        return ["pretrain", "--algo", "ql", "--auction", "dp", "--items", "4", "--episodes", "3",
                "--out", str(tmp_path / "file" / "runs")]
    if code == 4:
        return ["tournament", "--auction", "dp", "--items", "4", "--episodes", "3", "--all-ppo",
                "--ckpt", f"ppo={tmp_path / 'missing.ckpt'}", "--out", str(tmp_path)]
    (tmp_path / "bad.ckpt").write_bytes(b"MAUL" + bytes(60))
    return ["tournament", "--auction", "dp", "--items", "4", "--episodes", "3", "--all-ppo",
            "--ckpt", f"ppo={tmp_path / 'bad.ckpt'}", "--out", str(tmp_path)]


@pytest.mark.parametrize("code", [0, 2, 3, 4, 5])
def test_documented_exit_codes(tmp_path, capsys, code):
    assert main(_exit_case(code, tmp_path)) == code
    assert "Traceback" not in capsys.readouterr().err


def test_missing_file_other_than_a_checkpoint_exits_3(tmp_path, capsys, monkeypatch):
    import maulab.harness

    def vanish(*args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", str(tmp_path / "gone"))

    monkeypatch.setattr(maulab.harness, "pretrain", vanish)
    assert main(_exit_case(0, tmp_path)) == 3
    assert "gone" in capsys.readouterr().err


def _with_header(path, header, arrays=()):
    """A checkpoint with a valid checksum around an arbitrary JSON header."""
    hbytes = json.dumps(header).encode("utf-8")
    body = b"MAUL" + struct.pack("<II", 1, len(hbytes)) + hbytes
    body += b"".join(np.asarray(a, dtype="<f8").tobytes() for a in arrays)
    path.write_bytes(body + hashlib.sha256(body).digest())


# Shapes whose element count wraps to 0 in a fixed-width product, and an empty shape with a dimension
# that numpy cannot hold.
@pytest.mark.parametrize("shape", [[2**62, 4], [0, 2**62]])
def test_a_checkpoint_shape_numpy_cannot_build_exits_5(tmp_path, capsys, shape):
    bad = tmp_path / "huge.ckpt"
    _with_header(bad, {"kind": "qtable", "meta": {"algo": "ql"}, "arrays": [{"name": "table", "shape": shape}]})
    assert _frozen_tournament(tmp_path / "out", {algo: bad for algo in LEARNERS}) == 5
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("damage", [
    "no arrays", "meta a list", "header a list", "kind a number", "spec a list", "negative dim", "bool dim",
    "int layout",
])
def test_checkpoint_with_a_malformed_header_exits_5(tmp_path, capsys, grid_checkpoints, damage):
    from maulab.checkpoint import load_checkpoint

    kind, meta, arrays = load_checkpoint(grid_checkpoints("ppo"))
    header = {"kind": kind, "meta": meta, "arrays": [{"name": n, "shape": list(a.shape)} for n, a in arrays.items()]}
    first = header["arrays"][0]
    if damage == "no arrays":
        del header["arrays"]
    elif damage == "meta a list":
        header["meta"] = list(meta)
    elif damage == "header a list":
        header = list(header.values())
    elif damage == "kind a number":
        header["kind"] = 1
    elif damage == "spec a list":
        header["arrays"][0] = [first["name"], first["shape"]]
    elif damage == "negative dim":
        first["shape"] = [-1, *first["shape"][1:]]
    elif damage == "bool dim":
        first["shape"] = [True, *first["shape"][1:]]
    else:  # a checkpoint from before `hidden` was saved, whose layout is not a list
        del meta["hidden"]
        meta["layout_actor"] = 5
    bad = tmp_path / "ppo.ckpt"
    _with_header(bad, header, arrays.values())
    code = main([
        "tournament", "--auction", "dp", "--items", "4", "--episodes", "5", "--all-ppo",
        "--ckpt", f"ppo={bad}", "--out", str(tmp_path / "out"),
    ])
    assert code == 5
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_checkpoint_with_out_of_range_hyperparameter_exits_5(tmp_path, capsys, grid_checkpoints):
    """A checkpoint written before hyperparameters were range-checked."""
    from maulab.checkpoint import load_checkpoint, save_checkpoint

    kind, meta, arrays = load_checkpoint(grid_checkpoints("dqn"))
    bad = tmp_path / "dqn.ckpt"
    save_checkpoint(bad, kind, dict(meta, batch_size=0, warmup=0), arrays)
    ckpts = {a: grid_checkpoints(a) for a in ("ppo", "a2c", "dpn", "ql", "vpg")}
    code = main([
        "tournament", "--auction", "dp", "--items", "4", "--episodes", "5",
        *[x for algo, path in {**ckpts, "dqn": bad}.items() for x in ("--ckpt", f"{algo}={path}")],
        "--out", str(tmp_path / "tour"),
    ])
    assert code == 5
    err = capsys.readouterr().err
    assert str(bad) in err and "batch_size" in err and "Traceback" not in err
    assert not (tmp_path / "tour").exists()


def _drop_column(text, name):
    rows = [line.split(",") for line in text.splitlines()]
    i = rows[0].index(name)
    return "".join(",".join(r[:i] + r[i + 1:]) + "\n" for r in rows)


def _set_cell(text, row, name, value):
    rows = [line.split(",") for line in text.splitlines()]
    rows[row + 1][rows[0].index(name)] = value
    return "".join(",".join(r) + "\n" for r in rows)


def _short_row(text):
    lines = text.splitlines(keepends=True)
    lines[2] = lines[2].rsplit(",", 1)[0] + "\n"
    return "".join(lines)


@pytest.mark.parametrize("damage", [
    _short_row,
    lambda t: _set_cell(t, 3, "value", "abc"),
    lambda t: _drop_column(t, "bid2"),
    lambda t: _set_cell(t, 3, "algo", "mystery"),
    lambda t: "",
    lambda t: _set_cell(t, 3, "value", "nan"),
    lambda t: _set_cell(t, 3, "payoff_total", "inf"),
], ids=["ragged_row", "non_numeric", "missing_column", "unknown_algo", "empty_file", "nan_cell", "inf_cell"])
def test_report_malformed_episode_log_exits_5(tmp_path, capsys, damage):
    assert _pretrain(tmp_path, episodes=5) == 0
    log = tmp_path / "dp_4_ql_1" / "episodes.csv"
    log.write_text(damage(log.read_text()))
    assert main(["report", "--run", str(log.parent), "--out", str(tmp_path / "rep")]) == 5
    err = capsys.readouterr().err
    assert "corrupt run directory" in err and "Traceback" not in err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize("source", ["pretrain", "tournament", "config_file"])
def test_negative_seed_exits_2_before_any_run_directory(tmp_path, capsys, source):
    out = tmp_path / "out"
    if source == "pretrain":
        argv = ["pretrain", "--algo", "ql", "--auction", "dp", "--items", "4", "--seed", "-1"]
    elif source == "tournament":
        (tmp_path / "ppo.ckpt").write_bytes(b"")
        argv = ["tournament", "--auction", "dp", "--items", "4", "--seed", "-1", "--all-ppo",
                "--ckpt", f"ppo={tmp_path / 'ppo.ckpt'}"]
    else:
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"algo": "ql", "auction": "dp", "items": 4, "seed": -1}))
        argv = ["pretrain", "--config", str(cfg)]
    assert main([*argv, "--episodes", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err
    assert not out.exists()


def test_all_manifest_matches_each_run_config(tmp_path, capsys):
    assert main(["pretrain", "--all", "--episodes", "2", "--seed", "4", "--out", str(tmp_path)]) == 0
    printed = capsys.readouterr().out.split()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest) == len(printed) == 54
    for spec, ckpt in zip(manifest, printed):
        learner = spec["roster"][0]
        run_dir = tmp_path / f"{spec['scenario']['rule']}_{spec['scenario']['supply']}_{learner['algo']}_4"
        assert ckpt == str(run_dir / f"{learner['algo']}.ckpt")
        snapshot = json.loads((run_dir / "config.json").read_text())
        assert snapshot.pop("out_dir") == str(run_dir)
        assert snapshot == spec


def test_report_reads_earlier_layout_snapshot(tmp_path, capsys):
    """config.json as written before sessions were specs: top-level
    hyperparameters, checkpoints, all_ppo and freeze keys, seats without a
    checkpoint or overrides."""
    assert _pretrain(tmp_path, episodes=30) == 0
    run = tmp_path / "dp_4_ql_1"
    snapshot = json.loads((run / "config.json").read_text())
    earlier = {
        "mode": "tournament",
        "scenario": dict(snapshot["scenario"], episodes=1000),
        "roster": [{"id": s["id"], "algo": s["algo"], "train": s["train"]} for s in snapshot["roster"]],
        "hyperparameters": {"ql": {"alpha": 0.1}},
        "checkpoints": {"ql": "ql.ckpt"},
        "all_ppo": False,
        "freeze": True,
        "out_dir": str(run),
    }
    (run / "config.json").write_text(json.dumps(earlier))
    assert main(["report", "--run", str(run), "--out", str(tmp_path / "rep")]) == 0
    assert "logs cover 30 of 1000 episodes" in capsys.readouterr().err


def test_checkpoint_of_another_algorithm_exits_5(tmp_path, capsys, grid_checkpoints):
    ckpts = {a: grid_checkpoints(a) for a in ("ppo", "a2c", "dqn", "dpn", "ql", "vpg")}
    ckpts["ql"] = grid_checkpoints("dqn")
    assert _frozen_tournament(tmp_path / "out", ckpts) == 5
    err = capsys.readouterr().err
    assert str(ckpts["ql"]) in err and "dqn" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_tournament_config_file_hyperparameters_exit_2(tmp_path, capsys, grid_checkpoints):
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"auction": "dp", "items": 4, "hyperparameters": {"ppo": {"rollout": 8}}}))
    code = main([
        "tournament", "--config", str(cfg), "--episodes", "5", "--all-ppo",
        "--ckpt", f"ppo={grid_checkpoints('ppo')}", "--out", str(tmp_path / "out"),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "hyperparameters" in err and "pretrain only" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


# pretrain --all runs every algorithm, rule and supply, and a tournament seats every learner, so a setting
# that picks one is not read; giving it, by flag or by config file, is an error. So is an earlier --ckpt
# for a learner that a later one names again.
UNREAD = {  # case: (argv, config file or None, how the error names the setting)
    "all_algo_flag": (["pretrain", "--all", "--algo", "ql"], None, "--algo"),
    "all_auction_flag": (["pretrain", "--all", "--auction", "up"], None, "--auction"),
    "all_items_flag": (["pretrain", "--all", "--items", "8"], None, "--items"),
    "all_algo_key": (["pretrain", "--all"], {"algo": "ql"}, "config key 'algo'"),
    "all_auction_key": (["pretrain", "--all"], {"auction": "up"}, "config key 'auction'"),
    "all_items_key": (["pretrain", "--all"], {"items": 8}, "config key 'items'"),
    "tournament_algo_key": (["tournament", "--all-ppo"], {"algo": "dqn", "auction": "up", "items": 8},
                            "config key 'algo'"),
    "all_ppo_other_ckpt": (["tournament", "--all-ppo", "--auction", "up", "--items", "8",
                            "--ckpt", "a2c=nowhere.ckpt"], None, "--ckpt a2c=nowhere.ckpt"),
    "second_ckpt_same_learner": (["tournament", "--all-ppo", "--auction", "up", "--items", "8",
                                  "--ckpt", "ppo=nowhere.ckpt"], None, "--ckpt ppo=nowhere.ckpt"),
}


@pytest.mark.parametrize("case", UNREAD)
def test_a_setting_the_command_does_not_read_exits_2_before_any_run(tmp_path, capsys, grid_checkpoints, case):
    argv, config, named = UNREAD[case]
    if config is not None:
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(config))
        argv = [*argv, "--config", str(cfg)]
    if argv[0] == "tournament":
        argv = [*argv, "--ckpt", f"ppo={grid_checkpoints('ppo')}"]
    out = tmp_path / "out"
    assert main([*argv, "--episodes", "1", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named} ") and err.count("\n") == 1
    assert not out.exists()


_EPISODE_HEADER = (
    "episode,agent_id,algo,value,bid1,bid2,units_won,payment_total,"
    "payoff_total,reward_total,learning_ratio1,learning_ratio2,bid_ratio1,bid_ratio2\n"
)
_AUCTION_HEADER = "episode,rule,K,revenue,efficiency_ratio,efficiency_gap\n"


def _logs(run, episodes, auctions):
    run.mkdir()
    (run / "episodes.csv").write_text(episodes)
    (run / "auctions.csv").write_text(auctions)
    return ["report", "--run", str(run)]


@pytest.mark.parametrize("case, code", [
    ("pretrain_without_algo", 2),
    ("tournament_without_items", 2),
    ("tournament_hyperparameters", 2),
    ("ckpt_without_equals_sign", 2),
    ("ckpt_unknown_algo", 2),
    ("tournament_missing_checkpoint", 4),
    ("report_no_logs", 5),
    ("report_corrupt_logs", 5),
    ("report_empty_logs", 5),
    ("report_logs_cover_different_episodes", 5),
])
def test_each_cli_failure_is_one_stderr_line_and_its_exit_code(tmp_path, capsys, case, code):
    tour = ["tournament", "--auction", "dp", "--items", "4", "--episodes", "3"]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"hyperparameters": {"ppo": {"rollout": 8}}}))
    argv = {
        "pretrain_without_algo": ["pretrain", "--auction", "dp", "--items", "4"],
        "tournament_without_items": ["tournament", "--auction", "dp"],
        "tournament_hyperparameters": [*tour, "--config", str(cfg)],
        "ckpt_without_equals_sign": [*tour, "--ckpt", "no-equals-sign"],
        "ckpt_unknown_algo": [*tour, "--ckpt", "sarsa=x.ckpt"],
        "tournament_missing_checkpoint": [*tour, "--all-ppo"],
        "report_no_logs": ["report", "--run", str(tmp_path / "nowhere")],
        "report_corrupt_logs": _logs(tmp_path / "corrupt", "not,a,log\n1,2,3\n", _AUCTION_HEADER),
        "report_empty_logs": _logs(tmp_path / "empty", _EPISODE_HEADER, _AUCTION_HEADER),
        "report_logs_cover_different_episodes": _logs(
            tmp_path / "apart",
            _EPISODE_HEADER + "0,1,ql,5.0,1.0,1.0,0,0.0,0.0,0.0,0.8,0.8,0.2,0.2\n",
            _AUCTION_HEADER + "1,dp,4,0.0,1.0,0.0\n",
        ),
    }[case]
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("corrupt run directory" if argv[0] == "report" else "error:")
    assert not out.exists()


# Sizes in the TiB range, which numpy refuses at once, so nothing is allocated, and counts of
# 2**70, which no numpy dimension can hold.
ALLOCATIONS = {
    "buffer_capacity": ("dqn", "buffer_capacity", 10_000_000_000_000),
    "value_bins": ("ql", "value_bins", 100_000_000_000),
    "value_bins_2**70": ("ql", "value_bins", 2**70),
    "buffer_capacity_2**70": ("dqn", "buffer_capacity", 2**70),
    "rollout_2**70": ("ppo", "rollout", 2**70),
    "hidden_2**70": ("dpn", "hidden", [64, 2**70]),
}


@pytest.mark.parametrize("case", ALLOCATIONS)
def test_an_allocation_that_cannot_be_made_exits_2_and_writes_nothing(tmp_path, capsys, case):
    out = tmp_path / "out"
    algo, key, value = ALLOCATIONS[case]
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "algo": algo, "auction": "dp", "items": 4, "episodes": 5, "hyperparameters": {algo: {key: value}},
    }))
    assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err and "Traceback" not in err
    assert not out.exists()


# Step sizes so large that the learner's policy, table or gradient leaves the floats within 600
# episodes; dqn trains only after its warm-up, so it gets a short one.
@pytest.mark.parametrize("algo, key, value", [
    ("dpn", "lr", 1e307), ("a2c", "actor_lr", 1e307), ("ppo", "actor_lr", 1e307), ("vpg", "alpha", 1e308),
    ("ql", "alpha", 1e308), ("dqn", "lr", 1e307),
])
def test_a_learner_that_diverges_exits_2_and_writes_nothing(tmp_path, capsys, algo, key, value):
    out = tmp_path / "out"
    cfg = tmp_path / "exp.json"
    hyper = {key: value, **({"warmup": 64} if algo == "dqn" else {})}
    cfg.write_text(json.dumps({
        "algo": algo, "auction": "dp", "items": 4, "episodes": 600, "hyperparameters": {algo: hyper},
    }))
    assert main(["pretrain", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: the learner diverged (") and err.count("\n") == 1
    assert not out.exists()


def _disk_full_after_the_first_block(monkeypatch) -> list:
    """Four-episode blocks, and a log write that fails on any block but the
    first; returns the list of (file name, size) at each failure."""
    import maulab.harness

    monkeypatch.setattr(maulab.harness, "BLOCK", 4)
    write_csv, failed = maulab.harness.write_csv, []

    def disk_full_after_the_first_block(columns, out, fieldnames):
        if columns["episode"][0] > 0:
            failed.append((out.name, out.tell()))
            raise OSError(28, "No space left on device")
        write_csv(columns, out, fieldnames)

    monkeypatch.setattr(maulab.harness, "write_csv", disk_full_after_the_first_block)
    return failed


@pytest.mark.parametrize("sessions", [["--algo", "ql", "--auction", "dp", "--items", "4"], ["--all"]],
                         ids=["one", "all"])
def test_a_session_failing_after_its_first_block_exits_3_and_leaves_nothing(tmp_path, capsys, monkeypatch, sessions):
    failed = _disk_full_after_the_first_block(monkeypatch)
    out = tmp_path / "out"
    assert main(["pretrain", *sessions, "--episodes", "10", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "No space left" in err
    (part, size), = failed  # the first session failed on its second block ...
    assert part.endswith("episodes.csv.part") and size > len(_EPISODE_HEADER)  # ... with its first block written
    assert not list(tmp_path.rglob("*.part")) and not list(tmp_path.rglob("manifest.json"))
    assert not out.exists()  # neither the run directory nor the --out this run made


# Every exit: a plain return (0, and 5 from report), an error (2, 3, 4) and argparse's own exit.
@pytest.mark.parametrize("case", [0, 2, 3, 4, "corrupt_log", "unknown_flag"])
def test_main_freezes_the_collector_once_on_every_exit_path(tmp_path, capsys, monkeypatch, case):
    freezes = []
    monkeypatch.setattr(gc, "freeze", lambda: freezes.append(1))
    if case == "unknown_flag":
        with pytest.raises(SystemExit) as e:
            main(["pretrain", "--no-such-flag"])
        assert e.value.code == 2
    elif case == "corrupt_log":
        assert main(_logs(tmp_path / "corrupt", "not,a,log\n1,2,3\n", _AUCTION_HEADER)) == 5
    else:
        assert main(_exit_case(case, tmp_path)) == case
    assert freezes == [1]


def _open_fds():
    return sorted(os.listdir("/proc/self/fd"))


# Objects that are garbage when main freezes the collector are never finalized, so a file a command left
# open would never be flushed or closed. Every command closes all it opens before it returns.
@pytest.mark.skipif(not Path("/proc/self/fd").is_dir(), reason="needs /proc/self/fd")
@pytest.mark.parametrize("case, code", [
    ("pretrain", 0), ("learning_tournament", 0), ("frozen_tournament", 0), ("report", 0), ("disk_full", 3),
])
def test_no_command_leaves_a_file_open(tmp_path, capsys, monkeypatch, grid_checkpoints, case, code):
    ckpts = [x for algo in LEARNERS for x in ("--ckpt", f"{algo}={grid_checkpoints(algo)}")]
    tour = ["tournament", "--auction", "gsp", "--items", "6", "--episodes", "5", *ckpts, "--out", str(tmp_path)]
    if case == "report":
        assert _pretrain(tmp_path, episodes=5) == 0
    if case == "disk_full":
        _disk_full_after_the_first_block(monkeypatch)
    argv = {
        "pretrain": ["pretrain", "--algo", "ppo", "--auction", "dp", "--items", "4", "--episodes", "5",
                     "--out", str(tmp_path)],
        "learning_tournament": tour,
        "frozen_tournament": [*tour, "--freeze"],
        "report": ["report", "--run", str(tmp_path / "dp_4_ql_1"), "--window", "2"],
        "disk_full": ["pretrain", "--algo", "ql", "--auction", "dp", "--items", "4", "--episodes", "10",
                      "--out", str(tmp_path / "out")],
    }[case]
    before = _open_fds()
    assert main(argv) == code
    assert _open_fds() == before


def test_an_out_below_a_regular_file_exits_3_before_any_episode(tmp_path, capsys, monkeypatch):
    import maulab.harness

    played = []
    monkeypatch.setattr(maulab.harness, "run_episode", lambda *args: played.append(args))
    afile = tmp_path / "afile"
    afile.write_text("not a directory\n")
    argv = ["pretrain", "--algo", "ql", "--auction", "dp", "--items", "4", "--episodes", "2000"]
    assert main([*argv, "--out", str(afile / "runs")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert played == []
    assert list(tmp_path.iterdir()) == [afile] and afile.read_text() == "not a directory\n"


@pytest.mark.parametrize("algo, key, value", [("dqn", "buffer_capacity", 10_000_000_000_000),
                                             ("ql", "value_bins", 100_000_000_000)])
def test_a_checkpoint_whose_arrays_cannot_be_allocated_exits_5(tmp_path, capsys, grid_checkpoints, algo, key, value):
    from maulab.checkpoint import load_checkpoint, save_checkpoint

    kind, meta, arrays = load_checkpoint(grid_checkpoints(algo))
    bad = tmp_path / f"{algo}.ckpt"
    save_checkpoint(bad, kind, dict(meta, **{key: value}), arrays)
    ckpts = {**{a: grid_checkpoints(a) for a in ("ppo", "a2c", "dqn", "dpn", "ql", "vpg")}, algo: bad}
    assert _frozen_tournament(tmp_path / "tour", ckpts) == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(bad) in err and "Traceback" not in err
    assert not (tmp_path / "tour").exists()


# Run a command in a fresh interpreter; print which of these modules it loaded.
_LOADED = """
import json, sys
from maulab.cli import main
code = main(sys.argv[1:])
names = ("maulab.harness", "maulab.agents", "maulab.nn", "maulab.checkpoint", "maulab.auction", "maulab.env",
         "numpy.ma", "hashlib")
print(json.dumps([m for m in sys.modules if any(m == n or m.startswith(n + ".") for n in names)]))
sys.exit(code)
"""


def _modules_loaded_by(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _LOADED, *argv], env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_report_loads_no_simulation_code(tmp_path):
    # report reads logs and writes tables and figures: no learner, network,
    # checkpoint, harness, clearing or env module, and not numpy.ma, which
    # np.unique imports.
    assert _pretrain(tmp_path, episodes=5) == 0
    loaded = _modules_loaded_by(["report", "--run", "dp_4_ql_1", "--out", "rep", "--window", "2"], tmp_path)
    assert loaded == set()
    assert (tmp_path / "rep" / "fig_learning_ratio.svg").is_file()
    loaded = _modules_loaded_by(["pretrain", "--algo", "vpg", "--auction", "dp", "--items", "4", "--episodes", "3",
                                 "--out", "more"], tmp_path)
    assert {"maulab.harness", "maulab.agents.policy", "maulab.checkpoint", "maulab.auction", "maulab.env",
            "hashlib"} <= loaded
