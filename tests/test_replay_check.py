"""The comparison at the heart of tools/replay_check.py, and what its fixed
set holds. The full set runs two trees for about a minute, so it stays out of
this suite."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "replay_check", Path(__file__).resolve().parent.parent / "tools" / "replay_check.py"
)
replay_check = importlib.util.module_from_spec(spec)
spec.loader.exec_module(replay_check)


def _tree(root: Path, files: dict) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_compare_dirs_finds_one_changed_byte(tmp_path):
    files = {"run/episodes.csv": b"t,reward\n0,1.5\n", "run/ppo.ckpt": bytes(range(256)), "_stdout/000.txt": b"exit 0\n"}
    a = _tree(tmp_path / "rev", files)
    b = _tree(tmp_path / "work", files)
    assert replay_check.compare_dirs(a, b) == (3, [])
    changed = bytearray(files["run/ppo.ckpt"])
    changed[200] ^= 1
    (b / "run/ppo.ckpt").write_bytes(bytes(changed))
    assert replay_check.compare_dirs(a, b) == (3, ["differs: run/ppo.ckpt"])


def test_compare_dirs_lists_files_in_one_tree_only(tmp_path):
    a = _tree(tmp_path / "rev", {"x.csv": b"1", "only_rev.svg": b"<svg/>"})
    b = _tree(tmp_path / "work", {"x.csv": b"1", "sub/only_work.csv": b"2"})
    assert replay_check.compare_dirs(a, b) == (3, ["only in rev: only_rev.svg", "only in work: sub/only_work.csv"])


def test_session_commands_cover_every_learner_and_tournament_kind():
    cmds = replay_check.session_commands()
    pretrained = {c[c.index("--algo") + 1] for c in cmds if c[0] == "pretrain" and "--algo" in c}
    assert pretrained == set(replay_check.LEARNERS)
    tournaments = [c for c in cmds if c[0] == "tournament"]
    assert any("--freeze" in c for c in tournaments) and any("--all-ppo" in c for c in tournaments)
    assert all("--out" in c for c in cmds)


def test_session_commands_hold_the_long_table_learner_pretrains():
    # ql and vpg act on their longest runs late in a long session
    cmds = replay_check.session_commands()
    for algo in ("ql", "vpg"):
        assert ["pretrain", "--algo", algo, "--auction", "dp", "--items", "4", "--episodes", "100000", "--seed", "11",
                "--out", "runs"] in cmds
