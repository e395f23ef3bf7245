"""A run writes the same bytes whatever the BLAS thread count.

Importing maulab pins OpenBLAS to one thread unless a BLAS thread variable is
set; OPENBLAS_NUM_THREADS=2 overrides the pin. This runs a DQN pretrain past
its warm-up, and a learning tournament whose DQN seat trains past its
warm-up, each in two subprocesses (one pinned, one at two threads), and
compares every file they write.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

from maulab import BLAS_THREAD_VARIABLES
from maulab.checkpoint import load_checkpoint
from maulab.config import LEARNERS

SRC = Path(__file__).resolve().parents[1] / "src"
TWO_THREADS = {"OPENBLAS_NUM_THREADS": "2"}


def _maulab(cwd: Path, args, blas: dict) -> None:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(blas, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run([sys.executable, "-m", "maulab.cli", *map(str, args)],
                   env=env, cwd=cwd, check=True, capture_output=True, timeout=120)


def _pretrain(cwd: Path, algo: str, episodes: int, blas: dict) -> Path:
    """A dp K=4 pretrain with DQN's warm-up cut to 64; its checkpoint."""
    (cwd / "exp.json").write_text(json.dumps({"hyperparameters": {"dqn": {"warmup": 64}}}))
    _maulab(cwd, ["pretrain", "--algo", algo, "--auction", "dp", "--items", 4, "--episodes", episodes,
                  "--seed", 3, "--config", "exp.json", "--out", "runs"], blas)
    return cwd / "runs" / f"dp_4_{algo}_3" / f"{algo}.ckpt"


def _files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


def _differing(a: Path, b: Path) -> list[str]:
    assert _files(a) == _files(b)
    return [str(p) for p in _files(a) if not filecmp.cmp(a / p, b / p, shallow=False)]


def test_dqn_pretrain_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    for name, blas in (("pinned", {}), ("two", TWO_THREADS)):
        (tmp_path / name).mkdir()
        _, meta, _ = load_checkpoint(_pretrain(tmp_path / name, "dqn", 400, blas))
        assert meta["train_steps"] == 400 - 64 + 1
    assert _differing(tmp_path / "pinned" / "runs", tmp_path / "two" / "runs") == []


def test_learning_tournament_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    """Every seat learns, and DQN's warm-up restarts with an empty buffer,
    so its seat trains from episode 64 on."""
    (tmp_path / "pre").mkdir()
    ckpts = [x for algo in LEARNERS for x in ("--ckpt", f"{algo}={_pretrain(tmp_path / 'pre', algo, 5, {})}")]
    for name, blas in (("pinned", {}), ("two", TWO_THREADS)):
        (tmp_path / name).mkdir()
        _maulab(tmp_path / name, ["tournament", "--auction", "gsp", "--items", 6, "--episodes", 300, "--seed", 3,
                                  *ckpts, "--out", "runs"], blas)
        _, meta, _ = load_checkpoint(tmp_path / name / "runs" / "gsp_6_tournament_3" / "dqn_3.ckpt")
        assert meta["train_steps"] == 300 - 64 + 1
    assert _differing(tmp_path / "pinned" / "runs", tmp_path / "two" / "runs") == []


def test_a_blas_thread_variable_the_user_sets_wins():
    code = "import os, maulab; print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(SRC)
    run = lambda **blas: subprocess.run([sys.executable, "-c", code], env={**env, **blas}, check=True,
                                        capture_output=True, text=True).stdout.split()
    assert run() == ["1", "None"]
    assert run(OPENBLAS_NUM_THREADS="2") == ["2", "None"]
    assert run(OMP_NUM_THREADS="2") == ["None", "2"]
