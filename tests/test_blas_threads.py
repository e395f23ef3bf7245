"""A run writes the same bytes whatever the BLAS thread count the host offers.

Importing maulab pins OpenBLAS to one thread unless a BLAS thread variable is
set. Without the pin, a DQN pretrain past its warm-up writes a different
checkpoint on a multi-core host than on one thread (the batch products of the
64-to-231 layer round differently), so this runs the same short pretrain in
two subprocesses, one with every BLAS thread variable unset (the host default)
and one with OPENBLAS_NUM_THREADS=1, and compares every file they write.
"""

import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

from maulab import BLAS_THREAD_VARIABLES

SRC = Path(__file__).resolve().parents[1] / "src"


def _pretrain(out: Path, **blas) -> list[Path]:
    out.mkdir()
    (out / "exp.json").write_text(json.dumps({"hyperparameters": {"dqn": {"warmup": 64}}}))
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(blas, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    subprocess.run(
        [sys.executable, "-m", "maulab.cli", "pretrain", "--algo", "dqn", "--auction", "dp", "--items", "4",
         "--episodes", "400", "--seed", "3", "--config", "exp.json", "--out", "runs"],
        env=env, cwd=out, check=True, capture_output=True, timeout=120,
    )
    return sorted(p.relative_to(out) for p in (out / "runs").rglob("*") if p.is_file())


def test_dqn_pretrain_bytes_do_not_depend_on_the_blas_threads(tmp_path):
    default = _pretrain(tmp_path / "default")
    one = _pretrain(tmp_path / "one", OPENBLAS_NUM_THREADS="1")
    assert default == one and any(p.suffix == ".ckpt" for p in one)
    assert [str(p) for p in one if not filecmp.cmp(tmp_path / "default" / p, tmp_path / "one" / p, shallow=False)] == []


def test_a_blas_thread_variable_the_user_sets_wins():
    code = "import os, maulab; print(os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))"
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env["PYTHONPATH"] = str(SRC)
    run = lambda **blas: subprocess.run([sys.executable, "-c", code], env={**env, **blas}, check=True,
                                        capture_output=True, text=True).stdout.split()
    assert run() == ["1", "None"]
    assert run(OPENBLAS_NUM_THREADS="2") == ["2", "None"]
    assert run(OMP_NUM_THREADS="2") == ["None", "2"]
