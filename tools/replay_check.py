"""Replay check: run a fixed set of maulab sessions on a git revision and on
the working tree, and list every output file, stdout or exit code that differs.

    python3 tools/replay_check.py REV

REV (a commit, branch or tag of this repository) is extracted with
`git archive REV | tar -x` into a temporary directory; nothing is checked out
and `.git` is not touched. Each tree then runs the same commands, one
`python -m maulab.cli` process each, with `OPENBLAS_NUM_THREADS=1` and from
its own empty directory with relative paths, so the two output trees can be
compared byte for byte. Each command's stdout and exit code are kept beside
its outputs (`_stdout/NN.txt`) and compared with them; stderr is dropped,
since warnings name source lines. The two trees run side by side.

The fixed set: pretrains of all six learners under dp K=4, gsp K=6 and up K=8
(1,100 episodes, longer than a 512-episode block); a 2,048-episode dqn
pretrain across its warm-up; a 5,000-episode gsp K=6 ql pretrain (ten blocks
cleared in runs, so the tie orders of many resets are used); 100,000-episode
dp K=4 pretrains of ql and vpg, whose runs are longest, so that runs reach the
run cap and rows past a cut are cleared again; up K=8 pretrains of dpn, dqn,
a2c and ppo with small batches, warm-up and rollout, and of ql and vpg with
other value bins, step sizes and exploration, from a config file;
`pretrain --all` at 40 episodes with that file; learning, `--freeze` and
`--all-ppo` tournaments from the dp K=4 checkpoints, a 4,000-episode dp K=4
learning tournament from them (six learners train, and DQN speculates for
3,000 episodes past its warm-up, more than any other case, on runs that the
table learners have already cut), and a 5,000-episode
`--freeze` gsp K=6 tournament from them (ten blocks, each cleared whole); a
missing-checkpoint (exit 4) and a wrong-algorithm (exit 5) tournament; six
commands that fail before any session runs (a pretrain without --algo, two
malformed --ckpt, a tournament config file with hyperparameters, an --all-ppo
tournament without a checkpoint and a report on a missing directory); and
`report --window 100` on every run directory.

Exit status: 0 when nothing differs, 1 when something does, 2 when REV
cannot be extracted.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
LEARNERS = ("ppo", "a2c", "dqn", "dpn", "ql", "vpg")
HYPER = {"hyperparameters": {
    "dpn": {"batch_size": 16},
    "dqn": {"warmup": 64},
    "a2c": {"batch_size": 3},
    "ppo": {"rollout": 64, "minibatch": 16},
    "ql": {"value_bins": 7, "alpha": 0.3, "eps_max": 0.5},
    "vpg": {"value_bins": 5, "alpha": 0.1},
}}


def _ckpts(algos=LEARNERS) -> list[str]:
    return [f"--ckpt={a}=runs/dp_4_{a}_3/{a}.ckpt" for a in algos]


def session_commands() -> list[list[str]]:
    """The fixed set's pretrain and tournament commands, in run order."""
    cmds = [
        ["pretrain", "--algo", a, "--auction", rule, "--items", items, "--episodes", "1100", "--seed", "3"]
        for rule, items in (("dp", "4"), ("gsp", "6"), ("up", "8"))
        for a in LEARNERS
    ]
    cmds.append(["pretrain", "--algo", "dqn", "--auction", "gsp", "--items", "6", "--episodes", "2048", "--seed", "5"])
    cmds.append(["pretrain", "--algo", "ql", "--auction", "gsp", "--items", "6", "--episodes", "5000", "--seed", "9"])
    cmds += [["pretrain", "--algo", a, "--auction", "dp", "--items", "4", "--episodes", "100000", "--seed", "11"]
             for a in ("ql", "vpg")]
    cmds += [
        ["pretrain", "--config", "hyper.json", "--algo", a, "--auction", "up", "--items", "8", "--episodes", "700",
         "--seed", "4"]
        for a in HYPER["hyperparameters"]
    ]
    cmds.append(["pretrain", "--all", "--config", "hyper.json", "--episodes", "40", "--seed", "6", "--out", "grid"])
    cmds += [
        ["tournament", "--auction", "gsp", "--items", "6", "--episodes", "1300", "--seed", "7", *_ckpts()],
        ["tournament", "--auction", "dp", "--items", "4", "--episodes", "4000", "--seed", "3", *_ckpts()],
        ["tournament", "--freeze", "--auction", "up", "--items", "8", "--episodes", "600", "--seed", "7", *_ckpts()],
        ["tournament", "--freeze", "--auction", "gsp", "--items", "6", "--episodes", "5000", "--seed", "9",
         *_ckpts()],
        ["tournament", "--all-ppo", "--auction", "dp", "--items", "4", "--episodes", "1100", "--seed", "7",
         *_ckpts(("ppo",))],
        ["tournament", "--auction", "dp", "--items", "4", "--episodes", "10", "--seed", "8", *_ckpts(("ppo",))],
        ["tournament", "--auction", "dp", "--items", "4", "--episodes", "10", "--seed", "8",
         *_ckpts(LEARNERS[1:]), "--ckpt=ppo=runs/dp_4_dqn_3/dqn.ckpt"],
        ["pretrain", "--auction", "dp", "--items", "4"],
        ["tournament", "--auction", "dp", "--items", "4", "--ckpt", "no-equals-sign"],
        ["tournament", "--auction", "dp", "--items", "4", "--ckpt", "sarsa=x.ckpt"],
        ["tournament", "--config", "hyper.json", "--auction", "dp", "--items", "4"],
        ["tournament", "--all-ppo", "--auction", "dp", "--items", "4"],
        ["report", "--run", "nowhere"],
    ]
    return [c if "--out" in c else [*c, "--out", "runs"] for c in cmds]


def run_set(src: Path, out: Path) -> Counter:
    """Run the fixed set with the package at `src`, writing under `out`;
    return how many commands ended with each exit code."""
    (out / "_stdout").mkdir(parents=True)
    (out / "hyper.json").write_text(json.dumps(HYPER), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    env.pop("MAULAB_OUT", None)
    codes = Counter()

    def one(i: int, args: list[str]) -> None:
        proc = subprocess.run([sys.executable, "-m", "maulab.cli", *args], cwd=out, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        (out / "_stdout" / f"{i:03d}.txt").write_text(
            f"$ maulab {' '.join(args)}\n{proc.stdout}exit {proc.returncode}\n", encoding="utf-8")
        codes[proc.returncode] += 1

    cmds = session_commands()
    for i, args in enumerate(cmds):
        one(i, args)
    runs = sorted(p.parent for p in out.glob("*/*/episodes.csv"))
    for i, run_dir in enumerate(runs, start=len(cmds)):
        one(i, ["report", "--run", str(run_dir.relative_to(out)), "--window", "100"])
    return codes


def compare_dirs(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, one line per file that is in only one tree or whose bytes differ)."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    diffs = [f"only in {a.name}: {p}" for p in sorted(files_a - files_b)]
    diffs += [f"only in {b.name}: {p}" for p in sorted(files_b - files_a)]
    diffs += [f"differs: {p}" for p in sorted(files_a & files_b) if not filecmp.cmp(a / p, b / p, shallow=False)]
    return len(files_a | files_b), diffs


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Compare the fixed set's outputs of REV and the working tree.")
    parser.add_argument("rev", help="git revision to compare against")
    rev = parser.parse_args(argv).rev
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="replay_check_") as tmp:
        tmp = Path(tmp)
        tree = tmp / "tree"
        tree.mkdir()
        archive = subprocess.Popen(["git", "-C", str(REPO), "archive", rev], stdout=subprocess.PIPE)
        untar = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout)
        archive.stdout.close()
        if archive.wait() or untar.returncode:
            print(f"cannot extract {rev!r} with git archive", file=sys.stderr)
            return 2
        sides = {"rev": tree / "src", "work": REPO / "src"}
        with ThreadPoolExecutor(len(sides)) as pool:
            jobs = {side: pool.submit(run_set, src, tmp / side) for side, src in sides.items()}
            for side, job in jobs.items():
                print(f"{side}: commands by exit code {dict(sorted(job.result().items()))}")
        n, diffs = compare_dirs(tmp / "rev", tmp / "work")
        for line in diffs:
            print(line)
    print(f"{rev} against the working tree: {n} files compared, {len(diffs)} differ "
          f"({time.perf_counter() - t0:.0f} s)")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
