"""Benchmark of the maulab command line.

    python3 bench/run.py --workload pretrain_grid --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload report_log --seed 1 --seconds 30 --trace 1
    python3 bench/run.py                     # every workload, then the traced pass

Each workload is a fixed list of `maulab` commands (a round) made from the
seed. Commands run one at a time in child processes, never in parallel.
With --trace 0 the benchmark makes the workload's fixtures, measures the
set-up cost, then repeats whole rounds for about --seconds, scales each
command's times by the reference work run beside it (reference.py), checks
the outputs and prints the end-to-end metrics. With --trace 1 it runs one
round of every workload plain and one traced from outside (see child.py),
checks that both wrote the same bytes, and prints the per-layer metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 only if every command
exited 0 and every output check passed. Outputs go to .bench_out/ at the
root of the checkout. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import check
import synthlog

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.py"

LEARNERS = ("ql", "vpg", "dpn", "a2c", "ppo", "dqn")
RULES = ("dp", "gsp", "up")
SUPPLIES = (4, 6, 8)
CMD_TIMEOUT_S = 150
# Seconds the reference work takes on the reference machine (see README.md);
# the end-to-end times are scaled to that speed.
REF_S = 0.35
# Removed from the commands' environment, so BLAS runs with its own default
# thread count (one per core) as it does for a user who sets nothing.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")


@dataclass
class Result:
    wall_s: float
    cpu_s: float
    rss_mb: float

    def scaled(self, factor: float) -> "Result":
        return Result(self.wall_s * factor, self.cpu_s * factor, self.rss_mb)


class Runner:
    """Runs maulab commands one at a time and counts attempts and failures."""

    def __init__(self, log_path: Path):
        self.env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
        self.env["PYTHONPATH"] = str(SRC)
        self.log_path = log_path
        self.attempted = 0
        self.failed = 0
        self.reference_failures = 0

    def _spawn(self, argv: list[str], cwd: Path, log) -> tuple[float, int, resource.struct_rusage]:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return time.perf_counter() - t0, proc.returncode, usage

    def run(self, args: list[str], cwd: Path, trace_file: Path | None = None) -> Result:
        cwd.mkdir(parents=True, exist_ok=True)
        argv = [sys.executable, str(CHILD)]
        if trace_file is not None:
            argv += ["--trace", str(trace_file)]
        argv += ["--", *map(str, args)]
        self.attempted += 1
        with open(self.log_path, "a", encoding="utf-8") as log:
            log.write(f"$ (cd {cwd.relative_to(ROOT)}) maulab {' '.join(map(str, args))}\n")
            log.flush()
            wall, returncode, usage = self._spawn(argv, cwd, log)
            log.write(f"# exit {returncode}, {wall:.3f} s\n")
        if returncode != 0:
            self.failed += 1
        return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)

    def reference(self) -> float:
        """Wall time of one run of the fixed reference work (reference.py)."""
        with open(self.log_path, "a", encoding="utf-8") as log:
            wall, returncode, _ = self._spawn([sys.executable, str(REFERENCE)], BENCH, log)
        if returncode != 0:
            self.reference_failures += 1
        return wall


def digest(directory: Path) -> dict[str, str]:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file()
    }


def _differences(a: dict, b: dict) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


# --- workloads ----------------------------------------------------------------

class PretrainGrid:
    """Each of the six learners against five random bidders, dp, K=4."""

    name = "pretrain_grid"
    episodes = 2048  # DQN: 1048 updates past its warm-up; PPO: four 512-episode rollouts

    def prepare(self, runner, seed, work):
        return []

    def _cmd(self, algo, seed, episodes):
        return ["pretrain", "--algo", algo, "--auction", "dp", "--items", 4,
                "--episodes", episodes, "--seed", seed, "--out", "runs"]

    def round(self, seed, work):
        return [(self._cmd(a, seed, self.episodes), self.episodes) for a in LEARNERS]

    def setup_commands(self, seed, work):
        return [self._cmd(a, seed, 0) for a in LEARNERS]

    def check(self, seed, work, round_dir):
        probs = []
        for algo in LEARNERS:
            run_dir = round_dir / "runs" / f"dp_4_{algo}_{seed}"
            roster = [(1, algo)] + [(i, "random") for i in range(2, 7)]
            probs += check.check_session(run_dir, "dp", 4, roster, self.episodes, random_ids=range(2, 7))
            try:
                check.read_checkpoint(run_dir / f"{algo}.ckpt")
            except (OSError, ValueError) as e:
                probs.append(f"{algo} checkpoint: {e}")
        return probs


class TournamentFrozen:
    """The six-algorithm roster, frozen, under every rule at every supply."""

    name = "tournament_frozen"
    episodes = 1000
    fixture_episodes = 300

    def _ckpt(self, work, algo, seed):
        return work / "fixtures" / f"dp_4_{algo}_{seed}" / f"{algo}.ckpt"

    def prepare(self, runner, seed, work):
        for algo in LEARNERS:
            runner.run(["pretrain", "--algo", algo, "--auction", "dp", "--items", 4,
                        "--episodes", self.fixture_episodes, "--seed", seed, "--out", "fixtures"], work)
        return []

    def _cmd(self, rule, K, seed, work, episodes):
        ckpts = [x for a in LEARNERS for x in ("--ckpt", f"{a}={self._ckpt(work, a, seed)}")]
        return ["tournament", "--freeze", "--auction", rule, "--items", K,
                "--episodes", episodes, "--seed", seed, "--out", "runs", *ckpts]

    def round(self, seed, work):
        return [(self._cmd(r, K, seed, work, self.episodes), self.episodes) for r in RULES for K in SUPPLIES]

    def setup_commands(self, seed, work):
        return [self._cmd(r, K, seed, work, 0) for r, K in zip(RULES, SUPPLIES)]

    def check(self, seed, work, round_dir):
        probs = []
        for rule in RULES:
            for K in SUPPLIES:
                run_dir = round_dir / "runs" / f"{rule}_{K}_tournament_{seed}"
                probs += check.check_session(run_dir, rule, K, synthlog.ROSTER, self.episodes)
                for aid, algo in synthlog.ROSTER:
                    probs += check.check_same_arrays(self._ckpt(work, algo, seed), run_dir / f"{algo}_{aid}.ckpt")
        return probs


class ReportLog:
    """`maulab report` on a large log the benchmark simulates itself."""

    name = "report_log"
    episodes = 20_000
    rule, K = "gsp", 4

    def prepare(self, runner, seed, work):
        # A one-episode session gives the program's own column lists, and is
        # the small log that the set-up commands report on.
        runner.run(["pretrain", "--algo", "ql", "--auction", self.rule, "--items", self.K,
                    "--episodes", 1, "--seed", seed, "--out", "tiny"], work)
        tiny = work / "tiny" / f"{self.rule}_{self.K}_ql_{seed}"
        try:
            with open(tiny / "episodes.csv", encoding="utf-8") as fh:
                ep_fields = fh.readline().strip().split(",")
            with open(tiny / "auctions.csv", encoding="utf-8") as fh:
                au_fields = fh.readline().strip().split(",")
        except OSError as e:
            return [f"no one-episode log to take the column lists from: {e}"]
        synthlog.write_log(work / "log", seed, self.episodes, self.rule, self.K, ep_fields, au_fields)
        return check.check_session(work / "log", self.rule, self.K, synthlog.ROSTER, self.episodes)

    def round(self, seed, work):
        return [(["report", "--run", work / "log", "--out", "report"], self.episodes)]

    def setup_commands(self, seed, work):
        tiny = work / "tiny" / f"{self.rule}_{self.K}_ql_{seed}"
        return [["report", "--run", tiny, "--out", "setup_report"]]

    def check(self, seed, work, round_dir):
        return check.check_report(work / "log", round_dir / "report")


WORKLOADS = {w.name: w for w in (PretrainGrid(), TournamentFrozen(), ReportLog())}


# --- end-to-end run ---------------------------------------------------------------

def measure(wl, seed: int, seconds: float, runner: Runner, work: Path) -> tuple[dict, list[str]]:
    """Repeat whole rounds for about `seconds`. A round is the
    workload's set-up commands (at zero episodes) followed by its timed
    commands, with a run of the reference work before each command and after
    the last. The host's speed drifts by up to 30% over minutes and moves the
    command and the reference work beside it alike, so each command's wall
    and CPU time is scaled by REF_S over the mean of the two reference times
    around it. Each metric then takes, per command, the median over rounds,
    which keeps a burst of load from a neighbouring process out of the
    figure."""
    probs = wl.prepare(runner, seed, work)
    setup_cmds = wl.setup_commands(seed, work)
    runner.reference()  # warm-up: byte-code and file caches
    runner.run(setup_cmds[0], work / "setup")
    cmds = wl.round(seed, work)
    setups, timed, raw_timed, refs = [], [], [], []
    first = None
    before = runner.reference()
    t0 = time.perf_counter()
    # Stop before a round that would end more than half a round past `seconds`.
    while not timed or (time.perf_counter() - t0) * (1 + 0.5 / len(timed)) < seconds:
        round_dir = work / f"round{len(timed)}"
        jobs = [(args, work / "setup") for args in setup_cmds] + [(args, round_dir) for args, _ in cmds]
        raw, scaled = [], []
        for args, cwd in jobs:
            result = runner.run(args, cwd)
            after = runner.reference()
            refs.append(after)
            raw.append(result)
            scaled.append(result.scaled(REF_S / ((before + after) / 2)))
            before = after
        setups.append(scaled[:len(setup_cmds)])
        timed.append(scaled[len(setup_cmds):])
        raw_timed.append(raw[len(setup_cmds):])
        if first is None:
            first = digest(round_dir)
            probs += wl.check(seed, work, round_dir)
        else:
            diff = _differences(first, digest(round_dir))
            probs += [f"round {len(timed) - 1} wrote different bytes: {', '.join(diff[:3])}"] if diff else []
            shutil.rmtree(round_dir)
    if runner.reference_failures:
        probs.append(f"the reference work failed {runner.reference_failures} times")

    def per_command(rounds, field):
        return [statistics.median(getattr(r[c], field) for r in rounds) for c in range(len(rounds[0]))]

    episodes = sum(e for _, e in cmds)
    metrics = {
        "episodes_per_s": (episodes / sum(per_command(timed, "wall_s")), "1/s"),
        "cpu_s": (sum(per_command(timed, "cpu_s")), "s"),
        "peak_rss_mb": (max(per_command(timed, "rss_mb")), "MB"),
        "setup_s": (statistics.fmean(per_command(setups, "wall_s")), "s"),
    }
    print(f"{wl.name}: {len(timed)} rounds of {len(setup_cmds)} set-up and {len(cmds)} timed commands "
          f"in {time.perf_counter() - t0:.1f} s")
    print(f"{wl.name}: reference work median {statistics.median(refs):.4f} s over {len(refs)} runs "
          f"(REF_S {REF_S} s); unscaled episodes_per_s {episodes / sum(per_command(raw_timed, 'wall_s')):.6g}, "
          f"cpu_s {sum(per_command(raw_timed, 'cpu_s')):.6g}")
    return metrics, probs


# --- traced pass ------------------------------------------------------------------

def trace_pass(seed: int, runner: Runner, work: Path) -> tuple[dict, list[str]]:
    """One plain and one traced round of every workload; per-layer metrics."""
    probs: list[str] = []
    spans: dict[str, list] = {}
    missing: set[str] = set()
    plain_wall = traced_wall = 0.0
    session_rate = {}
    for wl in WORKLOADS.values():
        wdir = work / wl.name
        probs += wl.prepare(runner, seed, wdir)
        cmds = wl.round(seed, wdir)
        plain = [runner.run(args, wdir / "plain") for args, _ in cmds]
        traced = []
        for i, (args, _) in enumerate(cmds):
            tfile = wdir / f"trace{i}.json"
            traced.append(runner.run(args, wdir / "traced", trace_file=tfile))
            try:
                data = json.loads(tfile.read_text(encoding="utf-8"))
            except (OSError, ValueError) as e:
                probs.append(f"{wl.name}: no trace from command {i}: {e}")
                continue
            missing.update(data["missing"])
            for name, (calls, incl, self_s, nbytes) in data["spans"].items():
                acc = spans.setdefault(name, [0, 0.0, 0.0, 0])
                acc[0] += calls
                acc[1] += incl
                acc[2] += self_s
                acc[3] += nbytes
        plain_wall += sum(r.wall_s for r in plain)
        traced_wall += sum(r.wall_s for r in traced)
        diff = _differences(digest(wdir / "plain"), digest(wdir / "traced"))
        if diff:
            probs.append(f"{wl.name}: traced run wrote different bytes: {', '.join(diff[:3])}")
        probs += wl.check(seed, wdir, wdir / "plain")
        if wl.name == "pretrain_grid":
            session_rate = {a: e / r.wall_s for a, (_, e), r in zip(LEARNERS, cmds, plain)}
    for m in sorted(missing):
        print(f"trace: {m} not found; its metrics are absent")
    return layer_metrics(spans, session_rate, traced_wall - plain_wall), probs


def layer_metrics(spans: dict, session_rate: dict, overhead_s: float) -> dict:
    """Per-layer metrics from the merged spans. A span that was never
    recorded gives no metric rather than a zero."""
    out: dict[str, tuple[float, str]] = {}

    def per_call(metric, span, scale, unit, field=2, per=None):
        s = spans.get(span)
        n = spans.get(per, [0])[0] if per else (s[0] if s else 0)
        if s and n:
            out[metric] = (s[field] / n * scale, unit)

    def total(metric, span, unit, field=2):
        if span in spans:
            out[metric] = (spans[span][field], unit)

    for rule in RULES:
        per_call(f"auction.clear_us.{rule}", f"auction.clear.{rule}", 1e6, "us")
    per_call("auction.efficiency_us", "auction.efficiency", 1e6, "us")
    clears = [spans[f"auction.clear.{r}"][0] for r in RULES if f"auction.clear.{r}" in spans]
    if clears:
        out["auction.clear_calls"] = (sum(clears), "count")
    per_call("env.reset_us", "env.reset", 1e6, "us")
    per_call("env.step_self_us", "env.step", 1e6, "us")
    for algo in ("random", *LEARNERS):
        per_call(f"agents.{algo}.act_us", f"agents.{algo}.act", 1e6, "us")
    for algo in LEARNERS:
        per_call(f"agents.{algo}.observe_self_us", f"agents.{algo}.observe", 1e6, "us")
        if algo in session_rate:
            out[f"agents.{algo}.session_eps_per_s"] = (session_rate[algo], "1/s")
    per_call("nn.forward_us", "nn.forward", 1e6, "us")
    per_call("nn.backward_us", "nn.backward", 1e6, "us")
    per_call("nn.adam_step_us", "nn.adam_step", 1e6, "us")
    total("nn.forward_calls", "nn.forward", "count", field=0)
    total("nn.adam_steps", "nn.adam_step", "count", field=0)
    per_call("harness.episode_us", "harness.run_episode", 1e6, "us")
    per_call("harness.row_build_us", "harness.run_session", 1e6, "us", per="harness.run_episode")
    total("metrics.write_csv_s", "metrics.write_csv", "s")
    w = spans.get("metrics.write_csv")
    if w and w[2] > 0 and w[3]:
        out["metrics.write_csv_mb_per_s"] = (w[3] / 1e6 / w[2], "MB/s")
    for name in ("read_csv", "summary_tables", "rolling_mean", "emit_svg"):
        total(f"metrics.{name}_s", f"metrics.{name}", "s")
    total("cli.parse_rows_s", "cli.parse_rows", "s")
    per_call("checkpoint.save_ms", "checkpoint.save", 1e3, "ms")
    per_call("checkpoint.load_ms", "checkpoint.load", 1e3, "ms")
    per_call("checkpoint.bytes", "checkpoint.load", 1.0, "bytes", field=3)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


# --- provenance and entry point ---------------------------------------------------

PROBE = """
import ctypes, json, os, sys, numpy
import maulab.cli, maulab.agents
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
threads = "unknown"
with open("/proc/self/maps") as fh:
    libs = sorted({l.split()[-1] for l in fh if "blas" in l.lower() and ".so" in l})
for lib in libs:
    for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_"):
        fn = getattr(ctypes.CDLL(lib), sym, None)
        if fn is not None:
            threads = fn()
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": threads}))
"""


def provenance(runner: Runner) -> str:
    proc = subprocess.run([sys.executable, "-c", PROBE], env=runner.env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    try:
        info = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        info = {"probe": "failed"}
    rev = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            rev = git.stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    blas_env = {k: os.environ[k] for k in BLAS_ENV if k in os.environ}
    fields = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)), **info,
              "blas_env": f"cleared {blas_env}" if blas_env else "unset", "git": rev}
    return "provenance: " + " ".join(f"{k}={v}" for k, v in fields.items())


def checker_selftest(work: Path) -> list[str]:
    """The checker must pass a correct log and reject one altered payment."""
    synthlog.write_log(work, 0, 200, "gsp", 4)
    if check.check_session(work, "gsp", 4, synthlog.ROSTER, 200):
        return ["checker rejects a correct log"]
    synthlog.alter_value(work / "episodes.csv", row=7, column="payment_total", delta=0.5)
    if not check.check_session(work, "gsp", 4, synthlog.ROSTER, 200):
        return ["checker accepts a log with an altered payment"]
    return []


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                   help="0: end-to-end metrics, 1: per-layer metrics (default: both for 'all')")
    args = p.parse_args(argv)
    if not (SRC / "maulab" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'maulab'}", file=sys.stderr)
        return 2
    seed = args.seed % 2**31

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    phases = []
    if args.trace in (0, None):
        phases += [(n, 0) for n in names]
    if args.trace == 1 or (args.trace is None and args.workload == "all"):
        phases.append(("trace", 1))

    OUT.mkdir(exist_ok=True)
    metrics: dict[str, dict] = {}
    probs: list[str] = []
    attempted = failed = 0
    for i, (name, trace) in enumerate(phases):
        work = OUT / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        runner = Runner(work / "commands.log")
        if i == 0:
            print(provenance(runner))
            probs += checker_selftest(work / "selftest")
        if trace:
            found, p_probs = trace_pass(seed, runner, work)
        else:
            found, p_probs = measure(WORKLOADS[name], seed, args.seconds, runner, work)
            if len(names) > 1:
                found = {f"{name}.{k}": v for k, v in found.items()}
        found = {k: {"value": v, "unit": u} for k, (v, u) in found.items()}
        print(f"{name}: {runner.attempted} commands attempted, {runner.failed} failed")
        for k, v in found.items():
            print(f"  {k} = {v['value']:.6g} {v['unit']}")
        metrics.update(found)
        probs += [f"{name}: {m}" for m in p_probs]
        attempted += runner.attempted
        failed += runner.failed
    for m in probs:
        print(f"check failed: {m}", file=sys.stderr)
    correct = not probs
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct and failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
