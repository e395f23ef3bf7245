"""Command-line entry points: pretrain, tournament, report.

Exit codes: 0 success, 2 invalid flags, 3 I/O failure (any other missing or
unreadable file), 4 missing checkpoint, 5 empty or corrupt logs, or a
checkpoint that is corrupt or does not fit the run's scenario. The default
output root comes from MAULAB_OUT.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

import numpy as np

# Only what every command uses is imported here. The simulation (harness,
# agents, nn, checkpoint) loads when pretrain or tournament runs, so that
# report, run once per run directory, loads none of it.
from maulab.config import (
    ALGOS, LEARNERS, RULES, SUPPLIES, CheckpointError, ConfigError, MissingCheckpointError, ScenarioConfig,
)
from maulab.metrics import (
    AUCTION_FIELDS,
    AUCTION_LOG_FIELDS,
    BIDDER_FIELDS,
    EPISODE_LOG_FIELDS,
    bidder_groups,
    distinct,
    emit_svg,
    format_table,
    read_csv,
    rolling_mean,
    summary_tables,
    write_csv,
)

# Settings given by flag or by config file (flags win): key -> (type, choices, default).
OPTIONS = {
    "algo": (str, LEARNERS, None),
    "auction": (str, RULES, None),
    "items": (int, SUPPLIES, None),
    "episodes": (int, None, ScenarioConfig.episodes),
    "seed": (int, None, ScenarioConfig.master_seed),
    "grid_levels": (int, None, ScenarioConfig.grid_levels),
    "out": (str, None, None),  # default: $MAULAB_OUT, else "runs"
}
CONFIG_KEYS = {*OPTIONS, "hyperparameters"}


def _option_value(key: str, value):
    """A config-file value, parsed and checked as its flag would be; a text
    option takes only a JSON string."""
    kind, choices, _ = OPTIONS[key]
    try:
        if kind is str and not isinstance(value, str):
            raise ValueError
        parsed = kind(str(value))
    except ValueError:
        raise ConfigError(f"config key {key!r}: invalid {kind.__name__} value {value!r}") from None
    if choices is not None and parsed not in choices:
        raise ConfigError(f"config key {key!r}: {value!r} is not one of {list(choices)}")
    return parsed


def _load_config_file(path) -> dict:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(data) - CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    hyper = data.get("hyperparameters", {})
    if not isinstance(hyper, dict) or not all(isinstance(h, dict) for h in hyper.values()):
        raise ConfigError("hyperparameters must map algorithm names to objects")
    from maulab.agents.base import check_overrides

    for algo, overrides in hyper.items():
        check_overrides(algo, overrides)
    return {k: _option_value(k, v) if k in OPTIONS else v for k, v in data.items()}


def _options(args, unused: dict) -> dict:
    """Flag values over config-file values over defaults. `unused` maps each
    setting the command does not read to why; giving one by flag or by file
    is a ConfigError."""
    opts = {key: default for key, (_, _, default) in OPTIONS.items()}
    opts["out"] = os.environ.get("MAULAB_OUT", "runs")
    flags = {k: v for k, v in vars(args).items() if k in OPTIONS and v is not None}
    given = _load_config_file(args.config) if args.config else {}
    for key in flags:
        if key in unused:
            raise ConfigError(f"--{key.replace('_', '-')} {unused[key]}")
    for key in given:
        if key in unused:
            raise ConfigError(f"config key {key!r} {unused[key]}")
    opts.update(given)
    opts.update(flags)
    return opts


def cmd_pretrain(args) -> int:
    from maulab.harness import checkpoint_name, pretrain, pretrain_grid, run, write_json

    whole_grid = "does not apply to pretrain --all, which runs the whole grid"
    o = _options(args, dict.fromkeys(("algo", "auction", "items"), whole_grid) if args.all else {})
    out = Path(o["out"])
    hyper = o.get("hyperparameters", {})
    if args.all:
        sessions = pretrain_grid(o["episodes"], o["seed"], o["grid_levels"], hyper)
    elif o["algo"] is None or o["auction"] is None or o["items"] is None:
        raise ConfigError("pretrain requires --algo, --auction and --items (or --all)")
    else:
        sessions = [pretrain(
            o["algo"], o["auction"], o["items"], o["episodes"], o["seed"], o["grid_levels"], hyper.get(o["algo"])
        )]
    for session in sessions:
        print(run(session, out) / checkpoint_name(session, session.roster[0]))
    if args.all:
        write_json(out / "manifest.json", [session.to_dict() for session in sessions])
    return 0


def cmd_tournament(args) -> int:
    from maulab.harness import run, tournament

    o = _options(args, {
        "algo": "applies to pretrain only (the roster seats every learner)",
        "hyperparameters": "applies to pretrain only (seats load checkpoints)",
    })
    if o["auction"] is None or o["items"] is None:
        raise ConfigError("tournament requires --auction and --items")

    checkpoints: dict[str, str] = {}
    if args.ckpt_dir:
        for algo in LEARNERS:
            p = Path(args.ckpt_dir) / f"{algo}.ckpt"
            if p.is_file():
                checkpoints[algo] = str(p)
    given: dict[str, str] = {}  # learner -> its --ckpt spec
    for spec in args.ckpt or []:
        if "=" not in spec:
            raise ConfigError(f"--ckpt expects ALGO=PATH, got {spec!r}")
        algo, _, path = spec.partition("=")
        if algo not in LEARNERS:
            raise ConfigError(f"unknown algorithm {algo!r} in --ckpt")
        if args.all_ppo and algo != "ppo":
            raise ConfigError(f"--ckpt {spec} does not apply to tournament --all-ppo, which seats only ppo")
        if algo in given:
            raise ConfigError(f"--ckpt {given[algo]} is given again by --ckpt {spec}; name one checkpoint per learner")
        given[algo] = spec
        checkpoints[algo] = path

    needed = ("ppo",) if args.all_ppo else LEARNERS
    for algo in needed:
        if algo not in checkpoints:
            raise MissingCheckpointError(f"missing checkpoint for {algo}")

    session = tournament(
        o["auction"], o["items"], checkpoints, o["episodes"], o["seed"], o["grid_levels"], args.all_ppo, args.freeze
    )
    print(run(session, Path(o["out"])))
    return 0


def _read_log(path: Path, fieldnames) -> dict:
    """A log's columns; raises ValueError unless it holds every column of
    fieldnames."""
    columns = read_csv(path)
    missing = [f for f in fieldnames if f not in columns]
    if missing:
        raise ValueError(f"{path.name} lacks columns {missing}")
    return columns


def _check_known(path: Path, column: str, values, allowed) -> None:
    """Raises ValueError unless every text cell in the array `values`, taken
    from `column`, is one of `allowed`."""
    unknown = ~np.isin(values, allowed)
    if unknown.any():
        raise ValueError(f"{path.name}: unknown {column} values {distinct(values[unknown]).tolist()}")


# Named per log so that a profiler can time the reading of each.
def _parse_episode_rows(path: Path) -> dict:
    return _read_log(path, EPISODE_LOG_FIELDS)


def _parse_auction_rows(path: Path) -> dict:
    au = _read_log(path, AUCTION_LOG_FIELDS)
    _check_known(path, "rule", au["rule"], RULES)
    return au


def cmd_report(args) -> int:
    if args.window < 1:
        raise ConfigError(f"--window must be >= 1, got {args.window}")
    run_dir = Path(args.run)
    out = Path(args.out) if args.out else run_dir
    ep_path = run_dir / "episodes.csv"
    au_path = run_dir / "auctions.csv"
    snapshot = run_dir / "config.json"
    try:
        if not ep_path.is_file() or not au_path.is_file():
            raise ValueError("no logs found")
        ep = _parse_episode_rows(ep_path)
        keys, codes = groups = bidder_groups(ep)  # its keys hold every algo cell once
        _check_known(ep_path, "algo", np.array([algo for _, algo in keys], "U"), ALGOS)
        au = _parse_auction_rows(au_path)
        declared = None
        if snapshot.is_file():
            declared = json.loads(snapshot.read_text(encoding="utf-8"))["scenario"]["episodes"]
            if type(declared) is not int:
                raise ValueError(f"config.json: episodes must be an integer, got {declared!r}")
        if not ep["episode"].size or not au["episode"].size:
            raise ValueError("empty logs")
        if not np.array_equal(distinct(ep["episode"]), distinct(au["episode"])):
            raise ValueError("the two logs cover different episodes")
    except (KeyError, TypeError, ValueError) as e:
        print(f"corrupt run directory {run_dir}: {e}", file=sys.stderr)
        return 5
    n_episodes = int(au["episode"].max()) + 1
    if declared is not None and n_episodes < declared:
        print(
            f"warning: logs cover {n_episodes} of {declared} episodes; reporting on what is available",
            file=sys.stderr,
        )

    out.mkdir(parents=True, exist_ok=True)
    bidder_table, auction_table = summary_tables(ep, au, groups)
    write_csv(bidder_table, out / "table_bidders.csv", BIDDER_FIELDS)
    write_csv(auction_table, out / "table_auctions.csv", AUCTION_FIELDS)
    print(format_table(bidder_table, BIDDER_FIELDS))
    print(format_table(auction_table, AUCTION_FIELDS))

    window = args.window
    # Each bidder's rows in log order, from one stable sort of the bidder index.
    rows = np.split(np.argsort(codes, kind="stable"), np.bincount(codes, minlength=len(keys)).cumsum()[:-1])
    curves = {
        f"{algo} (id {aid})": {
            "unit 1": rolling_mean(ep["learning_ratio1"][r], window),
            "unit 2": rolling_mean(ep["learning_ratio2"][r], window),
        }
        for (aid, algo), r in zip(keys, rows)
    }
    figures = {
        "fig_learning_ratio.svg": sorted(curves.items()),
        "fig_revenue.svg": [("revenue", {"rolling mean": rolling_mean(au["revenue"], window)})],
        "fig_efficiency.svg": [("efficiency", {"rolling mean": rolling_mean(au["efficiency_ratio"], window)})],
    }
    for name, fig_panes in figures.items():
        emit_svg(fig_panes, out / name)
    for name in ("table_bidders.csv", "table_auctions.csv", *figures):
        print(out / name)
    return 0


def _add_options(parser, keys) -> None:
    for key in keys:
        kind, choices, _ = OPTIONS[key]
        parser.add_argument("--" + key.replace("_", "-"), dest=key, type=kind, choices=choices)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="maulab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("pretrain", help="train one learner against five random bidders")
    _add_options(pre, OPTIONS)
    pre.add_argument("--config", help="JSON experiment config; flags override")
    pre.add_argument("--all", action="store_true", help="run the full 54-session grid")
    pre.set_defaults(func=cmd_pretrain)

    tour = sub.add_parser("tournament", help="run the six-agent head-to-head roster")
    _add_options(tour, [key for key in OPTIONS if key != "algo"])
    tour.add_argument("--config")
    tour.add_argument("--ckpt", action="append", metavar="ALGO=PATH")
    tour.add_argument("--ckpt-dir", help="directory holding <algo>.ckpt files")
    tour.add_argument("--all-ppo", action="store_true", help="six PPO copies with distinct seeds")
    tour.add_argument("--freeze", action="store_true", help="disable learning and exploration")
    tour.set_defaults(func=cmd_tournament)

    rep = sub.add_parser("report", help="summary tables and figures from a run directory")
    rep.add_argument("--run", required=True, help="run directory with episodes.csv/auctions.csv")
    rep.add_argument("--out", help="output directory (default: run directory)")
    rep.add_argument("--window", type=int, default=1000)
    rep.set_defaults(func=cmd_report)
    return p


# Most specific first: CheckpointError and MissingCheckpointError are OSErrors.
_EXIT_CODES = ((ConfigError, 2), (MissingCheckpointError, 4), (CheckpointError, 5), (OSError, 3))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in _EXIT_CODES if isinstance(e, cls))
    finally:
        # Whatever is alive now moves to the permanent generation, which the
        # interpreter's exit collections skip, so a command's process ends
        # 20-30 ms sooner. Safe because every file a command opens is closed
        # by its `with` block before this point: nothing waits on a finalizer.
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
