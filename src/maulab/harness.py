"""Sessions: building, playing and recording them, seed stream derivation,
and the checkpoint lifecycle.

A session is a `Session` spec; `pretrain`, `tournament` and `pretrain_grid`
only build specs, and `run` is the one code path that plays a spec and writes
its run directory. A master seed expands via SeedSequence spawning into
disjoint streams for the value draws, tie-breaking, and each agent, so every
session replays exactly.
"""

from __future__ import annotations

import json
import shutil
from contextlib import suppress
from itertools import takewhile
from pathlib import Path

import numpy as np

from maulab.agents.base import Agent, agent_class, check_overrides, make_agent
from maulab.auction import efficiency_gap, efficiency_ratio, slot_sum
from maulab.checkpoint import CheckpointError, MissingCheckpointError, load_checkpoint, save_checkpoint
from maulab.config import ALGOS, LEARNERS, RULES, SUPPLIES, ConfigError, ScenarioConfig, Seat, Session
from maulab.env import AuctionEnv
from maulab.metrics import (
    AUCTION_LOG_FIELDS, EPISODE_LOG_FIELDS, atomic_open, bid_ratio, csv_log, learning_ratio, write_csv,
)

BLOCK = 512  # episodes per block; a block with a training seat clears in runs
RUN_CAP = 16  # the most episodes a learner acts on ahead where its updates may change its actions


def make_streams(master_seed: int, n_agents: int):
    """Counter-based split of the master seed into (value, tie, per-agent) RNGs."""
    ss = np.random.SeedSequence(master_seed)
    kids = ss.spawn(2 + n_agents)
    return (
        np.random.default_rng(kids[0]),
        np.random.default_rng(kids[1]),
        [np.random.default_rng(k) for k in kids[2:]],
    )


def run_episode(env: AuctionEnv, agents: list[Agent], train, out) -> None:
    """Play one block of episodes into `out`, the block's rows of the session's
    reward, won, payment, bids, winners, revenue and valuations arrays.

    `train` holds one flag per agent. The reset draws the block's values and
    tie orders, and each agent that does not train acts on the whole block
    without exploring (the policy learners still sample). The block then
    clears in runs of episodes, each one `env.step`.

    Each training seat acts (exploring) on each run, which spans at most every
    such seat's `horizon(RUN_CAP)` episodes. After the step the learners
    speculate in `rank` order, each on the run up to the cut found so far:
    the run is cut at the first row whose action an update of an earlier row
    changes. Each learner observes the rows before the cut in one call, and
    the next run acts on the rest again. That is exact: learners share no
    state, their draws do not depend on their policies, and a row keeps its
    action only where the updates before it leave it so."""
    reward, won, payment, bids, winners, revenue, valuations = out
    end = len(reward)
    observations = env.reset(end)
    valuations[...] = env.valuations()
    seats = observations.transpose(1, 0, 2)  # [i]: agent i's (B, k) observations
    levels = np.empty(observations.shape, dtype=int)
    learners = sorted((i for i, t in enumerate(train) if t), key=lambda i: agents[i].rank)
    for i, agent in enumerate(agents):
        if not train[i]:
            levels[:, i] = agent.act(seats[i], explore=False)
    start = 0
    while start < end:
        rows = slice(start, min([end, *(start + agents[i].horizon(RUN_CAP) for i in learners)]))
        for i in learners:
            levels[rows, i] = agents[i].act(seats[i, rows], explore=True)
        reward[rows], won[rows], payment[rows], bids[rows], (winners[rows], _, revenue[rows]) = env.step(rows, levels[rows])
        cut = rows.stop
        for i in learners:
            if cut - start > 1:  # a run's first row always keeps its action
                cut = start + agents[i].speculate(seats[i, start:cut], levels[start:cut, i], reward[start:cut, i])
        rows = slice(start, cut)
        for i in learners:
            agents[i].observe(seats[i, rows], levels[rows, i], reward[rows, i])
        start = cut


def run_session(session: Session, env: AuctionEnv, agents: list[Agent], episodes: int, sink) -> None:
    """Run `episodes` auctions in blocks of BLOCK, handing each block's columns
    to `sink(episode_columns, auction_columns)` as the block ends: those of the
    episode log (one row per agent per episode) and of the auction log (one row
    per episode). Only one block's arrays are alive at a time, and efficiency
    is scored a block a call.

    The blocks play with numpy's overflow, invalid and divide errors raised: a
    learner that diverges meets one, as a ConfigError naming the operation."""
    config, train = session.scenario, [seat.train for seat in session.roster]
    n, k, K = len(agents), config.units_per_bidder, config.supply
    ids = np.asarray([seat.id for seat in session.roster], dtype=np.int64)
    algos = np.array([agent.algo for agent in agents])
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for a in range(0, episodes, BLOCK):
                b = min(BLOCK, episodes - a)
                reward, revenue = np.empty((b, n)), np.empty(b)
                valuations, bids, payment = (np.empty((b, n, k)) for _ in range(3))
                won, winners = np.empty((b, n, k), dtype=bool), np.empty((b, K), dtype=int)
                run_episode(env, agents, train, [reward, won, payment, bids, winners, revenue, valuations])
                episode = np.arange(a, a + b)
                value, units = valuations[:, :, 0].ravel(), won.sum(axis=2).ravel()
                bids, won, payment = (x.reshape(b * n, k) for x in (bids, won, payment))
                bid1, bid2 = bids[:, 0], bids[:, 1]
                sink({
                    "episode": np.repeat(episode, n),
                    "agent_id": np.tile(ids, b),
                    "algo": np.tile(algos, b),
                    "value": value,
                    "bid1": bid1,
                    "bid2": bid2,
                    "units_won": units,
                    "payment_total": slot_sum(payment),
                    "payoff_total": slot_sum(np.where(won, value[:, None] - payment, 0.0)),
                    "reward_total": reward.ravel(),
                    "learning_ratio1": learning_ratio(value, bid1),
                    "learning_ratio2": learning_ratio(value, bid2),
                    "bid_ratio1": bid_ratio(value, bid1),
                    "bid_ratio2": bid_ratio(value, bid2),
                }, {
                    "episode": episode,
                    "rule": np.full(b, config.rule),
                    "K": np.full(b, K),
                    "revenue": revenue,
                    "efficiency_ratio": efficiency_ratio(valuations, winners, K),
                    "efficiency_gap": efficiency_gap(valuations, winners, K),
                })
    except FloatingPointError as e:
        raise ConfigError(f"the learner diverged ({e}); try a smaller learning rate or step size") from None


# --- checkpoint lifecycle ---------------------------------------------------

def save_agent(agent: Agent, path) -> None:
    """Write the agent's checkpoint, or raise ConfigError when an array holds
    a non-finite value (the learner diverged), which `load_payload` refuses.
    Python-float arithmetic sets no numpy error, so run_session can miss it."""
    meta, arrays = agent.checkpoint_payload()
    for name, array in arrays.items():
        if not np.isfinite(array).all():
            raise ConfigError(f"{agent.algo} array {name!r} holds a non-finite value: the learner diverged")
    meta = dict(meta, algo=agent.algo)
    save_checkpoint(path, agent.kind, meta, arrays)


def load_agent(path, config: ScenarioConfig, rng: np.random.Generator) -> Agent:
    """Build the saved agent from its saved hyperparameters and the scenario,
    then restore its arrays and counters. Meta keys that are not
    hyperparameters or counters (earlier layouts) are ignored; a hyperparameter
    the file lacks takes its default, and the saved ones are checked by type
    and range as a config file's are."""
    kind, meta, arrays = load_checkpoint(path)
    algo = meta.get("algo")
    if algo not in ALGOS:
        raise CheckpointError(f"{path}: unknown algorithm tag {algo!r}")
    cls = agent_class(algo)
    if cls.kind != kind:
        raise CheckpointError(f"{path}: kind {kind!r} does not match algorithm {algo!r}")
    saved = {name: meta[name] for name in cls.defaults if name in meta}
    layout = meta.get("layout", meta.get("layout_actor"))  # earlier layouts: widths, no `hidden`
    try:
        if "hidden" in cls.defaults and "hidden" not in saved and layout is not None:
            saved["hidden"] = layout[1:-1]
        check_overrides(algo, saved)
        agent = cls(config, rng, **saved)
        agent.load_payload(meta, arrays)
    except (CheckpointError, TypeError, ValueError, MemoryError) as e:
        raise CheckpointError(f"{path}: {e}") from None
    return agent


# --- sessions ----------------------------------------------------------------

def pretrain(
    algo: str, rule: str, K: int, episodes: int, seed: int, grid_levels: int = ScenarioConfig.grid_levels,
    overrides: dict | None = None,
) -> Session:
    """One learner (id 1), fresh with its overrides, trained against five
    random bidders."""
    scenario = ScenarioConfig(rule=rule, supply=K, episodes=episodes, master_seed=seed, grid_levels=grid_levels)
    learner = Seat(1, algo, True, None, dict(overrides or {}))
    randoms = tuple(Seat(i, "random", False) for i in range(2, scenario.n_bidders + 1))
    return Session("pretrain", scenario, (learner, *randoms))


def pretrain_grid(
    episodes: int, seed: int, grid_levels: int = ScenarioConfig.grid_levels, hyperparameters: dict | None = None
) -> list[Session]:
    """The full 6 algorithms x 3 rules x 3 supplies = 54 session grid, each
    learner with its entry of `hyperparameters`."""
    hyper = hyperparameters or {}
    return [
        pretrain(algo, rule, K, episodes, seed, grid_levels, hyper.get(algo))
        for algo in LEARNERS
        for rule in RULES
        for K in SUPPLIES
    ]


def tournament(
    rule: str,
    K: int,
    checkpoints: dict[str, str],
    episodes: int,
    seed: int,
    grid_levels: int = ScenarioConfig.grid_levels,
    all_ppo: bool = False,
    freeze: bool = False,
) -> Session:
    """Head-to-head session of the six-algorithm roster (or six PPO copies),
    each loaded from `checkpoints[algo]` when given and fresh otherwise.

    Every seat trains unless freeze is set; schedules resume from the saved
    step counters."""
    scenario = ScenarioConfig(rule=rule, supply=K, episodes=episodes, master_seed=seed, grid_levels=grid_levels)
    roster = enumerate(("ppo",) * scenario.n_bidders if all_ppo else LEARNERS, start=1)
    paths = {algo: str(path) for algo, path in checkpoints.items()}
    return Session("tournament", scenario, tuple(Seat(i, algo, not freeze, paths.get(algo)) for i, algo in roster))


def start(session: Session) -> tuple[AuctionEnv, list[Agent]]:
    """The session's env and agents on their seeded streams: each seat's agent
    is loaded from its checkpoint or built fresh with its overrides. A missing
    checkpoint raises MissingCheckpointError, one of another algorithm CheckpointError."""
    config = session.scenario
    value_rng, tie_rng, agent_rngs = make_streams(config.master_seed, config.n_bidders)
    agents = []
    for seat, rng in zip(session.roster, agent_rngs):
        if seat.checkpoint is None:
            agents.append(make_agent(seat.algo, config, rng, **seat.overrides))
        elif Path(seat.checkpoint).is_file():
            agents.append(load_agent(seat.checkpoint, config, rng))
            if agents[-1].algo != seat.algo:
                raise CheckpointError(f"{seat.checkpoint}: holds a {agents[-1].algo} agent, not {seat.algo}")
        else:
            raise MissingCheckpointError(f"missing checkpoint for {seat.algo}: {seat.checkpoint}")
    return AuctionEnv(config, value_rng, tie_rng), agents


def checkpoint_name(session: Session, seat: Seat) -> str:
    return f"{seat.algo}.ckpt" if session.mode == "pretrain" else f"{seat.algo}_{seat.id}.ckpt"


def write_json(path, data) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def run(session: Session, out) -> Path:
    """Play a session and write its run directory {rule}_{K}_{label}_{seed}
    under `out` (label: the learner for a pretrain, "ppo6" for six PPO seats,
    else "tournament").

    The directory is made first and any config.json in it removed. Each
    block's rows are appended to the logs' .part files as the block ends, and
    the logs replace them when the session ends. Then come the checkpoint of
    every seat that is not random and config.json, last: the session spec and
    `out_dir`. A session that fails leaves no log, no .part file and no
    directory that it made."""
    env, agents = start(session)
    s = session.scenario
    algos = {seat.algo for seat in session.roster}
    label = session.roster[0].algo if session.mode == "pretrain" else "ppo6" if algos == {"ppo"} else "tournament"
    run_dir = Path(out) / f"{s.rule}_{s.supply}_{label}_{s.master_seed}"
    made = list(takewhile(lambda p: not p.exists(), (run_dir, *run_dir.parents)))  # deepest first
    try:
        run_dir.mkdir(parents=True, exist_ok=True)
        (run_dir / "config.json").unlink(missing_ok=True)
        with csv_log(run_dir / "episodes.csv", EPISODE_LOG_FIELDS) as ep, \
                csv_log(run_dir / "auctions.csv", AUCTION_LOG_FIELDS) as au:

            def write_block(episode_columns, auction_columns):
                write_csv(episode_columns, ep, EPISODE_LOG_FIELDS)
                write_csv(auction_columns, au, AUCTION_LOG_FIELDS)

            run_session(session, env, agents, s.episodes, write_block)
        for seat, agent in zip(session.roster, agents):
            if seat.algo != "random":
                save_agent(agent, run_dir / checkpoint_name(session, seat))
        write_json(run_dir / "config.json", {**session.to_dict(), "out_dir": str(run_dir)})
    except BaseException:
        if made:  # the run directory is this run's own
            shutil.rmtree(run_dir, ignore_errors=True)
        for parent in made[1:]:  # only when empty: another run may have written there since
            with suppress(OSError):
                parent.rmdir()
        raise
    return run_dir
