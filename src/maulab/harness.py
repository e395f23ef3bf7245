"""Session orchestration: pretraining, head-to-head tournaments, the all-PPO
rematch, seed stream derivation, logging, and checkpoint lifecycle.

A master seed expands via SeedSequence spawning into disjoint streams for the
value draws, tie-breaking, and each agent, so every session replays exactly.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from maulab.agents.base import Agent, agent_class, hyperparameter_names, make_agent
from maulab.auction import efficiency_gap, efficiency_ratio
from maulab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from maulab.config import ALGOS, LEARNERS, RULES, TOURNAMENT_IDS, ScenarioConfig
from maulab.env import AuctionEnv, slot_sum
from maulab.metrics import (
    AUCTION_LOG_FIELDS,
    EPISODE_LOG_FIELDS,
    AuctionLogRow,
    EpisodeLogRow,
    bid_ratio,
    learning_ratio,
    write_csv,
)

SUPPLIES = (4, 6, 8)


def make_streams(master_seed: int, n_agents: int):
    """Counter-based split of the master seed into (value, tie, per-agent) RNGs."""
    ss = np.random.SeedSequence(master_seed)
    kids = ss.spawn(2 + n_agents)
    return (
        np.random.default_rng(kids[0]),
        np.random.default_rng(kids[1]),
        [np.random.default_rng(k) for k in kids[2:]],
    )


def run_episode(env: AuctionEnv, agents: list[Agent], learn: bool = True):
    """One episode: reset, collect each agent's bid levels, clear, deliver
    each agent its reward. Returns env.step's arrays and the valuations."""
    observations = env.reset()
    valuations = env.valuations()
    levels = [agent.act(obs, explore=learn) for agent, obs in zip(agents, observations)]
    step = env.step(levels)
    if learn:
        for agent, obs, own, r in zip(agents, observations, levels, step[0].tolist()):
            agent.observe(obs, own, r)
    return step, valuations


def run_session(
    config: ScenarioConfig,
    agents: list[Agent],
    agent_ids: list[int],
    env: AuctionEnv,
    episodes: int,
    learn: bool = True,
):
    """Run `episodes` auctions, returning (episode_rows, auction_rows)."""
    episode_rows: list[EpisodeLogRow] = []
    auction_rows: list[AuctionLogRow] = []
    K = config.supply
    second = min(1, config.units_per_bidder - 1)  # a one-slot bidder logs its bid twice
    algos = [agent.algo for agent in agents]
    for ep in range(episodes):
        (rewards, won, payment, bids, outcome), valuations = run_episode(env, agents, learn)
        value = valuations[:, 0]
        payoffs = slot_sum(np.where(won, value[:, None] - payment, 0.0))
        columns = (value, bids[:, 0], bids[:, second], won.sum(axis=1), slot_sum(payment), payoffs, rewards)
        for aid, algo, v, b1, b2, units, paid, payoff, r in zip(agent_ids, algos, *(c.tolist() for c in columns)):
            episode_rows.append(
                EpisodeLogRow(
                    ep, aid, algo, v, b1, b2, units, paid, payoff, r,
                    learning_ratio(v, b1), learning_ratio(v, b2), bid_ratio(v, b1), bid_ratio(v, b2),
                )
            )
        auction_rows.append(
            AuctionLogRow(
                episode=ep,
                rule=config.rule,
                K=K,
                revenue=outcome.revenue,
                efficiency_ratio=efficiency_ratio(valuations, outcome, K),
                efficiency_gap=efficiency_gap(valuations, outcome, K),
            )
        )
    return episode_rows, auction_rows


# --- checkpoint lifecycle ---------------------------------------------------

def save_agent(agent: Agent, path) -> None:
    meta, arrays = agent.checkpoint_payload()
    meta = dict(meta, algo=agent.algo)
    save_checkpoint(path, agent.kind, meta, arrays)


def load_agent(path, config: ScenarioConfig, rng: np.random.Generator) -> Agent:
    """Build the saved agent from its saved hyperparameters and the scenario,
    then restore its arrays and counters. Meta keys that are not
    hyperparameters or counters (earlier layouts) are ignored; a hyperparameter
    the file lacks takes the constructor default."""
    kind, meta, arrays = load_checkpoint(path)
    algo = meta.get("algo")
    if algo not in ALGOS:
        raise CheckpointError(f"{path}: unknown algorithm tag {algo!r}")
    cls = agent_class(algo)
    if cls.kind != kind:
        raise CheckpointError(f"{path}: kind {kind!r} does not match algorithm {algo!r}")
    names = hyperparameter_names(cls)
    saved = {name: meta[name] for name in names if name in meta}
    layout = meta.get("layout", meta.get("layout_actor"))  # earlier layouts: widths, no `hidden`
    if "hidden" in names and "hidden" not in saved and layout is not None:
        saved["hidden"] = layout[1:-1]
    try:
        agent = cls(config, rng, **saved)
        agent.load_payload(meta, arrays)
    except (CheckpointError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: {e}") from None
    return agent


# --- protocols --------------------------------------------------------------

def session_dir(out_dir, rule: str, K: int, algo: str, seed: int) -> Path:
    return Path(out_dir) / f"{rule}_{K}_{algo}_{seed}"


def _write_logs(run_dir: Path, episode_rows, auction_rows) -> None:
    write_csv(episode_rows, run_dir / "episodes.csv", EPISODE_LOG_FIELDS)
    write_csv(auction_rows, run_dir / "auctions.csv", AUCTION_LOG_FIELDS)


def _write_snapshot(run_dir: Path, snapshot: dict) -> None:
    (run_dir / "config.json").write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def pretrain(
    algo: str,
    rule: str,
    K: int,
    episodes: int,
    seed: int,
    out_dir,
    grid_levels: int = 21,
    overrides: dict | None = None,
) -> Path:
    """Train one learner against five random bidders and save its checkpoint.

    Returns the checkpoint path; logs and a config snapshot land in the run
    directory {rule}_{K}_{algo}_{seed}."""
    config = ScenarioConfig(
        rule=rule, supply=K, episodes=episodes, master_seed=seed, grid_levels=grid_levels
    )
    value_rng, tie_rng, agent_rngs = make_streams(seed, config.n_bidders)
    env = AuctionEnv(config, value_rng, tie_rng)
    learner = make_agent(algo, config, agent_rngs[0], **(overrides or {}))
    agents = [learner] + [make_agent("random", config, r) for r in agent_rngs[1:]]
    agent_ids = list(range(1, config.n_bidders + 1))

    run_dir = session_dir(out_dir, rule, K, algo, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    episode_rows, auction_rows = run_session(config, agents, agent_ids, env, episodes)
    _write_logs(run_dir, episode_rows, auction_rows)

    ckpt = run_dir / f"{algo}.ckpt"
    save_agent(learner, ckpt)
    _write_snapshot(
        run_dir,
        {
            "mode": "pretrain",
            "scenario": config.to_dict(),
            "roster": [{"id": 1, "algo": algo, "train": True}]
            + [{"id": i, "algo": "random", "train": False} for i in range(2, 7)],
            "hyperparameters": {algo: learner.hyperparameters()},
            "out_dir": str(run_dir),
        },
    )
    return ckpt


def tournament_roster(all_ppo: bool = False) -> list[tuple[int, str]]:
    """(bidder id, algo) pairs in the fixed tournament assignment."""
    if all_ppo:
        return [(i, "ppo") for i in range(1, 7)]
    return sorted((i, a) for a, i in TOURNAMENT_IDS.items())


def tournament(
    rule: str,
    K: int,
    checkpoints: dict[str, str],
    episodes: int,
    seed: int,
    out_dir,
    grid_levels: int = 21,
    all_ppo: bool = False,
    freeze: bool = False,
) -> Path:
    """Head-to-head run of the six-algorithm roster (or six PPO copies).

    Learning stays on unless freeze is set; schedules resume from the saved
    step counters. Returns the run directory."""
    roster = tournament_roster(all_ppo)
    config = ScenarioConfig(
        rule=rule, supply=K, episodes=episodes, master_seed=seed, grid_levels=grid_levels
    )
    value_rng, tie_rng, agent_rngs = make_streams(seed, config.n_bidders)
    env = AuctionEnv(config, value_rng, tie_rng)

    agents = []
    for (aid, algo), rng in zip(roster, agent_rngs):
        path = checkpoints.get("ppo" if all_ppo else algo)
        if path is None:
            agent = make_agent(algo, config, rng)
        else:
            if not Path(path).is_file():
                raise FileNotFoundError(f"missing checkpoint for {algo}: {path}")
            agent = load_agent(path, config, rng)
        agent.frozen = freeze
        agents.append(agent)
    agent_ids = [aid for aid, _ in roster]

    label = "ppo6" if all_ppo else "tournament"
    run_dir = session_dir(out_dir, rule, K, label, seed)
    run_dir.mkdir(parents=True, exist_ok=True)
    episode_rows, auction_rows = run_session(
        config, agents, agent_ids, env, episodes, learn=not freeze
    )
    _write_logs(run_dir, episode_rows, auction_rows)
    for (aid, algo), agent in zip(roster, agents):
        save_agent(agent, run_dir / f"{algo}_{aid}.ckpt")
    _write_snapshot(
        run_dir,
        {
            "mode": "tournament",
            "scenario": config.to_dict(),
            "roster": [
                {"id": aid, "algo": algo, "train": not freeze} for aid, algo in roster
            ],
            "checkpoints": {k: str(v) for k, v in checkpoints.items()},
            "all_ppo": all_ppo,
            "freeze": freeze,
            "out_dir": str(run_dir),
        },
    )
    return run_dir


def pretrain_manifest(episodes: int, seed: int, out_dir) -> list[dict]:
    """The full 6 algorithms x 3 rules x 3 supplies = 54 session grid."""
    return [
        {
            "algo": algo,
            "rule": rule,
            "K": K,
            "episodes": episodes,
            "seed": seed,
            "out_dir": str(out_dir),
        }
        for algo in LEARNERS
        for rule in RULES
        for K in SUPPLIES
    ]
