"""Byte pins: SHA-256 digests of the logs of fixed sessions.

The replay tests elsewhere run a session twice in one process, so they catch
nondeterminism but not a change of output from one commit to the next. These
digests were recorded once and must not change when the episode loop is
rewritten. Only random bidders and tabular Q-learning run here: their paths
call no numpy exp/log and no BLAS, so the bytes do not depend on the CPU's
vector kernels. Fresh network checkpoints are pinned too: initialisation
draws uniforms and takes a square root, with no BLAS and no exp.
"""

import hashlib

import numpy as np
import pytest

from maulab.agents.base import make_agent
from maulab.config import ScenarioConfig, Seat, Session
from maulab.harness import pretrain, run, save_agent, start
from maulab.metrics import AUCTION_LOG_FIELDS, EPISODE_LOG_FIELDS, write_csv

from columns import session_columns

SEED = 17

# (rule, K) -> (episodes.csv, auctions.csv) of six random bidders, 200 episodes.
RANDOM_SESSIONS = {
    ("dp", 4): ("9f9a9a1e3911bc14d868fb93e49a80b9a4ae2c9616b964173b6976b774376ba5",
                "36bec39eb2d08023015ea3fbd34cde00bbd7a7967d03e7cd182bd80aea1c52ae"),
    ("dp", 6): ("0bd0aee1fb7497a73448a3bb647c687373d6e39a2feda7902d277866cc2b7ab1",
                "b3344584a2eee2f133d33e847dca3b64051faeb2c7d6b38caf487ac34ec635ee"),
    ("dp", 8): ("4691016dcebe7badd6fa34b3411cf2c10791abd3ad3a02f14611512628123267",
                "40ac8a7d385e61b5fc19a9a4ca649c894210f64d28cfab82c992dc75702a1d86"),
    ("gsp", 4): ("ee9cac72548edd3a71e68b29c3bef27df27633a876fed30e63ec96f7ac58a17f",
                 "499341e149bf77d7e7ad95a83a436711309407137c5505beef3d5509b9e19650"),
    ("gsp", 6): ("10f01c4b882f2b3cf2ffb00d1fea687c57116ac1bbedd814b17ce8a015e1b2b4",
                 "e01c0b9019d78ddfc03f41365fbc9f5e058d6b1bfcc1bae68f97628c7a7007f0"),
    ("gsp", 8): ("32e6008c545b503d568dd0603d201fce5b8fe2bef6752b95f84c4fdc09be1133",
                 "a04ab22bae0c75d4a9fbab1e09a3dc7caac449533d4fb49850082fa58e3b6209"),
    ("up", 4): ("097873ffce0a68a11d1b7fb5c32a463a07f4ce553c5b46f2b15920d80ce4fecd",
                "5e8cc1c8f2f868092ca0e79a1e7c4c2e47ad657d5525b72ea1609a873c01c670"),
    ("up", 6): ("92a394a98a928f01d6258146b8d084b8e495cf0a9556a3e5a42b5342c140559c",
                "e0ca47be949ee177b1ee946ad7ea15a738792d511abf7c482e70d368df7a4000"),
    ("up", 8): ("2f1796239a0a2e03f9a43aae5097475f1958c7ae5155611ab12ba8346a18bb15",
                "c7cbc11e77002cf8375d670dec0e7e33cca98d3ac2d184260513bf5e107dbe48"),
}

# `pretrain ql dp 4`, 300 episodes.
QL_PRETRAIN = ("fdca8caaeecae655c3976485a33dfe0cbad3e481e84d89cd3771ce06a9def0e6",
               "6cfbeefd37cdb8559cbe5cfbf9dc25908f29420dc8acb9ab09ea93e5d7d53dce")


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("rule, K", sorted(RANDOM_SESSIONS))
def test_random_session_bytes_pinned(rule, K, tmp_path):
    config = ScenarioConfig(rule=rule, supply=K, episodes=200, master_seed=SEED)
    session = Session("tournament", config, tuple(Seat(i, "random", False) for i in range(1, 7)))
    env, agents = start(session)
    ep_rows, au_rows = session_columns(session, env, agents, 200)
    write_csv(ep_rows, tmp_path / "episodes.csv", EPISODE_LOG_FIELDS)
    write_csv(au_rows, tmp_path / "auctions.csv", AUCTION_LOG_FIELDS)
    got = (_sha256(tmp_path / "episodes.csv"), _sha256(tmp_path / "auctions.csv"))
    assert got == RANDOM_SESSIONS[(rule, K)]


def test_ql_pretrain_bytes_pinned(tmp_path):
    run_dir = run(pretrain("ql", "dp", 4, 300, SEED), tmp_path)
    got = (_sha256(run_dir / "episodes.csv"), _sha256(run_dir / "auctions.csv"))
    assert got == QL_PRETRAIN


# rule -> (episodes.csv, auctions.csv) of a frozen ql seat, loaded from the
# 300-episode ql pretrain above, and five random seats: K=8, 500 episodes.
FROZEN_QL_SESSIONS = {
    "dp": ("3747adda71c8ed05b8c94a9e39256076ed9edd6811620773bc57bf51dbc9b1bf",
           "5dcfd6a28a8798fa248bb6c2fcc8fcf909b598be5b30d7410cc4b4efbc6cc81e"),
    "gsp": ("c0eccccd1ad3b574281eb0ca3fdee9ed5e2fb35cc4603ce013307147885372ae",
            "9e4e97f066b3bc322424660b460135aeb586cb4d928d161070226f027978f2a0"),
    "up": ("a68603caa6ba6370902299d606bbd335df54242996f66e6bae174101dd024779",
           "bef188efcb8ba91f4e5cf4cadac05d1e70acd043a0c77dd38fae5df5a28cd943"),
}


@pytest.mark.parametrize("rule", sorted(FROZEN_QL_SESSIONS))
def test_frozen_tournament_bytes_pinned(rule, tmp_path):
    ckpt = run(pretrain("ql", "dp", 4, 300, SEED), tmp_path / "pretrain") / "ql.ckpt"
    config = ScenarioConfig(rule=rule, supply=8, episodes=500, master_seed=SEED)
    roster = (Seat(1, "ql", False, str(ckpt)), *(Seat(i, "random", False) for i in range(2, 7)))
    run_dir = run(Session("tournament", config, roster), tmp_path / "tournament")
    got = (_sha256(run_dir / "episodes.csv"), _sha256(run_dir / "auctions.csv"))
    assert got == FROZEN_QL_SESSIONS[rule]


# algo -> checkpoint of a fresh agent with default hyperparameters, dp K=4,
# built from default_rng(SEED): catches a changed draw order, array order or
# moment layout.
FRESH_CHECKPOINTS = {
    "dpn": "6c8014191abcce9ed2d67f768b842873397d48391176398271986061c405991e",
    "a2c": "f634a936962be071bfa766f79a5f4ef99d23265854f9a26fa27b7f9e9ea88f3f",
    "ppo": "17bb9c17813e9e8fdc71e22bc1fc3537f8072cd1246cfc6c1b1da1ae8a5e05e7",
    "dqn": "6b3afc18eb54f6fdc41ef709c7ee4d4b7825a70f1a836f97f9498e793862c9d9",
}


@pytest.mark.parametrize("algo", sorted(FRESH_CHECKPOINTS))
def test_fresh_network_checkpoint_bytes_pinned(algo, tmp_path):
    config = ScenarioConfig(rule="dp", supply=4, master_seed=SEED)
    save_agent(make_agent(algo, config, np.random.default_rng(SEED)), tmp_path / "agent.ckpt")
    assert _sha256(tmp_path / "agent.ckpt") == FRESH_CHECKPOINTS[algo]
