"""Byte pins: SHA-256 digests of the logs of fixed sessions.

The replay tests elsewhere run a session twice in one process, so they catch
nondeterminism but not a change of output from one commit to the next. These
digests were recorded once and must not change when the episode loop is
rewritten. Only random bidders and tabular Q-learning run here: their paths
call no numpy exp/log and no BLAS, so the bytes do not depend on the CPU's
vector kernels.
"""

import hashlib

import pytest

from maulab.agents.base import make_agent
from maulab.config import ScenarioConfig
from maulab.env import AuctionEnv
from maulab.harness import make_streams, pretrain, run_session
from maulab.metrics import AUCTION_LOG_FIELDS, EPISODE_LOG_FIELDS, write_csv

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
    value_rng, tie_rng, agent_rngs = make_streams(SEED, config.n_bidders)
    env = AuctionEnv(config, value_rng, tie_rng)
    agents = [make_agent("random", config, r) for r in agent_rngs]
    ep_rows, au_rows = run_session(config, agents, list(range(1, 7)), env, 200)
    write_csv(ep_rows, tmp_path / "episodes.csv", EPISODE_LOG_FIELDS)
    write_csv(au_rows, tmp_path / "auctions.csv", AUCTION_LOG_FIELDS)
    got = (_sha256(tmp_path / "episodes.csv"), _sha256(tmp_path / "auctions.csv"))
    assert got == RANDOM_SESSIONS[(rule, K)]


def test_ql_pretrain_bytes_pinned(tmp_path):
    run_dir = pretrain("ql", "dp", 4, 300, SEED, tmp_path).parent
    got = (_sha256(run_dir / "episodes.csv"), _sha256(run_dir / "auctions.csv"))
    assert got == QL_PRETRAIN
