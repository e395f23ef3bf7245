"""Whole-session log columns for tests: `run_session` hands its columns over
a block at a time, and `session_columns` joins them."""

import numpy as np

from maulab.harness import run_session


def session_columns(session, env, agents, episodes) -> tuple[dict, dict]:
    """The episode-log and auction-log columns of `episodes` auctions of the
    session, joined from run_session's blocks."""
    blocks = []
    run_session(session, env, agents, episodes, lambda *columns: blocks.append(columns))
    return tuple({key: np.concatenate([b[i][key] for b in blocks]) for key in blocks[0][i]} for i in (0, 1))
