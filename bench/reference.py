"""Fixed reference work that measures how fast the machine runs right now.

    python3 bench/reference.py

The benchmark runs this between the program's commands and scales each
command's times by it (see `measure` in run.py). It imports nothing from the
program and never changes with it, so a change to the program moves the
scaled figures while a change in the machine's speed moves the command and
the reference together and cancels out.

The work resembles the program's on purpose, so that it slows down the same
way when the host is busy: a fresh interpreter importing numpy, then a small
auction simulated episode by episode in Python with tiny numpy arrays, sorted
bids and CSV text built with f-strings. It draws from a fixed seed and ends
by checking its own result, so every run does exactly the same work.
"""

from __future__ import annotations

import io
import sys

import numpy as np

EPISODES = 1200
BIDDERS = 6
UNITS = 4
LEVELS = 21
# Length of the CSV text the simulation writes; a different figure means the
# work changed and timings are no longer comparable.
EXPECTED_CHARS = 174_783


def simulate(episodes: int = EPISODES) -> int:
    rng = np.random.default_rng(12345)
    weights = rng.standard_normal((2, LEVELS)) * 0.1
    out = io.StringIO()
    for ep in range(episodes):
        values = rng.uniform(0.0, 10.0, size=BIDDERS)
        bids = []
        for i in range(BIDDERS):
            logits = np.full(2, values[i] / 10.0) @ weights
            p = np.exp(logits - logits.max())
            p /= p.sum()
            level = min(int(np.searchsorted(np.cumsum(p), rng.random())), LEVELS - 1)
            bids.append((level * 0.5, i))
            bids.append((max(level - 1, 0) * 0.5, i))
        order = sorted(range(len(bids)), key=lambda j: (-bids[j][0], rng.random()))
        price = bids[order[UNITS]][0]
        paid: dict[int, float] = {}
        for j in order[:UNITS]:
            paid[bids[j][1]] = paid.get(bids[j][1], 0.0) + price
        for i in range(BIDDERS):
            out.write(f"{ep},{i},{values[i]:.6f},{paid.get(i, 0.0):.6f}\n")
    return len(out.getvalue())


if __name__ == "__main__":
    chars = simulate()
    if chars != EXPECTED_CHARS:
        print(f"reference work wrote {chars} characters, expected {EXPECTED_CHARS}", file=sys.stderr)
        sys.exit(1)
