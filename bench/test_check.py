"""Tests of the benchmark's output checker: it accepts a correct log and
rejects one with a single altered value.

    python3 -m pytest bench/test_check.py
"""

from __future__ import annotations

import numpy as np
import pytest

import check
import synthlog

EPISODES = 300


@pytest.mark.parametrize("rule", ["dp", "gsp", "up"])
@pytest.mark.parametrize("K", [4, 8])
def test_correct_log_passes(tmp_path, rule, K):
    synthlog.write_log(tmp_path, 3, EPISODES, rule, K)
    assert check.check_session(tmp_path, rule, K, synthlog.ROSTER, EPISODES) == []


@pytest.mark.parametrize("rule", ["dp", "gsp", "up"])
def test_one_altered_payment_is_rejected(tmp_path, rule):
    synthlog.write_log(tmp_path, 3, EPISODES, rule, 4)
    ep = check.read_log(tmp_path / "episodes.csv")
    row = int(np.flatnonzero(ep["units_won"] > 0)[5])  # a bidder that paid
    synthlog.alter_value(tmp_path / "episodes.csv", row, "payment_total", 0.5)
    probs = check.check_session(tmp_path, rule, 4, synthlog.ROSTER, EPISODES)
    assert any(f"payment breaks the {rule} rule" in p for p in probs)
    assert any("payments do not sum to revenue" in p for p in probs)


def test_payment_moved_between_bidders_is_rejected(tmp_path):
    # Revenue still balances, so only the per-rule payment check can see it.
    synthlog.write_log(tmp_path, 4, EPISODES, "up", 4)
    ep = check.read_log(tmp_path / "episodes.csv")
    payers = np.flatnonzero(ep["units_won"][:6] > 0)
    synthlog.alter_value(tmp_path / "episodes.csv", int(payers[0]), "payment_total", 0.5)
    synthlog.alter_value(tmp_path / "episodes.csv", int(payers[1]), "payment_total", -0.5)
    probs = check.check_session(tmp_path, "up", 4, synthlog.ROSTER, EPISODES)
    assert any("payment breaks the up rule" in p for p in probs)
    assert not any("revenue" in p for p in probs)


def test_altered_efficiency_and_ratio_are_rejected(tmp_path):
    synthlog.write_log(tmp_path, 5, EPISODES, "dp", 6)
    synthlog.alter_value(tmp_path / "auctions.csv", 10, "efficiency_ratio", -0.01)
    synthlog.alter_value(tmp_path / "episodes.csv", 20, "learning_ratio2", 0.001)
    probs = check.check_session(tmp_path, "dp", 6, synthlog.ROSTER, EPISODES)
    assert any("efficiency_ratio" in p for p in probs)
    assert any("learning_ratio2" in p for p in probs)


def test_frozen_checkpoint_change_is_rejected(tmp_path):
    import hashlib
    import json
    import struct

    def write(path, arrays):
        header = json.dumps({"kind": "x", "meta": {}, "arrays": [
            {"name": k, "shape": list(v.shape)} for k, v in arrays.items()]}).encode()
        body = b"MAUL" + struct.pack("<II", 1, len(header)) + header
        body += b"".join(np.ascontiguousarray(v, dtype="<f8").tobytes() for v in arrays.values())
        path.write_bytes(body + hashlib.sha256(body).digest())

    w = np.arange(6.0).reshape(2, 3)
    write(tmp_path / "a.ckpt", {"net.w0": w})
    write(tmp_path / "b.ckpt", {"net.w0": w})
    assert check.check_same_arrays(tmp_path / "a.ckpt", tmp_path / "b.ckpt") == []
    write(tmp_path / "b.ckpt", {"net.w0": w + 1e-12})
    assert check.check_same_arrays(tmp_path / "a.ckpt", tmp_path / "b.ckpt")
