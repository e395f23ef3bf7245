"""Reward formula and episode environment tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maulab.config import ConfigError, ScenarioConfig
from maulab.env import AuctionEnv, reward, slot_sum


def _env(rule="dp", supply=4, seed=0, **kw):
    config = ScenarioConfig(rule=rule, supply=supply, master_seed=seed, **kw)
    ss = np.random.SeedSequence(seed).spawn(2)
    return AuctionEnv(config, np.random.default_rng(ss[0]), np.random.default_rng(ss[1]))


def test_reward_unit_table():
    assert reward(1, 2.0, 3.0) == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert reward(1, 2.0, 9.0) == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert reward(0, 0.0, 5.0) == -0.01
    assert reward(0, 3.0, 0.5) == -0.01
    assert reward(1, -1.0, 4.0) == pytest.approx(-1.25, abs=1e-12)
    # small values are guarded by max(v, 1)
    assert reward(1, 0.2, 0.5) == pytest.approx(0.2, abs=1e-12)
    assert reward(1, -0.2, 0.5) == pytest.approx(-0.7, abs=1e-12)
    # zero payoff counts as the penalty branch
    assert reward(1, 0.0, 4.0) == pytest.approx(-1.0, abs=1e-12)


def test_reward_matches_direct_formula():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        s = int(rng.integers(0, 2))
        p = float(rng.uniform(-10, 10))
        v = float(rng.uniform(0, 10))
        if s == 0:
            expect = -0.01
        elif p > 0:
            expect = p / max(v, 1.0)
        else:
            expect = -(v - p) / max(v, 1.0)
        assert reward(s, p, v) == pytest.approx(expect, abs=1e-12)


@settings(max_examples=300, deadline=None)
@given(
    s=st.integers(min_value=0, max_value=1),
    p=st.floats(min_value=-100, max_value=100),
    v=st.floats(min_value=0, max_value=100),
)
def test_reward_total_and_finite(s, p, v):
    r = reward(s, p, v)
    assert np.isfinite(r)
    if s == 0:
        assert r == -0.01


def test_reward_elementwise_equals_scalar_calls():
    rng = np.random.default_rng(4)
    won = rng.integers(0, 2, size=(50, 3))
    payoff = rng.uniform(-10, 10, size=(50, 3))
    value = rng.uniform(0, 10, size=(50, 1))
    r = reward(won, payoff, value)
    for i, j in np.ndindex(r.shape):
        assert r[i, j] == reward(int(won[i, j]), float(payoff[i, j]), float(value[i, 0]))


@pytest.mark.parametrize("k", [1, 2, 9])
def test_slot_sum_adds_like_python_sum(k):
    # Magnitudes from 1 to 1e16, so that adding in another order changes the last bits.
    rng = np.random.default_rng(k)
    a = rng.normal(size=(50, k)) * 10.0 ** rng.integers(0, 17, size=(50, k))
    assert slot_sum(a).tolist() == [sum(row) for row in a.tolist()]


def test_reward_monotone_in_payoff():
    v = 7.0
    ps = np.linspace(-5, 5, 101)
    rs = [reward(1, p, v) for p in ps]
    assert all(b >= a for a, b in zip(rs, rs[1:]))


def test_reset_observation_shape_and_range():
    env = _env()
    obs = env.reset()
    assert obs.shape == (6, 2)
    for i, o in enumerate(obs):
        assert o[0] == o[1]
        assert 0.0 <= o[0] <= 1.0
        assert env.values[i] == pytest.approx(o[0] * 10.0)


def test_valuations_matrix():
    env = _env()
    env.reset()
    v = env.valuations()
    assert v.shape == (6, 2)
    assert np.all(v[:, 0] == v[:, 1])


def test_step_before_reset_raises():
    env = _env()
    with pytest.raises(RuntimeError):
        env.step([(0, 0)] * 6)


def test_step_wrong_action_count():
    env = _env()
    env.reset()
    with pytest.raises(ConfigError):
        env.step([(0, 0)] * 5)
    with pytest.raises(ConfigError):
        env.step([(0, 0)] * 5 + [(0,)])
    with pytest.raises(ConfigError):
        env.step([(0, 0, 0)] * 6)


def test_step_out_of_grid_level():
    env = _env()
    env.reset()
    with pytest.raises(ConfigError):
        env.step([(99, 0)] + [(0, 0)] * 5)
    with pytest.raises(ConfigError):
        env.step([(-1, 0)] + [(0, 0)] * 5)


def test_step_canonicalizes_levels():
    env = _env()
    env.reset()
    *_, bids, _ = env.step([(2, 5), (5, 2)] + [(0, 0)] * 4)
    assert bids[0].tolist() == [2.5, 1.0]
    assert bids[1].tolist() == [2.5, 1.0]


def test_step_transitions_consistent():
    env = _env(rule="up", seed=5)
    env.reset()
    values = env.values.copy()
    levels = [(20, 10)] * 3 + [(4, 2)] * 3
    rewards, won, payment, bids, outcome = env.step(levels)
    assert rewards.shape == (6,)
    assert won.shape == payment.shape == bids.shape == (6, 2)
    assert won.sum() == 4
    for i in range(6):
        per_slot = [
            reward(won[i, j], values[i] - payment[i, j], values[i]) for j in range(2)
        ]
        assert rewards[i] == sum(per_slot)
        for j in range(2):
            if not won[i, j]:
                assert per_slot[j] == -0.01
                assert payment[i, j] == 0.0
    assert payment.sum() == pytest.approx(outcome.revenue)
    assert {(w.bidder_id, w.unit_slot) for w in outcome.winners} == set(zip(*np.nonzero(won)))


def test_step_consumes_values():
    env = _env()
    env.reset()
    env.step([(0, 0)] * 6)
    with pytest.raises(RuntimeError):
        env.step([(0, 0)] * 6)


def test_value_distribution_uniform():
    env = _env(seed=99)
    draws = []
    for _ in range(2000):
        env.reset()
        draws.extend(env.values.tolist())
        env._values = None
    x = np.sort(np.array(draws)) / 10.0
    n = x.size
    # Kolmogorov-Smirnov against U(0,1), alpha = 0.01
    grid_hi = np.arange(1, n + 1) / n
    grid_lo = np.arange(0, n) / n
    d = max(float(np.max(grid_hi - x)), float(np.max(x - grid_lo)))
    assert d < 1.63 / np.sqrt(n)
    assert abs(np.mean(draws) - 5.0) < 0.05
