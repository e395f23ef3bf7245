"""Block computations give the bits of the same work done one episode at a time.

A session plays blocks of up to `harness.BLOCK` episodes. Seats that do not
train act on a whole block per call; a frozen session also clears it at once,
while one with a training seat clears it in runs of at most every learner's
`horizon(RUN_CAP)` episodes: up to the next update for DPN, A2C and PPO, and
up to `harness.RUN_CAP` episodes for ql, vpg and a warm DQN, which act past
their updates and cut a run at the first row an update of the run changes.
Each test here runs one layer on a block and on its rows one by one (blocks
of one), or a session with other block sizes, with every horizon forced to 1
or with other run caps, from the same seeded streams, and asserts equal
results, bit for bit, and equal stream states afterwards.
"""

import copy

import numpy as np
import pytest

from maulab import harness
from maulab.agents import actor_critic
from maulab.agents.actor_critic import A2cAgent, PpoAgent
from maulab.agents.base import make_agent
from maulab.agents.policy import DpgAgent
from maulab.agents.qlearn import DqnAgent
from maulab.auction import _allocated_and_best, canonicalize, clear, efficiency_gap, efficiency_ratio, slot_sum
from maulab.config import ScenarioConfig, Seat, Session
from maulab.env import AuctionEnv
from maulab.agents.policy import heads_stats
from maulab.nn import forward, log_softmax, mlp_init, sample_categorical

from columns import session_columns

B = 400


def _rows(fn, *blocks):
    """fn applied to each row of the blocks as a block of one, results stacked."""
    outs = [fn(*(b[i : i + 1] for b in blocks)) for i in range(len(blocks[0]))]
    if isinstance(outs[0], tuple):
        return tuple(np.concatenate(parts) for parts in zip(*outs))
    return np.concatenate(outs)


def _same_state(a: np.random.Generator, b: np.random.Generator) -> bool:
    return a.bit_generator.state == b.bit_generator.state


def _oracle(rule, bids, K, perm):
    """Winners (bidder, slot) in rank order, their payments and the revenue,
    from the rule prose with plain sorted()."""
    rows = [sorted(r, reverse=True) for r in bids.tolist()]
    k = len(rows[0])
    ranked = sorted((-b, perm[i * k + j], i, j) for i, row in enumerate(rows) for j, b in enumerate(row))
    ranked = [(i, j, -nb) for nb, _, i, j in ranked]
    pays = []
    for p, (i, _, b) in enumerate(ranked[:K]):
        if rule == "dp":
            pays.append(b)
        elif rule == "up":
            pays.append(ranked[K][2] if len(ranked) > K else 0.0)
        else:
            pays.append(next((b2 for i2, _, b2 in ranked[p + 1 :] if i2 != i), 0.0))
    return [(i, j) for i, j, _ in ranked[:K]], pays, sum(pays)


@pytest.mark.parametrize("rule", ["dp", "gsp", "up"])
@pytest.mark.parametrize("K", [4, 6, 8, 12])
def test_block_clearer_matches_oracle_and_single_auctions(rule, K):
    rng = np.random.default_rng(K)
    bids = rng.integers(0, 5, size=(B, 6, 2)) * 0.5  # few levels: many ties
    perms = np.random.default_rng(1)
    ties = np.stack([perms.permutation(12) for _ in range(B)])
    kept = ties.copy()
    winners, pay, revenue = clear(rule, bids, K, ties)
    canonical = canonicalize(bids)
    for b in range(B):
        want_slots, want_pay, want_revenue = _oracle(rule, bids[b], K, ties[b])
        assert [(w // 2, w % 2) for w in winners[b].tolist()] == want_slots
        assert pay[b].tolist() == want_pay
        assert revenue[b] == want_revenue
        assert canonical[b].ravel()[winners[b]].tolist() == sorted(canonical[b].ravel().tolist(), reverse=True)[:K]
    got = _rows(lambda x, t: clear(rule, x, K, t), bids, ties)
    for block, rows in zip((winners, pay, revenue), got):
        assert np.array_equal(block, rows)
    assert np.array_equal(ties, kept)  # clearing draws nothing and writes nothing


def test_block_tie_draws_are_successive_permutations():
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    env = AuctionEnv(ScenarioConfig(supply=8), np.random.default_rng(4), a)
    env.reset(B)
    levels = np.zeros((B, 6, 2), dtype=int)  # all tied: the ranking is the tie permutation's order
    *_, (winners, _, _) = env.step(slice(0, B), levels)
    for row in winners:
        assert row.tolist() == np.argsort(b.permutation(12))[:8].tolist()
    assert _same_state(a, b)


@pytest.mark.parametrize("K", [4, 8])
def test_allocated_and_best_add_as_the_per_episode_sums(K):
    rng = np.random.default_rng(8)
    # Magnitudes from 1e-8 to 1e8, so that adding in another order changes the last bits.
    values = rng.uniform(0, 1, size=(20_000, 6, 2)) * 10.0 ** rng.integers(-8, 9, size=(20_000, 6, 2))
    winners = np.argsort(rng.random((20_000, 12)), axis=1)[:, :K]
    allocated, best = _allocated_and_best(values, winners, K)
    for b in range(0, 20_000, 7):
        v = canonicalize(values[b])
        assert allocated[b] == sum(float(v[w // 2, w % 2]) for w in winners[b].tolist())
        assert best[b] == float(np.sort(v.ravel())[::-1][:K].sum())
    for fn in (efficiency_ratio, efficiency_gap):
        assert np.array_equal(fn(values[:B], winners[:B], K), _rows(lambda v, w: fn(v, w, K), values[:B], winners[:B]))


def test_slot_sum_adds_each_row_like_python_sum():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(50, 6, 9)) * 10.0 ** rng.integers(0, 17, size=(50, 6, 9))
    assert slot_sum(a).tolist() == [[sum(row) for row in block] for block in a.tolist()]


def test_env_block_matches_single_episodes():
    config = ScenarioConfig(rule="gsp", supply=8, master_seed=4)
    envs = [AuctionEnv(config, np.random.default_rng(10), np.random.default_rng(11)) for _ in range(3)]
    levels = np.random.default_rng(12).integers(0, 21, size=(B, 6, 2))
    obs = envs[0].reset(B)
    block = envs[0].step(slice(0, B), levels)
    rows, stepped = [], []
    assert np.array_equal(envs[2].reset(B), obs)
    for b in range(B):
        assert np.array_equal(envs[1].reset(1), obs[b : b + 1])
        rows.append(envs[1].step(slice(0, 1), levels[b : b + 1]))
        stepped.append(envs[2].step(slice(b, b + 1), levels[b : b + 1]))  # a block's episodes stepped one at a time
    reward, won, payment, bids, (winners, pay, revenue) = block
    for parts in (rows, stepped):
        for got, want in zip((reward, won, payment, bids, winners, pay, revenue),
                             (np.concatenate(p) for p in zip(*(r[:4] + r[4] for r in parts)))):
            assert np.array_equal(got, want)
    for env in envs[1:]:
        assert all(_same_state(getattr(envs[0], s), getattr(env, s)) for s in ("_value_rng", "_tie_rng"))


def _obs(k=2):
    return np.repeat(np.random.default_rng(6).uniform(0, 1, size=(B, 1)), k, axis=1)


@pytest.mark.parametrize("algo", ["random", "ql", "dqn", "vpg", "dpn", "a2c", "ppo"])
def test_frozen_act_on_a_block_matches_single_rows(algo):
    config = ScenarioConfig(episodes=100)
    a, b = make_agent(algo, config, np.random.default_rng(2)), make_agent(algo, config, np.random.default_rng(2))
    if hasattr(a, "table"):
        for agent in (a, b):
            agent.table[...] = np.random.default_rng(3).integers(0, 3, size=agent.table.shape)  # many ties
    obs = _obs()
    block = a.act(obs, explore=False)
    assert block.shape == (B, 2)
    assert np.array_equal(block, _rows(lambda o: b.act(o, explore=False), obs))
    assert _same_state(a.rng, b.rng)


def test_random_bidder_caps_and_draws_match_the_scalar_rule():
    agent = make_agent("random", ScenarioConfig(), np.random.default_rng(7))
    draws = np.random.default_rng(7)
    values = np.concatenate([np.arange(0, 10.25, 0.5), np.random.default_rng(1).uniform(-1, 11, size=B)])
    levels = agent.act(np.repeat(values[:, None] / 10.0, 2, axis=1))
    for value, row in zip(values.tolist(), levels.tolist()):
        cap = max(0, min(int(np.floor(float(value / 10.0) * 10.0 / 0.5 + 1e-9)), 20))
        assert row == draws.integers(0, cap + 1, size=2).tolist()


def test_q_argmax_ties_go_to_the_lowest_index():
    agent = make_agent("ql", ScenarioConfig(), np.random.default_rng(0))
    agent.table[:, 5:9] = 1.0
    agent.table[3, 2] = 1.0
    obs = _obs()
    idx = [int(np.argmax(agent.table[agent._bin(o)])) for o in obs]
    assert np.array_equal(agent.act(obs, explore=False), agent.actions[idx])
    assert set(idx) == {2, 5}
    dqn = make_agent("dqn", ScenarioConfig(), np.random.default_rng(0))
    dqn.net.weights[-1][...] = 0.0
    dqn.net.biases[-1][[9, 4, 30]] = 1.0  # every observation ties actions 4, 9 and 30
    assert np.array_equal(dqn.act(obs, explore=False), dqn.actions[np.full(B, 4)])


@pytest.mark.parametrize("algo", ["vpg", "dpn", "a2c", "ppo"])
def test_block_sampling_matches_categorical(algo):
    agent = make_agent(algo, ScenarioConfig(), np.random.default_rng(9))
    if algo == "vpg":
        agent.table[...] = np.random.default_rng(1).normal(size=agent.table.shape)
    obs = _obs()
    for explore in (False, True):  # an exploring vpg takes each bin's CDF once
        draws = copy.deepcopy(agent.rng)
        block = agent.act(obs, explore=explore)
        for o, row in zip(obs, block.tolist()):
            if algo == "vpg":
                logp = log_softmax(agent.table[agent._bin(o)])
                want = agent.actions[sample_categorical(logp, draws.random())].tolist()
            else:
                out, _ = forward(agent.net if algo == "dpn" else agent.actor, o)
                want = sample_categorical(log_softmax(out.reshape(2, 21)), draws.random(2)).tolist()
            assert row == want
        assert _same_state(agent.rng, draws)


def test_ppo_update_gets_the_log_probability_each_row_was_drawn_with(monkeypatch):
    agent = make_agent("ppo", ScenarioConfig(), np.random.default_rng(4), rollout=8, epochs=1, minibatch=4)
    draws = copy.deepcopy(agent.rng)
    obs = _obs()[:8]
    levels = agent.act(obs, explore=True)
    want = []
    for o, row in zip(obs, levels):
        out, _ = forward(agent.actor, o)
        (log_probs, _, _), logp, _ = heads_stats(out.reshape(1, 2, 21), row[None])
        assert row.tolist() == sample_categorical(log_probs[0], draws.random(2)).tolist()
        want.append(float(logp[0]))
    got = []
    update = actor_critic.ppo_update
    monkeypatch.setattr(actor_critic, "ppo_update", lambda *a: got.append(a[4].tolist()) or update(*a))
    agent.observe(obs, levels, np.zeros(len(obs)))
    assert got == [want]


def test_stacked_forward_is_bit_equal_to_single_rows():
    net = mlp_init((2, 64, 64, 231), 0)
    x = np.random.default_rng(1).uniform(0, 1, size=(B, 2))
    out, _ = forward(net, x[:, None, :])
    assert out.shape == (B, 1, 231)
    for row, xi in zip(out[:, 0], x):
        assert np.array_equal(row, forward(net, xi)[0])


@pytest.mark.parametrize("train", [False, True])
@pytest.mark.parametrize("block", [1, 7, 4096])
def test_session_columns_do_not_depend_on_the_block_size(block, train, tmp_path, monkeypatch):
    pretrained = harness.run(harness.pretrain("ql", "dp", 4, 50, 2), tmp_path) / "ql.ckpt"
    config = ScenarioConfig(rule="gsp", supply=6, episodes=300, master_seed=5)
    roster = (Seat(1, "ql", train, str(pretrained)), *(Seat(i, "random", False) for i in range(2, 7)))
    session = Session("tournament", config, roster)
    env, agents = harness.start(session)
    want = session_columns(session, env, agents, 300)
    monkeypatch.setattr(harness, "BLOCK", block)
    env, blocked = harness.start(session)
    got = session_columns(session, env, blocked, 300)
    for w, g in zip(want, got):
        assert w.keys() == g.keys()
        assert all(np.array_equal(w[key], g[key]) for key in w)
    assert np.array_equal(agents[0].table, blocked[0].table) and agents[0].t == blocked[0].t
    assert all(_same_state(a.rng, b.rng) for a, b in zip(agents, blocked))


# --- a training seat's runs: up to its next update at once ------------------

# Each session with its longest horizon: the longest run one step clears.
LEARNING_SESSIONS = {
    "a2c": (lambda: harness.pretrain("a2c", "dp", 4, 300, 3), 5),
    "dpn": (lambda: harness.pretrain("dpn", "gsp", 6, 300, 3, overrides={"batch_size": 16}), 16),
    "ppo": (lambda: harness.pretrain("ppo", "up", 8, 600, 3), 512),
    "dqn": (lambda: harness.pretrain("dqn", "dp", 4, 300, 3, overrides={"warmup": 64}), 64),
    "tournament": (lambda: harness.tournament("gsp", 6, {}, 300, 3), 5),  # a2c's batch; ql and vpg act on runs
    "ppo6": (lambda: harness.tournament("dp", 4, {}, 600, 3, all_ppo=True), 512),
}


def _play(make_session):
    """Columns, env, agents and the episodes of each env.step of one session."""
    session = make_session()
    env, agents = harness.start(session)
    steps, step = [], env.step
    env.step = lambda rows, levels: steps.append(len(levels)) or step(rows, levels)
    columns = session_columns(session, env, agents, session.scenario.episodes)
    return columns, env, agents, steps


@pytest.mark.parametrize("name", list(LEARNING_SESSIONS))
def test_learning_sessions_do_not_depend_on_horizons_or_block_size(name, monkeypatch):
    make_session, longest = LEARNING_SESSIONS[name]
    with monkeypatch.context() as m:
        for cls in (A2cAgent, PpoAgent, DpgAgent, DqnAgent):
            m.setattr(cls, "horizon", lambda self, cap: 1)
        want_columns, want_env, want_agents, want_steps = _play(make_session)
    assert set(want_steps) == {1}
    for block in (1, 7, 4096):
        monkeypatch.setattr(harness, "BLOCK", block)
        columns, env, agents, steps = _play(make_session)
        if name in ("tournament", "dqn"):
            assert sum(steps) >= sum(want_steps)  # rows past a cut are stepped again
        else:
            assert sum(steps) == sum(want_steps)
        assert max(steps) == min(block, longest)
        for w, g in zip(want_columns, columns):
            assert w.keys() == g.keys()
            assert all(np.array_equal(w[key], g[key]) for key in w)
        for want, got in zip(want_agents, agents):
            (want_meta, want_arrays), (meta, arrays) = want.checkpoint_payload(), got.checkpoint_payload()
            assert meta == want_meta
            assert arrays.keys() == want_arrays.keys()
            assert all(np.array_equal(arrays[key], want_arrays[key]) for key in arrays)
            assert _same_state(want.rng, got.rng)
        assert all(_same_state(getattr(want_env, s), getattr(env, s)) for s in ("_value_rng", "_tie_rng"))


def test_horizons_count_the_episodes_to_the_next_update():
    config, obs = ScenarioConfig(episodes=100), _obs()
    ppo = {"rollout": 8, "epochs": 1, "minibatch": 4}
    for algo, overrides, period in (("a2c", {}, 5), ("dpn", {"batch_size": 16}, 16), ("ppo", ppo, 8)):
        agent = make_agent(algo, config, np.random.default_rng(1), hidden=(8, 8), **overrides)
        seen = []
        for e in range(2 * period + 3):  # two updates, then part of a batch
            seen.append(agent.horizon(1))
            agent.observe(obs[e : e + 1], agent.act(obs[e : e + 1]), np.full(1, 0.5))
        assert seen == [period - e % period for e in range(2 * period + 3)]
        steps_per_update = 2 if algo == "ppo" else 1  # ppo: two minibatches of 4 in its one epoch
        assert (agent.opt if algo == "dpn" else agent.opt_actor).step == 2 * steps_per_update
    for warmup, batch_size, warm in ((10, 4, 10), (3, 6, 6)):
        dqn = make_agent("dqn", config, np.random.default_rng(1), hidden=(8, 8), warmup=warmup, batch_size=batch_size)
        seen = []
        for e in range(warm + 4):  # across the end of the warm-up
            seen.append(dqn.horizon(1))
            dqn.observe(obs[e : e + 1], dqn.act(obs[e : e + 1]), np.full(1, 0.5))
        assert seen == [warm - e for e in range(warm)] + [1] * 4
        assert dqn.train_steps == 5


@pytest.mark.parametrize("algo", ["ql", "vpg", "dqn", "a2c", "ppo"])
def test_exploring_act_on_a_block_matches_single_rows(algo):
    config = ScenarioConfig(episodes=100)
    a, b = make_agent(algo, config, np.random.default_rng(2)), make_agent(algo, config, np.random.default_rng(2))
    for agent in (a, b):
        if algo in ("ql", "dqn"):
            agent.t, agent.decay_rate = 40, 0.99  # epsilon 0.67 at the first row, 0.012 at the last
        if algo in ("ql", "vpg"):
            agent.table[...] = np.random.default_rng(3).integers(0, 3, size=agent.table.shape)
    obs = _obs()
    block = a.act(obs, explore=True)
    rows = []
    # Observing drains a row's kept draws and levels and leaves the policy as
    # it is: ql and vpg step by 0, a2c's actor by a rate of 0, and dqn (its
    # warm-up) and ppo (its rollout) take more rows than these to update.
    if algo in ("ql", "vpg"):
        b.alpha = 0.0
    elif algo == "a2c":
        b.opt_actor.lr = 0.0
    for j, o in enumerate(obs):
        b.t = a.t + j  # the row's episode comes j observes after the block's first
        rows.append(b.act(o[None], explore=True))
        b.observe(o[None], rows[-1], np.zeros(1))
    assert np.array_equal(block, np.concatenate(rows))
    assert _same_state(a.rng, b.rng)


# Overrides that put update boundaries within 24 episodes.
RUN_OVERRIDES = {
    "dqn": {"warmup": 8, "batch_size": 4},
    "dpn": {"batch_size": 8},
    "a2c": {"batch_size": 8},
    "ppo": {"rollout": 8, "epochs": 2, "minibatch": 4},
}


@pytest.mark.parametrize("algo", ["ql", "vpg", "dqn", "dpn", "a2c", "ppo"])
def test_observing_a_run_equals_observing_its_rows(algo):
    # a learner acting and observing in runs of horizon(1) episodes ends where
    # one acting and observing an episode at a time does; ql and vpg, whose
    # horizon is the cap they are given, observe a longer run of given levels
    # row by row
    config, obs = ScenarioConfig(episodes=100), _obs()[:24]
    rewards = np.random.default_rng(6).normal(size=24)
    overrides = {"hidden": (8, 8), **RUN_OVERRIDES[algo]} if algo in RUN_OVERRIDES else {}
    a, b = (make_agent(algo, config, np.random.default_rng(5), **overrides) for _ in range(2))
    start = 0
    while start < len(obs):
        rows = slice(start, start + (6 if algo in ("ql", "vpg") else a.horizon(1)))
        levels = a.act(obs[rows])
        a.observe(obs[rows], levels, rewards[rows])
        for e in range(rows.start, rows.stop):
            one = slice(e, e + 1)
            if algo in ("ql", "vpg"):
                b.observe(obs[one], levels[e - rows.start][None], rewards[one])
            else:
                row = b.act(obs[one])
                assert np.array_equal(row[0], levels[e - rows.start])
                b.observe(obs[one], row, rewards[one])
        start = rows.stop
    (meta_a, arrays_a), (meta_b, arrays_b) = a.checkpoint_payload(), b.checkpoint_payload()
    assert meta_a == meta_b and meta_a["t"] == len(obs)
    assert all(np.array_equal(arrays_a[name], arrays_b[name]) for name in arrays_a)
    if algo not in ("ql", "vpg"):
        assert _same_state(a.rng, b.rng)
        assert len(a.buffer) == len(b.buffer)
        assert meta_a["train_steps" if algo == "dqn" else "opt_step" if algo == "dpn" else "opt_actor_step"] > 0


@pytest.mark.parametrize("algo", ["dpn", "a2c", "ppo"])
def test_observe_needs_no_act_before_it(algo):
    # a copy that never acts, given the run's levels and the acting agent's
    # stream, ends a full rollout where the acting agent does
    config, obs = ScenarioConfig(episodes=100), _obs()[:8]
    rewards = np.random.default_rng(6).normal(size=8)
    agent, twin = (make_agent(algo, config, np.random.default_rng(5), hidden=(8, 8), **RUN_OVERRIDES[algo])
                   for _ in range(2))
    levels = agent.act(obs)
    twin.rng.bit_generator.state = agent.rng.bit_generator.state
    for a in (agent, twin):
        a.observe(obs, levels, rewards)
    (meta_a, arrays_a), (meta_b, arrays_b) = agent.checkpoint_payload(), twin.checkpoint_payload()
    assert meta_a == meta_b and meta_a["opt_step" if algo == "dpn" else "opt_actor_step"] > 0
    assert arrays_a.keys() == arrays_b.keys()
    assert all(np.array_equal(arrays_a[name], arrays_b[name]) for name in arrays_a)
    assert _same_state(agent.rng, twin.rng)


# --- learners that act past their updates (ql, vpg, dqn): runs of up to
# RUN_CAP episodes, cut at the first changed row

CAP_SESSIONS = {
    "ql": lambda: harness.pretrain("ql", "dp", 4, 700, 3),
    "vpg": lambda: harness.pretrain("vpg", "up", 8, 700, 3),
    "dqn": lambda: harness.pretrain("dqn", "gsp", 6, 300, 3, overrides={"warmup": 64, "lr": 1e-2}),
    "tournament": lambda: harness.tournament("gsp", 6, {}, 300, 3),  # beside a2c, ppo, dpn and a warming dqn
    "dqn_tournament": lambda: Session("tournament", ScenarioConfig(rule="dp", supply=4, episodes=300, master_seed=3), (
        Seat(1, "ql", True), Seat(2, "vpg", True), Seat(3, "a2c", True), Seat(4, "ppo", True, overrides={"rollout": 64}),
        *(Seat(i, "dqn", True, overrides={"warmup": 32, "lr": 1e-2}) for i in (5, 6)),
    )),  # two warm dqns: the first one's runs are also cut by the second, past its speculation
}


def _play_counting_derived(make_session):
    """_play, with the rows each rollout learner (dpn, a2c, ppo) derived
    levels for counted per seat."""
    derived = {}

    def counting(derive):
        def wrapper(self, obs, start):
            derived[id(self)] = derived.get(id(self), 0) + len(obs)
            return derive(self, obs, start)
        return wrapper

    with pytest.MonkeyPatch.context() as m:
        for cls in (A2cAgent, PpoAgent, DpgAgent):
            m.setattr(cls, "_derive", counting(cls._derive))
        columns, env, agents, steps = _play(make_session)
    return columns, env, agents, steps, [derived.get(id(a), 0) for a in agents]


@pytest.mark.parametrize("name", list(CAP_SESSIONS))
def test_sessions_do_not_depend_on_the_run_cap(name, monkeypatch):
    runs = {}
    for cap in (1, 7, 512):
        monkeypatch.setattr(harness, "RUN_CAP", cap)
        runs[cap] = _play_counting_derived(CAP_SESSIONS[name])
    want_columns, want_env, want_agents, want_steps, want_derived = runs[1]
    episodes = CAP_SESSIONS[name]().scenario.episodes
    if name not in ("dqn", "dqn_tournament"):  # a warming dqn's runs are longer
        assert sum(want_steps) == episodes  # at a cap of 1 each step clears the next episode once
    for cap in (7, 512):
        columns, env, agents, steps, derived = runs[cap]
        assert max(steps) > 1 and sum(steps) >= episodes
        assert derived == want_derived  # the rollout learners derive each episode's levels once
        for w, g in zip(want_columns, columns):
            assert all(np.array_equal(w[key], g[key]) for key in w)
        for want, got in zip(want_agents, agents):
            (want_meta, want_arrays), (meta, arrays) = want.checkpoint_payload(), got.checkpoint_payload()
            assert meta == want_meta
            assert all(np.array_equal(arrays[key], want_arrays[key]) for key in arrays)
            assert _same_state(want.rng, got.rng)
            assert getattr(got, "_pending", []) == []  # each block ends with every kept draw observed
        assert all(_same_state(getattr(want_env, s), getattr(env, s)) for s in ("_value_rng", "_tie_rng"))
    if name in ("tournament", "dqn_tournament"):
        rollout_seats = [d for d, agent in zip(want_derived, want_agents) if agent.algo in ("a2c", "ppo", "dpn")]
        assert rollout_seats == [episodes] * len(rollout_seats)


def _planted(algo, table_row, kept):
    """A table learner whose bin-5 row is `table_row`, with one kept draw per
    row of an 8-row run in bin 5, and the run's observations."""
    overrides = {"eps_max": 0.0} if algo == "ql" else {}  # ql: every row greedy
    agent = make_agent(algo, ScenarioConfig(episodes=100), np.random.default_rng(0), **overrides)
    agent.table[5] = table_row
    agent._pending = list(kept)
    obs = np.full((8, 2), 0.5)  # value 5.0: bin 5 of 11
    assert (agent._bin(obs) == 5).all()
    return agent, obs


@pytest.mark.parametrize("algo", ["ql", "vpg"])
def test_a_run_is_cut_at_the_first_row_an_update_changes(algo):
    # ql: actions 3 and 7 lead bin 5 by a margin of 0.01; row 3's reward of 0
    # drops action 3 below action 7, so the greedy row 4 is the first to change.
    # vpg: actions 3 and 7 share bin 5's probability, and every kept uniform is
    # 0.3 (action 3); row 3's reward of -20 moves action 3's CDF value below
    # 0.3, so row 4 is the first to fall in another interval.
    row = np.full(231, -30.0)
    row[[3, 7]] = (1.0, 0.99) if algo == "ql" else (0.0, 0.0)
    kept = [-1] * 8 if algo == "ql" else [0.3] * 8
    rewards = np.where(np.arange(8) == 3, 0.0 if algo == "ql" else -20.0, 1.0 if algo == "ql" else 0.0)
    agent, obs = _planted(algo, row, kept)
    twin, _ = _planted(algo, row, kept)
    levels = agent.act(obs)
    assert np.array_equal(levels, np.tile(agent.actions[3], (8, 1)))
    assert agent.speculate(obs, levels, rewards) == 4
    agent.observe(obs[:4], levels[:4], rewards[:4])
    for e in range(4):  # the same rows observed one at a time
        twin.act(obs[e : e + 1])
        twin.observe(obs[e : e + 1], levels[e : e + 1], rewards[e : e + 1])
    assert np.array_equal(agent.table, twin.table) and agent.t == twin.t == 4
    redone = agent.act(obs[4:])  # the rows past the cut, re-derived from their kept draws
    assert redone[0].tolist() == agent.actions[7].tolist()
    assert agent._pending == kept[4:]
    assert _same_state(agent.rng, np.random.default_rng(0))  # the planted draws were all it used


@pytest.mark.parametrize("algo", ["ql", "vpg"])
def test_observing_fewer_rows_than_kept_applies_only_their_updates(algo):
    # Another table learner can cut the run earlier than this one's speculation.
    # Rewards that favour action 3 keep every row of the run.
    row = np.full(231, -30.0)
    row[[3, 7]] = (1.0, 0.99) if algo == "ql" else (0.0, 0.0)
    kept = [-1] * 8 if algo == "ql" else [0.3] * 8
    rewards = 2.0 + 0.1 * np.arange(8)
    agent, obs = _planted(algo, row, kept)
    twin, _ = _planted(algo, row, kept)
    levels = agent.act(obs)
    assert agent.speculate(obs, levels, rewards) == 8
    agent.observe(obs[:2], levels[:2], rewards[:2])
    twin.observe(obs[:2], levels[:2], rewards[:2])
    assert np.array_equal(agent.table, twin.table) and agent.t == twin.t == 2
    assert agent._pending == kept[2:]


def test_a_ql_pretrain_clears_runs_of_episodes():
    steps = _play(lambda: harness.pretrain("ql", "dp", 4, 2048, 3))[3]
    assert sum(steps) >= 2048 and len(steps) < 1024


def _warm_dqn(seed):
    """A dqn past its warm-up, with a six-row ring that wraps within a run and
    a large step, so that its trains change greedy rows; and a 16-row run."""
    agent = make_agent("dqn", ScenarioConfig(episodes=100), np.random.default_rng(seed), hidden=(8, 8), warmup=4,
                       batch_size=4, buffer_capacity=6, lr=0.05, eps_max=0.3)
    rng = np.random.default_rng(100 + seed)
    obs = np.repeat(rng.uniform(0, 1, size=(22, 1)), 2, axis=1)
    rewards = rng.normal(scale=5.0, size=22)
    for e in range(6):
        agent.observe(obs[e : e + 1], agent.act(obs[e : e + 1]), rewards[e : e + 1])
    return agent, obs[6:], rewards[6:]


def _dqn_state(agent):
    """Every piece of a dqn's state that a train or a push changes, and its
    stream and kept draws."""
    buffer = agent.buffer
    return [agent.net.vec, agent.opt.m, agent.opt.v, agent.opt.step, agent.train_steps, agent.t, buffer._cursor,
            buffer._size, *buffer._columns, agent.rng.bit_generator.state, agent._acted,
            [d for d, _ in agent._pending], [r for _, r in agent._pending if r is not None]]


def _same_dqn(a, b) -> bool:
    return all(np.array_equal(x, y) if isinstance(x, (np.ndarray, list)) else x == y
               for x, y in zip(_dqn_state(a), _dqn_state(b), strict=True))


def test_a_dqn_run_is_cut_at_the_first_greedy_row_a_train_changes():
    # The cut speculate finds is the first row whose level differs when the
    # run's rows are acted on and observed one at a time; the rows before it
    # leave the dqn as observing them one at a time does.
    cuts = []
    for seed in range(12):
        agent, obs, rewards = _warm_dqn(seed)
        stepwise = copy.deepcopy(agent)
        levels = agent.act(obs)
        twin = copy.deepcopy(agent)
        cut = agent.speculate(obs, levels, rewards)
        agent.observe(obs[:cut], levels[:cut], rewards[:cut])
        for e in range(len(obs)):
            row = stepwise.act(obs[e : e + 1])
            if e == cut:
                assert not np.array_equal(row[0], levels[e])
                break
            assert np.array_equal(row[0], levels[e])
            stepwise.observe(obs[e : e + 1], row, rewards[e : e + 1])
            twin.observe(obs[e : e + 1], row, rewards[e : e + 1])
        assert _same_dqn(agent, twin) and agent.t == 6 + cut
        cuts.append(cut)
    assert len(set(cuts)) > 3 and min(cuts) < max(cuts)


def test_dqn_observing_fewer_rows_than_kept_restores_its_state():
    # Another learner can cut the run at any row before this one's cut: the
    # dqn then holds what one that observed only those rows, one at a time, does.
    agent, obs, rewards = _warm_dqn(1)
    levels = agent.act(obs)
    probe = copy.deepcopy(agent)
    kept = probe.speculate(obs, levels, rewards)
    assert kept > 4
    for cut in range(1, kept):
        cut_short, twin = copy.deepcopy(agent), copy.deepcopy(agent)
        assert cut_short.speculate(obs, levels, rewards) == kept
        cut_short.observe(obs[:cut], levels[:cut], rewards[:cut])
        for e in range(cut):
            twin.observe(obs[e : e + 1], levels[e : e + 1], rewards[e : e + 1])
        assert _same_dqn(cut_short, twin), cut
        assert np.array_equal(cut_short.act(obs[cut:]), twin.act(obs[cut:]))
