"""The agent-state codec: every constructor hyperparameter and counter and
every learned array survive a checkpoint, and a checkpoint resumes a run."""

import copy
import tempfile
from operator import attrgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maulab.agents.base import agent_class, check_overrides, decay_for, make_agent
from maulab.config import LEARNERS, ScenarioConfig
from maulab.harness import load_agent, pretrain, run, save_agent, start, tournament
from maulab.nn import MlpParams

from columns import session_columns

_frac = st.floats(0.0, 1.0)
_lr = st.floats(1e-6, 0.1)
_hidden = st.lists(st.integers(1, 8), min_size=1, max_size=3).map(tuple)
# A valid range for every constructor parameter of each learner; a function
# gives the range from the parameters drawn before it.
HYPERPARAMETERS = {
    "ql": {"value_bins": st.integers(2, 20), "alpha": _frac, "eps_max": _frac, "decay_rate": _frac},
    "vpg": {"value_bins": st.integers(2, 20), "alpha": _frac},
    "dqn": {
        "hidden": _hidden, "batch_size": st.integers(1, 512), "lr": _lr, "warmup": st.integers(0, 10**4),
        "eps_max": _frac, "decay_rate": _frac,
        # a buffer that cannot hold the warm-up would never train: DQN rejects it
        "buffer_capacity": lambda drawn: st.integers(max(drawn["warmup"], drawn["batch_size"]), 10**6),
    },
    "dpn": {"hidden": _hidden, "batch_size": st.integers(1, 512), "lr": _lr, "entropy_coef": _frac},
    "a2c": {
        "hidden": _hidden, "batch_size": st.integers(1, 512), "actor_lr": _lr, "critic_lr": _lr,
        "entropy_coef": _frac,
    },
    "ppo": {
        "hidden": _hidden, "rollout": st.integers(1, 4096), "epochs": st.integers(1, 20),
        "minibatch": st.integers(1, 512), "eps_clip": st.floats(0.01, 0.99), "value_weight": st.floats(0.0, 2.0),
        "entropy_coef": _frac, "actor_lr": _lr, "critic_lr": _lr,
    },
}


def _counters(agent) -> dict:
    meta, _ = agent.checkpoint_payload()
    return {key: meta[key] for key in (path.replace(".", "_") for path in agent.counters)}


@pytest.mark.parametrize("algo", LEARNERS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_checkpoint_round_trip(algo, data):
    assert set(HYPERPARAMETERS[algo]) == set(agent_class(algo).defaults)
    overrides = {}
    for name, s in HYPERPARAMETERS[algo].items():
        overrides[name] = data.draw(s(overrides) if callable(s) else s, label=name)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    config = ScenarioConfig(episodes=50)
    agent = make_agent(algo, config, np.random.default_rng(seed), **overrides)
    assert agent.hyperparameters() == overrides
    fill = np.random.default_rng(seed)
    for a in agent.state_arrays().values():
        a[...] = fill.normal(size=a.shape)
    for path in agent.counters:
        owner, _, leaf = path.rpartition(".")
        setattr(attrgetter(owner)(agent) if owner else agent, leaf, data.draw(st.integers(0, 10**9), label=path))

    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.ckpt", Path(tmp) / "b.ckpt"
        save_agent(agent, first)
        clone = load_agent(first, config, np.random.default_rng(seed + 1))
        assert clone.hyperparameters() == agent.hyperparameters()
        assert _counters(clone) == _counters(agent)
        want, got = agent.state_arrays(), clone.state_arrays()
        assert list(got) == list(want)
        for name in want:
            assert np.array_equal(got[name], want[name]), name
        save_agent(clone, second)
        assert second.read_bytes() == first.read_bytes()


# Overrides that put an update boundary within a few episodes, and N on one.
# dqn is left out until its replay ring is saved: a resumed DQN starts with
# an empty buffer, so it samples differently from an uninterrupted one.
RESUME = {
    "ql": ({}, 12),
    "vpg": ({}, 12),
    "a2c": ({"hidden": (8, 8)}, 10),
    "dpn": ({"hidden": (8, 8), "batch_size": 8}, 16),
    "ppo": ({"hidden": (8, 8), "rollout": 16, "epochs": 2, "minibatch": 8}, 32),
}


@pytest.mark.parametrize("algo", sorted(RESUME))
def test_resume_at_update_boundary_equals_uninterrupted_run(tmp_path, algo):
    overrides, n = RESUME[algo]
    m = 2 * n + 3
    session = pretrain(algo, "dp", 4, n + m, 4, overrides=overrides)
    config = session.scenario

    def bids(ep):
        return list(zip(*(ep[c].tolist() for c in ("agent_id", "bid1", "bid2", "reward_total"))))

    env, agents = start(session)
    whole = bids(session_columns(session, env, agents, n + m)[0])

    env, resumed = start(session)
    head = bids(session_columns(session, env, resumed, n)[0])
    save_agent(resumed[0], tmp_path / "mid.ckpt")
    learner = load_agent(tmp_path / "mid.ckpt", config, np.random.default_rng())
    learner.rng.bit_generator.state = resumed[0].rng.bit_generator.state
    resumed[0] = learner
    tail = bids(session_columns(session, env, resumed, m)[0])

    assert head + tail == whole
    assert resumed[0].hyperparameters() == agents[0].hyperparameters()
    assert _counters(resumed[0]) == _counters(agents[0])
    want, got = agents[0].state_arrays(), resumed[0].state_arrays()
    assert list(got) == list(want)
    for name in want:
        assert np.array_equal(got[name], want[name]), name


# Each override changes how often the learner updates; `steps` is the update
# counter after a 70-episode pretrain and a 70-episode learning tournament,
# each starting a fresh rollout or replay buffer.
OVERRIDES = {
    "a2c": ({"batch_size": 7, "actor_lr": 0.01}, "opt_actor_step", 10 + 10),
    "ppo": ({"rollout": 64, "eps_clip": 0.1}, "opt_actor_step", 10 + 10),
    "dqn": ({"warmup": 10, "buffer_capacity": 99}, "train_steps", 7 + 7),
    "dpn": ({"batch_size": 9, "lr": 0.01}, "opt_step", 7 + 7),
}


@pytest.mark.parametrize("algo", sorted(OVERRIDES))
def test_overrides_survive_checkpoints_and_drive_learning_tournament(tmp_path, algo):
    overrides, counter, steps = OVERRIDES[algo]
    ckpt = run(pretrain(algo, "dp", 4, 70, 1, overrides=overrides), tmp_path / "pre") / f"{algo}.ckpt"
    loaded = load_agent(ckpt, ScenarioConfig(), np.random.default_rng(0))
    assert {k: loaded.hyperparameters()[k] for k in overrides} == overrides

    run_dir = run(tournament("dp", 4, {algo: str(ckpt)}, 70, 2), tmp_path / "tour")
    out = load_agent(run_dir / f"{algo}_{LEARNERS.index(algo) + 1}.ckpt", ScenarioConfig(), np.random.default_rng(0))
    assert {k: out.hyperparameters()[k] for k in overrides} == overrides
    assert _counters(out)[counter] == steps


# Small enough that an 8-episode run ends in an update.
SMALL = {
    "dqn": {"warmup": 4, "batch_size": 4},
    "dpn": {"batch_size": 8},
    "a2c": {"batch_size": 8},
    "ppo": {"rollout": 8, "minibatch": 4},
}


@pytest.mark.parametrize("algo", sorted(SMALL))
def test_deep_copy_of_an_agent_learns_as_the_agent_does(algo):
    config = ScenarioConfig(episodes=100)
    obs = np.repeat(np.random.default_rng(6).uniform(0, 1, size=(8, 1)), 2, axis=1)
    rewards = np.random.default_rng(7).normal(size=8)
    agent = make_agent(algo, config, np.random.default_rng(5), hidden=(8, 8), **SMALL[algo])
    twin = copy.deepcopy(agent)
    levels = agent.act(obs)
    assert np.array_equal(twin.act(obs), levels)  # the copy draws what the agent drew
    for a in (agent, twin):
        a.observe(obs, levels, rewards)
    (meta_a, arrays_a), (meta_b, arrays_b) = agent.checkpoint_payload(), twin.checkpoint_payload()
    assert meta_a == meta_b
    assert meta_a["train_steps" if algo == "dqn" else "opt_step" if algo == "dpn" else "opt_actor_step"] > 0
    assert arrays_a.keys() == arrays_b.keys()
    assert all(np.array_equal(arrays_a[name], arrays_b[name]) for name in arrays_a)
    nets = [net for net in vars(twin).values() if isinstance(net, MlpParams)]
    assert nets
    for net in nets:
        net.weights[0][0, 0] = 123.0
        assert 123.0 in net.vec


# Every learner's default hyperparameters, by hand; decay_rate None resolves
# to decay_for(episodes).
DEFAULTS = {
    "ql": {"value_bins": 11, "alpha": 0.1, "eps_max": 1.0, "decay_rate": None},
    "vpg": {"value_bins": 11, "alpha": 0.2},
    "dqn": {
        "hidden": (64, 64), "buffer_capacity": 50_000, "batch_size": 64, "lr": 1e-4, "warmup": 1000,
        "eps_max": 1.0, "decay_rate": None,
    },
    "dpn": {"hidden": (64, 64), "batch_size": 256, "lr": 3e-4, "entropy_coef": 0.01},
    "a2c": {"hidden": (64, 64), "batch_size": 5, "actor_lr": 7e-4, "critic_lr": 7e-4, "entropy_coef": 0.01},
    "ppo": {
        "hidden": (64, 64), "rollout": 512, "epochs": 10, "minibatch": 64, "eps_clip": 0.2, "value_weight": 0.5,
        "entropy_coef": 0.01, "actor_lr": 1e-3, "critic_lr": 1e-3,
    },
}


@pytest.mark.parametrize("algo", LEARNERS)
def test_default_hyperparameters_are_pinned(algo):
    check_overrides(algo, DEFAULTS[algo])
    agent = make_agent(algo, ScenarioConfig(episodes=2048), np.random.default_rng(0))
    want = {name: decay_for(2048) if name == "decay_rate" else v for name, v in DEFAULTS[algo].items()}
    assert agent.hyperparameters() == want


@pytest.mark.parametrize("algo", ("random", *LEARNERS))
def test_an_unknown_hyperparameter_is_a_type_error_naming_it(algo):
    with pytest.raises(TypeError, match="not_a_hyperparameter"):
        agent_class(algo)(ScenarioConfig(), np.random.default_rng(0), not_a_hyperparameter=1)


@pytest.mark.parametrize("algo", ("dqn", "dpn", "a2c", "ppo"))
def test_a_hidden_list_is_kept_and_saved_as_its_tuple(tmp_path, algo):
    """A config file gives `hidden` as a JSON list."""
    agents = {type(h): make_agent(algo, ScenarioConfig(), np.random.default_rng(3), hidden=h) for h in ([8, 4], (8, 4))}
    assert all(a.hidden == (8, 4) and type(a.hidden) is tuple for a in agents.values())
    assert agents[list].checkpoint_payload()[0]["hidden"] == (8, 4)
    for kind, agent in agents.items():
        save_agent(agent, tmp_path / f"{kind.__name__}.ckpt")
    assert (tmp_path / "list.ckpt").read_bytes() == (tmp_path / "tuple.ckpt").read_bytes()
