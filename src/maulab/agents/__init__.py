from maulab.agents.base import (
    Agent,
    RandomAgent,
    ReplayBuffer,
    epsilon_at,
    make_agent,
)
from maulab.agents.qlearn import DqnAgent, QLearningAgent, q_update
from maulab.agents.policy import DpgAgent, VpgAgent, vpg_update
from maulab.agents.actor_critic import A2cAgent, PpoAgent, ppo_clip_objective

__all__ = [
    "Agent",
    "RandomAgent",
    "ReplayBuffer",
    "epsilon_at",
    "make_agent",
    "QLearningAgent",
    "DqnAgent",
    "q_update",
    "VpgAgent",
    "DpgAgent",
    "vpg_update",
    "A2cAgent",
    "PpoAgent",
    "ppo_clip_objective",
]
