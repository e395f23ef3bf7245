# Importing the package loads every learner module, so that a profiler that imports
# it finds every agent class; `agent_class` otherwise imports them on first use.
from maulab.agents import actor_critic, policy, qlearn  # noqa: F401
