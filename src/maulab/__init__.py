"""Multi-unit sealed-bid auction laboratory with reinforcement-learning bidders."""

from maulab.config import ScenarioConfig, ConfigError
from maulab.auction import clear_dp, clear_gsp, clear_up, efficiency_ratio
from maulab.env import AuctionEnv, reward

__all__ = [
    "ScenarioConfig",
    "ConfigError",
    "clear_dp",
    "clear_gsp",
    "clear_up",
    "efficiency_ratio",
    "AuctionEnv",
    "reward",
]

__version__ = "0.1.0"
