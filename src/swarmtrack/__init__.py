"""Semantic communication and cooperative tracking control for agent swarms.

A discrete-time simulator and library for leader/follower swarms over
random MIMO fading channels: closed-form channel-aware communication and
control decisions, drift-bound analysis, a sufficient stability test, and
periodic/state-triggered PID and static Riccati baselines.

Every public name lives in one module and is imported from it, e.g.
``from swarmtrack import sim`` then ``sim.run_episode(config)``.
"""

__version__ = "0.1.0"

from . import baselines, channel, linalg, policy, sim, stability, swarm

__all__ = ["baselines", "channel", "linalg", "policy", "sim", "stability",
           "swarm"]
