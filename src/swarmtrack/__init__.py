"""Semantic communication and cooperative tracking control for agent swarms.

A discrete-time simulator and library for leader/follower swarms over
random MIMO fading channels: closed-form channel-aware communication and
control decisions, drift-bound analysis, a sufficient stability test, and
periodic/state-triggered PID and static Riccati baselines.
"""

__version__ = "0.1.0"

from .channel import (deliver_control, draw_channels, estimate_channel,
                      pilot_estimate, receive_control)
from .linalg import SvdFactors, pseudo_inverse, spectral_norm, svd
from .policy import (ChannelCertificate, ChannelFactors, ControlDecision,
                     DriftConstants, PolicyParams, RankOneTerms,
                     certified_terms, certify_channels,
                     compute_drift_constants, control_signal, factorize_agent,
                     objective, objective_gradient, rank_one_terms,
                     solve_agent)
from .stability import (check_stability_condition, compute_masks, drift_bound,
                        empirical_drift, stability_report)
from .baselines import (DareConvergenceError, GareGain, PidGains,
                        TriggerConfig, default_trigger_config, periodic_trigger,
                        pid_control, solve_dare, state_trigger, tune_pid)
from .sim import Metrics, SimConfig, calibrate_gamma, run_episode, run_sweep
from .swarm import (SwarmState, SwarmTopology, advance,
                    build_ring_topology, plant_noise, step_swarm, step_target,
                    topology_from_json, topology_to_json, tracking_error)

__all__ = [
    "ChannelCertificate", "ChannelFactors", "ControlDecision",
    "DareConvergenceError", "DriftConstants", "GareGain", "Metrics", "PidGains",
    "PolicyParams", "RankOneTerms", "SimConfig", "SvdFactors", "SwarmState",
    "SwarmTopology", "TriggerConfig", "advance",
    "build_ring_topology",
    "calibrate_gamma", "certified_terms", "certify_channels",
    "check_stability_condition",
    "compute_drift_constants",
    "compute_masks", "control_signal", "default_trigger_config", "deliver_control",
    "draw_channels", "drift_bound", "empirical_drift", "estimate_channel",
    "factorize_agent", "objective", "objective_gradient", "periodic_trigger",
    "pid_control", "pilot_estimate", "plant_noise", "pseudo_inverse",
    "rank_one_terms", "receive_control",
    "run_episode", "run_sweep", "solve_agent", "solve_dare", "spectral_norm",
    "stability_report", "state_trigger", "step_swarm", "step_target", "svd",
    "topology_from_json", "topology_to_json", "tracking_error", "tune_pid",
]
