"""Random MIMO fading, pilot-based estimation and noisy control reception.

Each follower sees an n_rx x n_tx fading matrix H_m with i.i.d. standard
normal entries, redrawn every timeslot. The leader's control u_m reaches
agent m as

    uhat_m = delta_m * H_m @ u_m + v_m,      v_m ~ N(0, I)

where delta_m is the communication on/off bit. Channel state is estimated
from an orthogonal pilot sqrt(pilot_power) * I, so the least-squares
estimate is Hhat = Y / sqrt(pilot_power) with N(0, 1/pilot_power) errors.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelRealization:
    """True per-agent fading matrices, shape (M, n_rx, n_tx)."""

    h: np.ndarray

    @property
    def m_agents(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class ChannelEstimate:
    """Pilot-based per-agent channel estimates, shape (M, n_rx, n_tx)."""

    h_est: np.ndarray
    pilot_power: float


def draw_channels(rng, m_agents: int, n_rx: int, n_tx: int) -> ChannelRealization:
    """Fresh i.i.d. N(0, 1) fading draw for all agents."""
    return ChannelRealization(h=rng.normal(size=(m_agents, n_rx, n_tx)))


def estimate_channel(h, pilot_power: float, rng,
                     noise_scale: float = 1.0) -> ChannelEstimate:
    """Least-squares channel estimate from one pilot transmission.

    h may be a single (n_rx, n_tx) matrix or the stacked (M, n_rx, n_tx)
    realization. The pilot is sqrt(pilot_power) * I, so the estimate is
    the observation divided by sqrt(pilot_power) and the entrywise
    estimation error is N(0, noise_scale^2 / pilot_power). noise_scale
    exists for tests that force the pilot noise to zero.
    """
    if pilot_power <= 0:
        raise ValueError(f"pilot_power must be positive, got {pilot_power}")
    h = np.asarray(h, dtype=float)
    noise = noise_scale * rng.normal(size=h.shape)
    return ChannelEstimate(h_est=pilot_estimate(h, noise, pilot_power),
                           pilot_power=pilot_power)


def pilot_estimate(h, pilot_noise, pilot_power: float) -> np.ndarray:
    """Estimate H + N / sqrt(pilot_power) from an already drawn pilot noise N.

    Elementwise, so any stack of slots and agents is estimated at once
    with the values slot-by-slot estimate_channel calls would give.
    """
    return h + pilot_noise / np.sqrt(pilot_power)


def receive_control(deltas, h, u, rng, noise_scale: float = 1.0) -> np.ndarray:
    """Control signals as seen by the agents: delta * H @ u + v, v ~ N(0, I).

    Leading axes are batch axes: deltas (M,), h (M, n_rx, n_tx) and
    u (M, n_tx) give the (M, n_rx) received signals of a whole swarm, and a
    scalar delta with one (n_rx, n_tx) channel gives one agent's. The noise
    is one normal draw of shape (M, n_rx), the same values M single-agent
    calls would take in agent order. A silent agent receives v alone.
    """
    h = np.asarray(h, dtype=float)
    return deliver_control(deltas, h, u, noise_scale * rng.normal(size=h.shape[:-1]))


def deliver_control(deltas, h, u, v) -> np.ndarray:
    """delta * H @ u + v with an already drawn receiver noise v.

    Same batch axes as receive_control; v has the shape of the received
    signals.
    """
    u = np.asarray(u, dtype=float)
    sent = np.asarray(deltas, dtype=bool)[..., None]
    return np.where(sent, np.matmul(h, u[..., None])[..., 0], 0.0) + v
