"""Random MIMO fading, pilot-based estimation and noisy control reception.

Each follower sees an n_rx x n_tx fading matrix H_m with i.i.d. standard
normal entries, redrawn every timeslot. The leader's control u_m reaches
agent m as

    uhat_m = delta_m * H_m @ u_m + v_m,      v_m ~ N(0, I)

where delta_m is the communication on/off bit. Channel state is estimated
from an orthogonal pilot sqrt(pilot_power) * I, so the least-squares
estimate is Hhat = Y / sqrt(pilot_power) with N(0, 1/pilot_power) errors.

Estimation and reception take their standard normal draws as arrays, so
the caller decides how they are drawn: one slot at a time or a block of
slots at once, along any leading axes.

receive_control is the channel equation itself. The slot loop does not
call it: the plant sees uhat_m only through B_m uhat_m, so
swarm.block_inputs forms each slot's B_m H_m and B_m v_m once per block
and swarm.step_swarm applies B_m H_m to u_m, a silent agent's u_m being
0.0, which equals B_m receive_control(...) up to rounding.
"""

import numpy as np

from . import _checks


def draw_channels(rng, m_agents: int, n_rx: int, n_tx: int) -> np.ndarray:
    """Fresh i.i.d. N(0, 1) fading draw for all agents, shape (M, n_rx, n_tx)."""
    return rng.normal(size=(m_agents, n_rx, n_tx))


def estimate_channel(h, pilot_noise, pilot_power: float) -> np.ndarray:
    """Least-squares channel estimate H + N / sqrt(pilot_power) from one pilot.

    pilot_noise N holds the standard normals of the pilot observation, one
    per entry of h. The pilot is sqrt(pilot_power) * I, so the estimate is
    the observation divided by sqrt(pilot_power) and the entrywise
    estimation error is N(0, 1 / pilot_power). Elementwise, so any stack
    of slots and agents is estimated at once.
    """
    _checks.real("pilot_power", pilot_power, least=0, strict=True)
    return h + pilot_noise / np.sqrt(pilot_power)


def receive_control(deltas, h, u, v) -> np.ndarray:
    """Control signals as seen by the agents: delta * H @ u + v.

    Leading axes are batch axes: deltas (M,), h (M, n_rx, n_tx) and
    u (M, n_tx) give the (M, n_rx) received signals of a whole swarm, and a
    scalar delta with one (n_rx, n_tx) channel gives one agent's. v is the
    receiver noise, N(0, I) per agent; it may carry further leading axes
    (one per noise draw), which the result then carries too. A silent
    agent receives v alone.
    """
    u = np.asarray(u, dtype=float)
    sent = np.asarray(deltas, dtype=bool)[..., None]
    return np.where(sent, np.matmul(h, u[..., None])[..., 0], 0.0) + v
