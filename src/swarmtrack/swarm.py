"""Swarm description and plant/target dynamics.

A swarm is M follower agents with d internal states each. The global plant
state x stacks the per-agent states; it evolves as

    x(t+1) = A x(t) + sum_m Bhat_m uhat_m(t) + w(t)

where A is assembled from per-agent internal and coupling blocks and
Bhat_m places the agent's actuation matrix at block row m. The target
r evolves as r(t+1) = G r(t). The tracking error e = x - r and its cost
||e||^2 are computed here too.
"""

import json
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SwarmTopology:
    """Static system matrices for one swarm instance.

    a_internal[m] is the d x d internal block of agent m, couplings maps
    (m, n) index pairs (0-based, m != n) to d x d coupling blocks,
    b_actuation[m] is d x n_rx, w_noise[m] the d x d plant-noise covariance
    and g_target the (d*M) x (d*M) target transition.
    """

    m_agents: int
    state_dim: int
    n_tx: int
    n_rx: int
    a_internal: np.ndarray          # (M, d, d)
    couplings: dict                 # (m, n) -> (d, d)
    b_actuation: np.ndarray         # (M, d, n_rx)
    w_noise: np.ndarray             # (M, d, d)
    g_target: np.ndarray            # (dM, dM)
    a_global: np.ndarray = field(default=None)  # assembled in __post_init__
    noise_root: np.ndarray = field(default=None)  # (M, d, d), __post_init__

    def __post_init__(self):
        d, m_count = self.state_dim, self.m_agents
        a = np.zeros((d * m_count, d * m_count))
        for m in range(m_count):
            a[m * d:(m + 1) * d, m * d:(m + 1) * d] = self.a_internal[m]
        for (m, n), block in self.couplings.items():
            if m == n:
                raise ValueError("coupling blocks must have m != n; internal "
                                 "blocks go in a_internal")
            a[m * d:(m + 1) * d, n * d:(n + 1) * d] = block
        object.__setattr__(self, "a_global", a)
        self._validate()
        # Symmetric square root of each W_m through its eigendecomposition,
        # so singular covariances work.
        vals, vecs = np.linalg.eigh(self.w_noise)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) \
            @ vecs.transpose(0, 2, 1)
        object.__setattr__(self, "noise_root", root)

    def _validate(self):
        for name, arr in (("a_internal", self.a_internal),
                          ("b_actuation", self.b_actuation),
                          ("w_noise", self.w_noise),
                          ("g_target", self.g_target)):
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        dm = self.state_dim * self.m_agents
        if self.g_target.shape != (dm, dm):
            raise ValueError(f"g_target must be {(dm, dm)}, got {self.g_target.shape}")
        for m in range(self.m_agents):
            w = self.w_noise[m]
            if not np.allclose(w, w.T, atol=1e-12):
                raise ValueError(f"w_noise[{m}] is not symmetric")
            if np.linalg.eigvalsh(w).min() < -1e-12:
                raise ValueError(f"w_noise[{m}] is not positive semidefinite")

    @property
    def global_dim(self) -> int:
        return self.state_dim * self.m_agents

    def bhat(self, m: int) -> np.ndarray:
        """Global actuation matrix of agent m: B_m at block row m, zeros elsewhere."""
        out = np.zeros((self.global_dim, self.n_rx))
        d = self.state_dim
        out[m * d:(m + 1) * d, :] = self.b_actuation[m]
        return out

    def w_global_trace(self) -> float:
        return float(sum(np.trace(self.w_noise[m]) for m in range(self.m_agents)))


@dataclass(frozen=True)
class SwarmState:
    """Global plant state x, target state r and the timeslot index."""

    x: np.ndarray
    r: np.ndarray
    t: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.x).all() and np.isfinite(self.r).all()):
            raise ValueError("state contains non-finite entries")
        if self.x.shape != self.r.shape:
            raise ValueError("x and r must have the same shape")


def build_ring_topology(m_agents: int, state_dim: int = 9, n_tx: int = 4,
                        n_rx: int = 4, noise_scale: float = 1e-5,
                        seed: int = 0) -> SwarmTopology:
    """Random ring-coupled swarm: agent m couples to agent (m mod M) + 1.

    Internal and actuation blocks are i.i.d. standard normal from the
    seeded generator; the coupling block equals the internal block; plant
    noise is noise_scale * I per agent and the target transition is the
    identity. For M = 1 the ring degenerates to self-coupling, which is
    skipped (the internal block is not doubled).
    """
    if m_agents < 1:
        raise ValueError("m_agents must be >= 1")
    rng = np.random.default_rng(seed)
    a_internal = np.empty((m_agents, state_dim, state_dim))
    b_actuation = np.empty((m_agents, state_dim, n_rx))
    couplings = {}
    for m in range(m_agents):
        a_internal[m] = rng.normal(size=(state_dim, state_dim))
        b_actuation[m] = rng.normal(size=(state_dim, n_rx))
        n = (m + 1) % m_agents
        if n != m:
            couplings[(m, n)] = a_internal[m].copy()
    w_noise = np.array([noise_scale * np.eye(state_dim) for _ in range(m_agents)])
    g_target = np.eye(state_dim * m_agents)
    return SwarmTopology(m_agents=m_agents, state_dim=state_dim, n_tx=n_tx,
                         n_rx=n_rx, a_internal=a_internal, couplings=couplings,
                         b_actuation=b_actuation, w_noise=w_noise,
                         g_target=g_target)


def advance(topology: SwarmTopology, x: np.ndarray, r: np.ndarray,
            received: np.ndarray, noise: np.ndarray):
    """Plant and target of one slot as arrays: (A x + sum_m Bhat_m uhat_m + noise, G r).

    x and r are the (dM,) plant and target states, received the (M, n_rx)
    signals after the channel and noise the stacked (dM,) plant noise. No
    checks: step_swarm is the validating form, and the slot loop passes
    arrays it built itself.
    """
    x_next = topology.a_global @ x
    x_next += np.matmul(topology.b_actuation, received[..., None]).reshape(-1)
    x_next += noise
    return x_next, topology.g_target @ r


def step_swarm(topology: SwarmTopology, state: SwarmState,
               received_controls, noise_draw) -> SwarmState:
    """One slot of the whole system, returned as the next state.

    The plant steps as x(t+1) = A x + sum_m Bhat_m uhat_m + noise and the
    target as r(t+1) = G r (advance). received_controls holds the
    (M, n_rx) signals after the channel, one row per agent; noise_draw is
    the stacked global plant-noise vector.
    """
    received = np.asarray(received_controls, dtype=float)
    if received.shape != (topology.m_agents, topology.n_rx):
        raise ValueError(f"received controls must have shape "
                         f"{(topology.m_agents, topology.n_rx)}, got {received.shape}")
    noise = np.asarray(noise_draw, dtype=float)
    if noise.shape != (topology.global_dim,):
        raise ValueError(f"noise_draw must have shape {(topology.global_dim,)}")
    x_next, r_next = advance(topology, state.x, state.r, received, noise)
    return SwarmState(x=x_next, r=r_next, t=state.t + 1)


def step_target(topology: SwarmTopology, state: SwarmState) -> np.ndarray:
    """Next target state r(t+1) = G r(t) as a vector."""
    return topology.g_target @ state.r


def tracking_error(state: SwarmState):
    """Error vector e = x - r and its scalar cost ||e||^2, as (e, cost)."""
    e = state.x - state.r
    return e, float(e @ e)


def draw_plant_noise(topology: SwarmTopology, rng) -> np.ndarray:
    """Sample the stacked plant noise, per agent from N(0, W_m).

    One (M, d) draw from the generator's ziggurat normal sampler, agent by
    agent, mapped through the stacked square roots topology.noise_root.
    """
    return plant_noise(topology,
                       rng.normal(size=(topology.m_agents, topology.state_dim)))


def plant_noise(topology: SwarmTopology, z) -> np.ndarray:
    """Stacked plant noise from standard normals z of shape (..., M, d).

    Leading axes are batch axes (one per slot of a block); each (M, d)
    slice maps to the (dM,) vector draw_plant_noise gives for it.
    """
    z = np.asarray(z, dtype=float)
    noise = np.matmul(topology.noise_root, z[..., None])
    return noise.reshape(z.shape[:-2] + (topology.global_dim,))


def topology_to_json(topology: SwarmTopology) -> str:
    """Serialize a topology to JSON (matrices as row-major nested lists)."""
    doc = {
        "m_agents": topology.m_agents,
        "state_dim": topology.state_dim,
        "n_tx": topology.n_tx,
        "n_rx": topology.n_rx,
        "a_internal": topology.a_internal.tolist(),
        "couplings": [{"m": m, "n": n, "block": block.tolist()}
                      for (m, n), block in sorted(topology.couplings.items())],
        "b_actuation": topology.b_actuation.tolist(),
        "w_noise": topology.w_noise.tolist(),
        "g_target": topology.g_target.tolist(),
    }
    return json.dumps(doc, indent=2)


def topology_from_json(text: str) -> SwarmTopology:
    doc = json.loads(text)
    couplings = {(c["m"], c["n"]): np.array(c["block"], dtype=float)
                 for c in doc["couplings"]}
    return SwarmTopology(
        m_agents=doc["m_agents"], state_dim=doc["state_dim"],
        n_tx=doc["n_tx"], n_rx=doc["n_rx"],
        a_internal=np.array(doc["a_internal"], dtype=float),
        couplings=couplings,
        b_actuation=np.array(doc["b_actuation"], dtype=float),
        w_noise=np.array(doc["w_noise"], dtype=float),
        g_target=np.array(doc["g_target"], dtype=float),
    )
