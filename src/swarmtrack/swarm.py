"""Swarm description and plant/target dynamics.

A swarm is M follower agents with d internal states each. The global plant
state x stacks the per-agent states; it evolves as

    x(t+1) = A x(t) + sum_m Bhat_m uhat_m(t) + w(t)

where A is assembled from per-agent internal and coupling blocks and
Bhat_m places the agent's actuation matrix at block row m. The target
r evolves as r(t+1) = G r(t). The tracking error e = x - r and its cost
||e||^2 are computed here too. States are plain arrays, and the plant
noise is built from standard normals the caller draws.
"""

import json
from dataclasses import dataclass, field, fields

import numpy as np

from . import _checks


@dataclass(frozen=True)
class SwarmTopology:
    """Static system matrices for one swarm instance.

    a_internal[m] is the d x d internal block of agent m, couplings maps
    (m, n) index pairs (0-based, m != n) to d x d coupling blocks (stored
    with Python int keys and float array blocks), b_actuation[m] is the
    d x n_rx actuation block of agent m, w_noise[m] its d x d plant-noise
    covariance and g_target the (d*M) x (d*M) target transition. The four
    counts are integers >= 1 (a bool is not a count).
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
    a_global: np.ndarray = field(init=False)    # assembled in __post_init__
    noise_root: np.ndarray = field(init=False)  # (M, d, d), __post_init__

    def __post_init__(self):
        self._validate()
        d, m_count = self.state_dim, self.m_agents
        a = np.zeros((d * m_count, d * m_count))
        for m in range(m_count):
            a[m * d:(m + 1) * d, m * d:(m + 1) * d] = self.a_internal[m]
        for (m, n), block in self.couplings.items():
            a[m * d:(m + 1) * d, n * d:(n + 1) * d] = block
        object.__setattr__(self, "a_global", a)
        # Symmetric square root of each W_m through its eigendecomposition,
        # so singular covariances work.
        vals, vecs = np.linalg.eigh(self.w_noise)
        root = (vecs * np.sqrt(np.clip(vals, 0.0, None))[:, None, :]) \
            @ vecs.transpose(0, 2, 1)
        object.__setattr__(self, "noise_root", root)

    def _validate(self):
        for name in (f.name for f in fields(self) if f.type is int):
            object.__setattr__(self, name, _checks.count(name, getattr(self, name)))
        m_count, d = self.m_agents, self.state_dim
        dm = d * m_count
        for name, arr, shape in (("a_internal", self.a_internal, (m_count, d, d)),
                                 ("b_actuation", self.b_actuation,
                                  (m_count, d, self.n_rx)),
                                 ("w_noise", self.w_noise, (m_count, d, d)),
                                 ("g_target", self.g_target, (dm, dm))):
            if np.shape(arr) != shape:
                raise ValueError(f"{name} must be {shape}, got {np.shape(arr)}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite entries")
        couplings = {}
        for key, block in self.couplings.items():
            if not (isinstance(key, tuple) and len(key) == 2
                    and all(_checks.is_count(i, 0) and i < m_count for i in key)
                    and key[0] != key[1]):
                raise ValueError(f"coupling key {key!r} must be a pair (m, n) of "
                                 f"agent indices in [0, {m_count}) with m != n; "
                                 f"internal blocks go in a_internal")
            if np.shape(block) != (d, d) or not np.all(np.isfinite(block)):
                raise ValueError(f"coupling block {key!r} must be a finite "
                                 f"{(d, d)} matrix, got shape {np.shape(block)}")
            couplings[(int(key[0]), int(key[1]))] = np.asarray(block, dtype=float)
        object.__setattr__(self, "couplings", couplings)
        # every agent's np.allclose(w, w.T, atol=1e-12) and eigenvalue test
        # at once; the first failing agent is reported, symmetry first
        w = np.asarray(self.w_noise)
        asymmetric = ~np.isclose(w, w.swapaxes(-1, -2), atol=1e-12).all(axis=(1, 2))
        indefinite = np.linalg.eigvalsh(w).min(axis=1) < -1e-12
        failing = np.flatnonzero(asymmetric | indefinite)
        if failing.size:
            m = failing[0]
            rule = "symmetric" if asymmetric[m] else "positive semidefinite"
            raise ValueError(f"w_noise[{m}] is not {rule}")

    @property
    def global_dim(self) -> int:
        return self.state_dim * self.m_agents

    def w_global_trace(self) -> float:
        return float(sum(np.trace(self.w_noise[m]) for m in range(self.m_agents)))


# A topology document holds SwarmTopology's init fields, in declaration order.
_DOCUMENT_FIELDS = tuple(f for f in fields(SwarmTopology) if f.init)


@dataclass(frozen=True)
class SwarmState:
    """Global plant state x and target state r."""

    x: np.ndarray
    r: np.ndarray

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
    m_agents = _checks.count("m_agents", m_agents)
    state_dim = _checks.count("state_dim", state_dim)
    n_tx = _checks.count("n_tx", n_tx)
    n_rx = _checks.count("n_rx", n_rx)
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


def step_swarm(topology: SwarmTopology, x: np.ndarray, r: np.ndarray,
               received: np.ndarray, noise: np.ndarray):
    """One slot of the whole system: (A x + sum_m Bhat_m uhat_m + noise, G r).

    x and r are the (dM,) plant and target state arrays, received the
    (M, n_rx) signals after the channel, one row per agent, and noise the
    stacked (dM,) plant noise. received and noise may carry the same
    leading axes (one per draw); the next plant state then carries them
    too. The plant sums B received, then A x, then the noise; the target
    steps through step_target.
    """
    lead = received.shape[:-2]
    if received.shape != lead + (topology.m_agents, topology.n_rx):
        raise ValueError(f"received controls must have shape (..., "
                         f"{topology.m_agents}, {topology.n_rx}), got {received.shape}")
    if noise.shape != lead + (topology.global_dim,):
        raise ValueError(f"noise must have shape {lead + (topology.global_dim,)}, "
                         f"got {noise.shape}")
    x_next = np.matmul(topology.b_actuation, received[..., None]).reshape(noise.shape)
    x_next += topology.a_global @ x
    x_next += noise
    return x_next, step_target(topology, r)


def step_target(topology: SwarmTopology, r) -> np.ndarray:
    """Next target state r(t+1) = G r(t) as a vector."""
    return topology.g_target @ r


def tracking_error(x, r):
    """Error vector e = x - r and its scalar cost ||e||^2, as (e, cost)."""
    e = x - r
    return e, float(e @ e)


def draw_plant_noise(topology: SwarmTopology, z) -> np.ndarray:
    """Stacked plant noise, per agent N(0, W_m), from standard normals z.

    z has shape (..., M, d); each agent's d normals map through its square
    root topology.noise_root[m]. Leading axes are batch axes (one per slot
    or draw), and each (M, d) slice gives one (dM,) noise vector.
    """
    z = np.asarray(z, dtype=float)
    noise = np.matmul(topology.noise_root, z[..., None])
    return noise.reshape(z.shape[:-2] + (topology.global_dim,))


def topology_to_json(topology: SwarmTopology) -> str:
    """Serialize a topology to JSON: its init fields, in declaration order.

    The four counts are JSON numbers, fields annotated np.ndarray are
    row-major nested lists and couplings a list of {"m", "n", "block"}
    entries sorted by pair, so a new init field of SwarmTopology is a new
    key of the document.
    """
    doc = {f.name: getattr(topology, f.name).tolist() if f.type is np.ndarray
           else getattr(topology, f.name) for f in _DOCUMENT_FIELDS}
    doc["couplings"] = [{"m": m, "n": n, "block": block.tolist()}
                        for (m, n), block in sorted(topology.couplings.items())]
    return json.dumps(doc, indent=2)


def _check_keys(kind: str, doc, names):
    if not isinstance(doc, dict):
        raise ValueError(f"{kind} must be a JSON object, got {type(doc).__name__}")
    for problem, keys in (("unknown", set(doc) - set(names)),
                          ("missing", set(names) - set(doc))):
        if keys:
            raise ValueError(f"{problem} {kind} keys: {sorted(keys)}")


def topology_from_json(text: str) -> SwarmTopology:
    """Topology of a topology_to_json document.

    A document or coupling entry that is not a JSON object, unknown or
    missing keys in either, couplings that are not a list and a coupling
    pair listed twice raise a ValueError that names them.
    """
    doc = json.loads(text)
    _check_keys("topology", doc, [f.name for f in _DOCUMENT_FIELDS])
    if not isinstance(doc["couplings"], list):
        raise ValueError(f"couplings must be a list, got "
                         f"{type(doc['couplings']).__name__}")
    args = {f.name: np.array(doc[f.name], dtype=float)
            if f.type is np.ndarray else doc[f.name] for f in _DOCUMENT_FIELDS}
    couplings = args["couplings"] = {}
    for c in doc["couplings"]:
        _check_keys("coupling", c, ("m", "n", "block"))
        pair = (c["m"], c["n"])
        if pair in couplings:
            raise ValueError(f"coupling {pair} is listed twice")
        couplings[pair] = np.array(c["block"], dtype=float)
    return SwarmTopology(**args)
