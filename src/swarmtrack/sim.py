"""Closed-loop episodes, transmit-power calibration and experiment sweeps.

One episode runs the per-timeslot loop: the leader observes the plant and
target states, every agent's channel is drawn and pilot-estimated, the
active scheme picks per-agent communication bits and control signals,
the signals pass through the true fading channel, and the plant and target
step forward. Costs, transmit power and communication rate accumulate
into Metrics; a cost above the overflow guard ends the episode early with
the diverged flag set.

Randomness is counter-based: every (seed, stream, timeslot) triple keys an
independent Philox generator, so all schemes consume identical channel and
noise draws for a given seed (common random numbers) and adding schemes or
reordering work never perturbs existing streams. It also lets an episode
draw a whole block of slots ahead and do their state-independent work
(pilot estimates, plant noise, the decision's channel factorizations)
once per block, with the values the slots would have drawn one by one.
"""

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import baselines, channel, policy, swarm

SCHEMES = ("semantic", "baseline1", "baseline2", "baseline3")
AXES = ("M", "N_t", "power_dbw")

OVERFLOW_GUARD = 1e30
DIVERGENCE_PENALTY = 1e30

# Stream tags for counter-based generators; slot index lives in the low bits.
_STREAM_CHANNEL = 1
_STREAM_PILOT = 2
_STREAM_RX = 3
_STREAM_PLANT = 4
_TAG_PROBE = 0xCA11

# Slots whose random streams are drawn, and whose channels are estimated
# and factored, together; the last block of an episode may be shorter.
_SLOT_BLOCK = 32

# Default gamma bracket of calibrate_gamma; a result on an edge is clamped.
GAMMA_BRACKET = (1e-6, 1e6)

# Largest seed: slot keys hold the seed in 64 bits, so a wider one would
# share every stream with the seed 2**64 below it.
MAX_SEED = 2 ** 64 - 1


@dataclass(frozen=True)
class SimConfig:
    """Flat experiment configuration; JSON documents mirror these fields."""

    m_agents: int = 4
    state_dim: int = 9
    n_tx: int = 4
    n_rx: int = 4
    horizon: int = 10000
    scheme: str = "semantic"
    p_on: float = 1.0
    gamma: float = 1.0
    pilot_power: float = 1e4
    noise_scale: float = 1e-5
    use_estimated_csi: bool = True
    seed: int = 0
    x0_value: float = 1.0
    r0_value: float = 100.0
    topology_path: Optional[str] = None

    def __post_init__(self):
        for name in ("m_agents", "state_dim", "n_tx", "n_rx", "horizon", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        for name in ("m_agents", "state_dim", "n_tx", "n_rx"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; valid: {SCHEMES}")
        for name in ("p_on", "gamma"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value) or value < 0):
                raise ValueError(f"{name} must be >= 0 and finite, got {value!r}")
        for name in ("pilot_power", "noise_scale", "x0_value", "r0_value"):
            value = getattr(self, name)
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise ValueError(f"{name} must be a finite number, got {value!r}")
        if self.pilot_power <= 0:
            raise ValueError("pilot_power must be > 0")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be >= 0")

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(doc) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**doc)

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


@dataclass
class Metrics:
    """Per-episode results; trajectories cover the recorded slots only.

    decision_log (with record_decisions) is (deltas, controls): the bits
    (n, M) and transmit vectors (n, M, N_t) of the n slots that took a
    decision, one row per entry of tx_power_trajectory.
    """

    scheme: str
    seed: int
    avg_cost: float
    avg_tx_power: float
    comm_rate: float
    diverged: bool
    n_slots: int
    cost_trajectory: np.ndarray
    tx_power_trajectory: np.ndarray
    gamma: float
    decision_log: Optional[tuple] = None


_SLOT_GENERATORS: dict = {}
_ZERO_WORDS = np.zeros(4, dtype=np.uint64)


def _slot_rng(seed: int, stream: int, slot: int):
    """Generator of one (seed, stream, slot) triple.

    The draws are those of a fresh Generator(Philox(key=(seed,
    stream << 48 | slot))). One generator per stream tag is re-keyed in
    place (counter 0, empty output buffer) instead of built anew, from one
    state document per stream of which only the key changes; the returned
    generator is valid until the next call for the same stream, so consume
    it before asking for the stream's next slot.
    """
    entry = _SLOT_GENERATORS.get(stream)
    if entry is None:
        inner = {"counter": _ZERO_WORDS, "key": None}
        doc = {"bit_generator": "Philox", "state": inner, "buffer": _ZERO_WORDS,
               "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        entry = _SLOT_GENERATORS[stream] = (
            np.random.Generator(np.random.Philox()), doc, inner,
            (stream & 0xFFFF) << 48)
    gen, doc, inner, tag = entry
    inner["key"] = (seed & 0xFFFFFFFFFFFFFFFF, tag | (slot & 0xFFFFFFFFFFFF))
    gen.bit_generator.state = doc
    return gen


def _draw_block(seed: int, stream: int, t0: int, out: np.ndarray) -> np.ndarray:
    """Fill out[j] with the i.i.d. N(0, 1) draws of slot t0 + j of a stream.

    Each slot's draws are those of its own (seed, stream, slot) generator,
    so a block holds exactly what the slots would draw one by one.
    """
    for j, slot_out in enumerate(out):
        _slot_rng(seed, stream, t0 + j).standard_normal(out=slot_out)
    return out


def channel_draws(seed: int, topology: swarm.SwarmTopology, n_slots: int) -> np.ndarray:
    """True channels (n_slots, M, N_r, N_t) of an episode's slots 0 .. n_slots - 1."""
    return _draw_block(seed, _STREAM_CHANNEL, 0,
                       np.empty((n_slots, topology.m_agents, topology.n_rx,
                                 topology.n_tx)))


def derive_seed(base_seed: int, tag: int, index: int) -> int:
    """Deterministic child seed for probe/auxiliary runs."""
    ss = np.random.SeedSequence(entropy=[base_seed & 0xFFFFFFFFFFFFFFFF, tag, index])
    return int(ss.generate_state(1, np.uint64)[0])


def build_topology(config: SimConfig) -> swarm.SwarmTopology:
    """Topology from the config: a pinned JSON file if given, else a seeded ring."""
    if config.topology_path:
        with open(config.topology_path, "r", encoding="utf-8") as fh:
            topo = swarm.topology_from_json(fh.read())
        _check_dims(config, topo)
        return topo
    return swarm.build_ring_topology(config.m_agents, config.state_dim,
                                     config.n_tx, config.n_rx,
                                     config.noise_scale, config.seed)


def _check_dims(config: SimConfig, topology: swarm.SwarmTopology):
    if (topology.m_agents, topology.state_dim, topology.n_tx, topology.n_rx) != \
            (config.m_agents, config.state_dim, config.n_tx, config.n_rx):
        raise ValueError(
            f"topology dims (M={topology.m_agents}, d={topology.state_dim}, "
            f"N_t={topology.n_tx}, N_r={topology.n_rx}) do not match config "
            f"(M={config.m_agents}, d={config.state_dim}, N_t={config.n_tx}, "
            f"N_r={config.n_rx})")


_TUNE_CACHE: dict = {}
_TUNE_SCALE_DECAY = 0.75
_TUNE_MAX_ATTEMPTS = 40


def _topology_fingerprint(topology: swarm.SwarmTopology) -> bytes:
    return (topology.a_global.tobytes() + topology.b_actuation.tobytes()
            + bytes([topology.n_tx]))


def _regularization_scales(topology: swarm.SwarmTopology):
    yield 1.0
    radius = float(np.max(np.abs(np.linalg.eigvals(topology.a_global))))
    base = 0.9 / radius if radius > 0 else 1.0
    for j in range(_TUNE_MAX_ATTEMPTS):
        yield base * _TUNE_SCALE_DECAY ** j


def tuned_gains(topology: swarm.SwarmTopology) -> baselines.PidGains:
    """PID gains, regularizing A when the raw solve diverges.

    Random swarms are frequently unstabilizable under the static all-ones
    channel; the Riccati iteration then diverges and tuning retries with a
    progressively scaled-down plant matrix. The scale used is recorded on
    the returned gains.
    """
    key = _topology_fingerprint(topology)
    hit = _TUNE_CACHE.get(key)
    if hit is not None:
        return hit
    last_err = None
    for scale in _regularization_scales(topology):
        try:
            result = baselines.tune_pid(topology, a_scale=scale)
        except baselines.DareConvergenceError as err:
            last_err = err
            continue
        if len(_TUNE_CACHE) > 64:
            _TUNE_CACHE.clear()
        _TUNE_CACHE[key] = result
        return result
    raise last_err


_DRIFT_CACHE: dict = {}


def drift_constants(topology: swarm.SwarmTopology) -> policy.DriftConstants:
    """Pi and alpha of the topology, computed once per (A, G) pair."""
    key = topology.a_global.tobytes() + topology.g_target.tobytes()
    hit = _DRIFT_CACHE.get(key)
    if hit is None:
        if len(_DRIFT_CACHE) > 64:
            _DRIFT_CACHE.clear()
        hit = _DRIFT_CACHE[key] = policy.compute_drift_constants(
            topology.a_global, topology.g_target)
    return hit


def _semantic_step(config: SimConfig, topology: swarm.SwarmTopology):
    """Closed-form channel-aware decision of every agent.

    Per block of slots the channel part of the certified closed form
    (policy.certify_channels), split into its per-slot certificates; per
    slot its error part, or where it declines one stacked factorization
    and one batched rank-one solve; solve_agent then applies each agent's
    rule to its slice.
    """
    params = policy.PolicyParams(p_on=config.p_on, gamma=config.gamma)
    constants = drift_constants(topology)
    b = topology.b_actuation
    agents = range(topology.m_agents)

    def start_block(h, h_est):
        h_used = h_est if config.use_estimated_csi else h
        certs = policy.certify_channels(b, h_used)
        slot_certs = ([None] * len(h_used) if certs is None
                      else [certs.slot(i) for i in range(len(h_used))])

        def decide(t, i, e):
            terms = policy.certified_terms(slot_certs[i], e, constants, params)
            if terms is None:
                terms = policy.rank_one_terms(policy.factorize_agent(b, h_used[i]),
                                              e, constants, params)
            decisions = [policy.solve_agent(terms, m, params) for m in agents]
            deltas = np.array([dec.delta for dec in decisions], dtype=bool)
            return deltas, np.array([policy.control_signal(dec, e)
                                     for dec in decisions])

        return decide

    return start_block


def _triggered_step(config: SimConfig, topology: swarm.SwarmTopology):
    """Channel-oblivious baseline: a trigger rule and a PID-tuned control law.

    Baseline 1 fires periodically, baselines 2 and 3 on the state trigger
    against the error each agent last transmitted; baselines 1 and 2 send
    the PID control, baseline 3 the proportional term k_p @ e alone. Both
    the trigger and the control law run once per slot over the agent axis:
    the periodic bit is shared by every agent, the state trigger compares
    the error with the (M, dM) stack of last-sent errors, and the control
    uses the stacked (M, N_t, dM) gains. A slot where nobody fires returns
    one shared read-only zero-controls array and evaluates no control law.
    """
    gains = tuned_gains(topology)
    trig = baselines.default_trigger_config(topology.m_agents)
    m_count = topology.m_agents
    silent = np.zeros((m_count, topology.n_tx))
    silent.flags.writeable = False
    accumulator = np.zeros(topology.global_dim)
    prev_e = last_sent = None

    if config.scheme == "baseline1":
        everyone = np.ones(m_count, dtype=bool)
        nobody = np.zeros(m_count, dtype=bool)

        def fires(t, e, last_sent):
            return everyone if baselines.periodic_trigger(t, trig.period) else nobody
    else:
        def fires(t, e, last_sent):
            return baselines.state_triggers(e, last_sent, trig.sigma, trig.inverted)

    if config.scheme == "baseline3":
        def control(e, accumulator, prev_e):
            return gains.k_p @ e
    else:
        def control(e, accumulator, prev_e):
            return baselines.pid_control(gains.k_p, gains.k_i, gains.k_d,
                                         e, accumulator, prev_e)

    def decide(t, i, e):
        nonlocal accumulator, prev_e, last_sent
        if prev_e is None:
            prev_e = e
            last_sent = np.tile(e, (m_count, 1))
        accumulator = accumulator + e
        fired = fires(t, e, last_sent)
        controls = silent
        if fired.any():
            last_sent[fired] = e
            controls = np.where(fired[:, None], control(e, accumulator, prev_e), 0.0)
        prev_e = e
        return fired, controls

    def start_block(h, h_est):
        return decide

    return start_block


def run_episode(config: SimConfig, topology: Optional[swarm.SwarmTopology] = None,
                record_decisions: bool = False) -> Metrics:
    """Run one closed-loop episode of the configured scheme.

    The per-slot sequence is: perfect state broadcast, channel draw, pilot
    estimation, scheme decision, transmission through the true channel,
    plant and target step. Stops early when the tracking cost passes the
    overflow guard (diverged=True, metrics keep the recorded prefix; the
    slot that passes it has a cost but no decision or power).

    Everything that does not depend on the state runs once per block of
    _SLOT_BLOCK slots: the four slot streams of every slot in the block
    (the same (seed, stream, slot) keys and draws as slot by slot), the
    pilot estimates, the plant noise, the scheme's channel work and, at
    the end of the block, the power and transmission bookkeeping of its
    slots (and the decision log, copied from the block's bit and control
    buffers). The slot loop carries the plant and target states as arrays and
    keeps the tracking error, the decision, reception and the plant step
    (swarm.advance).
    """
    if topology is None:
        topology = build_topology(config)
    else:
        _check_dims(config, topology)
    m_count, d = topology.m_agents, topology.state_dim
    dm = topology.global_dim
    x = np.full(dm, float(config.x0_value))
    r = np.full(dm, float(config.r0_value))
    start_block = (_semantic_step if config.scheme == "semantic"
                   else _triggered_step)(config, topology)

    size = min(_SLOT_BLOCK, config.horizon)
    h = np.empty((size, m_count, topology.n_rx, topology.n_tx))
    pilot = np.empty_like(h)
    rx_noise = np.empty((size, m_count, topology.n_rx))
    plant_z = np.empty((size, m_count, d))
    bits = np.empty((size, m_count), dtype=bool)
    sent = np.empty((size, m_count, topology.n_tx))

    costs = []
    powers = []
    comm_count = 0
    decided = 0     # slots of the current block with a decision
    diverged = False
    logged_bits = [np.empty((0, m_count), dtype=bool)]
    logged_sent = [np.empty((0, m_count, topology.n_tx))]

    def close_block():
        # per slot, u_m . u_m per agent (silent rows are zero) summed in
        # agent order
        nonlocal comm_count, decided
        if decided:
            u = sent[:decided]
            agent_power = np.matmul(u[:, :, None, :], u[:, :, :, None])
            powers.append(np.add.accumulate(agent_power.reshape(decided, m_count),
                                            axis=1)[:, -1])
            comm_count += int(bits[:decided].sum())
            if record_decisions:
                logged_bits.append(bits[:decided].copy())
                logged_sent.append(u.copy())
            decided = 0

    # A finite state whose cost overflows to inf ends the episode as
    # diverged; the overflow itself is expected, not worth a warning.
    with np.errstate(over="ignore"):
        for t in range(config.horizon):
            i = t % _SLOT_BLOCK
            if i == 0:
                close_block()
                n = min(_SLOT_BLOCK, config.horizon - t)
                for stream, out in ((_STREAM_CHANNEL, h), (_STREAM_PILOT, pilot),
                                    (_STREAM_RX, rx_noise), (_STREAM_PLANT, plant_z)):
                    _draw_block(config.seed, stream, t, out[:n])
                h_est = channel.pilot_estimate(h[:n], pilot[:n], config.pilot_power)
                plant_noise = swarm.plant_noise(topology, plant_z[:n])
                decide = start_block(h[:n], h_est)

            e = x - r
            cost = float(e @ e)
            if not math.isfinite(cost):
                diverged = True
                break
            costs.append(cost)
            if cost > OVERFLOW_GUARD:
                diverged = True
                break

            deltas, controls = decide(t, i, e)
            bits[i] = deltas
            sent[i] = controls
            decided = i + 1

            received = channel.deliver_control(deltas, h[i], controls, rx_noise[i])
            x, r = swarm.advance(topology, x, r, received, plant_noise[i])

    close_block()
    n = len(costs)
    costs_arr = np.array(costs)
    powers_arr = np.concatenate(powers) if powers else np.array([])
    n_powers = len(powers_arr)
    return Metrics(
        scheme=config.scheme,
        seed=config.seed,
        avg_cost=float(costs_arr.mean()) if n else float("inf"),
        avg_tx_power=float(powers_arr.mean()) if n_powers else 0.0,
        comm_rate=comm_count / (n_powers * m_count) if n_powers else 0.0,
        diverged=diverged,
        n_slots=n,
        cost_trajectory=costs_arr,
        tx_power_trajectory=powers_arr,
        gamma=config.gamma,
        decision_log=((np.concatenate(logged_bits), np.concatenate(logged_sent))
                      if record_decisions else None),
    )


def budget_watts(power_budget_dbw: float) -> float:
    """A power budget in watts; a budget with no finite wattage is a ValueError."""
    try:
        if math.isfinite(power_budget_dbw):
            return 10.0 ** (power_budget_dbw / 10.0)
    except OverflowError:
        pass
    raise ValueError(f"power budget {power_budget_dbw!r} dBW is not a finite "
                     f"power in watts")


def calibrate_gamma(config: SimConfig, topology: Optional[swarm.SwarmTopology],
                    power_budget_dbw: float, n_probe_seeds: int = 3,
                    probe_horizon: Optional[int] = None, rel_tol: float = 0.05,
                    lo: float = GAMMA_BRACKET[0], hi: float = GAMMA_BRACKET[1],
                    max_iter: int = 40) -> float:
    """Bisect the communication price until mean transmit power meets a budget.

    Probes run the semantic scheme on seeds derived from the config seed.
    Mean transmit power is non-increasing in gamma, and flat wherever the
    1e-10 cutoff does not fire: there c = 1/M and u does not depend on
    gamma (policy module docstring). The bisection runs in log space until
    the probe mean is within rel_tol of 10^(dBW/10) watts. Budgets outside
    the achievable range return the corresponding bracket edge. A
    non-finite budget (or one too large to express in watts) raises
    ValueError.
    """
    budget_w = budget_watts(power_budget_dbw)
    if topology is None:
        topology = build_topology(config)
    horizon = probe_horizon if probe_horizon is not None else config.horizon
    probe_seeds = [derive_seed(config.seed, _TAG_PROBE, i)
                   for i in range(n_probe_seeds)]

    def mean_power(gamma: float) -> float:
        total = 0.0
        for ps in probe_seeds:
            cfg = replace(config, scheme="semantic", gamma=gamma, seed=ps,
                          horizon=horizon, topology_path=None)
            total += run_episode(cfg, topology).avg_tx_power
        return total / len(probe_seeds)

    p_lo = mean_power(lo)   # weakest penalty -> highest power
    p_hi = mean_power(hi)   # strongest penalty -> lowest power
    if budget_w >= p_lo:
        return lo
    if budget_w <= p_hi:
        return hi
    g_lo, g_hi = lo, hi
    best_gamma, best_gap = lo, abs(p_lo - budget_w)
    for _ in range(max_iter):
        mid = math.sqrt(g_lo * g_hi)
        p_mid = mean_power(mid)
        gap = abs(p_mid - budget_w)
        if gap < best_gap:
            best_gamma, best_gap = mid, gap
        if gap <= rel_tol * budget_w:
            return mid
        if p_mid > budget_w:
            g_lo = mid     # power too high: raise the price
        else:
            g_hi = mid
    return best_gamma


def run_sweep(base_config: SimConfig, axis: str, values, seeds,
              base_budget_dbw: float = 8.0, n_probe_seeds: int = 3,
              probe_horizon: Optional[int] = 1000,
              calibrate_max_iter: int = 40) -> dict:
    """All four schemes across one experiment axis with paired seeds.

    axis is one of M, N_t or power_dbw. For each (value, seed) a fresh ring
    topology is built from the seed, gamma is calibrated for the applicable
    power budget, and every scheme runs on the same random streams. Returns
    {"rows": detail rows, "aggregates": per (scheme, value) summaries};
    divergent episodes enter aggregate means as a fixed penalty cost and
    are counted separately. A budget (axis value or base) that budget_watts
    rejects raises ValueError before any episode runs.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; valid axes: {AXES}")
    for budget in (values if axis == "power_dbw" else [base_budget_dbw]):
        budget_watts(float(budget))
    rows = []
    for value in values:
        for seed in seeds:
            cfg = replace(base_config, seed=int(seed), topology_path=None)
            budget = base_budget_dbw
            if axis == "M":
                cfg = replace(cfg, m_agents=int(value))
            elif axis == "N_t":
                cfg = replace(cfg, n_tx=int(value))
            else:
                budget = float(value)
            topology = build_topology(cfg)
            gamma = calibrate_gamma(cfg, topology, budget,
                                    n_probe_seeds=n_probe_seeds,
                                    probe_horizon=probe_horizon,
                                    max_iter=calibrate_max_iter)
            cfg = replace(cfg, gamma=gamma)
            for scheme in SCHEMES:
                metrics = run_episode(replace(cfg, scheme=scheme), topology)
                rows.append({
                    "scheme": scheme,
                    "axis": axis,
                    "value": value,
                    "seed": int(seed),
                    "avg_cost": metrics.avg_cost,
                    "avg_tx_power": metrics.avg_tx_power,
                    "comm_rate": metrics.comm_rate,
                    "diverged": metrics.diverged,
                    "gamma": gamma,
                })
    aggregates = []
    for value in values:
        for scheme in SCHEMES:
            sel = [r for r in rows if r["scheme"] == scheme and r["value"] == value]
            costs = np.array([DIVERGENCE_PENALTY if r["diverged"] else r["avg_cost"]
                              for r in sel])
            stderr = float(costs.std(ddof=1) / math.sqrt(len(costs))) \
                if len(costs) > 1 else 0.0
            aggregates.append({
                "scheme": scheme,
                "axis": axis,
                "value": value,
                "n_seeds": len(sel),
                "mean_avg_cost": float(costs.mean()),
                "stderr_avg_cost": stderr,
                "mean_avg_tx_power": float(np.mean([r["avg_tx_power"] for r in sel])),
                "mean_comm_rate": float(np.mean([r["comm_rate"] for r in sel])),
                "n_diverged": int(sum(r["diverged"] for r in sel)),
                "mean_gamma": float(np.mean([r["gamma"] for r in sel])),
            })
    return {"rows": rows, "aggregates": aggregates}
