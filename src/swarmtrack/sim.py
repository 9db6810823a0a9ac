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
reordering work never perturbs existing streams.
"""

import math
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


class CalibrationError(RuntimeError):
    """Power budget unreachable inside the gamma bracket."""

    def __init__(self, budget_w: float, achievable_lo: float, achievable_hi: float):
        self.budget_w = budget_w
        self.achievable = (achievable_lo, achievable_hi)
        super().__init__(
            f"budget {budget_w:.4g} W outside achievable mean transmit power "
            f"range [{achievable_lo:.4g}, {achievable_hi:.4g}] W")


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
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        for name in ("m_agents", "state_dim", "n_tx", "n_rx"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; valid: {SCHEMES}")
        for name in ("p_on", "gamma"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0")

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
    """Per-episode results; trajectories cover the recorded slots only."""

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
    decision_log: Optional[list] = None


def _slot_rng(seed: int, stream: int, slot: int):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                    ((stream & 0xFFFF) << 48) | (slot & 0xFFFFFFFFFFFF)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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


def _semantic_step(config: SimConfig, topology: swarm.SwarmTopology):
    """Closed-form channel-aware decision of every agent.

    One stacked factorization and one batched rank-one solve per slot;
    solve_agent then applies each agent's rule to its slice.
    """
    params = policy.PolicyParams(p_on=config.p_on, gamma=config.gamma)
    constants = policy.compute_drift_constants(topology.a_global, topology.g_target)

    def decide(t, err, channels, estimate):
        h = estimate.h_est if config.use_estimated_csi else channels.h
        factors = policy.factorize_agent(topology.b_actuation, h)
        terms = policy.rank_one_terms(factors, err.e, constants, params)
        decisions = [policy.solve_agent(terms, m, params)
                     for m in range(topology.m_agents)]
        deltas = np.array([dec.delta for dec in decisions], dtype=int)
        return deltas, [policy.control_signal(dec, err.e) for dec in decisions]

    return decide


def _triggered_step(config: SimConfig, topology: swarm.SwarmTopology):
    """Channel-oblivious baseline: a trigger rule and a PID-tuned control law.

    Baseline 1 fires periodically, baselines 2 and 3 on the state trigger
    against the error each agent last transmitted; baselines 1 and 2 send
    the PID control, baseline 3 the proportional term k_p @ e alone.
    """
    gains = tuned_gains(topology)
    trig = baselines.default_trigger_config(topology.m_agents)
    m_count = topology.m_agents
    accumulator = np.zeros(topology.global_dim)
    prev_e = last_sent = None

    if config.scheme == "baseline1":
        def fires(t, m, e, e_last):
            return baselines.periodic_trigger(t, trig.period)
    else:
        def fires(t, m, e, e_last):
            return baselines.state_trigger(e, e_last, trig.sigma[m], trig.inverted)

    if config.scheme == "baseline3":
        def control(m, e, accumulator, prev_e):
            return gains.k_p[m] @ e
    else:
        def control(m, e, accumulator, prev_e):
            return baselines.pid_control(gains.k_p[m], gains.k_i[m],
                                         gains.k_d[m], e, accumulator, prev_e)

    def decide(t, err, channels, estimate):
        nonlocal accumulator, prev_e, last_sent
        e = err.e
        if prev_e is None:
            prev_e = e
            last_sent = [e] * m_count
        accumulator = accumulator + e
        deltas = np.zeros(m_count, dtype=int)
        controls = []
        for m in range(m_count):
            if fires(t, m, e, last_sent[m]):
                deltas[m] = 1
                last_sent[m] = e
                controls.append(control(m, e, accumulator, prev_e))
            else:
                controls.append(np.zeros(topology.n_tx))
        prev_e = e
        return deltas, controls

    return decide


def run_episode(config: SimConfig, topology: Optional[swarm.SwarmTopology] = None,
                record_decisions: bool = False) -> Metrics:
    """Run one closed-loop episode of the configured scheme.

    The per-slot sequence is: perfect state broadcast, channel draw, pilot
    estimation, scheme decision, transmission through the true channel,
    plant and target step. Stops early when the tracking cost passes the
    overflow guard (diverged=True, metrics keep the recorded prefix).
    """
    if topology is None:
        topology = build_topology(config)
    else:
        _check_dims(config, topology)
    dm = topology.global_dim
    state = swarm.SwarmState(x=np.full(dm, float(config.x0_value)),
                             r=np.full(dm, float(config.r0_value)), t=0)
    decide = (_semantic_step if config.scheme == "semantic"
              else _triggered_step)(config, topology)

    costs = []
    powers = []
    comm_count = 0
    diverged = False
    decision_log = [] if record_decisions else None

    for t in range(config.horizon):
        err = swarm.tracking_error(state)
        if not math.isfinite(err.cost):
            diverged = True
            break
        costs.append(err.cost)
        if err.cost > OVERFLOW_GUARD:
            diverged = True
            break

        channels = channel.draw_channels(
            _slot_rng(config.seed, _STREAM_CHANNEL, t),
            topology.m_agents, topology.n_rx, topology.n_tx)
        estimate = channel.estimate_channel(
            channels.h, config.pilot_power,
            _slot_rng(config.seed, _STREAM_PILOT, t))
        deltas, controls = decide(t, err, channels, estimate)

        slot_power = 0.0
        for m in range(topology.m_agents):
            if deltas[m]:
                slot_power += float(controls[m] @ controls[m])
        powers.append(slot_power)
        comm_count += int(deltas.sum())
        if record_decisions:
            decision_log.append([(int(deltas[m]), controls[m].copy())
                                 for m in range(topology.m_agents)])

        rx_rng = _slot_rng(config.seed, _STREAM_RX, t)
        received = [channel.receive_control(int(deltas[m]), channels.h[m],
                                            controls[m], rx_rng)
                    for m in range(topology.m_agents)]
        noise = swarm.draw_plant_noise(topology,
                                       _slot_rng(config.seed, _STREAM_PLANT, t))
        state = swarm.step_swarm(topology, state, received, noise)

    n = len(costs)
    costs_arr = np.array(costs)
    powers_arr = np.array(powers)
    return Metrics(
        scheme=config.scheme,
        seed=config.seed,
        avg_cost=float(costs_arr.mean()) if n else float("inf"),
        avg_tx_power=float(powers_arr.mean()) if len(powers) else 0.0,
        comm_rate=comm_count / (len(powers) * topology.m_agents) if powers else 0.0,
        diverged=diverged,
        n_slots=n,
        cost_trajectory=costs_arr,
        tx_power_trajectory=powers_arr,
        gamma=config.gamma,
        decision_log=decision_log,
    )


def calibrate_gamma(config: SimConfig, topology: Optional[swarm.SwarmTopology],
                    power_budget_dbw: float, n_probe_seeds: int = 3,
                    probe_horizon: Optional[int] = None, rel_tol: float = 0.05,
                    lo: float = 1e-6, hi: float = 1e6, max_iter: int = 40,
                    strict: bool = False) -> float:
    """Bisect the communication price until mean transmit power meets a budget.

    Probes run the semantic scheme on seeds derived from the config seed.
    Mean transmit power decreases in gamma; the bisection runs in log space
    until the probe mean is within rel_tol of 10^(dBW/10) watts. Budgets
    outside the achievable range return the corresponding bracket edge, or
    raise CalibrationError when strict=True.
    """
    if topology is None:
        topology = build_topology(config)
    budget_w = 10.0 ** (power_budget_dbw / 10.0)
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
        if strict and abs(p_lo - budget_w) > rel_tol * budget_w:
            raise CalibrationError(budget_w, p_hi, p_lo)
        return lo
    if budget_w <= p_hi:
        if strict and abs(p_hi - budget_w) > rel_tol * budget_w:
            raise CalibrationError(budget_w, p_hi, p_lo)
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
    if strict and best_gap > rel_tol * budget_w:
        raise CalibrationError(budget_w, p_hi, p_lo)
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
    are counted separately.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; valid axes: {AXES}")
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
