"""Closed-loop episodes, transmit-power calibration and experiment sweeps.

One episode runs the per-timeslot loop: the leader observes the plant and
target states, every agent's channel is drawn and pilot-estimated, the
active scheme picks per-agent communication bits and control signals,
the signals pass through the true fading channel, and the plant and target
step forward. Each scheme's decision lives in the module of its rule:
policy.block_decisions for the semantic scheme and
baselines.triggered_decisions for the three channel-oblivious baselines.
Each slot's cost, bits and controls go into one whole-episode record, from
which Metrics is derived after the loop; a cost above the overflow guard,
or not finite, ends the episode early with the diverged flag set.

Randomness is counter-based: every (seed, stream, timeslot) triple keys an
independent Philox generator, so all schemes consume identical channel and
noise draws for a given seed (common random numbers) and adding schemes or
reordering work never perturbs existing streams. It also lets an episode
draw a whole block of slots ahead and do their state-independent work
(pilot estimates, plant noise, the decision's channel factorizations)
once per block, with the values the slots would have drawn one by one.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import _checks, baselines, channel, policy, swarm

SCHEMES = ("semantic",) + baselines.SCHEMES
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

# Power budget of run_sweep's M and N_t axes.
BASE_BUDGET_DBW = 8.0

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
        for name in ("m_agents", "state_dim", "n_tx", "n_rx", "horizon"):
            object.__setattr__(self, name, _checks.count(name, getattr(self, name)))
        object.__setattr__(self, "seed", _checks.count("seed", self.seed, least=None))
        if not 0 <= self.seed <= MAX_SEED:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}; valid: {SCHEMES}")
        policy.PolicyParams(p_on=self.p_on, gamma=self.gamma)  # the price rule
        _checks.real("pilot_power", self.pilot_power, least=0, strict=True)
        _checks.real("noise_scale", self.noise_scale, least=0)
        _checks.real("x0_value", self.x0_value)
        _checks.real("r0_value", self.r0_value)
        if not isinstance(self.use_estimated_csi, (bool, np.bool_)):
            raise ValueError(f"use_estimated_csi must be true or false, got "
                             f"{self.use_estimated_csi!r}")
        if self.topology_path is not None and (
                not isinstance(self.topology_path, str) or not self.topology_path):
            raise ValueError(f"topology_path must be a non-empty string or "
                             f"null, got {self.topology_path!r}")

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

    decision_log is (deltas, controls): the bits (n, M) and transmit
    vectors (n, M, N_t) of the n slots that took a decision, one row per
    entry of tx_power_trajectory; n is n_slots, or n_slots - 1 when the
    episode diverged (its last slot has a cost and no decision).
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
    decision_log: tuple


_SLOT_GENERATORS: dict = {}


def _slot_rng(seed: int, stream: int, slot: int):
    """Generator of one (seed, stream, slot) triple.

    The draws are those of a fresh Generator(Philox(key=(seed,
    stream << 48 | slot))). One generator per stream tag is re-keyed in
    place (counter 0, empty output buffer) instead of built anew, from one
    state document per stream of which only the key changes; the returned
    generator is valid until the next call for the same stream, so consume
    it before asking for the stream's next slot. The counter and buffer
    words are plain ints, which Philox's state setter reads faster than a
    uint64 array.
    """
    entry = _SLOT_GENERATORS.get(stream)
    if entry is None:
        inner = {"counter": (0, 0, 0, 0), "key": None}
        doc = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
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
    n_slots = _checks.count("n_slots", n_slots, least=0)
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


# Per-topology results (PID gains, drift constants), keyed by what they
# depend on; emptied when it outgrows 64 entries.
_TOPOLOGY_CACHE: dict = {}


def _per_topology(key: tuple, compute):
    hit = _TOPOLOGY_CACHE.get(key)
    if hit is None:
        if len(_TOPOLOGY_CACHE) > 64:
            _TOPOLOGY_CACHE.clear()
        hit = _TOPOLOGY_CACHE[key] = compute()
    return hit


def tuned_gains(topology: swarm.SwarmTopology) -> baselines.PidGains:
    """PID gains of the plant, or of its A scaled to spectral radius 0.9.

    The first attempt tunes on A itself. When solve_dare raises
    DareConvergenceError there (its iteration overflows on a system the
    static all-ones channel cannot stabilize, or stalls: on rings max|P|
    reaches about 1e7 and max|dP| stays above the 1e-8 tolerance until
    max_iter), the second tunes on 0.9 A / rho(A), a stable plant; an
    error there, or a nilpotent A (rho = 0, nothing to scale), is raised.
    The scale used is recorded on the returned gains.
    """
    def tune():
        try:
            return baselines.tune_pid(topology)
        except baselines.DareConvergenceError:
            radius = float(np.max(np.abs(np.linalg.eigvals(topology.a_global))))
            if not radius > 0:
                raise
            return baselines.tune_pid(topology, a_scale=0.9 / radius)

    return _per_topology(("pid", topology.m_agents, topology.state_dim,
                          topology.n_rx, topology.n_tx, topology.a_global.tobytes(),
                          topology.b_actuation.tobytes()), tune)


def drift_constants(topology: swarm.SwarmTopology) -> policy.DriftConstants:
    """Pi and alpha of the topology, computed once per (A, G) pair."""
    return _per_topology(
        ("drift", topology.a_global.tobytes(), topology.g_target.tobytes()),
        lambda: policy.compute_drift_constants(topology.a_global,
                                               topology.g_target))


def run_episode(config: SimConfig,
                topology: Optional[swarm.SwarmTopology] = None) -> Metrics:
    """Run one closed-loop episode of the configured scheme.

    The per-slot sequence is: perfect state broadcast, channel draw, pilot
    estimation, scheme decision, transmission through the true channel,
    plant and target step. Stops early when the tracking cost passes the
    overflow guard or is not finite (diverged=True, metrics keep the
    recorded prefix; the slot that stops it has a cost but no decision or
    power).

    Everything that does not depend on the state runs once per block of
    _SLOT_BLOCK slots: the four slot streams of every slot in the block
    (the same (seed, stream, slot) keys and draws as slot by slot), the
    pilot estimates, the plant noise and the scheme's channel work. The
    scheme is picked once, before the loop: each block start gets its
    decide(i, e) for the block's slot i, policy.block_decisions on the
    estimated channels (the true ones when use_estimated_csi is false) or
    the baseline's triggered decide told the block's first slot. The
    slot loop carries x and r as arrays and keeps the tracking error, the
    decision, reception and the plant step.

    Each slot writes its cost, bits and controls into the episode record,
    three arrays of 8 + M + 8 M N_t bytes per slot (272 B for M = 8,
    N_t = 4). The record starts at one block and doubles, capped at the
    horizon, at the block start that needs room, so its memory follows
    the slots run, at most twice them, whatever the horizon. Every
    Metrics field is derived from the record once, after the loop.
    """
    if topology is None:
        topology = build_topology(config)
    else:
        _check_dims(config, topology)
    m_count, d = topology.m_agents, topology.state_dim
    dm = topology.global_dim
    x = np.full(dm, float(config.x0_value))
    r = np.full(dm, float(config.r0_value))
    if config.scheme == "semantic":
        params = policy.PolicyParams(p_on=config.p_on, gamma=config.gamma)
        constants = drift_constants(topology)

        def start_block(t0, h, h_est):
            return policy.block_decisions(
                topology.b_actuation, h_est if config.use_estimated_csi else h,
                constants, params)
    else:
        triggered = baselines.triggered_decisions(config.scheme,
                                                  tuned_gains(topology))

        def start_block(t0, h, h_est):
            return lambda i, e: triggered(t0 + i, e)

    size = min(_SLOT_BLOCK, config.horizon)
    h = np.empty((size, m_count, topology.n_rx, topology.n_tx))
    pilot = np.empty_like(h)
    rx_noise = np.empty((size, m_count, topology.n_rx))
    plant_z = np.empty((size, m_count, d))
    costs = np.empty(size)
    bits = np.empty((size, m_count), dtype=bool)
    sent = np.empty((size, m_count, topology.n_tx))
    decided = 0

    # A finite state whose cost overflows to inf ends the episode as
    # diverged; the overflow itself is expected, not worth a warning.
    with np.errstate(over="ignore"):
        for t in range(config.horizon):
            i = t % _SLOT_BLOCK
            if i == 0:
                span = min(_SLOT_BLOCK, config.horizon - t)
                if t + span > len(costs):
                    grown = min(2 * len(costs), config.horizon)
                    costs = np.resize(costs, grown)
                    bits = np.resize(bits, (grown, m_count))
                    sent = np.resize(sent, (grown, m_count, topology.n_tx))
                for stream, out in ((_STREAM_CHANNEL, h), (_STREAM_PILOT, pilot),
                                    (_STREAM_RX, rx_noise), (_STREAM_PLANT, plant_z)):
                    _draw_block(config.seed, stream, t, out[:span])
                h_est = channel.estimate_channel(h[:span], pilot[:span],
                                                 config.pilot_power)
                noise = swarm.draw_plant_noise(topology, plant_z[:span])
                decide = start_block(t, h[:span], h_est)

            e, cost = swarm.tracking_error(x, r)
            costs[t] = cost
            if not cost <= OVERFLOW_GUARD:
                break

            deltas, controls = decide(i, e)
            bits[t] = deltas
            sent[t] = controls
            decided = t + 1

            received = channel.receive_control(deltas, h[i], controls, rx_noise[i])
            x, r = swarm.step_swarm(topology, x, r, received, noise[i])

    n = t + 1
    # per slot, u_m . u_m per agent (silent rows are zero) summed in agent order
    u = sent[:decided]
    agent_power = np.matmul(u[:, :, None, :], u[:, :, :, None])
    powers = np.add.accumulate(agent_power.reshape(decided, m_count), axis=1)[:, -1]
    return Metrics(
        scheme=config.scheme,
        seed=config.seed,
        avg_cost=float(costs[:n].mean()),
        avg_tx_power=float(powers.mean()) if decided else 0.0,
        comm_rate=(int(bits[:decided].sum()) / (decided * m_count)
                   if decided else 0.0),
        diverged=decided < n,
        n_slots=n,
        cost_trajectory=costs[:n],
        tx_power_trajectory=powers,
        gamma=config.gamma,
        decision_log=(bits[:decided], u),
    )


def budget_watts(power_budget_dbw: float) -> float:
    """A power budget in watts; ValueError unless it is a real with finite watts.

    The watts are computed in the budget's own type, so a numpy float32
    budget is rejected where its watts overflow float32.
    """
    if _checks.is_real(power_budget_dbw):
        try:
            with np.errstate(over="ignore"):
                watts = 10.0 ** (power_budget_dbw / 10.0)
        except OverflowError:
            watts = math.inf
        if math.isfinite(watts):
            return watts
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
    gamma (policy module docstring). At the low edge (gamma = 1e-6) the
    cutoff fires, but a slot that the second certificate answers keeps the
    spectral path's bits and moves each u by at most a relative delta
    <= policy.CERTIFIED_CUT_SLACK = 1e-8 (the cutoff's share of c), so a
    slot's transmit power, the sum of ||u_m||^2, by at most 2 delta. The
    bisection runs in log space until
    the probe mean is within rel_tol of 10^(dBW/10) watts; after max_iter
    probes without that, it returns the gamma whose probe mean came closest
    to the budget, either bracket edge included (lo on a tie). Budgets
    outside the achievable range return the corresponding bracket edge. Every
    argument is checked before any probe runs, by the package's count and
    real rules (_checks): budget_watts, counts n_probe_seeds, probe_horizon
    (unless None) >= 1 and max_iter >= 0, reals 0 < lo < hi and a finite
    rel_tol >= 0; a failed check is a ValueError.
    """
    budget_w = budget_watts(power_budget_dbw)
    _checks.count("n_probe_seeds", n_probe_seeds)
    _checks.count("max_iter", max_iter, least=0)
    if probe_horizon is not None:
        _checks.count("probe_horizon", probe_horizon)
    if not (_checks.is_real(lo) and _checks.is_real(hi) and 0 < lo < hi):
        raise ValueError(f"the gamma bracket needs finite 0 < lo < hi, got "
                         f"lo={lo!r}, hi={hi!r}")
    _checks.real("rel_tol", rel_tol, least=0)
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
    best_gamma, best_gap = min((lo, abs(p_lo - budget_w)),
                               (hi, abs(p_hi - budget_w)), key=lambda c: c[1])
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


def sweep_cells(base_config: SimConfig, axis: str, values, seeds) -> list:
    """(value, seed, config, budget_dbw) of every cell of a sweep, values outer.

    The one check of a sweep's inputs, made before any episode runs: a
    known axis, no topology_path (a pinned system has no per-seed ring),
    values and seeds neither empty nor repeated, and every cell's config
    valid (SimConfig takes each seed and M or N_t value as given, so a
    non-integer is rejected) and power budget a real number finite in
    watts; the M and N_t axes use BASE_BUDGET_DBW. A bad input raises
    ValueError.
    """
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; valid axes: {', '.join(AXES)}")
    if base_config.topology_path is not None:
        raise ValueError(f"a sweep builds a seeded ring per seed and cannot use "
                         f"topology_path {base_config.topology_path!r}")
    for name, items in (("values", values), ("seeds", seeds)):
        if len(items) == 0:
            raise ValueError(f"a sweep needs at least one of its {name}")
        if len(set(items)) != len(items):
            raise ValueError(f"{name} of a sweep repeats a value: {list(items)}")
    cells = []
    for value in values:
        budget = BASE_BUDGET_DBW
        if axis == "power_dbw":
            budget_watts(value)
            budget = float(value)
        counts = {"M": {"m_agents": value}, "N_t": {"n_tx": value}}.get(axis, {})
        for seed in seeds:
            cells.append((value, seed, replace(base_config, seed=seed, **counts),
                          budget))
    return cells


def run_sweep(base_config: SimConfig, axis: str, values, seeds,
              n_probe_seeds: int = 3,
              probe_horizon: Optional[int] = 1000) -> dict:
    """All four schemes across one experiment axis with paired seeds.

    The cells are those of sweep_cells, which checks every input before
    any episode runs. For each (value, seed) a fresh ring topology is built
    from the seed, gamma is calibrated for the cell's power budget, and
    every scheme runs on the same random streams. Returns {"rows": detail
    rows, "aggregates": per (scheme, value) summaries}; divergent episodes
    enter aggregate means as a fixed penalty cost and are counted
    separately.
    """
    rows = []
    for value, seed, cfg, budget in sweep_cells(base_config, axis, values, seeds):
        topology = build_topology(cfg)
        gamma = calibrate_gamma(cfg, topology, budget,
                                n_probe_seeds=n_probe_seeds,
                                probe_horizon=probe_horizon)
        cfg = replace(cfg, gamma=gamma)
        for scheme in SCHEMES:
            metrics = run_episode(replace(cfg, scheme=scheme), topology)
            rows.append({
                "scheme": scheme,
                "axis": axis,
                "value": value,
                "seed": cfg.seed,
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
