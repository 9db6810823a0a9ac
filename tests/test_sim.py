import math
from dataclasses import fields, replace

import numpy as np
import pytest

import oracles
from swarmtrack import baselines, channel, policy, sim, swarm
from swarmtrack.sim import SimConfig
from test_acceptance import benchmark_topology


def identity_topology(m_agents, d, n, zero_actuation=False, noise_scale=0.0):
    rng = np.random.default_rng(1234)
    b = np.zeros((m_agents, d, n)) if zero_actuation \
        else rng.normal(size=(m_agents, d, n))
    return swarm.SwarmTopology(
        m_agents=m_agents, state_dim=d, n_tx=n, n_rx=n,
        a_internal=np.array([np.eye(d)] * m_agents), couplings={},
        b_actuation=b,
        w_noise=np.array([noise_scale * np.eye(d)] * m_agents),
        g_target=np.eye(d * m_agents))


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config keys"):
        SimConfig.from_dict({"m_agents": 2, "bogus": 1})


def test_config_rejects_bad_scheme_and_dims():
    with pytest.raises(ValueError):
        SimConfig(scheme="nope")
    with pytest.raises(ValueError):
        SimConfig(horizon=0)
    with pytest.raises(ValueError):
        SimConfig(m_agents=0)


def test_config_rejects_negative_price():
    for field in ("p_on", "gamma"):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            SimConfig(**{field: -1e-9})
    assert SimConfig(p_on=0.0, gamma=0.0).gamma == 0.0


@pytest.mark.parametrize("field", ["p_on", "gamma"])
@pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"),
                                   float("-inf"), "1", None])
def test_config_rejects_bool_and_non_finite_price(field, value):
    with pytest.raises(ValueError, match=f"{field} must be >= 0 and finite"):
        SimConfig(**{field: value})


@pytest.mark.parametrize("field", ["m_agents", "state_dim", "n_tx", "n_rx",
                                   "horizon", "seed"])
@pytest.mark.parametrize("value", [2.0, 2.5, True, "2", None])
def test_config_rejects_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(**{field: value})


@pytest.mark.parametrize("seed", [-1, -2 ** 64, 2 ** 64, 2 ** 70 + 3])
def test_config_rejects_seed_outside_64_bits(seed):
    # slot keys hold the seed in 64 bits: s and s + 2**64 would share
    # every stream, and a negative seed has no ring topology
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        SimConfig(seed=seed)
    assert SimConfig(seed=2 ** 64 - 1).seed == sim.MAX_SEED
    assert SimConfig(seed=np.uint64(2 ** 64 - 1)).seed == sim.MAX_SEED


def test_config_accepts_numpy_integers():
    cfg = SimConfig(m_agents=np.int64(2), seed=np.uint32(7))
    assert cfg.m_agents == 2 and cfg.seed == 7


def test_config_stores_numpy_integers_as_ints():
    # a numpy int64 seed used to overflow the slot-key mask in run_episode
    cfg = SimConfig(m_agents=np.int64(1), state_dim=np.int32(2), n_tx=2,
                    n_rx=2, horizon=np.uint8(4), seed=np.int64(7))
    assert all(type(getattr(cfg, name)) is int for name in
               ("m_agents", "state_dim", "n_tx", "n_rx", "horizon", "seed"))
    plain = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=4, seed=7)
    assert sim.run_episode(cfg).avg_cost == sim.run_episode(plain).avg_cost


@pytest.mark.parametrize("field,value,message", [
    ("pilot_power", 0.0, "pilot_power must be > 0"),
    ("pilot_power", -1e4, "pilot_power must be > 0"),
    ("pilot_power", float("nan"), "pilot_power must be > 0 and finite"),
    ("pilot_power", float("inf"), "pilot_power must be > 0 and finite"),
    ("pilot_power", "nan", "pilot_power must be > 0 and finite"),
    ("noise_scale", -1.0, "noise_scale must be >= 0"),
    ("noise_scale", float("nan"), "noise_scale must be >= 0 and finite"),
    ("noise_scale", float("inf"), "noise_scale must be >= 0 and finite"),
    ("x0_value", float("nan"), "x0_value must be finite"),
    ("r0_value", float("-inf"), "r0_value must be finite"),
    ("r0_value", None, "r0_value must be finite"),
])
def test_config_rejects_bad_physical_values(field, value, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(**{field: value})
    assert SimConfig(noise_scale=0.0, x0_value=-3, r0_value=0).noise_scale == 0.0


@pytest.mark.parametrize("value", ["False", "false", 0, 1, None])
def test_config_rejects_non_bool_csi_switch(value):
    with pytest.raises(ValueError, match="use_estimated_csi must be true or false"):
        SimConfig(use_estimated_csi=value)


def test_config_accepts_numpy_bool_csi_switch():
    assert not SimConfig(use_estimated_csi=np.bool_(False)).use_estimated_csi


@pytest.mark.parametrize("value", [2, True, "", 1.5])
def test_config_rejects_topology_path_that_is_not_a_file_name(value):
    with pytest.raises(ValueError, match="topology_path must be a non-empty string"):
        SimConfig(topology_path=value)


def test_episode_rejects_mismatched_topology():
    topo = identity_topology(2, 2, 2)
    cfg = SimConfig(m_agents=3, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    with pytest.raises(ValueError, match="do not match"):
        sim.run_episode(cfg, topo)


def test_frozen_error_single_slot():
    # huge activation power, identity dynamics: nobody transmits and the
    # recorded cost is the initial one, d*M * 99^2
    topo = identity_topology(1, 9, 4)
    cfg = SimConfig(m_agents=1, state_dim=9, n_tx=4, n_rx=4, horizon=1,
                    p_on=1e12, noise_scale=0.0, seed=2)
    metrics = sim.run_episode(cfg, topo)
    assert metrics.avg_cost == pytest.approx(9 * 99.0 ** 2)
    assert metrics.comm_rate == 0.0
    assert not metrics.diverged


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_frozen_error_all_schemes(scheme):
    # zero actuation and zero noise: the error cannot move under any scheme
    topo = identity_topology(2, 2, 2, zero_actuation=True)
    cfg = SimConfig(m_agents=2, state_dim=2, n_tx=2, n_rx=2, horizon=40,
                    scheme=scheme, p_on=1e12, noise_scale=0.0, seed=3)
    metrics = sim.run_episode(cfg, topo)
    assert np.allclose(metrics.cost_trajectory, 4 * 99.0 ** 2)
    assert not metrics.diverged


def test_same_seed_bit_identical_metrics():
    cfg = SimConfig(m_agents=2, state_dim=2, n_tx=2, n_rx=2, horizon=60,
                    seed=11)
    a = sim.run_episode(cfg)
    b = sim.run_episode(cfg)
    assert np.array_equal(a.cost_trajectory, b.cost_trajectory)
    assert np.array_equal(a.tx_power_trajectory, b.tx_power_trajectory)
    assert a.comm_rate == b.comm_rate
    assert a.avg_cost == b.avg_cost


def test_scalar_reference_loop():
    """Full-episode oracle: an independent scalar closed loop must reproduce
    the d = 1, M = 1 semantic episode slot for slot."""
    seed = 17
    horizon = 100
    p_on, gamma, pilot_power, noise_scale = 0.05, 0.3, 1e4, 1e-4
    topo = swarm.build_ring_topology(1, 1, 1, 1, noise_scale, seed)
    cfg = SimConfig(m_agents=1, state_dim=1, n_tx=1, n_rx=1, horizon=horizon,
                    p_on=p_on, gamma=gamma, pilot_power=pilot_power,
                    noise_scale=noise_scale, seed=seed)
    metrics = sim.run_episode(cfg, topo)

    a = float(topo.a_internal[0, 0, 0])
    b = float(topo.b_actuation[0, 0, 0])
    pi = min(abs(a), 1.0)
    x, r = 1.0, 100.0
    costs = []
    for t in range(horizon):
        e = x - r
        s = e * e
        costs.append(s)
        if s > sim.OVERFLOW_GUARD:
            break
        h = float(sim._slot_rng(seed, 1, t).normal(size=(1, 1, 1))[0, 0, 0])
        pilot_noise = float(sim._slot_rng(seed, 2, t).normal(size=(1, 1, 1))[0, 0, 0])
        h_est = h + pilot_noise / math.sqrt(pilot_power)
        eff = b * h_est
        if eff != 0.0 and s > 0.0:
            q = s + gamma / (eff * eff)
            theta = pi * pi * s * s / q
        else:
            q, theta = 1.0, 0.0
        if p_on < theta:
            k = (pi * s / q) / eff
            u = -k * e
            delta = 1
        else:
            u, delta = 0.0, 0
        v = float(sim._slot_rng(seed, 3, t).normal(size=1)[0])
        uhat = delta * h * u + v
        w = math.sqrt(noise_scale) * float(sim._slot_rng(seed, 4, t).normal(size=1)[0])
        x = a * x + b * uhat + w
    assert metrics.n_slots == len(costs)
    ref = np.array(costs)
    scale = np.maximum(1.0, np.abs(ref))
    assert np.max(np.abs(metrics.cost_trajectory - ref) / scale) <= 1e-9


# (avg_cost, avg_tx_power, comm_rate, n_slots, diverged) of each scheme on
# one stable topology; a rework of the slot pipeline must reproduce them
PINNED_EPISODES = {
    "semantic": (12.553443311827854, 1362.77864816783, 0.775, 40, False),
    "baseline1": (13.898581008322878, 0.14678384115831022, 0.5, 40, False),
    "baseline2": (13.517594930335656, 0.12352482138503343,
                  0.38333333333333336, 40, False),
    "baseline3": (13.47892741840345, 0.08796294750448874,
                  0.38333333333333336, 40, False),
}


def pinned_episode(scheme, x0_value):
    topo = oracles.scaled_stable_topology(3, 2, 2, seed=31, n_tx=3,
                                          noise_scale=1e-2)
    cfg = SimConfig(m_agents=3, state_dim=2, n_tx=3, n_rx=2, horizon=40,
                    scheme=scheme, p_on=0.3, gamma=0.5, noise_scale=1e-2,
                    seed=31, x0_value=x0_value, r0_value=0.0)
    return sim.run_episode(cfg, topo)


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_pinned_episode_metrics(scheme):
    metrics = pinned_episode(scheme, 1.0)
    avg_cost, avg_tx_power, comm_rate, n_slots, diverged = PINNED_EPISODES[scheme]
    assert metrics.avg_cost == pytest.approx(avg_cost, rel=1e-9, abs=0.0)
    assert metrics.avg_tx_power == pytest.approx(avg_tx_power, rel=1e-9, abs=0.0)
    assert metrics.comm_rate == pytest.approx(comm_rate, rel=1e-9, abs=0.0)
    assert metrics.n_slots == n_slots
    assert metrics.diverged is diverged


# The same state-triggered episodes started from x = r = 0: e(0) = 0, so at
# t = 1 agent 0's trigger (sigma_1 = 1) meets the exact tie
# ||e - 0||^2 = ||e||^2, and the transmit count pins how it is broken.
PINNED_FROM_ZERO = {
    "baseline2": (12.354665039867879, 0.08520306860896978,
                  0.36666666666666664, 40, False),
    "baseline3": (12.41399600481368, 0.06613735960158384, 0.375, 40, False),
}


@pytest.mark.parametrize("scheme", sorted(PINNED_FROM_ZERO))
def test_pinned_episode_metrics_from_zero(scheme):
    metrics = pinned_episode(scheme, 0.0)
    avg_cost, avg_tx_power, comm_rate, n_slots, diverged = PINNED_FROM_ZERO[scheme]
    assert metrics.avg_cost == pytest.approx(avg_cost, rel=1e-9, abs=0.0)
    assert metrics.avg_tx_power == pytest.approx(avg_tx_power, rel=1e-9, abs=0.0)
    assert metrics.comm_rate == comm_rate
    assert metrics.n_slots == n_slots
    assert metrics.diverged is diverged


# (avg_cost, avg_tx_power, comm_rate, n_slots, diverged) of semantic
# episodes on a stable decoupled tall system (M = 4, d = 9, N_t = N_r = 4),
# recorded with the spectral path alone. At gamma = 1 every slot takes the
# certified closed form by its first certificate. At gamma = 1e-6 the 1e-10
# cutoff cuts the power term, and every slot but the first (e = 0, answered
# before either test) is certified by the second certificate, which bounds
# what the cutoff removes.
PINNED_TALL = {
    1.0: ((182.85244513425639, 138.74499914077484, 0.9666666666666667, 30, False),
          30),
    1e-6: ((182.8524451347612, 138.74499913909452, 0.9666666666666667, 30, False),
           30),
}


@pytest.mark.parametrize("gamma", sorted(PINNED_TALL))
def test_pinned_tall_semantic_episode(gamma, monkeypatch):
    certified = []
    real = policy.certified_terms

    def counting(*args):
        terms = real(*args)
        certified.append(terms is not None)
        return terms

    monkeypatch.setattr(policy, "certified_terms", counting)
    topo = benchmark_topology(4, 9, 4, 4, 7, 0.02)
    cfg = SimConfig(m_agents=4, state_dim=9, n_tx=4, n_rx=4, horizon=30,
                    p_on=0.001, gamma=gamma, noise_scale=0.02, x0_value=0.0,
                    r0_value=0.0, seed=7)
    metrics = sim.run_episode(cfg, topo)
    (avg_cost, avg_tx_power, comm_rate, n_slots, diverged), n_certified = \
        PINNED_TALL[gamma]
    assert metrics.avg_cost == pytest.approx(avg_cost, rel=1e-9, abs=0.0)
    assert metrics.avg_tx_power == pytest.approx(avg_tx_power, rel=1e-9, abs=0.0)
    assert metrics.comm_rate == comm_rate
    assert metrics.n_slots == n_slots
    assert metrics.diverged is diverged
    assert sum(certified) == n_certified and len(certified) == n_slots


def test_divergence_guard_stops_early():
    cfg = SimConfig(m_agents=2, state_dim=3, n_tx=2, n_rx=2, horizon=5000,
                    seed=23)
    metrics = sim.run_episode(cfg)
    assert metrics.diverged
    assert metrics.n_slots < 5000
    assert np.all(np.isfinite(metrics.cost_trajectory))
    assert math.isfinite(metrics.avg_cost)


def test_record_follows_the_slots_run_not_the_horizon():
    # the episode record grows by doubling from one block, so a horizon far
    # beyond memory runs the same episode as a small one
    cfg = SimConfig(m_agents=2, state_dim=3, n_tx=2, n_rx=2, horizon=5000,
                    seed=23)
    want = sim.run_episode(cfg)
    got = sim.run_episode(replace(cfg, horizon=10 ** 15))
    assert got.diverged and got.n_slots < 5000
    for field in fields(sim.Metrics):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "decision_log":
            assert all(np.array_equal(x, y) for x, y in zip(a, b))
        elif isinstance(b, np.ndarray):
            assert np.array_equal(a, b), field.name
        else:
            assert a == b, field.name


def test_run_episode_calls_each_slot_operation_by_its_public_name(monkeypatch):
    # per block: one pilot estimate and one plant-noise map; per slot: one
    # tracking error, one reception, one plant step and one target step
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((channel, "estimate_channel"), (channel, "receive_control"),
                         (swarm, "draw_plant_noise"), (swarm, "step_swarm"),
                         (swarm, "step_target"), (swarm, "tracking_error")):
        counted(module, name)
    topo = benchmark_topology(3, 9, 4, 4, 5, 0.02)
    cfg = SimConfig(m_agents=3, state_dim=9, n_tx=4, n_rx=4, horizon=70,
                    p_on=0.001, noise_scale=0.02, r0_value=0.0, seed=5)
    for scheme in sim.SCHEMES:
        calls.clear()
        metrics = sim.run_episode(replace(cfg, scheme=scheme), topo)
        assert not metrics.diverged and metrics.n_slots == 70
        assert calls == {"estimate_channel": 3, "draw_plant_noise": 3,
                         "tracking_error": 70, "receive_control": 70,
                         "step_swarm": 70, "step_target": 70}


def test_power_accounting_matches_decision_log():
    topo = oracles.scaled_stable_topology(2, 2, 2, seed=31)
    cfg = SimConfig(m_agents=2, state_dim=2, n_tx=2, n_rx=2, horizon=80,
                    p_on=0.01, gamma=0.5, seed=31)
    metrics = sim.run_episode(cfg, topo)
    deltas, controls = metrics.decision_log
    assert len(deltas) == len(controls) == len(metrics.tx_power_trajectory)
    for slot, bits, sent in zip(metrics.tx_power_trajectory, deltas, controls):
        recomputed = sum(float(u @ u) for delta, u in zip(bits, sent) if delta)
        assert slot == pytest.approx(recomputed, rel=1e-12, abs=1e-15)
    assert metrics.avg_tx_power == pytest.approx(
        float(np.mean(metrics.tx_power_trajectory)))


def test_semantic_never_transmits_with_zero_error():
    topo = identity_topology(1, 2, 2)
    cfg = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=1,
                    p_on=0.5, x0_value=7.0, r0_value=7.0, noise_scale=0.0,
                    seed=5)
    metrics = sim.run_episode(cfg, topo)
    assert metrics.cost_trajectory[0] == 0.0
    assert not metrics.decision_log[0][0].any()


def test_streams_are_scheme_independent():
    # with zero actuation the plant only sees the noise streams, so every
    # scheme must produce the same trajectory under one seed
    topo = identity_topology(2, 2, 2, zero_actuation=True, noise_scale=1e-2)
    trajs = []
    for scheme in sim.SCHEMES:
        cfg = SimConfig(m_agents=2, state_dim=2, n_tx=2, n_rx=2, horizon=30,
                        scheme=scheme, noise_scale=1e-2, seed=41)
        trajs.append(sim.run_episode(cfg, topo).cost_trajectory)
    for other in trajs[1:]:
        assert np.array_equal(trajs[0], other)


def test_calibrate_gamma_unreachable_budget_returns_edges():
    # n_tx > n_rx keeps the effective channel well conditioned and the
    # noise-floor steady state keeps transmit power in a narrow band
    topo = oracles.scaled_stable_topology(1, 2, 2, seed=47, n_tx=4,
                                          noise_scale=1e-2)
    cfg = SimConfig(m_agents=1, state_dim=2, n_tx=4, n_rx=2, horizon=60,
                    p_on=0.0, noise_scale=1e-2, x0_value=0.0, r0_value=0.0,
                    seed=47)
    # 60 dBW = 1e6 W is far above anything the policy spends
    assert sim.calibrate_gamma(cfg, topo, 60.0, n_probe_seeds=2) == 1e-6
    # -200 dBW is below even the maximally-penalized transmit power
    assert sim.calibrate_gamma(cfg, topo, -200.0, n_probe_seeds=2) == 1e6


def test_calibrate_gamma_midrange_out_of_sample():
    # zero initial error: transmit power comes from the noise-driven steady
    # state, which averages tightly over the horizon
    topo = oracles.scaled_stable_topology(2, 2, 2, seed=53, n_tx=4,
                                          noise_scale=1e-2)
    cfg = SimConfig(m_agents=2, state_dim=2, n_tx=4, n_rx=2, horizon=2000,
                    p_on=0.0, noise_scale=1e-2, x0_value=0.0, r0_value=0.0,
                    seed=53)
    probe = [sim.derive_seed(cfg.seed, sim._TAG_PROBE, i) for i in range(3)]
    ref_power = np.mean([sim.run_episode(replace(cfg, gamma=0.5, seed=s),
                                         topo).avg_tx_power for s in probe])
    budget_dbw = 10.0 * math.log10(ref_power)
    gamma = sim.calibrate_gamma(cfg, topo, budget_dbw, n_probe_seeds=3,
                                rel_tol=0.01)
    fresh = [sim.run_episode(replace(cfg, gamma=gamma, seed=1000 + i), topo)
             for i in range(5)]
    achieved = float(np.mean([m.avg_tx_power for m in fresh]))
    assert achieved == pytest.approx(ref_power, rel=0.05)


def test_run_sweep_single_cell_shapes():
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=30,
                     seed=61)
    result = sim.run_sweep(base, "M", [1], [61], n_probe_seeds=1,
                           probe_horizon=20)
    assert len(result["rows"]) == 4
    assert {r["scheme"] for r in result["rows"]} == set(sim.SCHEMES)
    assert len(result["aggregates"]) == 4
    for agg in result["aggregates"]:
        assert agg["n_seeds"] == 1
        assert agg["stderr_avg_cost"] == 0.0


@pytest.mark.parametrize("budget", [float("nan"), float("inf"),
                                    float("-inf"), 4000.0,
                                    pytest.param(np.float64(4000), id="float64-4000"),
                                    pytest.param(np.float32(400), id="float32-400")])
def test_budget_without_finite_watts_is_rejected(budget):
    # a NaN budget would otherwise calibrate to a bracket edge and, on the
    # power_dbw axis, drop every row from its aggregate (NaN != NaN)
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    with pytest.raises(ValueError, match="not a finite power"):
        sim.budget_watts(budget)
    with pytest.raises(ValueError, match="not a finite power"):
        sim.calibrate_gamma(base, None, budget, n_probe_seeds=1)
    with pytest.raises(ValueError, match="not a finite power"):
        sim.run_sweep(base, "power_dbw", [8.0, budget], [0], n_probe_seeds=1)
    assert sim.budget_watts(10.0) == 10.0 and sim.budget_watts(-4000.0) == 0.0


@pytest.mark.parametrize("budget", [True, False, np.bool_(True), "8", None,
                                    1j])
def test_budget_that_is_not_a_real_number_is_rejected(budget):
    # a bool used to pass as 1 or 0 dBW, where every numeric config value
    # rejects one
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    with pytest.raises(ValueError, match="not a finite power"):
        sim.budget_watts(budget)
    with pytest.raises(ValueError, match="not a finite power"):
        sim.sweep_cells(base, "power_dbw", [budget], [0])
    with pytest.raises(ValueError, match="not a finite power"):
        sim.calibrate_gamma(base, None, budget)


@pytest.mark.parametrize("kwargs,match", [
    ({"n_probe_seeds": 0}, "n_probe_seeds"),
    ({"n_probe_seeds": True}, "n_probe_seeds"),
    ({"n_probe_seeds": 1.5}, "n_probe_seeds"),
    ({"lo": 10.0, "hi": 1.0}, "bracket"),
    ({"lo": 0.0}, "bracket"),
    ({"hi": float("inf")}, "bracket"),
    ({"lo": float("nan")}, "bracket"),
    ({"rel_tol": -0.01}, "rel_tol"),
    ({"rel_tol": float("nan")}, "rel_tol"),
    ({"max_iter": -1}, "max_iter"),
    ({"max_iter": False}, "max_iter"),
    ({"probe_horizon": 0}, "probe_horizon must be an integer >= 1, got 0"),
    ({"probe_horizon": 2.5}, "probe_horizon"),
    ({"probe_horizon": True}, "probe_horizon"),
    ({"rel_tol": float("inf")}, "rel_tol must be >= 0 and finite"),
])
def test_calibrate_gamma_rejects_bad_arguments_before_any_probe(
        monkeypatch, kwargs, match):
    # n_probe_seeds=0 used to die dividing by zero, lo > hi to return 1.0
    # silently, lo = 0 to pin the log-space bisection at 0, a bad
    # probe_horizon to be reported as the config's horizon after
    # build_topology ran, and rel_tol = inf to accept the first probe
    def no_probe(*args, **kw):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(sim, "run_episode", no_probe)
    monkeypatch.setattr(sim, "build_topology", no_probe)
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    with pytest.raises(ValueError, match=match):
        sim.calibrate_gamma(base, None, 8.0, **kwargs)


class PowerOfGamma:
    """A probe episode whose mean transmit power is 1 / gamma watts."""

    def __init__(self, config, topology):
        self.avg_tx_power = 1.0 / config.gamma


@pytest.mark.parametrize("max_iter", [3, 4])
def test_calibrate_gamma_out_of_iterations_returns_the_best_probe(
        monkeypatch, max_iter):
    # on [1e-2, 1e2] for a 3 W budget the bisection probes 1, 10^-1,
    # 10^-0.5 (3.16 W, the closest) and 10^-0.25 (1.78 W); rel_tol = 0
    # never stops it, so it returns the closest probe, not the last
    monkeypatch.setattr(sim, "run_episode", PowerOfGamma)
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    gamma = sim.calibrate_gamma(base, object(), 10.0 * math.log10(3.0),
                                n_probe_seeds=1, rel_tol=0.0, lo=1e-2, hi=1e2,
                                max_iter=max_iter)
    assert gamma == pytest.approx(10.0 ** -0.5, rel=1e-12)


@pytest.mark.parametrize("max_iter", [0, 1])
def test_calibrate_gamma_out_of_iterations_can_return_the_upper_edge(
        monkeypatch, max_iter):
    # on [1e-2, 1e2] for a 0.05 W budget the upper edge (0.01 W) is closer
    # than the lower edge (100 W) and than the first bisection probe,
    # gamma = 1 (1 W), so a bisection cut short returns the upper edge
    monkeypatch.setattr(sim, "run_episode", PowerOfGamma)
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    gamma = sim.calibrate_gamma(base, object(), 10.0 * math.log10(0.05),
                                n_probe_seeds=1, rel_tol=0.0, lo=1e-2, hi=1e2,
                                max_iter=max_iter)
    assert gamma == 1e2


def test_run_sweep_rejects_zero_probe_seeds(monkeypatch):
    def no_probe(*args, **kw):
        raise AssertionError("a probe ran")

    monkeypatch.setattr(sim, "run_episode", no_probe)
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    with pytest.raises(ValueError, match="n_probe_seeds"):
        sim.run_sweep(base, "power_dbw", [8.0], [0], n_probe_seeds=0)


def test_run_sweep_rejects_topology_path(tmp_path):
    topo = oracles.scaled_stable_topology(1, 2, 2, seed=61)
    path = tmp_path / "topo.json"
    path.write_text(swarm.topology_to_json(topo), encoding="utf-8")
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5,
                     topology_path=str(path))
    with pytest.raises(ValueError, match="topology_path"):
        sim.run_sweep(base, "N_t", [2], [0], n_probe_seeds=1)


def test_run_sweep_rejects_unknown_axis():
    base = SimConfig(horizon=5)
    with pytest.raises(ValueError, match="axis"):
        sim.run_sweep(base, "bogus", [1], [0])


@pytest.mark.parametrize("axis,values,seeds,message", [
    ("M", [2.5], [0], "m_agents must be an integer"),
    ("N_t", [True], [0], "n_tx must be an integer"),
    ("M", [1], [1.9], "seed must be an integer"),
    ("M", [1], [0, 0], "seeds of a sweep repeats a value"),
    ("N_t", [2, 2], [0], "values of a sweep repeats a value"),
    ("power_dbw", [8.0, 8], [0], "values of a sweep repeats a value"),
    ("M", [1], [], "at least one of its seeds"),
    ("power_dbw", [], [0], "at least one of its values"),
])
def test_run_sweep_rejects_bad_cells_before_any_episode(monkeypatch, axis, values,
                                                        seeds, message):
    # each case used to run (2.5 as M = 2, True as N_t = 1, seed 1.9 as 1),
    # count a repeat twice, or average an empty seed list
    ran = []

    def no_episode(*args):
        ran.append(args)
        raise RuntimeError("an episode ran")

    monkeypatch.setattr(sim, "run_episode", no_episode)
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    with pytest.raises(ValueError, match=message):
        sim.run_sweep(base, axis, values, seeds, n_probe_seeds=1)
    assert not ran


def test_sweep_cells_take_values_and_seeds_as_given():
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=5)
    cells = sim.sweep_cells(base, "M", np.array([2, 3]), [np.uint32(4), 5])
    assert cells == [
        (2, 4, replace(base, m_agents=2, seed=4), sim.BASE_BUDGET_DBW),
        (2, 5, replace(base, m_agents=2, seed=5), sim.BASE_BUDGET_DBW),
        (3, 4, replace(base, m_agents=3, seed=4), sim.BASE_BUDGET_DBW),
        (3, 5, replace(base, m_agents=3, seed=5), sim.BASE_BUDGET_DBW)]
    assert sim.sweep_cells(base, "power_dbw", [-3], [6]) == [
        (-3, 6, replace(base, seed=6), -3.0)]
    result = sim.run_sweep(base, "N_t", [np.int64(3)], [np.int64(6)],
                           n_probe_seeds=1, probe_horizon=5)
    assert {type(row["seed"]) for row in result["rows"]} == {int}


def test_run_sweep_deterministic():
    base = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=25,
                     seed=67)
    r1 = sim.run_sweep(base, "N_t", [2, 3], [67, 68], n_probe_seeds=1,
                       probe_horizon=15)
    r2 = sim.run_sweep(base, "N_t", [2, 3], [67, 68], n_probe_seeds=1,
                       probe_horizon=15)
    assert r1 == r2
    assert len(r1["rows"]) == 4 * 2 * 2


def test_run_sweep_penalizes_divergent_runs():
    base = SimConfig(m_agents=2, state_dim=3, n_tx=2, n_rx=2, horizon=2000,
                     seed=71)
    result = sim.run_sweep(base, "M", [2], [71], n_probe_seeds=1,
                           probe_horizon=50)
    assert all(r["diverged"] for r in result["rows"])
    for agg in result["aggregates"]:
        assert agg["mean_avg_cost"] == sim.DIVERGENCE_PENALTY
        assert agg["n_diverged"] == 1


def test_topology_path_round_trip(tmp_path):
    topo = oracles.scaled_stable_topology(2, 2, 2, seed=73)
    path = tmp_path / "topo.json"
    path.write_text(swarm.topology_to_json(topo), encoding="utf-8")
    cfg = SimConfig(m_agents=2, state_dim=2, n_tx=2, n_rx=2, horizon=20,
                    seed=73, topology_path=str(path))
    loaded = sim.build_topology(cfg)
    assert np.array_equal(loaded.a_global, topo.a_global)
    metrics = sim.run_episode(cfg)
    assert metrics.n_slots == 20


def fresh_slot_rng(seed, stream, slot):
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF,
                    ((stream & 0xFFFF) << 48) | (slot & 0xFFFFFFFFFFFF)],
                   dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def test_slot_rng_interleaved_streams_match_fresh_generators():
    # the slot loop's order: every stream re-keyed once per slot
    for slot in range(5):
        for stream in (sim._STREAM_CHANNEL, sim._STREAM_PILOT, sim._STREAM_RX,
                       sim._STREAM_PLANT):
            got = sim._slot_rng(9, stream, slot).normal(size=7)
            assert np.array_equal(got, fresh_slot_rng(9, stream, slot).normal(size=7))
    # one stream left half-consumed while another is re-keyed in between
    a = sim._slot_rng(3, sim._STREAM_RX, 11)
    first = a.normal(size=3)
    sim._slot_rng(3, sim._STREAM_PLANT, 11).normal(size=5)
    rest = a.normal(size=4)
    assert np.array_equal(np.concatenate([first, rest]),
                          fresh_slot_rng(3, sim._STREAM_RX, 11).normal(size=7))


def test_slot_rng_rekey_clears_buffered_uint32():
    # a lone uint32 draw leaves half of a 64-bit output buffered
    # (has_uint32 set); the next key must not see it
    gen = sim._slot_rng(4, sim._STREAM_PILOT, 2)
    gen.integers(0, 2 ** 32, dtype=np.uint32)
    assert gen.bit_generator.state["has_uint32"] == 1
    got = sim._slot_rng(4, sim._STREAM_PILOT, 3)
    want = fresh_slot_rng(4, sim._STREAM_PILOT, 3)
    assert np.array_equal(got.integers(0, 2 ** 32, size=5, dtype=np.uint32),
                          want.integers(0, 2 ** 32, size=5, dtype=np.uint32))
    assert np.array_equal(got.normal(size=6), want.normal(size=6))


@pytest.mark.parametrize("seed,stream,slot", [
    (2 ** 64 + 5, sim._STREAM_CHANNEL, 3),
    (2 ** 70 - 1, sim._STREAM_PLANT, 2 ** 48 + 7),
    (12, sim._TAG_PROBE, 2 ** 60 - 1),
    (2 ** 63, 0x1FFFF, 2 ** 48 - 1),
])
def test_slot_rng_masks_wide_seeds_and_slots(seed, stream, slot):
    got = sim._slot_rng(seed, stream, slot).normal(size=9)
    assert np.array_equal(got, fresh_slot_rng(seed, stream, slot).normal(size=9))


def test_derive_seed_stable():
    assert sim.derive_seed(5, 1, 0) == sim.derive_seed(5, 1, 0)
    assert sim.derive_seed(5, 1, 0) != sim.derive_seed(5, 1, 1)
    assert sim.derive_seed(5, 1, 0) != sim.derive_seed(6, 1, 0)


def assert_same_episode(got, want, rel=0.0):
    """Metrics, trajectories and decision logs agree, to rel per slot
    (equal entries always agree, so an inf cost matches an inf cost)."""
    assert (got.n_slots, got.diverged, got.comm_rate) == \
        (want.n_slots, want.diverged, want.comm_rate)
    for a, b in ((got.cost_trajectory, want.cost_trajectory),
                 (got.tx_power_trajectory, want.tx_power_trajectory)):
        assert a.shape == b.shape
        differ = a != b
        assert np.all(np.abs(a[differ] - b[differ]) <= rel * np.abs(b[differ]))
    (bits, sent), (bits_ref, sent_ref) = got.decision_log, want.decision_log
    assert np.array_equal(bits, bits_ref)
    assert sent.shape == sent_ref.shape
    assert np.all(np.abs(sent - sent_ref) <= rel * np.abs(sent_ref))


@pytest.mark.parametrize("csi", [True, False])
@pytest.mark.parametrize("horizon", [1, 31, 32, 33, 65])
@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_block_loop_matches_slot_oracle(scheme, horizon, csi):
    # Baselines and spectral-path slots are bit-identical to the
    # slot-by-slot loop; certified slots agree to 1e-12 per slot.
    # gamma = 1 certifies every semantic slot of the tall system by the
    # first certificate and 1e-6 by the second (bit-identical there);
    # at 1e14 the cutoff takes the error direction and every slot takes
    # the spectral path.
    topo = benchmark_topology(4, 9, 4, 4, 7, 0.02)
    for gamma, rel in ((1.0, 1e-12), (1e-6, 0.0), (1e14, 0.0)):
        cfg = SimConfig(m_agents=4, state_dim=9, n_tx=4, n_rx=4,
                        horizon=horizon, scheme=scheme, p_on=0.001,
                        gamma=gamma, noise_scale=0.02, x0_value=1.0,
                        r0_value=0.0, seed=3, use_estimated_csi=csi)
        got = sim.run_episode(cfg, topo)
        want = oracles.slot_loop_episode(cfg, topo)
        assert got.n_slots == horizon and not got.diverged
        assert_same_episode(got, want, rel if scheme == "semantic" else 0.0)


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_block_loop_matches_slot_oracle_through_divergence(scheme):
    # the README ring diverges around slot 23, in the middle of the first
    # block; the draws of the block's unused slots must not leak
    cfg = SimConfig(horizon=100, scheme=scheme, seed=1)
    got = sim.run_episode(cfg)
    want = oracles.slot_loop_episode(cfg)
    assert got.diverged and 0 < got.n_slots < sim._SLOT_BLOCK
    assert_same_episode(got, want)


def late_overflow_config(scheme, x0_value):
    # a mildly unstable ring (spectral radius 1.2) started at x = 1e3
    topo = oracles.scaled_stable_topology(2, 3, 2, seed=4, target_radius=1.2)
    cfg = SimConfig(m_agents=2, state_dim=3, n_tx=2, n_rx=2, horizon=400,
                    scheme=scheme, seed=4, x0_value=x0_value)
    return cfg, topo


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_block_loop_matches_slot_oracle_past_the_first_block(scheme):
    # the guard stops these episodes after the first block (slots 62, 211,
    # 182 and 148), so full blocks and the partial block the stop leaves
    # are both booked; the overflow slot has a cost and no power entry
    cfg, topo = late_overflow_config(scheme, 1e3)
    got = sim.run_episode(cfg, topo)
    want = oracles.slot_loop_episode(cfg, topo)
    assert got.diverged and got.n_slots > sim._SLOT_BLOCK
    assert got.cost_trajectory[-1] > sim.OVERFLOW_GUARD
    assert len(got.tx_power_trajectory) == got.n_slots - 1
    assert_same_episode(got, want)


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_block_loop_matches_slot_oracle_with_non_finite_first_cost(scheme):
    # ||e(0)||^2 overflows to inf: the episode records that cost and stops
    # before any decision
    cfg, topo = late_overflow_config(scheme, 1e200)
    with np.errstate(over="ignore"):
        got = sim.run_episode(cfg, topo)
        want = oracles.slot_loop_episode(cfg, topo)
    assert got.diverged and got.n_slots == 1 and got.avg_cost == math.inf
    assert (got.avg_tx_power, got.comm_rate) == (0.0, 0.0)
    assert got.tx_power_trajectory.shape == (0,)
    assert got.decision_log[0].shape == (0, 2)
    assert got.decision_log[1].shape == (0, 2, 2)
    assert_same_episode(got, want)


@pytest.mark.parametrize("stream,shape", [
    (sim._STREAM_CHANNEL, (8, 4, 4)),
    (sim._STREAM_PILOT, (8, 4, 4)),
    (sim._STREAM_RX, (8, 4)),
    (sim._STREAM_PLANT, (8, 9)),
])
def test_block_draws_match_per_slot_normal_draws(stream, shape):
    # run_episode fills its block buffers with standard_normal(out=...);
    # the slot loop drew the same keys with normal(size=...)
    buf = np.empty((3,) + shape)
    for slot in range(3):
        sim._slot_rng(21, stream, slot).standard_normal(out=buf[slot])
    for slot in range(3):
        want = fresh_slot_rng(21, stream, slot).normal(size=shape)
        assert buf[slot].tobytes() == want.tobytes()


@pytest.mark.parametrize("n_slots", [-1, True, np.True_, 2.0, "2", None])
def test_channel_draws_rejects_n_slots_that_is_not_a_count(n_slots):
    # True and 2.0 used to reach numpy's TypeError
    topo = swarm.build_ring_topology(1, 2, 2, 2, seed=0)
    with pytest.raises(ValueError, match="n_slots must be an integer >= 0"):
        sim.channel_draws(0, topo, n_slots)
    assert sim.channel_draws(0, topo, np.int64(0)).shape == (0, 1, 2, 2)


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 70 + 3, True, np.True_,
                                  1.0, "3", None])
def test_every_seed_taker_applies_the_config_seed_rule(seed):
    # SimConfig, channel_draws and derive_seed accept the same seeds: the
    # last two masked a seed to 64 bits (-1 drew seed 2**64 - 1's channels,
    # 2**64 seed 0's) and took True as 1
    topo = swarm.build_ring_topology(1, 2, 2, 2, seed=0)
    for take in (lambda: SimConfig(seed=seed),
                 lambda: sim.channel_draws(seed, topo, 1),
                 lambda: sim.derive_seed(seed, sim._TAG_PROBE, 0)):
        with pytest.raises(ValueError, match="seed must be"):
            take()


def test_seed_rule_keeps_the_edge_seeds():
    topo = swarm.build_ring_topology(1, 2, 2, 2, seed=0)
    for seed in (0, sim.MAX_SEED):
        assert sim.checked_seed("seed", np.uint64(seed)) == seed
        assert (sim.channel_draws(np.uint64(seed), topo, 2).tobytes()
                == sim.channel_draws(seed, topo, 2).tobytes())
        assert sim.derive_seed(np.uint64(seed), 1, 0) == sim.derive_seed(seed, 1, 0)
    assert (sim.channel_draws(0, topo, 2).tobytes()
            != sim.channel_draws(sim.MAX_SEED, topo, 2).tobytes())


def test_drift_constants_computed_once_per_topology(monkeypatch):
    calls = []
    real = policy.compute_drift_constants

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(policy, "compute_drift_constants", counting)
    monkeypatch.setattr(sim, "_TOPOLOGY_CACHE", {})
    topo = benchmark_topology(2, 3, 2, 2, 5, 0.02)
    cfg = SimConfig(m_agents=2, state_dim=3, n_tx=2, n_rx=2, horizon=3,
                    noise_scale=0.02, seed=5)
    for seed in range(3):
        sim.run_episode(replace(cfg, seed=seed), topo)
    assert len(calls) == 1
    other = benchmark_topology(2, 3, 2, 2, 6, 0.02, eig_hi=0.9)
    sim.run_episode(cfg, other)
    assert len(calls) == 2
    cached = sim.drift_constants(topo)
    fresh = real(topo.a_global, topo.g_target)
    assert np.array_equal(cached.pi, fresh.pi) and cached.alpha == fresh.alpha


def test_per_topology_results_with_more_than_255_antennas():
    # the memo key holds n_tx as an integer, not as one byte
    topo = swarm.build_ring_topology(1, 2, 256, 2)
    cfg = SimConfig(m_agents=1, state_dim=2, n_tx=256, n_rx=2, horizon=3,
                    scheme="baseline2")
    assert sim.tuned_gains(topo).shape == (1, 256, 2)
    assert sim.run_episode(cfg, topo).n_slots == 3


def test_tuned_gains_per_agent_split(monkeypatch):
    # 0.5 I plants with all-ones actuation have the same A and B bytes at
    # (M, d) = (2, 4) and (4, 2); the second used to get the first's gains
    monkeypatch.setattr(sim, "_TOPOLOGY_CACHE", {})
    for m_count, d in ((2, 4), (4, 2)):
        topo = swarm.SwarmTopology(
            m_agents=m_count, state_dim=d, n_tx=1, n_rx=1,
            a_internal=np.array([0.5 * np.eye(d)] * m_count), couplings={},
            b_actuation=np.ones((m_count, d, 1)),
            w_noise=np.zeros((m_count, d, d)), g_target=np.eye(d * m_count))
        cfg = SimConfig(m_agents=m_count, state_dim=d, n_tx=1, n_rx=1,
                        horizon=3, scheme="baseline2")
        assert sim.tuned_gains(topo).shape == (m_count, 1, 8)
        assert sim.run_episode(cfg, topo).n_slots == 3


def test_tuned_gains_of_a_zero_actuation_plant_are_zero_without_a_riccati_solve(
        monkeypatch):
    # no input reaches a zero-actuation plant, so its LQR gain is 0 for
    # every A, rho(A) = 1 here included; an actuated plant solves once
    solve, solved = baselines.solve_dare, []

    def spy(a, b, q, r):
        solved.append(a)
        return solve(a, b, q, r)

    monkeypatch.setattr(sim, "_TOPOLOGY_CACHE", {})
    monkeypatch.setattr(baselines, "solve_dare", spy)
    k_p = sim.tuned_gains(identity_topology(2, 2, 2, zero_actuation=True))
    assert solved == []
    assert k_p.shape == (2, 2, 4) and not k_p.any()
    sim.tuned_gains(benchmark_topology(2, 3, 2, 2, 5, 0.02))
    assert len(solved) == 1


def test_tuned_gains_call_tune_pid_once_and_raise_its_error(monkeypatch):
    calls, error = [], baselines.DareConvergenceError(float("inf"), [])

    def failing(topology):
        calls.append(topology)
        raise error

    monkeypatch.setattr(sim, "_TOPOLOGY_CACHE", {})
    monkeypatch.setattr(baselines, "tune_pid", failing)
    topo = benchmark_topology(2, 3, 2, 2, 5, 0.02)
    with pytest.raises(baselines.DareConvergenceError) as info:
        sim.tuned_gains(topo)
    assert info.value is error
    assert calls == [topo]


def test_tuned_gains_of_a_nilpotent_plant_that_overflows_raise(monkeypatch):
    # an actuated nilpotent plant whose Riccati iterate overflows raises,
    # without a RuntimeWarning (an error under this suite's filter)
    monkeypatch.setattr(sim, "_TOPOLOGY_CACHE", {})
    topo = swarm.SwarmTopology(
        m_agents=1, state_dim=2, n_tx=1, n_rx=1,
        a_internal=np.array([[[0.0, 1e200], [0.0, 0.0]]]), couplings={},
        b_actuation=np.ones((1, 2, 1)), w_noise=np.zeros((1, 2, 2)),
        g_target=np.eye(2))
    with pytest.raises(baselines.DareConvergenceError):
        sim.tuned_gains(topo)


def test_topology_cache_empties_past_64_entries(monkeypatch):
    cache = {}
    monkeypatch.setattr(sim, "_TOPOLOGY_CACHE", cache)
    for key in range(65):
        assert sim._per_topology((key,), lambda: key) == key
    assert len(cache) == 65
    assert sim._per_topology((0,), lambda: "again") == 0
    assert sim._per_topology((65,), lambda: 65) == 65
    assert cache == {(65,): 65}


def certified_share(monkeypatch, configs_and_topologies):
    """Blocks' conditioned flags and the slots certified_terms answered
    over a set of semantic episodes."""
    certify, answer = policy.certify_channels, policy.certified_terms
    flags, answered = [], []

    def certify_recording(*args):
        block = certify(*args)
        flags.append(block.conditioned)
        return block

    def answer_recording(*args):
        terms = answer(*args)
        answered.append(terms is not None)
        return terms

    monkeypatch.setattr(policy, "certify_channels", certify_recording)
    monkeypatch.setattr(policy, "certified_terms", answer_recording)
    for cfg, topo in configs_and_topologies:
        sim.run_episode(cfg, topo)
    return flags, answered


def test_benchmark_m8_blocks_are_all_conditioned(monkeypatch):
    # the M = 8, d = 9, N = 4 benchmark system: no block holds a channel
    # past the conditioning limit (at tr G tr G^-1 <= 1e6, 6.5% of slots
    # were declined by it); 511 of the 512 slots are certified
    topo = benchmark_topology(8, 9, 4, 4, 0, 0.02)
    runs = [(SimConfig(m_agents=8, state_dim=9, n_tx=4, n_rx=4, horizon=64,
                       p_on=0.001, noise_scale=0.02, x0_value=0.0,
                       r0_value=0.0, seed=seed), topo) for seed in range(8)]
    flags, answered = certified_share(monkeypatch, runs)
    assert len(flags) == 16
    assert all(conditioned.all() for conditioned in flags)
    assert sum(answered) >= 0.99 * len(answered)


@pytest.mark.parametrize("gamma", [1.0, 1e6, 1e-6])
def test_wide_channels_take_the_certified_branch(monkeypatch, gamma):
    # criterion 6's M-axis shape (M = 4, d = 3, N_r = 3, N_t = 4): F is
    # wide. No slot was certified while N_t > d was declined; now 1200 of
    # 1200 slots are at gamma = 1 and 1199 of 1200 at gamma = 1e6. At
    # gamma = 1e-6 the cutoff really fires; the first certificate alone
    # answered 100 of 1200 slots there, with the second 1199 are certified
    runs = [(SimConfig(m_agents=4, state_dim=3, n_tx=4, n_rx=3, horizon=300,
                       seed=seed, p_on=0.001, noise_scale=0.02, x0_value=0.0,
                       r0_value=0.0, use_estimated_csi=False, gamma=gamma),
             benchmark_topology(4, 3, 4, 3, seed, 0.02)) for seed in range(4)]
    flags, answered = certified_share(monkeypatch, runs)
    assert all(conditioned.all() for conditioned in flags)
    assert sum(answered) >= 0.99 * len(answered)
