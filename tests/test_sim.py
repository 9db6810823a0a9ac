import math

import numpy as np
import pytest

import oracles
from swarmtrack import sim, swarm
from swarmtrack.sim import SimConfig


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


@pytest.mark.parametrize("scheme", sim.SCHEMES)
def test_pinned_episode_metrics(scheme):
    topo = oracles.scaled_stable_topology(3, 2, 2, seed=31, n_tx=3,
                                          noise_scale=1e-2)
    cfg = SimConfig(m_agents=3, state_dim=2, n_tx=3, n_rx=2, horizon=40,
                    scheme=scheme, p_on=0.3, gamma=0.5, noise_scale=1e-2,
                    seed=31, x0_value=1.0, r0_value=0.0)
    metrics = sim.run_episode(cfg, topo)
    avg_cost, avg_tx_power, comm_rate, n_slots, diverged = PINNED_EPISODES[scheme]
    assert metrics.avg_cost == pytest.approx(avg_cost, rel=1e-9, abs=0.0)
    assert metrics.avg_tx_power == pytest.approx(avg_tx_power, rel=1e-9, abs=0.0)
    assert metrics.comm_rate == pytest.approx(comm_rate, rel=1e-9, abs=0.0)
    assert metrics.n_slots == n_slots
    assert metrics.diverged is diverged


def test_divergence_guard_stops_early():
    cfg = SimConfig(m_agents=2, state_dim=3, n_tx=2, n_rx=2, horizon=5000,
                    seed=23)
    metrics = sim.run_episode(cfg)
    assert metrics.diverged
    assert metrics.n_slots < 5000
    assert np.all(np.isfinite(metrics.cost_trajectory))
    assert math.isfinite(metrics.avg_cost)


def test_power_accounting_matches_decision_log():
    topo = oracles.scaled_stable_topology(2, 2, 2, seed=31)
    cfg = SimConfig(m_agents=2, state_dim=2, n_tx=2, n_rx=2, horizon=80,
                    p_on=0.01, gamma=0.5, seed=31)
    metrics = sim.run_episode(cfg, topo, record_decisions=True)
    assert len(metrics.decision_log) == len(metrics.tx_power_trajectory)
    for slot, entries in zip(metrics.tx_power_trajectory, metrics.decision_log):
        recomputed = sum(float(u @ u) for delta, u in entries if delta)
        assert slot == pytest.approx(recomputed, rel=1e-12, abs=1e-15)
    assert metrics.avg_tx_power == pytest.approx(
        float(np.mean(metrics.tx_power_trajectory)))


def test_semantic_never_transmits_with_zero_error():
    topo = identity_topology(1, 2, 2)
    cfg = SimConfig(m_agents=1, state_dim=2, n_tx=2, n_rx=2, horizon=1,
                    p_on=0.5, x0_value=7.0, r0_value=7.0, noise_scale=0.0,
                    seed=5)
    metrics = sim.run_episode(cfg, topo, record_decisions=True)
    assert metrics.cost_trajectory[0] == 0.0
    assert all(delta == 0 for delta, _ in metrics.decision_log[0])


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
    with pytest.raises(sim.CalibrationError):
        sim.calibrate_gamma(cfg, topo, 60.0, n_probe_seeds=2, strict=True)


def test_calibrate_gamma_midrange_out_of_sample():
    # zero initial error: transmit power comes from the noise-driven steady
    # state, which averages tightly over the horizon
    topo = oracles.scaled_stable_topology(2, 2, 2, seed=53, n_tx=4,
                                          noise_scale=1e-2)
    cfg = SimConfig(m_agents=2, state_dim=2, n_tx=4, n_rx=2, horizon=2000,
                    p_on=0.0, noise_scale=1e-2, x0_value=0.0, r0_value=0.0,
                    seed=53)
    probe = [sim.derive_seed(cfg.seed, sim._TAG_PROBE, i) for i in range(3)]
    from dataclasses import replace
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


def test_run_sweep_rejects_unknown_axis():
    base = SimConfig(horizon=5)
    with pytest.raises(ValueError, match="axis"):
        sim.run_sweep(base, "bogus", [1], [0])


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


def test_derive_seed_stable():
    assert sim.derive_seed(5, 1, 0) == sim.derive_seed(5, 1, 0)
    assert sim.derive_seed(5, 1, 0) != sim.derive_seed(5, 1, 1)
    assert sim.derive_seed(5, 1, 0) != sim.derive_seed(6, 1, 0)
