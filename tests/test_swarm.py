import numpy as np
import pytest

import oracles
from swarmtrack import swarm


def dense_matvec(a, x):
    """Naive triple-loop matrix-vector oracle, independent of numpy's dot."""
    out = np.zeros(a.shape[0])
    for i in range(a.shape[0]):
        acc = 0.0
        for j in range(a.shape[1]):
            acc += a[i, j] * x[j]
        out[i] = acc
    return out


def make_state(topology, x=None, r=None, t=0):
    dm = topology.global_dim
    return swarm.SwarmState(
        x=np.zeros(dm) if x is None else np.asarray(x, dtype=float),
        r=np.zeros(dm) if r is None else np.asarray(r, dtype=float), t=t)


def test_ring_topology_single_agent_skips_self_coupling():
    topo = swarm.build_ring_topology(1, state_dim=3, n_tx=2, n_rx=2, seed=5)
    assert topo.couplings == {}
    assert np.array_equal(topo.a_global, topo.a_internal[0])


def test_ring_topology_block_pattern_m3():
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=5)
    d = 2
    expected_nonzero = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)}
    for m in range(3):
        for n in range(3):
            block = topo.a_global[m * d:(m + 1) * d, n * d:(n + 1) * d]
            if (m, n) in expected_nonzero:
                assert np.any(block != 0)
            else:
                assert np.all(block == 0)
    # coupling block duplicates the internal block
    assert np.array_equal(topo.couplings[(0, 1)], topo.a_internal[0])


def test_ring_topology_deterministic():
    t1 = swarm.build_ring_topology(4, state_dim=3, n_tx=2, n_rx=2, seed=99)
    t2 = swarm.build_ring_topology(4, state_dim=3, n_tx=2, n_rx=2, seed=99)
    assert np.array_equal(t1.a_global, t2.a_global)
    assert np.array_equal(t1.b_actuation, t2.b_actuation)


def test_ring_topology_noise_and_target():
    topo = swarm.build_ring_topology(2, state_dim=3, n_tx=2, n_rx=2,
                                     noise_scale=1e-5, seed=1)
    assert np.allclose(topo.w_noise[0], 1e-5 * np.eye(3))
    assert np.array_equal(topo.g_target, np.eye(6))


def test_bhat_places_single_block():
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=0)
    bh = topo.bhat(1)
    assert np.array_equal(bh[2:4], topo.b_actuation[1])
    assert np.all(bh[:2] == 0) and np.all(bh[4:] == 0)


def test_step_swarm_identity_dynamics():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    eye = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=np.array([np.eye(2), np.eye(2)]), couplings={},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=np.eye(4))
    state = make_state(eye, x=[1.0, 2.0, 3.0, 4.0])
    nxt = swarm.step_swarm(eye, state, [np.zeros(2), np.zeros(2)], np.zeros(4))
    assert np.array_equal(nxt.x, state.x)
    assert nxt.t == 1


def test_step_swarm_pure_noise():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    state = make_state(topo)
    w = np.array([0.5, -1.0, 2.0, 0.25])
    nxt = swarm.step_swarm(topo, state, [np.zeros(2), np.zeros(2)], w)
    assert np.array_equal(nxt.x, w)


def test_step_swarm_matches_dense_oracle():
    rng = np.random.default_rng(17)
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=17)
    x = rng.normal(size=6)
    controls = [rng.normal(size=2) for _ in range(3)]
    w = rng.normal(size=6)
    state = make_state(topo, x=x)
    nxt = swarm.step_swarm(topo, state, controls, w)
    expected = dense_matvec(topo.a_global, x) + w
    for m in range(3):
        expected += dense_matvec(topo.bhat(m), controls[m])
    assert np.max(np.abs(nxt.x - expected)) <= 1e-12


def test_step_swarm_rejects_dimension_mismatch():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    state = make_state(topo)
    with pytest.raises(ValueError):
        swarm.step_swarm(topo, state, [np.zeros(2)], np.zeros(4))
    with pytest.raises(ValueError):
        swarm.step_swarm(topo, state, [np.zeros(3), np.zeros(2)], np.zeros(4))
    with pytest.raises(ValueError):
        swarm.step_swarm(topo, state, [np.zeros(2), np.zeros(2)], np.zeros(3))


def random_psd_topology(rng):
    """Ring topology with random PSD plant-noise covariances, some singular."""
    m_count = int(rng.integers(1, 10))
    d = int(rng.integers(1, 6))
    n_rx, n_tx = (int(n) for n in rng.integers(1, 6, size=2))
    topo = swarm.build_ring_topology(m_count, d, n_tx, n_rx,
                                     seed=int(rng.integers(0, 2 ** 32)))
    factors = rng.normal(size=(m_count, d, int(rng.integers(1, d + 1))))
    w = factors @ factors.transpose(0, 2, 1)
    return swarm.SwarmTopology(
        m_agents=m_count, state_dim=d, n_tx=n_tx, n_rx=n_rx,
        a_internal=topo.a_internal, couplings=topo.couplings,
        b_actuation=topo.b_actuation, w_noise=0.5 * (w + w.transpose(0, 2, 1)),
        g_target=topo.g_target)


@pytest.mark.parametrize("case", range(25))
def test_noise_root_matches_per_agent_root(case):
    topo = random_psd_topology(np.random.default_rng(7200 + case))
    for m in range(topo.m_agents):
        root = topo.noise_root[m]
        assert np.max(np.abs(root - oracles.cov_sqrt(topo.w_noise[m]))) <= 1e-12
        assert np.allclose(root @ root, topo.w_noise[m], atol=1e-10)


@pytest.mark.parametrize("case", range(25))
def test_batched_plant_noise_matches_per_agent_loop(case):
    topo = random_psd_topology(np.random.default_rng(7300 + case))
    batched_rng = np.random.default_rng(case)
    loop_rng = np.random.default_rng(case)
    got = swarm.draw_plant_noise(topo, batched_rng)
    want = oracles.draw_plant_noise_loop(topo, loop_rng)
    assert got.shape == (topo.global_dim,)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("case", range(25))
def test_batched_step_swarm_matches_per_agent_loop(case):
    rng = np.random.default_rng(7400 + case)
    topo = random_psd_topology(rng)
    state = make_state(topo, x=rng.normal(size=topo.global_dim),
                       r=rng.normal(size=topo.global_dim))
    received = rng.normal(size=(topo.m_agents, topo.n_rx))
    received[int(rng.integers(0, topo.m_agents))] = 0.0   # a silent agent's row
    noise = rng.normal(size=topo.global_dim)
    nxt = swarm.step_swarm(topo, state, received, noise)
    want = oracles.step_plant_loop(topo, state.x, received, noise)
    assert np.max(np.abs(nxt.x - want)) <= 1e-12
    assert np.array_equal(nxt.r, topo.g_target @ state.r)


def test_step_target_identity_keeps_target():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    state = make_state(topo, r=[1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(swarm.step_target(topo, state), state.r)


def test_step_target_doubling():
    topo = swarm.build_ring_topology(1, state_dim=2, n_tx=2, n_rx=2, seed=3)
    doubling = swarm.SwarmTopology(
        m_agents=1, state_dim=2, n_tx=2, n_rx=2,
        a_internal=topo.a_internal, couplings={},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=2.0 * np.eye(2))
    state = make_state(doubling, r=[1.0, 1.0])
    assert np.array_equal(swarm.step_target(doubling, state), [2.0, 2.0])


def test_step_target_matches_dense_oracle():
    rng = np.random.default_rng(23)
    g = rng.normal(size=(4, 4))
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=23)
    custom = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=topo.a_internal, couplings=topo.couplings,
        b_actuation=topo.b_actuation, w_noise=topo.w_noise, g_target=g)
    r = rng.normal(size=4)
    state = make_state(custom, r=r)
    assert np.max(np.abs(swarm.step_target(custom, state)
                         - dense_matvec(g, r))) <= 1e-12


def test_step_swarm_steps_target():
    # the next state carries both the plant step and r(t+1) = G r(t)
    rng = np.random.default_rng(29)
    g = rng.normal(size=(4, 4))
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=29)
    custom = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=topo.a_internal, couplings=topo.couplings,
        b_actuation=topo.b_actuation, w_noise=topo.w_noise, g_target=g)
    state = make_state(custom, x=rng.normal(size=4), r=rng.normal(size=4))
    nxt = swarm.step_swarm(custom, state, [np.zeros(2), np.zeros(2)],
                           np.zeros(4))
    assert np.array_equal(nxt.r, swarm.step_target(custom, state))
    assert nxt.t == state.t + 1


def test_tracking_error_zero():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    state = make_state(topo, x=[1.0, 2.0, 3.0, 4.0], r=[1.0, 2.0, 3.0, 4.0])
    e, cost = swarm.tracking_error(state)
    assert cost == 0.0
    assert np.all(oracles.error_sigma(e) == 0)


def test_tracking_error_unit_vector():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    state = make_state(topo, x=[1.0, 0.0, 0.0, 0.0])
    e, cost = swarm.tracking_error(state)
    assert cost == 1.0
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.array_equal(oracles.error_sigma(e), expected)


def test_tracking_error_paper_initial_condition():
    # 9 global dims, all plant entries 1, all target entries 100
    topo = swarm.build_ring_topology(1, state_dim=9, n_tx=4, n_rx=4, seed=3)
    state = make_state(topo, x=np.ones(9), r=100.0 * np.ones(9))
    assert swarm.tracking_error(state)[1] == pytest.approx(88209.0)


@pytest.mark.parametrize("case", range(25))
def test_trace_of_outer_product_equals_cost(case):
    rng = np.random.default_rng(6000 + case)
    e = rng.normal(size=int(rng.integers(1, 12)))
    assert np.trace(np.outer(e, e)) == pytest.approx(float(e @ e), rel=1e-12)


def test_step_swarm_linearity_without_noise():
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=31)
    rng = np.random.default_rng(31)
    x1, x2 = rng.normal(size=6), rng.normal(size=6)
    a, b = 0.7, -1.3
    zeros = [np.zeros(2)] * 3
    w0 = np.zeros(6)
    step = lambda x: swarm.step_swarm(topo, make_state(topo, x=x), zeros, w0).x
    assert np.allclose(step(a * x1 + b * x2), a * step(x1) + b * step(x2),
                       atol=1e-10)


def test_topology_json_round_trip_is_exact():
    topo = swarm.build_ring_topology(3, state_dim=4, n_tx=3, n_rx=2, seed=77)
    text = swarm.topology_to_json(topo)
    back = swarm.topology_from_json(text)
    assert np.array_equal(back.a_global, topo.a_global)
    assert np.array_equal(back.b_actuation, topo.b_actuation)
    assert np.array_equal(back.w_noise, topo.w_noise)
    assert np.array_equal(back.g_target, topo.g_target)
    assert back.couplings.keys() == topo.couplings.keys()
    assert swarm.topology_to_json(back) == text


def test_topology_rejects_asymmetric_noise():
    topo = swarm.build_ring_topology(1, state_dim=2, n_tx=2, n_rx=2, seed=3)
    bad = np.array([[[1.0, 0.5], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="symmetric"):
        swarm.SwarmTopology(m_agents=1, state_dim=2, n_tx=2, n_rx=2,
                            a_internal=topo.a_internal, couplings={},
                            b_actuation=topo.b_actuation, w_noise=bad,
                            g_target=np.eye(2))


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        swarm.SwarmState(x=np.array([np.nan]), r=np.array([0.0]))
