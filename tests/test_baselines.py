import numpy as np
import pytest

import episode_digest
import oracles
from swarmtrack import baselines, swarm
from test_acceptance import benchmark_topology


def scalar_topology(a, b):
    return swarm.SwarmTopology(
        m_agents=1, state_dim=1, n_tx=1, n_rx=1,
        a_internal=np.array([[[a]]]), couplings={},
        b_actuation=np.array([[[b]]]),
        w_noise=np.array([[[1e-5]]]), g_target=np.eye(1))


def dare_scalar_root(a):
    # positive root of p^2 - a^2 p - 1 = 0 (scalar DARE with b=q=r=1)
    return (a * a + np.sqrt(a ** 4 + 4.0)) / 2.0


def test_solve_dare_zero_plant():
    q = np.diag([2.0, 3.0])
    sol = baselines.solve_dare(np.zeros((2, 2)), np.eye(2), q, np.eye(2))
    assert np.allclose(sol.p, q, atol=1e-12)
    assert np.allclose(sol.gain, 0.0, atol=1e-12)


def test_solve_dare_scalar_quadratic_root():
    a = 0.9
    sol = baselines.solve_dare(np.array([[a]]), np.array([[1.0]]),
                               np.array([[1.0]]), np.array([[1.0]]))
    p = dare_scalar_root(a)
    assert sol.p[0, 0] == pytest.approx(p, abs=1e-7)
    assert sol.gain[0, 0] == pytest.approx(a * p / (1.0 + p), abs=1e-7)


def test_solve_dare_no_input_matches_lyapunov_series():
    rng = np.random.default_rng(44)
    a = rng.normal(size=(3, 3))
    a *= 0.8 / np.max(np.abs(np.linalg.eigvals(a)))
    q = np.eye(3)
    sol = baselines.solve_dare(a, np.zeros((3, 1)), q, np.eye(1))
    series = np.zeros((3, 3))
    term = q.copy()
    ak = np.eye(3)
    for _ in range(2000):
        series += ak.T @ q @ ak
        ak = a @ ak
    assert np.allclose(sol.p, series, atol=1e-6)


def test_solve_dare_residual_contract():
    rng = np.random.default_rng(45)
    for case in range(20):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        a *= 0.9 / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-9)
        b = rng.normal(size=(n, max(1, n - 1)))
        sol = baselines.solve_dare(a, b, np.eye(n), np.eye(b.shape[1]))
        btp = b.T @ sol.p
        gain = np.linalg.solve(np.eye(b.shape[1]) + btp @ b, btp @ a)
        residual = a.T @ sol.p @ a - a.T @ sol.p @ b @ gain + np.eye(n) - sol.p
        assert np.max(np.abs(residual)) <= 1e-8
        assert np.allclose(sol.p, sol.p.T, atol=1e-10)
        assert np.linalg.eigvalsh(sol.p).min() >= -1e-10


def test_solve_dare_divergence_raises_with_trace():
    # strongly unstable scalar plant with no input cannot converge
    with pytest.raises(baselines.DareConvergenceError) as info:
        baselines.solve_dare(np.array([[2.0]]), np.zeros((1, 1)),
                             np.array([[1.0]]), np.array([[1.0]]))
    assert len(info.value.trace) > 0


def test_solve_dare_iteration_counts_are_pinned():
    # how many doubling steps a solve takes is part of its output: a rework
    # of the step must take the same steps, converging or not
    topo = swarm.build_ring_topology(2, 3, 2, 2, seed=7)
    sol = baselines.solve_dare(topo.a_global, oracles.static_channel_input(topo),
                               np.eye(6), np.eye(4))
    assert sol.iterations == 7
    assert baselines.solve_dare(*dare_system("m8")).iterations == 10
    assert baselines.solve_dare(*dare_system("ring")).iterations == 7
    # H_k = (4**(2**k) - 1) / 3 overflows after 9 finite steps (the fixed
    # point's 511), without a RuntimeWarning (an error under this suite's
    # filter)
    with pytest.raises(baselines.DareConvergenceError) as info:
        baselines.solve_dare(*dare_system("overflow"))
    assert len(info.value.trace) == 9
    assert info.value.residual == float("inf")


def dare_system(system):
    """(A, B, Q, R) of a named Riccati system: one of the 64 experiment cells
    or the M = 8 benchmark system on the rank-M input with R = I / n_tx, a
    4-agent ring on which the fixed point stalls for all of its steps, or
    the scalar a = 2, b = 0 plant whose iterate overflows."""
    if system == "overflow":
        return np.array([[2.0]]), np.zeros((1, 1)), np.eye(1), np.eye(1)
    if system == "ring":
        topo = swarm.build_ring_topology(4, 9, 4, 4, seed=0)
    elif system == "m8":
        topo = benchmark_topology(8, 9, 4, 4, 0, 0.02)
    else:
        topo = benchmark_topology(4, 9, 4, 4, 1000 + int(system.split("-")[1]), 0.02)
    b_c = oracles.static_channel_input(topo)[:, ::topo.n_tx]
    return (topo.a_global, b_c, np.eye(topo.global_dim),
            np.eye(topo.m_agents) / topo.n_tx)


def closed_loop_radius(a, b, gain):
    return float(np.max(np.abs(np.linalg.eigvals(a - b @ gain))))


# The reference loop stops at max|dP| < 1e-8; its steps contract by the
# closed loop's rho**2, with rho up to 0.95 on the benchmark systems, so
# its P may still be 1e-8 / (1 - 0.95**2) = 1e-7 from the solution, and
# its gain about as far relative to max|gain| (3.1e-9 at most, measured).
REFERENCE_GAIN_RTOL = 1e-7


@pytest.mark.parametrize("system", [f"cell-{i}" for i in range(64)]
                         + ["m8", "ring", "overflow"])
def test_solve_dare_agrees_with_the_reference_loop(system):
    # where the fixed point converges the gains agree; on the ring it
    # stalls for all of its steps, and the doubling solve still returns a
    # stabilising gain; the overflowing plant raises in both
    a, b, q, r = dare_system(system)
    try:
        ref = oracles.solve_dare_loop(a, b, q, r)
    except baselines.DareConvergenceError as err:
        ref = err
    if system == "overflow":
        with pytest.raises(baselines.DareConvergenceError) as info:
            baselines.solve_dare(a, b, q, r)
        assert info.value.residual == ref.residual == float("inf")
        return
    sol = baselines.solve_dare(a, b, q, r)
    assert closed_loop_radius(a, b, sol.gain) < 1
    assert sol.residual <= baselines.DARE_RESIDUAL_RTOL
    if system == "ring":
        assert isinstance(ref, baselines.DareConvergenceError)
        assert len(ref.trace) == oracles.DARE_MAX_ITER
    else:
        np.testing.assert_allclose(
            sol.gain, ref.gain, rtol=0,
            atol=REFERENCE_GAIN_RTOL * np.abs(ref.gain).max())


def fixed_point_step(a, b, q, r, p):
    btpa = b.T @ p @ a
    return a.T @ p @ a - btpa.T @ np.linalg.solve(r + b.T @ p @ b, btpa) + q


def test_doubling_step_k_is_fixed_point_step_2k_minus_1():
    # H_k of the doubling recursion is the fixed-point iterate from P = Q
    # after 2**k - 1 steps, on a decoupled M = 4 system
    a, b, q, r = dare_system("cell-0")
    a_k, g, h = a, b @ np.linalg.solve(r, b.T), q
    p, steps = q, 0
    for k in range(1, 6):
        a_k, g, h = baselines._doubling_step(a_k, g, h)
        while steps < 2 ** k - 1:
            p, steps = fixed_point_step(a, b, q, r, p), steps + 1
        assert np.abs(h - p).max() <= 1e-12 * np.abs(p).max(), k


@pytest.mark.parametrize("a, b, q, length, residual", [
    # the first mode is unstable and no input reaches it: it overflows
    (np.diag([2.0, 0.5]), np.array([[0.0], [1.0]]), np.eye(2), 9, float("inf")),
    # a marginal mode no input reaches grows H by 1 per fixed-point step
    # and never settles
    (np.diag([1.0, 0.5]), np.array([[0.0], [1.0]]), np.eye(2), 32, 2.0 ** -32),
    # Q = 0 does not see the unstable mode: H stays 0, a DARE solution
    # whose closed loop (rho 2) is not stable
    (np.array([[2.0]]), np.eye(1), np.zeros((1, 1)), 1, 0.0),
], ids=["unstabilisable", "marginal", "undetectable"])
def test_solve_dare_rejects_a_system_without_a_stabilising_solution(
        a, b, q, length, residual):
    with pytest.raises(baselines.DareConvergenceError) as info:
        baselines.solve_dare(a, b, q, np.eye(1))
    assert len(info.value.trace) == length
    assert info.value.residual == pytest.approx(residual, rel=1e-12)


def test_criterion_5_rings_solve_with_a_stabilising_gain():
    # the 20 rings of criterion 5 (M = 4, d = 9, N_t = N_r = 4): the
    # static channel stabilises each, and the residual meets the bound
    for seed in range(20):
        topo = swarm.build_ring_topology(4, 9, 4, 4, 1e-5, seed)
        b_c = oracles.static_channel_input(topo)[:, ::4]
        sol = baselines.solve_dare(topo.a_global, b_c, np.eye(36), np.eye(4) / 4)
        assert closed_loop_radius(topo.a_global, b_c, sol.gain) < 1, seed
        assert sol.residual <= baselines.DARE_RESIDUAL_RTOL, seed


def test_tune_pid_scalar_matches_dare_gain():
    topo = scalar_topology(a=0.5, b=1.0)
    k_p = baselines.tune_pid(topo)
    p = dare_scalar_root(0.5)
    k = 0.5 * p / (1.0 + p)
    assert k_p.shape == (1, 1, 1)
    assert k_p[0][0, 0] == pytest.approx(-k, abs=1e-7)
    # the integral and derivative gains are these fixed multiples of k_p
    assert (baselines.KAPPA_I, baselines.KAPPA_D) == (0.05, 0.1)


def test_tune_pid_deterministic():
    topo = swarm.build_ring_topology(2, 2, 2, 2, seed=50)
    scaled = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=0.2 * topo.a_internal,
        couplings={k: 0.2 * v for k, v in topo.couplings.items()},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=topo.g_target)
    assert np.array_equal(baselines.tune_pid(scaled), baselines.tune_pid(scaled))


def test_tune_pid_splits_dare_gain_per_agent():
    # k_p is the static-channel DARE gain, negated and split into per-agent
    # row blocks; baseline 3 sends k_p @ e alone
    topo = swarm.build_ring_topology(2, 2, 2, 2, seed=51)
    scaled = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=0.1 * topo.a_internal,
        couplings={k: 0.1 * v for k, v in topo.couplings.items()},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=topo.g_target)
    k_p = baselines.tune_pid(scaled)
    assert k_p.shape == (2, 2, 4)
    b_eff = oracles.static_channel_input(scaled)
    assert b_eff.shape == (4, 4)
    sol = baselines.solve_dare(scaled.a_global, b_eff, np.eye(4), np.eye(4))
    assert np.allclose(np.vstack(k_p), -sol.gain, atol=1e-12)


def reduced_and_dense_solves(monkeypatch, topo):
    """What tune_pid(topo) hands solve_dare and gets back, beside the dense
    solve on the dense oracles.static_channel_input with R = I."""
    solve, handed = baselines.solve_dare, []

    def spy(a, b, q, r):
        handed.append((b, r))
        return solve(a, b, q, r)

    monkeypatch.setattr(baselines, "solve_dare", spy)
    k_p = baselines.tune_pid(topo)
    monkeypatch.setattr(baselines, "solve_dare", solve)
    b_eff = oracles.static_channel_input(topo)
    dense = solve(topo.a_global, b_eff, np.eye(topo.global_dim),
                  np.eye(b_eff.shape[1]))
    return k_p, handed, dense


@pytest.mark.parametrize("system", ["ring", "fallback-ring", "decoupled-1",
                                    "decoupled-2", "decoupled-4"])
def test_tune_pid_solves_the_rank_m_dare_with_the_dense_gain(monkeypatch, system):
    # tune_pid solves the DARE on the M distinct columns of the static
    # channel input with R = I / n_tx; both inputs give the same G_0, so
    # the same doubling steps and (to rounding) the same gain; every
    # agent's n_tx rows are one row repeated. The fallback ring is one the
    # fixed-point loop cannot solve: it stalls there for every step
    if system == "ring":
        topo = swarm.build_ring_topology(3, 3, 2, 2, seed=0)
    elif system == "fallback-ring":
        topo = swarm.build_ring_topology(2, 9, 4, 4, seed=2)
    else:
        topo = benchmark_topology(3, 9, int(system[-1]), 4, 5, 0.02)
    m_count, n_tx = topo.m_agents, topo.n_tx
    k_p, handed, dense = reduced_and_dense_solves(monkeypatch, topo)
    (b, r), = handed
    assert b.shape == (topo.global_dim, m_count)
    assert np.array_equal(r, np.eye(m_count) / n_tx)
    reduced = baselines.solve_dare(topo.a_global, b, np.eye(topo.global_dim), r)
    assert reduced.iterations == dense.iterations
    assert k_p.shape == (m_count, n_tx, topo.global_dim)
    assert all(np.array_equal(k_p[m, j], k_p[m, 0])
               for m in range(m_count) for j in range(n_tx))
    # both gains carry rounding of order eps times P's condition number,
    # which is 4e7 on the fallback ring
    tol = max(1e-10, 100 * np.finfo(float).eps * np.linalg.cond(dense.p))
    np.testing.assert_allclose(k_p.reshape(m_count * n_tx, -1), -dense.gain,
                               rtol=tol, atol=tol * np.abs(dense.gain).max())


def static_channel_systems(group):
    """The topologies of a named group: the 64 experiment cells, the M = 8
    benchmark system, the 20 criterion-5 rings, every topology of the
    episode digest set (N_r in {2, 3, 4, 9}) or an N_r = 1 ring."""
    if group == "cells":
        return [benchmark_topology(4, 9, 4, 4, 1000 + i, 0.02) for i in range(64)]
    if group == "m8":
        return [benchmark_topology(8, 9, 4, 4, 0, 0.02)]
    if group == "criterion-5-rings":
        return [swarm.build_ring_topology(4, 9, 4, 4, 1e-5, seed) for seed in range(20)]
    if group == "digest-set":
        return list({id(t): t for _, _, t in episode_digest.episodes()}.values())
    return [swarm.build_ring_topology(3, 3, 2, 1, seed=0)]


@pytest.mark.parametrize("group", ["cells", "m8", "criterion-5-rings",
                                   "digest-set", "n_r=1"])
def test_tune_pid_input_is_every_n_tx_th_column_of_the_dense_input(
        monkeypatch, group):
    # the rank-M input tune_pid builds from b_actuation is, bit for bit,
    # the dense static-channel input's columns [:, ::n_tx]
    handed = []

    def spy(a, b, q, r):
        handed.append(b)
        return baselines.GareGain(p=q, gain=np.zeros(b.T.shape), residual=0.0,
                                  iterations=0)

    monkeypatch.setattr(baselines, "solve_dare", spy)
    topologies = static_channel_systems(group)
    for topo in topologies:
        baselines.tune_pid(topo)
    assert len(handed) == len(topologies)
    for topo, b in zip(topologies, handed):
        assert np.array_equal(b, oracles.static_channel_input(topo)[:, ::topo.n_tx])


def test_pid_control_zero_error_is_zero():
    k = np.ones((2, 3))
    u = baselines.pid_control(k, k, k, np.zeros(3), np.zeros(3), np.zeros(3))
    assert np.array_equal(u, np.zeros(2))


def test_pid_control_pure_proportional():
    k_p = np.array([[1.0, 0.0], [0.0, 2.0]])
    z = np.zeros_like(k_p)
    e = np.array([3.0, -1.0])
    u = baselines.pid_control(k_p, z, z, e, e, e)
    assert np.allclose(u, k_p @ e)


def test_pid_control_three_step_recurrence():
    rng = np.random.default_rng(52)
    k_p = rng.normal(size=(2, 2))
    k_i = rng.normal(size=(2, 2))
    k_d = rng.normal(size=(2, 2))
    errors = [rng.normal(size=2) for _ in range(3)]
    acc = np.zeros(2)
    prev = errors[0]
    got = []
    for e in errors:
        acc = acc + e
        got.append(baselines.pid_control(k_p, k_i, k_d, e, acc, prev))
        prev = e
    # hand-rolled oracle for the same recurrence
    e0, e1, e2 = errors
    expected = [
        k_p @ e0 + k_i @ e0,
        k_p @ e1 + k_i @ (e0 + e1) + k_d @ (e1 - e0),
        k_p @ e2 + k_i @ (e0 + e1 + e2) + k_d @ (e2 - e1),
    ]
    for g, x in zip(got, expected):
        assert np.allclose(g, x, atol=1e-12)


def test_periodic_trigger():
    assert baselines.periodic_trigger(0, 3)
    assert not baselines.periodic_trigger(4, 3)
    assert all(baselines.periodic_trigger(t, 1) for t in range(10))


def test_state_trigger_fires_on_unchanged_error():
    e = np.array([1.0, 2.0])
    assert baselines.state_trigger(e, e, sigma_m=0.0)


def test_state_trigger_zero_sigma_blocks_changed_error():
    e = np.array([1.0, 2.0])
    e_last = np.array([0.0, 2.0])
    assert not baselines.state_trigger(e, e_last, sigma_m=0.0)


def test_state_trigger_matches_direct_inequality():
    rng = np.random.default_rng(53)
    for _ in range(100):
        e = rng.normal(size=3)
        e_last = rng.normal(size=3)
        sigma = float(rng.uniform(0.0, 2.0))
        lhs = float(np.sum((e - e_last) ** 2))
        rhs = sigma * float(np.sum(e ** 2))
        assert baselines.state_trigger(e, e_last, sigma) == (lhs <= rhs)


@pytest.mark.parametrize("dim", [1, 9, 72])
def test_state_trigger_fires_on_exact_tie(dim):
    # last transmitted error 0 and sigma = 1: both sides are the same sum of
    # squares, so the tie is exact and the printed rule fires
    rng = np.random.default_rng(59 + dim)
    for _ in range(200):
        e = rng.normal(size=dim) * 10.0 ** rng.uniform(-3, 3)
        assert baselines.state_trigger(e, np.zeros(dim), 1.0)


def scalar_trigger_loop(e, e_last, sigma):
    return np.array([baselines.state_trigger(e, row, s)
                     for row, s in zip(e_last, sigma)])


@pytest.mark.parametrize("dim", [1, 9, 72])
def test_state_triggers_match_scalar_loop_bitwise(dim):
    # the batched rule must give every agent the bit of its own scalar call,
    # including ties: e_last = 0 with sigma = 1, and rows equal to e
    rng = np.random.default_rng(71 + dim)
    for case in range(300):
        m_count = int(rng.integers(1, 9))
        scale = 10.0 ** rng.uniform(-5, 5)
        e = rng.normal(size=dim) * scale
        e_last = rng.normal(size=(m_count, dim)) * scale \
            * 10.0 ** rng.uniform(-1, 1, size=(m_count, 1))
        sigma = rng.uniform(0.0, 2.0, size=m_count)
        kind = case % 4
        if kind == 1:
            e_last[:] = 0.0
            sigma[:] = 1.0
        elif kind == 2:
            e_last[rng.random(m_count) < 0.5] = e
        elif kind == 3:
            e_last[0] = 0.0
            sigma[0] = 1.0
            e_last[-1] = e
        got = baselines.state_triggers(e, e_last, sigma)
        assert got.dtype == bool and got.shape == (m_count,)
        assert np.array_equal(got, scalar_trigger_loop(e, e_last, sigma))
        if kind == 1:
            assert got.all()


def test_state_triggers_per_agent_sigma():
    e = np.array([1.0, 2.0])
    e_last = np.array([[0.0, 2.0], [0.0, 2.0], [1.0, 2.0]])
    # ||e - e_last||^2 = 1, 1, 0 against sigma * ||e||^2 = 0, 5, 0
    got = baselines.state_triggers(e, e_last, np.array([0.0, 1.0, 0.0]))
    assert got.tolist() == [False, True, True]


def unit_gains(m_count):
    """k_p of M one-antenna agents on an M-vector error: k_p = -I."""
    return -np.eye(m_count).reshape(m_count, 1, m_count)


def test_triggered_period_is_half_the_swarm_rounded_up():
    for m_count, period in ((1, 1), (2, 1), (4, 2), (5, 3)):
        decide = baselines.triggered_decisions("baseline1", unit_gains(m_count))
        e = np.ones(m_count)
        fired = [decide(t, e)[0] for t in range(7)]
        assert [bool(f.all()) for f in fired] == [t % period == 0 for t in range(7)]
        assert all(f.all() or not f.any() for f in fired)


def test_triggered_sigma_is_the_one_based_agent_index():
    # after e0 = a, the error -2 a deviates by ||3 a||^2 = 9/4 ||e||^2, so
    # the agents with sigma_m = m >= 9/4 fire: m = 3, 4, 5
    decide = baselines.triggered_decisions("baseline2", unit_gains(5))
    a = np.eye(5)[0]
    assert decide(0, a)[0].all()
    fired, controls = decide(1, -2.0 * a)
    assert fired.tolist() == [False, False, True, True, True]
    assert np.array_equal(controls[:2], np.zeros((2, 1)))


@pytest.mark.parametrize("scheme,law", [("baseline2", "pid"), ("baseline3", "p")])
def test_triggered_control_law(scheme, law):
    k_p = np.arange(1.0, 7.0).reshape(2, 1, 3)
    decide = baselines.triggered_decisions(scheme, k_p)
    errors = [np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.5, 2.0])]
    for t, e in enumerate(errors):
        fired, controls = decide(t, e)
    assert fired.all()
    want = k_p @ errors[1]
    if law == "pid":
        want = baselines.pid_control(k_p, baselines.KAPPA_I * k_p,
                                     baselines.KAPPA_D * k_p, errors[1],
                                     errors[0] + errors[1], errors[0])
    assert np.array_equal(controls, want)


def test_triggered_silent_slot_shares_one_read_only_zero_array():
    decide = baselines.triggered_decisions("baseline1", unit_gains(4))
    decide(0, np.ones(4))
    first, second = decide(1, np.ones(4))[1], decide(3, np.ones(4))[1]
    assert first is second and not first.flags.writeable
    assert not first.any()


def test_triggered_decisions_rejects_an_unknown_scheme():
    with pytest.raises(ValueError, match="unknown baseline 'semantic'"):
        baselines.triggered_decisions("semantic", unit_gains(2))


def test_baselines_take_no_channel_argument():
    # channel-obliviousness is structural: no baseline operation accepts
    # CSI, and neither does the decide of an episode's triggered decisions
    import inspect
    decide = baselines.triggered_decisions("baseline2", unit_gains(2))
    for fn in (baselines.tune_pid, baselines.pid_control,
               baselines.periodic_trigger, baselines.state_trigger,
               baselines.state_triggers, baselines.solve_dare,
               baselines.triggered_decisions, decide):
        params = inspect.signature(fn).parameters
        assert not any("h_" in p or p in ("h", "channel", "channels", "csi")
                       for p in params)
