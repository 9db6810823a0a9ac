import numpy as np
import pytest

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
    # how many fixed-point steps a solve takes is part of its output: a
    # rework of the update must take the same steps, converging or not
    topo = swarm.build_ring_topology(2, 3, 2, 2, seed=7)
    sol = baselines.solve_dare(topo.a_global, baselines.static_channel_input(topo),
                               np.eye(6), np.eye(4))
    assert sol.iterations == 32
    # P_k = 4 P_{k-1} + 1 overflows after 511 finite steps, without a
    # RuntimeWarning (an error under this suite's filter)
    with pytest.raises(baselines.DareConvergenceError) as info:
        baselines.solve_dare(np.array([[2.0]]), np.zeros((1, 1)),
                             np.array([[1.0]]), np.array([[1.0]]))
    assert len(info.value.trace) == 511
    assert info.value.residual == float("inf")


def dare_system(system):
    """(A, B, Q, R) of a named Riccati system: one of the 64 experiment cells
    or the M = 8 benchmark system on the rank-M input with R = I / n_tx, a
    4-agent ring that stalls for all DARE_MAX_ITER steps, or the scalar
    a = 2, b = 0 plant whose iterate overflows after 511 steps."""
    if system == "overflow":
        return np.array([[2.0]]), np.zeros((1, 1)), np.eye(1), np.eye(1)
    if system == "ring":
        topo = swarm.build_ring_topology(4, 9, 4, 4, seed=0)
    elif system == "m8":
        topo = benchmark_topology(8, 9, 4, 4, 0, 0.02)
    else:
        topo = benchmark_topology(4, 9, 4, 4, 1000 + int(system[-1]), 0.02)
    b_c = baselines.static_channel_input(topo)[:, ::topo.n_tx]
    return (topo.a_global, b_c, np.eye(topo.global_dim),
            np.eye(topo.m_agents) / topo.n_tx)


def dare_outcome(solve, system):
    """What a solve of the system returns, as bytes: p, gain, residual and
    step count, or the raised error's residual and trace."""
    try:
        sol = solve(*dare_system(system))
    except baselines.DareConvergenceError as err:
        return "error", np.float64(err.residual).tobytes(), \
            np.array(err.trace).tobytes(), len(err.trace)
    return "solved", sol.p.tobytes(), sol.gain.tobytes(), \
        np.float64(sol.residual).tobytes(), sol.iterations


@pytest.mark.parametrize("system", [f"cell-{i}" for i in range(10)]
                         + ["m8", "ring", "overflow"])
def test_solve_dare_matches_the_reference_loop_bit_for_bit(system):
    # the in-place loop with its residual-first finite check has the
    # reference loop's iterates, stopping step, trace and errors
    got = dare_outcome(baselines.solve_dare, system)
    assert got == dare_outcome(oracles.solve_dare_loop, system)
    if system == "ring":
        assert got[0] == "error" and got[3] == baselines.DARE_MAX_ITER
    elif system == "overflow":
        assert got[0] == "error" and got[3] == 511
    else:
        assert got[0] == "solved"


def test_tune_pid_scalar_matches_dare_gain():
    topo = scalar_topology(a=0.5, b=1.0)
    gains = baselines.tune_pid(topo)
    p = dare_scalar_root(0.5)
    k = 0.5 * p / (1.0 + p)
    assert gains.k_p[0][0, 0] == pytest.approx(-k, abs=1e-7)
    assert gains.k_i[0][0, 0] == pytest.approx(-0.05 * k, abs=1e-8)
    assert gains.k_d[0][0, 0] == pytest.approx(-0.1 * k, abs=1e-8)


def test_tune_pid_deterministic():
    topo = swarm.build_ring_topology(2, 2, 2, 2, seed=50)
    scaled = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=0.2 * topo.a_internal,
        couplings={k: 0.2 * v for k, v in topo.couplings.items()},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=topo.g_target)
    g1 = baselines.tune_pid(scaled)
    g2 = baselines.tune_pid(scaled)
    assert np.array_equal(g1.k_p, g2.k_p)


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
    gains = baselines.tune_pid(scaled)
    assert gains.k_p.shape == (2, 2, 4)
    b_eff = baselines.static_channel_input(scaled)
    assert b_eff.shape == (4, 4)
    sol = baselines.solve_dare(scaled.a_global, b_eff, np.eye(4), np.eye(4))
    assert np.allclose(np.vstack(gains.k_p), -sol.gain, atol=1e-12)


def reduced_and_dense_solves(monkeypatch, topo, a_scale):
    """What tune_pid(topo, a_scale) hands solve_dare and gets back, beside the
    dense solve on static_channel_input with R = I; a solve that raises
    gives its DareConvergenceError."""
    solve, handed = baselines.solve_dare, []

    def spy(a, b, q, r):
        handed.append((b, r))
        return solve(a, b, q, r)

    def outcome(fn, *args):
        try:
            return fn(*args)
        except baselines.DareConvergenceError as err:
            return err

    monkeypatch.setattr(baselines, "solve_dare", spy)
    gains = outcome(baselines.tune_pid, topo, a_scale)
    monkeypatch.setattr(baselines, "solve_dare", solve)
    b_eff = baselines.static_channel_input(topo)
    dense = outcome(solve, a_scale * topo.a_global, b_eff,
                    np.eye(topo.global_dim), np.eye(b_eff.shape[1]))
    return gains, handed, dense


@pytest.mark.parametrize("system", ["ring", "fallback-ring", "decoupled-1",
                                    "decoupled-2", "decoupled-4"])
def test_tune_pid_solves_the_rank_m_dare_with_the_dense_gain(monkeypatch, system):
    # tune_pid solves the DARE on the M distinct columns of the static
    # channel input with R = I / n_tx; by the push-through identity that
    # has the dense solve's iterates, so its steps, its failures and (to
    # rounding) its gain; every agent's n_tx rows are one row repeated
    if system == "ring":
        topo = swarm.build_ring_topology(3, 3, 2, 2, seed=0)
    elif system == "fallback-ring":
        topo = swarm.build_ring_topology(2, 9, 4, 4, seed=2)
    else:
        topo = benchmark_topology(3, 9, int(system[-1]), 4, 5, 0.02)
    m_count, n_tx = topo.m_agents, topo.n_tx
    a_scale = 1.0
    gains, handed, dense = reduced_and_dense_solves(monkeypatch, topo, a_scale)
    if system == "fallback-ring":
        # the plant the static channel cannot stabilize: both solves stall
        # for every step, and tuning falls back to 0.9 A / rho(A)
        assert isinstance(gains, baselines.DareConvergenceError)
        assert isinstance(dense, baselines.DareConvergenceError)
        assert len(gains.trace) == len(dense.trace) == baselines.DARE_MAX_ITER
        a_scale = 0.9 / float(np.max(np.abs(np.linalg.eigvals(topo.a_global))))
        gains, handed, dense = reduced_and_dense_solves(monkeypatch, topo, a_scale)
    (b, r), = handed
    assert b.shape == (topo.global_dim, m_count)
    assert np.array_equal(r, np.eye(m_count) / n_tx)
    reduced = baselines.solve_dare(a_scale * topo.a_global, b,
                                   np.eye(topo.global_dim), r)
    assert reduced.iterations == dense.iterations
    assert gains.k_p.shape == (m_count, n_tx, topo.global_dim)
    assert all(np.array_equal(gains.k_p[m, j], gains.k_p[m, 0])
               for m in range(m_count) for j in range(n_tx))
    np.testing.assert_allclose(gains.k_p.reshape(m_count * n_tx, -1), -dense.gain,
                               rtol=1e-10, atol=1e-10 * np.abs(dense.gain).max())


@pytest.mark.parametrize("a_scale", [True, np.True_, float("nan"), float("inf"),
                                     "0.9", None])
def test_tune_pid_rejects_a_scale_that_is_not_a_finite_real(a_scale):
    # True used to tune on A and record a_scale=True in the gains
    with pytest.raises(ValueError, match="a_scale must be finite"):
        baselines.tune_pid(scalar_topology(a=0.5, b=1.0), a_scale=a_scale)


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
    """Gains of M one-antenna agents on an M-vector error: k_p = -I, k_i = k_d = 0."""
    k_p = -np.eye(m_count).reshape(m_count, 1, m_count)
    return baselines.PidGains(k_p=k_p, k_i=0 * k_p, k_d=0 * k_p)


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
    gains = baselines.PidGains(k_p=k_p, k_i=0.5 * k_p, k_d=2.0 * k_p)
    decide = baselines.triggered_decisions(scheme, gains)
    errors = [np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.5, 2.0])]
    for t, e in enumerate(errors):
        fired, controls = decide(t, e)
    assert fired.all()
    want = k_p @ errors[1]
    if law == "pid":
        want = baselines.pid_control(k_p, 0.5 * k_p, 2.0 * k_p, errors[1],
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
