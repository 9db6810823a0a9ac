import numpy as np
import pytest

import oracles
from swarmtrack import channel, policy, stability, swarm
from swarmtrack.policy import PolicyParams


def constant_topology(m_agents, d, n_rx, a_blocks, b_blocks, noise_scale,
                      couplings=None, n_tx=None):
    return swarm.SwarmTopology(
        m_agents=m_agents, state_dim=d, n_tx=n_tx or n_rx, n_rx=n_rx,
        a_internal=np.array(a_blocks, dtype=float),
        couplings=couplings or {},
        b_actuation=np.array(b_blocks, dtype=float),
        w_noise=np.array([noise_scale * np.eye(d)] * m_agents),
        g_target=np.eye(d * m_agents))


def silent_decisions(m_agents, n_tx):
    """(deltas, controls) of a swarm where nobody transmits."""
    return np.zeros(m_agents, dtype=bool), np.zeros((m_agents, n_tx))


def no_channels(topo):
    """Channels for silent decisions, which never read them."""
    return np.zeros((topo.m_agents, topo.n_rx, topo.n_tx))


def test_drift_bound_all_silent():
    topo = swarm.build_ring_topology(2, 2, 2, 2, noise_scale=1e-3, seed=9)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    e = np.array([1.0, -1.0, 2.0, 0.5])
    sigma = np.outer(e, e)
    got = stability.drift_bound(e, *silent_decisions(2, 2), no_channels(topo),
                                topo, constants)
    expected = (topo.w_global_trace()
                + sum(np.trace(topo.b_actuation[m] @ topo.b_actuation[m].T)
                      for m in range(2))
                + (constants.alpha - 1.0) * np.trace(sigma))
    assert got == pytest.approx(expected, rel=1e-12)


def test_drift_bound_zero_error_silent():
    topo = swarm.build_ring_topology(2, 2, 2, 2, noise_scale=1e-3, seed=9)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    got = stability.drift_bound(np.zeros(4), *silent_decisions(2, 2),
                                no_channels(topo), topo, constants)
    expected = topo.w_global_trace() + sum(
        np.trace(topo.b_actuation[m] @ topo.b_actuation[m].T) for m in range(2))
    assert got == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("case", range(10))
def test_drift_bound_matches_term_by_term_oracle(case):
    rng = np.random.default_rng(800 + case)
    topo = swarm.build_ring_topology(int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4)), 2, 2,
                                     noise_scale=1e-2,
                                     seed=int(rng.integers(0, 1000)))
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    e = rng.normal(size=topo.global_dim)
    params = PolicyParams(p_on=float(rng.uniform(0, 2)),
                          gamma=float(rng.uniform(0, 2)))
    hs = [rng.normal(size=(2, 2)) for _ in range(topo.m_agents)]
    deltas, controls = oracles.decision_arrays(oracles.library_decisions(
        e, topo.b_actuation, hs, constants, params))
    got = stability.drift_bound(e, deltas, controls, hs, topo, constants)
    expected = oracles.naive_drift_bound(e, deltas, controls, hs, topo,
                                         constants)
    assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)


def test_silent_agent_control_row_is_ignored():
    # a silent agent's control row does not enter the drift, whatever it holds
    rng = np.random.default_rng(16)
    topo = swarm.build_ring_topology(3, 2, 2, 2, noise_scale=1e-2, seed=16)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    x, r = rng.normal(size=6), rng.normal(size=6)
    e = x - r
    hs = rng.normal(size=(3, 2, 2))
    deltas = np.array([True, False, True])
    controls = rng.normal(size=(3, 2))
    zeroed = controls.copy()
    zeroed[1] = 0.0
    assert stability.drift_bound(e, deltas, controls, hs, topo, constants) == \
        stability.drift_bound(e, deltas, zeroed, hs, topo, constants)
    assert stability.empirical_drift(topo, x, r, deltas, controls, hs, 200,
                                     np.random.default_rng(17)) == \
        stability.empirical_drift(topo, x, r, deltas, zeroed, hs, 200,
                                  np.random.default_rng(17))


@pytest.mark.parametrize("case", range(5))
def test_empirical_drift_samples_the_episode_plant(case):
    # each draw is one slot of the episode plant: reception delta H u + v,
    # plant noise root(W_m) z_m and x' = A x + sum_m Bhat_m uhat_m + w,
    # with the (M, n, N_r) reception normals drawn before the (M, n, d)
    # plant normals
    rng = np.random.default_rng(850 + case)
    topo = swarm.build_ring_topology(int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4)), 2, 3,
                                     noise_scale=1e-2,
                                     seed=int(rng.integers(0, 1000)))
    m_count, d = topo.m_agents, topo.state_dim
    x, r = rng.normal(size=topo.global_dim), rng.normal(size=topo.global_dim)
    deltas = rng.integers(0, 2, size=m_count).astype(bool)
    controls = rng.normal(size=(m_count, 2))
    h = rng.normal(size=(m_count, 3, 2))
    n = 7
    mean, _ = stability.empirical_drift(topo, x, r, deltas, controls, h, n,
                                        np.random.default_rng(case))
    gen = np.random.default_rng(case)
    v = gen.normal(size=(m_count, n, 3))
    z = gen.normal(size=(m_count, n, d))
    e = x - r
    drifts = []
    for k in range(n):
        received = [h[m] @ controls[m] + v[m, k] if deltas[m] else v[m, k]
                    for m in range(m_count)]
        noise = np.concatenate([oracles.cov_sqrt(topo.w_noise[m]) @ z[m, k]
                                for m in range(m_count)])
        e_next = (oracles.step_plant_loop(topo, x, received, noise)
                  - topo.g_target @ r)
        drifts.append(float(e_next @ e_next) - float(e @ e))
    assert mean == pytest.approx(sum(drifts) / n, rel=1e-12, abs=1e-12)


def test_empirical_drift_steps_the_slot_loops_functions(monkeypatch):
    # 5000 draws run as two chunks (4096 + 904); each chunk forms its
    # inputs with one block_inputs (one plant-noise map) and steps once,
    # and reception is never called on its own
    calls = {}

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((channel, "receive_control"), (swarm, "block_inputs"),
                         (swarm, "draw_plant_noise"), (swarm, "step_swarm"),
                         (swarm, "step_target"), (swarm, "tracking_error")):
        counted(module, name)
    topo = swarm.build_ring_topology(2, 2, 2, 3, noise_scale=1e-2, seed=5)
    rng = np.random.default_rng(5)
    stability.empirical_drift(topo, rng.normal(size=4), np.zeros(4),
                              np.array([True, False]), rng.normal(size=(2, 2)),
                              rng.normal(size=(2, 3, 2)), 5000,
                              np.random.default_rng(6))
    assert calls == {"tracking_error": 1, "block_inputs": 2, "draw_plant_noise": 2,
                     "step_swarm": 2, "step_target": 2}


def test_empirical_drift_deterministic_frozen_system():
    # No plant noise, no actuation (so channel noise cannot enter), A = G = I:
    # the error never moves and the drift is exactly zero.
    topo = constant_topology(2, 2, 2,
                             a_blocks=[np.eye(2), np.eye(2)],
                             b_blocks=[np.zeros((2, 2)), np.zeros((2, 2))],
                             noise_scale=0.0)
    x, r = np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4)
    mean, stderr = stability.empirical_drift(
        topo, x, r, *silent_decisions(2, 2), no_channels(topo), 500,
        np.random.default_rng(0))
    assert mean == 0.0
    assert stderr == 0.0


def test_empirical_drift_of_one_draw_has_no_standard_error():
    topo = constant_topology(2, 2, 2,
                             a_blocks=[np.eye(2), np.eye(2)],
                             b_blocks=[np.zeros((2, 2)), np.zeros((2, 2))],
                             noise_scale=0.0)
    x, r = np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4)
    mean, stderr = stability.empirical_drift(
        topo, x, r, *silent_decisions(2, 2), no_channels(topo), 1,
        np.random.default_rng(0))
    assert mean == 0.0 and stderr == float("inf")


@pytest.mark.parametrize("n_draws", [0, -1, True, np.True_, 2.5, "2", None])
def test_empirical_drift_rejects_n_draws_that_is_not_a_positive_count(n_draws):
    # 0 used to divide by zero, -1 to reach numpy's negative dimensions, and
    # True or 2.5 numpy's TypeError
    topo = constant_topology(1, 2, 2, a_blocks=[np.eye(2)],
                             b_blocks=[np.eye(2)], noise_scale=0.0)
    with pytest.raises(ValueError, match="n_draws must be an integer >= 1"):
        stability.empirical_drift(topo, np.ones(2), np.zeros(2),
                                  *silent_decisions(1, 2), no_channels(topo),
                                  n_draws, np.random.default_rng(0))


def test_empirical_drift_noise_floor_matches_closed_form():
    topo = constant_topology(2, 2, 2,
                             a_blocks=[np.eye(2), np.eye(2)],
                             b_blocks=[np.array([[1.0, 0.0], [0.0, 2.0]]),
                                       np.array([[0.5, 0.0], [0.0, 1.0]])],
                             noise_scale=0.04)
    x, r = np.array([1.0, 2.0, 3.0, 4.0]), np.zeros(4)
    mean, stderr = stability.empirical_drift(
        topo, x, r, *silent_decisions(2, 2), no_channels(topo), 60000,
        np.random.default_rng(1))
    expected = topo.w_global_trace() + sum(
        np.trace(topo.b_actuation[m] @ topo.b_actuation[m].T) for m in range(2))
    assert abs(mean - expected) <= 3.0 * stderr


def test_empirical_drift_within_analytic_bound():
    rng = np.random.default_rng(5)
    topo = swarm.build_ring_topology(2, 2, 2, 2, noise_scale=1e-2, seed=5)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    x, r = rng.normal(size=4), rng.normal(size=4)
    e = x - r
    params = PolicyParams(p_on=0.5, gamma=0.5)
    hs = [rng.normal(size=(2, 2)) for _ in range(2)]
    deltas, controls = oracles.decision_arrays(oracles.library_decisions(
        e, topo.b_actuation, hs, constants, params))
    mean, stderr = stability.empirical_drift(topo, x, r, deltas, controls, hs,
                                             40000, np.random.default_rng(6))
    bound = stability.drift_bound(e, deltas, controls, hs, topo, constants)
    assert mean <= bound + 3.0 * stderr


def test_empirical_drift_order_independent_mean():
    topo = swarm.build_ring_topology(1, 2, 2, 2, noise_scale=1e-2, seed=3)
    x, r = np.ones(2), np.zeros(2)
    deltas, controls = silent_decisions(1, 2)
    hs = no_channels(topo)
    m1, s1 = stability.empirical_drift(topo, x, r, deltas, controls, hs, 5000,
                                       np.random.default_rng(7))
    m2, s2 = stability.empirical_drift(topo, x, r, deltas, controls, hs, 5000,
                                       np.random.default_rng(7))
    assert m1 == m2 and s1 == s2


def test_compute_masks_full_rank_square():
    topo = constant_topology(1, 3, 3, a_blocks=[np.eye(3)],
                             b_blocks=[np.eye(3)], noise_scale=0.0)
    masks = stability.compute_masks(topo, np.eye(3)[None, :, :])
    assert np.array_equal(masks, np.ones((1, 3)))


def test_compute_masks_zero_channel():
    topo = constant_topology(1, 3, 3, a_blocks=[np.eye(3)],
                             b_blocks=[np.eye(3)], noise_scale=0.0)
    masks = stability.compute_masks(topo, np.zeros((1, 3, 3)))
    assert np.array_equal(masks, np.zeros((1, 3)))


def test_compute_masks_support_equals_numerical_rank():
    rng = np.random.default_rng(10)
    topo = swarm.build_ring_topology(2, 9, 9, 9, seed=10)
    chans = channel.draw_channels(rng, 2, 9, 9)
    supports = stability.compute_masks(topo, chans).sum(axis=1)
    for m in range(2):
        e = oracles.bhat(topo, m) @ chans[m]
        assert supports[m] == np.linalg.matrix_rank(e, tol=1e-8)
        assert supports[m] == 9


def test_compute_masks_stacked_draws_match_per_draw_calls():
    rng = np.random.default_rng(18)
    topo = swarm.build_ring_topology(3, 2, 2, 2, seed=18)
    h = rng.normal(size=(6, 3, 2, 2))
    h[2] = 0.0
    h[4, 1, :, 1] = h[4, 1, :, 0]
    stacked = stability.compute_masks(topo, h)
    assert stacked.shape == (6, 3, 6)
    for t in range(len(h)):
        assert np.array_equal(stacked[t], stability.compute_masks(topo, h[t]))


def full_svd_masks(topology, h):
    """compute_masks' rule on the singular values of a full thin SVD."""
    spectra = policy.factorize_agent(topology.b_actuation, h)[1] ** 2
    diag = np.zeros(spectra.shape[:-1] + (topology.global_dim,))
    diag[..., :spectra.shape[-1]] = (
        spectra > stability.DEFAULT_MASK_REL_TOL * spectra[..., :1])
    return diag


@pytest.mark.parametrize("m_count,d,n_tx,n_rx", [(4, 9, 4, 4), (2, 3, 5, 2),
                                                 (1, 4, 4, 6), (3, 2, 1, 3)])
def test_compute_masks_match_full_svd_masks(m_count, d, n_tx, n_rx):
    # singular values alone give the masks of the full SVD, bit for bit,
    # on random, zero and rank-deficient draws
    rng = np.random.default_rng(19 + d)
    topo = swarm.build_ring_topology(m_count, d, n_tx, n_rx, seed=19)
    h = rng.normal(size=(100, m_count, n_rx, n_tx))
    h[3] = 0.0
    h[5, 0] = 0.0
    if n_tx > 1:
        h[7, :, :, 1] = h[7, :, :, 0]
        h[8, 0, :, -1] = 3.0 * h[8, 0, :, 0]
    h[9] = np.outer(rng.normal(size=n_rx), rng.normal(size=n_tx))
    masks = stability.compute_masks(topo, h)
    assert np.array_equal(masks, full_svd_masks(topo, h))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compute_masks_reject_non_finite_channels(bad):
    topo = swarm.build_ring_topology(2, 3, 2, 2, seed=20)
    h = np.ones((4, 2, 2, 2))
    h[2, 1, 0, 1] = bad
    with pytest.raises(ValueError, match="non-finite"):
        stability.compute_masks(topo, h)


def test_check_stability_full_coverage():
    masks = np.ones((3, 4))
    holds, margin = stability.check_stability_condition(masks, alpha=50.0)
    assert holds
    assert margin == pytest.approx(1.0 / 50.0)


def test_check_stability_empty_coverage():
    masks = np.zeros((3, 4))
    holds, margin = stability.check_stability_condition(masks, alpha=0.5)
    assert holds and margin == pytest.approx(2.0 - 1.0)
    holds, margin = stability.check_stability_condition(masks, alpha=2.0)
    assert not holds and margin == pytest.approx(0.5 - 1.0)


def test_check_stability_half_coverage_split():
    masks = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
    holds, margin = stability.check_stability_condition(masks, alpha=1.9)
    assert holds and margin == pytest.approx(1.0 / 1.9 - 0.5)
    holds, _ = stability.check_stability_condition(masks, alpha=2.1)
    assert not holds


@pytest.mark.parametrize("case", range(20))
def test_check_stability_monotone_in_coverage(case):
    rng = np.random.default_rng(900 + case)
    dm, m_count = 5, 3
    diags = (rng.random(size=(m_count, dm)) < 0.5).astype(float)
    alpha = float(rng.uniform(0.5, 4.0))
    _, margin = stability.check_stability_condition(diags, alpha)
    # add coverage at one random empty position
    zeros = np.argwhere(diags == 0)
    if len(zeros) == 0:
        pytest.skip("already full")
    i, j = zeros[rng.integers(0, len(zeros))]
    diags2 = diags.copy()
    diags2[i, j] = 1.0
    _, margin2 = stability.check_stability_condition(diags2, alpha)
    assert margin2 >= margin


def test_drift_bound_optimal_decision_is_smallest():
    rng = np.random.default_rng(12)
    topo = swarm.build_ring_topology(2, 2, 2, 2, noise_scale=1e-2, seed=12)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    e = rng.normal(size=4)
    params = PolicyParams(p_on=0.0, gamma=0.0)
    hs = [rng.normal(size=(2, 2)) for _ in range(2)]
    deltas, controls = oracles.decision_arrays(oracles.library_decisions(
        e, topo.b_actuation, hs, constants, params))
    best = stability.drift_bound(e, deltas, controls, hs, topo, constants)
    for _ in range(50):
        # gain + 0.3 N sends u - 0.3 N e (the n_tx x dM gain perturbation)
        perturbed = np.array([controls[m] - 0.3 * rng.normal(size=(2, 4)) @ e
                              for m in range(2)])
        # gamma = P_on = 0: the bound is exactly the summed objectives plus
        # decision-independent terms, so the optimizer minimizes it
        assert best <= stability.drift_bound(e, np.ones(2, dtype=bool),
                                             perturbed, hs, topo,
                                             constants) + 1e-9
    silent = silent_decisions(2, 2)
    assert best <= stability.drift_bound(e, *silent, hs, topo, constants) + 1e-9


def test_stability_report_document():
    rng = np.random.default_rng(14)
    topo = swarm.build_ring_topology(1, 3, 3, 3, seed=14)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    draws = np.array([channel.draw_channels(rng, 1, 3, 3) for _ in range(20)])
    report = stability.stability_report(topo, constants, draws)
    assert report["n_draws"] == 20
    assert 0.0 <= report["fraction_holds"] <= 1.0
    assert report["alpha"] == pytest.approx(constants.alpha)
    assert len(report["mean_support_per_agent"]) == 1
    if report["fraction_holds"] == 1.0:
        assert report["verdict"] == "stable"


@pytest.mark.parametrize("m_agents,d,n", [(1, 3, 3), (1, 3, 4), (3, 2, 2)])
def test_batched_stability_report_matches_draw_loop(m_agents, d, n):
    # one stacked SVD over all draws gives the per-draw report exactly,
    # zero and rank-deficient draws included
    rng = np.random.default_rng(15)
    topo = swarm.build_ring_topology(m_agents, d, n, n, seed=15)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    h = rng.normal(size=(40, m_agents, n, n))
    h[3] = 0.0
    h[7, 0] = 0.0
    h[11, :, :, 1] = h[11, :, :, 0]
    h[12, 0, 1:] = 0.0
    want = oracles.stability_report_loop(topo, constants, list(h))
    assert 0.0 < want["fraction_holds"] < 1.0 or m_agents > 1
    assert stability.stability_report(topo, constants, h) == want
    assert stability.stability_report(topo, constants, h[:0]) == \
        oracles.stability_report_loop(topo, constants, [])
