import numpy as np
import pytest

import oracles
from swarmtrack import linalg, policy, swarm
from swarmtrack.policy import PolicyParams


def test_drift_constants_identity_tie():
    c = policy.compute_drift_constants(np.eye(3), np.eye(3))
    assert np.allclose(c.pi, 1.0)
    assert c.alpha == pytest.approx(2.0)


def test_drift_constants_picks_smaller_singulars():
    c = policy.compute_drift_constants(2.0 * np.eye(3), np.eye(3))
    assert np.allclose(c.pi, 1.0)
    assert c.alpha == pytest.approx(8.0)


def test_drift_constants_random_matches_min_of_sorted_spectra():
    rng = np.random.default_rng(21)
    a = rng.normal(size=(5, 5))
    g = rng.normal(size=(5, 5))
    c = policy.compute_drift_constants(a, g)
    sv_a = np.sqrt(np.sort(np.linalg.eigvalsh(a.T @ a))[::-1])
    sv_g = np.sqrt(np.sort(np.linalg.eigvalsh(g.T @ g))[::-1])
    assert np.allclose(c.pi, np.minimum(sv_a, sv_g), atol=1e-10)
    assert c.alpha == pytest.approx(2.0 * max(sv_a[0], sv_g[0]) ** 2, rel=1e-10)


def test_drift_constants_strict_tie_rule_zeroes_ties():
    c = policy.compute_drift_constants(np.eye(2), np.eye(2), strict_ties=True)
    assert np.allclose(c.pi, 0.0)
    mixed = policy.compute_drift_constants(np.diag([2.0, 1.0]), np.eye(2),
                                           strict_ties=True)
    assert np.allclose(mixed.pi, [1.0, 0.0])


def test_drift_constants_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        policy.compute_drift_constants(np.eye(2), np.eye(3))


def test_policy_params_reject_negative_values():
    with pytest.raises(ValueError):
        PolicyParams(p_on=-0.1)
    with pytest.raises(ValueError):
        PolicyParams(gamma=-1.0)


def test_factorize_identity_channel():
    fact = policy.factorize_agent(np.eye(2), np.eye(2))
    assert np.allclose(fact.zeta, np.eye(2), atol=1e-12)


def test_factorize_scaled_identity():
    fact = policy.factorize_agent(2.0 * np.eye(3), np.eye(3))
    assert np.allclose(fact.zeta, np.eye(3) / 4.0, atol=1e-12)


def test_factorize_rank_deficient_zeta_spectrum():
    rng = np.random.default_rng(8)
    bhat = rng.normal(size=(5, 2))
    h = rng.normal(size=(2, 2))
    fact = policy.factorize_agent(bhat, h)
    e = bhat @ h
    sv = np.sqrt(np.clip(np.sort(np.linalg.eigvalsh(e @ e.T))[::-1], 0.0, None))
    expected = np.sort(np.concatenate([sv[:2] ** -2.0, np.zeros(3)]))
    got = np.sort(np.linalg.eigvalsh(fact.zeta))
    assert np.allclose(got, expected, atol=1e-8)
    assert np.linalg.matrix_rank(fact.zeta, tol=1e-10) == np.linalg.matrix_rank(e, tol=1e-10)
    assert np.allclose(fact.zeta, fact.zeta.T, atol=1e-12)


def test_objective_zero_gain_silent():
    params = PolicyParams(p_on=3.0, gamma=1.0)
    val = policy.objective(np.zeros((2, 2)), np.eye(2), np.ones(2), params,
                           2, np.eye(2), 0)
    assert val == 0.0


def test_objective_zero_gain_transmitting_pays_activation():
    params = PolicyParams(p_on=3.0, gamma=1.0)
    val = policy.objective(np.zeros((2, 2)), np.eye(2), np.ones(2), params,
                           2, np.eye(2), 1)
    assert val == pytest.approx(3.0)


def test_objective_scalar_matches_symbolic_form():
    rng = np.random.default_rng(13)
    for _ in range(50):
        pi, s, z, k = rng.uniform(0.1, 3.0, size=4)
        p_on, gamma = rng.uniform(0.0, 2.0, size=2)
        params = PolicyParams(p_on=p_on, gamma=gamma)
        got = policy.objective(np.array([[k]]), np.array([[s]]),
                               np.array([pi]), params, 1, np.array([[z]]), 1)
        expected = -2.0 * pi * k * s + k * k * s + p_on + gamma * k * k * z
        assert got == pytest.approx(expected, rel=1e-12)


def test_objective_rejects_dimension_mismatch():
    params = PolicyParams()
    with pytest.raises(ValueError):
        policy.objective(np.zeros((2, 3)), np.eye(2), np.ones(2), params, 1,
                         np.eye(2), 1)
    with pytest.raises(ValueError):
        policy.objective(np.zeros((2, 2)), np.eye(2), np.ones(3), params, 1,
                         np.eye(2), 1)


def test_gradient_at_zero_gain():
    rng = np.random.default_rng(3)
    e = rng.normal(size=4)
    sigma = np.outer(e, e)
    pi = rng.uniform(0.5, 2.0, size=4)
    params = PolicyParams(p_on=1.0, gamma=0.7)
    grad = policy.objective_gradient(np.zeros((4, 4)), sigma, pi, params, 2,
                                     np.eye(4))
    assert np.allclose(grad, -2.0 * pi[:, None] * sigma, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(19)
    dm = 3
    e = rng.normal(size=dm)
    sigma = np.outer(e, e)
    pi = rng.uniform(0.5, 2.0, size=dm)
    zeta = np.eye(dm) * 0.3
    params = PolicyParams(p_on=1.0, gamma=1.3)
    khat = rng.normal(size=(dm, dm))
    analytic = policy.objective_gradient(khat, sigma, pi, params, 2, zeta)
    fd = oracles.finite_difference_gradient(khat, sigma, pi, params, 2, zeta)
    rel = np.linalg.norm(analytic - fd) / max(np.linalg.norm(analytic), 1e-12)
    assert rel <= 1e-5


def test_solve_agent_zero_error_stays_silent():
    topo = swarm.build_ring_topology(2, 3, 2, 2, seed=4)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    params = PolicyParams(p_on=0.5, gamma=1.0)
    h = np.random.default_rng(5).normal(size=(2, 2))
    dec = policy.solve_agent(np.zeros((6, 6)), topo.bhat(0), h, constants,
                             params, 2)
    assert dec.delta == 0
    assert np.all(dec.gain == 0)
    assert dec.objective == 0.0


def test_solve_agent_free_activation_transmits():
    topo = swarm.build_ring_topology(1, 2, 2, 2, seed=6)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    params = PolicyParams(p_on=0.0, gamma=0.0)
    e = np.array([1.0, -2.0])
    h = np.random.default_rng(7).normal(size=(2, 2))
    dec = policy.solve_agent(np.outer(e, e), topo.bhat(0), h, constants,
                             params, 1)
    assert dec.delta == 1


def test_solve_agent_scalar_closed_form():
    rng = np.random.default_rng(29)
    for _ in range(50):
        pi = float(rng.uniform(0.2, 3.0))
        h = float(rng.uniform(0.3, 2.0)) * rng.choice([-1.0, 1.0])
        e = float(rng.uniform(0.2, 3.0))
        s = e * e
        gamma = float(rng.uniform(0.0, 2.0))
        p_on = float(rng.uniform(0.0, 4.0))
        constants = oracles.scalar_constants(pi)
        params = PolicyParams(p_on=p_on, gamma=gamma)
        dec = policy.solve_agent(np.array([[s]]), np.array([[1.0]]),
                                 np.array([[h]]), constants, params, 1)
        theta = pi ** 2 * s ** 2 / (s + gamma / h ** 2)
        if p_on < theta:
            assert dec.delta == 1
            khat_expected = pi * s / (s + gamma / h ** 2)
            assert dec.gain[0, 0] == pytest.approx(khat_expected / h, rel=1e-9)
            assert dec.objective == pytest.approx(p_on - theta, rel=1e-9)
        else:
            assert dec.delta == 0


def test_solve_agent_khat_consistent_with_gain():
    rng = np.random.default_rng(31)
    topo = swarm.build_ring_topology(3, 2, 2, 2, seed=31)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    params = PolicyParams(p_on=0.01, gamma=0.5)
    e = rng.normal(size=6)
    h = rng.normal(size=(2, 2))
    dec = policy.solve_agent(np.outer(e, e), topo.bhat(1), h, constants,
                             params, 3)
    effective = topo.bhat(1) @ h
    assert np.max(np.abs(dec.khat - dec.delta * effective @ dec.gain)) <= 1e-10


def test_control_signal_silent_is_zero():
    dec = policy.ControlDecision(delta=0, gain=np.zeros((2, 4)),
                                 khat=np.zeros((4, 4)), objective=0.0)
    assert np.array_equal(policy.control_signal(dec, np.ones(4)), np.zeros(2))


def test_control_signal_identity_gain():
    dec = policy.ControlDecision(delta=1, gain=np.eye(3),
                                 khat=np.eye(3), objective=-1.0)
    e = np.array([1.0, -2.0, 0.5])
    assert np.array_equal(policy.control_signal(dec, e), -e)


def test_control_signal_matches_dense_oracle():
    rng = np.random.default_rng(37)
    gain = rng.normal(size=(2, 5))
    e = rng.normal(size=5)
    dec = policy.ControlDecision(delta=1, gain=gain, khat=np.zeros((5, 5)),
                                 objective=-1.0)
    expected = np.array([-sum(gain[i, j] * e[j] for j in range(5))
                         for i in range(2)])
    assert np.max(np.abs(policy.control_signal(dec, e) - expected)) <= 1e-12


@pytest.mark.parametrize("case", range(10))
def test_closed_form_beats_random_candidates(case):
    rng = np.random.default_rng(500 + case)
    topo, constants, e, sigma, params, agent, h = oracles.random_policy_instance(
        rng, d_choices=(1, 2, 3), n_choices=(2, 3))
    fact = policy.factorize_agent(topo.bhat(agent), h)
    quad_pinv = linalg.pseudo_inverse(topo.m_agents * sigma
                                      + params.gamma * fact.zeta)
    khat_star = (constants.pi[:, None] * sigma) @ quad_pinv
    f_star = policy.objective(khat_star, sigma, constants.pi, params,
                              topo.m_agents, fact.zeta, 1)
    dm = sigma.shape[0]
    for _ in range(200):
        cand = rng.normal(size=(dm, dm)) * 10.0 ** rng.integers(-2, 2)
        f_cand = policy.objective(cand, sigma, constants.pi, params,
                                  topo.m_agents, fact.zeta, 1)
        assert f_star <= f_cand + 1e-8 * abs(f_star) + 1e-12


def test_stationarity_of_closed_form():
    rng = np.random.default_rng(71)
    topo, constants, e, sigma, params, agent, h = oracles.random_policy_instance(
        rng, d_choices=(2, 3), n_choices=(2,))
    fact = policy.factorize_agent(topo.bhat(agent), h)
    quad = topo.m_agents * sigma + params.gamma * fact.zeta
    quad_pinv = linalg.pseudo_inverse(quad)
    khat_star = (constants.pi[:, None] * sigma) @ quad_pinv
    grad = policy.objective_gradient(khat_star, sigma, constants.pi, params,
                                     topo.m_agents, fact.zeta)
    projector = quad_pinv @ quad    # onto the row space of the quadratic term
    scale = 1.0 + np.linalg.norm(constants.pi[:, None] * sigma)
    assert np.linalg.norm(grad @ projector) <= 1e-8 * scale


@pytest.mark.parametrize("case", range(20))
def test_decision_consistency_scalar_brute_force(case):
    rng = np.random.default_rng(600 + case)
    pi = float(rng.uniform(0.2, 3.0))
    b = float(rng.uniform(0.3, 1.5)) * rng.choice([-1.0, 1.0])
    h = float(rng.uniform(0.3, 1.5)) * rng.choice([-1.0, 1.0])
    e = float(rng.uniform(0.2, 2.5))
    s = e * e
    gamma = float(rng.uniform(0.0, 1.5))
    p_on = float(rng.uniform(0.0, 3.0))
    dec = policy.solve_agent(np.array([[s]]), np.array([[b]]), np.array([[h]]),
                             oracles.scalar_constants(pi),
                             PolicyParams(p_on=p_on, gamma=gamma), 1)
    delta_grid, _, f_grid = oracles.scalar_grid_optimum(
        pi, s, b, h, 1, p_on, gamma, n_points=200001)
    assert dec.delta == delta_grid
    assert dec.objective <= f_grid + 1e-6


def test_semantic_monotonicity_error_scaling_flips_on():
    rng = np.random.default_rng(41)
    topo = swarm.build_ring_topology(2, 2, 2, 2, seed=41)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    e = rng.normal(size=4)
    h = rng.normal(size=(2, 2))
    params = PolicyParams(p_on=50.0, gamma=1.0)
    base = np.outer(e, e)
    deltas = []
    for c in [1.0, 10.0, 100.0, 1000.0, 10000.0]:
        dec = policy.solve_agent(c * base, topo.bhat(0), h, constants, params, 2)
        deltas.append(dec.delta)
    assert deltas[0] == 0
    assert deltas[-1] == 1
    assert sorted(deltas) == deltas   # single flip from silent to transmitting


def test_semantic_monotonicity_gain_shrinks_with_channel_quality():
    pi, e, gamma = 1.5, 2.0, 0.8
    s = e * e
    constants = oracles.scalar_constants(pi)
    params = PolicyParams(p_on=0.0, gamma=gamma)
    h_min = np.sqrt(gamma / s)
    gains = []
    for h in np.linspace(h_min, 5.0 * h_min, 12):
        dec = policy.solve_agent(np.array([[s]]), np.array([[1.0]]),
                                 np.array([[h]]), constants, params, 1)
        gains.append(abs(dec.gain[0, 0]))
    assert all(gains[i + 1] <= gains[i] + 1e-12 for i in range(len(gains) - 1))


@pytest.mark.parametrize("case", range(10))
def test_transmit_power_identity_at_minimum_norm_gain(case):
    # Tr(K K^T) == Tr(Khat^T zeta Khat): the exact power identity behind
    # rewriting the gain penalty into the lifted variable.
    rng = np.random.default_rng(700 + case)
    topo, constants, e, sigma, params, agent, h = oracles.random_policy_instance(
        rng, d_choices=(2, 3), n_choices=(2, 3), error_scale=1.0)
    params = PolicyParams(p_on=0.0, gamma=params.gamma)
    dec = policy.solve_agent(sigma, topo.bhat(agent), h, constants, params,
                             topo.m_agents)
    if dec.delta == 0:
        pytest.skip("silent instance")
    fact = policy.factorize_agent(topo.bhat(agent), h)
    lhs = float(np.trace(dec.gain @ dec.gain.T))
    rhs = float(np.trace(dec.khat.T @ fact.zeta @ dec.khat))
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_transmit_power_identity_scalar_both_orientations():
    # In the scalar case the lifted penalty commutes, so the identity also
    # holds with zeta on the right.
    pi, e, b, h, gamma = 1.2, 1.5, 0.8, 1.1, 0.4
    s = e * e
    dec = policy.solve_agent(np.array([[s]]), np.array([[b]]), np.array([[h]]),
                             oracles.scalar_constants(pi),
                             PolicyParams(p_on=0.0, gamma=gamma), 1)
    assert dec.delta == 1
    zeta = 1.0 / (b * h) ** 2
    k = dec.gain[0, 0]
    khat = dec.khat[0, 0]
    assert k * k == pytest.approx(khat * zeta * khat, rel=1e-10)
