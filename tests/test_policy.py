import numpy as np
import pytest

import oracles
from swarmtrack import linalg, policy, swarm
from swarmtrack.policy import DriftConstants, PolicyParams


def scalar_decision(pi, e, b, h, p_on, gamma):
    """Library decision of the one-agent, one-state system (Sigma = e^2)."""
    return oracles.library_decisions(np.array([e]), np.array([[[b]]]),
                                     np.array([[[h]]]),
                                     oracles.scalar_constants(pi),
                                     PolicyParams(p_on=p_on, gamma=gamma))[0]


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
    zeta = oracles.factor_zeta(policy.factorize_agent(np.eye(2), np.eye(2)))
    assert np.allclose(zeta, np.eye(2), atol=1e-12)


def test_factorize_scaled_identity():
    zeta = oracles.factor_zeta(policy.factorize_agent(2.0 * np.eye(3), np.eye(3)))
    assert np.allclose(zeta, np.eye(3) / 4.0, atol=1e-12)


def test_factorize_rank_deficient_zeta_spectrum():
    rng = np.random.default_rng(8)
    bhat = rng.normal(size=(5, 2))
    h = rng.normal(size=(2, 2))
    zeta = oracles.factor_zeta(policy.factorize_agent(bhat, h))
    e = bhat @ h
    sv = np.sqrt(np.clip(np.sort(np.linalg.eigvalsh(e @ e.T))[::-1], 0.0, None))
    expected = np.sort(np.concatenate([sv[:2] ** -2.0, np.zeros(3)]))
    got = np.sort(np.linalg.eigvalsh(zeta))
    assert np.allclose(got, expected, atol=1e-8)
    assert np.linalg.matrix_rank(zeta, tol=1e-10) == np.linalg.matrix_rank(e, tol=1e-10)
    assert np.allclose(zeta, zeta.T, atol=1e-12)


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
    dec = oracles.library_decisions(np.zeros(6), topo.b_actuation, [h, h],
                                    constants, params)[0]
    assert dec.delta == 0
    assert np.all(dec.u == 0)
    assert dec.objective == 0.0


def test_solve_agent_free_activation_transmits():
    topo = swarm.build_ring_topology(1, 2, 2, 2, seed=6)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    params = PolicyParams(p_on=0.0, gamma=0.0)
    e = np.array([1.0, -2.0])
    h = np.random.default_rng(7).normal(size=(2, 2))
    dec = oracles.library_decisions(e, topo.b_actuation, [h], constants,
                                    params)[0]
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
        dec = scalar_decision(pi, e, 1.0, h, p_on, gamma)
        theta = pi ** 2 * s ** 2 / (s + gamma / h ** 2)
        if p_on < theta:
            assert dec.delta == 1
            khat_expected = pi * s / (s + gamma / h ** 2)
            # u = -K e, so the scalar gain is -u / e
            assert -dec.u[0] / e == pytest.approx(khat_expected / h, rel=1e-9)
            assert dec.objective == pytest.approx(p_on - theta, rel=1e-9)
        else:
            assert dec.delta == 0


def test_solve_agent_khat_consistent_with_gain():
    # The achieved lifted action Khat e = -E u of the rank-one decision
    # matches the dense oracle's khat = delta * E @ gain applied to e.
    rng = np.random.default_rng(31)
    topo = swarm.build_ring_topology(3, 2, 2, 2, seed=31)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    params = PolicyParams(p_on=0.01, gamma=0.5)
    e = rng.normal(size=6)
    h = rng.normal(size=(2, 2))
    dec = oracles.library_decisions(e, topo.b_actuation, [h] * 3, constants,
                                    params)[1]
    dense = oracles.solve_agent(np.outer(e, e), topo.bhat(1), h, constants,
                                params, 3)
    effective = topo.bhat(1) @ h
    assert dec.delta == dense.delta
    assert np.max(np.abs(-effective @ dec.u - dense.khat @ e)) <= 1e-10


def test_control_signal_silent_is_zero():
    dec = policy.ControlDecision(delta=0, theta=0.0, objective=0.0,
                                 u=np.zeros(2))
    assert np.array_equal(policy.control_signal(dec, np.ones(4)), np.zeros(2))


def test_control_signal_identity_gain():
    # With an identity gain the transmit vector is u = -e.
    e = np.array([1.0, -2.0, 0.5])
    dec = policy.ControlDecision(delta=1, theta=1.0, objective=-1.0, u=-e)
    assert np.array_equal(policy.control_signal(dec, e), -e)


def test_control_signal_matches_dense_oracle():
    rng = np.random.default_rng(37)
    topo = swarm.build_ring_topology(1, 5, 2, 2, seed=37)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    params = PolicyParams(p_on=0.0, gamma=0.5)
    h = rng.normal(size=(2, 2))
    e = rng.normal(size=5)
    dec = oracles.library_decisions(e, topo.b_actuation, [h], constants,
                                    params)[0]
    dense = oracles.solve_agent(np.outer(e, e), topo.bhat(0), h, constants,
                                params, 1)
    expected = np.array([-sum(dense.gain[i, j] * e[j] for j in range(5))
                         for i in range(2)])
    assert np.max(np.abs(policy.control_signal(dec, e) - expected)) <= 1e-12


@pytest.mark.parametrize("case", range(10))
def test_closed_form_beats_random_candidates(case):
    rng = np.random.default_rng(500 + case)
    topo, constants, e, sigma, params, agent, h = oracles.random_policy_instance(
        rng, d_choices=(1, 2, 3), n_choices=(2, 3))
    zeta = oracles.factor_zeta(policy.factorize_agent(topo.bhat(agent), h))
    quad_pinv = linalg.pseudo_inverse(topo.m_agents * sigma
                                      + params.gamma * zeta)
    khat_star = (constants.pi[:, None] * sigma) @ quad_pinv
    f_star = policy.objective(khat_star, sigma, constants.pi, params,
                              topo.m_agents, zeta, 1)
    dm = sigma.shape[0]
    for _ in range(200):
        cand = rng.normal(size=(dm, dm)) * 10.0 ** rng.integers(-2, 2)
        f_cand = policy.objective(cand, sigma, constants.pi, params,
                                  topo.m_agents, zeta, 1)
        assert f_star <= f_cand + 1e-8 * abs(f_star) + 1e-12


def test_stationarity_of_closed_form():
    rng = np.random.default_rng(71)
    topo, constants, e, sigma, params, agent, h = oracles.random_policy_instance(
        rng, d_choices=(2, 3), n_choices=(2,))
    zeta = oracles.factor_zeta(policy.factorize_agent(topo.bhat(agent), h))
    quad = topo.m_agents * sigma + params.gamma * zeta
    quad_pinv = linalg.pseudo_inverse(quad)
    khat_star = (constants.pi[:, None] * sigma) @ quad_pinv
    grad = policy.objective_gradient(khat_star, sigma, constants.pi, params,
                                     topo.m_agents, zeta)
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
    dec = scalar_decision(pi, e, b, h, p_on, gamma)
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
    deltas = []
    for c in [1.0, 10.0, 100.0, 1000.0, 10000.0]:
        # error sqrt(c) e, i.e. Sigma = c e e^T
        dec = oracles.library_decisions(np.sqrt(c) * e, topo.b_actuation,
                                        [h, h], constants, params)[0]
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
        dec = scalar_decision(pi, e, 1.0, h, params.p_on, params.gamma)
        gains.append(abs(dec.u[0] / e))
    assert all(gains[i + 1] <= gains[i] + 1e-12 for i in range(len(gains) - 1))


@pytest.mark.parametrize("case", range(10))
def test_transmit_power_identity_at_minimum_norm_gain(case):
    # Tr(K K^T) == Tr(Khat^T zeta Khat): the exact power identity behind
    # rewriting the gain penalty into the lifted variable, here applied to
    # the error: ||K e||^2 == (Khat e)^T zeta (Khat e) with Khat e = -E u.
    rng = np.random.default_rng(700 + case)
    topo, constants, e, sigma, params, agent, h = oracles.random_policy_instance(
        rng, d_choices=(2, 3), n_choices=(2, 3), error_scale=1.0)
    params = PolicyParams(p_on=0.0, gamma=params.gamma)
    dec = oracles.library_decisions(e, topo.b_actuation, [h] * topo.m_agents,
                                    constants, params)[agent]
    if dec.delta == 0:
        pytest.skip("silent instance")
    zeta = oracles.factor_zeta(policy.factorize_agent(topo.bhat(agent), h))
    khat_e = -(topo.bhat(agent) @ h) @ dec.u
    lhs = float(dec.u @ dec.u)
    rhs = float(khat_e @ zeta @ khat_e)
    assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-10)


def test_transmit_power_identity_scalar_both_orientations():
    # In the scalar case the lifted penalty commutes, so the identity also
    # holds with zeta on the right.
    pi, e, b, h, gamma = 1.2, 1.5, 0.8, 1.1, 0.4
    dec = scalar_decision(pi, e, b, h, 0.0, gamma)
    assert dec.delta == 1
    zeta = 1.0 / (b * h) ** 2
    k = -dec.u[0] / e
    khat = b * h * k
    assert k * k == pytest.approx(khat * zeta * khat, rel=1e-10)


# Property tests of the rank-one decision against the dense oracle.

def block_row(b, m_count, m):
    """Bhat_m: the d x N_r block b at block row m of a dM x N_r matrix."""
    d = b.shape[0]
    out = np.zeros((m_count * d, b.shape[1]))
    out[m * d:(m + 1) * d] = b
    return out


def rank_one_instance(rng, m_count, d, n_tx, n_rx, gamma):
    """Random channels, error and positive pi (no zero-effect agents)."""
    b = rng.normal(size=(m_count, d, n_rx))
    h = rng.normal(size=(m_count, n_rx, n_tx))
    pi = rng.uniform(0.1, 2.0, size=m_count * d)
    constants = DriftConstants(pi=pi, alpha=2.0 * pi.max() ** 2, sv_a=pi,
                               sv_g=pi)
    e = rng.normal(size=m_count * d)
    scale = float((pi * e) @ (pi * e)) / m_count
    params = PolicyParams(p_on=float(rng.uniform(0.0, 1.5)) * scale,
                          gamma=gamma)
    return e, b, h, constants, params


def assert_matches_dense(e, b, h, constants, params, rtol=1e-8):
    """Both the slot loop's dispatch (certified closed form, else spectral)
    and the forced spectral path agree with the dense oracle; returns the
    dispatched decisions."""
    m_count = b.shape[0]
    pe = constants.pi * e
    dense = [oracles.solve_agent(np.outer(e, e), block_row(b[m], m_count, m),
                                 h[m], constants, params, m_count)
             for m in range(m_count)]
    paths = {spectral: oracles.library_decisions(e, b, h, constants, params,
                                                 spectral=spectral)
             for spectral in (False, True)}
    for decisions in paths.values():
        for dec, ref in zip(decisions, dense):
            assert dec.delta == ref.delta
            assert dec.theta == pytest.approx(ref.theta, rel=rtol,
                                              abs=1e-12 * float(pe @ pe))
            assert dec.objective == pytest.approx(ref.objective, rel=rtol)
            u_dense = ref.control(e)
            assert np.linalg.norm(dec.u - u_dense) <= rtol * np.linalg.norm(u_dense)
    return paths[False]


@pytest.mark.parametrize("case", range(40))
def test_rank_one_matches_dense_oracle(case):
    rng = np.random.default_rng(900 + case)
    dims = [int(x) for x in rng.integers(1, 6, size=4)]
    gamma = float(10.0 ** rng.uniform(-2, 2))
    assert_matches_dense(*rank_one_instance(rng, *dims, gamma))


@pytest.mark.parametrize("d,n_tx,n_rx", [(1, 1, 1), (1, 3, 2), (2, 2, 2),
                                         (3, 4, 3), (3, 3, 5), (4, 6, 4)])
def test_rank_one_full_rank_single_agent(d, n_tx, n_rx):
    # M = 1 with N_t, N_r >= d: E is invertible on the whole error space,
    # so c = e^T Q^-1 e < 1/M depends on gamma.
    rng = np.random.default_rng(950 + 10 * d + n_tx)
    e, b, h, constants, params = rank_one_instance(rng, 1, d, n_tx, n_rx, 0.7)
    dec, = assert_matches_dense(e, b, h, constants, params)
    pe = constants.pi * e
    assert dec.theta < float(pe @ pe)


@pytest.mark.parametrize("case", range(10))
def test_rank_one_scalar_case(case):
    rng = np.random.default_rng(970 + case)
    pi, e, b, h = rng.uniform(0.2, 2.0, size=4) * rng.choice([-1.0, 1.0], size=4)
    pi = abs(pi)
    gamma = float(rng.uniform(0.0, 2.0))
    constants = oracles.scalar_constants(pi)
    params = PolicyParams(p_on=float(rng.uniform(0.0, 2.0)), gamma=gamma)
    dec, = assert_matches_dense(np.array([e]), np.array([[[b]]]),
                                np.array([[[h]]]), constants, params)
    s = e * e
    assert dec.theta == pytest.approx(pi ** 2 * s ** 2 / (s + gamma / (b * h) ** 2),
                                      rel=1e-12)


@pytest.mark.parametrize("case", range(20))
def test_theta_is_pi_error_norm_over_m_when_rank_deficient(case):
    rng = np.random.default_rng(1000 + case)
    m_count = int(rng.integers(1, 5))
    d = int(rng.integers(2, 6))
    n_tx = int(rng.integers(1, 6))
    n_rx = int(rng.integers(1, 6))
    if m_count == 1 and min(n_tx, n_rx) >= d:
        n_tx = d - 1      # keep rank E_m < dM
    gamma = float(10.0 ** rng.uniform(-3, 3))
    e, b, h, constants, params = rank_one_instance(rng, m_count, d, n_tx,
                                                   n_rx, gamma)
    terms = policy.rank_one_terms(policy.factorize_agent(b, h), e, constants,
                                  params)
    pe = constants.pi * e
    assert np.allclose(terms.theta, float(pe @ pe) / m_count, rtol=1e-9, atol=0)


@pytest.mark.parametrize("case", range(10))
def test_transmit_vector_does_not_depend_on_gamma_when_rank_deficient(case):
    rng = np.random.default_rng(1100 + case)
    m_count = int(rng.integers(2, 5))
    e, b, h, constants, _ = rank_one_instance(rng, m_count, 3, 2, 4, 1.0)
    factors = policy.factorize_agent(b, h)
    us = [policy.rank_one_terms(factors, e, constants,
                                PolicyParams(p_on=0.0, gamma=gamma)).u
          for gamma in (0.0, 1e-3, 1.0, 1e3)]
    for u in us[1:]:
        assert np.allclose(u, us[0], rtol=1e-9, atol=0)


def cutoff_boundary_instance(ratio, layout):
    """Agent 0's error direction has eigenvalue M ||e||^2 in Q and the
    power term gamma s_min^-2 is the largest one, at ratio * 1e10 times
    it: the 1e-10 relative cutoff fires for ratio >= 1."""
    rng = np.random.default_rng(1200)
    if layout == "other_agent":
        m_count, d, n = 2, 2, 2
        e = np.concatenate([np.zeros(d), rng.normal(size=d)])
    else:
        m_count, d, n = 1, 3, 2
        e = rng.normal(size=d)
    b = rng.normal(size=(m_count, d, n))
    h = rng.normal(size=(m_count, n, n))
    factors = policy.factorize_agent(b, h)
    if layout == "outside_range":
        left = factors.left[0]
        e = e - left @ (left.T @ e)
    s_min = float(factors.singulars[0, -1])
    gamma = ratio * 1e10 * m_count * float(e @ e) * s_min ** 2
    pi = rng.uniform(0.5, 1.0, size=m_count * d)
    constants = DriftConstants(pi=pi, alpha=2.0, sv_a=pi, sv_g=pi)
    pe = constants.pi * e
    params = PolicyParams(p_on=1e-12 * float(pe @ pe), gamma=gamma)
    return e, b, h, constants, params


@pytest.mark.parametrize("ratio", [0.5, 0.9, 1.1, 2.0])
@pytest.mark.parametrize("layout", ["other_agent", "outside_range"])
def test_cutoff_boundary_matches_dense_oracle(ratio, layout):
    # Above the 1e-10 relative cutoff theta is ||pi o e||^2 / M, below it
    # theta drops to 0. The rank-one path keeps the dense cutoff on both
    # sides. Q's condition number is about 1e10 here, so both paths carry
    # ~1e10 * eps relative rounding and are compared to 1e-5.
    e, b, h, constants, params = cutoff_boundary_instance(ratio, layout)
    pe = constants.pi * e
    m_count = b.shape[0]
    dec = assert_matches_dense(e, b, h, constants, params, rtol=1e-5)[0]
    if ratio < 1.0:
        assert dec.delta == 1
        assert dec.theta == pytest.approx(float(pe @ pe) / m_count, rel=1e-5)
    else:
        assert dec.delta == 0
        assert dec.theta <= 1e-5 * float(pe @ pe)


# Routing of the certified closed form: it answers only where the cutoff
# provably cannot fire and declines (None) everywhere else.

def certified(e, b, h, constants, params):
    return policy.certified_terms(policy.certify_channels(b, h), e, constants,
                                  params)


def test_certified_path_declines_without_a_certificate():
    # certify_channels gives None where N_t > d
    rng = np.random.default_rng(1305)
    e, _, _, constants, params = rank_one_instance(rng, 4, 9, 4, 4, 1.0)
    assert policy.certified_terms(None, e, constants, params) is None


def test_certified_path_taken_on_tall_well_conditioned_channels():
    rng = np.random.default_rng(1300)
    e, b, h, constants, params = rank_one_instance(rng, 4, 9, 4, 4, 1.0)
    terms = certified(e, b, h, constants, params)
    assert terms is not None
    pe = constants.pi * e
    assert np.array_equal(terms.theta, np.full(4, float(pe @ pe) / 4))
    spectral = policy.rank_one_terms(policy.factorize_agent(b, h), e,
                                     constants, params)
    assert np.linalg.norm(terms.u - spectral.u) <= 1e-12 * np.linalg.norm(spectral.u)


@pytest.mark.parametrize("case", ["gamma_zero", "wide", "few_receive"])
def test_certified_path_declines_structural_cases(case):
    rng = np.random.default_rng(1310)
    m_count, d, n_tx, n_rx, gamma = 3, 4, 2, 3, 1.0
    if case == "gamma_zero":
        gamma = 0.0
    elif case == "wide":
        n_tx = 5            # N_t > d
    else:
        n_rx = 1            # N_r < N_t: F = B H has rank 1 < N_t
    e, b, h, constants, params = rank_one_instance(rng, m_count, d, n_tx,
                                                   n_rx, gamma)
    assert certified(e, b, h, constants, params) is None
    assert_matches_dense(e, b, h, constants, params)


def test_certified_path_declines_ill_conditioned_channel():
    # agent 1's F = B H has singular values 1 and 1e-4 (cond 1e4)
    rng = np.random.default_rng(1320)
    e, b, h, constants, params = rank_one_instance(rng, 3, 5, 2, 2, 1.0)
    basis, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    b[1] = basis
    h[1] = np.diag([1.0, 1e-4])
    assert np.linalg.cond(b[1] @ h[1]) == pytest.approx(1e4, rel=1e-9)
    assert certified(e, b, h, constants, params) is None
    h[1] = np.diag([1.0, 0.1])       # cond 10: certified again
    assert certified(e, b, h, constants, params) is not None


@pytest.mark.parametrize("ratio", [0.9, 1.1, 2.0])
@pytest.mark.parametrize("layout", ["other_agent", "outside_range"])
def test_certified_path_declines_near_cutoff(ratio, layout):
    # at 0.9 the cutoff does not fire, but the eigenvalue ratio is below
    # the certificate's 2e-10 margin
    assert certified(*cutoff_boundary_instance(ratio, layout)) is None


def test_certified_path_declines_single_agent_at_full_rank():
    # M = 1, N_t = N_r = d: w = 0 and c = e^T Q^-1 e < 1 depends on gamma
    rng = np.random.default_rng(1330)
    e, b, h, constants, params = rank_one_instance(rng, 1, 3, 3, 3, 0.7)
    assert certified(e, b, h, constants, params) is None
    rng = np.random.default_rng(1330)
    e, b, h, constants, params = rank_one_instance(rng, 1, 3, 2, 3, 0.7)
    assert certified(e, b, h, constants, params) is not None


def test_certified_path_zero_error_is_silent():
    rng = np.random.default_rng(1340)
    _, b, h, constants, params = rank_one_instance(rng, 4, 9, 4, 4, 1.0)
    terms = certified(np.zeros(36), b, h, constants, params)
    assert terms is not None
    assert np.array_equal(terms.theta, np.zeros(4))
    assert np.array_equal(terms.u, np.zeros((4, 4)))
    spectral = policy.rank_one_terms(policy.factorize_agent(b, h), np.zeros(36),
                                     constants, params)
    assert np.array_equal(spectral.theta, terms.theta)
    assert np.array_equal(np.abs(spectral.u), terms.u)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_dispatch_rejects_non_finite_channels(bad):
    rng = np.random.default_rng(1350)
    e, b, h, constants, params = rank_one_instance(rng, 2, 4, 2, 2, 1.0)
    h[1, 0, 0] = bad
    for e_slot in (e, np.zeros_like(e)):
        assert certified(e_slot, b, h, constants, params) is None
        with pytest.raises(ValueError, match="non-finite"):
            oracles.library_decisions(e_slot, b, h, constants, params)


@pytest.mark.parametrize("bad", ["zero", "rank_deficient", "nan", "inf"])
def test_block_certificate_declines_only_the_bad_slot(bad):
    # certify_channels factors a whole block of slots at once; one slot's
    # degenerate channel must not decline (or raise for) the others
    rng = np.random.default_rng(1360)
    m_count, d, n_tx, n_rx, n_slots, k = 4, 9, 4, 4, 5, 2
    e, b, _, constants, params = rank_one_instance(rng, m_count, d, n_tx,
                                                   n_rx, 1.0)
    h = rng.normal(size=(n_slots, m_count, n_rx, n_tx))
    if bad == "zero":
        h[k, 1] = 0.0
    elif bad == "rank_deficient":
        h[k, 1, :, 3] = h[k, 1, :, 0]      # two equal columns: rank 3 < N_t
    else:
        h[k, 1, 2, 2] = np.nan if bad == "nan" else np.inf
    certs = policy.certify_channels(b, h)
    assert certs.conditioned.tolist() == [i != k for i in range(n_slots)]
    for i in range(n_slots):
        terms = policy.certified_terms(certs.slot(i), e, constants, params)
        alone = certified(e, b, h[i], constants, params)
        if i == k:
            assert terms is None and alone is None
            continue
        assert terms is not None
        assert np.array_equal(terms.theta, alone.theta)
        assert np.array_equal(terms.u, alone.u)
        spectral = policy.rank_one_terms(policy.factorize_agent(b, h[i]), e,
                                         constants, params)
        assert np.linalg.norm(terms.u - spectral.u) <= 1e-12 * np.linalg.norm(spectral.u)
    if bad in ("nan", "inf"):
        with pytest.raises(ValueError, match="non-finite"):
            oracles.library_decisions(e, b, h[k], constants, params)
    else:
        assert_matches_dense(e, b, h[k], constants, params)


def test_block_certificate_declines_wide_channels():
    rng = np.random.default_rng(1370)
    b = rng.normal(size=(2, 3, 4))
    assert policy.certify_channels(b, rng.normal(size=(6, 2, 4, 5))) is None
