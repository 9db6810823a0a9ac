import dataclasses
import warnings

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


def test_drift_constants_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        policy.compute_drift_constants(np.eye(2), np.eye(3))


def test_policy_params_reject_negative_values():
    with pytest.raises(ValueError):
        PolicyParams(p_on=-0.1)
    with pytest.raises(ValueError):
        PolicyParams(gamma=-1.0)


@pytest.mark.parametrize("field", ["p_on", "gamma"])
@pytest.mark.parametrize("value", [True, False, float("nan"), float("inf"),
                                   float("-inf"), "1", None])
def test_policy_params_reject_bool_and_non_finite_price(field, value):
    # nan used to make every agent transmit (nan >= theta is false), and
    # gamma = inf gave theta = 0 for every agent
    with pytest.raises(ValueError, match=f"{field} must be >= 0 and finite"):
        PolicyParams(**{field: value})


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
    dense = oracles.solve_agent(np.outer(e, e), oracles.bhat(topo, 1), h, constants,
                                params, 3)
    effective = oracles.bhat(topo, 1) @ h
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
    dense = oracles.solve_agent(np.outer(e, e), oracles.bhat(topo, 0), h, constants,
                                params, 1)
    expected = np.array([-sum(dense.gain[i, j] * e[j] for j in range(5))
                         for i in range(2)])
    assert np.max(np.abs(policy.control_signal(dec, e) - expected)) <= 1e-12


@pytest.mark.parametrize("case", range(10))
def test_closed_form_beats_random_candidates(case):
    rng = np.random.default_rng(500 + case)
    topo, constants, e, sigma, params, agent, h = oracles.random_policy_instance(
        rng, d_choices=(1, 2, 3), n_choices=(2, 3))
    zeta = oracles.factor_zeta(policy.factorize_agent(oracles.bhat(topo, agent), h))
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
    zeta = oracles.factor_zeta(policy.factorize_agent(oracles.bhat(topo, agent), h))
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
    zeta = oracles.factor_zeta(policy.factorize_agent(oracles.bhat(topo, agent), h))
    khat_e = -(oracles.bhat(topo, agent) @ h) @ dec.u
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
    constants = DriftConstants(pi=pi, alpha=2.0 * pi.max() ** 2)
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
                                         (3, 4, 3), (3, 3, 5), (4, 6, 4),
                                         (4, 4, 4), (5, 5, 7)])
def test_rank_one_full_rank_single_agent(d, n_tx, n_rx):
    # M = 1 with N_t, N_r >= d: E is invertible on the whole error space,
    # so c = e^T Q^-1 e < 1/M depends on gamma. F square (N_t = d) or wide
    # (N_t > d), the certified full-rank branch answers every conditioned
    # slot.
    rng = np.random.default_rng(950 + 10 * d + n_tx)
    e, b, h, constants, params = rank_one_instance(rng, 1, d, n_tx, n_rx, 0.7)
    dec, = assert_matches_dense(e, b, h, constants, params)
    pe = constants.pi * e
    assert dec.theta < float(pe @ pe)
    block = policy.certify_channels(b, h[None], constants, params)
    assert block.conditioned[0]
    assert certified(e, b, h, constants, params) is not None


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
    left, s, _ = policy.factorize_agent(b, h)
    if layout == "outside_range":
        e = e - left[0] @ (left[0].T @ e)
    s_min = float(s[0, -1])
    gamma = ratio * 1e10 * m_count * float(e @ e) * s_min ** 2
    pi = rng.uniform(0.5, 1.0, size=m_count * d)
    constants = DriftConstants(pi=pi, alpha=2.0)
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


def test_singular_value_at_the_cutoff_counts_as_zero():
    # F = diag(1, 1e-10): numpy returns s = 1e-10 exactly, on the cutoff,
    # so rank_one_terms treats direction 2 as outside range(F), sends
    # nothing along it and (w != 0) answers theta = ||pi o e||^2 / M; one
    # ulp above the cutoff the direction is kept and u has a component
    # along it
    e = np.array([1.0, 2.0])
    constants = DriftConstants(pi=np.array([1.0, 0.5]), alpha=2.0)
    params = PolicyParams(p_on=0.0, gamma=1.0)
    pe = constants.pi * e
    for s_2, kept in ((1e-10, False), (np.nextafter(1e-10, 1.0), True)):
        factors = policy.factorize_agent(np.diag([1.0, s_2])[None], np.eye(2)[None])
        assert factors[1][0, 1] == s_2
        terms = policy.rank_one_terms(factors, e, constants, params)
        assert (terms.u[0, 1] != 0.0) == kept
        assert terms.u[0, 0] != 0.0
        if not kept:
            assert terms.theta[0] == pytest.approx(float(pe @ pe), rel=1e-12)


# Accuracy of the certified closed form against exact rational arithmetic
# (oracles.exact_rank_one_terms), at the contract of policy.certified_terms.

EPS = np.finfo(float).eps


def assert_within_contract(u, u_exact, b, h, e, constants):
    """Every agent's certified u is within the contract bound of exact
    arithmetic: C cond(F) eps (||u|| + cond(F) c ||rho|| / ||F||_2),
    C = 4 d N_t, rho the least-squares residual of (pi o e)_m (0 unless F
    is tall)."""
    f = np.asarray(b) @ np.asarray(h)
    m_count, d, n_tx = f.shape
    pe = (constants.pi * e).reshape(m_count, d)
    for m in range(m_count):
        kappa = np.linalg.cond(f[m])
        x = np.linalg.pinv(f[m]) @ pe[m]
        c = np.linalg.norm(u_exact[m]) / np.linalg.norm(x) if x.any() else 0.0
        rho = np.linalg.norm(pe[m] - f[m] @ x)
        bound = 4 * d * n_tx * kappa * EPS * (
            np.linalg.norm(u_exact[m]) + kappa * c * rho / np.linalg.norm(f[m], 2))
        assert np.linalg.norm(u[m] - u_exact[m]) <= bound


def conditioned_instance(rng, m_count, d, n_tx, n_rx, cond):
    """(e, b, h, constants): every agent's F = B_m H_m has singular values
    spread geometrically over a factor cond (range(F) inside range(B_m))."""
    k = min(d, n_tx)
    b = rng.normal(size=(m_count, d, n_rx))
    h = np.empty((m_count, n_rx, n_tx))
    for m in range(m_count):
        left = np.linalg.qr(b[m])[0][:, :k]
        right = np.linalg.qr(rng.normal(size=(n_tx, k)))[0]
        s = np.geomspace(1.0, 1.0 / cond, k) * rng.uniform(0.5, 2.0)
        h[m] = np.linalg.pinv(b[m]) @ ((left * s) @ right.T)
    e = rng.normal(size=m_count * d)
    pi = rng.uniform(0.2, 1.0, size=m_count * d)
    return e, b, h, DriftConstants(pi=pi, alpha=2.0)


CONTRACT_SHAPES = {    # (M, d, N_t, N_r), dM <= 12
    "tall": [(1, 4, 2, 3), (2, 5, 3, 3), (3, 4, 3, 4), (2, 6, 1, 2)],
    "square": [(1, 4, 4, 4), (1, 6, 6, 7), (2, 3, 3, 5), (3, 2, 2, 2)],
    "wide": [(1, 3, 5, 3), (1, 5, 8, 6), (2, 3, 4, 3), (4, 3, 4, 3)],
}


@pytest.mark.parametrize("case", range(8))
@pytest.mark.parametrize("shape", sorted(CONTRACT_SHAPES))
def test_certified_terms_meet_accuracy_contract(shape, case, record_property):
    # theta and u of the certified path stay within C cond(F) eps of exact
    # arithmetic up to cond(F) = 1e4; the spectral path's error, about
    # cond(F)^2 eps, is recorded, not bounded
    rng = np.random.default_rng(1400 + 10 * case + sorted(CONTRACT_SHAPES).index(shape))
    m_count, d, n_tx, n_rx = CONTRACT_SHAPES[shape][case % 4]
    cond = 10.0 ** (case * 4 / 7)
    e, b, h, constants = conditioned_instance(rng, m_count, d, n_tx, n_rx, cond)
    gamma = float(10.0 ** rng.uniform(-1, 1))
    terms = certified(e, b, h, constants, PolicyParams(p_on=0.0, gamma=gamma))
    assert terms is not None
    theta, u = oracles.exact_rank_one_terms(b, h, e, constants.pi, gamma)
    kappa = np.linalg.cond(b @ h).max()
    assert np.all(np.abs(terms.theta - theta) <= 4 * d * n_tx * kappa * EPS * theta)
    assert_within_contract(terms.u, u, b, h, e, constants)
    spectral = policy.rank_one_terms(policy.factorize_agent(b, h), e, constants,
                                     PolicyParams(p_on=0.0, gamma=gamma))
    err = np.linalg.norm(spectral.u - u, axis=1) / np.linalg.norm(u, axis=1)
    record_property("spectral_u_error_over_cond2_eps",
                    float((err / (np.linalg.cond(b @ h) ** 2 * EPS)).max()))


@pytest.mark.parametrize("case", range(8))
@pytest.mark.parametrize("shape", sorted(CONTRACT_SHAPES))
def test_lift_times_q_t_is_the_pseudo_inverse(shape, case):
    # one coordinate form for every block: F^+ = lift @ q_t (q_t = I for
    # wide F), each column F^+ e_j within the accuracy contract of the
    # certified u (c = 1, pi o e = e_j) against exact arithmetic
    rng = np.random.default_rng(1600 + 10 * case + sorted(CONTRACT_SHAPES).index(shape))
    m_count, d, n_tx, n_rx = CONTRACT_SHAPES[shape][case % 4]
    cond = 10.0 ** (case * 4 / 7)
    _, b, h_0, constants = conditioned_instance(rng, m_count, d, n_tx, n_rx, cond)
    h = np.stack([h_0, 0.5 * h_0])
    block = policy.certify_channels(b, h, constants, PolicyParams())
    assert block.q_t.shape == (2, m_count, min(d, n_tx), d)
    assert block.conditioned.all()
    for i in range(2):
        pinv = block.lift[i] @ block.q_t[i]
        for m in range(m_count):
            f = b[m] @ h[i, m]
            kappa = np.linalg.cond(f)
            exact = oracles.exact_pseudo_inverse(b[m], h[i, m])
            rho = np.linalg.norm(np.eye(d) - f @ exact, axis=0)
            bound = 4 * d * n_tx * kappa * EPS * (
                np.linalg.norm(exact, axis=0) + kappa * rho / np.linalg.norm(f, 2))
            assert np.all(np.linalg.norm(pinv[m] - exact, axis=0) <= bound)


@pytest.mark.parametrize("case", range(8))
@pytest.mark.parametrize("shape", sorted(CONTRACT_SHAPES))
def test_operator_rows_hold_q_t_and_the_scaled_pseudo_inverse(shape, case):
    # the per-block operator [q_t; -F^+ diag(pi_m) / M]: its first k rows
    # are q_t (F^+ = lift @ q_t, tested above), and each column j of the
    # rest, -(pi_j / M) F^+ e_j, is within the accuracy contract of the
    # certified u (c = 1/M, pi o e = pi_j e_j) against exact arithmetic
    rng = np.random.default_rng(1700 + 10 * case + sorted(CONTRACT_SHAPES).index(shape))
    m_count, d, n_tx, n_rx = CONTRACT_SHAPES[shape][case % 4]
    k = min(d, n_tx)
    cond = 10.0 ** (case * 4 / 7)
    _, b, h_0, constants = conditioned_instance(rng, m_count, d, n_tx, n_rx, cond)
    h = np.stack([h_0, 0.5 * h_0])
    block = policy.certify_channels(b, h, constants, PolicyParams())
    assert block.operator.shape == (2, m_count, k + n_tx, d)
    assert block.conditioned.all()
    assert np.array_equal(block.operator[..., :k, :], block.q_t)
    pi = constants.pi.reshape(m_count, d)
    for i in range(2):
        for m in range(m_count):
            f = b[m] @ h[i, m]
            kappa = np.linalg.cond(f)
            exact = oracles.exact_pseudo_inverse(b[m], h[i, m])
            rho = np.linalg.norm(np.eye(d) - f @ exact, axis=0)
            bound = 4 * d * n_tx * kappa * EPS * (
                np.linalg.norm(exact, axis=0) + kappa * rho / np.linalg.norm(f, 2))
            scaled = block.operator[i, m, k:]
            want = exact * (pi[m] / -m_count)
            assert np.all(np.linalg.norm(scaled - want, axis=0)
                          <= bound * pi[m] / m_count)


# The second certificate: where Q_r's cutoff fires (small gamma) it bounds
# what the cutoff removes from c, against the spectral path as oracle.

def q_r_terms(b, h, e, gamma):
    """Per agent, from F's SVD: delta = 2e-10 lambda_hi / (M w^2), the
    second certificate's bound on 1 - M c, and the eigenvalues of
    Q_r = diag(gamma s^-2, 0) + M a a^T, ascending."""
    left, s, _ = np.linalg.svd(b @ h, full_matrices=False)
    m_count, d, k = left.shape
    e_sq = float(e @ e)
    alpha = (e.reshape(m_count, 1, d) @ left)[:, 0]
    w_sq = e_sq - (alpha ** 2).sum(axis=1)
    lam_hi = gamma * (s ** -2.0).sum(axis=1) + m_count * e_sq
    tol = policy.CERTIFIED_CUTOFF_MARGIN * linalg.DEFAULT_PINV_REL_TOL
    delta = tol * lam_hi / (m_count * w_sq)
    a = np.concatenate([alpha, np.sqrt(np.maximum(w_sq, 0.0))[:, None]], axis=1)
    q_r = m_count * a[:, :, None] * a[:, None, :]
    q_r[:, np.arange(k), np.arange(k)] += gamma / s ** 2
    return delta, np.linalg.eigvalsh(q_r)


def cut_terms(b, h, e, gamma):
    """q_r_terms' delta and the number of eigenvalues of Q_r at or below
    the 1e-10 cutoff, per agent."""
    delta, lam = q_r_terms(b, h, e, gamma)
    cut = (lam <= linalg.DEFAULT_PINV_REL_TOL * lam.max(axis=1, keepdims=True))
    return delta, cut.sum(axis=1)


CUT_SHAPES = {    # (d, N_t, N_r)
    "tall": [(5, 3, 4), (4, 2, 3), (6, 4, 4), (9, 4, 4)],
    "wide": [(3, 5, 3), (2, 4, 3), (4, 6, 5), (3, 4, 3)],
}


@pytest.mark.parametrize("case", range(12))
@pytest.mark.parametrize("m_count", [2, 3, 4, 8])
@pytest.mark.parametrize("shape", sorted(CUT_SHAPES))
def test_cut_certificate_bounds_the_spectral_path(shape, m_count, case):
    # gamma in [1e-10, 1e-3] with ||e|| scaled so that gamma / s_max^2 is
    # 10 to 1e4 times under the cutoff of M ||e||^2: the first certificate
    # fails and the spectral path cuts at least one eigenvalue of Q_r.
    # There 1 - M c_spec lies in [0, delta], the certified theta and u are
    # within delta of the spectral ones, and the bits are equal; the
    # allowance C cond(F)^2 eps is the spectral path's rounding
    rng = np.random.default_rng(1500 + 100 * m_count + 10 * case
                                + sorted(CUT_SHAPES).index(shape))
    d, n_tx, n_rx = CUT_SHAPES[shape][case % 4]
    cond = float(10.0 ** rng.uniform(0.0, 1.0))
    e, b, h, constants = conditioned_instance(rng, m_count, d, n_tx, n_rx, cond)
    gamma = float(10.0 ** rng.uniform(-10, -3))
    s_max = np.linalg.svd(b @ h, compute_uv=False).max()
    e_sq = float(10.0 ** rng.uniform(1, 4)) * gamma / (
        s_max ** 2 * m_count * linalg.DEFAULT_PINV_REL_TOL)
    e *= np.sqrt(e_sq / float(e @ e))
    pe = constants.pi * e
    theta_0 = float(pe @ pe) / m_count
    params = PolicyParams(p_on=float(rng.uniform(0.0, 1.5)) * theta_0, gamma=gamma)
    delta, cut = cut_terms(b, h, e, gamma)
    assert cut.min() >= 1 and delta.max() <= policy.CERTIFIED_CUT_SLACK
    spectral = policy.rank_one_terms(policy.factorize_agent(b, h), e, constants,
                                     params)
    slack = 4 * d * n_tx * EPS * np.linalg.cond(b @ h) ** 2
    short = 1.0 - spectral.theta / theta_0          # 1 - M c_spec
    assert np.all(short >= -slack) and np.all(short <= delta + slack)
    terms = certified(e, b, h, constants, params)
    if (1.0 - delta.max()) * theta_0 <= params.p_on < theta_0:
        assert terms is None
        return
    assert terms is not None
    assert np.array_equal(terms.theta, np.full(m_count, theta_0))
    assert np.all(terms.theta - spectral.theta <= (delta + slack) * terms.theta)
    err = np.linalg.norm(terms.u - spectral.u, axis=1)
    assert np.all(err <= (delta + slack) * np.linalg.norm(terms.u, axis=1))
    for m in range(m_count):
        assert (policy.solve_agent(terms, m, params).delta
                == policy.solve_agent(spectral, m, params).delta)


def test_cut_certificate_declines_past_its_slack():
    # agent 1 holds e inside range(F_1) but for a part of squared norm
    # w^2 = ratio (2e-10 / slack) ||e||^2 = ratio 0.02 ||e||^2, and e_0 = 0.
    # At gamma = 1e-6 lambda_hi is about M ||e||^2, so delta_1 = 2e-10
    # lambda_hi / (M w^2) is about slack / ratio (2.0e-8 and 5.2e-9). Q_r's
    # cutoff fires for agent 1 in both, so the second certificate decides:
    # declined at twice the slack, certified at half of it
    rng = np.random.default_rng(1560)
    e, b, h, constants, _ = rank_one_instance(rng, 2, 5, 3, 3, 1e-6)
    params = PolicyParams(p_on=0.0, gamma=1e-6)
    f_1 = b[1] @ h[1]
    in_range = f_1 @ rng.normal(size=3)
    outside = e[5:] - f_1 @ np.linalg.lstsq(f_1, e[5:], rcond=None)[0]
    outside /= np.linalg.norm(outside)
    share = policy.CERTIFIED_CUTOFF_MARGIN * linalg.DEFAULT_PINV_REL_TOL / \
        policy.CERTIFIED_CUT_SLACK
    for ratio, answered in ((0.5, False), (2.0, True)):
        e = np.concatenate([np.zeros(5), in_range])
        e[5:] += np.sqrt(ratio * share * float(e @ e)) * outside
        delta, cut = cut_terms(b, h, e, params.gamma)
        assert cut[1] == 1
        assert (delta.max() <= policy.CERTIFIED_CUT_SLACK) == answered
        assert (certified(e, b, h, constants, params) is not None) == answered


# Routing of the certified closed form: it answers only where the cutoff
# provably cannot fire and declines (None) everywhere else.

def certified(e, b, h, constants, params):
    return policy.certified_terms(
        policy.certify_channels(b, h[None], constants, params), 0, e)


def assert_block_declined(e, b, h, constants, params):
    """No slot of the (slots, M, N_r, N_t) block h is flagged, certified_terms
    declines every slot, and block_decisions gives each slot the spectral
    path's bits and controls bit for bit."""
    block = policy.certify_channels(b, h, constants, params)
    assert block.conditioned.shape == (len(h),)
    assert not block.conditioned.any()
    decide = policy.block_decisions(b, h, constants, params)
    for i in range(len(h)):
        assert policy.certified_terms(block, i, e) is None
        deltas, controls = decide(i, e)
        want = oracles.decision_arrays(oracles.library_decisions(
            e, b, h[i], constants, params, spectral=True))
        assert deltas.dtype == bool and np.array_equal(deltas, want[0])
        assert controls.shape == want[1].shape
        assert controls.tobytes() == want[1].tobytes()


def test_certified_path_declines_without_a_certificate():
    # gamma = 0 and N_r < min(d, N_t) clear every slot's flag: the block
    # is formed as any other, and every slot takes the spectral path
    rng = np.random.default_rng(1305)
    for m_count, d, n_tx, n_rx, gamma in ((4, 9, 4, 4, 0.0), (4, 9, 4, 3, 1.0),
                                          (2, 3, 5, 2, 1.0), (1, 3, 3, 3, 0.0)):
        e, b, _, constants, params = rank_one_instance(rng, m_count, d, n_tx,
                                                       n_rx, gamma)
        h = rng.normal(size=(3, m_count, n_rx, n_tx))
        assert_block_declined(e, b, h, constants, params)


def test_fully_declined_blocks_are_not_factored(monkeypatch):
    # gamma = 0 and N_r < min(d, N_t) decline the whole block before any
    # QR, inverse or operator: the factor and extreme fields are zero
    # broadcast views of their shapes, and each slot still takes the
    # spectral path
    def refuse(*args, **kwargs):
        raise AssertionError("a fully declined block was factored")

    monkeypatch.setattr(np.linalg, "qr", refuse)
    monkeypatch.setattr(np.linalg, "inv", refuse)
    rng = np.random.default_rng(1306)
    for m_count, d, n_tx, n_rx, gamma in ((4, 9, 4, 4, 0.0), (4, 3, 4, 2, 1.0),
                                          (2, 3, 5, 2, 1.0), (1, 3, 3, 3, 0.0)):
        e, b, _, constants, params = rank_one_instance(rng, m_count, d, n_tx,
                                                       n_rx, gamma)
        h = rng.normal(size=(3, m_count, n_rx, n_tx))
        block = policy.certify_channels(b, h, constants, params)
        k = min(d, n_tx)
        shapes = {"operator": (3, m_count, k + n_tx, d), "q_t": (3, m_count, k, d),
                  "root": (3, m_count, k, k), "lift": (3, m_count, n_tx, k),
                  "e_sq_limit": (3,), "gamma_tr_inv_max": (3,), "slope_max": (3,)}
        for name, shape in shapes.items():
            field = getattr(block, name)
            assert field.shape == shape, name
            assert not field.any() and not any(field.strides), name
        assert_block_declined(e, b, h, constants, params)


FACTOR_ROUTES = {    # (M, d, N_t, N_r); C = R_B H is p x N_t, p = min(d, N_r)
    "square": (4, 9, 4, 4), "square_full": (1, 3, 3, 3),
    "square_singular": (4, 9, 4, 4), "square_n_t_is_d": (2, 3, 3, 4),
    "tall": (3, 5, 2, 3), "tall_singular": (3, 5, 2, 3),
    "wide": (2, 3, 5, 4), "wide_singular": (2, 3, 5, 4),
}


@pytest.mark.parametrize("route", sorted(FACTOR_ROUTES))
def test_certify_channels_factors_by_the_channel_shape(route, monkeypatch):
    # every shape: one QR per (M, d, N_r) actuation stack, which a second
    # block of the same stack reuses; one thin QR of each block's stack of
    # C = R_B H (p > N_t) or C^T (p < N_t) where C is not square; and one
    # inverse of each block's (slots, M, k, k) stack of square cores. An
    # exactly singular core (agent 0 of the middle slot) makes the stacked
    # inverse raise; that slot is swapped for the identity and declined,
    # and the stack is inverted once more
    monkeypatch.setattr(policy, "_ACTUATION_QR_CACHE", {})
    calls = []

    def counted(name, func):
        def wrapper(a, *args, **kwargs):
            calls.append((name, np.shape(a)))
            return func(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "qr", counted("qr", np.linalg.qr))
    monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
    m_count, d, n_tx, n_rx = FACTOR_ROUTES[route]
    p, k = min(d, n_rx), min(d, n_tx)
    rng = np.random.default_rng(1395)
    e, b, _, constants, params = rank_one_instance(rng, m_count, d, n_tx,
                                                   n_rx, 1.0)
    h = rng.normal(size=(3, m_count, n_rx, n_tx))
    singular = route.endswith("singular")
    if singular:
        h[1, 0] = 0.0
    block = policy.certify_channels(b, h, constants, params)
    assert block.conditioned.tolist() == [True, not singular, True]
    per_block = [("inv", (3, m_count, k, k))] * (1 + singular)
    if p != n_tx:
        per_block.insert(0, ("qr", (3, m_count) + (max(p, n_tx), min(p, n_tx))))
    actuation = [("qr", (m_count, d, n_rx))]
    assert calls == actuation + per_block
    calls.clear()
    again = policy.certify_channels(b.copy(), h, constants, params)
    assert calls == per_block
    assert again.operator.tobytes() == block.operator.tobytes()
    calls.clear()
    policy.certify_channels(2.0 * b, h, constants, params)
    assert calls == actuation + per_block
    for i in range(len(h)):
        terms = policy.certified_terms(block, i, e)
        if not block.conditioned[i]:
            assert terms is None
            continue
        spectral = policy.rank_one_terms(policy.factorize_agent(b, h[i]), e,
                                         constants, params)
        assert np.allclose(terms.theta, spectral.theta, rtol=1e-12, atol=0)
        assert np.linalg.norm(terms.u - spectral.u) <= 1e-12 * np.linalg.norm(spectral.u)


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
        n_tx = 5            # N_t > d with N_r < d: F has rank 3 < d
    else:
        n_rx = 1            # N_r < N_t: F = B H has rank 1 < N_t
    e, b, h, constants, params = rank_one_instance(rng, m_count, d, n_tx,
                                                   n_rx, gamma)
    assert certified(e, b, h, constants, params) is None
    assert_matches_dense(e, b, h, constants, params)


def test_certified_path_declines_ill_conditioned_channel():
    # agent 1's F = B H has singular values 1 and s: tr G tr G^-1
    # = (1 + s^2)(1 + s^-2) crosses CERTIFIED_MAX_TRACE_PRODUCT = 2.5e19
    # between s = 2.01e-10 and s = 1.99e-10
    rng = np.random.default_rng(1320)
    e, b, h, constants, params = rank_one_instance(rng, 3, 5, 2, 2, 1.0)
    basis, _ = np.linalg.qr(rng.normal(size=(5, 2)))
    b[1] = basis
    h[1] = np.diag([1.0, 1e-4])       # cond 1e4: certified
    assert np.linalg.cond(b[1] @ h[1]) == pytest.approx(1e4, rel=1e-9)
    assert certified(e, b, h, constants, params) is not None
    for s, conditioned in ((2.01e-10, True), (1.99e-10, False)):
        h[1] = np.diag([1.0, s])
        block = policy.certify_channels(b, h[None], constants, params)
        assert bool(block.conditioned[0]) == conditioned
        # inside the limit the eigenvalue bounds decline it: Q_r's diagonal
        # spans cond(F)^2 = 2.5e19, far past the 1e-10 cutoff
        assert policy.certified_terms(block, 0, e) is None


@pytest.mark.parametrize("ratio", [0.9, 1.1, 2.0])
@pytest.mark.parametrize("layout", ["other_agent", "outside_range"])
def test_certified_path_declines_near_cutoff(ratio, layout):
    # at 0.9 the cutoff does not fire, but the eigenvalue ratio is below
    # the certificate's 2e-10 margin
    assert certified(*cutoff_boundary_instance(ratio, layout)) is None


def full_rank_boundary_instance(ratio):
    """M = 1, N_t = N_r = d = 3, so w = 0, with gamma / tr G at ratio times
    the full-rank certificate's edge 2e-10 (gamma tr G^-1 + ||e||^2)."""
    rng = np.random.default_rng(1330)
    e, b, h, constants, _ = rank_one_instance(rng, 1, 3, 3, 3, 1.0)
    f = b[0] @ h[0]
    tr_g = float((f * f).sum())
    tr_inv = float((np.linalg.inv(f) ** 2).sum())   # ||F^-1||_F^2 = tr G^-1
    tol = policy.CERTIFIED_CUTOFF_MARGIN * linalg.DEFAULT_PINV_REL_TOL
    gamma = ratio * tol * float(e @ e) / (1.0 / tr_g - ratio * tol * tr_inv)
    pe = constants.pi * e
    return e, b, h, constants, PolicyParams(p_on=1e-12 * float(pe @ pe),
                                            gamma=gamma)


def test_certified_path_declines_single_agent_at_full_rank():
    # M = 1, N_t = N_r = d: w = 0 and c = e^T Q^-1 e < 1 depends on gamma.
    # The full-rank branch declines below the edge of its certificate,
    # though the 1e-10 cutoff fires only further down; the spectral path
    # then answers as the dense form does.
    for ratio in (0.5, 0.9):
        args = full_rank_boundary_instance(ratio)
        assert certified(*args) is None
        assert_matches_dense(*args, rtol=1e-5)
    rng = np.random.default_rng(1330)
    e, b, h, constants, params = rank_one_instance(rng, 1, 3, 2, 3, 0.7)
    assert certified(e, b, h, constants, params) is not None


@pytest.mark.parametrize("ratio", [1.1, 2.0, 1e4])
def test_full_rank_branch_certifies_above_its_edge(ratio):
    # just above the edge gamma / tr G = 2e-10 lambda_hi the branch answers
    # c = t / (1 + t) and agrees with the dense form; Q is ill-conditioned
    # near the edge, so both carry ~1e10 eps relative rounding
    e, b, h, constants, params = full_rank_boundary_instance(ratio)
    terms = certified(e, b, h, constants, params)
    assert terms is not None
    dec, = assert_matches_dense(e, b, h, constants, params, rtol=1e-5)
    assert dec.delta == 1
    pe = constants.pi * e
    assert terms.theta[0] < float(pe @ pe)


CERTIFIED_ROUTES = {   # route of the middle slot: certified?
    "certified": True, "zero_error": True, "full_rank": True,
    "wide": True, "full_rank_wide": True,
    "cut_bound": True,
    "unconditioned": False, "gamma_zero": False,
    "bound": False, "full_rank_bound": False,
    "cut_slack": False, "cut_margin": False,
}


def route_instance(route):
    """A block of three slots whose middle one takes the named route
    through certified_terms: (e, b, h (3, M, N_r, N_t), constants, params)."""
    rng = np.random.default_rng(1390)
    if route == "bound":
        e, b, h_mid, constants, params = cutoff_boundary_instance(0.9,
                                                                  "outside_range")
    elif route == "full_rank_bound":
        e, b, h_mid, constants, params = full_rank_boundary_instance(0.9)
    elif route.startswith("cut"):
        # gamma = 1e-6: Q_r's cutoff fires, as in calibration's low probes
        e, b, h_mid, constants, params = rank_one_instance(rng, 4, 9, 4, 4, 1e-6)
    else:
        dims = {"full_rank": (1, 3, 3, 3), "wide": (4, 3, 4, 3),
                "full_rank_wide": (1, 3, 5, 3)}.get(route, (4, 9, 4, 4))
        e, b, h_mid, constants, params = rank_one_instance(rng, *dims, 1.0)
    h = np.stack([rng.normal(size=h_mid.shape), h_mid,
                  rng.normal(size=h_mid.shape)])
    if route == "unconditioned":
        h[1, 1] = 0.0
    elif route == "gamma_zero":
        params = PolicyParams(p_on=params.p_on, gamma=0.0)
    elif route == "zero_error":
        e = np.zeros_like(e)
    elif route == "cut_slack":
        # agent 1 holds e inside range(F_1) but for a 1e-3 part: its w^2
        # is 1e-6 of ||e||^2, so delta is far above the slack
        f_1 = b[1] @ h_mid[1]
        e = np.zeros_like(e)
        e[9:18] = f_1 @ rng.normal(size=4)
        e[9:18] += 1e-3 * np.linalg.norm(e) * np.linalg.qr(f_1, "complete")[0][:, -1]
    elif route == "cut_margin":
        # P_on just under theta_0, inside the band of any delta >= 2e-10
        pe = constants.pi * e
        params = PolicyParams(p_on=(1.0 - 1e-13) * float(pe @ pe) / len(b),
                              gamma=params.gamma)
    return e, b, h, constants, params


@pytest.mark.parametrize("route", sorted(CERTIFIED_ROUTES))
def test_block_terms_match_per_slot_formula(route):
    # the per-block bound terms give every slot's result bit for bit as the
    # per-slot formula does, on each route through certified_terms
    e, b, h, constants, params = route_instance(route)
    block = policy.certify_channels(b, h, constants, params)
    for i in range(len(h)):
        terms = policy.certified_terms(block, i, e)
        ref = oracles.slot_certified_terms(b, h[i], e, constants, params)
        assert (terms is None) == (ref is None)
        if ref is not None:
            assert terms.theta.tobytes() == ref.theta.tobytes()
            assert terms.u.shape == ref.u.shape
            assert terms.u.tobytes() == ref.u.tobytes()
    answered = policy.certified_terms(block, 1, e) is not None
    assert answered == CERTIFIED_ROUTES[route]
    if route == "gamma_zero":
        assert_block_declined(e, b, h, constants, params)
        return
    # the middle slot declines for the named reason; on the cut routes Q_r's
    # cutoff fires and only delta and P_on decide
    assert bool(block.conditioned[1]) == (route != "unconditioned")
    if route.startswith("cut"):
        delta, cut = cut_terms(b, h[1], e, params.gamma)
        assert cut.max() >= 1
        assert ((delta.max() <= policy.CERTIFIED_CUT_SLACK)
                == (route != "cut_slack"))
        theta_0 = float((constants.pi * e) @ (constants.pi * e)) / len(b)
        assert (((1.0 - delta.max()) * theta_0 <= params.p_on < theta_0)
                == (route == "cut_margin"))
    if route == "cut_margin":
        # answering theta_0 would flip bits here: the cutoff takes up to
        # 7e-12 of c, which puts three agents' spectral theta under P_on.
        # The dense form's own rounding at gamma = 1e-6 (1.7e-8 of theta
        # here; the spectral 1 - M c agrees with a 50-digit evaluation to
        # 3e-16) exceeds the band, so inside it the bit is the spectral
        # path's
        spectral = policy.rank_one_terms(policy.factorize_agent(b, h[1]), e,
                                         constants, params)
        assert (spectral.theta <= params.p_on).sum() == 3
        return
    assert_matches_dense(e, b, h[1], constants, params, rtol=1e-5)


# The slot test of certified_terms: two scalars of the error, ||e||^2 and
# max_m ||y_e,m||^2, against per-slot agent extremes decide both
# certificates for every agent at once.

def assert_slot_matches_formula(block, i, e, b, h, constants, params):
    """certified_terms of slot i equals the per-slot formula bit for bit;
    returns its result."""
    terms = policy.certified_terms(block, i, e)
    ref = oracles.slot_certified_terms(b, h[i], e, constants, params)
    assert (terms is None) == (ref is None)
    if ref is not None:
        assert terms.theta.tobytes() == ref.theta.tobytes()
        assert terms.u.tobytes() == ref.u.tobytes()
    return terms


def assert_slot_is_sound(block, i, e, b, h, constants, params):
    """assert_slot_matches_formula; where slot i is answered, measured
    from F's SVD, Q_r's cutoff fires only for agents whose delta is within
    the slack and whose band [(1 - delta) theta_0, theta_0) leaves out
    P_on, and theta, u and the transmit bits are the spectral path's up to
    delta and the spectral path's own rounding, C cond(Q_r) eps over the
    eigenvalues it keeps. Returns whether the slot was answered."""
    terms = assert_slot_matches_formula(block, i, e, b, h, constants, params)
    if terms is None:
        return False
    spectral = policy.rank_one_terms(policy.factorize_agent(b, h[i]), e,
                                     constants, params)
    delta, lam = q_r_terms(b, h[i], e, params.gamma)
    kept = lam > linalg.DEFAULT_PINV_REL_TOL * lam[:, -1:]
    cut = ~kept.all(axis=1)
    theta_0 = terms.theta[0]
    assert np.all(delta[cut] <= policy.CERTIFIED_CUT_SLACK)
    assert not np.any(((1.0 - delta[cut]) * theta_0 <= params.p_on)
                      & (params.p_on < theta_0))
    lam_min = np.where(kept, lam, np.inf).min(axis=1)
    rounding = 4 * lam.shape[1] * EPS * lam[:, -1] / lam_min
    slack = np.where(cut, delta, 0.0) + rounding
    assert np.all(np.abs(terms.theta - spectral.theta) <= slack * theta_0)
    err = np.linalg.norm(terms.u - spectral.u, axis=1)
    assert np.all(err <= slack * np.linalg.norm(terms.u, axis=1))
    for m in np.flatnonzero(np.abs(spectral.theta - params.p_on) > slack * theta_0):
        assert (policy.solve_agent(terms, m, params).delta
                == policy.solve_agent(spectral, m, params).delta)
    return True


def scalar_test_errors(rng, f):
    """Errors for the (M, d, N_t) stack f: spread over every agent, held in
    one agent's block, and inside each agent's range(F_m) (or one agent's)
    but for a 1e-3 part; each at a random scale."""
    m_count, d, n_tx = f.shape
    one = np.zeros((m_count, d))
    one[rng.integers(m_count)] = rng.normal(size=d)
    near = (f @ rng.normal(size=(m_count, n_tx, 1)))[..., 0]
    near += 1e-3 * np.abs(near).max() * rng.normal(size=near.shape)
    near_one = np.zeros_like(near)
    near_one[0] = near[0]
    return [float(10.0 ** rng.uniform(-3, 3)) * x.ravel()
            for x in (rng.normal(size=(m_count, d)), one, near, near_one)]


SCALAR_SHAPES = {"tall": (5, 3, 4), "square": (9, 4, 4), "wide": (3, 5, 4)}


@pytest.mark.parametrize("gamma", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("m_count", [2, 3, 4, 8])
@pytest.mark.parametrize("shape", sorted(SCALAR_SHAPES))
def test_scalar_tests_are_sufficient(shape, m_count, gamma):
    # every slot the slot test answers matches the per-slot formula bit for
    # bit and is sound against the spectral path; P_on at 0, at random and
    # just under theta_0 (inside the second certificate's band). Every
    # shape has answered slots: wide F (k = d) has ||y_e,m|| = ||e_m||, so
    # max_m ||y_e,m||^2 stays under ||e||^2 unless e lies in one block
    rng = np.random.default_rng(1600 + 10 * m_count
                                + sorted(SCALAR_SHAPES).index(shape))
    d, n_tx, n_rx = SCALAR_SHAPES[shape]
    b = rng.normal(size=(m_count, d, n_rx))
    h = rng.normal(size=(6, m_count, n_rx, n_tx))
    pi = rng.uniform(0.1, 2.0, size=m_count * d)
    constants = DriftConstants(pi=pi, alpha=2.0 * pi.max() ** 2)
    block = policy.certify_channels(b, h, constants, PolicyParams(gamma=gamma))
    assert block.conditioned.all()
    answered = declined = 0
    for i in range(len(h)):
        for e in scalar_test_errors(rng, b @ h[i]):
            theta_0 = float((pi * e) @ (pi * e)) / m_count
            for p_on in (0.0, float(rng.uniform(0.0, 1.5)) * theta_0,
                         (1.0 - 1e-13) * theta_0):
                params = PolicyParams(p_on=p_on, gamma=gamma)
                sound = assert_slot_is_sound(
                    dataclasses.replace(block, params=params), i, e, b, h,
                    constants, params)
                answered += sound
                declined += not sound
    assert answered > 0 and declined > 0


@pytest.mark.parametrize("gamma", [5e-324, 1e-300, 1e300])
@pytest.mark.parametrize("shape", sorted(SCALAR_SHAPES))
def test_scalar_tests_are_quiet_at_extreme_gamma(shape, gamma):
    # subnormal and huge gamma overflow or underflow the agent extremes,
    # and a singular (middle) and a non-finite (last) slot divide by zero
    # or carry NaN: no warning, and every slot matches the per-slot formula
    rng = np.random.default_rng(1630 + sorted(SCALAR_SHAPES).index(shape))
    d, n_tx, n_rx = SCALAR_SHAPES[shape]
    e, b, _, constants, params = rank_one_instance(rng, 4, d, n_tx, n_rx, gamma)
    h = rng.normal(size=(3, 4, n_rx, n_tx))
    h[1, 0] = 0.0
    h[2, 2, 0, 0] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        block = policy.certify_channels(b, h, constants, params)
        assert block.conditioned.tolist() == [True, False, False]
        for i in range(len(h)):
            for e_slot in (e, *scalar_test_errors(rng, b @ h[0])):
                assert_slot_matches_formula(block, i, e_slot, b, h, constants,
                                            params)


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
    certs = policy.certify_channels(b, h, constants, params)
    assert certs.conditioned.tolist() == [i != k for i in range(n_slots)]
    for i in range(n_slots):
        terms = policy.certified_terms(certs, i, e)
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


@pytest.mark.parametrize("bad", ["zero", "rank_deficient"])
def test_block_decisions_take_each_slot_by_its_own_route(bad):
    # block_decisions certifies the block once; every slot's bits and
    # controls are those of the one-slot dispatch, the declined slot's
    # through the spectral path
    rng = np.random.default_rng(1365)
    m_count, d, n_tx, n_rx, n_slots, k = 4, 9, 4, 4, 5, 2
    e, b, _, constants, params = rank_one_instance(rng, m_count, d, n_tx,
                                                   n_rx, 1.0)
    h = rng.normal(size=(n_slots, m_count, n_rx, n_tx))
    if bad == "zero":
        h[k, 1] = 0.0
    else:
        h[k, 1, :, 3] = h[k, 1, :, 0]
    assert certified(e, b, h[k], constants, params) is None
    decide = policy.block_decisions(b, h, constants, params)
    for i in range(n_slots):
        deltas, controls = decide(i, e)
        want = oracles.decision_arrays(
            oracles.library_decisions(e, b, h[i], constants, params))
        assert deltas.dtype == bool and np.array_equal(deltas, want[0])
        assert controls.shape == (m_count, n_tx)
        assert np.array_equal(controls, want[1])


def test_rank_one_and_certified_terms_reject_a_wrong_shape_error():
    rng = np.random.default_rng(1380)
    e, b, h, constants, params = rank_one_instance(rng, 2, 3, 2, 3, 1.0)
    factors = policy.factorize_agent(b, h)
    for bad in (e[:-1], e.reshape(2, 3)):
        with pytest.raises(ValueError, match=r"e must have shape \(6,\)"):
            policy.rank_one_terms(factors, bad, constants, params)
        with pytest.raises(ValueError, match=r"e must have shape \(6,\)"):
            certified(bad, b, h, constants, params)


def test_block_certificate_declines_wide_channels():
    # wide F (N_t > d) is certified where N_r >= d gives it full row rank;
    # with N_r < d its rank is N_r < d and no slot can be certified
    rng = np.random.default_rng(1370)
    b = rng.normal(size=(2, 3, 4))
    h = rng.normal(size=(6, 2, 4, 5))
    e = rng.normal(size=6)
    constants = DriftConstants(pi=rng.uniform(0.5, 1.0, size=6), alpha=2.0)
    block = policy.certify_channels(b, h, constants, PolicyParams(gamma=1.0))
    assert block.conditioned.all()
    for i in range(len(h)):
        terms = policy.certified_terms(block, i, e)
        _, u_exact = oracles.exact_rank_one_terms(b, h[i], e, constants.pi, 1.0)
        assert_within_contract(terms.u, u_exact, b, h[i], e, constants)
    assert_block_declined(e, b[:, :, :2], h[:, :, :2], constants,
                          PolicyParams(gamma=1.0))
