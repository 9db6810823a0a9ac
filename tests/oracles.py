"""Independent oracles shared by the module tests and the acceptance suite.

Everything here recomputes expected values through a different route than
the library (explicit scalar algebra, grids, finite differences, naive
summation) so the tests stay meaningful.
"""

from dataclasses import dataclass

import numpy as np

from swarmtrack import linalg, policy, swarm
from swarmtrack.policy import DriftConstants, PolicyParams


@dataclass(frozen=True)
class DenseDecision:
    """Dense per-agent decision: bit, threshold, physical n_tx x dM gain,
    achieved lifted gain khat = delta * E @ gain and minimized surrogate
    value."""

    delta: int
    theta: float
    gain: np.ndarray
    khat: np.ndarray
    objective: float

    def control(self, e) -> np.ndarray:
        """Transmit vector -gain @ e (zero when silent)."""
        return -self.gain @ np.asarray(e, dtype=float)


def dense_zeta(effective) -> np.ndarray:
    """Full dM x dM power metric of E: inverse squared singular values on
    its range (1e-10 relative cutoff), zero on the orthogonal complement."""
    f = linalg.svd(effective)
    inv_sq = np.zeros(effective.shape[0])
    if len(f.singulars):
        cutoff = linalg.DEFAULT_PINV_REL_TOL * f.singulars[0]
        keep = f.singulars > cutoff
        inv_sq[:len(f.singulars)][keep] = f.singulars[keep] ** -2.0
    u = f.left_basis
    return (u * inv_sq) @ u.T


def solve_agent(sigma, bhat_m, h_m, constants: DriftConstants,
                params: PolicyParams, m_count: int) -> DenseDecision:
    """Dense closed form: theta = Tr(Pi Sigma Q^+ Sigma Pi) with
    Q = M Sigma + gamma zeta and both pseudoinverses through the 1e-10
    relative cutoff of linalg.pseudo_inverse."""
    sigma = np.asarray(sigma, dtype=float)
    effective = np.asarray(bhat_m, dtype=float) @ np.asarray(h_m, dtype=float)
    dm = sigma.shape[0]
    n_tx = effective.shape[1]
    quad = m_count * sigma + params.gamma * dense_zeta(effective)
    quad_pinv = linalg.pseudo_inverse(quad)
    pi_sigma = constants.pi[:, None] * sigma
    theta = float(np.trace(pi_sigma @ quad_pinv @ pi_sigma.T))
    if params.p_on >= theta:
        return DenseDecision(delta=0, theta=theta, gain=np.zeros((n_tx, dm)),
                             khat=np.zeros((dm, dm)), objective=0.0)
    khat_star = pi_sigma @ quad_pinv
    gain = linalg.pseudo_inverse(effective) @ khat_star
    khat = effective @ gain
    return DenseDecision(delta=1, theta=theta, gain=gain, khat=khat,
                         objective=params.p_on - theta)


def library_decisions(e, b_actuation, h, constants, params):
    """The library's decision of every agent: one stacked factorization,
    one batched rank-one solve, then solve_agent per agent."""
    terms = policy.rank_one_terms(policy.factorize_agent(b_actuation, h), e,
                                  constants, params)
    return [policy.solve_agent(terms, m, params) for m in range(len(terms.theta))]


def scalar_objective(k, delta, pi, s, b, h, m_count, p_on, gamma):
    """Problem objective for the one-dimensional system, written from scratch.

    k is the physical gain; the lifted gain is delta * b * h * k.
    """
    if not delta:
        return 0.0
    khat = b * h * k
    return (-2.0 * pi * khat * s + m_count * khat * khat * s
            + p_on + gamma * k * k)


def scalar_grid_optimum(pi, s, b, h, m_count, p_on, gamma, n_points=1_000_000):
    """Brute-force optimum of the scalar problem over delta and a gain grid.

    The transmit branch of the objective is a parabola in k with positive
    curvature m_count * s * (b h)^2 + gamma, so a grid bracketing the vertex
    finds the global optimum of that branch.
    """
    curvature = m_count * s * (b * h) ** 2 + gamma
    if curvature > 0:
        vertex = pi * s * b * h / curvature
    else:
        vertex = 0.0
    span = 2.0 * abs(vertex) + 1.0
    grid = np.linspace(vertex - span, vertex + span, n_points)
    khat = b * h * grid
    f_on = (-2.0 * pi * khat * s + m_count * khat * khat * s
            + p_on + gamma * grid * grid)
    i = int(np.argmin(f_on))
    if f_on[i] < 0.0:
        return 1, float(grid[i]), float(f_on[i])
    return 0, 0.0, 0.0


def finite_difference_gradient(khat, sigma, pi, params, m_count, zeta,
                               step=1e-5):
    """Central finite differences of the policy objective at delta = 1."""
    grad = np.zeros_like(khat)
    for i in range(khat.shape[0]):
        for j in range(khat.shape[1]):
            up = khat.copy()
            up[i, j] += step
            dn = khat.copy()
            dn[i, j] -= step
            f_up = policy.objective(up, sigma, pi, params, m_count, zeta, 1)
            f_dn = policy.objective(dn, sigma, pi, params, m_count, zeta, 1)
            grad[i, j] = (f_up - f_dn) / (2.0 * step)
    return grad


def gradient_descent_minimum(sigma, pi, params, m_count, zeta, rng,
                             n_steps=5000):
    """Plain gradient descent on the transmit-branch objective."""
    dm = sigma.shape[0]
    quad = m_count * sigma + params.gamma * zeta
    lipschitz = 2.0 * np.linalg.norm(quad, 2)
    step = 1.0 / max(lipschitz, 1e-12)
    khat = rng.normal(size=(dm, dm))
    for _ in range(n_steps):
        khat = khat - step * policy.objective_gradient(khat, sigma, pi, params,
                                                       m_count, zeta)
    return khat


def random_policy_instance(rng, m_choices=(1, 2, 3, 4), d_choices=(1, 9),
                           n_choices=(2, 4), error_scale=3.0):
    """Random swarm + error + channel instance for optimizer checks."""
    m_count = int(rng.choice(m_choices))
    d = int(rng.choice(d_choices))
    n = int(rng.choice(n_choices))
    topo = swarm.build_ring_topology(m_count, d, n, n,
                                     seed=int(rng.integers(0, 2 ** 32)))
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    e = error_scale * rng.normal(size=topo.global_dim)
    sigma = np.outer(e, e)
    params = PolicyParams(p_on=float(rng.uniform(0.0, 5.0)),
                          gamma=float(rng.uniform(0.0, 2.0)))
    agent = int(rng.integers(0, m_count))
    h = rng.normal(size=(n, n))
    return topo, constants, e, sigma, params, agent, h


def scalar_constants(pi):
    return DriftConstants(pi=np.array([pi]), alpha=2.0 * pi ** 2,
                          sv_a=np.array([pi]), sv_g=np.array([pi]))


def scaled_stable_topology(m_agents, d, n, seed, target_radius=0.5,
                           noise_scale=1e-5, n_tx=None):
    """Ring topology rescaled so the open-loop spectral radius is small."""
    n_tx = n_tx or n
    topo = swarm.build_ring_topology(m_agents, d, n_tx, n, noise_scale, seed)
    radius = float(np.max(np.abs(np.linalg.eigvals(topo.a_global))))
    scale = target_radius / max(radius, 1e-12)
    return swarm.SwarmTopology(
        m_agents=m_agents, state_dim=d, n_tx=n_tx, n_rx=n,
        a_internal=scale * topo.a_internal,
        couplings={k: scale * v for k, v in topo.couplings.items()},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=topo.g_target)


def naive_drift_bound(e, decisions, h, topology, constants):
    """Term-by-term recomputation of the drift bound with explicit loops.

    Khat_m e = -Bhat_m H_m u_m is summed entry by entry; with Sigma = e e^T
    Tr(Khat Sigma Pi) = sum_i pi_i e_i (Khat e)_i and
    Tr(Sigma Khat^T Khat) = ||Khat e||^2.
    """
    total = 0.0
    for m in range(topology.m_agents):
        total += float(np.trace(topology.w_noise[m]))
        bm = topology.b_actuation[m]
        total += float(sum(bm[i, j] ** 2 for i in range(bm.shape[0])
                           for j in range(bm.shape[1])))
    total += (constants.alpha - 1.0) * float(sum(x * x for x in e))
    for m, dec in enumerate(decisions):
        if not dec.delta:
            continue
        bhat, hm = topology.bhat(m), np.asarray(h[m])
        khat_e = [-sum(bhat[i, j] * hm[j, k] * dec.u[k]
                       for j in range(hm.shape[0]) for k in range(hm.shape[1]))
                  for i in range(bhat.shape[0])]
        total -= 2.0 * sum(constants.pi[i] * e[i] * khat_e[i]
                           for i in range(len(e)))
        total += topology.m_agents * sum(x * x for x in khat_e)
    return total
