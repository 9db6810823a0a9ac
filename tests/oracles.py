"""Independent oracles shared by the module tests and the acceptance suite.

Everything here recomputes expected values through a different route than
the library (explicit scalar algebra, grids, finite differences, naive
summation) so the tests stay meaningful.
"""

import math
from dataclasses import dataclass

import numpy as np

from swarmtrack import baselines, channel, linalg, policy, sim, stability, swarm
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


def error_sigma(e) -> np.ndarray:
    """Rank-one error cost matrix Sigma = e e^T."""
    return np.outer(e, e)


def factor_zeta(factors) -> np.ndarray:
    """Power metric U diag(s^-2) U^T on the kept range of factored channels
    (policy.ChannelFactors, batched over leading axes)."""
    scaled = factors.left * factors.inverse_singulars[..., None, :] ** 2
    return scaled @ np.swapaxes(factors.left, -1, -2)


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


def library_decisions(e, b_actuation, h, constants, params, spectral=False):
    """The library's decision of every agent, dispatched as in the slot
    loop: the certified closed form, else (or with spectral=True) one
    stacked factorization and one batched rank-one solve; then solve_agent
    per agent."""
    terms = None if spectral else policy.certified_terms(
        policy.certify_channels(b_actuation, h), e, constants, params)
    if terms is None:
        terms = policy.rank_one_terms(policy.factorize_agent(b_actuation, h),
                                      e, constants, params)
    return [policy.solve_agent(terms, m, params) for m in range(len(terms.theta))]


def decision_arrays(decisions):
    """Per-agent decisions as the library's (deltas (M,), controls (M, N_t))."""
    return (np.array([dec.delta for dec in decisions], dtype=bool),
            np.array([dec.u for dec in decisions]))


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
    sigma = error_sigma(e)
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


def receive_control_loop(deltas, h, u, rng, noise_scale=1.0):
    """Per-agent reception: agent by agent, one size-n_rx noise draw and
    delta_m H_m u_m + v_m, the noise alone for a silent agent."""
    out = []
    for m in range(len(deltas)):
        v = noise_scale * rng.normal(size=np.shape(h[m])[0])
        out.append(np.asarray(h[m]) @ np.asarray(u[m]) + v if deltas[m] else v)
    return np.array(out)


def cov_sqrt(w):
    """Symmetric square root of one PSD matrix through eigh, negative
    rounding-level eigenvalues clipped to zero."""
    vals, vecs = np.linalg.eigh(w)
    return (vecs * np.sqrt(np.clip(vals, 0.0, None))) @ vecs.T


def draw_plant_noise_loop(topology, rng):
    """Per-agent plant noise: agent by agent, a size-d draw mapped through
    that agent's covariance root."""
    d = topology.state_dim
    out = np.empty(topology.global_dim)
    for m in range(topology.m_agents):
        out[m * d:(m + 1) * d] = cov_sqrt(topology.w_noise[m]) @ rng.normal(size=d)
    return out


def step_plant_loop(topology, x, received, noise):
    """x(t+1) = A x + sum_m Bhat_m uhat_m + noise, one block row per agent."""
    x_next = topology.a_global @ np.asarray(x, dtype=float)
    d = topology.state_dim
    for m, uhat in enumerate(received):
        x_next[m * d:(m + 1) * d] += topology.b_actuation[m] @ np.asarray(uhat)
    return x_next + noise


def naive_drift_bound(e, deltas, controls, h, topology, constants):
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
    for m in range(topology.m_agents):
        if not deltas[m]:
            continue
        bhat, hm, u = topology.bhat(m), np.asarray(h[m]), controls[m]
        khat_e = [-sum(bhat[i, j] * hm[j, k] * u[k]
                       for j in range(hm.shape[0]) for k in range(hm.shape[1]))
                  for i in range(bhat.shape[0])]
        total -= 2.0 * sum(constants.pi[i] * e[i] * khat_e[i]
                           for i in range(len(e)))
        total += topology.m_agents * sum(x * x for x in khat_e)
    return total


def _slot_semantic_decide(config, topology):
    """Semantic decision of one slot from that slot's own channel draw."""
    params = policy.PolicyParams(p_on=config.p_on, gamma=config.gamma)
    constants = policy.compute_drift_constants(topology.a_global,
                                               topology.g_target)
    b = topology.b_actuation

    def decide(t, e, h, h_est):
        h = h_est if config.use_estimated_csi else h
        terms = policy.certified_terms(policy.certify_channels(b, h), e,
                                       constants, params)
        if terms is None:
            terms = policy.rank_one_terms(policy.factorize_agent(b, h), e,
                                          constants, params)
        decisions = [policy.solve_agent(terms, m, params)
                     for m in range(topology.m_agents)]
        deltas = np.array([dec.delta for dec in decisions], dtype=int)
        return deltas, np.array([policy.control_signal(dec, e)
                                 for dec in decisions])

    return decide


def _slot_triggered_decide(config, topology):
    """Baseline decision: trigger per agent, PID (or k_p e) on firing."""
    gains = sim.tuned_gains(topology)
    trig = baselines.default_trigger_config(topology.m_agents)
    m_count = topology.m_agents
    accumulator = np.zeros(topology.global_dim)
    prev_e = last_sent = None

    def decide(t, e, h, h_est):
        nonlocal accumulator, prev_e, last_sent
        if prev_e is None:
            prev_e = e
            last_sent = [e] * m_count
        accumulator = accumulator + e
        deltas = np.zeros(m_count, dtype=int)
        for m in range(m_count):
            if config.scheme == "baseline1":
                fires = baselines.periodic_trigger(t, trig.period)
            else:
                fires = baselines.state_trigger(e, last_sent[m], trig.sigma[m],
                                                trig.inverted)
            if fires:
                deltas[m] = 1
                last_sent[m] = e
        controls = np.zeros((m_count, topology.n_tx))
        fired = deltas == 1
        if fired.any():
            if config.scheme == "baseline3":
                law = gains.k_p @ e
            else:
                law = baselines.pid_control(gains.k_p, gains.k_i, gains.k_d,
                                            e, accumulator, prev_e)
            controls[fired] = law[fired]
        prev_e = e
        return deltas, controls

    return decide


def slot_loop_episode(config, topology=None, record_decisions=False):
    """sim.run_episode slot by slot: every random stream drawn, every
    channel estimated and every decision factored inside the slot it
    belongs to, with the single-slot library calls."""
    if topology is None:
        topology = sim.build_topology(config)
    dm = topology.global_dim
    state = swarm.SwarmState(x=np.full(dm, float(config.x0_value)),
                             r=np.full(dm, float(config.r0_value)), t=0)
    decide = (_slot_semantic_decide if config.scheme == "semantic"
              else _slot_triggered_decide)(config, topology)
    costs, powers = [], []
    comm_count = 0
    diverged = False
    logged_bits, logged_sent = [], []
    for t in range(config.horizon):
        e, cost = swarm.tracking_error(state)
        if not math.isfinite(cost):
            diverged = True
            break
        costs.append(cost)
        if cost > sim.OVERFLOW_GUARD:
            diverged = True
            break
        h = channel.draw_channels(
            sim._slot_rng(config.seed, sim._STREAM_CHANNEL, t),
            topology.m_agents, topology.n_rx, topology.n_tx)
        h_est = channel.estimate_channel(
            h, config.pilot_power,
            sim._slot_rng(config.seed, sim._STREAM_PILOT, t))
        deltas, controls = decide(t, e, h, h_est)
        agent_power = np.matmul(controls[:, None, :], controls[:, :, None]).ravel()
        powers.append(float(np.add.accumulate(agent_power)[-1]))
        comm_count += int(deltas.sum())
        logged_bits.append(deltas.astype(bool))
        logged_sent.append(controls.copy())
        received = channel.receive_control(
            deltas, h, controls,
            sim._slot_rng(config.seed, sim._STREAM_RX, t))
        noise = swarm.draw_plant_noise(
            topology, sim._slot_rng(config.seed, sim._STREAM_PLANT, t))
        state = swarm.step_swarm(topology, state, received, noise)
    n = len(costs)
    return sim.Metrics(
        scheme=config.scheme, seed=config.seed,
        avg_cost=float(np.mean(costs)) if n else float("inf"),
        avg_tx_power=float(np.mean(powers)) if powers else 0.0,
        comm_rate=comm_count / (len(powers) * topology.m_agents) if powers else 0.0,
        diverged=diverged, n_slots=n, cost_trajectory=np.array(costs),
        tx_power_trajectory=np.array(powers), gamma=config.gamma,
        decision_log=(np.array(logged_bits, dtype=bool).reshape(-1, topology.m_agents),
                      np.array(logged_sent).reshape(-1, topology.m_agents,
                                                    topology.n_tx))
        if record_decisions else None)


def stability_report_loop(topology, constants, channel_draws, tol=1e-10):
    """stability.stability_report draw by draw: masks, coverage test and
    running sums per draw, in draw order."""
    margins, holds = [], []
    supports = np.zeros(topology.m_agents)
    for h in channel_draws:
        masks = stability.compute_masks(topology, h, tol)
        ok, margin = stability.check_stability_condition(masks, constants.alpha)
        margins.append(margin)
        holds.append(ok)
        supports += [int(diag.sum()) for diag in masks]
    n = len(margins)
    return {
        "alpha": constants.alpha,
        "n_draws": n,
        "fraction_holds": (sum(holds) / n) if n else 0.0,
        "mean_margin": (sum(margins) / n) if n else 0.0,
        "min_margin": min(margins) if n else 0.0,
        "mean_support_per_agent": (supports / max(n, 1)).tolist(),
        "verdict": "stable" if n and all(holds) else "not-verified",
    }
