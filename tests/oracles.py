"""Independent oracles shared by the module tests and the acceptance suite.

Everything here recomputes expected values through a different route than
the library (explicit scalar algebra, grids, finite differences, naive
summation) so the tests stay meaningful.
"""

from dataclasses import dataclass
from fractions import Fraction

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
    (policy.factorize_agent's (left, s, right_t), batched over leading
    axes); singular values at or below 1e-10 * s_max count as zero."""
    left, s, _ = factors
    keep = s > linalg.DEFAULT_PINV_REL_TOL * s[..., :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep)
    return (left * inv_s[..., None, :] ** 2) @ np.swapaxes(left, -1, -2)


def dense_zeta(effective) -> np.ndarray:
    """Full dM x dM power metric of E: inverse squared singular values on
    its range (1e-10 relative cutoff), zero on the orthogonal complement."""
    u, s, _ = linalg.svd(effective)
    inv_sq = np.zeros(effective.shape[0])
    if len(s):
        keep = s > linalg.DEFAULT_PINV_REL_TOL * s[0]
        inv_sq[:len(s)][keep] = s[keep] ** -2.0
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
    """The library's decision of every agent, dispatched as in
    policy.block_decisions: the certified closed form, else (or with
    spectral=True) one stacked factorization and one batched rank-one
    solve; then solve_agent per agent."""
    terms = None if spectral else policy.certified_terms(
        policy.certify_channels(b_actuation, np.asarray(h)[None], params),
        0, e, constants)
    if terms is None:
        terms = policy.rank_one_terms(policy.factorize_agent(b_actuation, h),
                                      e, constants, params)
    return [policy.solve_agent(terms, m, params) for m in range(len(terms.theta))]


def slot_certified_terms(b_actuation, h, e, constants, params):
    """policy.certified_terms of one slot with every term formed at the slot.

    The per-slot formula that policy.CertifiedBlock hoists out of the slot:
    the slot's own thin QR (of F, or of F^T when N_t > d), traces and bound
    terms of gamma, in the operand order of certified_terms, so a slot's
    result agrees with the per-block form bit for bit; both certificates
    (the second reads P_on). None where certified_terms declines.
    """
    gamma = params.gamma
    b = np.asarray(b_actuation, dtype=float)
    m_count, d, n_rx = b.shape
    n_tx = np.shape(h)[-1]
    if gamma == 0 or n_rx < min(d, n_tx):
        return None
    wide = n_tx > d
    f = b @ np.asarray(h, dtype=float)
    tr_g = (f * f).sum(axis=(-2, -1))
    if not np.isfinite(tr_g).all():
        return None
    q, r = np.linalg.qr(np.swapaxes(f, -1, -2) if wide else f)
    if not (np.diagonal(r, axis1=-2, axis2=-1) != 0).all():
        return None
    r_inv = linalg.upper_inverse(r)
    tr_inv = (r_inv * r_inv).sum(axis=(-2, -1))
    if not (tr_g * tr_inv).max() <= policy.CERTIFIED_MAX_TRACE_PRODUCT:
        return None
    e = np.asarray(e, dtype=float)
    full_rank = m_count == 1 and n_tx >= d
    e_sq = float(e @ e)
    tol = policy.CERTIFIED_CUTOFF_MARGIN * linalg.DEFAULT_PINV_REL_TOL
    if e_sq == 0.0:
        return policy.RankOneTerms(theta=np.zeros(m_count),
                                   u=np.zeros((m_count, n_tx)))
    pe = constants.pi * e
    rhs = np.empty((m_count, d, 2))
    rhs[:, :, 0] = e.reshape(m_count, d)
    rhs[:, :, 1] = pe.reshape(m_count, d)
    if wide:
        y, root, lift = rhs, r, q @ np.swapaxes(r_inv, -1, -2)
    else:
        y, root, lift = np.swapaxes(q, -1, -2) @ rhs, np.swapaxes(r, -1, -2), r_inv
    lam_hi = tol * (gamma * tr_inv + m_count * e_sq)
    if full_rank:
        if not 2.0 * gamma > float(2.0 * tr_g[0] * lam_hi[0]):
            return None
        fe = root[0] @ y[0, :, 0]
        t = float(fe @ fe) / gamma
        c = t / (1.0 + t)
        return policy.RankOneTerms(theta=np.array([c * float(pe @ pe)]),
                                   u=(lift @ y[:, :, 1:])[..., 0] * -c)
    ye_sq = (y[:, :, 0] ** 2).sum(axis=1)
    m_w_sq = m_count * (e_sq - ye_sq)
    theta = float(pe @ pe) / m_count
    first = (gamma > (2.0 * tr_g * lam_hi).max()
             and (m_w_sq - lam_hi * (1.0 + 2.0 * m_count / gamma * tr_g
                                     * ye_sq)).min() > 0)
    if not first:
        if not (lam_hi <= policy.CERTIFIED_CUT_SLACK * m_w_sq).all():
            return None
        delta = (lam_hi / m_w_sq).max()
        if (1.0 - delta) * theta <= params.p_on < theta:
            return None
    return policy.RankOneTerms(theta=np.full(m_count, theta),
                               u=(lift @ y[:, :, 1:])[..., 0] / -m_count)


EXACT_MAX_DM = 12


def _exact(a):
    """Nested lists of Fractions holding a float array's values exactly."""
    return [_exact(row) for row in a] if np.ndim(a) else Fraction(float(a))


def _exact_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _exact_solve(a, b):
    """a^-1 b by Gauss-Jordan elimination in Fractions; a singular a raises."""
    n = len(a)
    aug = [list(row) + list(rhs) for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix in exact solve")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * p for v, p in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def exact_rank_one_terms(b_actuation, h, e, pi, gamma):
    """theta (M,) and u (M, N_t) of the rank-one closed form in exact
    rational arithmetic, each rounded once to float at the end.

    The float inputs are taken as exact rationals (fractions.Fraction), F
    = B_m H_m is formed exactly and F^+ comes from the exact normal
    equations: (F^T F)^-1 F^T for N_t <= d, F^T (F F^T)^-1 for N_t > d;
    a rank-deficient F raises ValueError. Valid in the cutoff-free regime,
    for dM <= EXACT_MAX_DM: c = 1/M when w = (I - P_m) e != 0 (the part of
    e that E_m cannot actuate, formed exactly), else c = t / (1 + M t)
    with t = ||F^T e_m||^2 / gamma (t / (1 + t) for one agent at full
    rank); theta = c ||pi o e||^2 and u = -c F^+ (pi o e)_m.
    """
    b = np.asarray(b_actuation, dtype=float)
    m_count, d, _ = b.shape
    if m_count * d > EXACT_MAX_DM:
        raise ValueError(f"dM = {m_count * d} exceeds {EXACT_MAX_DM}")
    e_x = _exact(np.asarray(e, dtype=float))
    pe = [p * v for p, v in zip(_exact(np.asarray(pi, dtype=float)), e_x)]
    pe_sq = sum(v * v for v in pe)
    e_sq = sum(v * v for v in e_x)
    gamma_x = Fraction(float(gamma))
    theta, u = [], []
    for m in range(m_count):
        f = _exact_matmul(_exact(b[m]), _exact(np.asarray(h[m], dtype=float)))
        f_t = _transpose(f)
        e_m = [[v] for v in e_x[m * d:(m + 1) * d]]
        pe_m = [[v] for v in pe[m * d:(m + 1) * d]]
        if len(f_t) <= d:        # full column rank: F^+ = (F^T F)^-1 F^T
            pinv = _exact_solve(_exact_matmul(f_t, f), f_t)
        else:                    # full row rank: F^+ = F^T (F F^T)^-1
            pinv = _transpose(_exact_solve(_exact_matmul(f, f_t), f))
        proj = _exact_matmul(f, _exact_matmul(pinv, e_m))
        e_m_sq = sum(row[0] ** 2 for row in e_m)
        w_sq = (e_sq - e_m_sq) + sum((a[0] - p[0]) ** 2 for a, p in zip(e_m, proj))
        if w_sq != 0:
            c = Fraction(1, m_count)
        else:
            t = sum(v[0] ** 2 for v in _exact_matmul(f_t, e_m)) / gamma_x
            c = t / (1 + m_count * t)
        theta.append(float(c * pe_sq))
        u.append([float(-c * v[0]) for v in _exact_matmul(pinv, pe_m)])
    return np.array(theta), np.array(u)


def decision_arrays(decisions):
    """Per-agent decisions as the library's (deltas (M,), controls (M, N_t))."""
    return (np.array([dec.delta for dec in decisions], dtype=bool),
            np.array([dec.u for dec in decisions]))


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
    return DriftConstants(pi=np.array([pi]), alpha=2.0 * pi ** 2)


def solve_dare_loop(a, b, q, r):
    """Reference Riccati loop: solve_dare's fixed-point iteration with a new
    array per operation and a finiteness check of every iterate, the form
    the library's in-place loop must match bit for bit."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    p = q.copy()
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, baselines.DARE_MAX_ITER + 1):
            btp = b.T @ p
            btpa = btp @ a
            gain = np.linalg.solve(r + btp @ b, btpa)
            p_next = a.T @ p @ a - btpa.T @ gain + q
            p_next = 0.5 * (p_next + p_next.T)
            if not np.isfinite(p_next).all():
                raise baselines.DareConvergenceError(float("inf"), trace)
            residual = float(np.max(np.abs(p_next - p)))  # equation residual at p
            trace.append(residual)
            if residual < baselines.DARE_TOL:
                return baselines.GareGain(p=p, gain=gain, residual=residual,
                                          iterations=it)
            p = p_next
    raise baselines.DareConvergenceError(trace[-1], trace)


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
    """Semantic decision of one slot from that slot's own channel draw:
    policy.block_decisions on a one-slot block."""
    params = policy.PolicyParams(p_on=config.p_on, gamma=config.gamma)
    constants = policy.compute_drift_constants(topology.a_global,
                                               topology.g_target)
    b = topology.b_actuation

    def decide(t, e, h, h_est):
        h = h_est if config.use_estimated_csi else h
        return policy.block_decisions(b, h[None], constants, params)(0, e)

    return decide


def _slot_triggered_decide(config, topology):
    """Baseline decision: trigger per agent, PID (or k_p e) on firing, with
    period ceil(M/2) and sigma_m = m (1-based) written out here."""
    gains = sim.tuned_gains(topology)
    m_count = topology.m_agents
    period = (m_count + 1) // 2
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
                fires = baselines.periodic_trigger(t, period)
            else:
                fires = baselines.state_trigger(e, last_sent[m], m + 1.0)
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


def slot_loop_episode(config, topology=None):
    """sim.run_episode slot by slot: every random stream drawn, every
    channel estimated and every decision factored inside the slot it
    belongs to, with the single-slot library calls."""
    if topology is None:
        topology = sim.build_topology(config)
    m_count, d = topology.m_agents, topology.state_dim
    x = np.full(topology.global_dim, float(config.x0_value))
    r = np.full(topology.global_dim, float(config.r0_value))
    decide = (_slot_semantic_decide if config.scheme == "semantic"
              else _slot_triggered_decide)(config, topology)
    costs, powers = [], []
    comm_count = 0
    diverged = False
    logged_bits, logged_sent = [], []
    for t in range(config.horizon):
        e, cost = swarm.tracking_error(x, r)
        costs.append(cost)
        if not cost <= sim.OVERFLOW_GUARD:
            diverged = True
            break
        h = channel.draw_channels(
            sim._slot_rng(config.seed, sim._STREAM_CHANNEL, t),
            m_count, topology.n_rx, topology.n_tx)
        h_est = channel.estimate_channel(
            h, sim._slot_rng(config.seed, sim._STREAM_PILOT, t).normal(size=h.shape),
            config.pilot_power)
        deltas, controls = decide(t, e, h, h_est)
        agent_power = np.matmul(controls[:, None, :], controls[:, :, None]).ravel()
        powers.append(float(np.add.accumulate(agent_power)[-1]))
        comm_count += int(deltas.sum())
        logged_bits.append(deltas.astype(bool))
        logged_sent.append(controls.copy())
        received = channel.receive_control(
            deltas, h, controls,
            sim._slot_rng(config.seed, sim._STREAM_RX, t).normal(
                size=(m_count, topology.n_rx)))
        noise = swarm.draw_plant_noise(
            topology,
            sim._slot_rng(config.seed, sim._STREAM_PLANT, t).normal(size=(m_count, d)))
        x, r = swarm.step_swarm(topology, x, r, received, noise)
    n = len(costs)
    return sim.Metrics(
        scheme=config.scheme, seed=config.seed,
        avg_cost=float(np.mean(costs)) if n else float("inf"),
        avg_tx_power=float(np.mean(powers)) if powers else 0.0,
        comm_rate=comm_count / (len(powers) * m_count) if powers else 0.0,
        diverged=diverged, n_slots=n, cost_trajectory=np.array(costs),
        tx_power_trajectory=np.array(powers), gamma=config.gamma,
        decision_log=(np.array(logged_bits, dtype=bool).reshape(-1, m_count),
                      np.array(logged_sent).reshape(-1, m_count, topology.n_tx)))


def stability_report_loop(topology, constants, channel_draws):
    """stability.stability_report draw by draw: masks, coverage test and
    running sums per draw, in draw order."""
    margins, holds = [], []
    supports = np.zeros(topology.m_agents)
    for h in channel_draws:
        masks = stability.compute_masks(topology, h)
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
