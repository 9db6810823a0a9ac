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
        policy.certify_channels(b_actuation, np.asarray(h)[None], constants,
                                params), 0, e)
    if terms is None:
        terms = policy.rank_one_terms(policy.factorize_agent(b_actuation, h),
                                      e, constants, params)
    return [policy.solve_agent(terms, m, params) for m in range(len(terms.theta))]


def slot_certified_terms(b_actuation, h, e, constants, params):
    """policy.certified_terms of one slot with every term formed at the slot.

    The per-slot formula that policy.CertifiedBlock hoists out of the slot:
    the slot's own factors, traces, agent extremes of the bound terms and
    operator [q_t; -F^+ diag(pi_m) / M], in the operand order of
    certified_terms, so a slot's result agrees with the per-block form bit
    for bit; one slot test for both certificates (the second reads
    P_on). The factors are those of
    F = U S W^T: the QR B_m = Q_B R_B of the actuation, C = R_B H_m
    (p x N_t, p = min(d, N_r)) and its k x k core S, which is C itself
    where p = N_t, the R of C = Q_C R where p > N_t (U = Q_B Q_C) and R^T
    of C^T = Q_C R where p < N_t (W = Q_C); q_t = U^T, root = S^T,
    lift = W S^-1, tr G = ||C||_F^2 and tr G^-1 = ||S^-1||_F^2. None where
    certified_terms declines.
    """
    gamma = params.gamma
    b = np.asarray(b_actuation, dtype=float)
    h = np.asarray(h, dtype=float)
    m_count, d, n_rx = b.shape
    n_tx = h.shape[-1]
    k = min(d, n_tx)
    if gamma == 0 or n_rx < k:
        return None
    q_b, r_b = np.linalg.qr(b)
    p = r_b.shape[-2]
    c = r_b @ h
    tr_g = (c * c).sum(axis=(-2, -1))
    if not np.isfinite(tr_g).all():
        return None
    if p == n_tx:
        core = c
    else:
        q_c, r = np.linalg.qr(c if p > n_tx else np.swapaxes(c, -1, -2))
        core = r if p > n_tx else np.swapaxes(r, -1, -2)
    if (np.linalg.slogdet(core)[0] == 0).any():
        return None
    s_inv = np.linalg.inv(core)
    tr_inv = (s_inv * s_inv).sum(axis=(-2, -1))
    if not (tr_g * tr_inv).max() <= policy.CERTIFIED_MAX_TRACE_PRODUCT:
        return None
    e = np.asarray(e, dtype=float)
    e_sq = float(e @ e)
    tol = policy.CERTIFIED_CUTOFF_MARGIN * linalg.DEFAULT_PINV_REL_TOL
    if e_sq == 0.0:
        return policy.RankOneTerms(theta=np.zeros(m_count),
                                   u=np.zeros((m_count, n_tx)))
    operator = np.empty((m_count, k + n_tx, d))
    scale = constants.pi.reshape(m_count, 1, d) / -m_count
    u_t = np.swapaxes(q_b, -1, -2)
    if p > n_tx:
        u_t = np.swapaxes(q_c, -1, -2) @ u_t
    lift = q_c @ s_inv if p < n_tx else s_inv
    operator[:, :k] = u_t
    root = np.swapaxes(core, -1, -2)
    operator[:, k:] = lift @ (u_t * scale)
    pe = constants.pi * e
    z = (operator @ e.reshape(m_count, d, 1))[..., 0]
    y_e, u = z[:, :k], z[:, k:]
    # the slot's agent extremes of the bound terms, which extreme gamma
    # overflows or underflows
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        gamma_tr_inv = gamma * tr_inv
        e_sq_limit = ((gamma / (tol * (2.0 * tr_g)) - gamma_tr_inv) / m_count).min()
        slope = float(((2.0 * m_count / gamma) * tr_g).max())
    lam = tol * (float(gamma_tr_inv.max()) + m_count * e_sq)
    if m_count == 1 and n_tx >= d:
        if not slope * lam < 2.0:
            return None
        fe = root[0] @ y_e[0]
        t = float(fe @ fe) / gamma
        c = t / (1.0 + t)
        return policy.RankOneTerms(theta=np.array([c * float(pe @ pe)]), u=u * c)
    theta = float(pe @ pe) / m_count
    y_sq = float((y_e[:, None, :] @ y_e[:, :, None]).max())
    w = m_count * (e_sq - y_sq)
    first = e_sq < e_sq_limit and w - lam * (1.0 + slope * y_sq) > 0
    if not first:
        if not (w > 0 and lam <= policy.CERTIFIED_CUT_SLACK * w):
            return None
        if (1.0 - lam / w) * theta <= params.p_on < theta:
            return None
    return policy.RankOneTerms(theta=np.full(m_count, theta), u=u)


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


def _exact_pinv(f):
    """F^+ of an exact full-rank F from the exact normal equations:
    (F^T F)^-1 F^T for N_t <= d, F^T (F F^T)^-1 for N_t > d; a
    rank-deficient F raises ValueError."""
    f_t = _transpose(f)
    if len(f_t) <= len(f):
        return _exact_solve(_exact_matmul(f_t, f), f_t)
    return _transpose(_exact_solve(_exact_matmul(f, f_t), f))


def _exact_channel(b_m, h_m):
    """F = B_m H_m formed exactly from the float inputs."""
    return _exact_matmul(_exact(np.asarray(b_m, dtype=float)),
                         _exact(np.asarray(h_m, dtype=float)))


def exact_pseudo_inverse(b_m, h_m) -> np.ndarray:
    """F^+ (N_t, d) of F = B_m H_m in exact rational arithmetic, rounded
    once to float; a rank-deficient F raises ValueError."""
    return np.array([[float(v) for v in row]
                     for row in _exact_pinv(_exact_channel(b_m, h_m))])


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
        f = _exact_channel(b[m], h[m])
        f_t = _transpose(f)
        e_m = [[v] for v in e_x[m * d:(m + 1) * d]]
        pe_m = [[v] for v in pe[m * d:(m + 1) * d]]
        pinv = _exact_pinv(f)
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


# The fixed-point rule solve_dare_loop stops on: at most 10000 steps,
# until max|P_k+1 - P_k| < 1e-8.
DARE_MAX_ITER = 10000
DARE_TOL = 1e-8


def solve_dare_loop(a, b, q, r):
    """Reference Riccati loop: the fixed-point iteration from P = Q, with a
    new array per operation and a finiteness check of every iterate, whose
    converged gain solve_dare's doubling solve must reproduce."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    p = q.copy()
    trace = []
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, DARE_MAX_ITER + 1):
            btp = b.T @ p
            btpa = btp @ a
            gain = np.linalg.solve(r + btp @ b, btpa)
            p_next = a.T @ p @ a - btpa.T @ gain + q
            p_next = 0.5 * (p_next + p_next.T)
            if not np.isfinite(p_next).all():
                raise baselines.DareConvergenceError(float("inf"), trace)
            residual = float(np.max(np.abs(p_next - p)))  # equation residual at p
            trace.append(residual)
            if residual < DARE_TOL:
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


def bhat(topology, m) -> np.ndarray:
    """Global actuation matrix of agent m: B_m at block row m, zeros elsewhere."""
    out = np.zeros((topology.global_dim, topology.n_rx))
    d = topology.state_dim
    out[m * d:(m + 1) * d, :] = topology.b_actuation[m]
    return out


def static_channel_input(topology) -> np.ndarray:
    """Dense aggregate input map under the all-ones static channel.

    Column block m is Bhat_m @ 1_{n_rx x n_tx}; shape (dM, M * n_tx). The
    n_tx columns of block m are one column repeated, so the map has rank
    at most M: it is B_c @ kron(I_M, 1^T_{n_tx}), B_c its columns [:, ::n_tx],
    the rank-M input baselines.tune_pid solves the Riccati equation on.
    """
    ones = np.ones((topology.n_rx, topology.n_tx))
    return np.hstack([bhat(topology, m) @ ones for m in range(topology.m_agents)])


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
        bhat_m, hm, u = bhat(topology, m), np.asarray(h[m]), controls[m]
        khat_e = [-sum(bhat_m[i, j] * hm[j, k] * u[k]
                       for j in range(hm.shape[0]) for k in range(hm.shape[1]))
                  for i in range(bhat_m.shape[0])]
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
    k_p = sim.tuned_gains(topology)
    k_i, k_d = baselines.KAPPA_I * k_p, baselines.KAPPA_D * k_p
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
                law = k_p @ e
            else:
                law = baselines.pid_control(k_p, k_i, k_d, e, accumulator, prev_e)
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
