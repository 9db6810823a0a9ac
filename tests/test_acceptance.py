"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime. Criteria that compare schemes or trends
use the capped per-episode average cost (the Metrics definition); sweep
aggregation separately maps divergent runs to the fixed penalty."""

import json
import time
from dataclasses import replace

import numpy as np

import oracles
from swarmtrack import (baselines, channel, cli, linalg, policy, sim,
                        stability, swarm)
from swarmtrack.policy import PolicyParams


def report(name, ok, elapsed, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({elapsed:.1f}s) {detail}")
    assert ok, f"{name}: {detail}"


def norm_scaled_topology(seed, m_agents=1, d=9, n=9, target_norm=0.2):
    """Ring topology rescaled to spectral norm target_norm (keeps Pi < 1)."""
    topo = swarm.build_ring_topology(m_agents, d, n, n, 1e-5, seed)
    s = target_norm / np.linalg.norm(topo.a_global, 2)
    return swarm.SwarmTopology(
        m_agents=m_agents, state_dim=d, n_tx=n, n_rx=n,
        a_internal=s * topo.a_internal,
        couplings={k: s * v for k, v in topo.couplings.items()},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=topo.g_target)


def test_criterion_1_optimizer_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_margin = 0.0
    worst_grad = 0.0
    for _ in range(50):
        topo, constants, e, sigma, params, agent, h = \
            oracles.random_policy_instance(rng, m_choices=(1, 2, 3, 4),
                                           d_choices=(1, 9), n_choices=(2, 4))
        m_count = topo.m_agents
        zeta = oracles.factor_zeta(policy.factorize_agent(oracles.bhat(topo, agent), h))
        quad = m_count * sigma + params.gamma * zeta
        quad_pinv = linalg.pseudo_inverse(quad)
        khat_star = (constants.pi[:, None] * sigma) @ quad_pinv
        # The library's optimum P_on - theta; the dense closed form is one
        # more candidate it must not lose to.
        dec = oracles.library_decisions(e, topo.b_actuation, [h] * m_count,
                                        constants, params)[agent]
        f_star = params.p_on - dec.theta
        tol = 1e-8 * abs(f_star)
        f_dense = policy.objective(khat_star, sigma, constants.pi, params,
                                   m_count, zeta, 1)
        worst_margin = min(worst_margin, (f_dense - f_star) + tol)
        dm = sigma.shape[0]
        scale_star = max(1.0, np.abs(khat_star).max())
        for _ in range(1000):
            cand = rng.normal(size=(dm, dm)) * scale_star * 10.0 ** rng.uniform(-1, 1)
            f_cand = policy.objective(cand, sigma, constants.pi, params,
                                      m_count, zeta, 1)
            worst_margin = min(worst_margin, (f_cand - f_star) + tol)
        descended = oracles.gradient_descent_minimum(
            sigma, constants.pi, params, m_count, zeta, rng, n_steps=5000)
        f_gd = policy.objective(descended, sigma, constants.pi, params,
                                m_count, zeta, 1)
        worst_margin = min(worst_margin, (f_gd - f_star) + tol)
        grad = policy.objective_gradient(khat_star, sigma, constants.pi,
                                         params, m_count, zeta)
        projected = grad @ (quad_pinv @ quad)
        scale = 1.0 + np.linalg.norm(constants.pi[:, None] * sigma)
        worst_grad = max(worst_grad, np.linalg.norm(projected) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= 0.0 and worst_grad <= 1e-8 and elapsed < 60.0
    report("criterion 1: closed-form optimizer beats candidates and PGD",
           ok, elapsed,
           f"worst margin {worst_margin:.2e}, worst projected grad {worst_grad:.2e}")


def test_criterion_2_scalar_brute_force_decision():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)
    delta_mismatches = 0
    worst_gap = 0.0
    for _ in range(100):
        pi = float(rng.uniform(0.1, 3.0))
        b = float(rng.uniform(0.2, 1.5)) * rng.choice([-1.0, 1.0])
        h = float(rng.uniform(0.2, 1.5)) * rng.choice([-1.0, 1.0])
        e = float(rng.uniform(0.2, 3.0))
        s = e * e
        gamma = float(rng.uniform(0.0, 2.0))
        p_on = float(rng.uniform(0.0, 4.0))
        dec = oracles.library_decisions(np.array([e]), np.array([[[b]]]),
                                        np.array([[[h]]]),
                                        oracles.scalar_constants(pi),
                                        PolicyParams(p_on=p_on, gamma=gamma))[0]
        delta_grid, _, f_grid = oracles.scalar_grid_optimum(
            pi, s, b, h, 1, p_on, gamma, n_points=1_000_000)
        if dec.delta != delta_grid:
            delta_mismatches += 1
        worst_gap = max(worst_gap, dec.objective - f_grid)
    elapsed = time.perf_counter() - t0
    ok = delta_mismatches == 0 and worst_gap <= 1e-6 and elapsed < 30.0
    report("criterion 2: scalar decisions match 1e6-point grid optimum",
           ok, elapsed,
           f"mismatches {delta_mismatches}, worst objective gap {worst_gap:.2e}")


def test_criterion_3_drift_bound_monte_carlo():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    held = 0
    for inst in range(20):
        m_count = int(rng.integers(1, 4))
        d = int(rng.integers(3, 5))
        n = int(rng.integers(1, 4))
        topo = swarm.build_ring_topology(m_count, d, n, n, 1e-2,
                                         int(rng.integers(0, 10 ** 6)))
        constants = policy.compute_drift_constants(topo.a_global,
                                                   topo.g_target)
        r = rng.normal(size=topo.global_dim)
        x = r + 3.0 * rng.normal(size=topo.global_dim)
        params = PolicyParams(p_on=float(rng.uniform(0, 2)),
                              gamma=float(rng.uniform(0, 2)))
        hs = [rng.normal(size=(n, n)) for _ in range(m_count)]
        deltas, controls = oracles.decision_arrays(oracles.library_decisions(
            x - r, topo.b_actuation, hs, constants, params))
        bound = stability.drift_bound(x - r, deltas, controls, hs, topo,
                                      constants)
        mean, stderr = stability.empirical_drift(
            topo, x, r, deltas, controls, hs, 100000,
            np.random.default_rng(9000 + inst))
        held += mean <= bound + 3.0 * stderr
    elapsed = time.perf_counter() - t0
    ok = held >= 19 and elapsed < 120.0
    report("criterion 3: drift bound holds against 1e5-draw Monte Carlo",
           ok, elapsed, f"{held}/20 instances within bound")


def test_criterion_4_gradient_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(20):
        dm = int(rng.integers(2, 5))
        e = rng.normal(size=dm)
        sigma = np.outer(e, e)
        pi = rng.uniform(0.1, 2.0, size=dm)
        u = np.linalg.qr(rng.normal(size=(dm, dm)))[0]
        zeta = (u * rng.uniform(0.0, 3.0, size=dm)) @ u.T
        params = PolicyParams(p_on=float(rng.uniform(0, 2)),
                              gamma=float(rng.uniform(0, 2)))
        m_count = int(rng.integers(1, 4))
        khat = rng.normal(size=(dm, dm))
        analytic = policy.objective_gradient(khat, sigma, pi, params,
                                             m_count, zeta)
        fd = oracles.finite_difference_gradient(khat, sigma, pi, params,
                                                m_count, zeta, step=1e-5)
        worst = max(worst, np.linalg.norm(analytic - fd)
                    / max(np.linalg.norm(analytic), 1e-12))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5
    report("criterion 4: analytic gradient matches central differences",
           ok, elapsed, f"worst relative error {worst:.2e}")


def _calibrated_episode_costs(base, seeds, budget_dbw, schemes):
    """Per-scheme capped average costs over paired seeds, with gamma
    calibrated per seed at the given power budget."""
    costs = {s: [] for s in schemes}
    for seed in seeds:
        cfg = replace(base, seed=int(seed))
        topo = swarm.build_ring_topology(cfg.m_agents, cfg.state_dim,
                                         cfg.n_tx, cfg.n_rx,
                                         cfg.noise_scale, cfg.seed)
        gamma = sim.calibrate_gamma(cfg, topo, budget_dbw, n_probe_seeds=1,
                                    probe_horizon=1000, max_iter=12)
        for scheme in schemes:
            metrics = sim.run_episode(replace(cfg, scheme=scheme, gamma=gamma),
                                      topo)
            costs[scheme].append(metrics.avg_cost)
    return {s: np.array(v) for s, v in costs.items()}


def test_criterion_5_scheme_ordering():
    t0 = time.perf_counter()
    base = sim.SimConfig(m_agents=4, state_dim=9, n_tx=4, n_rx=4,
                         horizon=10000)
    costs = _calibrated_episode_costs(base, range(20), 8.0, sim.SCHEMES)
    sem = costs["semantic"]
    details = []
    ok = True
    for b in ("baseline1", "baseline2", "baseline3"):
        diff = costs[b] - sem
        paired_se = diff.std(ddof=1) / np.sqrt(len(diff))
        ordered = sem.mean() < costs[b].mean()
        by_se = (costs[b].mean() - sem.mean()) >= paired_se
        ok = ok and ordered and by_se
        details.append(f"{b}: gap {diff.mean():.2e} se {paired_se:.2e}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    report("criterion 5: semantic scheme mean cost below every baseline",
           ok, elapsed, "; ".join(details))


def benchmark_topology(m_agents, d, n_tx, n_rx, seed, noise_scale,
                       eig_hi=0.95, eig_lo=0.5):
    """Decoupled swarm with sorted diagonal plant blocks.

    On this family the policy's correction aligns with the plant's decay
    directions, so the mechanisms behind the experiment trends (coverage
    grows with N_t, gains strengthen with power budget, noise accumulates
    with M) act without being drowned by divergence.
    """
    rng = np.random.default_rng(seed)
    eigs = np.linspace(eig_hi, eig_lo, d)
    return swarm.SwarmTopology(
        m_agents=m_agents, state_dim=d, n_tx=n_tx, n_rx=n_rx,
        a_internal=np.array([np.diag(eigs)] * m_agents), couplings={},
        b_actuation=rng.normal(size=(m_agents, d, n_rx)),
        w_noise=np.array([noise_scale * np.eye(d)] * m_agents),
        g_target=np.eye(d * m_agents))


def _semantic_trend(axis, values, seeds):
    means, stderrs = [], []
    for value in values:
        m_agents, d, n_tx, n_rx = 4, 9, 9, 9
        noise_scale, horizon, budget, max_iter = 0.02, 1200, 8.0, 8
        if axis == "M":
            m_agents, d, n_tx, n_rx = int(value), 3, 4, 3
        elif axis == "N_t":
            n_tx = int(value)
        else:
            m_agents, noise_scale, horizon = 1, 9e-5, 1500
            budget, max_iter = float(value), 14
        costs = []
        for seed in seeds:
            cfg = sim.SimConfig(m_agents=m_agents, state_dim=d, n_tx=n_tx,
                                n_rx=n_rx, horizon=horizon, seed=int(seed),
                                p_on=0.001, noise_scale=noise_scale,
                                x0_value=0.0, r0_value=0.0,
                                use_estimated_csi=False)
            topo = benchmark_topology(m_agents, d, n_tx, n_rx, int(seed),
                                      noise_scale)
            gamma = sim.calibrate_gamma(cfg, topo, budget, n_probe_seeds=1,
                                        probe_horizon=300, max_iter=max_iter)
            costs.append(sim.run_episode(replace(cfg, gamma=gamma),
                                         topo).avg_cost)
        costs = np.array(costs)
        means.append(costs.mean())
        stderrs.append(costs.std(ddof=1) / np.sqrt(len(costs)))
    return np.array(means), np.array(stderrs)


def _monotone_within_se(means, stderrs, direction):
    for i in range(len(means) - 1):
        pooled = np.hypot(stderrs[i], stderrs[i + 1])
        if direction == "nondecreasing" and means[i + 1] < means[i] - pooled:
            return False
        if direction == "nonincreasing" and means[i + 1] > means[i] + pooled:
            return False
    return True


def test_criterion_6_trend_checks():
    t0 = time.perf_counter()
    seeds = range(20)
    m_means, m_se = _semantic_trend("M", [2, 4, 8], seeds)
    nt_means, nt_se = _semantic_trend("N_t", [4, 8, 16], seeds)
    p_means, p_se = _semantic_trend("power_dbw", [2.0, 5.0, 8.0, 11.0], seeds)
    ok_m = _monotone_within_se(m_means, m_se, "nondecreasing")
    ok_nt = _monotone_within_se(nt_means, nt_se, "nonincreasing")
    ok_p = _monotone_within_se(p_means, p_se, "nonincreasing")
    elapsed = time.perf_counter() - t0
    report("criterion 6: semantic cost trends along M, N_t and power",
           ok_m and ok_nt and ok_p, elapsed,
           f"M {np.round(m_means, 2)}, N_t {np.round(nt_means, 2)}, "
           f"power {np.round(p_means, 2)}")


def test_criterion_7_stability_checker():
    t0 = time.perf_counter()
    rng = np.random.default_rng(707)
    exact = True
    for _ in range(100):
        dm = int(rng.integers(1, 10))
        m_count = int(rng.integers(1, 6))
        diags = (rng.random(size=(m_count, dm)) < rng.uniform(0.2, 0.9)) \
            .astype(float)
        alpha = float(rng.uniform(0.3, 5.0))
        holds, margin = stability.check_stability_condition(diags, alpha)
        # independent recomputation: max coverage gap over positions
        covered = diags.sum(axis=0)
        gap = max(1.0 - covered[i] / m_count for i in range(dm))
        margin_ref = 1.0 / alpha - gap
        exact = exact and margin == margin_ref and holds == (margin_ref > 0)
    full_ok, _ = stability.check_stability_condition(np.ones((3, 6)), alpha=2.0)
    empty_ok, _ = stability.check_stability_condition(np.zeros((3, 6)), alpha=2.0)
    elapsed = time.perf_counter() - t0
    ok = exact and full_ok and not empty_ok
    report("criterion 7: stability margin equals coverage recomputation",
           ok, elapsed,
           f"exact={exact}, full-coverage holds={full_ok}, empty holds={empty_ok}")


def test_criterion_8_bounded_tracking_under_semantic_scheme():
    t0 = time.perf_counter()
    topo = norm_scaled_topology(seed=1)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    draws = np.array([channel.draw_channels(sim._slot_rng(1, 1, t), 1, 9, 9)
                      for t in range(200)])
    fraction = stability.stability_report(topo, constants, draws)["fraction_holds"]
    diverged = 0
    worst_ratio = 0.0
    for seed in range(20):
        cfg = sim.SimConfig(m_agents=1, state_dim=9, n_tx=9, n_rx=9,
                            horizon=10000, seed=seed,
                            use_estimated_csi=False)
        metrics = sim.run_episode(cfg, topo)
        diverged += metrics.diverged
        running_1k = metrics.cost_trajectory[:1000].mean()
        running_10k = metrics.cost_trajectory.mean()
        worst_ratio = max(worst_ratio, running_10k / running_1k)
    elapsed = time.perf_counter() - t0
    ok = fraction >= 0.99 and diverged == 0 and worst_ratio <= 2.0
    report("criterion 8: verified-stable configuration stays bounded",
           ok, elapsed,
           f"condition fraction {fraction}, diverged {diverged}/20, "
           f"worst avg ratio {worst_ratio:.3f}")


def test_criterion_9_byte_identical_outputs(tmp_path):
    t0 = time.perf_counter()
    config = {"m_agents": 2, "state_dim": 2, "n_tx": 2, "n_rx": 2,
              "horizon": 300, "seed": 909}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    identical = True
    for args, names in [
        (["run"], ["metrics.csv", "cost_trajectory.csv"]),
        (["sweep", "--axis", "M", "--values", "1,2", "--seeds", "2"],
         ["sweep.csv", "aggregate.csv"]),
    ]:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / (args[0] + tag)
            code = cli.main(args + ["--config", str(path), "--out", str(out)])
            assert code == 0
            outs.append(out)
        for name in names:
            identical = identical and (
                (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes())
    elapsed = time.perf_counter() - t0
    # execution is single-threaded and seed-keyed, so thread count cannot
    # perturb the streams; reruns must match byte for byte
    report("criterion 9: reruns produce byte-identical CSV outputs",
           identical, elapsed)


def test_criterion_10_numerics_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1010)
    ok = True
    for case in range(200):
        a = int(rng.integers(1, 7))
        b = int(rng.integers(1, 7))
        m = rng.normal(size=(a, b)) * 10.0 ** rng.integers(-2, 3)
        if case % 4 == 0 and min(a, b) > 1:
            m[:, -1] = m[:, 0]
        u, s, vt = linalg.svd(m)
        k = len(s)
        smax = s[0] if k else 0.0
        rebuilt = (u[:, :k] * s) @ vt[:k]
        ok = ok and np.max(np.abs(rebuilt - m)) <= 1e-10 * max(smax, 1e-300)
        p = linalg.pseudo_inverse(m)
        scale = max(1.0, np.abs(m).max())
        ok = ok and np.max(np.abs(m @ p @ m - m)) <= 1e-8 * scale
        ok = ok and np.max(np.abs(p @ m @ p - p)) <= 1e-8 * max(1.0, np.abs(p).max())
        ok = ok and np.max(np.abs((m @ p).T - m @ p)) <= 1e-8 * scale
        ok = ok and np.max(np.abs((p @ m).T - p @ m)) <= 1e-8 * scale
    dare_ok = 0
    for case in range(200):
        n = int(rng.integers(1, 5))
        a = rng.normal(size=(n, n))
        a *= rng.uniform(0.2, 0.9) / max(np.max(np.abs(np.linalg.eigvals(a))), 1e-9)
        bmat = rng.normal(size=(n, int(rng.integers(1, 4))))
        sol = baselines.solve_dare(a, bmat, np.eye(n), np.eye(bmat.shape[1]))
        btp = bmat.T @ sol.p
        gain = np.linalg.solve(np.eye(bmat.shape[1]) + btp @ bmat, btp @ a)
        res = a.T @ sol.p @ a - a.T @ sol.p @ bmat @ gain + np.eye(n) - sol.p
        dare_ok += np.max(np.abs(res)) <= 1e-8
    elapsed = time.perf_counter() - t0
    ok = ok and dare_ok == 200
    report("criterion 10: randomized numerics contracts",
           ok, elapsed, f"dare residual ok {dare_ok}/200")
