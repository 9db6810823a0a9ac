"""Drift-bound evaluation, Monte Carlo drift estimation and the stability test.

The one-step drift of the tracking cost ||e||^2, conditioned on the current
error and a channel draw, is bounded by

    Tr(W) + sum_m Tr(B_m B_m^T) + (alpha - 1) Tr(Sigma)
      - 2 sum_m Tr(Khat_m Sigma Pi) + M sum_m Tr(Sigma Khat_m^T Khat_m)

with Khat_m = delta_m E_m K_m the achieved lifted gain; with Sigma = e e^T
the decisions enter only through Khat_m e = -E_m u_m. The quadratic term
enters with a positive sign: expanding ||e(t+1)||^2 directly puts it there,
and a subtracted quadratic would let arbitrarily large gains break the
bound.

The sufficient stability test checks how much of the error space the
swarm's effective channels can actuate: each agent contributes a binary
diagonal mask with ones on its numerically nonzero singular directions,
and the swarm passes when  max_i (1 - coverage_i) < 1 / alpha  where
coverage_i is the fraction of agents whose mask covers position i.

On channel draws the test can hold only when M = 1 and N_t >= d, or when
alpha < 1. Agent m's mask has at most min(d, N_t) ones, all on the
leading positions, so when M >= 2 (or N_t < d) the positions at or
beyond min(d, N_t) of the dM are covered by no agent, the gap there is
1, and the margin is 1/alpha - 1 whatever the channels. With
alpha = 2 max(||A||^2, ||G||^2) >= 1, which any target with ||G|| >= 1/sqrt(2)
gives, every such report is "not-verified".
"""

import math

import numpy as np

from .policy import DriftConstants, factorize_agent
from .swarm import SwarmState, SwarmTopology, tracking_error

DEFAULT_MASK_REL_TOL = 1e-10


def _lifted_actions(deltas, controls, h, topology: SwarmTopology) -> np.ndarray:
    """Khat_m e = -E_m u_m of every agent as its (M, d) block rows.

    Only block row m of E_m = Bhat_m H_m is non-zero, so agent m's action
    is the d-block -B_m (H_m u_m), one batched product over the agents; a
    silent agent's row is zero whatever its control row holds.
    """
    h = np.asarray(h, dtype=float)
    u = np.asarray(controls, dtype=float)
    actions = topology.b_actuation @ (h @ u[..., None])
    return np.where(np.asarray(deltas, dtype=bool)[:, None], -actions[..., 0], 0.0)


def drift_bound(e, deltas, controls, h, topology: SwarmTopology,
                constants: DriftConstants) -> float:
    """Analytic one-step drift bound conditioned on the given decisions.

    e is the error the decisions were taken for (Sigma = e e^T); deltas
    (M,) are the communication bits and controls (M, N_t) the transmit
    vectors taken on the (M, N_r, N_t) channels h. The channel enters only
    through each transmitting agent's Khat_m e = -E_m u_m, so the caller
    averages this value over channel draws to estimate the expectation
    form of the bound.
    """
    e = np.asarray(e, dtype=float)
    actions = _lifted_actions(deltas, controls, h, topology).reshape(-1)
    total = topology.w_global_trace()
    total += sum(float(np.trace(topology.b_actuation[m] @ topology.b_actuation[m].T))
                 for m in range(topology.m_agents))
    total += (constants.alpha - 1.0) * float(e @ e)
    total -= 2.0 * float((constants.pi * e) @ actions)
    total += topology.m_agents * float(actions @ actions)
    return total


def empirical_drift(topology: SwarmTopology, state: SwarmState, deltas,
                    controls, h, n_draws: int, rng):
    """Monte Carlo estimate of E[||e(t+1)||^2 - ||e(t)||^2 | e(t)].

    The decisions (deltas (M,), controls (M, N_t)) and the (M, N_r, N_t)
    channels h they were taken on are held fixed; plant noise and channel
    reception noise are resampled n_draws times. Returns (mean, standard
    error). Sums are compensated (math.fsum) so the result does not depend
    on accumulation order.
    """
    _, cost = tracking_error(state)
    d = topology.state_dim
    base = topology.a_global @ state.x - topology.g_target @ state.r
    base -= _lifted_actions(deltas, controls, h, topology).reshape(-1)
    drifts = np.empty(n_draws)
    chunk = 4096
    done = 0
    while done < n_draws:
        n = min(chunk, n_draws - done)
        noise = np.zeros((n, topology.global_dim))
        for m in range(topology.m_agents):
            v = rng.normal(size=(n, topology.n_rx))
            noise[:, m * d:(m + 1) * d] += v @ topology.b_actuation[m].T
        for m in range(topology.m_agents):
            w = rng.normal(size=(n, d)) @ topology.noise_root[m].T
            noise[:, m * d:(m + 1) * d] += w
        e_next = base[None, :] + noise
        drifts[done:done + n] = np.einsum("ij,ij->i", e_next, e_next) - cost
        done += n
    mean = math.fsum(drifts) / n_draws
    if n_draws > 1:
        var = math.fsum((x - mean) ** 2 for x in drifts) / (n_draws - 1)
        stderr = math.sqrt(var / n_draws)
    else:
        stderr = float("inf")
    return mean, stderr


def compute_masks(topology: SwarmTopology, h,
                  tol: float = DEFAULT_MASK_REL_TOL) -> np.ndarray:
    """Binary mask diagonals (..., M, dM) of channels h (..., M, N_r, N_t).

    Agent m's mask has ones on the numerically nonzero singular directions
    of E_m E_m^T. Its eigenvalues are the squared singular values of the
    d x N_t block B_m H_m (zeros beyond), so one stacked thin SVD covers
    every agent of every draw; position i is kept when its eigenvalue
    exceeds tol times the largest, which a zero channel never does. An
    agent's support is the sum of its diagonal.
    """
    spectra = factorize_agent(topology.b_actuation, h).singulars ** 2
    diag = np.zeros(spectra.shape[:-1] + (topology.global_dim,))
    diag[..., :spectra.shape[-1]] = spectra > tol * spectra[..., :1]
    return diag


def check_stability_condition(masks: np.ndarray, alpha: float):
    """Sufficient tracking-stability test from actuation coverage.

    masks holds stacked mask diagonals (..., M, dM) of any number of
    draws (compute_masks). Returns (holds, margin) per draw with
    margin = 1/alpha - ||I - mean(masks)||. Masks are binary diagonal, so
    the norm is the largest per-position coverage gap 1 - coverage_i.
    """
    margin = 1.0 / alpha - np.max(1.0 - masks.mean(axis=-2), axis=-1)
    return margin > 0.0, margin


def stability_report(topology: SwarmTopology, constants: DriftConstants,
                     channel_draws: np.ndarray,
                     tol: float = DEFAULT_MASK_REL_TOL) -> dict:
    """Evaluate the stability test over stacked channel draws.

    channel_draws holds the (n, M, N_r, N_t) channels of n draws; all
    draws are factored by one stacked SVD and tested at once. Returns a
    JSON-ready document with alpha, the fraction of draws that satisfy the
    condition, margin statistics and mean per-agent support.
    """
    n = len(channel_draws)
    if n:
        diags = compute_masks(topology, channel_draws, tol)
        holds, margins = check_stability_condition(diags, constants.alpha)
        holds, margins = holds.tolist(), margins.tolist()
        supports = diags.sum(axis=(0, 2))
    else:
        holds, margins, supports = [], [], np.zeros(topology.m_agents)
    return {
        "alpha": constants.alpha,
        "n_draws": n,
        "fraction_holds": (sum(holds) / n) if n else 0.0,
        "mean_margin": (sum(margins) / n) if n else 0.0,
        "min_margin": min(margins) if n else 0.0,
        "mean_support_per_agent": (supports / max(n, 1)).tolist(),
        "verdict": "stable" if n and all(holds) else "not-verified",
    }
