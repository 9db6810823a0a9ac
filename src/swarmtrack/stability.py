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

from . import _checks, swarm
from .policy import DriftConstants
from .swarm import SwarmTopology

DEFAULT_MASK_REL_TOL = 1e-10


def _sent(deltas, controls) -> np.ndarray:
    """The (M, N_t) controls with every silent agent's row 0.0, as the plant
    step (swarm.step_swarm) takes them."""
    return np.where(np.asarray(deltas, dtype=bool)[:, None],
                    np.asarray(controls, dtype=float), 0.0)


def _lifted_actions(deltas, controls, h, topology: SwarmTopology) -> np.ndarray:
    """Khat_m e = -E_m u_m of every agent, stacked as a (dM,) vector.

    Only block row m of E_m = Bhat_m H_m is non-zero, so agent m's action
    is the d-block -B_m H_m u_m: swarm.plant_input of the channels'
    B_m H_m (swarm.channel_actuation), negated; a silent agent's block is
    zero whatever its control row holds.
    """
    return -swarm.plant_input(swarm.channel_actuation(topology, h),
                              _sent(deltas, controls))


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
    actions = _lifted_actions(deltas, controls, h, topology)
    total = topology.w_global_trace()
    total += sum(float(np.trace(topology.b_actuation[m] @ topology.b_actuation[m].T))
                 for m in range(topology.m_agents))
    total += (constants.alpha - 1.0) * float(e @ e)
    total -= 2.0 * float((constants.pi * e) @ actions)
    total += topology.m_agents * float(actions @ actions)
    return total


def empirical_drift(topology: SwarmTopology, x, r, deltas, controls, h,
                    n_draws: int, rng):
    """Monte Carlo estimate of E[||e(t+1)||^2 - ||e(t)||^2 | e(t)].

    x and r are the (dM,) plant and target states, as in step_swarm. The
    decisions (deltas (M,), controls (M, N_t)) and the (M, N_r, N_t)
    channels h they were taken on are held fixed; plant noise and channel
    reception noise are resampled n_draws >= 1 times, and each draw steps
    through the slot loop's own two functions: swarm.block_inputs of h and
    the draw's normals, then swarm.step_swarm of the controls with every
    silent agent's row set to 0.0 (the plant step takes no bits). Per
    chunk of draws the generator gives the (M, n, N_r) reception normals,
    then the (M, n, d) plant normals, agent by agent. Returns (mean,
    standard error). Sums are compensated (math.fsum) so the result does
    not depend on accumulation order.
    """
    n_draws = _checks.count("n_draws", n_draws)
    _, cost = swarm.tracking_error(x, r)
    m_count, d = topology.m_agents, topology.state_dim
    sent = _sent(deltas, controls)
    drifts = np.empty(n_draws)
    chunk = 4096
    for done in range(0, n_draws, chunk):
        n = min(chunk, n_draws - done)
        v = rng.normal(size=(m_count, n, topology.n_rx)).transpose(1, 0, 2)
        z = rng.normal(size=(m_count, n, d)).transpose(1, 0, 2)
        actuation, exo = swarm.block_inputs(topology, h, v, z)
        x_next, r_next = swarm.step_swarm(topology, x, r, actuation, sent, exo)
        e_next = x_next - r_next
        drifts[done:done + n] = np.einsum("ij,ij->i", e_next, e_next) - cost
    mean = math.fsum(drifts) / n_draws
    if n_draws > 1:
        var = math.fsum((x - mean) ** 2 for x in drifts) / (n_draws - 1)
        stderr = math.sqrt(var / n_draws)
    else:
        stderr = float("inf")
    return mean, stderr


def compute_masks(topology: SwarmTopology, h) -> np.ndarray:
    """Binary mask diagonals (..., M, dM) of channels h (..., M, N_r, N_t).

    Agent m's mask has ones on the numerically nonzero singular directions
    of E_m E_m^T. Its eigenvalues are the squared singular values of the
    d x N_t block B_m H_m (zeros beyond), so one stacked SVD, singular
    values only, covers every agent of every draw; position i is kept when
    its eigenvalue exceeds DEFAULT_MASK_REL_TOL times the largest, which a
    zero channel never does. An agent's support is the sum of its
    diagonal. A non-finite channel is a ValueError.
    """
    f = swarm.channel_actuation(topology, h)
    if not np.all(np.isfinite(f)):
        raise ValueError("effective channel contains non-finite entries")
    spectra = np.linalg.svd(f, compute_uv=False) ** 2
    diag = np.zeros(spectra.shape[:-1] + (topology.global_dim,))
    diag[..., :spectra.shape[-1]] = spectra > DEFAULT_MASK_REL_TOL * spectra[..., :1]
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
                     channel_draws: np.ndarray) -> dict:
    """Evaluate the stability test over stacked channel draws.

    channel_draws holds the (n, M, N_r, N_t) channels of n draws; all
    draws are factored by one stacked SVD and tested at once. Returns a
    JSON-ready document with alpha, the fraction of draws that satisfy the
    condition, margin statistics and mean per-agent support; the CLI's
    check-stability adds its config and writes it as stability.json.
    """
    n = len(channel_draws)
    if n:
        diags = compute_masks(topology, channel_draws)
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
