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
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .policy import DriftConstants, factorize_agent
from .swarm import SwarmState, SwarmTopology, _cov_sqrt, tracking_error

DEFAULT_MASK_REL_TOL = 1e-10


@dataclass(frozen=True)
class MaskMatrix:
    """Binary diagonal mask over the sorted singular positions of E_m E_m^T."""

    diagonal: np.ndarray     # (dM,) of {0., 1.}
    support: int


def _lifted_actions(decisions, h, topology: SwarmTopology):
    """(agent, Khat_m e) of every transmitting agent; Khat_m e = -E_m u_m.

    Only block row m of E_m = Bhat_m H_m is non-zero, so each action is
    returned as that d-block.
    """
    h = np.asarray(h, dtype=float)
    return [(m, -(topology.b_actuation[m] @ (h[m] @ dec.u)))
            for m, dec in enumerate(decisions) if dec.delta]


def drift_bound(e, decisions, h, topology: SwarmTopology,
                constants: DriftConstants) -> float:
    """Analytic one-step drift bound conditioned on the given decisions.

    e is the error the decisions were taken for (Sigma = e e^T) and h the
    (M, N_r, N_t) channels they were taken on. The channel enters only
    through each decision's achieved Khat_m e = -E_m u_m, so the caller
    averages this value over channel draws to estimate the expectation
    form of the bound.
    """
    e = np.asarray(e, dtype=float)
    pe = constants.pi * e
    d = topology.state_dim
    total = topology.w_global_trace()
    total += sum(float(np.trace(topology.b_actuation[m] @ topology.b_actuation[m].T))
                 for m in range(topology.m_agents))
    total += (constants.alpha - 1.0) * float(e @ e)
    for m, action in _lifted_actions(decisions, h, topology):
        total -= 2.0 * float(pe[m * d:(m + 1) * d] @ action)
        total += topology.m_agents * float(action @ action)
    return total


def empirical_drift(topology: SwarmTopology, state: SwarmState, decisions, h,
                    n_draws: int, rng):
    """Monte Carlo estimate of E[||e(t+1)||^2 - ||e(t)||^2 | e(t)].

    Decisions and the (M, N_r, N_t) channels h they were taken on are held
    fixed; plant noise and channel reception noise are resampled n_draws
    times. Returns (mean, standard error). Sums are compensated (math.fsum)
    so the result does not depend on accumulation order.
    """
    err = tracking_error(state)
    d = topology.state_dim
    base = topology.a_global @ state.x - topology.g_target @ state.r
    for m, action in _lifted_actions(decisions, h, topology):
        base[m * d:(m + 1) * d] -= action
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
            w = rng.normal(size=(n, d)) @ _cov_sqrt(topology.w_noise[m]).T
            noise[:, m * d:(m + 1) * d] += w
        e_next = base[None, :] + noise
        drifts[done:done + n] = np.einsum("ij,ij->i", e_next, e_next) - err.cost
        done += n
    mean = math.fsum(drifts) / n_draws
    if n_draws > 1:
        var = math.fsum((x - mean) ** 2 for x in drifts) / (n_draws - 1)
        stderr = math.sqrt(var / n_draws)
    else:
        stderr = float("inf")
    return mean, stderr


def compute_masks(topology: SwarmTopology, channels: ChannelRealization,
                  tol: float = DEFAULT_MASK_REL_TOL):
    """Per-agent actuation masks from the singular spectrum of E_m E_m^T.

    Its eigenvalues are the squared singular values of the d x N_t block
    B_m H_m (zeros beyond), so one stacked thin SVD covers every agent.
    """
    masks = []
    dm = topology.global_dim
    spectra = factorize_agent(topology.b_actuation, channels.h).singulars ** 2
    for s in spectra:
        diag = np.zeros(dm)
        if s[0] > 0:
            diag[:len(s)][s > tol * s[0]] = 1.0
        masks.append(MaskMatrix(diagonal=diag, support=int(diag.sum())))
    return masks


def check_stability_condition(masks, alpha: float):
    """Sufficient tracking-stability test from actuation coverage.

    Returns (holds, margin) with margin = 1/alpha - ||I - mean(masks)||.
    Masks are binary diagonal, so the norm is the largest per-position
    coverage gap 1 - coverage_i.
    """
    diags = np.array([m.diagonal for m in masks])
    coverage = diags.mean(axis=0)
    norm = float(np.max(1.0 - coverage))
    margin = 1.0 / alpha - norm
    return margin > 0.0, margin


def stability_report(topology: SwarmTopology, constants: DriftConstants,
                     channel_draws, tol: float = DEFAULT_MASK_REL_TOL) -> dict:
    """Evaluate the stability test over a sequence of channel draws.

    Returns a JSON-ready document with alpha, the fraction of draws that
    satisfy the condition, margin statistics and mean per-agent support.
    """
    margins = []
    holds = []
    supports = np.zeros(topology.m_agents)
    for ch in channel_draws:
        masks = compute_masks(topology, ch, tol)
        ok, margin = check_stability_condition(masks, constants.alpha)
        margins.append(margin)
        holds.append(ok)
        supports += [m.support for m in masks]
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
