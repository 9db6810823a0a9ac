"""Per-slot communication/control decisions from one-step drift minimization.

For each agent the leader weighs the stability value of transmitting
against the activation power P_on plus a transmit-power price gamma. The
decision is taken in the lifted gain variable Khat = delta * E @ K, where
E = Bhat @ H is the effective channel from transmit antennas into the
global state. With the rank-one error cost Sigma = e e^T, the per-agent
cost surrogate

    f(Khat) = -2 Tr(Pi Khat Sigma) + M Tr(Khat Sigma Khat^T)
              + delta * (P_on + gamma Tr(Khat zeta Khat^T))

is an unconstrained convex quadratic whose minimum has the closed form
Khat* = Pi Sigma (M Sigma + gamma zeta)^+, attained value P_on - theta
with threshold theta = Tr(Pi Sigma (M Sigma + gamma zeta)^+ Sigma Pi).
Transmission happens exactly when P_on < theta; the physical gain is
recovered as K = E^+ Khat* (minimum-norm left inversion).

Pi and alpha come from the singular spectra of the plant and target
transitions: pi_m keeps, per sorted position, the smaller-magnitude of the
two singular values and alpha = 2 max(||A||^2, ||G||^2).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import DEFAULT_PINV_REL_TOL, SvdFactors, pseudo_inverse, svd


@dataclass(frozen=True)
class DriftConstants:
    """Spectral constants of the uncontrolled drift.

    pi is the diagonal of the selection matrix Pi (elementwise combination
    of the sorted singular values of A and G), alpha the quadratic growth
    constant, sv_a / sv_g the raw sorted singular values they came from.
    """

    pi: np.ndarray
    alpha: float
    sv_a: np.ndarray
    sv_g: np.ndarray

    @property
    def pi_matrix(self) -> np.ndarray:
        return np.diag(self.pi)


@dataclass(frozen=True)
class PolicyParams:
    """Activation power and communication price."""

    p_on: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.p_on < 0:
            raise ValueError("p_on must be >= 0")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")


@dataclass(frozen=True)
class AgentFactorization:
    """SVD-derived quantities of one agent's effective channel E = Bhat @ H.

    zeta carries inverse squared singular values on the range of E (zero on
    its orthogonal complement).
    """

    effective: np.ndarray       # (dM, n_tx)
    factors: SvdFactors
    zeta: np.ndarray            # (dM, dM)


@dataclass
class ControlDecision:
    """Per-agent outcome of one decision slot.

    delta is the communication bit, gain the physical n_tx x dM feedback
    gain (zero when silent), khat = delta * E @ gain the achieved lifted
    gain and objective the minimized surrogate value (0 when silent). The
    transmit vector u is attached by control_signal once the error vector
    is known.
    """

    delta: int
    gain: np.ndarray
    khat: np.ndarray
    objective: float
    u: Optional[np.ndarray] = None


def compute_drift_constants(a_global, g_target,
                            strict_ties: bool = False) -> DriftConstants:
    """Selection matrix Pi and growth constant alpha from A and G spectra.

    Per sorted position the smaller-magnitude singular value is kept; on
    exact ties the common value is used. strict_ties=True reproduces the
    as-printed indicator arithmetic instead, which maps ties to zero.
    """
    a = np.asarray(a_global, dtype=float)
    g = np.asarray(g_target, dtype=float)
    if a.shape != g.shape or a.shape[0] != a.shape[1]:
        raise ValueError("a_global and g_target must be square and same size")
    sv_a = svd(a).singulars
    sv_g = svd(g).singulars
    if strict_ties:
        pi = np.where(sv_a > sv_g, sv_g, 0.0) + np.where(sv_g > sv_a, sv_a, 0.0)
    else:
        pi = np.minimum(sv_a, sv_g)
    alpha = 2.0 * max(sv_a[0], sv_g[0]) ** 2
    return DriftConstants(pi=pi, alpha=float(alpha), sv_a=sv_a, sv_g=sv_g)


def factorize_agent(bhat_m, h_m) -> AgentFactorization:
    """Factor the effective channel E = Bhat @ H of one agent."""
    e = np.asarray(bhat_m, dtype=float) @ np.asarray(h_m, dtype=float)
    f = svd(e)
    dm = e.shape[0]
    inv_sq = np.zeros(dm)
    if len(f.singulars):
        cutoff = DEFAULT_PINV_REL_TOL * f.singulars[0]
        keep = f.singulars > cutoff
        inv_sq[:len(f.singulars)][keep] = f.singulars[keep] ** -2.0
    u = f.left_basis
    zeta = (u * inv_sq) @ u.T
    return AgentFactorization(effective=e, factors=f, zeta=zeta)


def objective(khat, sigma, pi, params: PolicyParams, m_count: int,
              zeta, delta: int) -> float:
    """Drift-plus-penalty surrogate value at a lifted gain Khat.

    pi is the diagonal of Pi. Silence (delta = 0) forces the value to the
    Khat-independent baseline 0, matching the convention that the silent
    gain is zero.
    """
    khat = np.asarray(khat, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    pi = np.asarray(pi, dtype=float)
    dm = sigma.shape[0]
    if sigma.shape != (dm, dm) or khat.shape != (dm, dm) or zeta.shape != (dm, dm):
        raise ValueError("khat, sigma and zeta must all be (dM, dM)")
    if pi.shape != (dm,):
        raise ValueError(f"pi must be a length-{dm} diagonal vector")
    ks = khat @ sigma
    value = -2.0 * float(pi @ np.diagonal(ks))
    value += m_count * float(np.trace(ks @ khat.T))
    if delta:
        value += params.p_on + params.gamma * float(np.trace(khat @ zeta @ khat.T))
    return value


def objective_gradient(khat, sigma, pi, params: PolicyParams, m_count: int,
                       zeta) -> np.ndarray:
    """Gradient of the surrogate at delta = 1: -2 Pi Sigma + 2 Khat (M Sigma + gamma zeta)."""
    khat = np.asarray(khat, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    pi = np.asarray(pi, dtype=float)
    zeta = np.asarray(zeta, dtype=float)
    return -2.0 * (pi[:, None] * sigma) + 2.0 * khat @ (m_count * sigma + params.gamma * zeta)


def solve_agent(sigma, bhat_m, h_m, constants: DriftConstants,
                params: PolicyParams, m_count: int) -> ControlDecision:
    """Closed-form communication bit and gain for one agent.

    Computes the transmission threshold theta; if P_on >= theta the agent
    stays silent with zero gain, otherwise the minimum-norm gain realizing
    the unconstrained optimum Khat* is transmitted.
    """
    sigma = np.asarray(sigma, dtype=float)
    fact = factorize_agent(bhat_m, h_m)
    dm = sigma.shape[0]
    n_tx = fact.effective.shape[1]
    quad = m_count * sigma + params.gamma * fact.zeta
    quad_pinv = pseudo_inverse(quad)
    pi_sigma = constants.pi[:, None] * sigma
    theta = float(np.trace(pi_sigma @ quad_pinv @ pi_sigma.T))
    if params.p_on >= theta:
        return ControlDecision(delta=0, gain=np.zeros((n_tx, dm)),
                               khat=np.zeros((dm, dm)), objective=0.0)
    khat_star = pi_sigma @ quad_pinv
    gain = pseudo_inverse(fact.effective) @ khat_star
    khat = fact.effective @ gain
    return ControlDecision(delta=1, gain=gain, khat=khat,
                           objective=params.p_on - theta)


def control_signal(decision: ControlDecision, e) -> np.ndarray:
    """Transmit vector u = -K e; the zero vector when the agent is silent."""
    e = np.asarray(e, dtype=float)
    if not decision.delta:
        return np.zeros(decision.gain.shape[0])
    return -decision.gain @ e
