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
Khat* = Pi Sigma Q^+ with Q = M Sigma + gamma zeta, attained value
P_on - theta. Transmission happens exactly when P_on < theta; the
physical gain is K = E^+ Khat* (minimum-norm left inversion).

Rank-one form. With c = e^T Q^+ e the threshold is theta = c ||pi o e||^2
and the transmitted control is u = -K e = -c E^+ (pi o e), so neither the
dM x dM lifted gain nor the N_t x dM gain is formed. E_m is zero outside
block row m, so its thin SVD is that of the d x N_t block B_m H_m
(factorize_agent, one stacked call for all agents), and Q only acts on
range(E_m) plus the direction of w = (I - P_m) e, the part of the error
E_m cannot actuate: c comes from a (rank + 1)-sized symmetric
eigenproblem (rank_one_terms). Whenever w != 0, i.e. rank E_m < dM (every
swarm with M >= 2, and M = 1 with N_t or N_r < d), c = 1/M exactly (rank-one
update of a pseudoinverse; C. D. Meyer, SIAM J. Appl. Math. 1973), so
theta = ||pi o e||^2 / M and u does not depend on gamma.

Cutoff. Singular values of E_m and eigenvalues of Q at or below 1e-10 of
the largest count as zero, the rule of linalg.pseudo_inverse that the
dense dM x dM form applied. This is kept on purpose rather than exact
arithmetic: when gamma s_min^-2 exceeds about 1e10 M ||e||^2 the error
direction of Q falls under the cutoff and theta drops towards 0 (seen at
gamma = 1e6 in calibration probes), and the decisions on that side stay
those of the dense form.

Certified path. Where rigorous bounds show that neither cutoff can fire,
c = 1/M exactly and the slot needs no SVD and no eigenproblem
(certified_terms); every other slot takes the spectral path above
(factorize_agent + rank_one_terms), so the cutoff decisions stay those of
the dense form. The certificate's channel part depends on the channels
alone and runs once per block of slots (certify_channels: one thin QR of
every slot's and agent's B_m H_m); only its error part runs per slot.

Pi and alpha come from the singular spectra of the plant and target
transitions: pi_m keeps, per sorted position, the smaller-magnitude of the
two singular values and alpha = 2 max(||A||^2, ||G||^2).
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import DEFAULT_PINV_REL_TOL, svd

# Certificate constants of certified_terms (derivation there).
# tr(G) tr(G^-1) <= 1e6 bounds cond(F) by 1e3, so every singular value of
# F = B_m H_m sits far above the 1e-10 cutoff.
CERTIFIED_MAX_TRACE_PRODUCT = 1e6
# The eigenvalue bounds must clear the cutoff by this factor, which covers
# eigh's eigenvalue error (about n eps lambda_max) and the rounding of the
# bounds themselves.
CERTIFIED_CUTOFF_MARGIN = 2.0


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
class ChannelFactors:
    """Thin SVD  F = left @ diag(singulars) @ right_t  of effective channels.

    Batched over leading axes. In the slot loop F[m] = B_m @ H_m is the
    d x N_t block row m of E_m = Bhat_m @ H_m, its only non-zero block, so
    E_m has the same singular values and its left vectors are left[m]
    placed at block row m.
    """

    left: np.ndarray            # (..., rows, k), k = min(rows, n_tx)
    singulars: np.ndarray       # (..., k), nonincreasing
    right_t: np.ndarray         # (..., k, n_tx)

    @property
    def inverse_singulars(self) -> np.ndarray:
        """1/s above the pseudo_inverse cutoff (1e-10 * s_max), 0 at or below it."""
        s = self.singulars
        keep = s > DEFAULT_PINV_REL_TOL * s[..., :1]
        return np.divide(1.0, s, out=np.zeros_like(s), where=keep)


@dataclass(frozen=True)
class ChannelCertificate:
    """Channel-only part of certified_terms: thin QR F = Q R of F = B_m H_m.

    Leading axes are batch axes, (slots, M) for a block of slots and (M,)
    for one slot. tr_g = ||F||_F^2 = tr G and tr_inv = ||R^-1||_F^2
    = tr G^-1 with G = F^T F. conditioned (one flag per slot) holds when
    every agent's F is finite with an invertible R and
    tr(G) tr(G^-1) <= CERTIFIED_MAX_TRACE_PRODUCT; a slot without it is
    declined.
    """

    q_t: np.ndarray             # (..., M, n_tx, d), Q^T
    r_inv: np.ndarray           # (..., M, n_tx, n_tx)
    tr_g: np.ndarray            # (..., M)
    tr_inv: np.ndarray          # (..., M)
    conditioned: np.ndarray     # (...,) bool

    def slot(self, i: int) -> "ChannelCertificate":
        """The certificate of slot i of a block."""
        return ChannelCertificate(self.q_t[i], self.r_inv[i], self.tr_g[i],
                                  self.tr_inv[i], self.conditioned[i])


@dataclass(frozen=True)
class RankOneTerms:
    """Decision terms of every agent for one error vector.

    theta[m] is agent m's transmission threshold and u[m] the control
    u = -K e it sends at the minimum-norm gain if it transmits.
    """

    theta: np.ndarray           # (M,)
    u: np.ndarray               # (M, n_tx)


@dataclass(frozen=True)
class ControlDecision:
    """Per-agent outcome of one decision slot.

    delta is the communication bit, theta the threshold P_on was compared
    with, objective the minimized surrogate value (P_on - theta when
    transmitting, 0 when silent) and u the transmit vector (zero when
    silent). Gains are never formed: with Sigma = e e^T the achieved lifted
    gain acts on the error as Khat e = -E u.
    """

    delta: int
    theta: float
    objective: float
    u: np.ndarray


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


def factorize_agent(b_actuation, h) -> ChannelFactors:
    """Thin SVD of the effective channels b_actuation @ h.

    Leading axes are batch axes: with the stacked (M, d, N_r) actuation
    blocks and (M, N_r, N_t) channels one LAPACK call factors every agent.
    """
    f = np.asarray(b_actuation, dtype=float) @ np.asarray(h, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("effective channel contains non-finite entries")
    left, singulars, right_t = np.linalg.svd(f, full_matrices=False)
    return ChannelFactors(left=left, singulars=singulars, right_t=right_t)


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


def rank_one_terms(factors: ChannelFactors, e, constants: DriftConstants,
                   params: PolicyParams) -> RankOneTerms:
    """Thresholds and transmit vectors of all M agents from stacked factors.

    factors holds the (M, d, N_t) blocks B_m @ H_m and e is the global
    error. Q = M e e^T + gamma zeta_m is restricted to the orthonormal
    basis [kept left vectors of E_m, w / ||w||], in which e has
    coordinates a = (U^T e, ||w||); c = a^T Q_r^+ a with the 1e-10
    relative cutoff on the eigenvalues of the (k+1) x (k+1) matrix Q_r.
    """
    left, right_t = factors.left, factors.right_t
    inv_s = factors.inverse_singulars
    m_count, d, k = left.shape
    e = np.asarray(e, dtype=float)
    if e.shape != (m_count * d,):
        raise ValueError(f"e must have shape {(m_count * d,)}, got {e.shape}")
    e_blocks = e.reshape(m_count, d)
    alpha = (e_blocks[:, None, :] @ left)[:, 0] * (inv_s > 0)
    # ||w||^2 = error outside block m plus the in-block residual, formed
    # directly so a full-rank E_m leaves w at rounding level.
    resid = e_blocks - (left @ alpha[:, :, None])[..., 0]
    block_sq = (e_blocks * e_blocks).sum(axis=1)
    w_sq = (block_sq.sum() - block_sq) + (resid * resid).sum(axis=1)
    a = np.concatenate([alpha, np.sqrt(w_sq)[:, None]], axis=1)
    quad = m_count * (a[:, :, None] * a[:, None, :])
    # Flattened stride k + 2 walks the first k diagonal entries of each Q_r.
    quad.reshape(m_count, -1)[:, :k * (k + 2):k + 2] += params.gamma * inv_s ** 2
    lam, vec = np.linalg.eigh(quad)
    mag = np.abs(lam)      # the singular values pseudo_inverse would cut
    keep = mag > DEFAULT_PINV_REL_TOL * mag.max(axis=1, keepdims=True)
    proj = (a[:, None, :] @ vec)[:, 0]
    c = np.divide(proj ** 2, lam, out=np.zeros_like(lam), where=keep).sum(axis=1)
    pe = constants.pi * e
    coeff = (pe.reshape(m_count, 1, d) @ left)[:, 0] * inv_s
    u = -c[:, None] * (coeff[:, None, :] @ right_t)[:, 0]
    return RankOneTerms(theta=c * float(pe @ pe), u=u)


def certify_channels(b_actuation, h) -> Optional[ChannelCertificate]:
    """Channel part of certified_terms for any stack of slots.

    Takes the stacked (M, d, N_r) actuation blocks and channels of shape
    (..., M, N_r, N_t); one batched thin QR and one batched inverse cover
    every (slot, agent) pair. Returns None when N_t > d, where no slot can
    be certified. A slot whose channel is non-finite, singular or
    ill-conditioned only clears its own conditioned flag: its R is swapped
    for the identity before the batched inverse, which would otherwise
    raise for the whole stack.
    """
    b = np.asarray(b_actuation, dtype=float)
    h = np.asarray(h, dtype=float)
    d, n_tx = b.shape[-2], h.shape[-1]
    if n_tx > d:
        return None
    f = b @ h
    tr_g = (f * f).sum(axis=(-2, -1))
    finite = np.isfinite(tr_g)
    if not finite.all():
        f = np.where(finite[..., None, None], f, 0.0)
    q, r = np.linalg.qr(f)
    invertible = finite & (np.diagonal(r, axis1=-2, axis2=-1) != 0).all(axis=-1)
    if not invertible.all():
        r = np.where(invertible[..., None, None], r, np.eye(n_tx))
    r_inv = np.linalg.inv(r)
    tr_inv = (r_inv * r_inv).sum(axis=(-2, -1))
    conditioned = (invertible.all(axis=-1)
                   & ((tr_g * tr_inv).max(axis=-1) <= CERTIFIED_MAX_TRACE_PRODUCT))
    return ChannelCertificate(q_t=np.swapaxes(q, -1, -2), r_inv=r_inv, tr_g=tr_g,
                              tr_inv=tr_inv, conditioned=conditioned)


def certified_terms(channel: Optional[ChannelCertificate], e,
                    constants: DriftConstants,
                    params: PolicyParams) -> Optional[RankOneTerms]:
    """rank_one_terms without SVD or eigh where c = 1/M is certified.

    channel is one slot's certificate (certify_channels on that slot's
    (M, N_r, N_t) channels, or ChannelCertificate.slot of a block's);
    M and d are read from its Q^T, and None (N_t > d) declines. Returns
    None, for the caller to take the spectral path (factorize_agent +
    rank_one_terms), unless every agent passes the certificate below; the
    result then equals rank_one_terms' up to rounding.

    The work splits into a channel part and an error part. The channel
    part (certify_channels) is the thin QR F = Q R of F = B_m H_m with
    d >= N_t, R^-1 and the trace terms; the slot loop runs it once per
    block of slots. The error part runs here, per slot:
    y = Q^T [e_m, (pi o e)_m], the eigenvalue bounds and u.

    With G = F^T F = R^T R: tr G = ||F||_F^2 >= s_max^2 and
    tr G^-1 = ||R^-1||_F^2 >= s_min^-2. The restricted matrix of
    rank_one_terms is Q_r = D + M a a^T with D = diag(gamma s_i^-2, 0),
    ||a||^2 = ||e||^2 and a_w^2 = w^2 = ||e||^2 - ||y_e||^2. Its extreme
    eigenvalues are bounded:

        lambda_max <= lambda_hi = gamma tr(G^-1) + M ||e||^2,
        lambda_min >= lambda_lo = min(gamma / (2 tr G),
                                      M w^2 / (1 + 2 M tr(G) ||y_e||^2 / gamma)).

    The second holds by the secular equation M a_w^2 / lambda = 1
    + M sum_i a_i^2 / (d_i - lambda) of the smallest eigenvalue (G. H.
    Golub, SIAM Review 1973): below gamma / (2 tr G) <= d_i / 2 every
    d_i - lambda is at least d_i / 2, and sum_i a_i^2 / d_i
    = ||F^T e_m||^2 / gamma <= tr(G) ||y_e||^2 / gamma.

    Certified when tr(G) tr(G^-1) <= 1e6 (cond F <= 1e3: no singular value
    is cut) and lambda_lo > 2e-10 lambda_hi for every agent. Then Q_r is
    positive definite and eigh keeps every eigenvalue, so c = a^T Q_r^-1 a;
    Q_r x = a at x = e_w / (M a_w) (D e_w = 0, a^T e_w = a_w), hence
    c = a^T x = 1/M exactly, theta = ||pi o e||^2 / M and
    u = -(1/M) F^+ (pi o e)_m = -(1/M) R^-1 y_pe.

    Orthogonal rather than normal equations G^-1 F^T: forming F^T b loses
    cond(F)^2 eps where the least-squares residual is large, and the trace
    of a computed G^-1 can be negative when G is numerically indefinite
    (N_r < N_t); a sum of squares cannot.

    Declined: gamma = 0, N_t > d, a singular, non-finite or
    ill-conditioned F (N_r < N_t included), any agent near the cutoff and
    M = 1 at full rank (w = 0). e = 0 gives theta = 0 and u = 0 once the
    channels pass the conditioning test; non-finite channels fail it and
    raise in factorize_agent.
    """
    gamma = params.gamma
    if channel is None or gamma == 0:
        return None
    e = np.asarray(e, dtype=float)
    m_count, _, d = channel.q_t.shape
    if e.shape != (m_count * d,):
        raise ValueError(f"e must have shape {(m_count * d,)}, got {e.shape}")
    if not channel.conditioned:
        return None
    tr_g, tr_inv = channel.tr_g, channel.tr_inv
    e_sq = float(e @ e)
    tol = CERTIFIED_CUTOFF_MARGIN * DEFAULT_PINV_REL_TOL
    # gamma / (2 tr G) > tol M ||e||^2 is necessary for lambda_lo > tol
    # lambda_hi; checked first, it declines cheaply the slots where the
    # cutoff cuts the power-term eigenvalues (small gamma).
    if not gamma > 2.0 * tol * m_count * e_sq * float(tr_g.max()):
        return None
    if e_sq == 0.0:
        return RankOneTerms(theta=np.zeros(m_count),
                            u=np.zeros((m_count, channel.r_inv.shape[-1])))
    pe = constants.pi * e
    rhs = np.empty((m_count, d, 2))
    rhs[:, :, 0] = e.reshape(m_count, d)
    rhs[:, :, 1] = pe.reshape(m_count, d)
    y = channel.q_t @ rhs
    ye_sq = (y[:, :, 0] ** 2).sum(axis=1)
    lam_hi = tol * (gamma * tr_inv + m_count * e_sq)
    # lambda_lo > tol lambda_hi, one branch of the min at a time
    if not (gamma > (2.0 * tr_g * lam_hi).max()
            and (m_count * (e_sq - ye_sq)
                 - lam_hi * (1.0 + 2.0 * m_count / gamma * tr_g * ye_sq)).min() > 0):
        return None
    u = (channel.r_inv @ y[:, :, 1:])[..., 0] / -m_count
    return RankOneTerms(theta=np.full(m_count, float(pe @ pe) / m_count), u=u)


def solve_agent(terms: RankOneTerms, m: int, params: PolicyParams) -> ControlDecision:
    """Communication bit and transmit vector of agent m: transmit iff P_on < theta_m."""
    theta = float(terms.theta[m])
    if params.p_on >= theta:
        return ControlDecision(delta=0, theta=theta, objective=0.0,
                               u=np.zeros(terms.u.shape[1]))
    return ControlDecision(delta=1, theta=theta, objective=params.p_on - theta,
                           u=terms.u[m])


def control_signal(decision: ControlDecision, e) -> np.ndarray:
    """Transmit vector u = -K e; the zero vector when the agent is silent.

    solve_agent has already applied the gain to the error, so e only
    names the vector u acts on.
    """
    return decision.u
