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
those of the dense form. At the other end (gamma near 1e-6, the lower
edge of calibration) the cutoff takes out power-term eigenvalues of Q,
but since Q_r e_w = M a_w a every eigenpair carries a^T v = lambda v^T
e_w / (M a_w): cutting eigenvalues at or below tau lowers c by at most
tau / (M^2 w^2), so M c stays within delta = 2e-10 (gamma tr G^-1
+ M ||e||^2) / (M w^2) of 1 (certified_terms).

Certified path. Where rigorous bounds pin c, the slot needs no SVD and no
eigenproblem (certified_terms), with two certificates. The first shows
that neither cutoff can fire: then c = 1/M exactly when w != 0, and for
one agent at full rank (M = 1 with N_t and N_r >= d, where F = B_m H_m
has rank d and w = 0) c = t / (1 + t) with t = ||F^T e||^2 / gamma by
Sherman-Morrison. The second, for w != 0 where Q_r's cutoff may fire,
bounds what it can remove: every agent's delta is at most
CERTIFIED_CUT_SLACK = 1e-8 and P_on lies outside [(1 - max delta)
theta_0, theta_0), theta_0 = ||pi o e||^2 / M; it answers theta_0 and
u = -(1/M) F^+ (pi o e)_m, which take the spectral path's transmit bits
and lie within delta of its values. block_decisions, built once per
episode, routes every slot through certified_terms first; where it
declines (returns None) the slot takes the spectral path above
(factorize_agent + rank_one_terms), so the cutoff decisions stay those
of the dense form. Everything the certificates need that does not
depend on the error runs once per block of slots (certify_channels),
through one factorization for every shape, F = B_m H_m = U S W^T with U
and W orthonormal columns and S the k x k core, k = min(d, N_t): one QR
B_m = Q_B R_B of the actuation stack, which block_decisions forms once
per episode and hands to every block, gives F = Q_B C with C = R_B H_m,
so F^+ = C^+ Q_B^T and cond F = cond C (reverse-order law; T. N. E.
Greville, SIAM Review 8, 1966); S is C where C is square, else the
triangle of a thin QR of C or C^T; and one batched inverse of every
slot's and agent's S gives F^+ = W S^-1 U^T. Then come three extremes
over each slot's agents of the bound terms of tr G, tr G^-1 and gamma,
and per slot and agent one
stacked operator [q_t; -F^+ diag(pi_m) / M], q_t = U^T, in a
CertifiedBlock; only the error part runs per slot, and it reads
y_e = q_t e_m and u = -(1/M) F^+ (pi o e)_m of every agent off one
batched product of the operators with e's agent blocks e_m. One test in
||e||^2 and max_m ||y_e,m||^2 against the extremes decides both
certificates for every agent of the slot at once. Declined: every slot
whose conditioned flag is clear, which gamma = 0 and N_r < min(d, N_t)
(B_m H_m cannot have full rank) clear for the whole block, whose
channels are then not factored at all, and a singular, non-finite or
ill-conditioned B_m H_m (tr G tr G^-1 above CERTIFIED_MAX_TRACE_PRODUCT,
which keeps its singular values clear of the cutoff) for its own slot;
and any slot that fails the test.
The certified u holds a stated accuracy contract against exact arithmetic
(certified_terms).

Pi and alpha come from the singular spectra of the plant and target
transitions: pi_m keeps, per sorted position, the smaller-magnitude of the
two singular values and alpha = 2 max(||A||^2, ||G||^2).
"""

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import _checks
from .linalg import DEFAULT_PINV_REL_TOL, svd

# Certificate constants of certified_terms (derivation there).
# The eigenvalue bounds must clear the cutoff by this factor, which covers
# eigh's eigenvalue error (about n eps lambda_max) and the rounding of the
# bounds themselves.
CERTIFIED_CUTOFF_MARGIN = 2.0
# cond(F)^2 <= tr(G) tr(G^-1), so this limit keeps every singular value of
# F = B_m H_m above the 1e-10 cutoff by CERTIFIED_CUTOFF_MARGIN: cond(F)
# <= 1 / (2e-10) = 5e9. There cond(F) eps <= 1.1e-6, so the factors
# that measure tr(G^-1) are accurate far inside the margin and the
# certified u meets its C cond(F) eps accuracy contract (certified_terms).
CERTIFIED_MAX_TRACE_PRODUCT = (CERTIFIED_CUTOFF_MARGIN * DEFAULT_PINV_REL_TOL) ** -2
# Largest delta = 2e-10 lambda_hi / (M w^2) the second certificate
# accepts: a bound on the share of c that Q_r's cutoff may remove, and so
# on the relative distance of its theta and u from the spectral path's.
# At 1e-8 it also keeps w^2 above 2% of ||e||^2 (lambda_hi >= M ||e||^2),
# far from the rounding of w^2 = ||e||^2 - ||y_e||^2.
CERTIFIED_CUT_SLACK = 1e-8


@dataclass(frozen=True)
class DriftConstants:
    """Spectral constants of the uncontrolled drift.

    pi is the diagonal of the selection matrix Pi (elementwise combination
    of the sorted singular values of A and G) and alpha the quadratic
    growth constant.
    """

    pi: np.ndarray
    alpha: float


@dataclass(frozen=True)
class PolicyParams:
    """Activation power and communication price, each a finite real >= 0."""

    p_on: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        for name in ("p_on", "gamma"):
            _checks.real(name, getattr(self, name), least=0)


@dataclass(frozen=True)
class CertifiedBlock:
    """Per-block part of certified_terms: the work that needs no error.

    Built by certify_channels from a block's (slots, M, N_r, N_t) channels,
    the drift constants (pi) and the policy parameters (params: gamma, and
    P_on for the second certificate), for every input; certified_terms
    reads slot i. The factors are those of F = B_m H_m = U S W^T, with U
    (d x k) and W (N_t x k) orthonormal columns and S the k x k core,
    k = min(d, N_t): the QR B_m = Q_B R_B of the actuation, once per
    episode, gives F = Q_B C with C = R_B H_m (p x N_t, p = min(d, N_r)),
    and S is C where p = N_t (U = Q_B, W = I), R of C = Q_C R where p > N_t
    (U = Q_B Q_C, W = I) and R^T of C^T = Q_C R where p < N_t (U = Q_B,
    W = Q_C). Then q_t = U^T, root = S^T and lift = W S^-1, so
    root @ (q_t e_m) has the norm of F^T e_m and F^+ = lift @ q_t.
    operator stacks, per slot and agent, q_t over -F^+ diag(pi_m) / M
    (pi_m agent m's block of pi; formed as lift @ (q_t diag(pi_m) / -M)),
    so operator @ e_m holds y_e = q_t e_m in its first k rows and
    u = -(1/M) F^+ (pi o e)_m in the rest; q_t is a view of those first k
    rows.
    conditioned (one flag per slot) holds when gamma > 0, N_r >= min(d, N_t)
    and every agent's F is finite with an invertible S and tr(G) tr(G^-1)
    <= CERTIFIED_MAX_TRACE_PRODUCT, with tr G = ||C||_F^2 and tr G^-1
    = ||S^-1||_F^2 (the sums of s_i^2 and s_i^-2 over F's singular values);
    a slot without it is declined and its terms are never read. The slot
    test of certified_terms reads three extremes over the slot's agents,
    which depend on the channels and gamma alone, with tol = 2e-10:
    e_sq_limit = min_m (gamma / (tol 2 tr G_m) - gamma tr G^-1_m) / M, the
    ||e||^2 below which every agent passes the first branch of the first
    certificate, gamma_tr_inv_max = max_m gamma tr G^-1_m and slope_max
    = max_m (2 M / gamma) tr G_m. They may be infinite or NaN at extreme
    gamma or on a declined slot, where the test then fails. Where gamma = 0
    or N_r < min(d, N_t) no slot can be certified: nothing is factored, and
    the factor and extreme fields are broadcast zero views of their shapes.
    """

    params: PolicyParams
    constants: DriftConstants
    operator: np.ndarray        # (slots, M, k + n_tx, d), k = min(d, n_tx)
    q_t: np.ndarray             # (slots, M, k, d) U^T
    root: np.ndarray            # (slots, M, k, k)
    lift: np.ndarray            # (slots, M, n_tx, k)
    conditioned: np.ndarray     # (slots,) bool
    e_sq_limit: np.ndarray      # (slots,)
    gamma_tr_inv_max: np.ndarray  # (slots,)
    slope_max: np.ndarray       # (slots,)


class RankOneTerms(NamedTuple):
    """Decision terms of every agent for one error vector.

    theta[m] is agent m's transmission threshold and u[m] the control
    u = -K e it sends at the minimum-norm gain if it transmits.
    """

    theta: np.ndarray           # (M,)
    u: np.ndarray               # (M, n_tx)


class ControlDecision(NamedTuple):
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


def compute_drift_constants(a_global, g_target) -> DriftConstants:
    """Selection matrix Pi and growth constant alpha from A and G spectra.

    Per sorted position the smaller-magnitude singular value is kept; on
    exact ties the common value is used, not the zero that the as-printed
    indicator arithmetic gives there.
    """
    a = np.asarray(a_global, dtype=float)
    g = np.asarray(g_target, dtype=float)
    if a.shape != g.shape or a.shape[0] != a.shape[1]:
        raise ValueError("a_global and g_target must be square and same size")
    sv_a = svd(a)[1]
    sv_g = svd(g)[1]
    with np.errstate(over="ignore"):
        alpha = 2.0 * max(sv_a[0], sv_g[0]) ** 2
    if not np.isfinite(alpha):
        raise FloatingPointError("growth constant alpha = 2 max(||A||, ||G||)^2 "
                                 "overflows")
    return DriftConstants(pi=np.minimum(sv_a, sv_g), alpha=float(alpha))


def factorize_agent(b_actuation, h):
    """Thin SVD (left, s, right_t) of the effective channels b_actuation @ h.

    numpy's own result: F = left @ diag(s) @ right_t with left
    (..., rows, k), s (..., k) nonincreasing and right_t (..., k, n_tx),
    k = min(rows, n_tx). Leading axes are batch axes: with the stacked
    (M, d, N_r) actuation blocks and (M, N_r, N_t) channels one LAPACK
    call factors every agent. In the slot loop F[m] = B_m @ H_m is the
    d x N_t block row m of E_m = Bhat_m @ H_m, its only non-zero block, so
    E_m has the same singular values and its left vectors are left[m]
    placed at block row m.
    """
    f = np.asarray(b_actuation, dtype=float) @ np.asarray(h, dtype=float)
    if not np.all(np.isfinite(f)):
        raise ValueError("effective channel contains non-finite entries")
    return np.linalg.svd(f, full_matrices=False)


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


def rank_one_terms(factors, e, constants: DriftConstants,
                   params: PolicyParams) -> RankOneTerms:
    """Thresholds and transmit vectors of all M agents from stacked factors.

    factors is factorize_agent's (left, s, right_t) of the (M, d, N_t)
    blocks B_m @ H_m and e is the global error. Singular values at or
    below 1e-10 * s_max count as zero (the rule of linalg.pseudo_inverse):
    their left vectors are not kept and their inverse is 0. Q = M e e^T
    + gamma zeta_m is restricted to the orthonormal basis [kept left
    vectors of E_m, w / ||w||], in which e has coordinates
    a = (U^T e, ||w||); c = a^T Q_r^+ a with the same 1e-10 relative
    cutoff on the eigenvalues of the (k+1) x (k+1) matrix Q_r.
    """
    left, s, right_t = factors
    keep_s = s > DEFAULT_PINV_REL_TOL * s[..., :1]
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=keep_s)
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


def certify_channels(actuation_qr, h, constants: DriftConstants,
                     params: PolicyParams) -> CertifiedBlock:
    """Per-block part of certified_terms for a block of slots.

    Takes numpy's reduced QR (Q_B, R_B) = np.linalg.qr(b) of the stacked
    (M, d, N_r) actuation blocks b (block_decisions factors it once per
    episode), the block's channels of shape (slots, M, N_r, N_t), the
    drift constants (pi enters the operator) and the policy parameters
    (gamma enters the bound terms, P_on the second certificate), and forms
    the operator [q_t; -F^+ diag(pi_m) / M] of every (slot, agent) pair
    once here, through one factorization F = U S W^T for every shape
    (CertifiedBlock): one batched product C = R_B H, one batched thin QR
    of C (p > N_t) or C^T (p < N_t) where C is not square, and one batched
    LU inverse of the (slots, M, k, k) stack of cores S; the operator's
    last rows are lift @ (q_t diag(pi_m) / -M). A square core rather
    than the normal equations C^T C keeps cond(S) = cond(F), not its
    square.
    Returns a CertifiedBlock for every input. gamma = 0 and N_r < min(d,
    N_t), where no slot can be certified (F = B_m H_m then has rank N_r,
    below k), clear every slot's conditioned flag without any
    factorization. A slot whose channel is non-finite, singular or
    ill-conditioned clears its own flag, and no other slot changes: a
    non-finite C is swapped for the identity before the factorization,
    and an exactly singular core (zero LU pivot, slogdet sign 0) for the
    identity when the stacked inverse raises, after which the stack is
    inverted again.
    """
    q_b, r_b = actuation_qr
    h = np.asarray(h, dtype=float)
    m_count, d = q_b.shape[:2]
    n_rx = r_b.shape[-1]
    n_slots, n_tx = h.shape[0], h.shape[-1]
    k = min(d, n_tx)
    gamma = params.gamma
    if gamma == 0 or n_rx < k:
        operator = np.broadcast_to(0.0, (n_slots, m_count, k + n_tx, d))
        extreme = np.broadcast_to(0.0, n_slots)
        return CertifiedBlock(
            params=params, constants=constants, operator=operator,
            q_t=operator[..., :k, :],
            root=np.broadcast_to(0.0, (n_slots, m_count, k, k)),
            lift=np.broadcast_to(0.0, (n_slots, m_count, n_tx, k)),
            conditioned=np.zeros(n_slots, dtype=bool),
            e_sq_limit=extreme, gamma_tr_inv_max=extreme, slope_max=extreme)
    operator = np.empty((n_slots, m_count, k + n_tx, d))
    scale = constants.pi.reshape(m_count, 1, d) / -m_count
    # a declined slot's terms may overflow, divide by zero or be NaN, and
    # extreme gamma overflows or underflows the extremes; the slot test
    # then fails, and nothing reads a declined slot's terms
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # F = Q_B C with C = R_B H (p x N_t): F^+ = C^+ Q_B^T (Greville)
        q_bt = np.swapaxes(q_b, -1, -2)
        p = r_b.shape[-2]
        c = r_b @ h
        tr_g = (c * c).sum(axis=(-2, -1))
        invertible = np.isfinite(tr_g)
        if not invertible.all():
            c = np.where(invertible[..., None, None], c, np.eye(p, n_tx))
        # C's k x k core S: C itself, R of C = Q_C R or R^T of C^T = Q_C R
        if p == n_tx:
            core = c
        else:
            q_c, r = np.linalg.qr(c if p > n_tx else np.swapaxes(c, -1, -2))
            core = r if p > n_tx else np.swapaxes(r, -1, -2)
        try:
            s_inv = np.linalg.inv(core)
        except np.linalg.LinAlgError:       # some core is exactly singular
            invertible &= np.linalg.slogdet(core)[0] != 0
            core = np.where(invertible[..., None, None], core, np.eye(k))
            s_inv = np.linalg.inv(core)
        tr_inv = (s_inv * s_inv).sum(axis=(-2, -1))
        u_t = np.swapaxes(q_c, -1, -2) @ q_bt if p > n_tx else q_bt
        lift = q_c @ s_inv if p < n_tx else s_inv
        q_t = operator[..., :k, :]
        q_t[...] = u_t
        root = np.swapaxes(core, -1, -2)
        np.matmul(lift, u_t * scale, out=operator[..., k:, :])
        conditioned = (invertible.all(axis=-1)
                       & ((tr_g * tr_inv).max(axis=-1) <= CERTIFIED_MAX_TRACE_PRODUCT))
        gamma_tr_inv = gamma * tr_inv
        tol = CERTIFIED_CUTOFF_MARGIN * DEFAULT_PINV_REL_TOL
        e_sq_limit = ((gamma / (tol * (2.0 * tr_g)) - gamma_tr_inv) / m_count).min(axis=-1)
        return CertifiedBlock(
            params=params, constants=constants, operator=operator, q_t=q_t,
            root=root, lift=lift, conditioned=conditioned,
            e_sq_limit=e_sq_limit, gamma_tr_inv_max=gamma_tr_inv.max(axis=-1),
            slope_max=((2.0 * m_count / gamma) * tr_g).max(axis=-1))


def certified_terms(block: CertifiedBlock, i: int, e) -> Optional[RankOneTerms]:
    """rank_one_terms without SVD or eigh where a certificate pins c.

    block is certify_channels of a block of slots and i the slot; M, N_t
    and d are read from its factors, pi from its constants, P_on and gamma
    from its params, and a slot whose conditioned flag is clear (gamma = 0,
    N_r < min(d, N_t), or a singular, non-finite or ill-conditioned
    channel) declines. Returns None, for the caller to take the spectral
    path (factorize_agent + rank_one_terms), unless the slot test below
    shows that every agent passes one of the two certificates; the result
    then takes rank_one_terms' transmit bits, and its values agree with
    rank_one_terms' up to rounding (first certificate) or within delta
    (second), and with exact arithmetic within the accuracy contract
    below. The bits are equal in exact arithmetic: where P_on lies within
    the spectral path's own rounding of theta (about cond(Q_r) eps,
    relative), that rounding decides its bit.

    The work splits into a channel part and an error part. The channel
    part (certify_channels) is per agent C = R_B H_m from the actuation's
    QR B_m = Q_B R_B, a thin QR of C or C^T where C is not square and the
    inverse of the square core S, then the operator
    [q_t; -F^+ diag(pi_m) / M] and the per-slot agent extremes of the
    bound terms of tr G, tr G^-1 and gamma; block_decisions runs it once
    per block of slots. The error part runs here, per slot: ||e||^2 and
    ||pi o e||^2, one batched product of the operator with e's agent
    blocks e_m, which gives the coordinates y_e = q_t e_m and
    u = -(1/M) F^+ (pi o e)_m, max_m ||y_e,m||^2 and the slot test.

    One factorization for every shape: F = Q_B C with C = R_B H_m
    (p x N_t, p = min(d, N_r) >= k), and C = V S W^T with V (p x k) and W
    (N_t x k) orthonormal columns and S the k x k core: S = C (V and W
    identities) where p = N_t; C = Q_C R, V = Q_C and S = R where p > N_t; C^T = Q_C R,
    W = Q_C and S = R^T where p < N_t. So F = U S W^T with U = Q_B V,
    range(F) = range(U), y_e = U^T e_m, G = W S^T S W^T, F^+ = W S^-1 U^T
    (reverse-order law, Greville 1966), ||F^T e_m|| = ||S^T y_e|| and F
    has S's singular values. Hence y_e = q_t e_m and F^+ = lift @ q_t, and
    over F's k = min(d, N_t) singular values s_i, tr G = ||C||_F^2
    = sum s_i^2 >= s_max^2 and tr G^-1 = ||S^-1||_F^2 = sum s_i^-2
    >= s_min^-2. Where p < N_t, k = d and U = Q_B is square: range(F) is
    all of block m and the in-block residual is 0 up to rounding.

    The restricted matrix of rank_one_terms is Q_r = D + M a a^T with
    D = diag(gamma s_i^-2, 0), ||a||^2 = ||e||^2 and a_w^2 = w^2
    = ||e||^2 - ||y_e||^2 (||y_e|| = ||e_m|| where k = d). Its extreme
    eigenvalues are bounded:

        lambda_max <= lambda_hi = gamma tr(G^-1) + M ||e||^2,
        lambda_min >= lambda_lo = min(gamma / (2 tr G),
                                      M w^2 / (1 + 2 M tr(G) ||y_e||^2 / gamma)).

    The second holds by the secular equation M a_w^2 / lambda = 1
    + M sum_i a_i^2 / (d_i - lambda) of the smallest eigenvalue (G. H.
    Golub, SIAM Review 1973): below gamma / (2 tr G) <= d_i / 2 every
    d_i - lambda is at least d_i / 2, and sum_i a_i^2 / d_i
    = ||F^T e_m||^2 / gamma <= tr(G) ||y_e||^2 / gamma.

    Both certificates need the block's conditioning flag (tr(G) tr(G^-1)
    <= CERTIFIED_MAX_TRACE_PRODUCT: no singular value of F comes within
    the margin of the 1e-10 cutoff, so the spectral path keeps all k of
    them and has the same w).

    First certificate, for agent m: lambda_lo > 2e-10 lambda_hi. Then
    Q_r is positive definite and eigh keeps every eigenvalue, so
    c = a^T Q_r^-1 a; Q_r x = a at x = e_w / (M a_w) (D e_w = 0,
    a^T e_w = a_w), hence c = a^T x = 1/M exactly, theta = ||pi o e||^2
    / M and u = -(1/M) F^+ (pi o e)_m. The first branch of that test needs
    gamma / (2 tr G) > 2e-10 gamma tr G^-1, so a certified agent has
    tr(G) tr(G^-1) < 2.5e9 (cond F < 5e4) whenever e != 0: the eigenvalue
    cutoff of Q_r, whose diagonal spans cond(F)^2, binds long before that
    of F.

    Second certificate (w != 0 where the first fails, mostly small gamma:
    the cutoff removes power-term eigenvalues). Q_r e_w = M a_w a, so for
    every eigenpair (lambda_j, v_j) a^T v_j = lambda_j (v_j^T e_w)
    / (M a_w), and v_j's share of c is (a^T v_j)^2 / lambda_j
    = lambda_j (v_j^T e_w)^2 / (M^2 w^2). The spectral path drops the
    eigenvalues at or below tau = 1e-10 lambda_max, which therefore lowers
    c = 1/M by at most tau sum_j (v_j^T e_w)^2 / (M^2 w^2) <= tau
    / (M^2 w^2) (cf. the secular equation of a diagonal-plus-rank-one
    matrix; J. R. Bunch, C. P. Nielsen and D. C. Sorensen, Numer. Math.
    1978). Since tau <= 1e-10 lambda_hi, whatever the cutoff removes, M c
    lies in [1 - delta_m, 1] with delta_m = 2e-10 lambda_hi / (M w^2); the
    margin 2 covers eigh's eigenvalue error. It holds for a slot when every
    agent has delta_m <= CERTIFIED_CUT_SLACK and P_on lies outside
    [(1 - max delta) theta_0, theta_0), theta_0 = ||pi o e||^2 / M: the
    spectral threshold c ||pi o e||^2 lies in [(1 - max delta) theta_0,
    theta_0], so both paths transmit iff P_on < theta_0. The answer is that
    of the first certificate, theta_0 and u = -(1/M) F^+ (pi o e)_m; the
    spectral path's theta and u are at most delta below it, relative.

    The slot test decides both certificates for every agent at once, in
    ||e||^2 and Y = max_m ||y_e,m||^2 against the block's per-slot agent
    extremes e_sq_limit, gamma_tr_inv_max and slope_max. With
    W = M (||e||^2 - Y) <= M w_m^2 and Lambda = 2e-10 (gamma_tr_inv_max
    + M ||e||^2) >= lambda_hi of every agent, each extreme bounds its
    agents' terms in the direction the test is monotone in. Every agent
    passes the first certificate if ||e||^2 < e_sq_limit (its first
    branch, rearranged for ||e||^2) and W - Lambda (1 + slope_max Y) > 0:
    an agent's second branch, M w_m^2 - lambda_hi (1 + slope_m
    ||y_e,m||^2) > 0 with slope_m = (2 M / gamma) tr G_m, only falls as
    ||y_e,m||^2, lambda_hi and slope_m rise and as w_m^2 falls. Every
    agent passes the second if W > 0, Lambda <= CERTIFIED_CUT_SLACK W and
    P_on lies outside [(1 - Lambda / W) theta_0, theta_0), since Lambda
    / W >= max delta widens the band. This holds in exact arithmetic; the
    factor 2 of CERTIFIED_CUTOFF_MARGIN covers the rounding of the
    extremes and of ||e||^2 - Y, as it covers eigh's: the first test keeps
    W above 2e-10 M ||e||^2 and the second above 0.02 M ||e||^2, so their
    cancellation stays far inside it. A slot that fails the test is
    declined whole, also where each agent would pass against its own
    terms. Where k = d (N_t >= d) U is square, ||y_e,m|| = ||e_m|| and
    W = M (||e||^2 - max_m ||e_m||^2) > 0 unless e lies in one agent's
    block.

    Full rank (M = 1 with N_t >= d: F has rank d and w = 0). Q_r = D
    + a a^T has no w direction, so by Sherman-Morrison c = t / (1 + t)
    with t = ||F^T e||^2 / gamma = ||root y_e||^2 / gamma, theta
    = c ||pi o e||^2 and u = -c F^+ (pi o e), c times the operator's
    u (M = 1). Every eigenvalue of Q_r lies in [gamma / tr G, lambda_hi],
    so the same margin rule certifies it when gamma / tr G > 2e-10
    lambda_hi, which with one agent reads slope_max Lambda < 2; the second
    certificate does not apply.

    Accuracy contract. Against exact arithmetic on the same B, H, e and
    pi a certified agent's u errs by at most C cond(F) eps ||u|| when F is
    square or wide (no least-squares residual), plus C cond(F)^2 eps c
    ||rho|| / ||F||_2 for tall F, rho the residual of (pi o e)_m outside
    range(F) (N. J. Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 2002, ch. 20), with C = 4 d N_t; theta is within
    C cond(F) eps relative (theta = ||pi o e||^2 / M does not read F; at
    full rank c does). The computed factors are those of a nearby F: one
    Householder QR of B_m gives a Q_B orthonormal to working precision
    with Q_B R_B = B_m + dB, ||dB|| = O(eps ||B_m||) (Higham ch. 19);
    forming C = R_B H_m rounds as forming B_m H_m does; where C is not
    square, Householder QR of C (or C^T) is backward stable in the same
    sense; and LU with partial pivoting inverts S with an error of
    O(cond(S) eps ||S^-1||) (Higham ch. 9 and 14), where cond S = cond F
    because Q_B and Q_C have orthonormal columns; so the bound holds for
    every shape. This decides no transmit bit where w != 0. The spectral
    path forms Q_r, whose diagonal spans cond(F)^2, and loses about
    cond(F)^2 eps. The property tests hold the contract against an exact
    rational closed form (tests/oracles.py, exact_rank_one_terms).

    Orthogonal factors and an LU of the square core rather than normal
    equations G^-1 F^T: forming F^T b loses cond(F)^2 eps where the
    least-squares residual is large, and the trace of a computed G^-1 can
    be negative when G is numerically indefinite; a sum of squares cannot.
    S is not G: its condition number is F's, not F's squared.

    Declined: a slot whose flag is clear (gamma = 0, N_r < min(d, N_t), a
    singular, non-finite or ill-conditioned F), and any slot that fails the
    slot test or, at full rank, slope_max Lambda < 2. e = 0 gives theta = 0
    and u = 0 once the channels pass the conditioning test; non-finite
    channels fail it and raise in factorize_agent.
    """
    e = np.asarray(e, dtype=float)
    _, m_count, rows, d = block.operator.shape
    k = block.root.shape[-1]
    n_tx = rows - k
    if e.shape != (m_count * d,):
        raise ValueError(f"e must have shape {(m_count * d,)}, got {e.shape}")
    if not block.conditioned[i]:
        return None
    e_sq = float(e @ e)
    if e_sq == 0.0:
        return RankOneTerms(theta=np.zeros(m_count), u=np.zeros((m_count, n_tx)))
    pe = block.constants.pi * e
    z = (block.operator[i] @ e.reshape(m_count, d, 1))[..., 0]
    y_e, u = z[:, :k], z[:, k:]
    # in Python floats: no warnings where an extreme is infinite or NaN
    lam = (CERTIFIED_CUTOFF_MARGIN * DEFAULT_PINV_REL_TOL
           * (float(block.gamma_tr_inv_max[i]) + m_count * e_sq))
    slope = float(block.slope_max[i])
    if m_count == 1 and n_tx >= d:
        # full rank: gamma / tr G > tol lambda_hi
        if not slope * lam < 2.0:
            return None
        fe = block.root[i, 0] @ y_e[0]
        t = float(fe @ fe) / block.params.gamma
        c = t / (1.0 + t)
        return RankOneTerms(theta=np.array([c * float(pe @ pe)]), u=u * c)
    theta = float(pe @ pe) / m_count
    y_sq = float((y_e[:, None, :] @ y_e[:, :, None]).max())
    w = m_count * (e_sq - y_sq)
    # first certificate, lambda_lo > tol lambda_hi, one branch of the min
    # at a time; else the second, delta <= slack with P_on outside the band
    if not (e_sq < block.e_sq_limit[i] and w - lam * (1.0 + slope * y_sq) > 0
            or w > 0 and lam <= CERTIFIED_CUT_SLACK * w
            and not (1.0 - lam / w) * theta <= block.params.p_on < theta):
        return None
    return RankOneTerms(theta=np.full(m_count, theta), u=u)


def solve_agent(terms: RankOneTerms, m: int, params: PolicyParams) -> ControlDecision:
    """Communication bit and transmit vector of agent m: transmit iff P_on < theta_m."""
    theta = float(terms.theta[m])
    if params.p_on >= theta:
        return ControlDecision(0, theta, 0.0, np.zeros(terms.u.shape[1]))
    return ControlDecision(1, theta, params.p_on - theta, terms.u[m])


def control_signal(decision: ControlDecision, e) -> np.ndarray:
    """Transmit vector u = -K e; the zero vector when the agent is silent.

    solve_agent has already applied the gain to the error, so e only
    names the vector u acts on.
    """
    return decision.u


def block_decisions(b_actuation, constants: DriftConstants, params: PolicyParams):
    """The semantic scheme over the blocks of one episode.

    Factors the (M, d, N_r) actuation stack once, (Q_B, R_B)
    = np.linalg.qr(b_actuation), and returns start(h). start certifies a
    block of (slots, M, N_r, N_t) channels h with that QR
    (certify_channels) and returns decide(i, e): slot i's bits (M,) and
    controls (M, N_t), a silent agent's row 0.0, from certified_terms,
    or where they decline
    factorize_agent + rank_one_terms, then solve_agent and control_signal
    per agent. The QR lives as long as start, one episode in the slot
    loop; nothing is kept between episodes.
    """
    b = np.asarray(b_actuation, dtype=float)
    actuation_qr = np.linalg.qr(b)
    m_count = len(b)
    agents = range(m_count)

    def start(h):
        block = certify_channels(actuation_qr, h, constants, params)

        def decide(i, e):
            terms = certified_terms(block, i, e)
            if terms is None:
                terms = rank_one_terms(factorize_agent(b, h[i]), e,
                                       constants, params)
            decisions = [solve_agent(terms, m, params) for m in agents]
            return (np.fromiter((dec.delta for dec in decisions), bool, m_count),
                    np.array([control_signal(dec, e) for dec in decisions]))

        return decide

    return start
