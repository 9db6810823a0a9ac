"""Comparison controllers: periodic/state-triggered PID and a static Riccati gain.

Baseline 1 is the periodic trigger with PID control, baseline 2 the state
trigger with PID control, and baseline 3 the state trigger with the PID's
proportional gain alone, which is the static-channel DARE (Riccati) gain.
All three are channel-oblivious by construction: no operation in this
module accepts an instantaneous channel argument, so their decisions are
measurable with respect to state history only. The one gain the module
keeps is the proportional gain k_p, which tune_pid computes offline
against the static all-ones channel; the PID's integral and derivative
gains are the fixed multiples KAPPA_I and KAPPA_D of it.

An episode's baseline is triggered_decisions, which reads the slot and the
error alone. Its triggers decide for every agent at once: state_triggers
compares the error with the (M, dM) stack of errors the agents last sent
(its docstring has the exact-tie guarantee), and state_trigger is its
one-agent case, so the rule exists once.
"""

import math
from dataclasses import dataclass

import numpy as np

from .swarm import SwarmTopology

SCHEMES = ("baseline1", "baseline2", "baseline3")

# Integral and derivative gains of baselines 1 and 2 as multiples of the
# proportional gain k_p.
KAPPA_I = 0.05
KAPPA_D = 0.1

# solve_dare's doubling steps: at most DARE_MAX_STEPS (step k stands for
# 2**k - 1 fixed-point steps), stopped once max|dH| / max|H| < DARE_RTOL;
# a result is accepted only with a stable closed loop and an equation
# residual at most DARE_RESIDUAL_RTOL * max|P|. That bound is loose on
# purpose: on seeded rings P >= I has eigenvalues up to 3e10, and the
# residual of a converged solve reaches 1.2e-4 of max|P| there (below
# 1e-13 on the decoupled benchmark systems).
DARE_MAX_STEPS = 32
DARE_RTOL = 1e-13
DARE_RESIDUAL_RTOL = 1e-3


class DareConvergenceError(RuntimeError):
    """Riccati solve that overflowed, did not settle or was not accepted.

    tune_pid and sim.tuned_gains let it propagate: an actuated plant for
    which solve_dare finds no stabilising solution gets no baseline gain,
    and the CLI exits 2. That does not show that none exists: the M = 1,
    d = 9, N_t = N_r = 16 ring of seed 2 has one (a Schur-method solve
    gives rho(A - BK) = 0.876), yet the doubling iterate settles on an
    indefinite H there, and run exits 2.

    trace holds the relative change max|dH| / max|H| of every finite
    doubling step; residual is inf when an iterate is not finite, else the
    equation residual relative to max|P| of the last iterate.
    """

    def __init__(self, residual: float, trace):
        self.residual = residual
        self.trace = list(trace)
        super().__init__(
            f"DARE solve failed: residual {residual:.3e} after "
            f"{len(self.trace)} doubling steps")


@dataclass(frozen=True)
class GareGain:
    """Solution of a discrete algebraic Riccati equation.

    p is the stabilising solution, gain the (k, n) feedback gain for
    u = -gain @ x, residual the max-norm equation residual at p relative
    to max|p|, and iterations the number of doubling steps taken.
    """

    p: np.ndarray
    gain: np.ndarray
    residual: float
    iterations: int


def periodic_trigger(t: int, period: int) -> bool:
    return t % period == 0


def state_triggers(e, e_last, sigma) -> np.ndarray:
    """Error-deviation trigger ||e - e_last_m||^2 <= sigma_m ||e||^2 of every agent.

    e is the current global error (dM,), e_last the (M, dM) errors the
    agents last transmitted and sigma their (M,) trigger constants; returns
    the (M,) firing bits. The printed rule fires on *small* deviation from
    the last transmitted error, not on large deviation (>=) as conventional
    event triggering would. Both sides use the same
    ((.)**2).sum() reduction (np.add.reduce) per row, so the exact tie of
    e_last_m = 0 with sigma_m = 1 (met at t = 1 by episodes that start with
    e(0) = 0) compares equal values and fires; a different reduction on
    either side would leave its bit to rounding.
    """
    e = np.asarray(e, dtype=float)
    lhs = ((e - np.asarray(e_last, dtype=float)) ** 2).sum(axis=1)
    rhs = np.asarray(sigma, dtype=float) * float((e ** 2).sum())
    return lhs <= rhs


def state_trigger(e, e_last_trigger, sigma_m: float) -> bool:
    """One agent's state trigger: state_triggers on a single row."""
    return bool(state_triggers(e, np.asarray(e_last_trigger, dtype=float)[None],
                               np.array([sigma_m], dtype=float))[0])


def _doubling_step(a_k, g, h):
    """One doubling step (A_k, G_k, H_k) -> (A_k+1, G_k+1, H_k+1).

    With W = I + G_k H_k, solved once against the stacked [A_k, G_k]:
    A_k+1 = A_k W^-1 A_k, G_k+1 = G_k + A_k W^-1 G_k A_k^T and H_k+1 =
    H_k + A_k^T H_k W^-1 A_k, with G and H symmetrised.
    """
    n = a_k.shape[0]
    w_a, w_g = np.hsplit(np.linalg.solve(np.eye(n) + g @ h, np.hstack([a_k, g])), 2)
    g_next = g + a_k @ w_g @ a_k.T
    h_next = h + a_k.T @ h @ w_a
    return a_k @ w_a, 0.5 * (g_next + g_next.T), 0.5 * (h_next + h_next.T)


def _relative(value, p):
    """value / max|p|, or value itself where p is 0."""
    scale = float(np.abs(p).max())
    return value / scale if scale > 0 else value


def solve_dare(a, b, q, r) -> GareGain:
    """Discrete algebraic Riccati equation by the structure-preserving
    doubling algorithm (Chu, Fan, Lin & Wang, Int. J. Control 77, 2004).

    Solves P = A^T P A - A^T P B (R + B^T P B)^{-1} B^T P A + Q for the
    stabilising P from A_0 = A, G_0 = B R^{-1} B^T, H_0 = Q by
    _doubling_step; H_k is the fixed-point iterate from P = Q after
    2**k - 1 steps, so it converges quadratically. The loop stops once
    max|H_k+1 - H_k| / max|H_k+1| < DARE_RTOL = 1e-13, within
    DARE_MAX_STEPS = 32 steps (4-11 on the seeded rings and benchmark
    systems tried), and P = H_k+1. The gain is
    (R + B^T P B)^{-1} B^T P A, and the result is accepted only when the
    loop settled, the max-norm equation residual at P is at most
    DARE_RESIDUAL_RTOL = 1e-3 of max|P| and rho(A - B gain) < 1.

    Anything else raises DareConvergenceError with the trace of relative
    changes: an iterate with a non-finite entry at once, with residual inf
    (an unstabilizable mode, such as a = 2 with b = 0, squares A_k every
    step and overflows), and otherwise with the residual of the last
    iterate (a marginal mode never settles; a closed loop that is not
    stable is not accepted).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    a_k, h = a, q
    g = b @ np.linalg.solve(r, b.T)
    g = 0.5 * (g + g.T)
    trace = []
    # an iterate that overflows is inf or nan, which the finite check
    # below turns into DareConvergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(DARE_MAX_STEPS):
            a_k, g, h_next = _doubling_step(a_k, g, h)
            if not np.isfinite(h_next).all():
                raise DareConvergenceError(float("inf"), trace)
            change = _relative(float(np.abs(h_next - h).max()), h_next)
            trace.append(change)
            h = h_next
            if change < DARE_RTOL:
                break
        btp = b.T @ h
        btpa = btp @ a
        gain = np.linalg.solve(r + btp @ b, btpa)
        residual = _relative(
            float(np.abs(a.T @ h @ a - btpa.T @ gain + q - h).max()), h)
    if change < DARE_RTOL and residual <= DARE_RESIDUAL_RTOL \
            and np.abs(np.linalg.eigvals(a - b @ gain)).max() < 1:
        return GareGain(p=h, gain=gain, residual=residual, iterations=len(trace))
    raise DareConvergenceError(residual, trace)


def tune_pid(topology: SwarmTopology) -> np.ndarray:
    """Proportional gain k_p of the baselines: the static-channel LQR gain
    of the plant, with negative feedback sign applied.

    k_p has shape (M, n_tx, dM), so controllers apply it as u = k_p @ e
    directly. Under the all-ones static channel each agent's n_tx antennas
    send one signal, so the input has rank M: its column m is B_m @ 1 in
    block row m, B_c (dM, M). The DARE is solved on (A, B_c, I, I / n_tx);
    R = I / n_tx gives the dense (M * n_tx)-column input's G_0 = n_tx B_c
    B_c^T, and each of agent m's n_tx rows of k_p is -gain[m] / n_tx.
    Where B_c is all zero no input reaches the plant, so the LQR gain is 0
    for every A and no Riccati equation is solved (k_p is -0.0). Otherwise
    an actuated plant for which solve_dare finds no stabilising solution
    it accepts raises DareConvergenceError, whether or not one exists (the
    M = 1, d = 9, N_t = N_r = 16 ring of seed 2 has one; see
    DareConvergenceError).
    """
    m_count, d, n_tx = topology.m_agents, topology.state_dim, topology.n_tx
    agents = np.arange(m_count)
    b_c = np.zeros((m_count, d, m_count))
    b_c[agents, :, agents] = (topology.b_actuation
                              @ np.ones((topology.n_rx, n_tx)))[..., 0]
    b_c = b_c.reshape(topology.global_dim, m_count)
    if b_c.any():
        gain = solve_dare(topology.a_global, b_c, np.eye(topology.global_dim),
                          np.eye(m_count) / n_tx).gain
    else:
        gain = np.zeros((m_count, topology.global_dim))
    return np.repeat(-gain[:, None, :] / n_tx, n_tx, axis=1)


def pid_control(k_p, k_i, k_d, e, accumulator, prev_e) -> np.ndarray:
    """One PID control vector from the global error and its running sums.

    accumulator must already include the current error (sum over i <= t of
    e(i)); prev_e is the error at the previous slot, with prev_e = e at
    t = 0 so the first derivative term vanishes.
    """
    e = np.asarray(e, dtype=float)
    return k_p @ e + k_i @ np.asarray(accumulator, dtype=float) \
        + k_d @ (e - np.asarray(prev_e, dtype=float))


def triggered_decisions(scheme: str, k_p):
    """A baseline's decisions over an episode, as decide(t, e) per slot t.

    k_p is tune_pid's (M, N_t, dM) proportional gain. decide is called in
    slot order from t = 0 with the global error e and returns the (M,)
    firing bits and (M, N_t) controls. Baseline 1 fires every agent every
    ceil(M/2) slots; baselines 2 and 3 fire on the state trigger, sigma_m =
    m (1-based), against the error each agent last sent. Baselines 1 and 2
    send the PID control, whose integral and derivative gains KAPPA_I * k_p
    and KAPPA_D * k_p are formed once per episode, baseline 3 k_p @ e
    alone, evaluated once per slot over the agent axis; a slot where nobody
    fires returns one shared read-only zero array and evaluates no control
    law.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown baseline {scheme!r}; valid: {SCHEMES}")
    m_count, n_tx, dm = k_p.shape
    periodic, pid = scheme == "baseline1", scheme != "baseline3"
    if pid:  # baselines 1 and 2's integral and derivative gains
        k_i, k_d = KAPPA_I * k_p, KAPPA_D * k_p
    period, sigma = math.ceil(m_count / 2), np.arange(1.0, m_count + 1)
    if periodic:  # baseline 1's two shared firing-bit arrays
        everyone, nobody = np.ones(m_count, dtype=bool), np.zeros(m_count, dtype=bool)
    silent = np.zeros((m_count, n_tx))
    silent.flags.writeable = False
    accumulator = np.zeros(dm)
    prev_e = last_sent = None

    def decide(t, e):
        nonlocal accumulator, prev_e, last_sent
        if prev_e is None:
            prev_e = e
            last_sent = np.tile(e, (m_count, 1))
        accumulator = accumulator + e
        if periodic:
            fired = everyone if periodic_trigger(t, period) else nobody
        else:
            fired = state_triggers(e, last_sent, sigma)
        controls = silent
        if fired.any():
            last_sent[fired] = e
            law = (pid_control(k_p, k_i, k_d, e, accumulator, prev_e) if pid
                   else k_p @ e)
            controls = np.where(fired[:, None], law, 0.0)
        prev_e = e
        return fired, controls

    return decide
