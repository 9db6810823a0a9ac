"""Comparison controllers: periodic/state-triggered PID and a static Riccati gain.

Baseline 1 is the periodic trigger with PID control, baseline 2 the state
trigger with PID control, and baseline 3 the state trigger with the PID's
proportional gain alone, which is the static-channel DARE (Riccati) gain.
All three are channel-oblivious by construction: no operation in this
module accepts an instantaneous channel argument, so their decisions are
measurable with respect to state history only. Gains are tuned offline
against the static all-ones channel.

An episode's baseline is triggered_decisions, which reads the slot and the
error alone. Its triggers decide for every agent at once: state_triggers
compares the error with the (M, dM) stack of errors the agents last sent
(its docstring has the exact-tie guarantee), and state_trigger is its
one-agent case, so the rule exists once.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _checks
from .swarm import SwarmTopology

SCHEMES = ("baseline1", "baseline2", "baseline3")

# Integral and derivative gains of tune_pid as multiples of the
# proportional gain.
KAPPA_I = 0.05
KAPPA_D = 0.1

# Fixed-point steps and residual tolerance of solve_dare.
DARE_MAX_ITER = 10000
DARE_TOL = 1e-8


class DareConvergenceError(RuntimeError):
    """Fixed-point Riccati iteration failed to reach the residual tolerance."""

    def __init__(self, residual: float, trace):
        self.residual = residual
        self.trace = list(trace)
        super().__init__(
            f"DARE iteration did not converge: final residual {residual:.3e} "
            f"after {len(self.trace)} iterations")


@dataclass(frozen=True)
class GareGain:
    """Solution of a discrete algebraic Riccati equation.

    p is the fixed point, gain the (k, n) feedback gain for u = -gain @ x,
    residual the equation residual at p.
    """

    p: np.ndarray
    gain: np.ndarray
    residual: float
    iterations: int


@dataclass
class PidGains:
    """Per-agent PID gain triples acting on the global error vector.

    k_p/k_i/k_d have shape (M, n_tx, dM) and already carry the negative
    feedback sign, so controllers apply them as u = K @ e directly.
    a_scale records any plant-matrix regularization used during tuning.
    """

    k_p: np.ndarray
    k_i: np.ndarray
    k_d: np.ndarray
    a_scale: float = 1.0


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


def solve_dare(a, b, q, r) -> GareGain:
    """Discrete algebraic Riccati equation by fixed-point iteration.

    Iterates P <- A^T P A - (B^T P A)^T (R + B^T P B)^{-1} B^T P A + Q from
    P = Q until the equation residual drops below DARE_TOL = 1e-8, then
    returns the gain (R + B^T P B)^{-1} B^T P A. Q and R are symmetric:
    each step forms B^T P A once and uses its transpose for A^T P B, which
    is the same matrix because every iterate is symmetrised. Raises
    DareConvergenceError with the residual trace when DARE_MAX_ITER =
    10000 steps do not get there or an iterate overflows (typical for
    unstabilizable systems).

    Finiteness rule: a step whose iterate has a non-finite entry raises
    at once with residual inf and appends nothing to the trace. A finite
    iterate whose difference from P overflows appends inf to the trace,
    and the iteration goes on. A non-finite entry of the iterate makes
    its difference from P, hence the residual, non-finite, so the
    iterate itself is checked only when the residual is not finite.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    p = q.copy()
    diff = np.empty_like(p)
    trace = []
    # a diverging iterate overflows to inf or nan, which the finite check
    # below turns into DareConvergenceError
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, DARE_MAX_ITER + 1):
            btp = b.T @ p
            btpa = btp @ a
            gain = np.linalg.solve(r + btp @ b, btpa)
            p_next = a.T @ p @ a
            p_next -= btpa.T @ gain
            p_next += q
            # a fresh sum: adding its own transpose in place would make
            # numpy copy the overlapping operand first, which costs more
            p_next = p_next + p_next.T
            p_next *= 0.5
            np.subtract(p_next, p, out=diff)
            residual = float(np.abs(diff, out=diff).max())  # equation residual at p
            if not math.isfinite(residual) and not np.isfinite(p_next).all():
                raise DareConvergenceError(float("inf"), trace)
            trace.append(residual)
            if residual < DARE_TOL:
                return GareGain(p=p, gain=gain, residual=residual, iterations=it)
            p = p_next
    raise DareConvergenceError(trace[-1], trace)


def static_channel_input(topology: SwarmTopology) -> np.ndarray:
    """Aggregate input map under the all-ones static channel.

    Column block m is Bhat_m @ 1_{n_rx x n_tx}; shape (dM, M * n_tx). The
    n_tx columns of block m are one column repeated, so the map has rank
    at most M: it is B_c @ kron(I_M, 1^T_{n_tx}), B_c its columns [:, ::n_tx].
    """
    ones = np.ones((topology.n_rx, topology.n_tx))
    cols = [topology.bhat(m) @ ones for m in range(topology.m_agents)]
    return np.hstack(cols)


def tune_pid(topology: SwarmTopology, a_scale: float = 1.0) -> PidGains:
    """Offline PID tuning from the static-channel LQR gain.

    The proportional gain is the DARE gain for (a_scale * A, B_eff, I, I),
    B_eff = static_channel_input, with negative feedback sign applied;
    integral and derivative gains are KAPPA_I / KAPPA_D multiples of it.
    a_scale, a finite real, < 1 regularizes tuning when the raw system is
    unstabilizable under the static channel.

    The DARE is solved on B_eff's M distinct columns B_c, so each step
    solves an M x M system instead of an (M n_tx)-sized one. With B_eff
    = B_c J, J = kron(I_M, 1^T_{n_tx}) and J J^T = n_tx I_M, the
    push-through identity gives B_eff (I + B_eff^T P B_eff)^{-1} B_eff^T
    = B_c (I / n_tx + B_c^T P B_c)^{-1} B_c^T, so (a_scale * A, B_c, I,
    I / n_tx) has the same P iterates in exact arithmetic, hence the same
    stopping step, and its gain row m divided by n_tx is each of agent m's
    n_tx rows of the dense gain.
    """
    _checks.real("a_scale", a_scale)
    n_tx = topology.n_tx
    b_c = static_channel_input(topology)[:, ::n_tx]
    sol = solve_dare(a_scale * topology.a_global, b_c,
                     np.eye(topology.global_dim), np.eye(topology.m_agents) / n_tx)
    k_p = np.repeat(-sol.gain[:, None, :] / n_tx, n_tx, axis=1)
    return PidGains(k_p=k_p, k_i=KAPPA_I * k_p, k_d=KAPPA_D * k_p,
                    a_scale=a_scale)


def pid_control(k_p, k_i, k_d, e, accumulator, prev_e) -> np.ndarray:
    """One PID control vector from the global error and its running sums.

    accumulator must already include the current error (sum over i <= t of
    e(i)); prev_e is the error at the previous slot, with prev_e = e at
    t = 0 so the first derivative term vanishes.
    """
    e = np.asarray(e, dtype=float)
    return k_p @ e + k_i @ np.asarray(accumulator, dtype=float) \
        + k_d @ (e - np.asarray(prev_e, dtype=float))


def triggered_decisions(scheme: str, gains: PidGains):
    """A baseline's decisions over an episode, as decide(t, e) per slot t.

    decide is called in slot order from t = 0 with the global error e and
    returns the (M,) firing bits and (M, N_t) controls. Baseline 1 fires
    every agent every ceil(M/2) slots; baselines 2 and 3 fire on the state
    trigger, sigma_m = m (1-based), against the error each agent last
    sent. Baselines 1 and 2 send the PID control, baseline 3 k_p @ e alone,
    evaluated once per slot over the agent axis; a slot where nobody fires
    returns one shared read-only zero array and evaluates no control law.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown baseline {scheme!r}; valid: {SCHEMES}")
    m_count, n_tx, dm = gains.k_p.shape
    periodic, pid = scheme == "baseline1", scheme != "baseline3"
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
            law = (pid_control(gains.k_p, gains.k_i, gains.k_d, e, accumulator,
                               prev_e) if pid else gains.k_p @ e)
            controls = np.where(fired[:, None], law, 0.0)
        prev_e = e
        return fired, controls

    return decide
