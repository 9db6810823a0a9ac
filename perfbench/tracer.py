"""Spans and counters around the public functions of the swarmtrack modules.

The tracer works from outside the package: it replaces each public function
(plus ``sim._slot_rng``) in every swarmtrack module namespace that binds it,
so calls made through ``from .linalg import svd`` in ``policy`` and
``stability`` are caught at the point where they are looked up. Spans are
kept in memory (one row per call: function, parent span, start, end) and
written out by ``save``; self time is a span's duration minus the time its
child spans cover, accumulated as calls end.
"""

import inspect
from array import array
from time import perf_counter

import numpy as np

# Private functions that are hot enough to get their own span.
EXTRA_FUNCTIONS = ("sim._slot_rng",)

# A transmitted u this small next to ||e|| moves nothing (roadmap finding 3).
ZERO_EFFECT_REL = 1e-9

# Spans kept for the written trace; statistics keep counting past the cap.
MAX_SPANS = 1_000_000


class Tracer:
    """Installs wrappers on demand and accumulates per-function statistics."""

    def __init__(self, modules):
        self._modules = list(modules)
        self.names = []
        self.calls = []
        self.self_s = []
        self.events = {}
        self.slots = 0
        self.span_fn = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.signatures = {}
        self._stack = []
        self._patches = self._plan()

    def _plan(self):
        by_module = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules}
        patches = []
        for short, mod in by_module.items():
            if short == "swarmtrack":
                continue
            for attr, obj in sorted(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if attr.startswith("_") and name not in EXTRA_FUNCTIONS:
                    continue
                wrapper = self._wrap(name, obj)
                for site in self._modules:
                    for site_attr, site_obj in vars(site).items():
                        if site_obj is obj:
                            patches.append((site, site_attr, obj, wrapper))
        state_cls = by_module["swarm"].SwarmState
        original = state_cls.__post_init__

        def counted_post_init(state):
            self.count("swarm.states")
            return original(state)

        patches.append((state_cls, "__post_init__", original, counted_post_init))
        return patches

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def count(self, event: str, n: int = 1):
        self.events[event] = self.events.get(event, 0) + n

    def _wrap(self, name, fn):
        fid = len(self.names)
        self.signatures[name] = inspect.signature(fn)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = _HOOKS.get(name)
        stack = self._stack
        span_fn, span_parent = self.span_fn, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        def wrapper(*args, **kwargs):
            idx = len(span_fn)
            keep = idx < MAX_SPANS
            if keep:
                span_fn.append(fid)
                span_parent.append(stack[-1][0] if stack else -1)
                span_start.append(0.0)
                span_end.append(0.0)
            # [span index, child seconds, child count, function id]
            frame = [idx if keep else -1, 0.0, 0, fid]
            stack.append(frame)
            out = exc = None
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except Exception as err:
                exc = err
                raise
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[fid] += 1
                self_s[fid] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += 1
                if keep:
                    span_start[idx] = start
                    span_end[idx] = end
                if hook is not None:
                    hook(self, args, kwargs, out, exc, frame)
                    if stack:
                        # Hook work is tracing overhead, not the caller's.
                        stack[-1][1] += perf_counter() - end

        wrapper.__wrapped__ = fn
        return wrapper

    def active(self, name: str) -> bool:
        fid = self.names.index(name)
        return any(frame[3] == fid for frame in self._stack)

    def stat(self, name: str):
        """(calls, self seconds) of one wrapped function."""
        fid = self.names.index(name)
        return self.calls[fid], self.self_s[fid]

    def total_self_s(self) -> float:
        return sum(self.self_s)

    def save(self, path):
        np.savez(path, names=np.array(self.names), fn=np.frombuffer(self.span_fn, np.int32),
                 parent=np.frombuffer(self.span_parent, np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end))


def _on_svd(tr, args, kwargs, out, exc, frame):
    shape = np.shape(args[0] if args else kwargs["matrix"])
    if len(shape) == 2:
        tr.count("linalg.mnk", shape[0] * shape[1] * min(shape))


def _on_solve_agent(tr, args, kwargs, out, exc, frame):
    if out is not None and out.delta:
        tr.count("policy.tx")


def _on_control_signal(tr, args, kwargs, out, exc, frame):
    decision = args[0] if args else kwargs["decision"]
    e = args[1] if len(args) > 1 else kwargs["e"]
    if out is not None and decision.delta:
        if out @ out <= ZERO_EFFECT_REL ** 2 * (e @ e):
            tr.count("policy.tx_zero_effect")


def _on_trigger(tr, args, kwargs, out, exc, frame):
    tr.count("baselines.trigger_evals")
    if out:
        tr.count("baselines.fires")


def _on_solve_dare(tr, args, kwargs, out, exc, frame):
    if exc is not None:
        tr.count("baselines.solve_dare.failures")
        tr.count("baselines.solve_dare.iterations", len(getattr(exc, "trace", ())))
    elif out is not None:
        tr.count("baselines.solve_dare.iterations", out.iterations)


def _on_tuned_gains(tr, args, kwargs, out, exc, frame):
    # A cache hit returns without calling into the baselines module.
    if exc is None and frame[2] == 0:
        tr.count("sim.tuned_gains.hits")


def _on_run_episode(tr, args, kwargs, out, exc, frame):
    if out is not None:
        tr.slots += out.n_slots
    if tr.active("sim.calibrate_gamma"):
        tr.count("sim.calibrate_gamma.probes")


def _on_calibrate_gamma(tr, args, kwargs, out, exc, frame):
    if out is None:
        return
    bound = tr.signatures["sim.calibrate_gamma"].bind(*args, **kwargs)
    bound.apply_defaults()
    if out in (bound.arguments["lo"], bound.arguments["hi"]):
        tr.count("sim.calibrate_gamma.clamped")


_HOOKS = {
    "linalg.svd": _on_svd,
    "policy.solve_agent": _on_solve_agent,
    "policy.control_signal": _on_control_signal,
    "baselines.periodic_trigger": _on_trigger,
    "baselines.state_trigger": _on_trigger,
    "baselines.solve_dare": _on_solve_dare,
    "sim.tuned_gains": _on_tuned_gains,
    "sim.run_episode": _on_run_episode,
    "sim.calibrate_gamma": _on_calibrate_gamma,
}
