"""Digests of a fixed episode set, to check that a change keeps outputs.

    PYTHONPATH=src python tests/episode_digest.py --write digests.json
    PYTHONPATH=src python tests/episode_digest.py --compare digests.json

Each episode's digest is a SHA-256 over its cost and transmit-power
trajectories, comm rate, slot count, divergence flag and decision log
(bits and transmit vectors), all at full precision; every field comes
from the Metrics that run_episode returns, whose decision log is always
the episode record's decided rows. The set covers the
four schemes on ring and decoupled stable (benchmark_topology) systems,
M in {1, 2, 3, 4, 5, 8}, x0 in {0, 1} and four seeds; most ring episodes
diverge. Beside each digest the file records how many slots the certified
closed form answered (policy.certified_terms not None), so a comparison
can tell certified-path drift from any other.

--write stores the digests; --compare recomputes them, lists the
episodes whose digest differs and exits 1 if any does.
"""

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from swarmtrack import policy, sim, swarm  # noqa: E402
from test_acceptance import benchmark_topology  # noqa: E402

AGENT_COUNTS = (1, 2, 3, 4, 5, 8)
SEEDS = (0, 1, 2, 3)
HORIZON = 80


def episodes():
    """(name, config, topology) of every episode in the set."""
    for kind in ("ring", "stable"):
        for m_count in AGENT_COUNTS:
            for seed in SEEDS:
                if kind == "ring":
                    base = sim.SimConfig(m_agents=m_count, state_dim=3, n_tx=2,
                                         n_rx=2, horizon=HORIZON, seed=seed)
                    topology = swarm.build_ring_topology(m_count, 3, 2, 2,
                                                         base.noise_scale, seed)
                else:
                    base = sim.SimConfig(m_agents=m_count, state_dim=9, n_tx=4,
                                         n_rx=4, horizon=HORIZON, p_on=0.001,
                                         noise_scale=0.02, r0_value=0.0,
                                         seed=seed)
                    topology = benchmark_topology(m_count, 9, 4, 4, seed, 0.02)
                for x0 in (0.0, 1.0):
                    for scheme in sim.SCHEMES:
                        cfg = replace(base, scheme=scheme, x0_value=x0)
                        name = f"{kind}/M{m_count}/seed{seed}/x0={x0:g}/{scheme}"
                        yield name, cfg, topology


def digest(metrics) -> str:
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(metrics.cost_trajectory, dtype=float).tobytes())
    h.update(np.ascontiguousarray(metrics.tx_power_trajectory, dtype=float).tobytes())
    h.update(repr((float(metrics.comm_rate), int(metrics.n_slots),
                   bool(metrics.diverged))).encode())
    deltas, controls = metrics.decision_log
    for slot_deltas, slot_controls in zip(deltas, controls):
        for delta, u in zip(slot_deltas, slot_controls):
            h.update(bytes([int(delta)]))
            h.update(np.ascontiguousarray(u, dtype=float).tobytes())
    return h.hexdigest()


def compute() -> dict:
    real = policy.certified_terms
    answered = []

    def counting(*args):
        terms = real(*args)
        answered.append(terms is not None)
        return terms

    policy.certified_terms = counting
    try:
        out = {}
        for name, cfg, topology in episodes():
            answered.clear()
            metrics = sim.run_episode(cfg, topology)
            out[name] = {"digest": digest(metrics), "n_slots": metrics.n_slots,
                         "diverged": bool(metrics.diverged),
                         "certified_slots": sum(answered)}
        return out
    finally:
        policy.certified_terms = real


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="PATH", help="store the digests")
    group.add_argument("--compare", metavar="PATH",
                       help="compare with stored digests")
    args = parser.parse_args(argv)
    current = compute()
    if args.write:
        Path(args.write).write_text(json.dumps(current, indent=1) + "\n",
                                    encoding="utf-8")
        print(f"wrote {len(current)} digests to {args.write}")
        return 0
    stored = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    changed = sorted(k for k in current.keys() | stored.keys()
                     if current.get(k, {}).get("digest")
                     != stored.get(k, {}).get("digest"))
    for name in changed:
        was, now = stored.get(name, {}), current.get(name, {})
        print(f"changed {name}: certified slots {was.get('certified_slots')} -> "
              f"{now.get('certified_slots')}, diverged {was.get('diverged')} -> "
              f"{now.get('diverged')}")
    uncertified = [k for k in changed
                   if not stored.get(k, {}).get("certified_slots")]
    print(f"{len(changed)} of {len(current)} digests differ; "
          f"{len(uncertified)} of them in episodes without certified slots")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
