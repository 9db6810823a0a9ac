"""Digests of a fixed episode set and CLI output set, to check that a
change keeps outputs.

    PYTHONPATH=src python tests/episode_digest.py --write tests/digests.json
    PYTHONPATH=src python tests/episode_digest.py --compare tests/digests.json

tests/digests.json is the committed baseline that
test_episode_digest.test_outputs_match_committed_digests compares with.
A change that moves outputs on purpose rewrites it with --write and
leaves the .npz that --write puts beside it out of the commit.

Each episode's digest is a SHA-256 over its cost and transmit-power
trajectories, comm rate, slot count, divergence flag and decision log
(bits and transmit vectors), all at full precision; every field comes
from the Metrics that run_episode returns, whose decision log is always
the episode record's decided rows. The set covers the
four schemes on ring and decoupled stable (benchmark_topology) systems,
M in {1, 2, 3, 4, 5, 8}, x0 in {0, 1} and four seeds; most ring episodes
diverge. Those all have tall channels (d = 3, N_t = 2 or d = 9, N_t = 4)
and gamma = 1, so the set adds semantic episodes on stable systems whose
channels are wide (N_t > d) or short (N_r < min(d, N_t)), each at gamma
in {0, 1e-6, 1, 1e6} and M in {1, 2, 4}. Every one of those estimates its
channels from pilots, so the set also runs semantic episodes with perfect
CSI (use_estimated_csi false) on the stable d = 9, N_t = N_r = 4 family,
M in {1, 2, 4, 8} and seeds 0-2. Beside each digest the file
records how many slots the certified closed form answered
(policy.certified_terms not None), so a comparison can tell
certified-path drift from any other.

The CLI set is every file cli.main writes for run and check-stability on
a 2-agent ring (d = 3, N = 2, horizon 40) and on the same system pinned
as a topology file, calibrate-gamma on the ring, and sweeps on M, N_t and
power_dbw (2 values, 1 seed each). The commands run in a temporary
directory with relative paths, so manifest.json does not depend on where
the tool runs; each file's SHA-256 is keyed cli/<case>/<file>.

--write stores the digests with the numpy version, Python version and
platform they were computed on (key "environment"; digests are bit-exact,
so they depend on numpy and its BLAS), and beside them (same name, .npz)
every episode's cost, power, bits and controls, and the semantic
episodes' thresholds theta. --compare recomputes them, lists the
episodes whose digest differs, prints the certified slots over all
episodes before and after, names each CLI file that differs or exists on
one side only, and exits 1 if any digest differs. Where the stored arrays exist it
measures each changed episode over the slots both runs decided: the worst
relative deviation of cost, power and u (per slot |a - b| / max(|a|, |b|),
per agent's u in norm) and the transmit bits that flipped, each flip with
its slot, agent and theta - P_on before and after.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from swarmtrack import cli, policy, sim, swarm  # noqa: E402
from test_acceptance import benchmark_topology  # noqa: E402

AGENT_COUNTS = (1, 2, 3, 4, 5, 8)
SEEDS = (0, 1, 2, 3)
HORIZON = 80
# The semantic episodes on what the set above never reaches, layout ->
# (d, N_t, N_r): wide F with N_r = d, and short N_r < min(d, N_t).
EDGE_LAYOUTS = {"wide3": (3, 4, 3), "wide9": (9, 16, 9), "short": (3, 4, 2)}
EDGE_AGENT_COUNTS = (1, 2, 4)
EDGE_GAMMAS = (0.0, 1e-6, 1.0, 1e6)
PERFECT_CSI_AGENT_COUNTS = (1, 2, 4, 8)
PERFECT_CSI_SEEDS = (0, 1, 2)


def stable_config(m_count, seed, **fields):
    """The stable family's config: d = 9, N_t = N_r = 4."""
    return sim.SimConfig(m_agents=m_count, state_dim=9, n_tx=4, n_rx=4,
                         horizon=HORIZON, p_on=0.001, noise_scale=0.02,
                         r0_value=0.0, seed=seed, **fields)


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
                    base = stable_config(m_count, seed)
                    topology = benchmark_topology(m_count, 9, 4, 4, seed, 0.02)
                for x0 in (0.0, 1.0):
                    for scheme in sim.SCHEMES:
                        cfg = replace(base, scheme=scheme, x0_value=x0)
                        name = f"{kind}/M{m_count}/seed{seed}/x0={x0:g}/{scheme}"
                        yield name, cfg, topology
    for index, ((layout, (d, n_tx, n_rx)), m_count) in enumerate(
            itertools.product(EDGE_LAYOUTS.items(), EDGE_AGENT_COUNTS)):
        topology = benchmark_topology(m_count, d, n_tx, n_rx, index, 0.02)
        for gamma in EDGE_GAMMAS:
            cfg = sim.SimConfig(m_agents=m_count, state_dim=d, n_tx=n_tx,
                                n_rx=n_rx, horizon=HORIZON, p_on=0.001,
                                gamma=gamma, noise_scale=0.02, r0_value=0.0,
                                seed=index)
            yield (f"edge/{layout}/M{m_count}/seed{index}/gamma={gamma:g}/semantic",
                   cfg, topology)
    for m_count in PERFECT_CSI_AGENT_COUNTS:
        for seed in PERFECT_CSI_SEEDS:
            yield (f"perfect-csi/M{m_count}/seed{seed}/x0=1/semantic",
                   stable_config(m_count, seed, use_estimated_csi=False),
                   benchmark_topology(m_count, 9, 4, 4, seed, 0.02))


CLI_PREFIX = "cli/"
ENVIRONMENT = "environment"
CLI_CONFIG = {"m_agents": 2, "state_dim": 3, "n_tx": 2, "n_rx": 2,
              "horizon": 40, "seed": 0}
# case -> (command, config file, arguments after --config and --out)
CLI_CASES = {
    "run-ring": ("run", "ring.json", []),
    "run-file": ("run", "file.json", []),
    "check-stability-ring": ("check-stability", "ring.json", ["--draws", "50"]),
    "check-stability-file": ("check-stability", "file.json", ["--draws", "50"]),
    "calibrate-gamma": ("calibrate-gamma", "ring.json", ["--probe-seeds", "2"]),
    "sweep-M": ("sweep", "ring.json", ["--axis", "M", "--values", "1,2",
                                       "--seeds", "1"]),
    "sweep-N_t": ("sweep", "ring.json", ["--axis", "N_t", "--values", "1,2",
                                         "--seeds", "1"]),
    "sweep-power_dbw": ("sweep", "ring.json", ["--axis", "power_dbw",
                                               "--values", "0,8", "--seeds", "1"]),
}


def cli_digests() -> dict:
    """{cli/<case>/<file>: {"digest": SHA-256}} of every file the CLI set
    writes; a command that exits non-zero raises RuntimeError."""
    out, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            ring = sim.SimConfig.from_dict(CLI_CONFIG)
            Path("topology.json").write_text(
                swarm.topology_to_json(sim.build_topology(ring)), encoding="utf-8")
            Path("ring.json").write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
            Path("file.json").write_text(
                json.dumps({**CLI_CONFIG, "topology_path": "topology.json"}),
                encoding="utf-8")
            for case, (command, config, extra) in CLI_CASES.items():
                code = cli.main([command, "--config", config, "--out", case, *extra])
                if code:
                    raise RuntimeError(f"{command} of case {case} exited {code}")
                for path in sorted(Path(case).iterdir()):
                    out[f"{CLI_PREFIX}{case}/{path.name}"] = {
                        "digest": hashlib.sha256(path.read_bytes()).hexdigest()}
        finally:
            os.chdir(cwd)
    return out


def environment() -> dict:
    """The numpy version, Python version and platform of this process."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}"}


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


def compute():
    """(summary, arrays, p_on) of every episode: the digest file's entries,
    the trajectories the .npz stores, and each episode's P_on."""
    real_certified, real_solve = policy.certified_terms, policy.solve_agent
    answered, thetas = [], []

    def counting(*args):
        terms = real_certified(*args)
        answered.append(terms is not None)
        return terms

    def recording(terms, m, params):
        decision = real_solve(terms, m, params)
        thetas.append(decision.theta)
        return decision

    policy.certified_terms, policy.solve_agent = counting, recording
    try:
        summary, arrays, p_on = {}, {}, {}
        for name, cfg, topology in episodes():
            answered.clear()
            thetas.clear()
            metrics = sim.run_episode(cfg, topology)
            summary[name] = {"digest": digest(metrics), "n_slots": metrics.n_slots,
                             "diverged": bool(metrics.diverged),
                             "certified_slots": sum(answered)}
            bits, controls = metrics.decision_log
            arrays.update({
                f"{name}|cost": metrics.cost_trajectory,
                f"{name}|power": metrics.tx_power_trajectory,
                f"{name}|bits": bits, f"{name}|u": controls,
                f"{name}|theta": np.reshape(thetas, (-1, cfg.m_agents))})
            p_on[name] = cfg.p_on
        return summary, arrays, p_on
    finally:
        policy.certified_terms, policy.solve_agent = real_certified, real_solve


FIELDS = ("cost", "power", "bits", "u", "theta")


def relative_deviation(old, new) -> float:
    """Worst ||old - new|| / max(||old||, ||new||), norms over the last
    axis (0 where both are 0)."""
    diff = np.linalg.norm(new - old, axis=-1)
    big = np.maximum(np.linalg.norm(old, axis=-1), np.linalg.norm(new, axis=-1))
    ratio = np.divide(diff, big, out=np.zeros_like(diff), where=big > 0)
    return float(ratio.max(initial=0.0))


def deviations(name, stored, current, p_on) -> tuple:
    """Worst cost, power and u deviation of one episode over the slots both
    runs decided, and its bit flips as (slot, agent, old theta - P_on,
    new theta - P_on), theta nan where the scheme has none."""
    old = {field: stored[f"{name}|{field}"] for field in FIELDS}
    new = {field: current[f"{name}|{field}"] for field in FIELDS}
    n = min(len(old["bits"]), len(new["bits"]))
    worst = (relative_deviation(old["cost"][:n, None], new["cost"][:n, None]),
             relative_deviation(old["power"][:n, None], new["power"][:n, None]),
             relative_deviation(old["u"][:n], new["u"][:n]))
    flips = []
    for t, m in zip(*np.nonzero(old["bits"][:n] != new["bits"][:n])):
        before, after = (float(theta[t, m] - p_on) if len(theta) else np.nan
                         for theta in (old["theta"], new["theta"]))
        flips.append((int(t), int(m), before, after))
    return worst, flips


def certified_total(stored, current) -> str:
    """One line: certified slots summed over every episode, stored -> current."""
    before, after = (sum(entry.get("certified_slots", 0) for entry in side.values())
                     for side in (stored, current))
    return f"certified slots over all episodes: {before} -> {after}"


def differing(stored, current) -> list:
    """Sorted keys whose digest differs or that one side lacks."""
    return sorted(k for k in current.keys() | stored.keys()
                  if current.get(k, {}).get("digest")
                  != stored.get(k, {}).get("digest"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--write", metavar="PATH", help="store the digests")
    group.add_argument("--compare", metavar="PATH",
                       help="compare with stored digests")
    args = parser.parse_args(argv)
    current, arrays, p_on = compute()
    files = cli_digests()
    if args.write:
        document = {ENVIRONMENT: environment(), **current, **files}
        Path(args.write).write_text(json.dumps(document, indent=1) + "\n",
                                    encoding="utf-8")
        np.savez_compressed(Path(args.write).with_suffix(".npz"), **arrays)
        print(f"wrote {len(current)} episode and {len(files)} CLI file digests "
              f"to {args.write}")
        return 0
    stored = json.loads(Path(args.compare).read_text(encoding="utf-8"))
    stored.pop(ENVIRONMENT, None)
    stored_files = {k: stored.pop(k) for k in list(stored)
                    if k.startswith(CLI_PREFIX)}
    stored_npz = Path(args.compare).with_suffix(".npz")
    old = dict(np.load(stored_npz)) if stored_npz.exists() else None
    changed = differing(stored, current)
    changed_files = differing(stored_files, files)
    worst, n_flips = np.zeros(3), 0
    for name in changed:
        was, now = stored.get(name, {}), current.get(name, {})
        line = (f"changed {name}: certified slots {was.get('certified_slots')} -> "
                f"{now.get('certified_slots')}, diverged {was.get('diverged')} -> "
                f"{now.get('diverged')}")
        if old is not None and was and now:
            dev, flips = deviations(name, old, arrays, p_on[name])
            worst = np.maximum(worst, dev)
            n_flips += len(flips)
            line += (f", worst deviation cost {dev[0]:.2e} power {dev[1]:.2e} "
                     f"u {dev[2]:.2e}, {len(flips)} bit flips")
            line += "".join(f"\n  flip slot {t} agent {m}: theta - P_on "
                            f"{before:.3e} -> {after:.3e}"
                            for t, m, before, after in flips)
        print(line)
    uncertified = [k for k in changed
                   if not stored.get(k, {}).get("certified_slots")]
    baseline = [k for k in changed if not k.endswith("/semantic")]
    print(f"{len(changed)} of {len(current)} episode digests differ; "
          f"{len(uncertified)} of them in episodes without certified slots; "
          f"{len(baseline)} baseline-scheme digests differ")
    print(certified_total(stored, current))
    if old is not None and changed:
        print(f"worst per-slot deviation: cost {worst[0]:.2e}, power "
              f"{worst[1]:.2e}, u {worst[2]:.2e}; {n_flips} transmit bits flipped")
    for name in changed_files:
        side = ("" if name in files and name in stored_files
                else " (current only)" if name in files else " (stored only)")
        print(f"changed {name}{side}")
    print(f"{len(changed_files)} of {len(files)} CLI output files differ")
    return 1 if changed or changed_files else 0


if __name__ == "__main__":
    sys.exit(main())
