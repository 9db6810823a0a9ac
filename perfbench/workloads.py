"""The benchmark's workloads and the reference check of their outputs.

Each workload is a closed loop with one caller: an operation starts only
after the previous one has returned and been checked. Operations come from
a fixed pool per workload, and the workload seed fixes the order in which a
run visits the pool, so ``reference.json`` can hold the expected result of
every operation a run can make.

All systems belong to the decoupled family used by the acceptance tests
(``benchmark_topology`` in ``tests/test_acceptance.py``): diagonal plant
blocks with eigenvalues 0.95 ... 0.5, so no operation diverges. The ring
topology of the README default config diverges within ~23 slots and would
time a blow-up instead.
"""

import itertools
import json
import os
import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

SCHEMES = ("semantic", "baseline1", "baseline2", "baseline3")
BASELINES = SCHEMES[1:]
NOISE_SCALE = 0.02
M8_TOPOLOGY_SEED = 0
CELL_TOPOLOGY_SEED0 = 1000
CELL_BUDGET_DBW = 8.0

# Floats must agree to this relative tolerance; integers and flags exactly.
RTOL = 1e-6
ATOL = 1e-12


def benchmark_topology(swarm, m_agents, d, n_tx, n_rx, seed, noise_scale,
                       eig_hi=0.95, eig_lo=0.5):
    """Decoupled swarm with sorted diagonal plant blocks (same draws as the tests)."""
    rng = np.random.default_rng(seed)
    eigs = np.linspace(eig_hi, eig_lo, d)
    return swarm.SwarmTopology(
        m_agents=m_agents, state_dim=d, n_tx=n_tx, n_rx=n_rx,
        a_internal=np.array([np.diag(eigs)] * m_agents), couplings={},
        b_actuation=rng.normal(size=(m_agents, d, n_rx)),
        w_noise=np.array([noise_scale * np.eye(d)] * m_agents),
        g_target=np.eye(d * m_agents))


def base_config(sim, m_agents, horizon, **extra):
    return sim.SimConfig(m_agents=m_agents, state_dim=9, n_tx=4, n_rx=4,
                         horizon=horizon, p_on=0.001, noise_scale=NOISE_SCALE,
                         x0_value=0.0, r0_value=0.0, **extra)


def clear_caches(mods):
    """Empty the package's module-level memo tables (tuned gains, noise roots)."""
    for mod in mods.all:
        for name, value in vars(mod).items():
            if name.endswith("_CACHE") and isinstance(value, dict):
                value.clear()


def episode_fields(metrics) -> dict:
    return {"diverged": bool(metrics.diverged), "n_slots": int(metrics.n_slots),
            "comm_rate": float(metrics.comm_rate),
            "avg_cost": float(metrics.avg_cost),
            "avg_tx_power": float(metrics.avg_tx_power),
            "gamma": float(metrics.gamma)}


def compare(got: dict, want: dict) -> list:
    """Mismatches between an operation's result and its reference."""
    problems = []
    for key in sorted(set(got) | set(want)):
        if key not in got or key not in want:
            problems.append(f"{key}: missing ({got.get(key)!r} vs {want.get(key)!r})")
            continue
        a, b = got[key], want[key]
        if key.endswith("diverged") and a:
            problems.append(f"{key}: episode diverged")
        if isinstance(b, (bool, int)) or isinstance(a, (bool, int)):
            if a != b:
                problems.append(f"{key}: {a!r} != {b!r}")
        elif not abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL:
            problems.append(f"{key}: {a!r} != {b!r} (rtol {RTOL})")
    return problems


@dataclass
class EpisodeWorkload:
    """Episodes on one fixed M=8 topology with warm per-topology caches.

    One operation is one episode; the schemes take turns on each pool seed,
    so every scheme sees the same channel and noise streams.
    """

    name: str
    schemes: tuple
    why: str
    horizon: int = 30
    pool_size: int = 128

    def keys(self, seed: int):
        order = np.random.default_rng(seed).permutation(self.pool_size)
        for index in itertools.cycle(order):
            for scheme in self.schemes:
                yield f"{scheme}/{index}"

    def all_keys(self):
        return [f"{s}/{i}" for i in range(self.pool_size) for s in self.schemes]

    def setup(self, mods, work_dir: Path):
        topology = benchmark_topology(mods.swarm, 8, 9, 4, 4, M8_TOPOLOGY_SEED,
                                      NOISE_SCALE)
        config = base_config(mods.sim, 8, self.horizon)
        for scheme in self.schemes:
            mods.sim.run_episode(replace(config, scheme=scheme, horizon=5), topology)
        return {"mods": mods, "topology": topology, "config": config}

    def prepare(self, ctx, key):
        pass

    def run(self, ctx, key):
        """Run one operation; returns (checked fields, per-command seconds, bytes)."""
        scheme, index = key.split("/")
        cfg = replace(ctx["config"], scheme=scheme, seed=int(index))
        metrics = ctx["mods"].sim.run_episode(cfg, ctx["topology"])
        return episode_fields(metrics), {}, 0


@dataclass
class CellWorkload:
    """One experiment cell per operation, driven through ``cli.main``.

    Each cell pins a fresh M=4 topology via ``topology_path`` and runs
    check-stability, calibrate-gamma at the README's 8 dBW with the default
    probe seeds, and run at the calibrated gamma. Caches are emptied before
    every cell, so DARE tuning runs each time.
    """

    name: str
    why: str
    horizon: int = 30
    pool_size: int = 64

    def keys(self, seed: int):
        order = np.random.default_rng(seed).permutation(self.pool_size)
        for index in itertools.cycle(order):
            yield f"cell/{index}"

    def all_keys(self):
        return [f"cell/{i}" for i in range(self.pool_size)]

    def setup(self, mods, work_dir: Path):
        topology = benchmark_topology(mods.swarm, 4, 9, 4, 4, CELL_TOPOLOGY_SEED0,
                                      NOISE_SCALE)
        config = base_config(mods.sim, 4, self.horizon)
        for scheme in SCHEMES:
            mods.sim.run_episode(replace(config, scheme=scheme, horizon=5), topology)
        return {"mods": mods, "work": work_dir / self.name}

    def prepare(self, ctx, key):
        mods, work = ctx["mods"], ctx["work"]
        index = int(key.split("/")[1])
        clear_caches(mods)
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        topology = benchmark_topology(mods.swarm, 4, 9, 4, 4,
                                      CELL_TOPOLOGY_SEED0 + index, NOISE_SCALE)
        (work / "topology.json").write_text(mods.swarm.topology_to_json(topology),
                                            encoding="utf-8")
        # Relative to the working directory, so written bytes do not depend
        # on where the checkout lives.
        doc = base_config(mods.sim, 4, self.horizon, seed=index,
                          topology_path=os.path.relpath(work / "topology.json")
                          ).to_dict()
        (work / "config.json").write_text(json.dumps(doc), encoding="utf-8")

    def run(self, ctx, key):
        cli, work = ctx["mods"].cli, ctx["work"]
        out = work / "out"
        common = ["--config", os.path.relpath(work / "config.json"),
                  "--out", os.path.relpath(out)]
        seconds = {}

        def command(label, argv):
            t0 = perf_counter()
            code = cli.main(argv)
            seconds[label] = perf_counter() - t0
            if code != 0:
                raise RuntimeError(f"swarmtrack {argv[0]} exited with code {code}")

        command("stability", ["check-stability"] + common)
        command("calibrate", ["calibrate-gamma", "--budget-dbw",
                              repr(CELL_BUDGET_DBW)] + common)
        gamma = json.loads((out / "gamma.json").read_text(encoding="utf-8"))["gamma"]
        command("run", ["run", "--set", f"gamma={gamma!r}"] + common)

        fields = {"gamma": float(gamma)}
        stab = json.loads((out / "stability.json").read_text(encoding="utf-8"))
        fields["stability_fraction"] = float(stab["fraction_holds"])
        lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
        header = lines[1].split(",")
        for line in lines[2:]:
            row = dict(zip(header, line.split(",")))
            scheme = row["scheme"]
            fields[f"{scheme}.diverged"] = row["diverged"] == "true"
            fields[f"{scheme}.n_slots"] = int(row["n_slots"])
            for name in ("comm_rate", "avg_cost", "avg_tx_power", "gamma"):
                fields[f"{scheme}.{name}"] = float(row[name])
        written = sum(p.stat().st_size for p in out.iterdir())
        return fields, seconds, written


WORKLOADS = {w.name: w for w in (
    EpisodeWorkload("semantic-m8", ("semantic",),
                    "semantic episodes, M=8: the decision layer (policy+linalg) "
                    "takes most of the slot time"),
    EpisodeWorkload("baselines-m8", BASELINES,
                    "same topology and seeds with the three baselines: policy is "
                    "bypassed, the slot pipeline dominates"),
    CellWorkload("experiment-cell",
                 "CLI cell on a fresh M=4 topology: cold caches, DARE, "
                 "calibration probes and file output"),
)}
