"""Command-line front end: run episodes, sweeps, stability checks, calibration.

Subcommands:
    run              one episode per scheme, writing metrics and trajectories
    sweep            axis sweep over M, N_t or power_dbw with paired seeds
    check-stability  fraction of channel draws passing the stability test
    calibrate-gamma  match mean transmit power to a dBW budget

Each subcommand has one handler, cmd_*(config, args, out_dir), attached to
its subparser by build_parser; main parses, loads the config and calls it.

All outputs are deterministic functions of the config file plus overrides:
reruns produce byte-identical CSV/JSON files.

Exit codes: 0 success, 1 usage error or a count too large to allocate,
2 numeric failure, 3 I/O error.
"""

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__, _checks, baselines, sim, stability

_METRICS_SCHEMA = "swarmtrack.metrics.v1"
_TRAJECTORY_SCHEMA = "swarmtrack.cost_trajectory.v1"
_SWEEP_SCHEMA = "swarmtrack.sweep.v1"
_AGGREGATE_SCHEMA = "swarmtrack.aggregate.v1"

# Metrics attributes in metrics.csv, in file order. sweep.csv and
# aggregate.csv take their columns from the keys of sim.run_sweep's row and
# aggregate dicts.
_METRICS_COLUMNS = ("scheme", "avg_cost", "avg_tx_power", "comm_rate",
                    "diverged", "n_slots", "gamma")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _write_csv(path: Path, schema: str, header, rows):
    lines = [f"# schema: {schema}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, doc: dict):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _write_manifest(out_dir: Path, command: str, config: sim.SimConfig,
                    outputs, **fields):
    """manifest.json: tool, command and config, the command's own fields,
    then the files written with manifest.json last."""
    _write_json(out_dir / "manifest.json", {
        "tool": "swarmtrack", "version": __version__, "command": command,
        "config": config.to_dict(), **fields,
        "outputs": [*outputs, "manifest.json"]})


def _load_config(path: str, overrides) -> sim.SimConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot read config {path!r}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise UsageError(f"config {path!r} is not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise UsageError(f"config {path!r} must hold a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise UsageError(f"--set expects KEY=VALUE, got {item!r}")
        key, raw = item.split("=", 1)
        try:
            doc[key] = json.loads(raw)
        except json.JSONDecodeError:
            doc[key] = raw
    try:
        return sim.SimConfig.from_dict(doc)
    except (TypeError, ValueError) as err:
        raise UsageError(f"bad config: {err}") from err


def _load_topology(config: sim.SimConfig):
    """The config's topology; a topology file it cannot load is a usage error."""
    try:
        return sim.build_topology(config)
    except (OSError, ValueError, LookupError, TypeError) as err:
        if not config.topology_path:
            raise
        raise UsageError(f"cannot load topology {config.topology_path!r}: "
                         f"{err}") from err


def _topology_reference(config: sim.SimConfig) -> dict:
    if config.topology_path:
        return {"kind": "file", "path": config.topology_path}
    return {"kind": "ring", "seed": config.seed}


def cmd_run(config: sim.SimConfig, args, out_dir: Path) -> int:
    topology = _load_topology(config)
    out_dir.mkdir(parents=True, exist_ok=True)
    metrics_rows = []
    trajectory_rows = []
    for scheme in sim.SCHEMES:
        metrics = sim.run_episode(replace(config, scheme=scheme), topology)
        metrics_rows.append([getattr(metrics, c) for c in _METRICS_COLUMNS])
        for t, cost in enumerate(metrics.cost_trajectory):
            trajectory_rows.append([scheme, t, float(cost)])
    _write_csv(out_dir / "metrics.csv", _METRICS_SCHEMA, _METRICS_COLUMNS,
               metrics_rows)
    _write_csv(out_dir / "cost_trajectory.csv", _TRAJECTORY_SCHEMA,
               ["scheme", "t", "cost"], trajectory_rows)
    _write_manifest(out_dir, "run", config, ["metrics.csv", "cost_trajectory.csv"],
                    topology=_topology_reference(config), seeds=[config.seed])
    return 0


def cmd_sweep(config: sim.SimConfig, args, out_dir: Path) -> int:
    """sweep.csv and aggregate.csv of sim.run_sweep; the sweep's own checks
    (sim.sweep_cells) run before any episode, and a failed one is a usage
    error."""
    values = _parse_values(args.axis, args.values)
    # checked before the seed list is built, so a huge --seeds allocates
    # nothing
    if config.seed + args.seeds - 1 > sim.MAX_SEED:
        raise UsageError(f"--seeds {args.seeds} from seed {config.seed} "
                         f"runs past the largest seed 2**64 - 1")
    seeds = list(range(config.seed, config.seed + args.seeds))
    try:
        sim.sweep_cells(config, args.axis, values, seeds)
    except ValueError as err:
        raise UsageError(f"sweep: {err}") from err
    result = sim.run_sweep(config, args.axis, values, seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, schema, records in (
            ("sweep.csv", _SWEEP_SCHEMA, result["rows"]),
            ("aggregate.csv", _AGGREGATE_SCHEMA, result["aggregates"])):
        _write_csv(out_dir / name, schema, records[0].keys(),
                   [r.values() for r in records])
    _write_manifest(out_dir, "sweep", config, ["sweep.csv", "aggregate.csv"],
                    axis=args.axis, values=values, seeds=seeds)
    return 0


def cmd_check_stability(config: sim.SimConfig, args, out_dir: Path) -> int:
    topology = _load_topology(config)
    constants = sim.drift_constants(topology)
    draws = sim.channel_draws(config.seed, topology, args.draws)
    report = stability.stability_report(topology, constants, draws)
    report["config"] = config.to_dict()
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "stability.json", report)
    return 0


def cmd_calibrate_gamma(config: sim.SimConfig, args, out_dir: Path) -> int:
    topology = _load_topology(config)
    gamma = sim.calibrate_gamma(config, topology, args.budget_dbw,
                                n_probe_seeds=args.probe_seeds)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "gamma.json", {
        "gamma": gamma,
        "clamped": gamma in sim.GAMMA_BRACKET,
        "power_budget_dbw": args.budget_dbw,
        "n_probe_seeds": args.probe_seeds,
        "config": config.to_dict(),
    })
    return 0


def _checked(parse, rule):
    """argparse type: parse the flag's text, then apply the package rule;
    the ValueError of either is the usage error, in its own words."""
    def convert(text):
        try:
            value = parse(text)
            rule(value)
        except ValueError as err:
            raise argparse.ArgumentTypeError(str(err)) from err
        return value
    return convert


_COUNT = _checked(int, functools.partial(_checks.count, "count"))


def _parse_values(axis: str, raw: str):
    """--values as a list: integers on the M and N_t axes, else floats."""
    parse = float if axis == "power_dbw" else int
    try:
        return [parse(p) for p in raw.split(",") if p.strip()]
    except ValueError as err:
        raise UsageError(f"--values for axis {axis}: {err}") from err


@functools.cache
def build_parser() -> "_Parser":
    """The swarmtrack argument parser, built once: every call in the process
    returns the same parser. Parsing leaves it unchanged (a usage error
    too), so main shares it across calls. Flags are checked while parsing,
    a failed check being a usage error: --axis against sim.AXES, the
    counts --seeds, --draws and --probe-seeds by _checks.count and
    --budget-dbw by sim.budget_watts."""
    parser = _Parser(prog="swarmtrack",
                     description="Semantic communication and tracking-control "
                                 "swarm simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler):
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a config key (repeatable)")

    common(sub.add_parser("run", help="run one episode per scheme"), cmd_run)

    p_sweep = sub.add_parser("sweep", help="sweep one experiment axis")
    common(p_sweep, cmd_sweep)
    p_sweep.add_argument("--axis", required=True, choices=sim.AXES,
                         metavar="AXIS",
                         help=f"axis name, one of {', '.join(sim.AXES)}")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--seeds", type=_COUNT, default=5,
                         help="number of consecutive seeds")

    p_stab = sub.add_parser("check-stability",
                            help="stability condition over channel draws")
    common(p_stab, cmd_check_stability)
    p_stab.add_argument("--draws", type=_COUNT, default=100,
                        help="number of channel draws")

    p_cal = sub.add_parser("calibrate-gamma",
                           help="match mean transmit power to a budget")
    common(p_cal, cmd_calibrate_gamma)
    p_cal.add_argument("--budget-dbw", type=_checked(float, sim.budget_watts),
                       default=8.0, help="power budget in dBW")
    p_cal.add_argument("--probe-seeds", type=_COUNT, default=3,
                       help="number of probe seeds")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config, args.set)
        return args.handler(config, args, Path(args.out))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (baselines.DareConvergenceError, np.linalg.LinAlgError,
            FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o failure: {err}", file=sys.stderr)
        return 3
    except MemoryError as err:
        print(f"error: out of memory: {str(err) or 'allocation failed'}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
