import json
import warnings
from dataclasses import replace

import numpy as np
import pytest

import oracles
from swarmtrack import baselines, cli, sim, swarm


def write_config(tmp_path, **overrides):
    doc = {"m_agents": 1, "state_dim": 2, "n_tx": 2, "n_rx": 2,
           "horizon": 20, "seed": 3}
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def write_stable_topology_config(tmp_path, m_agents=1, d=2, n=2, seed=9,
                                 n_tx=None, noise_scale=1e-5, **overrides):
    topo = oracles.scaled_stable_topology(m_agents, d, n, seed=seed, n_tx=n_tx,
                                          noise_scale=noise_scale)
    topo_path = tmp_path / "topology.json"
    topo_path.write_text(swarm.topology_to_json(topo), encoding="utf-8")
    return write_config(tmp_path, m_agents=m_agents, state_dim=d,
                        n_tx=n_tx or n, n_rx=n, seed=seed,
                        noise_scale=noise_scale,
                        topology_path=str(topo_path), **overrides), topo


def test_missing_config_exits_one(tmp_path, capsys):
    code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "usage" in err


def test_invalid_json_config_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1


def test_unknown_config_key_exits_one(tmp_path, capsys):
    path = write_config(tmp_path, wrong_key=1)
    assert cli.main(["run", "--config", str(path)]) == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_that_is_not_an_object_exits_one(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]", encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert "must hold a JSON object" in capsys.readouterr().err
    assert not out.exists()


def test_set_without_an_equals_sign_exits_one(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(write_config(tmp_path)),
                     "--set", "horizon", "--out", str(out)]) == 1
    assert "--set expects KEY=VALUE, got 'horizon'" in capsys.readouterr().err
    assert not out.exists()


def test_run_writes_expected_files(tmp_path):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    metrics = (out / "metrics.csv").read_text(encoding="utf-8")
    lines = metrics.splitlines()
    assert lines[0] == "# schema: swarmtrack.metrics.v1"
    assert lines[1] == "scheme,avg_cost,avg_tx_power,comm_rate,diverged,n_slots,gamma"
    assert len(lines) == 2 + len(sim.SCHEMES)
    trajectory = (out / "cost_trajectory.csv").read_text(encoding="utf-8")
    assert trajectory.splitlines()[0] == "# schema: swarmtrack.cost_trajectory.v1"
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "run"
    assert manifest["config"]["seed"] == 3
    # manifest round-trips losslessly
    assert json.loads(json.dumps(manifest)) == manifest


def test_run_document_layout(tmp_path):
    # the layout readers of these files rely on: a reordered column or
    # manifest key is a format change
    path, _ = write_stable_topology_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    head = lambda name: (out / name).read_text(encoding="utf-8").splitlines()[:2]
    assert head("metrics.csv") == [
        "# schema: swarmtrack.metrics.v1",
        "scheme,avg_cost,avg_tx_power,comm_rate,diverged,n_slots,gamma"]
    assert head("cost_trajectory.csv") == [
        "# schema: swarmtrack.cost_trajectory.v1", "scheme,t,cost"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert list(manifest) == ["tool", "version", "command", "config", "topology",
                              "seeds", "outputs"]
    assert list(manifest["topology"]) == ["kind", "path"]
    assert manifest["outputs"] == ["metrics.csv", "cost_trajectory.csv",
                                   "manifest.json"]


def test_run_is_byte_deterministic(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(path), "--set", "seed=7",
                     "--out", str(out1)]) == 0
    assert cli.main(["run", "--config", str(path), "--set", "seed=7",
                     "--out", str(out2)]) == 0
    for name in ("metrics.csv", "cost_trajectory.csv", "manifest.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_run_set_overrides_change_output(tmp_path):
    path = write_config(tmp_path)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cli.main(["run", "--config", str(path), "--set", "seed=7", "--out", str(out1)])
    cli.main(["run", "--config", str(path), "--set", "seed=8", "--out", str(out2)])
    assert (out1 / "metrics.csv").read_bytes() != (out2 / "metrics.csv").read_bytes()


def test_repeated_calls_share_no_parse_state(tmp_path, capsys):
    # main parses every call with one shared parser: an override, then a
    # usage error raised inside the parse, then a plain call
    def seed_and_horizon(out):
        doc = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        return doc["config"]["seed"], doc["config"]["horizon"]

    common = ["--config", str(write_config(tmp_path)), "--out"]
    assert cli.main(["run", *common, str(tmp_path / "a"), "--set", "seed=11"]) == 0
    assert cli.main(["run", *common, str(tmp_path / "b"), "--set", "horizon=7",
                     "--bogus"]) == 1
    assert "unrecognized arguments: --bogus" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    assert cli.main(["run", *common, str(tmp_path / "c")]) == 0
    assert seed_and_horizon(tmp_path / "a") == (11, 20)
    assert seed_and_horizon(tmp_path / "c") == (3, 20)


def test_sweep_row_arithmetic(tmp_path):
    path = write_config(tmp_path, horizon=10)
    out = tmp_path / "out"
    code = cli.main(["sweep", "--config", str(path), "--axis", "M",
                     "--values", "1,2", "--seeds", "3", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema: swarmtrack.sweep.v1"
    assert lines[1].startswith("scheme,axis,value,seed,")
    assert len(lines) == 2 + 2 * 4 * 3     # values x schemes x seeds
    agg = (out / "aggregate.csv").read_text(encoding="utf-8").splitlines()
    assert len(agg) == 2 + 2 * 4


def test_sweep_document_layout(tmp_path):
    # the layout readers of these files rely on: a reordered column or
    # manifest key is a format change
    path = write_config(tmp_path, horizon=5)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(path), "--axis", "power_dbw",
                     "--values", "8", "--seeds", "1", "--out", str(out)]) == 0
    head = lambda name: (out / name).read_text(encoding="utf-8").splitlines()[:2]
    assert head("sweep.csv") == [
        "# schema: swarmtrack.sweep.v1",
        "scheme,axis,value,seed,avg_cost,avg_tx_power,comm_rate,diverged,gamma"]
    assert head("aggregate.csv") == [
        "# schema: swarmtrack.aggregate.v1",
        "scheme,axis,value,n_seeds,mean_avg_cost,stderr_avg_cost,"
        "mean_avg_tx_power,mean_comm_rate,n_diverged,mean_gamma"]
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert list(manifest) == ["tool", "version", "command", "config", "axis",
                              "values", "seeds", "outputs"]
    assert manifest["outputs"] == ["sweep.csv", "aggregate.csv", "manifest.json"]


def test_sweep_unknown_axis_lists_valid_axes(tmp_path, capsys):
    path = write_config(tmp_path)
    code = cli.main(["sweep", "--config", str(path), "--axis", "bogus",
                     "--values", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    for axis in sim.AXES:
        assert axis in err


def test_sweep_with_topology_path_is_a_usage_error(tmp_path, capsys, monkeypatch):
    path, _ = write_stable_topology_config(tmp_path)
    ran = []
    monkeypatch.setattr(sim, "run_episode", lambda *args: ran.append(args))
    code = cli.main(["sweep", "--config", str(path), "--axis", "N_t",
                     "--values", "2", "--seeds", "1", "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error:" in err and "topology_path" in err
    assert not ran and not (tmp_path / "o").exists()


def test_sweep_rerun_identical(tmp_path):
    path = write_config(tmp_path, horizon=10)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["sweep", "--config", str(path), "--axis", "N_t", "--values", "2",
            "--seeds", "2"]
    assert cli.main(args + ["--out", str(out1)]) == 0
    assert cli.main(args + ["--out", str(out2)]) == 0
    assert (out1 / "sweep.csv").read_bytes() == (out2 / "sweep.csv").read_bytes()
    assert (out1 / "aggregate.csv").read_bytes() == (out2 / "aggregate.csv").read_bytes()


def test_check_stability_full_rank_square_channels(tmp_path):
    # scaled-down plant: alpha < 1 makes the condition hold whenever the
    # square effective channel is numerically full rank
    topo = oracles.scaled_stable_topology(1, 2, 2, seed=9, target_radius=0.3)
    topo_path = tmp_path / "topology.json"
    topo_path.write_text(swarm.topology_to_json(topo), encoding="utf-8")
    path = write_config(tmp_path, seed=9, topology_path=str(topo_path))
    out = tmp_path / "out"
    code = cli.main(["check-stability", "--config", str(path), "--draws",
                     "50", "--out", str(out)])
    assert code == 0
    report = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    assert report["fraction_holds"] == 1.0
    assert report["verdict"] == "stable"


def test_check_stability_zero_actuation(tmp_path):
    base = oracles.scaled_stable_topology(2, 2, 2, seed=11)
    topo = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=base.a_internal, couplings=base.couplings,
        b_actuation=np.zeros((2, 2, 2)), w_noise=base.w_noise,
        g_target=base.g_target)
    topo_path = tmp_path / "topology.json"
    topo_path.write_text(swarm.topology_to_json(topo), encoding="utf-8")
    path = write_config(tmp_path, m_agents=2, seed=11,
                        topology_path=str(topo_path))
    out = tmp_path / "out"
    assert cli.main(["check-stability", "--config", str(path), "--draws",
                     "20", "--out", str(out)]) == 0
    report = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    assert report["fraction_holds"] == 0.0
    assert report["verdict"] == "not-verified"


def test_check_stability_fraction_matches_recomputation(tmp_path):
    path = write_config(tmp_path, m_agents=2, state_dim=2, n_tx=2, n_rx=2,
                        seed=13)
    out = tmp_path / "out"
    assert cli.main(["check-stability", "--config", str(path), "--draws",
                     "40", "--out", str(out)]) == 0
    report = json.loads((out / "stability.json").read_text(encoding="utf-8"))
    # independent recomputation of the coverage fraction from the same draws
    from swarmtrack import channel, policy, stability
    cfg = sim.SimConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
    topo = sim.build_topology(cfg)
    constants = policy.compute_drift_constants(topo.a_global, topo.g_target)
    holds = 0
    for t in range(40):
        chans = channel.draw_channels(sim._slot_rng(cfg.seed, 1, t), 2, 2, 2)
        diags = stability.compute_masks(topo, chans)
        gap = max(1.0 - diags.mean(axis=0))
        holds += (1.0 / constants.alpha - gap) > 0
    assert report["fraction_holds"] == pytest.approx(holds / 40.0)


def test_calibrate_gamma_command(tmp_path):
    path, _ = write_stable_topology_config(tmp_path, n_tx=4, seed=47,
                                           noise_scale=1e-2, horizon=40,
                                           p_on=0.0, x0_value=0.0,
                                           r0_value=0.0)
    out = tmp_path / "out"
    code = cli.main(["calibrate-gamma", "--config", str(path),
                     "--budget-dbw", "60", "--probe-seeds", "2",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "gamma.json").read_text(encoding="utf-8"))
    assert doc["gamma"] == 1e-6
    assert doc["clamped"] is True
    assert doc["power_budget_dbw"] == 60.0


def test_calibrate_gamma_command_in_range_is_not_clamped(tmp_path):
    # same system; 20 dBW lies inside its achievable range (about -45 to
    # 40 dBW over the gamma bracket)
    path, _ = write_stable_topology_config(tmp_path, n_tx=4, seed=47,
                                           noise_scale=1e-2, horizon=40,
                                           p_on=0.0, x0_value=0.0,
                                           r0_value=0.0)
    out = tmp_path / "out"
    assert cli.main(["calibrate-gamma", "--config", str(path),
                     "--budget-dbw", "20", "--probe-seeds", "2",
                     "--out", str(out)]) == 0
    doc = json.loads((out / "gamma.json").read_text(encoding="utf-8"))
    assert sim.GAMMA_BRACKET[0] < doc["gamma"] < sim.GAMMA_BRACKET[1]
    assert doc["clamped"] is False


def test_run_with_overflowing_initial_cost_is_quiet(tmp_path, capsys):
    # ||e(0)||^2 of x0 = 1e200 overflows: every episode records that cost
    # and stops at slot 0 as diverged, without a numpy warning
    path = write_config(tmp_path, x0_value=1e200)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == len(sim.SCHEMES)
    assert all(row["diverged"] == "true" and row["n_slots"] == "1"
               and row["avg_cost"] == "inf" for row in rows)


def test_run_with_cost_jumping_to_non_finite_reports_it(tmp_path, capsys):
    # x = r = 1e300 gives cost 0 at slot 0 and a non-finite cost at slot 1;
    # that cost is recorded, so no divergent row shows a finite average
    path = write_config(tmp_path, x0_value=1e300, r0_value=1e300)
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    lines = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()
    header = lines[1].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[2:]]
    assert len(rows) == len(sim.SCHEMES)
    assert all(row["diverged"] == "true" and row["n_slots"] == "2"
               and row["avg_cost"] == "inf" for row in rows)


@pytest.mark.parametrize("command", ["run", "check-stability", "calibrate-gamma"])
def test_plant_whose_growth_constant_overflows_exits_two(tmp_path, capsys, command):
    # ||A||^2 = 1e400 overflows alpha; check-stability used to write
    # "alpha": Infinity (not JSON) and exit 0, and every command leaked
    # numpy's RuntimeWarnings from alpha and the Riccati iteration
    topo = replace(swarm.build_ring_topology(1, 2, 2, 2),
                   a_internal=np.array([[[0.0, 1e200], [0.0, 0.0]]]))
    topo_path = tmp_path / "topology.json"
    topo_path.write_text(swarm.topology_to_json(topo), encoding="utf-8")
    path = write_config(tmp_path, topology_path=str(topo_path))
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = cli.main([command, "--config", str(path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("numeric failure:")
    assert "Warning" not in err and "Traceback" not in err
    assert not list(out.glob("*"))      # run makes the directory first


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    path = write_config(tmp_path)

    def boom(*args, **kwargs):
        raise baselines.DareConvergenceError(1.0, [1.0])

    monkeypatch.setattr(sim, "run_episode", boom)
    assert cli.main(["run", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2


def test_io_failure_exit_code(tmp_path):
    path = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("file, not a directory", encoding="utf-8")
    code = cli.main(["run", "--config", str(path),
                     "--out", str(blocker / "sub")])
    assert code == 3


def test_missing_required_argument_exits_one(capsys):
    assert cli.main(["run"]) == 1
    assert "usage" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["sweep", "--axis", "M", "--values", "1", "--seeds", "0"],
    ["sweep", "--axis", "M", "--values", "1", "--seeds", "-1"],
    ["sweep", "--axis", "M", "--values", "0"],
    ["sweep", "--axis", "N_t", "--values", "2,x"],
    ["check-stability", "--draws", "-3"],
    ["check-stability", "--draws", "0"],
    ["calibrate-gamma", "--probe-seeds", "0"],
    # config values SimConfig rejects
    ["run", "--set", "pilot_power=0"],
    ["run", "--set", "pilot_power=-1"],
    ["run", "--set", "pilot_power=nan"],
    ["run", "--set", "pilot_power=Infinity"],
    ["run", "--set", "noise_scale=-1"],
    ["run", "--set", "noise_scale=NaN"],
    ["run", "--set", "horizon=1.5"],
    ["run", "--set", "m_agents=2.5"],
    ["run", "--set", "n_tx=true"],
    ["run", "--set", 'seed="3"'],
    ["run", "--set", "x0_value=NaN"],
    ["run", "--set", "r0_value=-Infinity"],
])
def test_invalid_count_exits_one(tmp_path, capsys, argv):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(argv + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["run", "--set", "seed=-1"],
    ["run", "--set", f"seed={2 ** 64}"],
    ["check-stability", "--set", "seed=-1"],
    ["calibrate-gamma", "--set", "seed=-5"],
    ["sweep", "--axis", "M", "--values", "1", "--seeds", "1", "--set", "seed=-1"],
    # consecutive sweep seeds must stay below 2**64
    ["sweep", "--axis", "M", "--values", "1", "--seeds", "2",
     "--set", f"seed={2 ** 64 - 1}"],
    ["sweep", "--axis", "M", "--values", "1", "--seeds", str(10 ** 30)],
])
def test_seed_out_of_range_exits_one(tmp_path, capsys, argv):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(argv + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "seed" in err and "2**64" in err and "usage" in err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


UNLOADABLE_TOPOLOGY_REASONS = {
    "missing": "No such file", "not_json": "Expecting property name",
    "not_object": "topology must be a JSON object, got list",
    "missing_field": "missing topology keys: ['a_internal', 'b_actuation', "
                     "'couplings', 'g_target', 'n_rx', 'n_tx', 'state_dim', "
                     "'w_noise']",
    "wrong_dims": "do not match config"}


@pytest.mark.parametrize("kind", ["missing", "not_json", "not_object",
                                  "missing_field", "wrong_dims"])
def test_unloadable_topology_exits_one(tmp_path, capsys, kind):
    topo_path = tmp_path / "topology.json"
    if kind == "not_json":
        topo_path.write_text("{not json", encoding="utf-8")
    elif kind == "not_object":
        topo_path.write_text("[1, 2]", encoding="utf-8")
    elif kind == "missing_field":
        topo_path.write_text('{"m_agents": 1}', encoding="utf-8")
    elif kind == "wrong_dims":
        topo = oracles.scaled_stable_topology(2, 2, 2, seed=9)
        topo_path.write_text(swarm.topology_to_json(topo), encoding="utf-8")
    path = write_config(tmp_path, topology_path=str(topo_path))
    out = tmp_path / "out"
    for command in ("run", "check-stability", "calibrate-gamma"):
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: cannot load topology" in err and "usage" in err
        assert UNLOADABLE_TOPOLOGY_REASONS[kind] in err
        assert "Traceback" not in err
    assert not out.exists()


def corrupt_ring_file(doc, kind):
    """Break one part of a 2-agent, d = 3 ring topology document."""
    if kind == "b_actuation_columns":
        doc["b_actuation"] = [[row + [0.0] for row in block]
                              for block in doc["b_actuation"]]
    elif kind == "w_noise_blocks":
        doc["w_noise"] = [np.eye(4).tolist()] * len(doc["w_noise"])
    elif kind == "a_internal_blocks":
        doc["a_internal"].append(doc["a_internal"][0])
    elif kind == "coupling_key":
        doc["couplings"][1]["m"] = -2
    elif kind == "coupling_block":
        doc["couplings"][0]["block"] = np.eye(2).tolist()
    elif kind == "coupling_nan":
        doc["couplings"][0]["block"][0][0] = float("nan")
    elif kind == "coupling_twice":
        doc["couplings"].append(dict(doc["couplings"][0]))
    elif kind == "unknown_key":
        doc["scale"] = 2.0
    elif kind == "unknown_coupling_key":
        doc["couplings"][0]["weight"] = 2.0
    elif kind in ("n_tx_float", "m_agents_float"):
        name = kind[:-len("_float")]
        doc[name] = float(doc[name])


@pytest.mark.parametrize("kind", ["b_actuation_columns", "w_noise_blocks",
                                  "a_internal_blocks", "coupling_key",
                                  "coupling_block", "coupling_nan",
                                  "coupling_twice", "unknown_key",
                                  "unknown_coupling_key", "n_tx_float",
                                  "m_agents_float"])
def test_malformed_topology_file_exits_one(tmp_path, capsys, kind):
    ring = swarm.build_ring_topology(2, state_dim=3, n_tx=2, n_rx=2, seed=3)
    doc = json.loads(swarm.topology_to_json(ring))
    corrupt_ring_file(doc, kind)
    topo_path = tmp_path / "topology.json"
    topo_path.write_text(json.dumps(doc), encoding="utf-8")
    path = write_config(tmp_path, m_agents=2, state_dim=3,
                        topology_path=str(topo_path))
    out = tmp_path / "out"
    for command in ("run", "check-stability", "calibrate-gamma"):
        assert cli.main([command, "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: cannot load topology" in err and "usage" in err
        assert "Traceback" not in err
    assert not out.exists()


def test_count_too_large_to_allocate_exits_one(tmp_path, capsys):
    # numpy refuses the (10**15, M, N_r, N_t) channel array at once, so
    # nothing is allocated
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["check-stability", "--config", str(path),
                     "--draws", str(10 ** 15), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error: out of memory" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override,message", [
    ("use_estimated_csi=False", "use_estimated_csi must be true or false"),
    ("use_estimated_csi=1", "use_estimated_csi must be true or false"),
    ("topology_path=2", "topology_path must be a non-empty string"),
    ("topology_path=true", "topology_path must be a non-empty string"),
    ("topology_path=", "topology_path must be a non-empty string"),
])
def test_mistyped_config_switch_exits_one(tmp_path, capsys, override, message):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    for command in ("run", "check-stability"):
        assert cli.main([command, "--config", str(path), "--out", str(out),
                         "--set", override]) == 1
        err = capsys.readouterr().err
        assert "error:" in err and message in err and "usage" in err
        assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("override", ["p_on=-1", "gamma=-0.5", "p_on=NaN"])
def test_negative_price_exits_one(tmp_path, capsys, override):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out),
                     "--set", override]) == 1
    err = capsys.readouterr().err
    assert "must be >= 0" in err and "usage" in err
    assert not out.exists()


@pytest.mark.parametrize("override", ["gamma=true", "p_on=false",
                                      "gamma=1e999", "p_on=-1e999",
                                      "gamma=Infinity"])
def test_bool_or_non_finite_price_exits_one(tmp_path, capsys, override):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out),
                     "--set", override]) == 1
    err = capsys.readouterr().err
    assert "must be >= 0 and finite" in err and "usage" in err
    assert "error:" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["calibrate-gamma", "--budget-dbw=nan"],
    ["calibrate-gamma", "--budget-dbw=inf"],
    ["calibrate-gamma", "--budget-dbw=-inf"],
    ["calibrate-gamma", "--budget-dbw=4000"],
    ["sweep", "--axis", "power_dbw", "--values", "nan", "--seeds", "1"],
    ["sweep", "--axis", "power_dbw", "--values", "8,inf", "--seeds", "1"],
])
def test_budget_without_finite_watts_exits_one(tmp_path, capsys, argv):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(argv + ["--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "error:" in err and "not a finite power" in err and "usage" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("axis,values", [("N_t", "2,2"), ("M", "1,2,1"),
                                         ("power_dbw", "8,8.0")])
def test_repeated_axis_value_exits_one(tmp_path, capsys, axis, values):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--axis", axis, "--values", values, "--seeds", "1",
                     "--config", str(path), "--out", str(out)]) == 1
    assert "repeats a value" in capsys.readouterr().err
    assert not out.exists()
