import json
from dataclasses import fields

import numpy as np
import pytest

import oracles
from swarmtrack import swarm


def dense_matvec(a, x):
    """Naive triple-loop matrix-vector oracle, independent of numpy's dot."""
    out = np.zeros(a.shape[0])
    for i in range(a.shape[0]):
        acc = 0.0
        for j in range(a.shape[1]):
            acc += a[i, j] * x[j]
        out[i] = acc
    return out


def test_ring_topology_single_agent_skips_self_coupling():
    topo = swarm.build_ring_topology(1, state_dim=3, n_tx=2, n_rx=2, seed=5)
    assert topo.couplings == {}
    assert np.array_equal(topo.a_global, topo.a_internal[0])


def test_ring_topology_block_pattern_m3():
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=5)
    d = 2
    expected_nonzero = {(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 0)}
    for m in range(3):
        for n in range(3):
            block = topo.a_global[m * d:(m + 1) * d, n * d:(n + 1) * d]
            if (m, n) in expected_nonzero:
                assert np.any(block != 0)
            else:
                assert np.all(block == 0)
    # coupling block duplicates the internal block
    assert np.array_equal(topo.couplings[(0, 1)], topo.a_internal[0])


def test_ring_topology_deterministic():
    t1 = swarm.build_ring_topology(4, state_dim=3, n_tx=2, n_rx=2, seed=99)
    t2 = swarm.build_ring_topology(4, state_dim=3, n_tx=2, n_rx=2, seed=99)
    assert np.array_equal(t1.a_global, t2.a_global)
    assert np.array_equal(t1.b_actuation, t2.b_actuation)


def test_ring_topology_noise_and_target():
    topo = swarm.build_ring_topology(2, state_dim=3, n_tx=2, n_rx=2,
                                     noise_scale=1e-5, seed=1)
    assert np.allclose(topo.w_noise[0], 1e-5 * np.eye(3))
    assert np.array_equal(topo.g_target, np.eye(6))


def test_bhat_places_single_block():
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=0)
    bh = topo.bhat(1)
    assert np.array_equal(bh[2:4], topo.b_actuation[1])
    assert np.all(bh[:2] == 0) and np.all(bh[4:] == 0)


def test_step_swarm_identity_dynamics():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    eye = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=np.array([np.eye(2), np.eye(2)]), couplings={},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=np.eye(4))
    x = np.array([1.0, 2.0, 3.0, 4.0])
    x_next, _ = swarm.step_swarm(eye, x, np.zeros(4), np.zeros((2, 2)), np.zeros(4))
    assert np.array_equal(x_next, x)


def test_step_swarm_pure_noise():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    w = np.array([0.5, -1.0, 2.0, 0.25])
    x_next, _ = swarm.step_swarm(topo, np.zeros(4), np.zeros(4), np.zeros((2, 2)), w)
    assert np.array_equal(x_next, w)


def test_step_swarm_matches_dense_oracle():
    rng = np.random.default_rng(17)
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=17)
    x = rng.normal(size=6)
    controls = np.array([rng.normal(size=2) for _ in range(3)])
    w = rng.normal(size=6)
    x_next, _ = swarm.step_swarm(topo, x, np.zeros(6), controls, w)
    expected = dense_matvec(topo.a_global, x) + w
    for m in range(3):
        expected += dense_matvec(topo.bhat(m), controls[m])
    assert np.max(np.abs(x_next - expected)) <= 1e-12


def test_step_swarm_rejects_dimension_mismatch():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    x = r = np.zeros(4)
    with pytest.raises(ValueError):
        swarm.step_swarm(topo, x, r, np.zeros((1, 2)), np.zeros(4))
    with pytest.raises(ValueError):
        swarm.step_swarm(topo, x, r, np.zeros((2, 3)), np.zeros(4))
    with pytest.raises(ValueError):
        swarm.step_swarm(topo, x, r, np.zeros((2, 2)), np.zeros(3))
    # leading draw axes must agree between the signals and the noise
    with pytest.raises(ValueError):
        swarm.step_swarm(topo, x, r, np.zeros((3, 2, 2)), np.zeros((2, 4)))


def random_psd_topology(rng):
    """Ring topology with random PSD plant-noise covariances, some singular."""
    m_count = int(rng.integers(1, 10))
    d = int(rng.integers(1, 6))
    n_rx, n_tx = (int(n) for n in rng.integers(1, 6, size=2))
    topo = swarm.build_ring_topology(m_count, d, n_tx, n_rx,
                                     seed=int(rng.integers(0, 2 ** 32)))
    factors = rng.normal(size=(m_count, d, int(rng.integers(1, d + 1))))
    w = factors @ factors.transpose(0, 2, 1)
    return swarm.SwarmTopology(
        m_agents=m_count, state_dim=d, n_tx=n_tx, n_rx=n_rx,
        a_internal=topo.a_internal, couplings=topo.couplings,
        b_actuation=topo.b_actuation, w_noise=0.5 * (w + w.transpose(0, 2, 1)),
        g_target=topo.g_target)


@pytest.mark.parametrize("case", range(25))
def test_noise_root_matches_per_agent_root(case):
    topo = random_psd_topology(np.random.default_rng(7200 + case))
    for m in range(topo.m_agents):
        root = topo.noise_root[m]
        assert np.max(np.abs(root - oracles.cov_sqrt(topo.w_noise[m]))) <= 1e-12
        assert np.allclose(root @ root, topo.w_noise[m], atol=1e-10)


@pytest.mark.parametrize("case", range(25))
def test_batched_plant_noise_matches_per_agent_loop(case):
    topo = random_psd_topology(np.random.default_rng(7300 + case))
    batched_rng = np.random.default_rng(case)
    loop_rng = np.random.default_rng(case)
    got = swarm.draw_plant_noise(
        topo, batched_rng.normal(size=(topo.m_agents, topo.state_dim)))
    want = oracles.draw_plant_noise_loop(topo, loop_rng)
    assert got.shape == (topo.global_dim,)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state


@pytest.mark.parametrize("case", range(25))
def test_batched_step_swarm_matches_per_agent_loop(case):
    rng = np.random.default_rng(7400 + case)
    topo = random_psd_topology(rng)
    x, r = rng.normal(size=topo.global_dim), rng.normal(size=topo.global_dim)
    received = rng.normal(size=(topo.m_agents, topo.n_rx))
    received[int(rng.integers(0, topo.m_agents))] = 0.0   # a silent agent's row
    noise = rng.normal(size=topo.global_dim)
    x_next, r_next = swarm.step_swarm(topo, x, r, received, noise)
    want = oracles.step_plant_loop(topo, x, received, noise)
    assert np.max(np.abs(x_next - want)) <= 1e-12
    assert np.array_equal(r_next, topo.g_target @ r)


@pytest.mark.parametrize("case", range(10))
def test_step_swarm_over_draw_axes_equals_per_draw_calls(case):
    # leading draw axes on the signals and the noise step every draw at
    # once, bit for bit as one call per draw
    rng = np.random.default_rng(7500 + case)
    topo = random_psd_topology(rng)
    x, r = rng.normal(size=topo.global_dim), rng.normal(size=topo.global_dim)
    lead = tuple(int(n) for n in rng.integers(1, 4, size=int(rng.integers(1, 3))))
    received = rng.normal(size=lead + (topo.m_agents, topo.n_rx))
    noise = swarm.draw_plant_noise(
        topo, rng.normal(size=lead + (topo.m_agents, topo.state_dim)))
    x_next, r_next = swarm.step_swarm(topo, x, r, received, noise)
    assert x_next.shape == lead + (topo.global_dim,)
    assert np.array_equal(r_next, swarm.step_target(topo, r))
    for k in np.ndindex(*lead):
        one_x, one_r = swarm.step_swarm(topo, x, r, received[k], noise[k])
        assert np.array_equal(x_next[k], one_x)
        assert np.array_equal(r_next, one_r)


def test_step_target_identity_keeps_target():
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=3)
    r = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(swarm.step_target(topo, r), r)


def test_step_target_doubling():
    topo = swarm.build_ring_topology(1, state_dim=2, n_tx=2, n_rx=2, seed=3)
    doubling = swarm.SwarmTopology(
        m_agents=1, state_dim=2, n_tx=2, n_rx=2,
        a_internal=topo.a_internal, couplings={},
        b_actuation=topo.b_actuation, w_noise=topo.w_noise,
        g_target=2.0 * np.eye(2))
    assert np.array_equal(swarm.step_target(doubling, np.ones(2)), [2.0, 2.0])


def test_step_target_matches_dense_oracle():
    rng = np.random.default_rng(23)
    g = rng.normal(size=(4, 4))
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=23)
    custom = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=topo.a_internal, couplings=topo.couplings,
        b_actuation=topo.b_actuation, w_noise=topo.w_noise, g_target=g)
    r = rng.normal(size=4)
    assert np.max(np.abs(swarm.step_target(custom, r)
                         - dense_matvec(g, r))) <= 1e-12


def test_step_swarm_steps_target():
    # the next state carries both the plant step and r(t+1) = G r(t)
    rng = np.random.default_rng(29)
    g = rng.normal(size=(4, 4))
    topo = swarm.build_ring_topology(2, state_dim=2, n_tx=2, n_rx=2, seed=29)
    custom = swarm.SwarmTopology(
        m_agents=2, state_dim=2, n_tx=2, n_rx=2,
        a_internal=topo.a_internal, couplings=topo.couplings,
        b_actuation=topo.b_actuation, w_noise=topo.w_noise, g_target=g)
    x, r = rng.normal(size=4), rng.normal(size=4)
    _, r_next = swarm.step_swarm(custom, x, r, np.zeros((2, 2)), np.zeros(4))
    assert np.array_equal(r_next, swarm.step_target(custom, r))


def test_tracking_error_zero():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    e, cost = swarm.tracking_error(x, x.copy())
    assert cost == 0.0
    assert np.all(oracles.error_sigma(e) == 0)


def test_tracking_error_unit_vector():
    e, cost = swarm.tracking_error(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4))
    assert cost == 1.0
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0
    assert np.array_equal(oracles.error_sigma(e), expected)


def test_tracking_error_paper_initial_condition():
    # 9 global dims, all plant entries 1, all target entries 100
    assert swarm.tracking_error(np.ones(9), 100.0 * np.ones(9))[1] == \
        pytest.approx(88209.0)


@pytest.mark.parametrize("case", range(25))
def test_trace_of_outer_product_equals_cost(case):
    rng = np.random.default_rng(6000 + case)
    e = rng.normal(size=int(rng.integers(1, 12)))
    assert np.trace(np.outer(e, e)) == pytest.approx(float(e @ e), rel=1e-12)


def test_step_swarm_linearity_without_noise():
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=31)
    rng = np.random.default_rng(31)
    x1, x2 = rng.normal(size=6), rng.normal(size=6)
    a, b = 0.7, -1.3
    zeros = np.zeros((3, 2))
    w0 = np.zeros(6)
    step = lambda x: swarm.step_swarm(topo, x, w0, zeros, w0)[0]
    assert np.allclose(step(a * x1 + b * x2), a * step(x1) + b * step(x2),
                       atol=1e-10)


def test_topology_json_round_trip_is_exact():
    topo = swarm.build_ring_topology(3, state_dim=4, n_tx=3, n_rx=2, seed=77)
    text = swarm.topology_to_json(topo)
    back = swarm.topology_from_json(text)
    assert np.array_equal(back.a_global, topo.a_global)
    assert np.array_equal(back.b_actuation, topo.b_actuation)
    assert np.array_equal(back.w_noise, topo.w_noise)
    assert np.array_equal(back.g_target, topo.g_target)
    assert back.couplings.keys() == topo.couplings.keys()
    assert swarm.topology_to_json(back) == text
    # every init field survives, with its type
    for f in fields(swarm.SwarmTopology):
        if not f.init:
            continue
        before, after = getattr(topo, f.name), getattr(back, f.name)
        if f.name == "couplings":
            assert list(after) == list(before)
            assert all(np.array_equal(after[k], before[k]) for k in before)
        else:
            assert type(after) is type(before) and np.array_equal(after, before)


def test_topology_document_layout():
    # the key order of a topology file; a reordered key is a format change
    doc = ring_document()
    assert list(doc) == ["m_agents", "state_dim", "n_tx", "n_rx", "a_internal",
                         "couplings", "b_actuation", "w_noise", "g_target"]
    assert [list(c) for c in doc["couplings"]] == [["m", "n", "block"]] * 3
    assert [(c["m"], c["n"]) for c in doc["couplings"]] == [(0, 1), (1, 2), (2, 0)]


def ring_document():
    """topology_to_json document of a 3-agent ring, d = 2, as a dict."""
    topo = swarm.build_ring_topology(3, state_dim=2, n_tx=2, n_rx=2, seed=3)
    return json.loads(swarm.topology_to_json(topo))


def test_topology_file_rejects_a_coupling_listed_twice():
    # the second (0, 1) entry used to replace the first without a word
    doc = ring_document()
    doc["couplings"].append(dict(doc["couplings"][0], block=np.eye(2).tolist()))
    with pytest.raises(ValueError, match=r"coupling \(0, 1\) is listed twice"):
        swarm.topology_from_json(json.dumps(doc))


@pytest.mark.parametrize("where,key", [("top", "scale"), ("top", "a_global"),
                                       ("coupling", "scale")])
def test_topology_file_rejects_unknown_keys(where, key):
    doc = ring_document()
    (doc if where == "top" else doc["couplings"][1])[key] = 2.0
    with pytest.raises(ValueError, match=rf"unknown \w+ keys: \['{key}'\]"):
        swarm.topology_from_json(json.dumps(doc))


def without(doc, key, entry=None):
    del (doc if entry is None else doc["couplings"][entry])[key]
    return doc


@pytest.mark.parametrize("broken,message", [
    (lambda doc: [], r"topology must be a JSON object, got list"),
    (lambda doc: {"m_agents": 1},
     r"missing topology keys: \['a_internal', 'b_actuation', 'couplings', "
     r"'g_target', 'n_rx', 'n_tx', 'state_dim', 'w_noise'\]$"),
    (lambda doc: without(doc, "couplings"), r"missing topology keys: \['couplings'\]"),
    (lambda doc: without(doc, "block", entry=1), r"missing coupling keys: \['block'\]"),
    (lambda doc: dict(doc, couplings=5), r"couplings must be a list, got int"),
    (lambda doc: dict(doc, couplings=doc["couplings"] + [[0, 1]]),
     r"coupling must be a JSON object, got list"),
], ids=["not_object", "missing_keys", "missing_couplings", "missing_block",
        "couplings_not_list", "coupling_not_object"])
def test_topology_file_names_what_is_missing_or_mistyped(broken, message):
    # each used to raise a bare KeyError or TypeError ('state_dim', 'block',
    # "'int' object is not iterable", "list indices must be integers")
    with pytest.raises(ValueError, match=message):
        swarm.topology_from_json(json.dumps(broken(ring_document())))


def ring_parts(m_agents=2, d=3, n=2):
    """Keyword arguments of a ring topology, to corrupt one at a time."""
    topo = swarm.build_ring_topology(m_agents, state_dim=d, n_tx=n, n_rx=n, seed=3)
    return dict(m_agents=m_agents, state_dim=d, n_tx=n, n_rx=n,
                a_internal=topo.a_internal, couplings=dict(topo.couplings),
                b_actuation=topo.b_actuation, w_noise=topo.w_noise,
                g_target=topo.g_target)


@pytest.mark.parametrize("computed", ["a_global", "noise_root"])
def test_topology_computed_matrices_are_not_arguments(computed):
    with pytest.raises(TypeError, match=computed):
        swarm.SwarmTopology(**ring_parts(), **{computed: np.zeros((6, 6))})


@pytest.mark.parametrize("field,shape", [
    ("a_internal", (3, 3, 3)),      # M + 1 internal blocks
    ("a_internal", (2, 3, 2)),
    ("b_actuation", (2, 3, 3)),     # N_r + 1 columns
    ("b_actuation", (3, 2)),
    ("w_noise", (4, 4)),
    ("w_noise", (2, 4, 4)),         # 4 x 4 blocks for d = 3
    ("g_target", (6, 5)),
])
def test_topology_rejects_wrong_matrix_shape(field, shape):
    parts = ring_parts()
    parts[field] = np.zeros(shape)
    with pytest.raises(ValueError, match=f"{field} must be"):
        swarm.SwarmTopology(**parts)


@pytest.mark.parametrize("key", [(-2, 0), (0, 2), (2, 0), (0.5, 1), (True, 1),
                                 (0, 1, 1), 1, (1, 1)])
def test_topology_rejects_coupling_key_outside_the_agents(key):
    parts = ring_parts()
    parts["couplings"][key] = np.eye(3)
    with pytest.raises(ValueError, match=r"must be a pair \(m, n\) of agent "
                                         r"indices in \[0, 2\) with m != n"):
        swarm.SwarmTopology(**parts)


@pytest.mark.parametrize("block", [np.eye(2), np.full((3, 3), np.nan)])
def test_topology_rejects_wrong_coupling_block(block):
    parts = ring_parts()
    parts["couplings"][(0, 1)] = block
    with pytest.raises(ValueError, match=r"coupling block \(0, 1\) must be a finite"):
        swarm.SwarmTopology(**parts)


@pytest.mark.parametrize("name", ["m_agents", "state_dim", "n_tx", "n_rx"])
@pytest.mark.parametrize("kind", ["float", "bool", "zero", "negative", "string",
                                  "none"])
def test_topology_rejects_a_count_that_is_not_a_positive_integer(name, kind):
    parts = ring_parts()
    parts[name] = {"float": float(parts[name]), "bool": True, "zero": 0,
                   "negative": -parts[name], "string": str(parts[name]),
                   "none": None}[kind]
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        swarm.SwarmTopology(**parts)


def test_topology_stores_numpy_integer_counts_as_int():
    parts = ring_parts()
    parts.update(m_agents=np.int64(2), n_tx=np.uint8(2))
    topo = swarm.SwarmTopology(**parts)
    assert type(topo.m_agents) is int and type(topo.n_tx) is int
    assert swarm.topology_to_json(topo) == \
        swarm.topology_to_json(swarm.SwarmTopology(**ring_parts()))


def test_topology_accepts_numpy_integer_coupling_keys():
    parts = ring_parts()
    block = parts["couplings"].pop((0, 1))
    parts["couplings"][(np.int64(0), np.int64(1))] = block
    topo = swarm.SwarmTopology(**parts)
    assert np.array_equal(topo.a_global, swarm.SwarmTopology(**ring_parts()).a_global)


def test_numpy_keys_and_list_blocks_round_trip_through_json():
    # keys are stored as Python ints and blocks as float arrays, so the
    # topology file is written (json used to reject an int64 key, and a
    # nested-list block has no tolist) and reads back to the same system
    parts = ring_parts()
    block = parts["couplings"].pop((0, 1))
    parts["couplings"][(np.int64(0), np.int64(1))] = block.tolist()
    topo = swarm.SwarmTopology(**parts)
    assert all(type(i) is int for key in topo.couplings for i in key)
    assert all(b.dtype == float for b in topo.couplings.values())
    text = swarm.topology_to_json(topo)
    assert text == swarm.topology_to_json(swarm.SwarmTopology(**ring_parts()))
    assert np.array_equal(swarm.topology_from_json(text).a_global, topo.a_global)


def test_topology_rejects_asymmetric_noise():
    topo = swarm.build_ring_topology(1, state_dim=2, n_tx=2, n_rx=2, seed=3)
    bad = np.array([[[1.0, 0.5], [0.0, 1.0]]])
    with pytest.raises(ValueError, match="symmetric"):
        swarm.SwarmTopology(m_agents=1, state_dim=2, n_tx=2, n_rx=2,
                            a_internal=topo.a_internal, couplings={},
                            b_actuation=topo.b_actuation, w_noise=bad,
                            g_target=np.eye(2))


def test_state_rejects_non_finite():
    with pytest.raises(ValueError):
        swarm.SwarmState(x=np.array([np.nan]), r=np.array([0.0]))


def test_state_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="same shape"):
        swarm.SwarmState(x=np.zeros(2), r=np.zeros(3))


@pytest.mark.parametrize("field", ["a_internal", "b_actuation", "w_noise",
                                   "g_target"])
def test_topology_rejects_non_finite_matrices(field):
    parts = ring_parts()
    parts[field] = parts[field].copy()
    parts[field].flat[0] = np.inf
    with pytest.raises(ValueError, match=f"{field} contains non-finite entries"):
        swarm.SwarmTopology(**parts)


def test_topology_rejects_noise_that_is_not_positive_semidefinite():
    parts = ring_parts()
    parts["w_noise"] = np.array([np.eye(3), np.diag([1.0, -1e-6, 1.0])])
    with pytest.raises(ValueError, match=r"w_noise\[1\] is not positive semidefinite"):
        swarm.SwarmTopology(**parts)


INDEFINITE = np.diag([1.0, -1e-6, 1.0])
ASYMMETRIC = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


@pytest.mark.parametrize("w_noise, message", [
    # the first failing agent is named, whatever fails after it
    ([INDEFINITE, ASYMMETRIC], "w_noise[0] is not positive semidefinite"),
    # an agent failing both checks is reported for its symmetry
    ([ASYMMETRIC + np.diag([0.0, -2.0, 0.0]), np.eye(3)],
     "w_noise[0] is not symmetric"),
])
def test_topology_names_the_first_failing_noise_block(w_noise, message):
    parts = ring_parts()
    parts["w_noise"] = np.array(w_noise)
    with pytest.raises(ValueError) as info:
        swarm.SwarmTopology(**parts)
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["m_agents", "state_dim", "n_tx", "n_rx"])
@pytest.mark.parametrize("value", [0, -2, 2.5, 2.0, True, np.True_, "2", None])
def test_ring_topology_rejects_a_count_that_is_not_a_positive_integer(name, value):
    # a float or a bool state_dim, n_tx or n_rx used to reach numpy's TypeError
    counts = {"m_agents": 2, "state_dim": 2, "n_tx": 2, "n_rx": 2, name: value}
    with pytest.raises(ValueError, match=f"{name} must be an integer >= 1"):
        swarm.build_ring_topology(**counts)


def test_ring_topology_stores_numpy_integer_counts_as_int():
    topo = swarm.build_ring_topology(np.int64(2), np.int32(2), np.uint8(2),
                                     np.int16(2), seed=4)
    assert swarm.topology_to_json(topo) == swarm.topology_to_json(
        swarm.build_ring_topology(2, 2, 2, 2, seed=4))


def test_ring_topology_needs_an_agent():
    # a float or a bool (numpy's too) used to raise numpy's TypeError
    for m_agents in (0, 2.5, True, np.True_):
        with pytest.raises(ValueError, match="m_agents must be an integer >= 1"):
            swarm.build_ring_topology(m_agents, state_dim=2, n_tx=2, n_rx=2)
