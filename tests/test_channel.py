import numpy as np
import pytest

import oracles
from swarmtrack import channel


def test_draw_channels_deterministic():
    a = channel.draw_channels(np.random.default_rng(5), 3, 2, 4)
    b = channel.draw_channels(np.random.default_rng(5), 3, 2, 4)
    assert np.array_equal(a, b)
    assert a.shape == (3, 2, 4)


def test_draw_channels_standard_normal_moments():
    rng = np.random.default_rng(123)
    draws = channel.draw_channels(rng, 1, 1000, 1000).ravel()
    assert abs(draws.mean()) < 0.01
    assert abs(draws.var() - 1.0) < 0.01


def test_estimate_channel_noiseless_is_exact():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(3, 2, 4))
    est = channel.pilot_estimate(h, np.zeros_like(h), pilot_power=1.0)
    assert np.array_equal(est, h)


def test_estimate_channel_high_pilot_power_limit():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(2, 3, 3))
    est = channel.estimate_channel(h, pilot_power=1e8,
                                   rng=np.random.default_rng(1))
    assert np.linalg.norm(est - h) < 1e-3


def test_estimate_channel_pure_noise_variance():
    h = np.zeros((1, 200, 200))
    est = channel.estimate_channel(h, pilot_power=1.0,
                                   rng=np.random.default_rng(2))
    entries = est.ravel()
    assert abs(entries.mean()) < 0.02
    assert abs(entries.var() - 1.0) < 0.02


def test_estimate_channel_error_variance_scales_with_pilot_power():
    h = np.zeros((1, 300, 300))
    pilot_power = 25.0
    est = channel.estimate_channel(h, pilot_power,
                                   rng=np.random.default_rng(3))
    assert est.ravel().var() == pytest.approx(1.0 / pilot_power, rel=0.05)


def test_estimate_channel_rejects_bad_pilot_power():
    with pytest.raises(ValueError):
        channel.estimate_channel(np.zeros((1, 2, 2)), 0.0,
                                 np.random.default_rng(0))
    with pytest.raises(ValueError):
        channel.estimate_channel(np.zeros((1, 2, 2)), -1.0,
                                 np.random.default_rng(0))


def test_receive_control_silent_agent_sees_pure_noise():
    h = np.random.default_rng(0).normal(size=(3, 2))
    u = np.ones(2)
    got = channel.receive_control(0, h, u, np.random.default_rng(9))
    expected = np.random.default_rng(9).normal(size=3)
    assert np.array_equal(got, expected)


def test_receive_control_identity_channel_no_noise():
    u = np.array([1.5, -2.0])
    got = channel.deliver_control(1, np.eye(2), u, np.zeros(2))
    assert np.array_equal(got, u)


def test_receive_control_matches_dense_oracle():
    rng = np.random.default_rng(4)
    h = rng.normal(size=(3, 2))
    u = rng.normal(size=2)
    got = channel.deliver_control(1, h, u, np.zeros(3))
    expected = np.array([sum(h[i, j] * u[j] for j in range(2)) for i in range(3)])
    assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("case", range(30))
def test_batched_receive_control_matches_per_agent_loop(case):
    rng = np.random.default_rng(7100 + case)
    m_count = int(rng.integers(1, 10))
    n_rx, n_tx = (int(n) for n in rng.integers(1, 6, size=2))
    h = rng.normal(size=(m_count, n_rx, n_tx))
    u = rng.normal(size=(m_count, n_tx))
    deltas = rng.integers(0, 2, size=m_count)
    deltas[int(rng.integers(0, m_count))] = 0      # at least one silent agent
    noise_scale = float(rng.choice([0.0, 1.0, 0.3]))
    batched_rng = np.random.default_rng(case)
    loop_rng = np.random.default_rng(case)
    got = channel.receive_control(deltas, h, u, batched_rng)
    want = oracles.receive_control_loop(deltas, h, u, loop_rng)
    assert got.shape == (m_count, n_rx)
    assert np.max(np.abs(got - want)) <= 1e-12
    assert batched_rng.bit_generator.state == loop_rng.bit_generator.state
    # other noise levels through the already-drawn-noise form
    v = noise_scale * np.random.default_rng(case).normal(size=(m_count, n_rx))
    got = channel.deliver_control(deltas, h, u, v)
    want = oracles.receive_control_loop(deltas, h, u, np.random.default_rng(case),
                                        noise_scale)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_receive_control_conditional_moments():
    # E[uhat] = delta H u and Cov[uhat] = I, Monte Carlo at 3 sigma
    rng = np.random.default_rng(55)
    h = rng.normal(size=(2, 3))
    u = rng.normal(size=3)
    n = 100000
    draw_rng = np.random.default_rng(56)
    samples = np.array([channel.receive_control(1, h, u, draw_rng)
                        for _ in range(n)])
    mean = samples.mean(axis=0)
    se = 1.0 / np.sqrt(n)
    assert np.all(np.abs(mean - h @ u) < 3 * se)
    cov = np.cov(samples.T)
    # var of a covariance entry of N(0,1) data is ~2/n on the diagonal
    assert np.all(np.abs(np.diag(cov) - 1.0) < 3 * np.sqrt(2.0 / n))
    off = cov[0, 1]
    assert abs(off) < 3 * se


def test_estimate_channel_unbiased():
    rng = np.random.default_rng(77)
    h = rng.normal(size=(1, 2, 2))
    n = 20000
    draw_rng = np.random.default_rng(78)
    acc = np.zeros((2, 2))
    for _ in range(n):
        acc += channel.estimate_channel(h, 4.0, draw_rng)[0]
    mean_err = acc / n - h[0]
    assert np.all(np.abs(mean_err) < 3 * np.sqrt(1.0 / 4.0 / n))
