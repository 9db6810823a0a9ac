import numpy as np
import pytest

from swarmtrack import linalg


def test_svd_identity():
    _, s, _ = linalg.svd(np.eye(3))
    assert np.allclose(s, [1.0, 1.0, 1.0])


def test_svd_diagonal():
    _, s, _ = linalg.svd(np.diag([3.0, 2.0, 1.0]))
    assert np.allclose(s, [3.0, 2.0, 1.0], atol=1e-12)


def test_svd_singulars_match_eigendecomposition_oracle():
    rng = np.random.default_rng(42)
    m = rng.normal(size=(4, 3))
    # independent symmetric eigensolver route: sqrt of eigenvalues of M^T M
    expected = np.sqrt(np.sort(np.linalg.eigvalsh(m.T @ m))[::-1])
    _, s, _ = linalg.svd(m)
    assert np.allclose(s, expected, atol=1e-8)


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        linalg.svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        linalg.svd(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
def test_svd_rejects_a_non_matrix(shape):
    with pytest.raises(ValueError, match="matrix must be a 2-d matrix"):
        linalg.svd(np.ones(shape))


@pytest.mark.parametrize("case", range(200))
def test_svd_contract_randomized(case):
    rng = np.random.default_rng(1000 + case)
    a = int(rng.integers(1, 8))
    b = int(rng.integers(1, 8))
    m = rng.normal(size=(a, b)) * 10.0 ** rng.integers(-3, 4)
    u, s, vt = linalg.svd(m)
    k = min(a, b)
    assert u.shape == (a, a) and s.shape == (k,) and vt.shape == (b, b)
    smax = s[0]
    assert np.all(np.diff(s) <= 0)
    assert np.all(s >= 0)
    assert np.allclose(u.T @ u, np.eye(a), atol=1e-10)
    assert np.allclose(vt @ vt.T, np.eye(b), atol=1e-10)
    assert np.max(np.abs((u[:, :k] * s) @ vt[:k] - m)) <= 1e-10 * max(smax, 1e-300)


def test_pinv_identity():
    assert np.allclose(linalg.pseudo_inverse(np.eye(4)), np.eye(4), atol=1e-12)


def test_pinv_truncates_zero_singulars():
    assert np.allclose(linalg.pseudo_inverse(np.diag([2.0, 0.0])),
                       np.diag([0.5, 0.0]), atol=1e-12)


def test_pinv_singular_value_at_the_cutoff_counts_as_zero():
    # numpy returns s = 1e-10 exactly, at 1e-10 * s_max: cut; one ulp above
    # it is kept
    assert linalg.svd(np.diag([1.0, 1e-10]))[1][1] == 1e-10
    assert np.array_equal(linalg.pseudo_inverse(np.diag([1.0, 1e-10])),
                          np.diag([1.0, 0.0]))
    above = np.nextafter(1e-10, 1.0)
    assert np.allclose(linalg.pseudo_inverse(np.diag([1.0, above])),
                       np.diag([1.0, 1.0 / above]), rtol=1e-12, atol=0)


def test_pinv_full_column_rank_left_inverse():
    rng = np.random.default_rng(7)
    m = rng.normal(size=(5, 3))
    p = linalg.pseudo_inverse(m)
    assert np.allclose(p @ m, np.eye(3), atol=1e-8)
    # normal-equation oracle for the full-column-rank case
    oracle = np.linalg.solve(m.T @ m, m.T)
    assert np.allclose(p, oracle, atol=1e-8)


@pytest.mark.parametrize("case", range(200))
def test_pinv_moore_penrose_conditions(case):
    rng = np.random.default_rng(2000 + case)
    a = int(rng.integers(1, 7))
    b = int(rng.integers(1, 7))
    m = rng.normal(size=(a, b))
    if case % 3 == 0 and min(a, b) > 1:
        # force rank deficiency
        m[:, -1] = m[:, 0]
    p = linalg.pseudo_inverse(m)
    scale = max(1.0, np.abs(m).max())
    assert np.max(np.abs(m @ p @ m - m)) <= 1e-8 * scale
    assert np.max(np.abs(p @ m @ p - p)) <= 1e-8 * max(1.0, np.abs(p).max())
    assert np.max(np.abs((m @ p).T - m @ p)) <= 1e-8
    assert np.max(np.abs((p @ m).T - p @ m)) <= 1e-8


@pytest.mark.parametrize("case", range(50))
def test_pinv_idempotent_on_full_rank(case):
    rng = np.random.default_rng(3000 + case)
    n = int(rng.integers(1, 7))
    m = rng.normal(size=(n, n)) + 3.0 * np.eye(n)
    assert np.allclose(linalg.pseudo_inverse(linalg.pseudo_inverse(m)), m,
                       atol=1e-8 * max(1.0, np.abs(m).max()))

