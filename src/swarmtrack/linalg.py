"""Deterministic linear-algebra primitives (SVD and pseudoinverse).

Drift constants are built on the SVD and the decision's 1e-10 cutoff is
the pseudoinverse's truncation rule, so their contracts are kept tight:
svd returns numpy's full (u, s, vt) of a finite 2-d matrix, and the
pseudoinverse truncates singular values relative to the largest.
"""

import numpy as np

DEFAULT_PINV_REL_TOL = 1e-10


def svd(matrix):
    """Full SVD (u, s, vt) of a finite 2-d matrix, numpy's own result.

    matrix = u[:, :k] @ diag(s) @ vt[:k] with k = min(a, b) for an (a, b)
    matrix; u is (a, a) and vt (b, b), both orthogonal, and s is
    nonincreasing. Raises ValueError for a non-matrix or non-finite input.
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"matrix must be a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix contains non-finite entries")
    return np.linalg.svd(m, full_matrices=True)


def pseudo_inverse(matrix) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative singular-value truncation.

    Singular values at or below DEFAULT_PINV_REL_TOL * sigma_max are treated
    as exact zeros, so rank-deficient inputs invert cleanly on their range.
    """
    u, s, vt = svd(matrix)
    s_inv = np.zeros(len(s))
    if len(s):
        keep = s > DEFAULT_PINV_REL_TOL * s[0]
        s_inv[keep] = 1.0 / s[keep]
    sp = np.zeros((vt.shape[0], u.shape[0]))
    k = len(s_inv)
    sp[:k, :k] = np.diag(s_inv)
    return vt.T @ sp @ u.T

