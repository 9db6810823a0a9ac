"""Deterministic linear-algebra primitives (SVD and pseudoinverse).

Drift constants are built on the SVD and the decision's 1e-10 cutoff is
the pseudoinverse's truncation rule, so their contracts are kept tight:
full orthogonal bases, nonincreasing singular values, and a relative
truncation rule for the pseudoinverse.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_PINV_REL_TOL = 1e-10


@dataclass(frozen=True)
class SvdFactors:
    """Full singular value decomposition A = left_basis @ S @ right_basis_t.

    left_basis is (a, a) orthogonal, right_basis_t is (b, b) orthogonal and
    singulars holds the min(a, b) singular values in nonincreasing order.
    """

    left_basis: np.ndarray
    singulars: np.ndarray
    right_basis_t: np.ndarray

    def reconstruct(self) -> np.ndarray:
        a = self.left_basis.shape[0]
        b = self.right_basis_t.shape[0]
        s = np.zeros((a, b))
        k = len(self.singulars)
        s[:k, :k] = np.diag(self.singulars)
        return self.left_basis @ s @ self.right_basis_t


def _as_matrix(matrix, name: str) -> np.ndarray:
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be a 2-d matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def svd(matrix) -> SvdFactors:
    """Full SVD with finite-input validation.

    Raises ValueError for non-finite input; singular values come back
    sorted nonincreasing, both bases orthogonal.
    """
    m = _as_matrix(matrix, "matrix")
    u, s, vt = np.linalg.svd(m, full_matrices=True)
    return SvdFactors(left_basis=u, singulars=s, right_basis_t=vt)


def pseudo_inverse(matrix) -> np.ndarray:
    """Moore-Penrose pseudoinverse with relative singular-value truncation.

    Singular values at or below DEFAULT_PINV_REL_TOL * sigma_max are treated
    as exact zeros, so rank-deficient inputs invert cleanly on their range.
    """
    f = svd(matrix)
    a, b = f.left_basis.shape[0], f.right_basis_t.shape[0]
    s_inv = np.zeros(len(f.singulars))
    if len(f.singulars):
        cutoff = DEFAULT_PINV_REL_TOL * f.singulars[0]
        keep = f.singulars > cutoff
        s_inv[keep] = 1.0 / f.singulars[keep]
    sp = np.zeros((b, a))
    k = len(s_inv)
    sp[:k, :k] = np.diag(s_inv)
    return f.right_basis_t.T @ sp @ f.left_basis.T
