"""Dense linear algebra primitives shared by the solver modules.

Everything here operates on plain ``numpy`` arrays.  Matrices are dense:
the meshes this library targets stay in the hundreds-of-DOFs range, so
sparse storage would be complexity without payoff.  The general solve
uses a pivoted factorization because its systems are not assumed positive
definite: the backward-Euler baseline solves an indefinite saddle-point
system, and the interface Schur complement is solved without assuming
symmetry.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import SingularMatrix

#: Relative pivot threshold below which a factorization is declared singular.
SINGULARITY_RTOL = 1e-14


def solve_general(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` for a general (possibly indefinite) square matrix.

    Uses an LU factorization with partial pivoting.  ``b`` may be a vector
    or a matrix of stacked right-hand-side columns.

    Raises
    ------
    SingularMatrix
        If any pivot falls below ``SINGULARITY_RTOL`` times the largest
        pivot, i.e. the matrix is numerically rank deficient.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    if A.shape[0] == 0:
        return np.zeros_like(b)
    lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if pivots.min() < SINGULARITY_RTOL * max(pivots.max(), np.finfo(float).tiny):
        raise SingularMatrix(
            f"pivot ratio {pivots.min():.3e}/{pivots.max():.3e} below threshold"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def cholesky_factor(A: np.ndarray):
    """Cholesky factorization of an SPD matrix, for repeated solves.

    Internal fast path for symmetric positive definite blocks (mass and
    effective Newmark matrices).  Returns an opaque factor object accepted
    by :func:`cholesky_solve`.

    Raises
    ------
    SingularMatrix
        If the matrix is not numerically positive definite.
    """
    try:
        return scipy.linalg.cho_factor(np.asarray(A, dtype=float), check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc


def cholesky_solve(factor, b: np.ndarray) -> np.ndarray:
    """Solve using a factor from :func:`cholesky_factor` (vector or matrix rhs)."""
    return scipy.linalg.cho_solve(factor, np.asarray(b, dtype=float), check_finite=False)


def max_generalized_eigenvalue(K: np.ndarray, M: np.ndarray) -> float:
    """Largest eigenvalue of the generalized problem ``K x = lam M x``.

    ``M`` must be symmetric positive definite and ``K`` symmetric positive
    semidefinite, in which case all eigenvalues are real and non-negative.
    Computed by an exact dense symmetric eigensolve restricted to the top
    eigenvalue, so a step limit derived from it is not overestimated by an
    unconverged iteration.

    Raises
    ------
    SingularMatrix
        If ``M`` is not numerically positive definite.
    """
    K = np.asarray(K, dtype=float)
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if K.shape != M.shape or K.shape != (n, n):
        raise ValueError(f"shape mismatch: K is {K.shape}, M is {M.shape}")
    if n == 0 or not np.any(K):
        return 0.0
    try:
        top = scipy.linalg.eigh(K, M, eigvals_only=True, subset_by_index=[n - 1, n - 1])
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return float(top[0])
