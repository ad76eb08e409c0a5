"""Operator storage and the factorizations shared by the solver modules.

Mass and stiffness matrices, and the operators derived from them, are
either dense ``numpy`` arrays or ``scipy.sparse`` CSR arrays.  Both
storages support ``@``, ``+``, scaling, ``abs`` and ``.T``, so the solver
modules read them the same way.  Which storage a matrix gets is decided
in one place, :func:`operator`, from its DOF count alone: below
``SPARSE_MIN_DOFS`` dense LAPACK kernels beat a sparse solve, above it
the FEM operators (a handful of non-zeros per row) are stored as CSR and
factored by SuperLU.

Factors hide the storage from their callers.  Each picks its backend
once, when it is built, and exposes that backend's own ``solve``:

* :func:`cholesky_factor` for symmetric positive definite blocks (mass
  and effective Newmark matrices): dense Cholesky, or a SuperLU factor
  with symmetric ordering and diagonal pivots that is accepted only when
  every pivot is positive;
* :func:`lu_factor` for general square systems: pivoted LU, dense or
  SuperLU.  The backward-Euler baseline solves an indefinite
  saddle-point system with it, and the interface Schur complement is
  solved with it without assuming symmetry.
"""

from __future__ import annotations

from functools import partial

import numpy as np
import scipy.linalg
import scipy.sparse

from .errors import SingularMatrix

#: Relative pivot threshold below which a factorization is declared singular.
SINGULARITY_RTOL = 1e-14

#: Matrices with at least this many rows are stored as CSR and factored
#: sparse.  Measured on scalar-wave and plane-strain FEM matrices (2 vCPUs,
#: two BLAS threads), one solve plus two products costs the same in both
#: storages between 160 and 200 DOFs; dense is 1.3-1.6x cheaper at 120-130
#: DOFs, sparse 2x cheaper at 290 and 6.5x at 840.
SPARSE_MIN_DOFS = 200


def operator(A):
    """``A`` in the storage its size calls for: dense or CSR.

    Accepts a dense array or any ``scipy.sparse`` matrix (duplicate COO
    entries are summed in entry order).
    """
    if scipy.sparse.issparse(A):
        return A.toarray() if A.shape[0] < SPARSE_MIN_DOFS else scipy.sparse.csr_array(A)
    A = np.asarray(A, dtype=float)
    return A if A.shape[0] < SPARSE_MIN_DOFS else scipy.sparse.csr_array(A)


def dense(A) -> np.ndarray:
    """A dense copy of a sparse operator; dense ones pass through."""
    return A.toarray() if scipy.sparse.issparse(A) else np.asarray(A, dtype=float)


class Factor:
    """A factorization kept for repeated solves.

    ``solve(b)`` takes a vector or a matrix of stacked right-hand-side
    columns.  It is the chosen backend's own solve, bound when the factor
    was built, so a solve makes no storage test.
    """

    __slots__ = ("solve",)

    def __init__(self, solve):
        self.solve = solve


def _splu(A, **options):
    # Imported on first use: runs whose matrices are all small never load it.
    from scipy.sparse.linalg import splu

    try:
        return splu(scipy.sparse.csc_array(A), **options)
    except RuntimeError as exc:  # SuperLU reports an exactly zero pivot
        raise SingularMatrix(str(exc)) from exc


def _check_pivots(pivots: np.ndarray) -> None:
    pivots = np.abs(pivots)
    if pivots.min() < SINGULARITY_RTOL * max(pivots.max(), np.finfo(float).tiny):
        raise SingularMatrix(
            f"pivot ratio {pivots.min():.3e}/{pivots.max():.3e} below threshold"
        )


def lu_factor(A) -> Factor:
    """Pivoted LU of a general (possibly indefinite) square matrix.

    Raises
    ------
    SingularMatrix
        If any pivot falls below ``SINGULARITY_RTOL`` times the largest
        pivot, i.e. the matrix is numerically rank deficient.
    """
    if scipy.sparse.issparse(A):
        lu = _splu(A)
        _check_pivots(lu.U.diagonal())
        return Factor(lu.solve)
    lu, piv = scipy.linalg.lu_factor(np.asarray(A, dtype=float), check_finite=False)
    _check_pivots(np.diag(lu))
    return Factor(partial(scipy.linalg.lu_solve, (lu, piv), check_finite=False))


def solve_general(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``A x = b`` once for a dense general square matrix.

    ``b`` may be a vector or a matrix of stacked right-hand-side columns.
    See :func:`lu_factor` for the singularity test.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    if A.shape[0] == 0:
        return np.zeros_like(b)
    return lu_factor(A).solve(b)


def cholesky_factor(A) -> Factor:
    """Factor of a symmetric positive definite matrix, dense or sparse.

    Dense matrices get a Cholesky factor.  Sparse ones get a SuperLU
    factor in symmetric mode (minimum-degree ordering of A^T + A, diagonal
    pivots), which is an LDL^T factor up to scaling; it is accepted only
    if the row and column orders agree and every pivot is positive, the
    conditions under which a symmetric matrix is positive definite.

    Raises
    ------
    SingularMatrix
        If the matrix is not numerically positive definite.
    """
    if scipy.sparse.issparse(A):
        lu = _splu(
            A,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        if not (np.array_equal(lu.perm_r, lu.perm_c) and (lu.U.diagonal() > 0.0).all()):
            raise SingularMatrix("matrix is not positive definite: a pivot is not positive")
        return Factor(lu.solve)
    try:
        c, lower = scipy.linalg.cho_factor(np.asarray(A, dtype=float), check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    potrs = scipy.linalg.lapack.dpotrs

    def solve(b):
        return potrs(c, b, lower=lower)[0]

    return Factor(solve)


def max_generalized_eigenvalue(K, M) -> float:
    """Largest eigenvalue of the generalized problem ``K x = lam M x``.

    ``M`` must be symmetric positive definite and ``K`` symmetric positive
    semidefinite, in which case all eigenvalues are real and non-negative.
    Computed by an exact dense symmetric eigensolve restricted to the top
    eigenvalue (on dense copies of sparse operators), so a step limit
    derived from it is not overestimated by an unconverged iteration.

    Raises
    ------
    SingularMatrix
        If ``M`` is not numerically positive definite.
    """
    K = dense(K)
    M = dense(M)
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
