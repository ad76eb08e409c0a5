"""Operator storage and the factorizations shared by the solver modules.

Mass and stiffness matrices, and the operators derived from them, are
either dense ``numpy`` arrays or ``scipy.sparse`` CSR arrays.  Both
storages support ``@``, ``.dot``, ``+``, scaling, ``abs`` and ``.T``, so
the solver modules read them the same way, and no module but this one
asks which storage an operator has.  Which storage a matrix gets is
decided in one place, :func:`operator`, from its DOF count alone: below
``SPARSE_MIN_DOFS`` dense LAPACK kernels beat a sparse solve, above it
the FEM operators (a handful of non-zeros per row) are stored as CSR.
How a record freezes an array it holds is decided here too:
:func:`frozen` makes the private read-only copy that subdomains,
kinematic states, coupled systems and cached propagators keep.

Factors hide the storage from their callers.  Each picks its backend
once, when it is built, and exposes that backend's own ``solve``:

* :func:`cholesky_factor` for symmetric positive definite blocks (mass
  and effective Newmark matrices): dense Cholesky, or for CSR a LAPACK
  band Cholesky in the caller's order.  Only a scrambled order, whose
  band is wider than a quarter of the rows, is renumbered by scipy's
  reverse Cuthill-McKee, so runs that factor no such matrix never
  import ``scipy.sparse.csgraph``.  These factors also have a
  ``solve_in_place`` that writes the solution into the right-hand side,
  which the Newmark sub-steps use;
* :func:`lu_factor` for general square systems: pivoted LU, dense or
  SuperLU.  The backward-Euler baseline solves an indefinite
  saddle-point system with it, and the interface Schur complement is
  solved with it without assuming symmetry.  It is the only user of
  SuperLU, so runs that make no sparse LU never import
  ``scipy.sparse.linalg``.
"""

from __future__ import annotations

import numpy as np
# scipy.sparse before scipy.linalg (which loads scipy's OpenBLAS): the
# benchmark's calibration loop, timed right after start-up, depends on it.
import scipy.sparse
import scipy.linalg

from .errors import SingularMatrix

#: Relative pivot threshold below which a factorization is declared singular.
SINGULARITY_RTOL = 1e-14

#: Matrices with at least this many rows are stored as CSR and factored
#: sparse.  Measured on scalar-wave and plane-strain FEM matrices (2 vCPUs,
#: two BLAS threads), one solve plus two products costs the same in both
#: storages between 90 and 110 DOFs with the band Cholesky; dense is
#: 1.3-2x cheaper at 36-72 DOFs, sparse 1.2-1.6x cheaper at 110-180, 2-3x
#: at 195-265, 5-8x at 310-390 and 15x at 840.  (Against SuperLU the tie
#: was at 160-200 DOFs.)
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


def frozen(A):
    """A private read-only copy of ``A``: a float array, or a canonical CSR
    array for sparse input.

    No later write through ``A`` reaches the copy, and the copy itself
    cannot be written, so objects derived from it never go stale.
    """
    if scipy.sparse.issparse(A):
        A = scipy.sparse.csr_array(A, dtype=float, copy=True)
        A.sum_duplicates()  # canonical: no later operation sorts it in place
        parts = (A.data, A.indices, A.indptr)
    else:
        A = np.array(A, dtype=float)
        parts = (A,)
    for part in parts:
        part.setflags(write=False)
    return A


def dense(A) -> np.ndarray:
    """A new dense Fortran-order array with the entries of ``A``.

    Always a copy, dense input included, so LAPACK may work in it in
    place without writing the caller's array.
    """
    if scipy.sparse.issparse(A):
        return A.toarray(order="F")
    return np.array(A, dtype=float, order="F")


class Factor:
    """A factorization kept for repeated solves.

    ``solve(b)`` takes a vector or a matrix of stacked right-hand-side
    columns and returns the solution in a new array; ``b`` is only read,
    so it may be read-only or still in use.  The SPD factors of
    :func:`cholesky_factor` also have ``solve_in_place(b)``, which writes
    the solution into ``b`` instead, with the same bits; for the LU
    factors of :func:`lu_factor` it is ``None``.  Both are the chosen
    backend's own functions, bound when the factor was built, so a solve
    makes no storage test.
    """

    __slots__ = ("solve", "solve_in_place")

    def __init__(self, solve, solve_in_place=None):
        self.solve = solve
        self.solve_in_place = solve_in_place


def _splu(A):
    # Imported on first use: runs that make no sparse LU never load it.
    from scipy.sparse.linalg import splu

    try:
        return splu(scipy.sparse.csc_array(A))
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
    getrs = scipy.linalg.lapack.dgetrs

    def solve(b):
        # The LAPACK routine ``scipy.linalg.lu_solve`` calls, without its
        # argument checks, which cost several times the solve itself on
        # a small system such as the interface complement.
        return getrs(lu, piv, b)[0]

    return Factor(solve)


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


def _band_factor(A) -> Factor:
    """Banded Cholesky of a sparse SPD matrix; see :func:`cholesky_factor`."""
    coo = scipy.sparse.coo_array(A, copy=True)
    coo.sum_duplicates()
    n = coo.shape[0]
    perm, i, j = None, coo.row, coo.col
    kd = int(np.abs(i - j).max(initial=0))
    if 4 * kd > n:  # a scrambled order: number it by reverse Cuthill-McKee
        # Imported on first use: coupled runs never load csgraph.
        from scipy.sparse.csgraph import reverse_cuthill_mckee

        rcm = reverse_cuthill_mckee(scipy.sparse.csr_array(coo), symmetric_mode=True)
        new = np.empty(n, dtype=np.intp)
        new[rcm] = np.arange(n)
        if np.abs(new[i] - new[j]).max() < kd:
            perm, i, j = rcm, new[i], new[j]
    upper = i <= j
    i, j, data = i[upper], j[upper], coo.data[upper]
    kd = int((j - i).max(initial=0))
    # LAPACK upper band storage: ab[kd + i - j, j] = A[i, j] for i <= j.
    ab = np.zeros((kd + 1, n), order="F")
    ab[kd + i - j, j] = data
    c, info = scipy.linalg.lapack.dpbtrf(ab, overwrite_ab=True)
    if info > 0:
        raise SingularMatrix(
            f"matrix is not positive definite: leading minor {info} is not positive"
        )
    if info < 0:
        raise ValueError(f"dpbtrf: illegal value in argument {-info}")
    pbtrs = scipy.linalg.lapack.dpbtrs
    if perm is None:
        def solve_in_place(b):
            x = pbtrs(c, b, overwrite_b=True)[0]
            if x is not b:  # LAPACK worked in a copy (C-order columns)
                b[...] = x

        return Factor(lambda b: pbtrs(c, b)[0], solve_in_place)

    def band_solve(b):
        # The solution in band order: ``b`` is gathered into a private
        # copy (Fortran layout for several columns) that ``dpbtrs``
        # solves in place.
        x = b[perm] if b.ndim == 1 else b.T[:, perm].T
        return pbtrs(c, x, overwrite_b=True)[0]

    def solve(b):
        x = band_solve(b)
        out = np.empty_like(x)
        out[perm] = x
        return out

    def solve_in_place(b):
        b[perm] = band_solve(b)

    return Factor(solve, solve_in_place)


def cholesky_factor(A) -> Factor:
    """Factor of a symmetric positive definite matrix, dense or sparse.

    Dense matrices get a dense Cholesky factor.  Sparse ones get a LAPACK
    band Cholesky factor (``dpbtrf``) in the order they come in: the
    caller owns the order, and the FEM builders number a grid row by
    row.  Only when that band is wider than a quarter of the rows
    (a scrambled order, as the merged reference's DOF union has) is the
    matrix numbered by scipy's reverse Cuthill-McKee, and that order is
    kept if its band is narrower; a solve then gathers the right-hand
    side into band order, calls ``dpbtrs`` in that copy and scatters the
    result back (into ``b`` itself for ``solve_in_place``).  Only the
    upper band is stored, built from the matrix's entries without a
    dense copy.

    Raises
    ------
    SingularMatrix
        If the matrix is not numerically positive definite.
    """
    if scipy.sparse.issparse(A):
        return _band_factor(A)
    try:
        c, lower = scipy.linalg.cho_factor(np.asarray(A, dtype=float), check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    potrs = scipy.linalg.lapack.dpotrs

    # ``lower`` and ``overwrite_b`` are passed by position: an f2py keyword
    # costs about a third of a microsecond, a quarter of a small solve.
    def solve(b):
        return potrs(c, b, lower)[0]

    def solve_in_place(b):
        x = potrs(c, b, lower, 1)[0]
        if x is not b:  # LAPACK worked in a copy (C-order columns)
            b[...] = x

    return Factor(solve, solve_in_place)


def max_generalized_eigenvalue(K, M) -> float:
    """Largest eigenvalue of the generalized problem ``K x = lam M x``.

    ``M`` must be symmetric positive definite and ``K`` symmetric positive
    semidefinite, in which case all eigenvalues are real and non-negative.
    Computed by an exact dense symmetric eigensolve restricted to the top
    eigenvalue, so a step limit derived from it is not overestimated by
    an unconverged iteration.  The eigensolve works in place in the
    private copies :func:`dense` makes of ``K`` and ``M``, so LAPACK makes
    no copies of its own and the caller's arrays are never written.

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
        top = scipy.linalg.eigh(
            K, M, eigvals_only=True, subset_by_index=[n - 1, n - 1],
            overwrite_a=True, overwrite_b=True,
        )
    except scipy.linalg.LinAlgError as exc:
        raise SingularMatrix(str(exc)) from exc
    return float(top[0])
