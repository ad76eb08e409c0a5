import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from mtstep import fem, linalg
from mtstep.errors import SingularMatrix


def random_spd(n, rng, shift=None):
    A = rng.standard_normal((n, n))
    return A @ A.T + (shift if shift is not None else n) * np.eye(n)


def test_solve_general_matches_numpy():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((7, 7))
    b = rng.standard_normal(7)
    x = linalg.solve_general(A, b)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-12)


def test_solve_general_matrix_rhs():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((5, 5))
    B = rng.standard_normal((5, 3))
    X = linalg.solve_general(A, B)
    np.testing.assert_allclose(A @ X, B, atol=1e-12)


def test_solve_general_indefinite_saddle():
    # Symmetric indefinite saddle-point block: LU with pivoting must cope.
    rng = np.random.default_rng(3)
    K = random_spd(4, rng)
    C = rng.standard_normal((2, 4))
    A = np.block([[K, C.T], [C, np.zeros((2, 2))]])
    b = rng.standard_normal(6)
    x = linalg.solve_general(A, b)
    np.testing.assert_allclose(A @ x, b, atol=1e-10)


@pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
def test_solve_general_singular_raises():
    A = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        linalg.solve_general(A, np.ones(2))


def test_solve_general_rejects_nonsquare():
    with pytest.raises(ValueError):
        linalg.solve_general(np.ones((2, 3)), np.ones(2))
    with pytest.raises(ValueError):
        linalg.solve_general(np.eye(3), np.ones(2))


def test_solve_general_empty():
    x = linalg.solve_general(np.zeros((0, 0)), np.zeros(0))
    assert x.shape == (0,)


def test_cholesky_round_trip():
    rng = np.random.default_rng(4)
    A = random_spd(6, rng)
    b = rng.standard_normal(6)
    factor = linalg.cholesky_factor(A)
    np.testing.assert_allclose(A @ factor.solve(b), b, atol=1e-10)


def test_cholesky_matrix_rhs():
    rng = np.random.default_rng(5)
    A = random_spd(4, rng)
    B = rng.standard_normal((4, 2))
    factor = linalg.cholesky_factor(A)
    np.testing.assert_allclose(A @ factor.solve(B), B, atol=1e-10)


def wave_block():
    """Mass and stiffness of wave2d's explicit subdomain (836 DOFs), as CSR."""
    grid = fem.quad_grid(18, 45, 0.4, 1.0)
    M, K = fem.assemble_scalar_wave(grid, 1.0)
    y = grid.coords[:, 1]
    fixed = np.nonzero((np.abs(y) <= 1e-12) | (np.abs(y - 1.0) <= 1e-12))[0]
    M, K, _ = fem.eliminate_dofs(M, K, fixed)
    return M, K


def indefinite_sparse():
    # K - c M with c inside the spectrum of (K, M): a symmetric matrix
    # with positive and negative eigenvalues, stored as CSR.
    grid = fem.quad_grid(10, 10, 1.0, 1.0)
    M, K = (scipy.sparse.csr_array(A) for A in fem.assemble_scalar_wave(grid, 1.0))
    lam = scipy.linalg.eigh(K.toarray(), M.toarray(), eigvals_only=True)
    return K - np.median(lam) * M


def test_cholesky_rejects_indefinite():
    for A in (np.array([[1.0, 0.0], [0.0, -1.0]]), indefinite_sparse()):
        with pytest.raises(SingularMatrix):
            linalg.cholesky_factor(A)


def test_sparse_cholesky_matches_dense_on_wave_block():
    M, K = wave_block()
    assert scipy.sparse.issparse(M) and M.shape == (836, 836)
    rng = np.random.default_rng(7)
    for A in (M, M + 0.25e-8 * K):  # central difference, average acceleration
        dense_factor = scipy.linalg.cho_factor(A.toarray())
        for b in (rng.standard_normal(836), rng.standard_normal((836, 44))):
            want = scipy.linalg.cho_solve(dense_factor, b)
            got = linalg.cholesky_factor(A).solve(b)
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_sparse_lu_matches_dense():
    rng = np.random.default_rng(8)
    M, K = wave_block()
    C = scipy.sparse.csr_array(rng.standard_normal((3, 836)))
    A = scipy.sparse.block_array([[M + K, C.T], [C, None]]).tocsr()  # indefinite
    b = rng.standard_normal(839)
    x = linalg.lu_factor(A).solve(b)
    np.testing.assert_allclose(x, np.linalg.solve(A.toarray(), b), rtol=1e-10, atol=1e-10)
    C_rank_deficient = scipy.sparse.csr_array(C.toarray() * [[1.0], [1.0], [0.0]])
    singular = scipy.sparse.block_array([[M + K, C.T], [C_rank_deficient, None]])
    with pytest.raises(SingularMatrix):
        linalg.lu_factor(singular)


def test_operator_storage_follows_dof_count():
    n = linalg.SPARSE_MIN_DOFS
    assert isinstance(linalg.operator(np.eye(n - 1)), np.ndarray)
    assert isinstance(linalg.operator(scipy.sparse.eye_array(n - 1)), np.ndarray)
    assert scipy.sparse.issparse(linalg.operator(np.eye(n)))
    assert scipy.sparse.issparse(linalg.operator(scipy.sparse.eye_array(n)))


def test_max_generalized_eigenvalue_vs_eigh():
    rng = np.random.default_rng(6)
    for n in (2, 5, 12):
        M = random_spd(n, rng)
        K = random_spd(n, rng, shift=0.5)
        expected = scipy.linalg.eigh(K, M, eigvals_only=True)[-1]
        got = linalg.max_generalized_eigenvalue(K, M)
        assert got == pytest.approx(expected, rel=1e-6)


def test_max_generalized_eigenvalue_identity_mass():
    K = np.diag([1.0, 4.0, 9.0])
    got = linalg.max_generalized_eigenvalue(K, np.eye(3))
    assert got == pytest.approx(9.0, rel=1e-7)


def test_max_generalized_eigenvalue_zero_stiffness():
    assert linalg.max_generalized_eigenvalue(np.zeros((3, 3)), np.eye(3)) == 0.0


def test_max_generalized_eigenvalue_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.max_generalized_eigenvalue(np.eye(2), np.eye(3))
