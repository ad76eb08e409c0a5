import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee as csgraph_rcm

import mtstep
from mtstep import baselines, fem, linalg, problems
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


def tridiagonal(n):
    return scipy.sparse.diags_array(
        [-1.0, 2.5, -1.0], offsets=[-1, 0, 1], shape=(n, n), format="csr"
    )


def permuted_tridiagonal(n):
    # A band of one in a scrambled order, so the band factor permutes.
    p = np.random.default_rng(11).permutation(n)
    return scipy.sparse.csr_array(tridiagonal(n)[p][:, p])


@pytest.mark.parametrize(
    "build, permuted",
    [
        (lambda: random_spd(6, np.random.default_rng(6)), False),
        (lambda: tridiagonal(40), False),
        (lambda: permuted_tridiagonal(40), True),
    ],
    ids=["dense", "band", "permuted_band"],
)
def test_solve_in_place_matches_solve(build, permuted):
    A = build()
    n = A.shape[0]
    if scipy.sparse.issparse(A):
        rcm = bandwidth(A, csgraph_rcm(A, symmetric_mode=True))
        assert (rcm < bandwidth(A, np.arange(n))) == permuted
    factor = linalg.cholesky_factor(A)
    rng = np.random.default_rng(12)
    # A vector, a row of a stacked history, and C-order columns (LAPACK
    # solves those in a copy, which must come back into b).
    for b in (rng.standard_normal(n), rng.standard_normal((3, n))[1], rng.standard_normal((n, 4))):
        original = b.copy()
        want = factor.solve(b)
        np.testing.assert_array_equal(b, original)  # solve only reads b
        factor.solve_in_place(b)
        np.testing.assert_array_equal(b, want)
        assert np.abs(A @ want - original).max() <= 1e-10 * np.abs(original).max()


def test_lu_solve_is_lapack_getrs():
    rng = np.random.default_rng(13)
    A = rng.standard_normal((7, 7))
    reference = scipy.linalg.lu_factor(A)
    factor = linalg.lu_factor(A)
    for b in (rng.standard_normal(7), rng.standard_normal((7, 3))):
        want = scipy.linalg.lu_solve(reference, b)
        np.testing.assert_array_equal(factor.solve(b), want)


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


@functools.cache
def merged_wave():
    """Merged mass and stiffness of the default wave2d model (3960 DOFs)."""
    M, K, _, _ = baselines.merge_system_matrices(problems.build_wave_2d().system)
    return M, K


def merged_plate():
    """Merged mass and stiffness of the default plate2d model (220 DOFs)."""
    M, K, _, _ = baselines.merge_system_matrices(problems.build_plate_2d().system)
    return M, K


def two_component_pattern():
    # Two uncoupled grids (the second larger) on one diagonal, numbered
    # at random.
    blocks = [
        scipy.sparse.csr_array(fem.assemble_scalar_wave(fem.quad_grid(n, n, 1.0, 1.0), 1.0)[1])
        for n in (6, 9)
    ]
    A = scipy.sparse.block_diag(blocks, format="csr")
    shuffle = np.random.default_rng(10).permutation(A.shape[0])
    return A[shuffle][:, shuffle]


def bandwidth(A, perm):
    A = scipy.sparse.coo_array(A)
    position = np.empty(A.shape[0], dtype=int)
    position[perm] = np.arange(A.shape[0])
    return int(np.abs(position[A.row] - position[A.col]).max())


@functools.cache
def wave_model():
    return problems.build_wave_2d().system


def effective_matrix(k):
    """What a coupled wave2d run factors for subdomain k: M + beta dt^2 K."""
    sub = wave_model().subdomains[k]
    return sub.M + sub.params.beta * sub.dt_sub**2 * sub.K


def upper_band(A):
    """LAPACK upper band storage of a symmetric sparse matrix, by diagonals."""
    coo = scipy.sparse.coo_array(A)
    kd = int((coo.col - coo.row).max(initial=0))
    ab = np.zeros((kd + 1, A.shape[0]))
    for k in range(kd + 1):
        ab[kd - k, k:] = A.diagonal(k)
    return ab


@pytest.mark.parametrize(
    "build, scrambled",
    [
        (lambda: wave_model().subdomains[0].M, False),  # 836 DOFs, band 20
        (lambda: wave_model().subdomains[1].M, False),  # 3168 DOFs, band 73
        (lambda: effective_matrix(0), False),
        (lambda: effective_matrix(1), False),
        # Numbered along the long side: band 42 of 451 rows, RCM's 22.
        (lambda: fem.assemble_scalar_wave(fem.quad_grid(40, 10, 4.0, 1.0), 1.0)[0], False),
        (lambda: merged_wave()[0] + 0.25e-8 * merged_wave()[1], True),  # band 3073 of 3960
        (lambda: merged_plate()[0] + 0.25e-2 * merged_plate()[1], True),  # band 112 of 220
        (lambda: permuted_tridiagonal(40), True),
    ],
    ids=["wave_M0", "wave_M1", "wave_effective0", "wave_effective1", "long_grid",
         "merged_wave", "merged_plate", "permuted_tridiagonal"],
)
def test_band_factor_keeps_the_callers_order_unless_scrambled(build, scrambled):
    # The caller owns the order: a band of at most a quarter of the rows
    # is factored as given, a wider one in csgraph's RCM order.  The
    # factor's solve is LAPACK's banded Cholesky in that order, bit for bit.
    A = scipy.sparse.csr_array(build())
    n = A.shape[0]
    assert (4 * bandwidth(A, np.arange(n)) > n) == scrambled
    perm = csgraph_rcm(A, symmetric_mode=True) if scrambled else np.arange(n)
    reference = (scipy.linalg.cholesky_banded(upper_band(A[perm][:, perm])), False)
    factor = linalg.cholesky_factor(A)
    rng = np.random.default_rng(14)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        want = np.empty_like(b)
        want[perm] = scipy.linalg.cho_solve_banded(reference, b[perm])
        np.testing.assert_array_equal(factor.solve(b), want)


@pytest.mark.parametrize(
    "build",
    [
        lambda: merged_wave()[0] + 0.25e-8 * merged_wave()[1],  # average acceleration, dt = 1e-4
        lambda: two_component_pattern() + scipy.sparse.eye_array(149),  # 49 + 100 DOFs
    ],
)
def test_banded_cholesky_matches_dense(build):
    A = scipy.sparse.csr_array(build())
    factor = linalg.cholesky_factor(A)
    dense_factor = scipy.linalg.cho_factor(A.toarray())
    rng = np.random.default_rng(9)
    for b in (rng.standard_normal(A.shape[0]), rng.standard_normal((A.shape[0], 44))):
        want = scipy.linalg.cho_solve(dense_factor, b)
        got = factor.solve(b)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()


def test_coupled_wave_run_loads_no_sparse_solver_modules(tmp_path):
    # Through the CLI, as a benchmark run goes: every module the CLI
    # imports counts, not only the solver's.
    configs = []
    for name, body in (
        ("wave2d", "scenario=wave2d\nduration=2e-4\n"),
        ("bar1d", "scenario=bar1d\nduration=5e-3\nsubdomain.2.eta=100\nprobe=3:5\n"),
    ):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(f"{body}output={tmp_path / name}.csv\n")
        configs.append(str(cfg))
    script = (
        "import sys\n"
        "from mtstep import cli\n"
        "for cfg in sys.argv[1:]:\n"
        "    assert cli.main(['run', cfg]) == 0\n"
        "print(sorted({'scipy.sparse.linalg', 'scipy.sparse.csgraph'} & set(sys.modules)))\n"
    )
    src = str(Path(mtstep.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", script, *configs],
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"


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
    # Also: the inputs are left as they were, 1 x 1 and Fortran-order
    # ones included, though the eigensolve overwrites its arrays.
    rng = np.random.default_rng(6)
    for n in (2, 5, 12, 1):
        M = random_spd(n, rng)
        K = random_spd(n, rng, shift=0.5)
        expected = scipy.linalg.eigh(K, M, eigvals_only=True)[-1]
        for order in ("C", "F"):
            K_in, M_in = K.copy(order), M.copy(order)
            got = linalg.max_generalized_eigenvalue(K_in, M_in)
            assert got == pytest.approx(expected, rel=1e-6)
            np.testing.assert_array_equal(K_in, K)
            np.testing.assert_array_equal(M_in, M)


def test_max_generalized_eigenvalue_identity_mass():
    K = np.diag([1.0, 4.0, 9.0])
    got = linalg.max_generalized_eigenvalue(K, np.eye(3))
    assert got == pytest.approx(9.0, rel=1e-7)


def test_max_generalized_eigenvalue_zero_stiffness():
    assert linalg.max_generalized_eigenvalue(np.zeros((3, 3)), np.eye(3)) == 0.0


def test_max_generalized_eigenvalue_shape_mismatch():
    with pytest.raises(ValueError):
        linalg.max_generalized_eigenvalue(np.eye(2), np.eye(3))


def test_max_generalized_eigenvalue_rejects_indefinite_mass():
    with pytest.raises(linalg.SingularMatrix):
        linalg.max_generalized_eigenvalue(np.eye(2), np.diag([1.0, -1.0]))
