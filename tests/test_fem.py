import numpy as np
import pytest
import scipy.sparse

import fem_oracle
from mtstep import fem, linalg


# ---------------------------------------------------------------------------
# 1-D bar
# ---------------------------------------------------------------------------

def test_bar_mesh():
    coords = fem.bar_mesh(4, 2.0, x0=1.0)
    np.testing.assert_allclose(coords, [1.0, 1.5, 2.0, 2.5, 3.0])
    with pytest.raises(ValueError):
        fem.bar_mesh(0, 1.0)


def test_bar_single_element_matrices():
    E, rho, A, h = 100.0, 2.0, 3.0, 0.5
    M, K = fem.assemble_bar(np.array([0.0, h]), E, rho, A)
    np.testing.assert_allclose(K, (E * A / h) * np.array([[1, -1], [-1, 1]]))
    np.testing.assert_allclose(M, (rho * A * h / 6) * np.array([[2, 1], [1, 2]]))


def test_bar_mass_and_rigid_body():
    coords = fem.bar_mesh(7, 1.0)
    M, K = fem.assemble_bar(coords, 1e4, 0.1, 1.0)
    assert M.sum() == pytest.approx(0.1)  # total mass rho A L
    # Rigid translation produces no elastic force.
    np.testing.assert_allclose(K @ np.ones(8), 0.0, atol=1e-10)
    # Uniform strain u = x: u^T K u = EA L (twice the strain energy).
    assert coords @ K @ coords == pytest.approx(1e4)


def test_bar_rejects_unsorted_coords():
    with pytest.raises(ValueError):
        fem.assemble_bar(np.array([0.0, 0.0, 1.0]), 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Quad grids
# ---------------------------------------------------------------------------

def test_quad_grid_layout():
    grid = fem.quad_grid(2, 3, 2.0, 3.0, x0=1.0, y0=-1.0)
    assert grid.n_nodes == 12
    assert grid.n_elems == 6
    np.testing.assert_allclose(grid.coords[0], [1.0, -1.0])
    np.testing.assert_allclose(grid.coords[-1], [3.0, 2.0])
    # Counterclockwise connectivity of the first element.
    np.testing.assert_array_equal(grid.conn[0], [0, 1, 4, 3])


def test_plane_strain_mass_and_rigid_body_modes():
    lam, mu, rho = 100.0, 100.0, 100.0
    grid = fem.quad_grid(3, 3, 1.0, 1.0)
    M, K = fem.assemble_plane_strain(grid, lam, mu, rho)
    n = grid.n_nodes
    # Total mass per component: rho * area.
    ex = np.zeros(2 * n); ex[0::2] = 1.0
    ey = np.zeros(2 * n); ey[1::2] = 1.0
    assert ex @ M @ ex == pytest.approx(rho * 1.0)
    assert ey @ M @ ey == pytest.approx(rho * 1.0)
    assert ex @ M @ ey == pytest.approx(0.0, abs=1e-12)
    # Rigid body modes: two translations and the linearized rotation.
    rot = np.zeros(2 * n)
    rot[0::2] = -grid.coords[:, 1]
    rot[1::2] = grid.coords[:, 0]
    for mode in (ex, ey, rot):
        np.testing.assert_allclose(K @ mode, 0.0, atol=1e-10)
    np.testing.assert_allclose(K, K.T, atol=1e-12)


def test_plane_strain_uniform_strain_energy():
    # u_x = a x, u_y = 0: energy = 1/2 a^2 (lam + 2 mu) * area, mesh-exact
    # for bilinear quads.
    lam, mu = 40.0, 30.0
    a = 0.01
    grid = fem.quad_grid(4, 2, 2.0, 1.0)
    _, K = fem.assemble_plane_strain(grid, lam, mu, rho=1.0)
    u = np.zeros(2 * grid.n_nodes)
    u[0::2] = a * grid.coords[:, 0]
    energy = 0.5 * u @ K @ u
    assert energy == pytest.approx(0.5 * a * a * (lam + 2 * mu) * 2.0, rel=1e-12)


def test_scalar_wave_matrices():
    c0 = 2.0
    grid = fem.quad_grid(5, 4, 2.0, 1.0)
    M, K = fem.assemble_scalar_wave(grid, c0)
    # Constant field: no stiffness response, full mass = area / c0^2.
    ones = np.ones(grid.n_nodes)
    np.testing.assert_allclose(K @ ones, 0.0, atol=1e-12)
    assert ones @ M @ ones == pytest.approx(2.0 / c0**2)
    # Linear field u = x: Laplacian energy = area.
    x = grid.coords[:, 0]
    assert x @ K @ x == pytest.approx(2.0, rel=1e-12)


def test_edge_load_left():
    grid = fem.quad_grid(4, 5, 2.0, 1.0)
    f = fem.edge_load_left(grid, 0.4, 0.6)
    # Unit traction over one 0.2-long edge segment splits evenly onto its
    # two end nodes; all other nodes carry nothing.
    assert f.sum() == pytest.approx(0.2)
    nonzero = np.nonzero(f)[0]
    assert len(nonzero) == 2
    for node in nonzero:
        assert grid.coords[node, 0] == pytest.approx(0.0)
        assert grid.coords[node, 1] in (pytest.approx(0.4), pytest.approx(0.6))
    full = fem.edge_load_left(grid, 0.0, 1.0)
    assert full.sum() == pytest.approx(1.0)


def test_eliminate_dofs():
    M = np.diag([1.0, 2.0, 3.0, 4.0])
    K = np.arange(16, dtype=float).reshape(4, 4)
    K = K + K.T
    M_red, K_red, free = fem.eliminate_dofs(M, K, np.array([1]))
    np.testing.assert_array_equal(free, [0, 2, 3])
    np.testing.assert_allclose(M_red, np.diag([1.0, 3.0, 4.0]))
    np.testing.assert_allclose(K_red, K[np.ix_(free, free)])


def test_degenerate_element_rejected():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    conn = np.array([[0, 1, 2, 3]])  # self-intersecting ordering
    grid = fem.QuadGrid(coords=coords, conn=conn)
    with pytest.raises(ValueError):
        fem.assemble_plane_strain(grid, 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Vectorised assembly against the per-element loop, in both storages
# ---------------------------------------------------------------------------

def _assert_matches_oracle(got, want):
    for g, w in zip(got, want):
        assert g.shape == w.shape
        np.testing.assert_allclose(linalg.dense(g), w, rtol=0, atol=1e-14 * np.abs(w).max())


@pytest.mark.parametrize("n_elems", [7, 300])
def test_bar_assembly_matches_element_loop(n_elems):
    coords = fem.bar_mesh(n_elems, 1.3, x0=0.2)
    got = fem.assemble_bar(coords, 1e4, 0.1, 2.0)
    _assert_matches_oracle(got, fem_oracle.assemble_bar(coords, 1e4, 0.1, 2.0))
    assert scipy.sparse.issparse(got[0]) == (n_elems + 1 >= linalg.SPARSE_MIN_DOFS)


@pytest.mark.parametrize("nx, ny", [(3, 4), (12, 10)])
def test_plane_strain_assembly_matches_element_loop(nx, ny):
    grid = fem.quad_grid(nx, ny, 1.5, 1.0, x0=0.3)
    got = fem.assemble_plane_strain(grid, 40.0, 30.0, 7.0)
    _assert_matches_oracle(got, fem_oracle.assemble_plane_strain(grid, 40.0, 30.0, 7.0))
    assert scipy.sparse.issparse(got[0]) == (2 * grid.n_nodes >= linalg.SPARSE_MIN_DOFS)


@pytest.mark.parametrize("nx, ny", [(5, 4), (18, 15)])
def test_scalar_wave_assembly_matches_element_loop(nx, ny):
    grid = fem.quad_grid(nx, ny, 2.0, 1.0, y0=-0.5)
    got = fem.assemble_scalar_wave(grid, 1.7)
    _assert_matches_oracle(got, fem_oracle.assemble_scalar_wave(grid, 1.7))
    assert scipy.sparse.issparse(got[0]) == (grid.n_nodes >= linalg.SPARSE_MIN_DOFS)


def test_eliminate_dofs_sparse_input():
    grid = fem.quad_grid(18, 15, 2.0, 1.0)
    M, K = fem.assemble_scalar_wave(grid, 1.0)
    fixed = np.arange(0, grid.n_nodes, 3)
    M_red, K_red, free = fem.eliminate_dofs(M, K, fixed)
    assert scipy.sparse.issparse(K_red)  # 202 free DOFs: still sparse
    np.testing.assert_array_equal(K_red.toarray(), K.toarray()[np.ix_(free, free)])
    M_small, _, free = fem.eliminate_dofs(M, K, np.arange(150))
    assert isinstance(M_small, np.ndarray)  # 154 free DOFs: dense
    np.testing.assert_array_equal(M_small, M.toarray()[np.ix_(free, free)])
