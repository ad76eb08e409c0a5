"""Small finite-element assembly kit for the benchmark problems.

Covers exactly what the benchmarks need: 2-node linear bar elements with
consistent mass, and 4-node bilinear quadrilaterals with 2x2 Gauss
quadrature for plane-strain elasticity and for the scalar wave equation.
Dirichlet conditions are applied by DOF elimination so the reduced mass
matrix stays SPD and the stiffness PSD.

Assembly is vectorised over elements: the element matrices of all
elements are computed at once and summed as one COO matrix.  Every
assembled or reduced matrix passes through :func:`mtstep.linalg.operator`,
so small meshes come back as dense arrays and large ones as CSR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from . import linalg

# 2x2 Gauss points and weights on [-1, 1]^2.
_GP = 1.0 / np.sqrt(3.0)
_GAUSS_2D = [(-_GP, -_GP), (_GP, -_GP), (_GP, _GP), (-_GP, _GP)]


def _assemble(dofs: np.ndarray, blocks: np.ndarray, n: int):
    """Sum element matrices ``blocks[e]`` into rows/columns ``dofs[e]``.

    ``dofs`` is (n_elems, k) and ``blocks`` (n_elems, k, k); the result is
    an n x n operator in the storage :func:`mtstep.linalg.operator` picks.
    """
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    coo = scipy.sparse.coo_array((blocks.ravel(), (rows, cols)), shape=(n, n))
    return linalg.operator(coo)


# ---------------------------------------------------------------------------
# 1-D bar
# ---------------------------------------------------------------------------

def bar_mesh(n_elems: int, length: float, x0: float = 0.0) -> np.ndarray:
    """Uniform 1-D mesh: node coordinates for ``n_elems`` line elements."""
    if n_elems < 1:
        raise ValueError("need at least one element")
    return x0 + np.linspace(0.0, length, n_elems + 1)


def assemble_bar(coords: np.ndarray, E: float, rho: float, A: float):
    """Mass and stiffness of an axial bar on a 1-D mesh.

    Element matrices (length h), with consistent mass:

        k_e = EA/h [[1, -1], [-1, 1]]
        m_e = rho A h / 6 [[2, 1], [1, 2]]
    """
    coords = np.asarray(coords, dtype=float)
    h = np.diff(coords)
    if (h <= 0.0).any():
        raise ValueError("node coordinates must be strictly increasing")
    ke = (E * A / h)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    me = (rho * A * h / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
    nodes = np.arange(coords.size)
    dofs = np.column_stack([nodes[:-1], nodes[1:]])
    return _assemble(dofs, me, coords.size), _assemble(dofs, ke, coords.size)


# ---------------------------------------------------------------------------
# Structured quadrilateral grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadGrid:
    """Structured grid of 4-node quadrilaterals on a rectangle."""

    coords: np.ndarray  # (n_nodes, 2)
    conn: np.ndarray    # (n_elems, 4), counterclockwise

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elems(self) -> int:
        return self.conn.shape[0]


def quad_grid(
    nx: int, ny: int, Lx: float, Ly: float, x0: float = 0.0, y0: float = 0.0
) -> QuadGrid:
    """nx-by-ny structured mesh of the rectangle [x0, x0+Lx] x [y0, y0+Ly].

    Nodes are numbered row-major with x varying fastest; element
    connectivity is counterclockwise.
    """
    xs = x0 + np.linspace(0.0, Lx, nx + 1)
    ys = y0 + np.linspace(0.0, Ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    coords = np.column_stack([X.ravel(), Y.ravel()])

    row, col = np.divmod(np.arange(nx * ny), nx)
    n0 = row * (nx + 1) + col
    conn = np.column_stack([n0, n0 + 1, n0 + nx + 2, n0 + nx + 1])
    return QuadGrid(coords=coords, conn=conn)


def _shape_functions(xi: float, eta: float):
    """Bilinear shape functions and parent-space gradients at (xi, eta)."""
    signs = np.array([(-1, -1), (1, -1), (1, 1), (-1, 1)], dtype=float)
    N = 0.25 * (1.0 + signs[:, 0] * xi) * (1.0 + signs[:, 1] * eta)
    dN = np.column_stack([
        0.25 * signs[:, 0] * (1.0 + signs[:, 1] * eta),
        0.25 * signs[:, 1] * (1.0 + signs[:, 0] * xi),
    ])
    return N, dN


def _quadrature_data(xy: np.ndarray):
    """Per Gauss point: N (4,), physical gradients (n_elems, 4, 2), det J (n_elems,).

    ``xy`` holds the node coordinates of every element, (n_elems, 4, 2).
    """
    for xi, eta in _GAUSS_2D:
        N, dN = _shape_functions(xi, eta)
        J = np.einsum("ai,eaj->eij", dN, xy)  # d(x, y)/d(xi, eta) per element
        detJ = np.linalg.det(J)
        if (detJ <= 0.0).any():
            raise ValueError("degenerate or inverted element")
        grad = dN @ np.linalg.inv(J)
        yield N, grad, detJ  # unit Gauss weights in 2x2 rule


def assemble_plane_strain(grid: QuadGrid, lam: float, mu: float, rho: float):
    """Consistent mass and stiffness for plane-strain elasticity.

    Two DOFs per node ordered (u_x, u_y) node-major.  Constitutive matrix
    in Voigt form (e_xx, e_yy, g_xy):

        D = [[lam + 2 mu, lam,        0 ],
             [lam,        lam + 2 mu, 0 ],
             [0,          0,          mu]]
    """
    D = np.array([
        [lam + 2.0 * mu, lam, 0.0],
        [lam, lam + 2.0 * mu, 0.0],
        [0.0, 0.0, mu],
    ])
    n_el = grid.n_elems
    ke = np.zeros((n_el, 8, 8))
    me = np.zeros((n_el, 8, 8))
    B = np.zeros((n_el, 3, 8))
    for N, grad, detJ in _quadrature_data(grid.coords[grid.conn]):
        B[:, 0, 0::2] = grad[:, :, 0]
        B[:, 1, 1::2] = grad[:, :, 1]
        B[:, 2, 0::2] = grad[:, :, 1]
        B[:, 2, 1::2] = grad[:, :, 0]
        ke += B.transpose(0, 2, 1) @ D @ B * detJ[:, None, None]
        Nmat = np.zeros((2, 8))
        Nmat[0, 0::2] = N
        Nmat[1, 1::2] = N
        me += rho * Nmat.T @ Nmat * detJ[:, None, None]
    dofs = np.empty((n_el, 8), dtype=int)
    dofs[:, 0::2] = 2 * grid.conn
    dofs[:, 1::2] = 2 * grid.conn + 1
    n_dof = 2 * grid.n_nodes
    return _assemble(dofs, me, n_dof), _assemble(dofs, ke, n_dof)


def assemble_scalar_wave(grid: QuadGrid, c0: float):
    """Consistent mass and stiffness for (1/c0^2) u_tt - div(grad u) = f.

    One DOF per node; M carries the 1/c0^2 density, K is the Laplacian
    stiffness.
    """
    n_el = grid.n_elems
    ke = np.zeros((n_el, 4, 4))
    me = np.zeros((n_el, 4, 4))
    inv_c2 = 1.0 / (c0 * c0)
    for N, grad, detJ in _quadrature_data(grid.coords[grid.conn]):
        ke += grad @ grad.transpose(0, 2, 1) * detJ[:, None, None]
        me += inv_c2 * np.outer(N, N) * detJ[:, None, None]
    return _assemble(grid.conn, me, grid.n_nodes), _assemble(grid.conn, ke, grid.n_nodes)


def edge_load_left(grid: QuadGrid, y_lo: float, y_hi: float) -> np.ndarray:
    """Consistent nodal load for unit line traction on x = min(x) edge.

    Integrates linear shape functions over the edge segments of the left
    boundary lying inside [y_lo, y_hi] (segment ends must coincide with
    mesh nodes, to 1e-12).  Returns one value per node; scale by the
    traction magnitude and time factor at call time.
    """
    tol = 1e-12
    x_min = grid.coords[:, 0].min()
    on_edge = np.abs(grid.coords[:, 0] - x_min) <= tol
    idx = np.nonzero(on_edge)[0]
    idx = idx[np.argsort(grid.coords[idx, 1])]
    f = np.zeros(grid.n_nodes)
    for a, b in zip(idx, idx[1:]):
        ya, yb = grid.coords[a, 1], grid.coords[b, 1]
        if ya >= y_lo - tol and yb <= y_hi + tol:
            h = yb - ya
            f[a] += 0.5 * h
            f[b] += 0.5 * h
    return f


def eliminate_dofs(M, K, fixed: np.ndarray):
    """Remove homogeneous-Dirichlet DOFs; returns (M_red, K_red, free_idx).

    ``M`` and ``K`` may be dense or sparse; the reduced matrices get the
    storage :func:`mtstep.linalg.operator` picks for their size.
    """
    n = M.shape[0]
    fixed = np.asarray(fixed, dtype=int)
    mask = np.ones(n, dtype=bool)
    mask[fixed] = False
    free = np.nonzero(mask)[0]
    keep = np.ix_(free, free)
    return linalg.operator(M[keep]), linalg.operator(K[keep]), free
