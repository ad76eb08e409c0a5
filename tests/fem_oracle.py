"""Per-element loop assembly, kept as a reference for the vectorised assemblers.

Each function sums one element matrix at a time into dense n x n arrays,
the way the library assembled before its assembly was vectorised.  The
tests compare :mod:`mtstep.fem` against these to round-off.
"""

import numpy as np

from mtstep.fem import _GAUSS_2D, QuadGrid, _shape_functions


def assemble_bar(coords, E, rho, A, lumped=False):
    n = coords.size
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    for e in range(n - 1):
        h = coords[e + 1] - coords[e]
        ke = (E * A / h) * np.array([[1.0, -1.0], [-1.0, 1.0]])
        if lumped:
            me = (rho * A * h / 2.0) * np.eye(2)
        else:
            me = (rho * A * h / 6.0) * np.array([[2.0, 1.0], [1.0, 2.0]])
        idx = (e, e + 1)
        K[np.ix_(idx, idx)] += ke
        M[np.ix_(idx, idx)] += me
    return M, K


def _quadrature_data(xy):
    for xi, eta in _GAUSS_2D:
        N, dN = _shape_functions(xi, eta)
        J = dN.T @ xy
        yield N, dN @ np.linalg.inv(J), np.linalg.det(J)


def assemble_plane_strain(grid: QuadGrid, lam, mu, rho):
    D = np.array([
        [lam + 2.0 * mu, lam, 0.0],
        [lam, lam + 2.0 * mu, 0.0],
        [0.0, 0.0, mu],
    ])
    n_dof = 2 * grid.n_nodes
    M = np.zeros((n_dof, n_dof))
    K = np.zeros((n_dof, n_dof))
    for nodes in grid.conn:
        ke = np.zeros((8, 8))
        me = np.zeros((8, 8))
        for N, grad, detJ in _quadrature_data(grid.coords[nodes]):
            B = np.zeros((3, 8))
            B[0, 0::2] = grad[:, 0]
            B[1, 1::2] = grad[:, 1]
            B[2, 0::2] = grad[:, 1]
            B[2, 1::2] = grad[:, 0]
            ke += B.T @ D @ B * detJ
            Nmat = np.zeros((2, 8))
            Nmat[0, 0::2] = N
            Nmat[1, 1::2] = N
            me += rho * Nmat.T @ Nmat * detJ
        dofs = np.empty(8, dtype=int)
        dofs[0::2] = 2 * nodes
        dofs[1::2] = 2 * nodes + 1
        K[np.ix_(dofs, dofs)] += ke
        M[np.ix_(dofs, dofs)] += me
    return M, K


def assemble_scalar_wave(grid: QuadGrid, c0):
    n = grid.n_nodes
    M = np.zeros((n, n))
    K = np.zeros((n, n))
    inv_c2 = 1.0 / (c0 * c0)
    for nodes in grid.conn:
        ke = np.zeros((4, 4))
        me = np.zeros((4, 4))
        for N, grad, detJ in _quadrature_data(grid.coords[nodes]):
            ke += grad @ grad.T * detJ
            me += inv_c2 * np.outer(N, N) * detJ
        K[np.ix_(nodes, nodes)] += ke
        M[np.ix_(nodes, nodes)] += me
    return M, K
