"""Dense saddle-point reference for the coupled system step.

Assembles the full monolithic system of one system step: every sub-level
(a, v, d) of every subdomain plus the multiplier increment dlam, and
solves it with one pivoted LU.  The library never forms this matrix (it
eliminates the subdomain blocks and solves only the interface Schur
complement); the tests use it as an independent oracle.  Its size is
3 sum_i n_i eta_i + N_C, so it is only practical for small systems.
"""

import numpy as np

from mtstep import linalg
from mtstep.coupling import CoupledSystem, Subdomain, SubstepHistory, SystemStepResult
from mtstep.errors import DimensionMismatch, SingularSaddleSystem
from mtstep.newmark import EffectiveSolver, KinematicState


def interpolate_lambda(
    lam_n: np.ndarray, lam_np1: np.ndarray, j: int, eta: int
) -> np.ndarray:
    """Linear multiplier interpolant (1 - j/eta) lam^n + (j/eta) lam^(n+1)."""
    lam_n = np.asarray(lam_n, dtype=float)
    lam_np1 = np.asarray(lam_np1, dtype=float)
    if lam_n.shape != lam_np1.shape:
        raise DimensionMismatch(
            f"multiplier shapes differ: {lam_n.shape} vs {lam_np1.shape}"
        )
    if not 0 <= j <= eta:
        raise ValueError(f"sublevel j={j} outside [0, {eta}]")
    w = j / eta
    return (1.0 - w) * lam_n + w * lam_np1


def apply_R(sub: Subdomain, a, v, d):
    """Apply the history operator R_i to an (a, v, d) triplet.

    Returns the (ra, rv, rd) rows of R_i X; the acceleration row of R_i
    is identically zero.
    """
    dt = sub.dt_sub
    beta, gamma = sub.params.beta, sub.params.gamma
    ra = np.zeros_like(np.asarray(a, dtype=float))
    rv = (1.0 - gamma) * dt * a + v
    rd = (0.5 - beta) * dt * dt * a + dt * v + d
    return ra, rv, rd


def assemble_L_R(sub: Subdomain) -> tuple[np.ndarray, np.ndarray]:
    """Augmented substep matrices, block order (a, v, d).

    L = [[ M,               0,  K ],          R = [[ 0,               0,     0 ],
         [-gamma dt I,      I,  0 ],               [(1-gamma) dt I,   I,     0 ],
         [-beta dt^2 I,     0,  I ]]              [(1/2-beta) dt^2 I, dt I,  I ]]

    so that L X^(j+1) = P + (interface terms) + R X^(j) reproduces the
    Newmark updates together with the equation of motion.
    """
    n = sub.n_dofs
    dt = sub.dt_sub
    beta, gamma = sub.params.beta, sub.params.gamma
    I = np.eye(n)
    Z = np.zeros((n, n))
    L = np.block([
        [linalg.dense(sub.M), Z, linalg.dense(sub.K)],  # dense or CSR storage
        [-gamma * dt * I, I, Z],
        [-beta * dt * dt * I, Z, I],
    ])
    R = np.block([
        [Z, Z, Z],
        [(1.0 - gamma) * dt * I, I, Z],
        [(0.5 - beta) * dt * dt * I, dt * I, I],
    ])
    return L, R


def subdomain_substep(
    sub: Subdomain,
    X_prev: KinematicState,
    lam_n: np.ndarray,
    lam_np1: np.ndarray,
    j: int,
    eta: int,
    f_next: np.ndarray,
) -> KinematicState:
    """Advance one subdomain from sub-level j-1 to sub-level j.

    Solves L X - (j/eta) Ct^T (lam^(n+1) - lam^n) = P + Ct^T lam^n + R X_prev,
    i.e. a Newmark substep under the interpolated interface force
    C^T lam^(n + j/eta).
    """
    if not 1 <= j <= eta:
        raise ValueError(f"sublevel j={j} outside [1, {eta}]")
    lam_j = interpolate_lambda(lam_n, lam_np1, j, eta)
    solver = EffectiveSolver(sub.M, sub.K, sub.params, sub.dt_sub)
    ra, rv, rd = apply_R(sub, X_prev.a, X_prev.v, X_prev.d)
    ra = ra + np.asarray(f_next, dtype=float) + sub.C.toarray().T @ lam_j
    a, v, d = solver.solve_rows(ra, rv, rd)
    return KinematicState(d=d, v=v, a=a)


def assemble_saddle(sys: CoupledSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Assemble the monolithic blocks (A, B, C_blk) of the saddle system.

    Unknown ordering is subdomain-major, sub-level-major, then (a, v, d)
    blocks.  A is block diagonal over subdomains, each block being lower
    bidiagonal with L_i on the diagonal and -R_i below; B carries the
    -(j/eta_i) C_i^T coefficients on the acceleration rows; C_blk picks the
    velocity rows of the final sub-level of every subdomain.
    """
    n_c = sys.n_constraints
    sizes = [3 * sub.n_dofs * eta for sub, eta in zip(sys.subdomains, sys.eta)]
    total = sum(sizes)
    A = np.zeros((total, total))
    B = np.zeros((total, n_c))
    C_blk = np.zeros((n_c, total))

    offset = 0
    for sub, eta in zip(sys.subdomains, sys.eta):
        n = sub.n_dofs
        L, R = assemble_L_R(sub)
        for j in range(1, eta + 1):
            row = offset + (j - 1) * 3 * n
            A[row:row + 3 * n, row:row + 3 * n] = L
            if j > 1:
                prev = offset + (j - 2) * 3 * n
                A[row:row + 3 * n, prev:prev + 3 * n] = -R
            B[row:row + n, :] = -(j / eta) * sub.C.toarray().T
        last = offset + (eta - 1) * 3 * n
        C_blk[:, last + n:last + 2 * n] = sub.C.toarray()
        offset += 3 * n * eta
    return A, B, C_blk


def assemble_rhs(sys: CoupledSystem) -> np.ndarray:
    """Assemble the right-hand side F of the monolithic system.

    Each sub-level contributes (f_i + C_i^T lam^n, 0, 0); the first
    sub-level of every subdomain additionally carries R_i X_i^(n).
    """
    lam_n = sys.lambda_current
    parts = []
    for sub, eta, st in zip(sys.subdomains, sys.eta, sys.states):
        Ct_lam = sub.C.toarray().T @ lam_n
        ra0, rv0, rd0 = apply_R(sub, st.a, st.v, st.d)
        f = sub.loads(sys.t_current, eta)
        for j in range(1, eta + 1):
            ra = f[j] + Ct_lam
            rv = np.zeros(sub.n_dofs)
            rd = np.zeros(sub.n_dofs)
            if j == 1:
                ra, rv, rd = ra + ra0, rv + rv0, rd + rd0
            parts.extend((ra, rv, rd))
    return np.concatenate(parts)


def solve_saddle(sys: CoupledSystem, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve the assembled saddle system [[A, B], [C, 0]] (X, dlam) = (F, 0).

    Reference path; returns the stacked sub-level unknowns X and the
    multiplier increment dlam.
    """
    A, B, C_blk = assemble_saddle(sys)
    n_c = sys.n_constraints
    total = A.shape[0]
    F = np.asarray(F, dtype=float)
    if F.shape != (total,):
        raise DimensionMismatch(f"F has shape {F.shape}, expected ({total},)")
    saddle = np.zeros((total + n_c, total + n_c))
    saddle[:total, :total] = A
    saddle[:total, total:] = B
    saddle[total:, :total] = C_blk
    rhs = np.concatenate([F, np.zeros(n_c)])
    try:
        sol = linalg.solve_general(saddle, rhs)
    except linalg.SingularMatrix as exc:
        raise SingularSaddleSystem(str(exc)) from exc
    return sol[:total], sol[total:]


def advance_monolithic(sys: CoupledSystem) -> SystemStepResult:
    """One system step through the assembled saddle system.

    Same contract as :func:`mtstep.coupling.advance_system_step`, which
    must agree with it to well below 1e-8.
    """
    X, dlam = solve_saddle(sys, assemble_rhs(sys))
    histories = []
    offset = 0
    for sub, eta in zip(sys.subdomains, sys.eta):
        n = sub.n_dofs
        levels = X[offset:offset + 3 * n * eta].reshape(eta, 3, n)  # (a, v, d) blocks
        f = sub.loads(sys.t_current, eta)
        histories.append(
            SubstepHistory.swept(levels.transpose(1, 0, 2), f, sub.C)
        )
        offset += 3 * n * eta
    return SystemStepResult(
        histories=tuple(histories), lambda_next=sys.lambda_current + dlam
    )
