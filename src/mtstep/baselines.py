"""Comparison baselines for the coupled Newmark solver.

Two reference integrators:

* :func:`backward_euler_step` — backward Euler applied to the first-order
  DAE form of the constrained system.  Unconditionally stable but only
  first-order accurate and strictly dissipative: per step (f = 0)

      E^(n+1) - E^(n) = - sum_i (T_i(v^(n+1) - v^n) + V_i(d^(n+1) - d^n))

  which is negative for any non-trivial motion, so it bleeds energy far
  faster than the coupled Newmark scheme.  :func:`backward_euler_decay`
  evaluates the right-hand side.

* :func:`merged_newmark_reference` — eliminates the interface DOFs by
  direct identification (primal assembly) and integrates the undecomposed
  system with a single Newmark scheme.  Useful as an oracle when all
  subdomains share (beta, gamma) and there is no subcycling.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse

from . import linalg
from .coupling import (
    CoupledSystem,
    SignedBooleanMatrix,
    SubstepHistory,
    SystemStepResult,
    require_finite,
)
from .diagnostics import level_energy
from .errors import NonFiniteState, SingularSaddleSystem
from .newmark import EffectiveSolver, KinematicState, critical_time_step


def _backward_euler_factor(sys: CoupledSystem) -> linalg.Factor:
    """LU factor of the constant backward-Euler saddle matrix

        [[M_i / dt + dt K_i, -C_i^T],
         [C_i,               0     ]]      (one block row per subdomain)

    dense or sparse as its size calls for.
    """
    dt = sys.dt_system
    n_subs = len(sys.subdomains)
    blocks = [[None] * (n_subs + 1) for _ in range(n_subs + 1)]
    for i, sub in enumerate(sys.subdomains):
        C = scipy.sparse.coo_array(
            (sub.C.signs, (sub.C.rows, sub.C.dofs)), shape=sub.C.shape
        )
        # Substituting d^(n+1) = d^n + dt v^(n+1) into the momentum row:
        blocks[i][i] = scipy.sparse.coo_array(sub.M / dt + dt * sub.K)
        blocks[i][n_subs] = -C.T
        blocks[n_subs][i] = C
    n_c = sys.n_constraints
    blocks[n_subs][n_subs] = scipy.sparse.coo_array((n_c, n_c))
    try:
        return linalg.lu_factor(linalg.operator(scipy.sparse.block_array(blocks)))
    except linalg.SingularMatrix as exc:
        raise SingularSaddleSystem(str(exc)) from exc


def backward_euler_step(sys: CoupledSystem) -> SystemStepResult:
    """One backward-Euler step of the first-order constrained system.

    Solves, monolithically for (v^(n+1) per subdomain, lam^(n+1)):

        M_i (v^(n+1) - v^n)/dt + K_i d^(n+1) = f_i^(n+1) + C_i^T lam^(n+1)
        d^(n+1) = d^n + dt v^(n+1)
        sum_i C_i v^(n+1) = 0

    The system matrix is the same at every step, so it is factored once
    and kept in the system's plan.  Subcycling is not part of this
    baseline: every subdomain is stepped at the system time-step
    regardless of its dt_sub, and each history has one level.  The
    reported acceleration is the difference quotient (v^(n+1) - v^n)/dt.
    Raises :class:`mtstep.errors.NonFiniteState` as the coupled step
    does.
    """
    dt = sys.dt_system
    t_n = sys.t_current
    factor = sys.plan.memo("backward_euler", lambda: _backward_euler_factor(sys))
    loads = [sub.loads(t_n, 1, dt) for sub in sys.subdomains]
    rhs = [
        f[1] + sub.M @ st.v / dt - sub.K @ st.d
        for sub, st, f in zip(sys.subdomains, sys.states, loads)
    ]
    sol = factor.solve(np.concatenate([*rhs, np.zeros(sys.n_constraints)]))

    histories = []
    offset = 0
    for sub, st, f in zip(sys.subdomains, sys.states, loads):
        n = sub.n_dofs
        v_new = sol[offset:offset + n]
        d_new = st.d + dt * v_new
        a_new = (v_new - st.v) / dt
        histories.append(SubstepHistory(
            a=a_new[np.newaxis], v=v_new[np.newaxis], d=d_new[np.newaxis], f=f
        ))
        offset += n
    result = SystemStepResult(histories=tuple(histories), lambda_next=sol[offset:])
    require_finite(result)
    return result


def backward_euler_decay(result: SystemStepResult, sys: CoupledSystem) -> float:
    """Energy change E^(n+1) - E^(n) of one force-free backward-Euler step.

    Evaluates - sum_i (T_i(v^(n+1) - v^n) + V_i(d^(n+1) - d^n)) from the
    step ``result`` and the system ``sys`` it was computed from.
    """
    decay = 0.0
    for sub, st, hist in zip(sys.subdomains, sys.states, result.histories):
        dv = hist.v[-1] - st.v
        dd = hist.d[-1] - st.d
        decay -= level_energy([(sub.M, sub.K, dv, dd)]).total
    return decay


def merge_dof_map(
    constraints: Sequence[SignedBooleanMatrix],
) -> tuple[list[np.ndarray], int]:
    """Identify constrained DOF pairs across subdomains (primal gluing).

    ``constraints[i]`` is C_i of subdomain i.  Each row links the DOFs it
    selects, in subdomain order; the connected components of those links
    are the undecomposed DOFs, numbered by their lowest stacked DOF.
    Returns one index map per subdomain (local -> merged DOF) and the size.
    """
    # Imported on first use: coupled runs never load csgraph.
    from scipy.sparse.csgraph import connected_components

    offsets = np.cumsum([0] + [C.shape[1] for C in constraints])
    # Every entry as (row, merged-numbering DOF), by row, then subdomain.
    rows = np.concatenate([C.rows for C in constraints])
    dofs = np.concatenate([C.dofs + off for C, off in zip(constraints, offsets)])
    order = np.argsort(rows, kind="stable")
    rows, dofs = rows[order], dofs[order]
    same_row = rows[1:] == rows[:-1]
    pairs = dofs[:-1][same_row], dofs[1:][same_row]
    links = scipy.sparse.coo_array((np.ones(same_row.sum()), pairs), shape=(offsets[-1],) * 2)
    size, labels = connected_components(links, directed=False)
    return np.split(labels.astype(np.intp), offsets[1:-1]), size


def merge_system_matrices(sys: CoupledSystem):
    """Assemble the undecomposed (M, K, load, dof maps) of a coupled model.

    M and K get the storage :func:`mtstep.linalg.operator` picks for the
    merged size; shared entries are summed in subdomain order.  ``load``
    maps a time to the merged load vector, summed the same way.
    """
    subs = sys.subdomains
    maps, size = merge_dof_map([sub.C for sub in subs])

    def merged(attr: str):
        parts = [scipy.sparse.coo_array(getattr(sub, attr)) for sub in subs]
        rows = np.concatenate([mp[p.row] for p, mp in zip(parts, maps)])
        cols = np.concatenate([mp[p.col] for p, mp in zip(parts, maps)])
        data = np.concatenate([p.data for p in parts])
        return linalg.operator(scipy.sparse.coo_array((data, (rows, cols)), shape=(size, size)))

    def load(t: float) -> np.ndarray:
        f = np.zeros(size)
        for sub, mp in zip(subs, maps):
            np.add.at(f, mp, sub.loads(t)[0])
        return f

    return merged("M"), merged("K"), load, maps


def merged_newmark_reference(sys: CoupledSystem, n_steps: int) -> tuple:
    """Integrate the undecomposed system with the subdomains' Newmark scheme.

    Initial conditions are taken from the coupled system's current
    states (interface copies must agree; the first owner wins), and the
    initial acceleration from the equation of motion,
    ``M a0 = f(t0) - K d0``.  Each step solves the predictor rows

        d_pred = d + dt v + dt^2/2 (1 - 2 beta) a
        v_pred = v + dt (1 - gamma) a

    with the end-of-step load (:meth:`EffectiveSolver.solve_rows`).
    Returns ``(states, M, K, maps)``: an iterator that computes each
    merged-DOF state as it is taken, the initial one first, and the
    :func:`merge_system_matrices` it integrates.  Raises ``ValueError``
    unless the subdomains share one (beta, gamma) and ``dt_system`` is
    below the merged critical time-step, and :class:`NonFiniteState`
    when the state taken is not finite.
    """
    params = sys.subdomains[0].params
    if any(sub.params != params for sub in sys.subdomains[1:]):
        raise ValueError("monolithic_newmark requires uniform Newmark parameters")
    M, K, load, maps = merge_system_matrices(sys)
    dt = sys.dt_system
    crit = critical_time_step(M, K, params)
    if not dt < crit:
        raise ValueError(
            f"dt_system = {dt:g} exceeds the merged critical time-step {crit:g}"
        )
    d, v = np.zeros((2, M.shape[0]))
    for st, mp in zip(sys.states, maps):
        d[mp] = st.d
        v[mp] = st.v
    t = sys.t_current
    a = linalg.cholesky_factor(M).solve(load(t) - K @ d)
    solver = EffectiveSolver(M, K, params, dt)
    c_d = 0.5 * dt * dt * (1.0 - 2.0 * params.beta)
    c_v = dt * (1.0 - params.gamma)

    def states(t, a, v, d):
        yield KinematicState(d=d, v=v, a=a)
        for step in range(n_steps):
            t += dt
            a, v, d = solver.solve_rows(load(t), v + c_v * a, d + dt * v + c_d * a)
            if not all(np.isfinite(x).all() for x in (a, v, d)):
                raise NonFiniteState(f"non-finite merged state at step {step}")
            yield KinematicState(d=d, v=v, a=a)

    return states(t, a, v, d), M, K, maps
