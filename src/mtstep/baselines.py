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

import numpy as np
import scipy.sparse

from . import linalg
from .coupling import CoupledSystem, SystemStepResult
from .errors import SingularSaddleSystem
from .newmark import KinematicState, NewmarkParams


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
        # Substituting d^(n+1) = d^n + dt v^(n+1) into the momentum row:
        blocks[i][i] = scipy.sparse.coo_array(sub.M / dt + dt * sub.K)
        blocks[i][n_subs] = scipy.sparse.coo_array(-sub.C.data.T)
        blocks[n_subs][i] = scipy.sparse.coo_array(sub.C.data)
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
    regardless of its dt_sub.  The reported acceleration is the
    difference quotient (v^(n+1) - v^n)/dt.
    """
    dt = sys.dt_system
    factor = sys.plan.cached("backward_euler", lambda: _backward_euler_factor(sys))
    rhs = [
        np.asarray(sub.force(sys.t_current + dt), dtype=float)
        + sub.M @ st.v / dt
        - sub.K @ st.d
        for sub, st in zip(sys.subdomains, sys.states)
    ]
    sol = factor.solve(np.concatenate([*rhs, np.zeros(sys.n_constraints)]))

    new_states = []
    offset = 0
    for sub, st in zip(sys.subdomains, sys.states):
        n = sub.n_dofs
        v_new = sol[offset:offset + n]
        d_new = st.d + dt * v_new
        a_new = (v_new - st.v) / dt
        new_states.append((KinematicState(d=d_new, v=v_new, a=a_new),))
        offset += n
    return SystemStepResult(
        new_states=tuple(new_states), lambda_next=sol[offset:]
    )


def backward_euler_decay(result: SystemStepResult, sys: CoupledSystem) -> float:
    """Energy change E^(n+1) - E^(n) of one force-free backward-Euler step.

    Evaluates - sum_i (T_i(v^(n+1) - v^n) + V_i(d^(n+1) - d^n)) from the
    step ``result`` and the system ``sys`` it was computed from.
    """
    decay = 0.0
    for sub, st, hist in zip(sys.subdomains, sys.states, result.new_states):
        dv = hist[-1].v - st.v
        dd = hist[-1].d - st.d
        decay -= 0.5 * float(dv @ (sub.M @ dv)) + 0.5 * float(dd @ (sub.K @ dd))
    return decay


def merge_dof_map(sys: CoupledSystem) -> tuple[list[np.ndarray], int]:
    """Identify constrained DOF pairs across subdomains (primal gluing).

    Every constraint row links (at most) two DOFs with opposite signs;
    union-find over those links yields the undecomposed DOF set.  Returns
    one index map per subdomain (local DOF -> merged DOF) and the merged
    size.
    """
    offsets = np.cumsum([0] + [sub.n_dofs for sub in sys.subdomains])
    total = int(offsets[-1])
    parent = list(range(total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for row in range(sys.n_constraints):
        linked = []
        for i, sub in enumerate(sys.subdomains):
            cols = np.nonzero(sub.C.data[row])[0]
            for col in cols:
                linked.append(int(offsets[i]) + int(col))
        for a, b in zip(linked, linked[1:]):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

    roots = sorted({find(x) for x in range(total)})
    root_index = {r: k for k, r in enumerate(roots)}
    maps = []
    for i, sub in enumerate(sys.subdomains):
        local = np.array(
            [root_index[find(int(offsets[i]) + k)] for k in range(sub.n_dofs)],
            dtype=int,
        )
        maps.append(local)
    return maps, len(roots)


def merge_system_matrices(sys: CoupledSystem):
    """Assemble the undecomposed (M, K, force, dof maps) of a coupled model.

    M and K get the storage :func:`mtstep.linalg.operator` picks for the
    merged size; shared entries are summed in subdomain order.
    """
    maps, size = merge_dof_map(sys)
    subs = sys.subdomains

    def merged(attr: str):
        parts = [scipy.sparse.coo_array(getattr(sub, attr)) for sub in subs]
        rows = np.concatenate([mp[p.row] for p, mp in zip(parts, maps)])
        cols = np.concatenate([mp[p.col] for p, mp in zip(parts, maps)])
        data = np.concatenate([p.data for p in parts])
        return linalg.operator(scipy.sparse.coo_array((data, (rows, cols)), shape=(size, size)))

    def force(t: float) -> np.ndarray:
        f = np.zeros(size)
        for sub, mp in zip(subs, maps):
            np.add.at(f, mp, np.asarray(sub.force(t), dtype=float))
        return f

    return merged("M"), merged("K"), force, maps


def merged_newmark_reference(
    sys: CoupledSystem, params: NewmarkParams, n_steps: int
) -> list[KinematicState]:
    """Integrate the undecomposed system with one Newmark scheme.

    Initial conditions are taken from the coupled system's current
    states (interface copies must agree; the first owner wins).  Returns
    the merged-DOF trajectory including the initial state.
    """
    from .newmark import EffectiveSolver, consistent_initial_acceleration

    M, K, force, maps = merge_system_matrices(sys)
    size = M.shape[0]
    d0 = np.zeros(size)
    v0 = np.zeros(size)
    for sub, st, mp in zip(sys.subdomains, sys.states, maps):
        d0[mp] = st.d
        v0[mp] = st.v
    a0 = consistent_initial_acceleration(M, K, force(sys.t_current), d0)
    state = KinematicState(d=d0, v=v0, a=a0)
    solver = EffectiveSolver(M, K, params, sys.dt_system)
    out = [state]
    t = sys.t_current
    for _ in range(n_steps):
        t += sys.dt_system
        state = solver.step(state, force(t))
        out.append(state)
    return out
