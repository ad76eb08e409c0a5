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

from . import linalg
from .coupling import CoupledSystem, SystemStepResult
from .errors import SingularSaddleSystem
from .newmark import KinematicState, NewmarkParams


def backward_euler_step(sys: CoupledSystem) -> SystemStepResult:
    """One backward-Euler step of the first-order constrained system.

    Solves, monolithically for (v^(n+1) per subdomain, lam^(n+1)):

        M_i (v^(n+1) - v^n)/dt + K_i d^(n+1) = f_i^(n+1) + C_i^T lam^(n+1)
        d^(n+1) = d^n + dt v^(n+1)
        sum_i C_i v^(n+1) = 0

    Subcycling is not part of this baseline: every subdomain is stepped
    at the system time-step regardless of its dt_sub.  The reported
    acceleration is the difference quotient (v^(n+1) - v^n)/dt.
    """
    dt = sys.dt_system
    n_c = sys.n_constraints
    sizes = [sub.n_dofs for sub in sys.subdomains]
    total = sum(sizes)

    A = np.zeros((total + n_c, total + n_c))
    rhs = np.zeros(total + n_c)
    offset = 0
    for sub, st in zip(sys.subdomains, sys.states):
        n = sub.n_dofs
        # Substituting d^(n+1) = d^n + dt v^(n+1) into the momentum row:
        A[offset:offset + n, offset:offset + n] = sub.M / dt + dt * sub.K
        A[offset:offset + n, total:] = -sub.C.data.T
        A[total:, offset:offset + n] = sub.C.data
        f_next = np.asarray(sub.force(sys.t_current + dt), dtype=float)
        rhs[offset:offset + n] = f_next + sub.M @ st.v / dt - sub.K @ st.d
        offset += n

    try:
        sol = linalg.solve_general(A, rhs)
    except linalg.SingularMatrix as exc:
        raise SingularSaddleSystem(str(exc)) from exc

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
        new_states=tuple(new_states), lambda_next=sol[total:]
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
    """Assemble the undecomposed (M, K, force, dof maps) of a coupled model."""
    maps, size = merge_dof_map(sys)
    M = np.zeros((size, size))
    K = np.zeros((size, size))
    for sub, mp in zip(sys.subdomains, maps):
        M[np.ix_(mp, mp)] += sub.M
        K[np.ix_(mp, mp)] += sub.K

    subs = sys.subdomains

    def force(t: float) -> np.ndarray:
        f = np.zeros(size)
        for sub, mp in zip(subs, maps):
            np.add.at(f, mp, np.asarray(sub.force(t), dtype=float))
        return f

    return M, K, force, maps


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
